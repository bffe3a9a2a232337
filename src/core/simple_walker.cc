#include "core/simple_walker.h"

#include <algorithm>

#include "rope/utf8.h"
#include "util/assert.h"

namespace egwalker {

std::string SimpleWalker::ReplayAll(SortMode mode, ReplaySinks sinks) {
  items_.clear();
  delete_target_.clear();
  doc_.clear();
  prepare_version_.clear();

  WalkPlan plan = PlanWalkAll(graph_, mode);
  for (const WalkStep& step : plan.steps) {
    // Move the prepare version to the parents of the run's first event.
    Frontier parents = graph_.ParentsOf(step.span.start);
    DiffResult diff = graph_.Diff(prepare_version_, parents);
    // Retreat newest-first so deletions are undone before their insertions.
    for (auto it = diff.only_a.rbegin(); it != diff.only_a.rend(); ++it) {
      RetreatRun(*it);
    }
    for (const LvSpan& span : diff.only_b) {
      AdvanceRun(span);
    }
    for (Lv v = step.span.start; v < step.span.end; ++v) {
      Apply(v, sinks);
    }
    prepare_version_ = Frontier{step.span.end - 1};
  }

  std::string out;
  out.reserve(doc_.size());
  for (uint32_t cp : doc_) {
    Utf8Append(out, cp);
  }
  return out;
}

size_t SimpleWalker::IndexOfItem(Lv id) const {
  for (size_t i = 0; i < items_.size(); ++i) {
    if (items_[i].id == id) {
      return i;
    }
  }
  EGW_CHECK(false && "item not found");
  return 0;
}

// Per-run prepare-state adjustment. Insert events target their own ids, so
// one pass over items_ flips every insert in the run at once; delete events
// resolve their victims through the map individually (targets are arbitrary
// ids). Prepare states are plain counters, so within one run only the
// retreat underflow check cares about order: undo deletions before the
// insertions they stack on (and mirror that for advance).
void SimpleWalker::AdjustPrepRun(const LvSpan& span, int delta) {
  auto adjust_deletes = [&] {
    for (Lv v = span.start; v < span.end; ++v) {
      if (ops_.OpAt(v).kind == OpKind::kInsert) {
        continue;
      }
      Item& item = items_[IndexOfItem(delete_target_.at(v))];
      EGW_CHECK(delta > 0 || item.prepare_state >= 1);
      item.prepare_state = static_cast<uint32_t>(static_cast<int>(item.prepare_state) + delta);
    }
  };
  auto adjust_inserts = [&] {
    for (Item& item : items_) {
      if (item.id >= span.start && item.id < span.end) {
        EGW_CHECK(delta > 0 || item.prepare_state >= 1);
        item.prepare_state = static_cast<uint32_t>(static_cast<int>(item.prepare_state) + delta);
      }
    }
  };
  if (delta < 0) {
    adjust_deletes();
    adjust_inserts();
  } else {
    adjust_inserts();
    adjust_deletes();
  }
}

void SimpleWalker::RetreatRun(const LvSpan& span) { AdjustPrepRun(span, -1); }

void SimpleWalker::AdvanceRun(const LvSpan& span) { AdjustPrepRun(span, +1); }

// Yjs-style YATA integration: scans the concurrent items between the new
// item's origins to find its deterministic position (see Section 3.3).
size_t SimpleWalker::IntegrateScan(const Item& item, size_t idx) const {
  size_t right_idx =
      (item.origin_right == kOriginEnd) ? items_.size() : IndexOfItem(item.origin_right);
  size_t dest = idx;
  std::vector<Lv> items_before_origin;
  std::vector<Lv> conflicting;
  auto contains = [](const std::vector<Lv>& v, Lv x) {
    return std::find(v.begin(), v.end(), x) != v.end();
  };
  for (size_t scan = idx; scan < right_idx; ++scan) {
    const Item& other = items_[scan];
    items_before_origin.push_back(other.id);
    conflicting.push_back(other.id);
    if (other.origin_left == item.origin_left) {
      if (graph_.CompareRaw(other.id, item.id) < 0) {
        dest = scan + 1;
        conflicting.clear();
      } else if (other.origin_right == item.origin_right) {
        break;
      }
    } else if (other.origin_left != kOriginStart &&
               contains(items_before_origin, other.origin_left)) {
      if (!contains(conflicting, other.origin_left)) {
        dest = scan + 1;
        conflicting.clear();
      }
    } else {
      break;
    }
  }
  return dest;
}

void SimpleWalker::EmitInsert(size_t idx, uint32_t codepoint, ReplaySinks& sinks) {
  // Transformed position: effect-visible characters before idx.
  uint64_t eff_pos = 0;
  for (size_t i = 0; i < idx; ++i) {
    eff_pos += items_[i].ever_deleted ? 0 : 1;
  }
  doc_.insert(doc_.begin() + static_cast<long>(eff_pos), codepoint);
  if (sinks.xf_ops != nullptr) {
    XfOp op;
    op.kind = OpKind::kInsert;
    op.pos = eff_pos;
    op.count = 1;
    Utf8Append(op.text, codepoint);
    sinks.xf_ops->push_back(std::move(op));
  }
}

void SimpleWalker::Apply(Lv ev, ReplaySinks& sinks) {
  Op op = ops_.OpAt(ev);
  if (op.kind == OpKind::kInsert) {
    // Find the physical index just after the op.pos-th prepare-visible item.
    size_t idx = 0;
    uint64_t remaining = op.pos;
    while (remaining > 0) {
      EGW_CHECK(idx < items_.size());
      if (items_[idx].prepare_state == 1) {
        --remaining;
      }
      ++idx;
    }
    Item item;
    item.id = ev;
    item.origin_left = (idx == 0) ? kOriginStart : items_[idx - 1].id;
    item.origin_right = kOriginEnd;
    for (size_t i = idx; i < items_.size(); ++i) {
      if (items_[i].prepare_state >= 1) {
        item.origin_right = items_[i].id;
        break;
      }
    }
    item.prepare_state = 1;
    item.ever_deleted = false;
    size_t dest = IntegrateScan(item, idx);
    items_.insert(items_.begin() + static_cast<long>(dest), item);
    EmitInsert(dest, op.codepoint, sinks);
    if (sinks.crdt_ops != nullptr) {
      CrdtOp cop;
      cop.kind = OpKind::kInsert;
      cop.id = ev;
      cop.count = 1;
      cop.origin_left = item.origin_left;
      cop.origin_right = item.origin_right;
      Utf8Append(cop.text, op.codepoint);
      sinks.crdt_ops->push_back(std::move(cop));
    }
  } else {
    // Find the item at prepare-visible position op.pos.
    size_t idx = 0;
    uint64_t remaining = op.pos;
    for (;; ++idx) {
      EGW_CHECK(idx < items_.size());
      if (items_[idx].prepare_state == 1) {
        if (remaining == 0) {
          break;
        }
        --remaining;
      }
    }
    Item& item = items_[idx];
    delete_target_.emplace(ev, item.id);
    uint64_t eff_pos = 0;
    for (size_t i = 0; i < idx; ++i) {
      eff_pos += items_[i].ever_deleted ? 0 : 1;
    }
    bool noop = item.ever_deleted;
    if (!noop) {
      doc_.erase(doc_.begin() + static_cast<long>(eff_pos));
    }
    if (sinks.xf_ops != nullptr) {
      XfOp xf;
      xf.kind = OpKind::kDelete;
      xf.pos = eff_pos;
      xf.count = 1;
      xf.noop = noop;
      sinks.xf_ops->push_back(std::move(xf));
    }
    if (sinks.crdt_ops != nullptr) {
      CrdtOp cop;
      cop.kind = OpKind::kDelete;
      cop.id = ev;
      cop.count = 1;
      cop.target = item.id;
      cop.target_fwd = true;
      sinks.crdt_ops->push_back(std::move(cop));
    }
    item.prepare_state += 1;
    item.ever_deleted = true;
  }
}

}  // namespace egwalker
