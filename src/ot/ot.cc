#include "ot/ot.h"

#include <algorithm>

#include "util/assert.h"

namespace egwalker {

std::string OtReplayer::ReplayAll() {
  doc_.Clear();
  model_.clear();
  history_.clear();
  delete_targets_.clear();
  prepare_version_.clear();
  stats_ = Stats{};

  WalkPlan plan = PlanWalkAll(graph_, SortMode::kLvOrder);
  for (const WalkStep& step : plan.steps) {
    ProcessStep(step);
  }
  return doc_.ToString();
}

void OtReplayer::NotePeaks() {
  stats_.peak_model_spans = std::max(stats_.peak_model_spans, model_.size());
  stats_.peak_history_events = std::max(stats_.peak_history_events, history_.size());
}

void OtReplayer::ResetWindow() {
  NotePeaks();
  model_.clear();
  history_.clear();
  delete_targets_.clear();
  if (doc_.char_size() > 0) {
    ModelSpan base;
    base.id = next_placeholder_;
    base.len = doc_.char_size();
    base.prep = 1;
    base.ever_deleted = false;
    next_placeholder_ += base.len;
    model_.push_back(base);
  }
}

void OtReplayer::ProcessStep(const WalkStep& step) {
  const Lv start = step.span.start;
  const uint64_t len = step.span.size();
  const uint64_t fast_end = step.critical_prefix;
  const uint64_t fast_begin = step.critical_before ? 0 : 1;

  if (step.critical_before) {
    ResetWindow();
  }
  if (fast_end <= fast_begin) {
    EnterSpan(start);
    ApplyRange(start, step.span.end);
    prepare_version_ = Frontier{step.span.end - 1};
    return;
  }
  if (fast_begin > 0) {
    EnterSpan(start);
    ApplyRange(start, start + fast_begin);
  }
  FastApplyRange(start + fast_begin, start + fast_end);
  prepare_version_ = Frontier{start + fast_end - 1};
  ResetWindow();
  if (fast_end < len) {
    ApplyRange(start + fast_end, step.span.end);
  }
  prepare_version_ = Frontier{step.span.end - 1};
}

void OtReplayer::EnterSpan(Lv first) {
  Frontier parents = graph_.ParentsOf(first);
  if (parents == prepare_version_) {
    return;
  }
  DiffResult diff = graph_.Diff(prepare_version_, parents);
  for (auto it = diff.only_a.rbegin(); it != diff.only_a.rend(); ++it) {
    ProcessPrepSpan(*it, -1);
  }
  for (const LvSpan& span : diff.only_b) {
    ProcessPrepSpan(span, +1);
  }
}

size_t OtReplayer::SpanIndexOfId(Lv id, uint64_t* offset) {
  for (size_t i = 0; i < model_.size(); ++i) {
    ++stats_.model_span_visits;
    const ModelSpan& s = model_[i];
    if (id >= s.id && id < s.id + s.len) {
      *offset = id - s.id;
      return i;
    }
  }
  EGW_CHECK(false && "model id not found");
  return 0;
}

void OtReplayer::AdjustPrepRange(Lv id_start, uint64_t count, int delta) {
  Lv id = id_start;
  uint64_t left = count;
  while (left > 0) {
    uint64_t offset;
    size_t i = SpanIndexOfId(id, &offset);
    // Split so [offset, offset+take) is exactly one span.
    if (offset > 0) {
      ModelSpan tail = model_[i];
      tail.id += offset;
      tail.len -= offset;
      model_[i].len = offset;
      model_.insert(model_.begin() + static_cast<long>(i) + 1, tail);
      ++i;
    }
    uint64_t take = std::min<uint64_t>(left, model_[i].len);
    if (take < model_[i].len) {
      ModelSpan tail = model_[i];
      tail.id += take;
      tail.len -= take;
      model_[i].len = take;
      model_.insert(model_.begin() + static_cast<long>(i) + 1, tail);
    }
    model_[i].prep = static_cast<uint32_t>(static_cast<int32_t>(model_[i].prep) + delta);
    id += take;
    left -= take;
  }
}

void OtReplayer::ProcessPrepSpan(const LvSpan& span, int delta) {
  Lv v = span.start;
  while (v < span.end) {
    OpSlice slice = ops_.SliceAt(v, span.end);
    if (slice.kind == OpKind::kInsert) {
      AdjustPrepRange(v, slice.count, delta);
    } else {
      Lv ev = v;
      uint64_t left = slice.count;
      while (left > 0) {
        auto it = delete_targets_.upper_bound(ev);
        EGW_CHECK(it != delete_targets_.begin());
        --it;
        EGW_CHECK(ev >= it->first && ev < it->second.ev_end);
        uint64_t offset = ev - it->first;
        uint64_t avail = it->second.ev_end - ev;
        uint64_t take = std::min(left, avail);
        if (it->second.fwd) {
          AdjustPrepRange(it->second.target + offset, take, delta);
        } else {
          Lv hi = it->second.target - offset;
          AdjustPrepRange(hi - take + 1, take, delta);
        }
        ev += take;
        left -= take;
      }
    }
    v += slice.count;
  }
}

void OtReplayer::ApplyRange(Lv begin, Lv end) {
  // Classic OT transforms one operation at a time against the concurrency
  // window — no run batching. This per-event processing (and the resulting
  // per-event model records) is what makes merging two n-event branches
  // O(n^2), the asymptotic behaviour the paper reports for OT. Eg-walker's
  // run-at-a-time processing is one of the things being compared against.
  for (Lv v = begin; v < end; ++v) {
    OpSlice slice = ops_.SliceAt(v, v + 1);
    if (slice.kind == OpKind::kInsert) {
      ApplyInsertSlice(v, slice);
    } else {
      ApplyDeleteSlice(v, slice);
    }
  }
  NotePeaks();
}

void OtReplayer::FastApplyRange(Lv begin, Lv end) {
  Lv v = begin;
  while (v < end) {
    OpSlice slice = ops_.SliceAt(v, end);
    if (slice.kind == OpKind::kInsert) {
      doc_.InsertAt(slice.pos_start, slice.text);
    } else {
      uint64_t pos = slice.fwd ? slice.pos_start : slice.pos_start - (slice.count - 1);
      doc_.RemoveAt(pos, slice.count);
    }
    v += slice.count;
  }
}

void OtReplayer::ApplyInsertSlice(Lv id_start, const OpSlice& slice) {
  // Transform: scan the model to convert the prepare-context index into a
  // model position, counting only characters visible in the prepare state,
  // and record the YATA left anchor (the last visible character passed).
  size_t i = 0;
  uint64_t remaining = slice.pos_start;
  uint64_t split_offset = 0;
  Lv origin_left = kOriginStart;
  for (; i < model_.size(); ++i) {
    ++stats_.model_span_visits;
    if (remaining == 0) {
      break;
    }
    uint64_t u = model_[i].prep_units();
    if (u > remaining) {
      split_offset = remaining;
      origin_left = model_[i].id + remaining - 1;
      break;
    }
    if (u > 0) {
      origin_left = model_[i].id + model_[i].len - 1;
    }
    remaining -= u;
  }
  EGW_CHECK(remaining == 0 || split_offset > 0);
  if (split_offset > 0) {
    ModelSpan tail = model_[i];
    tail.id += split_offset;
    tail.len -= split_offset;
    tail.origin_left = tail.id - 1;
    model_[i].len = split_offset;
    model_.insert(model_.begin() + static_cast<long>(i) + 1, tail);
    ++i;
  }
  // Right anchor: the next record that exists in the prepare version.
  Lv origin_right = kOriginEnd;
  for (size_t k = i; k < model_.size(); ++k) {
    ++stats_.model_span_visits;
    if (model_[k].prep >= 1) {
      origin_right = model_[k].id;
      break;
    }
  }
  // YATA integration over the concurrent records between the anchors. The
  // candidates are single-event records (the window is never run-batched),
  // so this is the textbook per-item scan.
  auto contains = [](const std::vector<Lv>& v, Lv x) {
    return std::find(v.begin(), v.end(), x) != v.end();
  };
  std::vector<Lv> visited;
  std::vector<Lv> conflicting;
  size_t dest = i;
  for (size_t scan = i; scan < model_.size(); ++scan) {
    const ModelSpan& other = model_[scan];
    ++stats_.model_span_visits;
    if (origin_right != kOriginEnd && other.id == origin_right) {
      break;
    }
    if (other.prep >= 1) {
      break;  // origin_right == kOriginEnd bound (known record reached).
    }
    visited.push_back(other.id);
    conflicting.push_back(other.id);
    bool move = false;
    if (other.origin_left == origin_left) {
      if (graph_.CompareRaw(other.id, id_start) < 0) {
        move = true;
      } else if (other.origin_right == origin_right) {
        break;
      }
    } else if (other.origin_left != kOriginStart && contains(visited, other.origin_left)) {
      if (!contains(conflicting, other.origin_left)) {
        move = true;
      }
    } else {
      break;
    }
    if (move) {
      dest = scan + 1;
      conflicting.clear();
    }
  }
  // Effect position: visible characters before the insertion point.
  uint64_t eff_pos = 0;
  for (size_t k = 0; k < dest; ++k) {
    ++stats_.model_span_visits;
    eff_pos += model_[k].eff_units();
  }
  ModelSpan span;
  span.id = id_start;
  span.len = slice.count;
  span.origin_left = origin_left;
  span.origin_right = origin_right;
  span.prep = 1;
  span.ever_deleted = false;
  model_.insert(model_.begin() + static_cast<long>(dest), span);
  doc_.InsertAt(eff_pos, slice.text);
  for (uint64_t k = 0; k < slice.count; ++k) {
    history_.push_back(
        HistoryEntry{OpKind::kInsert, static_cast<uint32_t>(eff_pos + k)});
  }
}

void OtReplayer::ApplyDeleteSlice(Lv ev_start, const OpSlice& slice) {
  Lv ev = ev_start;
  uint64_t left = slice.count;
  uint64_t pos = slice.pos_start;
  while (left > 0) {
    // Locate the character at prepare-visible position `pos`.
    size_t i = 0;
    uint64_t remaining = pos;
    uint64_t offset = 0;
    bool found = false;
    for (; i < model_.size(); ++i) {
      ++stats_.model_span_visits;
      const ModelSpan& s = model_[i];
      if (s.prep != 1) {
        continue;
      }
      if (s.len > remaining) {
        offset = remaining;
        found = true;
        break;
      }
      remaining -= s.len;
    }
    EGW_CHECK(found);

    uint64_t take;
    uint64_t range_offset;
    Lv first_victim;
    if (slice.fwd) {
      take = std::min(left, model_[i].len - offset);
      range_offset = offset;
      first_victim = model_[i].id + offset;
    } else {
      uint64_t avail = offset + 1;
      take = std::min(left, avail);
      range_offset = offset - (take - 1);
      first_victim = model_[i].id + offset;  // Highest id; victims descend.
    }
    // Split so [range_offset, range_offset + take) is exactly one span.
    if (range_offset > 0) {
      ModelSpan tail = model_[i];
      tail.id += range_offset;
      tail.len -= range_offset;
      model_[i].len = range_offset;
      model_.insert(model_.begin() + static_cast<long>(i) + 1, tail);
      ++i;
    }
    if (take < model_[i].len) {
      ModelSpan tail = model_[i];
      tail.id += take;
      tail.len -= take;
      model_[i].len = take;
      model_.insert(model_.begin() + static_cast<long>(i) + 1, tail);
    }
    uint64_t eff_pos = 0;
    for (size_t k = 0; k < i; ++k) {
      ++stats_.model_span_visits;
      eff_pos += model_[k].eff_units();
    }
    bool noop = model_[i].ever_deleted;
    model_[i].prep += 1;
    model_[i].ever_deleted = true;
    if (!noop) {
      doc_.RemoveAt(eff_pos, take);
    }
    delete_targets_[ev] = TargetRun{ev + take, first_victim, slice.fwd};
    for (uint64_t k = 0; k < take; ++k) {
      history_.push_back(HistoryEntry{OpKind::kDelete, static_cast<uint32_t>(eff_pos)});
    }
    ev += take;
    left -= take;
    if (!slice.fwd) {
      pos -= take;
    }
  }
}

}  // namespace egwalker
