#include "core/walker.h"

#include <algorithm>
#include <utility>

#include "crdt/yata.h"
#include "obs/trace.h"
#include "util/assert.h"
#include "util/varint.h"

namespace egwalker {

void Walker::ReplayAll(Rope& doc, const Options& opts, ReplaySinks sinks) {
  EGW_CHECK(doc.char_size() == 0);
  ReplayRange(doc, Frontier{}, graph_.version(), opts, sinks);
}

void Walker::ReplayRange(Rope& doc, const Frontier& from, const Frontier& to,
                         const Options& opts, ReplaySinks sinks) {
  MergeRange(doc, from, doc.char_size(), to, /*apply_from=*/0, opts, sinks);
}

void Walker::MergeRange(Rope& doc, const Frontier& from, uint64_t base_len, const Frontier& to,
                        Lv apply_from, const Options& opts, ReplaySinks sinks) {
  EGW_TRACE_SPAN("walker.merge");
  doc_ = &doc;
  opts_ = opts;
  sinks_ = sinks;
  apply_from_ = apply_from;
  if (apply_from_ > 0) {
    // The catch-up stage must precede every new event; LV order guarantees
    // that (old events always have smaller LVs).
    opts_.sort_mode = SortMode::kLvOrder;
  }
  // The CRDT-op sink reports real origins for every event, which requires
  // replaying without placeholders or the untransformed fast path.
  EGW_CHECK(sinks_.crdt_ops == nullptr ||
            (!opts_.enable_clearing && from.empty() && apply_from == 0));

  prepare_version_ = from;
  logical_len_ = base_len;
  tree_.Reset(base_len);
  group_cache_.Invalidate();
  delete_targets_.clear();
  target_cursor_ = 0;
  peak_spans_ = 0;
  session_open_ = false;
  session_base_ = from;

  WalkPlan plan = PlanWalk(graph_, from, to, opts_.sort_mode);
  for (const WalkStep& step : plan.steps) {
    ProcessStep(step);
  }
  doc_ = nullptr;

  // A replay that ended at the graph frontier leaves exactly the internal
  // state a future merge of appended events needs: keep it as a session.
  if (to == graph_.version()) {
    session_open_ = true;
    seen_end_ = graph_.size();
    seen_version_ = to;
  }
}

void Walker::ContinueMerge(Rope& doc, Lv apply_from, ReplaySinks sinks) {
  EGW_TRACE_SPAN("walker.continue");
  EGW_CHECK(session_open_);
  // The CRDT-op sink needs a from-scratch replay (see MergeRange).
  EGW_CHECK(sinks.crdt_ops == nullptr);
  doc_ = &doc;
  sinks_ = sinks;
  apply_from_ = apply_from;
  // Appended events are processed in LV order (catch-up precedes new ones).
  opts_.sort_mode = SortMode::kLvOrder;

  WalkPlan plan = PlanWalkAppend(graph_, seen_version_, seen_end_, graph_.size());
  for (const WalkStep& step : plan.steps) {
    ProcessStep(step);
  }
  doc_ = nullptr;
  seen_end_ = graph_.size();
  seen_version_ = graph_.version();
}

void Walker::EndSession() {
  session_open_ = false;
  tree_.Reset(0);
  group_cache_.Invalidate();
  delete_targets_.clear();
  target_cursor_ = 0;
}

namespace {

constexpr uint8_t kSessionFormatVersion = 1;

void AppendFrontier(std::string& out, const Frontier& f) {
  AppendVarint(out, f.size());
  for (Lv v : f) {
    AppendVarint(out, v);
  }
}

bool ReadFrontier(ByteReader& reader, Frontier* out, Lv limit) {
  auto count = reader.ReadVarint();
  // A frontier's tips are distinct events, so its width is bounded by the
  // graph size — accept exactly what SaveSession can write (a fixed cap
  // would strand wide-frontier sessions: saved but never restorable).
  if (!count || *count > limit) {
    return false;
  }
  out->clear();
  Lv prev = 0;
  for (uint64_t i = 0; i < *count; ++i) {
    auto v = reader.ReadVarint();
    if (!v || *v >= limit || (i > 0 && *v <= prev)) {
      return false;  // Frontiers are sorted, duplicate-free, in-graph.
    }
    out->push_back(*v);
    prev = *v;
  }
  return true;
}

}  // namespace

std::string Walker::SaveSession() const {
  EGW_CHECK(session_open_);
  std::string out;
  out.push_back(static_cast<char>(kSessionFormatVersion));
  AppendVarint(out, seen_end_);
  AppendFrontier(out, seen_version_);
  AppendFrontier(out, session_base_);
  AppendFrontier(out, prepare_version_);
  AppendVarint(out, logical_len_);
  AppendVarint(out, delete_targets_.size());
  for (const TargetRun& run : delete_targets_) {
    AppendVarint(out, run.ev_start);
    AppendVarint(out, run.ev_end - run.ev_start);
    AppendVarint(out, run.target);
    out.push_back(run.fwd ? 1 : 0);
  }
  // Record spans in document order. Placeholder ids and the YATA origin
  // sentinels are plain (large) varints; they round-trip verbatim so
  // delete-target references into placeholder ranges stay valid.
  AppendVarint(out, tree_.span_count());
  for (StateTree::Cursor c = tree_.Begin(); !tree_.AtEnd(c); c = tree_.NextPiece(c)) {
    StateTree::Piece piece = tree_.PieceAt(c);
    AppendVarint(out, piece.first_id);
    AppendVarint(out, piece.len);
    AppendVarint(out, piece.eff_origin_left);
    AppendVarint(out, piece.origin_right);
    AppendVarint(out, piece.prep);
    out.push_back(piece.ever_deleted ? 1 : 0);
  }
  return out;
}

bool Walker::RestoreSession(std::string_view bytes, uint64_t doc_len) {
  session_open_ = false;
  ByteReader reader(reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
  auto version = reader.ReadByte();
  if (!version || *version != kSessionFormatVersion) {
    return false;
  }
  auto seen_end = reader.ReadVarint();
  // The session must have been saved against exactly this graph.
  if (!seen_end || *seen_end != graph_.size()) {
    return false;
  }
  Frontier seen_version, session_base, prepare_version;
  if (!ReadFrontier(reader, &seen_version, *seen_end) ||
      !ReadFrontier(reader, &session_base, *seen_end) ||
      !ReadFrontier(reader, &prepare_version, *seen_end)) {
    return false;
  }
  if (!(seen_version == graph_.version()) || session_base.size() > 1) {
    return false;
  }
  auto logical_len = reader.ReadVarint();
  if (!logical_len || *logical_len != doc_len) {
    return false;
  }

  auto target_count = reader.ReadVarint();
  if (!target_count || *target_count > (1u << 24)) {
    return false;
  }
  std::vector<TargetRun> targets;
  targets.reserve(*target_count);
  Lv prev_end = 0;
  for (uint64_t i = 0; i < *target_count; ++i) {
    auto ev_start = reader.ReadVarint();
    auto len = reader.ReadVarint();
    auto target = reader.ReadVarint();
    auto fwd = reader.ReadByte();
    if (!ev_start || !len || *len == 0 || !target || !fwd || *fwd > 1) {
      return false;
    }
    // Runs are sorted, disjoint, and within the seen range; the subtraction
    // form keeps the bound overflow-safe against crafted huge values.
    if (*ev_start < prev_end || *ev_start >= *seen_end || *len > *seen_end - *ev_start) {
      return false;
    }
    // Targets name record ids: the whole victim range (ascending from
    // `target` for fwd runs, descending for backspace runs) must stay
    // inside one id class without wrapping, or the next retreat would ask
    // FindById for ids no span covers (a crash, not the promised graceful
    // restore failure).
    bool target_real = *target < *seen_end;
    bool target_placeholder = *target >= kPlaceholderBase && *target < kOriginEnd;
    if (!target_real && !target_placeholder) {
      return false;
    }
    if (*fwd == 1) {
      if (target_real && *len > *seen_end - *target) {
        return false;
      }
      if (target_placeholder && *len > kOriginEnd - *target) {
        return false;
      }
    } else {
      if (*target < *len - 1) {
        return false;  // Descending run underflows id 0.
      }
      if (target_placeholder && *target - (*len - 1) < kPlaceholderBase) {
        return false;  // Descending run crosses out of the placeholder class.
      }
    }
    Lv ev_end = *ev_start + *len;
    prev_end = ev_end;
    targets.push_back(TargetRun{*ev_start, ev_end, *target, *fwd == 1});
  }

  // Parse spans fully before touching the tree, validating that real ids
  // stay below seen_end, placeholder ids stay in the placeholder range, and
  // the effect-visible total reproduces the document length.
  struct SpanRec {
    Lv id;
    uint64_t len;
    Lv origin_left;
    Lv origin_right;
    uint32_t prep;
    bool ever_deleted;
  };
  auto span_count = reader.ReadVarint();
  if (!span_count || *span_count > (1u << 24)) {
    return false;
  }
  std::vector<SpanRec> spans;
  spans.reserve(*span_count);
  uint64_t eff_total = 0;
  for (uint64_t i = 0; i < *span_count; ++i) {
    auto id = reader.ReadVarint();
    auto len = reader.ReadVarint();
    auto origin_left = reader.ReadVarint();
    auto origin_right = reader.ReadVarint();
    auto prep = reader.ReadVarint();
    auto deleted = reader.ReadByte();
    if (!id || !len || *len == 0 || !origin_left || !origin_right || !prep ||
        *prep > (1u << 30) || !deleted || *deleted > 1) {
      return false;
    }
    // Overflow-safe range checks (subtraction form): real ids stay below
    // seen_end, placeholder runs stay below the origin sentinels (ids AT
    // the sentinels are malformed too).
    bool placeholder = *id >= kPlaceholderBase;
    if (!placeholder && (*id >= *seen_end || *len > *seen_end - *id)) {
      return false;
    }
    if (placeholder && (*id >= kOriginEnd || *len > kOriginEnd - *id)) {
      return false;  // Placeholder run at/overflowing into the sentinels.
    }
    // Origins feed YataIntegrate ordering decisions later: they must name a
    // real event, a placeholder, or an edge sentinel.
    auto origin_ok = [&](Lv o) {
      return o == kOriginStart || o == kOriginEnd || o < *seen_end ||
             (o >= kPlaceholderBase && o < kOriginEnd);
    };
    if (!origin_ok(*origin_left) || !origin_ok(*origin_right)) {
      return false;
    }
    if (*deleted == 0) {
      eff_total += *len;
      if (eff_total > doc_len) {
        return false;  // Early out also keeps the sum from ever wrapping.
      }
    }
    spans.push_back(SpanRec{*id, *len, *origin_left, *origin_right,
                            static_cast<uint32_t>(*prep), *deleted == 1});
  }
  if (!reader.empty() || eff_total != doc_len) {
    return false;
  }
  // Distinct spans must cover disjoint id ranges, or the id index would be
  // corrupted mid-rebuild.
  {
    std::vector<std::pair<Lv, Lv>> ranges;
    ranges.reserve(spans.size());
    for (const SpanRec& s : spans) {
      ranges.emplace_back(s.id, s.id + s.len);
    }
    std::sort(ranges.begin(), ranges.end());
    for (size_t i = 1; i < ranges.size(); ++i) {
      if (ranges[i].first < ranges[i - 1].second) {
        return false;
      }
    }
  }

  // Rebuild the tree: insert spans in reverse document order at the front
  // (O(1) cursor per span), then fix each span's dual state — InsertSpan
  // leaves (prep=Ins, visible); MarkDeleted needs exactly that state and
  // AdjustPrep closes the remaining prepare-count gap.
  tree_.Reset(0);
  group_cache_.Invalidate();
  for (size_t i = spans.size(); i-- > 0;) {
    const SpanRec& s = spans[i];
    tree_.InsertSpan(tree_.Begin(), s.id, s.len, s.origin_left, s.origin_right);
    int delta = static_cast<int>(s.prep) - 1;
    if (s.ever_deleted) {
      tree_.MarkDeleted(tree_.FindById(s.id), s.len);
      delta = static_cast<int>(s.prep) - 2;
    }
    if (delta != 0) {
      tree_.AdjustPrep(tree_.FindById(s.id), s.len, delta);
    }
  }

  delete_targets_ = std::move(targets);
  target_cursor_ = 0;
  prepare_version_ = std::move(prepare_version);
  session_base_ = std::move(session_base);
  seen_end_ = *seen_end;
  seen_version_ = std::move(seen_version);
  logical_len_ = *logical_len;
  apply_cursor_ = OpLog::SliceCursor{};
  prep_cursor_ = OpLog::SliceCursor{};
  opts_ = Options{};
  peak_spans_ = tree_.span_count();
  session_open_ = true;
  return true;
}

void Walker::NotePeak() { peak_spans_ = std::max(peak_spans_, tree_.span_count()); }

void Walker::ClearState() {
  NotePeak();
  tree_.Reset(logical_len_);
  group_cache_.Invalidate();
  delete_targets_.clear();
  target_cursor_ = 0;
  if (prepare_version_.size() == 1) {
    // The retained state is now anchored on this critical version: a future
    // ContinueMerge is valid only for events it dominates.
    session_base_ = prepare_version_;
  }
  if (sinks_.critical_points != nullptr && prepare_version_.size() == 1) {
    sinks_.critical_points->push_back(CriticalPoint{prepare_version_[0], logical_len_});
  }
}

void Walker::ProcessStep(const WalkStep& step) {
  const Lv start = step.span.start;
  const uint64_t len = step.span.size();

  if (!opts_.enable_clearing) {
    EnterSpan(start);
    ApplyRange(start, step.span.end);
    prepare_version_ = Frontier{step.span.end - 1};
    return;
  }

  // Fast range: events whose before- and after-boundaries are both critical
  // (Section 3.5's second optimisation). Criticality within a run is a
  // prefix, so this is [0 or 1, critical_prefix).
  const uint64_t fast_end = step.critical_prefix;
  const uint64_t fast_begin = step.critical_before ? 0 : 1;

  if (step.critical_before) {
    // The internal state's content is fully causally behind this run:
    // discard it (Section 3.5's first optimisation).
    ClearState();
  }

  if (fast_end <= fast_begin) {
    EnterSpan(start);
    ApplyRange(start, step.span.end);
    prepare_version_ = Frontier{step.span.end - 1};
    return;
  }

  if (fast_begin > 0) {
    // Apply the first event normally; the boundary after it is critical.
    EnterSpan(start);
    ApplyRange(start, start + fast_begin);
  }
  FastApplyRange(start + fast_begin, start + fast_end);
  prepare_version_ = Frontier{start + fast_end - 1};
  // Boundary after the fast range is critical: rebase the internal state on
  // a placeholder reflecting the document as of this point.
  ClearState();
  if (fast_end < len) {
    // The remainder chains linearly from the fast range; prepare version
    // already matches its parents, so no retreat/advance is needed.
    ApplyRange(start + fast_end, step.span.end);
  }
  prepare_version_ = Frontier{step.span.end - 1};
}

void Walker::EnterSpan(Lv first) {
  Frontier parents = graph_.ParentsOf(first);
  if (parents == prepare_version_) {
    return;
  }
  DiffResult diff = graph_.Diff(prepare_version_, parents);
  // Retreat events only in the old prepare version (newest-first), then
  // advance events only in the new one. Because prepare states are plain
  // counters, per-span processing order does not affect the result.
  for (auto it = diff.only_a.rbegin(); it != diff.only_a.rend(); ++it) {
    ProcessPrepSpan(*it, -1);
  }
  for (const LvSpan& span : diff.only_b) {
    ProcessPrepSpan(span, +1);
  }
}

void Walker::RecordDeleteTargets(Lv ev_start, uint64_t count, Lv target, bool fwd) {
  const Lv ev_end = ev_start + count;
  if (!delete_targets_.empty() && delete_targets_.back().ev_end <= ev_start) {
    // In-order arrival (the common case). Extend the previous run when the
    // events and victim ids both chain in the same direction.
    TargetRun& back = delete_targets_.back();
    const uint64_t back_len = back.ev_end - back.ev_start;
    const Lv chained = back.fwd ? back.target + back_len : back.target - back_len;
    if (back.ev_end == ev_start && back.fwd == fwd && chained == target) {
      back.ev_end = ev_end;
      return;
    }
    delete_targets_.push_back(TargetRun{ev_start, ev_end, target, fwd});
    return;
  }
  // Out-of-order arrival (different walk steps can interleave event ranges):
  // insert at the sorted position.
  auto it = std::lower_bound(delete_targets_.begin(), delete_targets_.end(), ev_start,
                             [](const TargetRun& r, Lv v) { return r.ev_start < v; });
  EGW_DCHECK(it == delete_targets_.end() || ev_end <= it->ev_start);
  EGW_DCHECK(it == delete_targets_.begin() || std::prev(it)->ev_end <= ev_start);
  delete_targets_.insert(it, TargetRun{ev_start, ev_end, target, fwd});
}

const Walker::TargetRun& Walker::FindDeleteTargets(Lv ev) const {
  if (target_cursor_ < delete_targets_.size()) {
    const TargetRun& r = delete_targets_[target_cursor_];
    if (ev >= r.ev_start && ev < r.ev_end) {
      return r;
    }
  }
  auto it = std::upper_bound(delete_targets_.begin(), delete_targets_.end(), ev,
                             [](Lv v, const TargetRun& r) { return v < r.ev_start; });
  EGW_CHECK(it != delete_targets_.begin());
  --it;
  EGW_CHECK(ev >= it->ev_start && ev < it->ev_end);
  target_cursor_ = static_cast<size_t>(it - delete_targets_.begin());
  return *it;
}

void Walker::AdjustPrepRange(Lv id_start, uint64_t count, int delta) {
  group_cache_.OnAdjustPrep(id_start, count, delta);
  Lv id = id_start;
  uint64_t left = count;
  while (left > 0) {
    StateTree::Cursor cursor = tree_.FindById(id);
    uint64_t take = std::min<uint64_t>(left, tree_.SpanRemaining(cursor));
    tree_.AdjustPrep(cursor, take, delta);
    id += take;
    left -= take;
  }
}

void Walker::ProcessPrepSpan(const LvSpan& span, int delta) {
  Lv v = span.start;
  while (v < span.end) {
    OpSlice slice = ops_.SliceAt(v, span.end, prep_cursor_);
    if (slice.kind == OpKind::kInsert) {
      // Insert events: the affected record ids are the event ids.
      AdjustPrepRange(v, slice.count, delta);
    } else {
      // Delete events: look up the victims recorded when they were applied.
      Lv ev = v;
      uint64_t left = slice.count;
      while (left > 0) {
        const TargetRun& run = FindDeleteTargets(ev);
        uint64_t offset = ev - run.ev_start;
        uint64_t avail = run.ev_end - ev;
        uint64_t take = std::min(left, avail);
        if (run.fwd) {
          AdjustPrepRange(run.target + offset, take, delta);
        } else {
          // Victims descend: events ev..ev+take-1 delete ids
          // (target - offset) down to (target - offset - take + 1). A state
          // adjustment of +-1 per character is order-independent, so apply
          // it to the ascending range.
          Lv hi = run.target - offset;
          AdjustPrepRange(hi - take + 1, take, delta);
        }
        ev += take;
        left -= take;
      }
    }
    v += slice.count;
  }
}

void Walker::ApplyRange(Lv begin, Lv end) {
  // Keep every slice entirely on one side of the apply threshold so the
  // per-slice suppression test is uniform.
  if (begin < apply_from_ && apply_from_ < end) {
    ApplyRange(begin, apply_from_);
    ApplyRange(apply_from_, end);
    return;
  }
  Lv v = begin;
  while (v < end) {
    OpSlice slice = ops_.SliceAt(v, end, apply_cursor_);
    if (slice.kind == OpKind::kInsert) {
      ApplyInsertSlice(v, slice);
    } else {
      ApplyDeleteSlice(v, slice);
    }
    v += slice.count;
  }
  NotePeak();
}

void Walker::FastApplyRange(Lv begin, Lv end) {
  if (begin < apply_from_ && apply_from_ < end) {
    FastApplyRange(begin, apply_from_);
    FastApplyRange(apply_from_, end);
    return;
  }
  const bool live = begin >= apply_from_;
  Lv v = begin;
  while (v < end) {
    OpSlice slice = ops_.SliceAt(v, end, apply_cursor_);
    if (slice.kind == OpKind::kInsert) {
      logical_len_ += slice.count;
      if (live) {
        doc_->InsertAt(slice.pos_start, slice.text);
        if (sinks_.xf_ops != nullptr) {
          XfOp xf;
          xf.kind = OpKind::kInsert;
          xf.pos = slice.pos_start;
          xf.count = slice.count;
          xf.text = std::string(slice.text);
          sinks_.xf_ops->push_back(std::move(xf));
        }
      }
    } else {
      uint64_t pos = slice.fwd ? slice.pos_start : slice.pos_start - (slice.count - 1);
      logical_len_ -= slice.count;
      if (live) {
        doc_->RemoveAt(pos, slice.count);
        if (sinks_.xf_ops != nullptr) {
          XfOp xf;
          xf.kind = OpKind::kDelete;
          xf.pos = pos;
          xf.count = slice.count;
          sinks_.xf_ops->push_back(std::move(xf));
        }
      }
    }
    v += slice.count;
  }
}

namespace {

// Cursor immediately after the character at `c` (possibly the end cursor).
StateTree::Cursor AfterChar(const StateTree& tree, StateTree::Cursor c) {
  if (tree.SpanRemaining(c) > 1) {
    return StateTree::Cursor{c.leaf, c.idx, c.offset + 1};
  }
  return tree.NextPiece(c);
}

}  // namespace

void Walker::ApplyInsertSlice(Lv id_start, const OpSlice& slice) {
  Lv origin_left = kOriginStart;
  StateTree::Cursor cursor = tree_.FindPrepInsert(slice.pos_start, &origin_left);

  // Sibling-group fast path (see crdt/yata.h): when this insert anchors on
  // the cached group and the region is prep-clean, the right-origin scan
  // over the region would cross only prep-0 members — the right origin is
  // the cached boundary, provided it is still prepare-visible — and the
  // naive YATA scan over the region reduces to a binary search for the
  // slot among the cached, already-ordered siblings.
  if (group_cache_.valid() && origin_left == group_cache_.origin_left() &&
      group_cache_.prep_clean() && !group_cache_.siblings().empty()) {
    bool boundary_visible = group_cache_.boundary_is_end();
    if (!boundary_visible) {
      StateTree::Cursor bcur = tree_.FindById(group_cache_.origin_right());
      boundary_visible = tree_.PieceAt(bcur).prep >= 1;
    }
    if (boundary_visible) {
      const Lv origin_right = group_cache_.origin_right();
      const size_t slot = group_cache_.FindSlot(graph_, id_start, yata_stats_);
      const std::vector<YataGroupCache::Sibling>& sibs = group_cache_.siblings();
      StateTree::Cursor dest;
      if (slot < sibs.size()) {
        dest = tree_.FindById(sibs[slot].id);
      } else if (!group_cache_.boundary_is_end()) {
        dest = tree_.FindById(origin_right);
      } else {
        // Greatest member of a group that runs to the tree end: insert
        // after the last member's final character.
        const YataGroupCache::Sibling& last = sibs.back();
        dest = AfterChar(tree_, tree_.FindById(last.id + last.len - 1));
      }
      ++yata_stats_.fast_inserts;
      CommitInsert(dest, id_start, slice, origin_left, origin_right);
      group_cache_.InsertSibling(slot, id_start, slice.count);
      return;
    }
    // The cached boundary retreated out of the prepare version, so the
    // group key changed: fall through and re-establish from a fresh scan.
  }
  SlowInsertSlice(id_start, slice, cursor, origin_left);
}

void Walker::SlowInsertSlice(Lv id_start, const OpSlice& slice, StateTree::Cursor cursor,
                             Lv origin_left) {
  // Right origin: the next record that exists in the prepare version. The
  // pieces this scan crosses are exactly the candidate sibling region, so
  // the same walk classifies it for the group cache: the region is *pure*
  // when every piece is a member run head (anchored on origin_left) or an
  // id-chained continuation of the previous piece, and every member's
  // right origin is the anchor the scan ends on.
  Lv origin_right = kOriginEnd;
  bool boundary_is_end = true;
  bool pure = true;
  region_scratch_.clear();
  region_or_scratch_.clear();
  for (StateTree::Cursor scan = cursor; !tree_.AtEnd(scan); scan = tree_.NextPiece(scan)) {
    StateTree::Piece piece = tree_.PieceAt(scan);
    if (piece.prep >= 1) {
      origin_right = piece.first_id;
      boundary_is_end = false;
      break;
    }
    ++yata_stats_.or_scan_steps;
    if (!pure) {
      continue;  // Region already disqualified; keep walking to the anchor.
    }
    if (piece.eff_origin_left == origin_left) {
      region_scratch_.push_back(YataGroupCache::Sibling{piece.first_id, piece.len});
      region_or_scratch_.push_back(piece.origin_right);
    } else if (!region_scratch_.empty() &&
               piece.first_id == region_scratch_.back().id + region_scratch_.back().len &&
               piece.eff_origin_left == piece.first_id - 1 &&
               piece.origin_right == region_or_scratch_.back()) {
      region_scratch_.back().len += piece.len;
    } else {
      pure = false;
    }
  }
  for (Lv member_or : region_or_scratch_) {
    if (member_or != origin_right) {
      pure = false;
      break;
    }
  }

  StateTree::Cursor dest =
      YataIntegrate(tree_, graph_, cursor, id_start, origin_left, origin_right, &yata_stats_);
  CommitInsert(dest, id_start, slice, origin_left, origin_right);
  if (pure) {
    // Members of one (origin_left, origin_right) group sit in the tree in
    // ascending (agent, seq) order — the YATA total-order property — so the
    // scanned tree order doubles as the cache's sorted order.
    group_cache_.Establish(origin_left, origin_right, boundary_is_end, region_scratch_);
    ++yata_stats_.group_establishes;
    const size_t slot = group_cache_.FindSlot(graph_, id_start, yata_stats_);
    group_cache_.InsertSibling(slot, id_start, slice.count);
  } else {
    group_cache_.Invalidate();
  }
}

void Walker::CommitInsert(StateTree::Cursor dest, Lv id_start, const OpSlice& slice,
                          Lv origin_left, Lv origin_right) {
  uint64_t eff_pos = tree_.EffPrefix(dest);
  tree_.InsertSpan(dest, id_start, slice.count, origin_left, origin_right);
  logical_len_ += slice.count;
  if (id_start >= apply_from_) {
    doc_->InsertAt(eff_pos, slice.text);
    if (sinks_.xf_ops != nullptr) {
      XfOp xf;
      xf.kind = OpKind::kInsert;
      xf.pos = eff_pos;
      xf.count = slice.count;
      xf.text = std::string(slice.text);
      sinks_.xf_ops->push_back(std::move(xf));
    }
  }
  if (sinks_.crdt_ops != nullptr) {
    CrdtOp cop;
    cop.kind = OpKind::kInsert;
    cop.id = id_start;
    cop.count = slice.count;
    cop.origin_left = origin_left;
    cop.origin_right = origin_right;
    cop.text = std::string(slice.text);
    sinks_.crdt_ops->push_back(std::move(cop));
  }
}

void Walker::ApplyDeleteSlice(Lv ev_start, const OpSlice& slice) {
  // Deletes flip effect visibility inside or around the cached region in
  // ways the cache does not model; drop it.
  group_cache_.Invalidate();
  Lv ev = ev_start;
  uint64_t left = slice.count;
  uint64_t pos = slice.pos_start;
  while (left > 0) {
    StateTree::Cursor cursor = tree_.FindPrepChar(pos);
    StateTree::Piece piece = tree_.PieceAt(cursor);
    uint64_t take;
    Lv first_victim;
    StateTree::Cursor range_start = cursor;
    if (slice.fwd) {
      take = std::min(left, piece.len);
      first_victim = piece.first_id;
    } else {
      // Backspace: this event deletes the char at `pos`, the next deletes
      // the one before it, and so on — the run extends backwards through
      // the record span.
      uint64_t avail = cursor.offset + 1;
      take = std::min(left, avail);
      range_start = StateTree::Cursor{cursor.leaf, cursor.idx, cursor.offset - (take - 1)};
      first_victim = piece.first_id;  // Highest id; victims descend from it.
    }
    StateTree::Piece range_piece = tree_.PieceAt(range_start);
    bool noop = range_piece.ever_deleted;
    uint64_t eff_pos = tree_.EffPrefix(range_start);
    tree_.MarkDeleted(range_start, take);
    if (!noop) {
      logical_len_ -= take;
    }
    if (ev >= apply_from_) {
      if (!noop) {
        doc_->RemoveAt(eff_pos, take);
      }
      if (sinks_.xf_ops != nullptr) {
        XfOp xf;
        xf.kind = OpKind::kDelete;
        xf.pos = eff_pos;
        xf.count = take;
        xf.noop = noop;
        sinks_.xf_ops->push_back(std::move(xf));
      }
    }
    RecordDeleteTargets(ev, take, first_victim, slice.fwd);
    if (sinks_.crdt_ops != nullptr) {
      CrdtOp cop;
      cop.kind = OpKind::kDelete;
      cop.id = ev;
      cop.count = take;
      cop.target = first_victim;
      cop.target_fwd = slice.fwd;
      sinks_.crdt_ops->push_back(std::move(cop));
    }
    ev += take;
    left -= take;
    if (!slice.fwd) {
      pos -= take;
    }
  }
}

}  // namespace egwalker
