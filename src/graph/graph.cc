#include "graph/graph.h"

#include <algorithm>
#include <cstddef>
#include <queue>

#include "util/assert.h"

namespace egwalker {
namespace {

// Diff walk flags: which side(s) of the diff an event is reachable from.
enum : uint8_t { kOnlyA = 1, kOnlyB = 2, kShared = 3 };

// Reverses a descending span list and merges adjacent spans.
std::vector<LvSpan> NormalizeDescending(std::vector<LvSpan> spans) {
  std::vector<LvSpan> out;
  out.reserve(spans.size());
  for (auto it = spans.rbegin(); it != spans.rend(); ++it) {
    if (!out.empty() && out.back().end == it->start) {
      out.back().end = it->end;
    } else {
      out.push_back(*it);
    }
  }
  return out;
}

}  // namespace

AgentId Graph::GetOrCreateAgent(std::string_view name) {
  auto it = agent_ids_.find(name);
  if (it != agent_ids_.end()) {
    return it->second;
  }
  AgentId id = static_cast<AgentId>(agent_names_.size());
  agent_names_.emplace_back(name);
  agent_ids_.emplace(agent_names_.back(), id);
  agent_seq_to_lv_.emplace_back();
  agent_linear_.push_back(1);
  return id;
}

Lv Graph::Add(AgentId agent, uint64_t seq_start, uint64_t count, const Frontier& parents) {
  EGW_CHECK(count > 0);
  EGW_CHECK(agent < agent_names_.size());
  for (size_t i = 0; i < parents.size(); ++i) {
    EGW_CHECK(parents[i] < next_lv_);
    if (i > 0) {
      EGW_CHECK(parents[i] > parents[i - 1]);
    }
  }
  // Linearity upkeep (see agent_linear()): the agent stays linear only if
  // this run causally follows the agent's previous last event — directly
  // (it is a parent) or transitively. Checked against the pre-Add graph,
  // whose indexes are still consistent. A sequence gap also breaks
  // linearity: the missing events' position in the order is unknown.
  if (agent_linear_[agent] != 0 && !agent_seq_to_lv_[agent].empty()) {
    const AgentSeqRun& last = agent_seq_to_lv_[agent].back();
    Lv prev_last = last.lv_start + (last.seq_end - last.seq_start) - 1;
    if (seq_start != last.seq_end || !VersionContains(parents, prev_last)) {
      agent_linear_[agent] = 0;
    }
  }
  Lv start = next_lv_;
  entries_.Push(GraphEntry{{start, start + count}, parents});
  agent_assignment_.Push(AgentSpan{{start, start + count}, agent, seq_start});
  agent_seq_to_lv_[agent].Push(AgentSeqRun{seq_start, seq_start + count, start});
  next_lv_ += count;

  for (Lv p : parents) {
    FrontierErase(version_, p);
  }
  FrontierInsert(version_, start + count - 1);
  return start;
}

RawVersion Graph::LvToRaw(Lv v) const {
  const AgentSpan& s = agent_assignment_.FindChecked(v);
  return RawVersion{agent_names_[s.agent], s.seq_start + (v - s.span.start)};
}

std::optional<AgentId> Graph::FindAgent(std::string_view name) const {
  auto it = agent_ids_.find(name);
  if (it == agent_ids_.end()) {
    return std::nullopt;
  }
  return it->second;
}

Lv Graph::RawToLv(std::string_view agent, uint64_t seq) const {
  std::optional<AgentId> id = FindAgent(agent);
  return id ? RawToLv(*id, seq) : kInvalidLv;
}

Lv Graph::RawToLv(AgentId agent, uint64_t seq) const {
  const auto& runs = agent_seq_to_lv_[agent];
  size_t idx = runs.FindIndex(seq);
  if (idx == RleVec<AgentSeqRun>::npos) {
    return kInvalidLv;
  }
  const AgentSeqRun& r = runs[idx];
  return r.lv_start + (seq - r.seq_start);
}

uint64_t Graph::KnownRunLen(std::string_view agent, uint64_t seq) const {
  std::optional<AgentId> id = FindAgent(agent);
  return id ? KnownRunLen(*id, seq) : 0;
}

uint64_t Graph::KnownRunLen(AgentId agent, uint64_t seq) const {
  const auto& runs = agent_seq_to_lv_[agent];
  size_t idx = runs.FindIndex(seq);
  if (idx == RleVec<AgentSeqRun>::npos) {
    return 0;
  }
  return runs[idx].seq_end - seq;
}

uint64_t Graph::NextSeqFor(AgentId agent) const {
  if (agent >= agent_seq_to_lv_.size() || agent_seq_to_lv_[agent].empty()) {
    return 0;
  }
  // Sequence runs are appended in ascending order per agent.
  return agent_seq_to_lv_[agent].back().seq_end;
}

int Graph::CompareAgents(AgentId x, AgentId y) const {
  if (x < ranked_count_ && y < ranked_count_) {
    // Ranks are unique (distinct agents have distinct names), so this is
    // exact, not a pre-filter.
    return agent_rank_[x] < agent_rank_[y] ? -1 : 1;
  }
  // At least one agent was interned after the last rebuild. Rebuild once
  // the misses amortise the sort; until then string-compare (always exact).
  if (++rank_misses_ > ranked_count_ / 8 + 32) {
    RebuildAgentRanks();
    if (x < ranked_count_ && y < ranked_count_) {
      return agent_rank_[x] < agent_rank_[y] ? -1 : 1;
    }
  }
  int c = agent_names_[x].compare(agent_names_[y]);
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

void Graph::RebuildAgentRanks() const {
  std::vector<uint32_t> order(agent_names_.size());
  for (uint32_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(),
            [&](uint32_t x, uint32_t y) { return agent_names_[x] < agent_names_[y]; });
  agent_rank_.resize(order.size());
  for (uint32_t i = 0; i < order.size(); ++i) {
    agent_rank_[order[i]] = i;
  }
  ranked_count_ = order.size();
  rank_misses_ = 0;
}

int Graph::CompareRaw(Lv a, Lv b) const {
  const AgentSpan& sa = agent_assignment_.FindChecked(a);
  const AgentSpan& sb = agent_assignment_.FindChecked(b);
  if (sa.agent != sb.agent) {
    int c = CompareAgents(sa.agent, sb.agent);
    if (c != 0) {
      return c < 0 ? -1 : 1;
    }
  }
  uint64_t qa = sa.seq_start + (a - sa.span.start);
  uint64_t qb = sb.seq_start + (b - sb.span.start);
  if (qa == qb) {
    return 0;
  }
  return qa < qb ? -1 : 1;
}

Frontier Graph::ParentsOf(Lv v) const {
  const GraphEntry& e = entries_.FindChecked(v);
  if (v > e.span.start) {
    return Frontier{v - 1};
  }
  return e.parents;
}

const GraphEntry& Graph::EntryContaining(Lv v) const { return entries_.FindChecked(v); }

void Graph::WmBegin() const {
  ++wm_epoch_;
  size_t n = agent_names_.size();
  for (int side = 0; side < 2; ++side) {
    if (wm_seq_[side].size() < n) {
      wm_seq_[side].resize(n, 0);
      wm_stamp_[side].resize(n, 0);
    }
  }
}

uint64_t Graph::WmGet(int side, AgentId agent) const {
  return wm_stamp_[side][agent] == wm_epoch_ ? wm_seq_[side][agent] : 0;
}

void Graph::WmRaise(int side, AgentId agent, uint64_t seq_end) const {
  if (wm_stamp_[side][agent] != wm_epoch_) {
    wm_stamp_[side][agent] = wm_epoch_;
    wm_seq_[side][agent] = seq_end;
  } else if (wm_seq_[side][agent] < seq_end) {
    wm_seq_[side][agent] = seq_end;
  }
}

void Graph::WmRaiseRange(uint8_t sides, Lv lo, Lv hi, size_t* hint) const {
  size_t idx = hint != nullptr ? agent_assignment_.FindIndexHinted(hi, hint)
                               : agent_assignment_.FindIndex(hi);
  while (idx != RleVec<AgentSpan>::npos) {
    const AgentSpan& s = agent_assignment_[idx];
    if (s.span.end <= lo) {
      break;
    }
    if (agent_linear_[s.agent] != 0) {
      Lv top = std::min<Lv>(s.span.end - 1, hi);
      uint64_t seq_end = s.seq_start + (top - s.span.start) + 1;
      if ((sides & kOnlyA) != 0) {
        WmRaise(0, s.agent, seq_end);
      }
      if ((sides & kOnlyB) != 0) {
        WmRaise(1, s.agent, seq_end);
      }
    }
    if (s.span.start <= lo || idx == 0) {
      break;
    }
    --idx;
  }
}

Lv Graph::CoverageEnd(int side, Lv lo, Lv hi, size_t* hint) const {
  size_t idx = hint != nullptr ? agent_assignment_.FindIndexHinted(hi, hint)
                               : agent_assignment_.FindIndex(hi);
  while (idx != RleVec<AgentSpan>::npos) {
    const AgentSpan& s = agent_assignment_[idx];
    if (s.span.end <= lo) {
      break;
    }
    if (agent_linear_[s.agent] != 0) {
      Lv s_lo = std::max<Lv>(s.span.start, lo);
      uint64_t seq_lo = s.seq_start + (s_lo - s.span.start);
      uint64_t wm = WmGet(side, s.agent);
      if (wm > seq_lo) {
        Lv top = std::min<Lv>(s.span.end - 1, hi);
        uint64_t covered = wm - seq_lo;
        return s_lo + std::min<uint64_t>(covered, top - s_lo + 1);
      }
    }
    if (s.span.start <= lo || idx == 0) {
      break;
    }
    --idx;
  }
  return lo;
}

bool Graph::RangeHasAgent(Lv lo, Lv hi, AgentId agent) const {
  size_t idx = agent_assignment_.FindIndex(hi);
  while (idx != RleVec<AgentSpan>::npos) {
    const AgentSpan& s = agent_assignment_[idx];
    if (s.span.end <= lo) {
      break;
    }
    if (s.agent == agent) {
      return true;
    }
    if (s.span.start <= lo || idx == 0) {
      break;
    }
    --idx;
  }
  return false;
}

bool Graph::VersionContains(const Frontier& frontier, Lv v) const {
  if (frontier.empty() || frontier.back() < v) {
    return false;  // Members are sorted; nothing can dominate v.
  }
  if (frontier.back() == v) {
    return true;
  }
  // Identity of v, for the linear-agent shortcuts: when v's agent is
  // linear, any later event of the same agent dominates v, so touching one
  // anywhere — as a frontier member or inside a walked run — decides the
  // query without descending to v itself.
  const AgentSpan& sv = agent_assignment_.FindChecked(v);
  bool linear_v = agent_linear_[sv.agent] != 0;
  std::vector<Lv>& queue = contains_heap_;  // A max-heap of LVs to visit.
  queue.clear();
  for (Lv f : frontier) {
    if (f == v) {
      return true;
    }
    if (f < v) {
      continue;  // Can only dominate smaller LVs.
    }
    if (linear_v) {
      const AgentSpan& sf = agent_assignment_.FindChecked(f);
      if (sf.agent == sv.agent) {
        return true;  // Later event of v's own (linear) agent.
      }
    }
    queue.push_back(f);
    std::push_heap(queue.begin(), queue.end());
  }
  ScratchMap<uint8_t>& visited_entries = contains_visited_;
  visited_entries.Clear();
  while (!queue.empty()) {
    std::pop_heap(queue.begin(), queue.end());
    Lv top = queue.back();
    queue.pop_back();
    const GraphEntry& e = entries_.FindCheckedHinted(top, &entry_col_hint_);
    if (e.span.start <= v) {
      return true;  // v lies within [e.span.start, top].
    }
    if (!visited_entries.TryEmplace(e.span.start, 1).second) {
      continue;
    }
    if (linear_v && RangeHasAgent(e.span.start, top, sv.agent)) {
      return true;  // The run contains a later event of v's linear agent.
    }
    for (Lv p : e.parents) {
      if (p == v) {
        return true;
      }
      if (p > v) {
        queue.push_back(p);
        std::push_heap(queue.begin(), queue.end());
      }
    }
  }
  return false;
}

bool Graph::IsAncestor(Lv a, Lv b) const {
  if (a >= b) {
    return false;  // Parents always have smaller LVs.
  }
  const GraphEntry& e = entries_.FindChecked(b);
  if (a >= e.span.start) {
    return true;  // Same run: a precedes b in a linear chain.
  }
  const AgentSpan& sa = agent_assignment_.FindChecked(a);
  if (agent_linear_[sa.agent] != 0) {
    const AgentSpan& sb = agent_assignment_.FindChecked(b);
    if (sb.agent == sa.agent) {
      return true;  // b is a later event of a's linear agent.
    }
  }
  return VersionContains(e.parents, a);
}

DiffResult Graph::DiffReference(const Frontier& a, const Frontier& b) const {
  using Entry = std::pair<Lv, uint8_t>;
  std::priority_queue<Entry> queue;
  int non_shared = 0;
  auto push = [&](Lv v, uint8_t flag) {
    queue.push({v, flag});
    if (flag != kShared) {
      ++non_shared;
    }
  };
  for (Lv v : a) {
    push(v, kOnlyA);
  }
  for (Lv v : b) {
    push(v, kOnlyB);
  }

  std::vector<LvSpan> only_a;
  std::vector<LvSpan> only_b;

  while (!queue.empty() && non_shared > 0) {
    auto [v, flag] = queue.top();
    queue.pop();
    if (flag != kShared) {
      --non_shared;
    }
    // Merge all queued occurrences of this event; differing flags make the
    // event (and everything it dominates alone) shared.
    while (!queue.empty() && queue.top().first == v) {
      uint8_t f2 = queue.top().second;
      queue.pop();
      if (f2 != kShared) {
        --non_shared;
      }
      flag |= f2;
    }

    const GraphEntry& e = entries_.FindChecked(v);
    if (!queue.empty() && queue.top().first >= e.span.start) {
      // Another queued event lands inside this run: consume only the part
      // above it and carry our flag down onto it.
      Lv next = queue.top().first;
      if (flag == kOnlyA) {
        only_a.push_back({next + 1, v + 1});
      } else if (flag == kOnlyB) {
        only_b.push_back({next + 1, v + 1});
      }
      push(next, flag);
      continue;
    }
    // Consume the whole run below v and walk to its parents.
    if (flag == kOnlyA) {
      only_a.push_back({e.span.start, v + 1});
    } else if (flag == kOnlyB) {
      only_b.push_back({e.span.start, v + 1});
    }
    for (Lv p : e.parents) {
      push(p, flag);
    }
  }

  return DiffResult{NormalizeDescending(std::move(only_a)), NormalizeDescending(std::move(only_b))};
}

DiffResult Graph::Diff(const Frontier& a, const Frontier& b) const {
  ++diff_stats_.calls;
  WmBegin();

  // The queue: `heap` orders the pending run tops, `pending` holds each
  // one's accumulated flags. Keeping flags out of the heap means an event
  // is heap-pushed once no matter how many branches reach it — deposits
  // just OR into the map — so W shared siblings naming the same W-wide
  // parent frontier cost W map probes, not W^2 heap entries. Identical
  // members of the two frontiers meet in the map and start out shared
  // without ever being walked: the wide-frontier fast path.
  auto& heap = diff_heap_;
  auto& pending = diff_pending_;
  heap.clear();
  pending.Clear();
  int non_shared = 0;
  // Deposits `flag` onto v. Duplicate deposits — the bulk of all probes
  // when sibling runs share wide parent frontiers — take the first branch:
  // one hash probe, an OR, and out. Only a first insertion pays for
  // classification (the agent-column binary search, the watermark upgrade
  // against the opposite side, and the own-side watermark raise). A
  // duplicate deposit skips the upgrade re-check and the redundant raise;
  // both are pure pruning, so skipping them costs at worst a little extra
  // descent, never correctness.
  auto push = [&](Lv v, uint8_t flag) {
    auto [slot, inserted] = pending.TryEmplace(v, flag);
    if (!inserted) {
      uint8_t merged = static_cast<uint8_t>(*slot | flag);
      if (*slot != kShared && merged == kShared) {
        --non_shared;
      }
      *slot = merged;
      return;
    }
    if (flag != kShared) {
      const AgentSpan& s = agent_assignment_.FindCheckedHinted(v, &agent_col_hint_);
      if (agent_linear_[s.agent] != 0) {
        uint64_t seq = s.seq_start + (v - s.span.start);
        if (WmGet(flag == kOnlyA ? 1 : 0, s.agent) > seq) {
          flag = kShared;
          *slot = kShared;
        }
        if ((flag & kOnlyA) != 0) {
          WmRaise(0, s.agent, seq + 1);
        }
        if ((flag & kOnlyB) != 0) {
          WmRaise(1, s.agent, seq + 1);
        }
      }
    } else {
      WmRaiseRange(kShared, v, v, &agent_col_hint_);
    }
    if (flag != kShared) {
      ++non_shared;
    }
    heap.push_back(v);
    std::push_heap(heap.begin(), heap.end());
  };

  // Seed by merge-walking the two sorted frontiers so a member of both
  // sides enters the map shared in one probe. Watermark seeding rides on
  // push's first-insertion classification — one agent-column search per
  // member instead of a separate raise pass. Ordering nuance: an a-member
  // can no longer see a later b-member's watermark at insertion time, but
  // the pop-time CoverageEnd downgrade proves the same coverage then, so
  // only the *timing* of the pruning moves, never the result.
  size_t ai = 0;
  size_t bi = 0;
  while (ai < a.size() || bi < b.size()) {
    if (bi == b.size() || (ai < a.size() && a[ai] < b[bi])) {
      push(a[ai++], kOnlyA);
    } else if (ai == a.size() || b[bi] < a[ai]) {
      push(b[bi++], kOnlyB);
    } else {
      push(a[ai], kShared);
      ++ai;
      ++bi;
    }
  }

  std::vector<LvSpan> only_a;
  std::vector<LvSpan> only_b;

  // One-entry memo over the parents fan-out: sibling runs braided over a
  // shared round repeat the exact same parents frontier, usually with the
  // same flag. Re-depositing an identical (event, flag) set is a no-op —
  // the map OR is idempotent and no deposited event can have been popped
  // in between (parents sit below the current pop; pops descend) — so the
  // repeat is skipped outright instead of paying W probes.
  const Frontier* last_parents = nullptr;
  uint8_t last_flag = 0;

  while (!heap.empty() && non_shared > 0) {
    std::pop_heap(heap.begin(), heap.end());
    Lv v = heap.back();
    heap.pop_back();
    uint8_t flag = pending.FindChecked(v);
    if (flag != kShared) {
      --non_shared;
    }

    const GraphEntry& e = entries_.FindCheckedHinted(v, &entry_col_hint_);
    ++diff_stats_.runs_visited;
    // Consume the chain below v in one step, stopping at the next queued
    // event if one lands inside this run.
    Lv next_inside =
        (!heap.empty() && heap.front() >= e.span.start) ? heap.front() : kInvalidLv;
    Lv lo = (next_inside != kInvalidLv) ? next_inside + 1 : e.span.start;

    uint8_t down_flag = flag;  // Flag carried below the consumed range.
    if (flag != kShared) {
      diff_stats_.events_spanned += v + 1 - lo;
      // Run-level downgrade: the opposite closure may provably cover a
      // prefix of this chain. The covered prefix — and everything the
      // chain bottom dominates — is shared without being visited; only
      // the genuinely one-sided suffix is emitted.
      Lv h = CoverageEnd(flag == kOnlyA ? 1 : 0, lo, v, &agent_col_hint_);
      if (h > lo) {
        down_flag = kShared;
        WmRaiseRange(kShared, lo, h - 1, &agent_col_hint_);
      }
      if (h <= v) {
        auto& out = (flag == kOnlyA) ? only_a : only_b;
        out.push_back({h, v + 1});
      }
    }
    // The consumed range is in every closure `flag` names.
    WmRaiseRange(flag, lo, v, &agent_col_hint_);

    if (next_inside != kInvalidLv) {
      push(next_inside, down_flag);
      continue;
    }
    if (last_parents != nullptr && down_flag == last_flag && e.parents == *last_parents) {
      continue;
    }
    for (Lv p : e.parents) {
      push(p, down_flag);
    }
    last_parents = &e.parents;
    last_flag = down_flag;
  }

  return DiffResult{NormalizeDescending(std::move(only_a)), NormalizeDescending(std::move(only_b))};
}

std::vector<LvSpan> Graph::EventsOf(const Frontier& frontier) const {
  std::priority_queue<Lv> queue;
  for (Lv v : frontier) {
    queue.push(v);
  }
  std::vector<LvSpan> spans;
  Lv low = kInvalidLv;  // Start of the lowest emitted span so far.
  while (!queue.empty()) {
    Lv v = queue.top();
    queue.pop();
    if (low != kInvalidLv && v >= low) {
      continue;  // Already covered.
    }
    const GraphEntry& e = entries_.FindChecked(v);
    spans.push_back({e.span.start, v + 1});
    low = e.span.start;
    for (Lv p : e.parents) {
      queue.push(p);
    }
  }
  return NormalizeDescending(std::move(spans));
}

Frontier Graph::Reduce(const Frontier& frontier) const {
  if (frontier.size() <= 1) {
    return frontier;
  }
  Frontier members = frontier;
  std::sort(members.begin(), members.end());
  members.erase(std::unique(members.begin(), members.end()), members.end());
  if (members.size() == 1) {
    return members;
  }
  if (members.size() > 64) {
    // Bitmask overflow: fall back to the pairwise ancestor checks. Real
    // frontiers are orders of magnitude narrower than 64.
    Frontier out;
    for (Lv v : members) {
      bool dominated = false;
      for (Lv u : members) {
        if (u != v && IsAncestor(v, u)) {
          dominated = true;
          break;
        }
      }
      if (!dominated) {
        FrontierInsert(out, v);
      }
    }
    return out;
  }

  // One shared run-level walk instead of k^2 ancestor walks: each queue
  // item carries the set of members whose closure reached it (a bitmask).
  // A member popped with any other member's bit set is dominated. The walk
  // is bounded below by the smallest member — nothing beneath it can be a
  // member — and run consumption splits at queued events exactly like the
  // diff walk, so members mid-run are found by the carry-down.
  const Lv min_member = members.front();
  uint64_t dominated = 0;
  // The same map-deduped queue as the diff walk: one heap entry per LV no
  // matter how many members' closures reach it; masks OR into the map.
  auto& heap = reduce_heap_;
  auto& pending = reduce_pending_;
  heap.clear();
  pending.Clear();
  auto push = [&](Lv v, uint64_t mask) {
    auto [slot, inserted] = pending.TryEmplace(v, mask);
    if (inserted) {
      heap.push_back(v);
      std::push_heap(heap.begin(), heap.end());
    } else {
      *slot |= mask;
    }
  };
  for (size_t i = 0; i < members.size(); ++i) {
    push(members[i], uint64_t{1} << i);
  }
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end());
    Lv v = heap.back();
    heap.pop_back();
    uint64_t mask = pending.FindChecked(v);
    auto mit = std::lower_bound(members.begin(), members.end(), v);
    if (mit != members.end() && *mit == v) {
      uint64_t own = uint64_t{1} << (mit - members.begin());
      if ((mask & ~own) != 0) {
        dominated |= own;
      }
    }
    if (v == min_member) {
      break;  // Everything still queued is below every member.
    }
    const GraphEntry& e = entries_.FindCheckedHinted(v, &entry_col_hint_);
    if (!heap.empty() && heap.front() >= e.span.start) {
      push(heap.front(), mask);  // Carry down within the run.
      continue;
    }
    for (Lv p : e.parents) {
      if (p >= min_member) {
        push(p, mask);
      }
    }
  }
  size_t kept = 0;
  for (size_t i = 0; i < members.size(); ++i) {
    if ((dominated & (uint64_t{1} << i)) == 0) {
      members[kept++] = members[i];
    }
  }
  members.resize(kept);
  return members;
}

}  // namespace egwalker
