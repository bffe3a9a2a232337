// The causal event graph (Section 2.2).
//
// Every editing event is a node in a transitively-reduced DAG; edges point
// from parents to children and encode the happened-before relation. This
// module stores the *graph structure only* — which events exist, their
// (agent, seq) identities, and their parents. The operations themselves
// (insert/delete, position, content) live in trace::Trace, indexed by LV;
// keeping them separate mirrors the paper's columnar layout and lets the
// graph be reused by every algorithm (eg-walker, OT, CRDTs) unchanged.
//
// Storage is run-length encoded: humans type in consecutive runs, so nearly
// every event's parent is its predecessor. A graph entry covers a whole such
// run; explicit parent lists exist only at run starts (Section 2.2, 3.8).
//
// Events are identified by local version (LV): the index of the event in
// this replica's insertion order. Parents always have smaller LVs, so LV
// order is a valid topological order.

#ifndef EGWALKER_GRAPH_GRAPH_H_
#define EGWALKER_GRAPH_GRAPH_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "graph/frontier.h"
#include "obs/stats.h"
#include "util/rle.h"
#include "util/scratch_map.h"

namespace egwalker {

// Interned agent (replica) identifier.
using AgentId = uint32_t;

// Interchange identifier of a single event: (agent name, per-agent sequence
// number). Unique across the whole system; stable across replicas.
struct RawVersion {
  std::string agent;
  uint64_t seq = 0;
  bool operator==(const RawVersion&) const = default;
};

// One run of events: events span.start .. span.end-1, where the first event
// has `parents` and every subsequent event's parent is its predecessor.
struct GraphEntry {
  LvSpan span;
  Frontier parents;

  uint64_t rle_start() const { return span.start; }
  uint64_t rle_end() const { return span.end; }
  bool can_append(const GraphEntry& next) const {
    return next.span.start == span.end && next.parents.size() == 1 &&
           next.parents[0] == span.end - 1;
  }
  void append(const GraphEntry& next) { span.end = next.span.end; }
};

// Maps a run of LVs to (agent, starting sequence number).
struct AgentSpan {
  LvSpan span;
  AgentId agent = 0;
  uint64_t seq_start = 0;

  uint64_t rle_start() const { return span.start; }
  uint64_t rle_end() const { return span.end; }
  bool can_append(const AgentSpan& next) const {
    return next.span.start == span.end && next.agent == agent &&
           next.seq_start == seq_start + span.size();
  }
  void append(const AgentSpan& next) { span.end = next.span.end; }
};

// One run of the per-agent history index: sequence numbers
// [seq_start, seq_end) map to the contiguous LV run starting at lv_start.
// Runs are stored per agent, sorted ascending in both seq and LV (an
// agent's events are generated sequentially on one replica, so a
// causally-closed graph holds them in seq order; LV order is topological).
struct AgentSeqRun {
  uint64_t seq_start = 0;
  uint64_t seq_end = 0;
  Lv lv_start = 0;

  uint64_t rle_start() const { return seq_start; }
  uint64_t rle_end() const { return seq_end; }
  bool can_append(const AgentSeqRun& next) const {
    return next.seq_start == seq_end && next.lv_start == lv_start + (seq_end - seq_start);
  }
  void append(const AgentSeqRun& next) { seq_end = next.seq_end; }
};

// Result of Graph::Diff: the events reachable from exactly one of the two
// versions, as ascending span lists.
struct DiffResult {
  std::vector<LvSpan> only_a;
  std::vector<LvSpan> only_b;
};

// Counters for the diff walk (every Diff call): how much of the graph the
// version algebra actually touches. The server soak asserts that diff work
// scales with the runs a query touches, not with history length — these
// counters make that a CI invariant instead of a profiler anecdote.
// Reset/Merge follow the obs/stats.h contract.
struct DiffStats {
  uint64_t calls = 0;           // Graph walks performed.
  uint64_t runs_visited = 0;    // Queue pops that consumed part of an entry.
  uint64_t events_spanned = 0;  // Total LVs covered by consumed ranges.

  template <typename Fn>
  static void VisitFields(Fn&& fn) {
    fn("calls", &DiffStats::calls);
    fn("runs_visited", &DiffStats::runs_visited);
    fn("events_spanned", &DiffStats::events_spanned);
  }
  void Merge(const DiffStats& other) { obs::MergeStats(*this, other); }
  void Reset() { obs::ResetStats(*this); }
};

class Graph {
 public:
  // --- Construction ---------------------------------------------------------

  // Interns an agent name, returning its dense id.
  AgentId GetOrCreateAgent(std::string_view name);
  // The id of an already-interned agent, without interning it.
  std::optional<AgentId> FindAgent(std::string_view name) const;
  const std::string& AgentName(AgentId id) const { return agent_names_[id]; }
  size_t agent_count() const { return agent_names_.size(); }

  // Appends a run of `count` events by `agent` starting at sequence number
  // `seq_start`, whose first event has `parents` (all of which must already
  // exist). Returns the LV of the first new event. The graph's frontier is
  // updated. Parents must be sorted, duplicate-free, and minimal.
  Lv Add(AgentId agent, uint64_t seq_start, uint64_t count, const Frontier& parents);

  // Total number of events.
  Lv size() const { return next_lv_; }
  bool empty() const { return next_lv_ == 0; }

  // The frontier of the whole graph (Version(G)).
  const Frontier& version() const { return version_; }

  // --- Identity mapping -----------------------------------------------------

  // LV -> (agent, seq).
  RawVersion LvToRaw(Lv v) const;
  // (agent, seq) -> LV; kInvalidLv when unknown. The AgentId overloads
  // skip the name lookup (callers that resolved the name once).
  Lv RawToLv(std::string_view agent, uint64_t seq) const;
  Lv RawToLv(AgentId agent, uint64_t seq) const;

  // Number of contiguous sequence numbers starting at `seq` that are known
  // for `agent` (0 if seq itself is unknown). Used when merging remote
  // events to skip already-known runs.
  uint64_t KnownRunLen(std::string_view agent, uint64_t seq) const;
  uint64_t KnownRunLen(AgentId agent, uint64_t seq) const;

  // One past the largest sequence number known for `agent` (0 if none).
  uint64_t NextSeqFor(AgentId agent) const;

  // Compares the events `a` and `b` by (agent name, seq). Used as the
  // replica-independent tie-breaker for concurrent insertions.
  int CompareRaw(Lv a, Lv b) const;

  // --- Structure queries ----------------------------------------------------

  // Parents of a single event. Cheap for run-interior events.
  Frontier ParentsOf(Lv v) const;

  // The run entry containing `v` (for span-at-a-time iteration).
  const GraphEntry& EntryContaining(Lv v) const;

  // Number of run entries (diagnostics; Table 1's "graph runs").
  size_t entry_count() const { return entries_.run_count(); }
  const RleVec<GraphEntry>& entries() const { return entries_; }
  const RleVec<AgentSpan>& agent_spans() const { return agent_assignment_; }

  // The agent-indexed history: this agent's (seq run -> LV span) list,
  // maintained incrementally by Add (push + RLE merge, never rebuilt).
  // Sorted ascending in seq AND LV, so a per-agent seq suffix — "everything
  // at or past the receiver's per-agent watermark" — maps to a tail of this
  // list via one binary search. sync's MakePatch k-way-merges these tails
  // in LV order to visit only the events a receiver is missing instead of
  // rescanning the whole history per subscriber.
  const RleVec<AgentSeqRun>& agent_runs(AgentId agent) const {
    return agent_seq_to_lv_[agent];
  }

  // True while `agent` is *linear*: every event of the agent so far
  // dominates all of the agent's earlier events. Real replicas are linear
  // by construction — a device's next event causally follows everything it
  // already produced — so protocol graphs keep the flag for every agent,
  // and the run-level version algebra below can treat "agent g, seq < s"
  // as a closed ancestor set (one watermark describes a whole per-agent
  // prefix). Synthetic DAGs (randomised tests) may violate it; Add()
  // detects the violation and clears the flag permanently, which disables
  // the per-agent pruning for that agent but keeps every query exact.
  bool agent_linear(AgentId agent) const { return agent_linear_[agent] != 0; }

  // True iff a happened before b (a -> b, strictly).
  bool IsAncestor(Lv a, Lv b) const;

  // True iff event `v` is in Events(frontier) — i.e. v is in the frontier or
  // happened before some member of it.
  bool VersionContains(const Frontier& frontier, Lv v) const;

  // The set difference of the transitive closures of two versions
  // (Section 3.2's retreat/advance computation).
  //
  // The walk is *run-level*: it never visits events one at a time. The
  // priority queue holds run tops; a pop consumes the whole chain below it
  // in one step (splitting only where another queued event lands inside
  // the same run), and per-agent seq watermarks — sound for linear agents,
  // see agent_linear() — record how much of each agent's prefix is already
  // known to lie inside each side's closure. Watermarks kill the two
  // event-level failure modes of wide braided frontiers:
  //
  //  * Identical or overlapping members are merged/classified at seed time
  //    instead of being walked to a meet point, so diffing two width-W
  //    frontiers that differ in one member costs O(W) comparisons plus the
  //    one divergent run — not a W-branch shared descent.
  //  * A popped one-sided run is split against the opposite side's
  //    watermark: the covered chain prefix (and everything beneath it) is
  //    reclassified shared without ever being visited, so the walk stops
  //    as soon as the genuinely divergent events are exhausted.
  //
  // Cost is O((agents + runs touched) log q) with q the queue width —
  // independent of history length for the steady-state shapes (walker
  // retreat/advance, broker fan-out) that dominate collaborative soaks.
  // The event-level walk this replaces survives verbatim as
  // DiffReference() below, the differential-testing oracle.
  DiffResult Diff(const Frontier& a, const Frontier& b) const;

  // The original event-at-a-time walk, kept as the differential oracle
  // (mirroring sync's MakePatchReference): it is the simplest possible
  // statement of the diff semantics, shares no pruning machinery with the
  // run-level walk, and every run-level result must match it byte for
  // byte. Tests and the fuzzer compare against it; production code never
  // calls it.
  DiffResult DiffReference(const Frontier& a, const Frontier& b) const;

  const DiffStats& diff_stats() const { return diff_stats_; }

  // All events in Events(frontier), as ascending spans.
  std::vector<LvSpan> EventsOf(const Frontier& frontier) const;

  // Removes redundant (dominated) members of `frontier`.
  Frontier Reduce(const Frontier& frontier) const;

 private:
  // Lexicographic agent comparison backing CompareRaw's tie-break, via the
  // rank cache when both agents are ranked (see agent_rank_ below).
  int CompareAgents(AgentId a, AgentId b) const;
  void RebuildAgentRanks() const;

  // --- Run-level walk helpers (see Diff) ------------------------------------
  // Per-agent seq watermarks, one set per diff side, epoch-stamped so a new
  // walk invalidates them in O(1) instead of clearing (the vectors persist
  // across calls; steady-state walks allocate nothing).
  void WmBegin() const;
  uint64_t WmGet(int side, AgentId agent) const;
  void WmRaise(int side, AgentId agent, uint64_t seq_end) const;
  // Raises the watermarks named by `sides` (1 = a, 2 = b) over every linear
  // agent's span inside the entry-chain range [lo, hi]. `hint` (optional)
  // carries an agent-column index across calls — walk activity clusters in
  // a narrow LV window, so hinted lookups skip the binary search.
  void WmRaiseRange(uint8_t sides, Lv lo, Lv hi, size_t* hint = nullptr) const;
  // One past the highest LV in the entry-chain range [lo, hi] provably
  // inside `side`'s closure (lo when nothing is provable). Within a chain
  // every event dominates all lower chain events, so provable coverage is
  // a prefix and the topmost provable point decides.
  Lv CoverageEnd(int side, Lv lo, Lv hi, size_t* hint = nullptr) const;
  // True when the entry-chain range [lo, hi] contains any event of `agent`.
  bool RangeHasAgent(Lv lo, Lv hi, AgentId agent) const;

  RleVec<GraphEntry> entries_;
  RleVec<AgentSpan> agent_assignment_;

  // Per-agent mapping from seq runs to lv runs (see agent_runs()).
  std::vector<RleVec<AgentSeqRun>> agent_seq_to_lv_;

  std::vector<std::string> agent_names_;
  // Agent-order cache for CompareRaw: agent_rank_[a] is a's index in the
  // lexicographic order of agent names, valid for a < ranked_count_. Interns
  // never rename agents, so ranks assigned in one rebuild stay mutually
  // consistent forever; agents interned since the last rebuild fall back to
  // string compares, and a miss counter triggers a batched re-sort so swarm
  // histories (thousands-to-millions of agents) pay O(log A) amortised per
  // new agent instead of a per-comparison string walk.
  mutable std::vector<uint32_t> agent_rank_;
  mutable size_t ranked_count_ = 0;
  mutable uint64_t rank_misses_ = 0;
  // Heterogeneous lookup: RawToLv and friends sit on per-probe hot paths
  // (convergence sweeps call them every tick), so find() must take a
  // string_view without materialising a std::string.
  struct AgentNameHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  std::unordered_map<std::string, AgentId, AgentNameHash, std::equal_to<>>
      agent_ids_;

  Frontier version_;
  Lv next_lv_ = 0;

  mutable DiffStats diff_stats_;

  // Per-agent linearity flags (see agent_linear()); maintained by Add.
  std::vector<uint8_t> agent_linear_;

  // Watermark scratch for the run-level walks (see WmBegin).
  mutable std::vector<uint64_t> wm_seq_[2];
  mutable std::vector<uint64_t> wm_stamp_[2];
  mutable uint64_t wm_epoch_ = 0;

  // Column-lookup hints carried across walk steps AND across walks: the
  // walker's retreat/advance diffs revisit the same recent LV window call
  // after call, so even a cross-call stale hint usually lands within one
  // neighbor. Purely advisory — a wrong hint only costs the binary-search
  // fallback (see RleVec::FindIndexHinted).
  mutable size_t agent_col_hint_ = static_cast<size_t>(-1);
  mutable size_t entry_col_hint_ = static_cast<size_t>(-1);

  // Queue scratch for Diff (reused across calls): the heap orders
  // pending run tops; the map holds each one's accumulated flags, so an
  // event enters the heap once no matter how many branches reach it. The
  // map is the insert-only epoch-cleared kind — sound because the walk
  // never deposits onto a popped key (see ScratchMap).
  mutable std::vector<Lv> diff_heap_;
  mutable ScratchMap<uint8_t> diff_pending_;

  // Same shape for Reduce's bitmask walk (kept separate so a Reduce can
  // never clobber an in-progress diff's queue, and vice versa).
  mutable std::vector<Lv> reduce_heap_;
  mutable ScratchMap<uint64_t> reduce_pending_;

  // VersionContains's walk: a max-heap of LVs and the run entries already
  // expanded (keyed by entry start), reused so the query allocates nothing
  // once warm — Add runs it for every appended run.
  mutable std::vector<Lv> contains_heap_;
  mutable ScratchMap<uint8_t> contains_visited_;
};

}  // namespace egwalker

#endif  // EGWALKER_GRAPH_GRAPH_H_
