// Unified Reset()/Merge() contract for the engine's statistics structs.
//
// Before this layer every stats struct rolled its own lifecycle:
// Broker::Stats had a hand-written Merge() and no Reset, Graph's
// DiffStats was cleared by whole-struct assignment in
// tests and never merged, DocRegistry::Stats was summed field-by-field
// wherever a sharded aggregate was needed, and NetSim::Stats had neither.
// One contract now covers all of them:
//
//   VisitFields(fn)  the struct enumerates its counter fields exactly once,
//                    as (name, member-pointer) pairs in declaration order.
//                    Reset, Merge, equality, and the metrics-registry export
//                    (obs/metrics.h) are all derived from this single list,
//                    so a counter added to the struct automatically resets,
//                    merges, and exports — there is no second list to
//                    forget to update.
//   Reset()          returns every field to its value-initialized state —
//                    indistinguishable from a freshly constructed struct.
//   Merge(other)     field-wise sum. Every field is a monotonic event
//                    count, so the merge of two disjoint observation
//                    periods — or of N shard-owned instances at quiesce —
//                    is exactly addition.
//
// Contract, asserted by tests/test_metrics.cc for every participating
// struct: value-initialized is the Merge identity, Merge is commutative
// and field-wise additive, and Reset() after any sequence of bumps and
// merges compares equal to a default-constructed instance.
//
// Threading: stats instances are single-owner (one shard worker, one
// graph, one broker). Merge reads `other` without synchronization —
// callers merge only at quiesce, after the owning thread was joined (the
// same happens-before contract as server/shard.h's stats accessors).

#ifndef EGWALKER_OBS_STATS_H_
#define EGWALKER_OBS_STATS_H_

namespace egwalker::obs {

// Field-wise sum of `other` into `into` (the canonical Merge body).
template <typename S>
void MergeStats(S& into, const S& other) {
  S::VisitFields([&](const char*, auto member) { into.*member += other.*member; });
}

// Back to the value-initialized state (the canonical Reset body).
template <typename S>
void ResetStats(S& s) {
  s = S{};
}

// Field-wise equality via the same visitor (used by the contract tests).
template <typename S>
bool StatsEqual(const S& a, const S& b) {
  bool equal = true;
  S::VisitFields([&](const char*, auto member) { equal = equal && a.*member == b.*member; });
  return equal;
}

}  // namespace egwalker::obs

#endif  // EGWALKER_OBS_STATS_H_
