// DocRegistry: server-side ownership of many named documents.
//
// A collaboration server holds far more documents than fit hot in memory;
// the registry keeps a bounded set resident (LRU) and persists the rest as
// *incremental checkpoint chains* (encoding/columnar.h segments):
//
//   flush:  append one segment covering only the events added since the
//           previous checkpoint — an idle document with no new events
//           writes nothing, a busy one writes its recent suffix, never the
//           whole history again.
//   evict:  flush, then drop the resident Doc.
//   open:   resident hit, or rebuild from the chain. Because every flushed
//           segment carries the cached document text, a chain reload is
//           replay-free (Doc::replayed_events() stays 0): the cached-final-
//           doc fast path of the full file format, extended to incremental
//           flushes.
//
// Walker sessions survive the evict/reload cycle: every flushed segment
// checkpoints the document's session anchor (its newest critical version)
// and an eviction flush additionally serializes the live walker session
// itself into the segment (encoding/columnar.h's session-checkpoint
// fields; a clean eviction writes a tiny event-less refresh segment to
// carry it). Open then resumes the session on the reloaded Doc
// (Doc::TryResumeSession): the serialized state rebuilds at any frontier —
// including concurrency-heavy histories with no critical versions at all —
// and the anchor both seeds the replay-base candidates (so even a
// session-less merge replays from the anchor, never the whole history) and
// provides the free placeholder-resume at a critical tip. An eviction
// therefore no longer resets the incremental-merge machinery —
// reload-then-merge costs O(appended events), the same as if the document
// had stayed resident.
//
// Document lifecycle state machine (one document's journey):
//
//     (absent) --Open--> RESIDENT+clean --local events--> RESIDENT+dirty
//        ^                                                    |
//        |                                    Flush (segment appended)
//        |                                                    v
//     EVICTED (chain in storage) <--LRU eviction-- RESIDENT+clean
//        |
//        +--Open--> RESIDENT+clean  (chain reload, no replay)
//
// Storage is an interface so tests run against an in-memory map while a
// deployment can write real files or object storage; segments are opaque
// bytes, append-only, read back oldest-first.

#ifndef EGWALKER_SERVER_REGISTRY_H_
#define EGWALKER_SERVER_REGISTRY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/doc.h"
#include "obs/stats.h"

namespace egwalker {

// Append-only segment store, one chain per document name. Replace()
// supports compaction: long chains (a heavily evicted document accumulates
// one segment per eviction) are rewritten as a single consolidated segment,
// LSM-style, so reload cost stays bounded.
class SegmentStorage {
 public:
  virtual ~SegmentStorage() = default;
  virtual void Append(const std::string& doc, std::string segment) = 0;
  // The chain for `doc`, oldest first; nullptr if never flushed.
  virtual const std::vector<std::string>* Chain(const std::string& doc) const = 0;
  // Atomically swaps the whole chain (compaction).
  virtual void Replace(const std::string& doc, std::vector<std::string> chain) = 0;
};

// In-memory storage backend (tests, benches, the NetSim examples).
class MemStorage final : public SegmentStorage {
 public:
  void Append(const std::string& doc, std::string segment) override;
  const std::vector<std::string>* Chain(const std::string& doc) const override;
  void Replace(const std::string& doc, std::vector<std::string> chain) override;
  size_t doc_count() const { return chains_.size(); }
  uint64_t total_bytes() const { return total_bytes_; }

 private:
  std::map<std::string, std::vector<std::string>> chains_;
  uint64_t total_bytes_ = 0;
};

// Out-of-class so the constructor's `= {}` default parses (same idiom as
// WalkerOptions).
struct DocRegistryConfig {
  // Resident capacity; opening beyond it evicts the least recently used
  // document (0 = unbounded, never evict).
  size_t max_resident = 8;
  // Agent identity of the server replica inside every Doc. Clients must
  // not reuse it.
  std::string agent = "!server";
  // Options for flushed segments. cache_final_doc stays on so chain
  // reloads are replay-free; include_deleted_content must stay true
  // (segments cannot compose survival bitmaps). Columns are compressed:
  // segments are written once and reloaded many times.
  SaveOptions checkpoint{.include_deleted_content = true,
                         .cache_final_doc = true,
                         .compress_columns = true};
  // Compact a chain back to one consolidated segment once a flush leaves it
  // this long (0 = never). Bounds reload cost for eviction-churned
  // documents; the consolidated segment is a full save in segment clothing.
  size_t compact_above_segments = 16;
};

class DocRegistry {
 public:
  using Config = DocRegistryConfig;

  struct Stats {
    uint64_t opens = 0;
    uint64_t hits = 0;          // Open() found the doc resident.
    uint64_t loads = 0;         // Open() rebuilt from a checkpoint chain.
    uint64_t creates = 0;       // Open() made a brand-new document.
    uint64_t flushes = 0;       // Segments written (dirty flushes only).
    uint64_t compactions = 0;   // Chains rewritten as one segment.
    uint64_t evictions = 0;
    uint64_t replayed_on_load = 0;  // Events replayed across all chain
                                    // loads; 0 while every segment carries
                                    // a cached doc.
    uint64_t session_resumes = 0;   // Chain loads that reopened the merge
                                    // session (anchor at a critical tip).
    uint64_t replayed_retired = 0;  // Doc::replayed_events() accumulated
                                    // from evicted docs (see
                                    // TotalReplayedEvents).
    uint64_t chain_load_failures = 0;  // TryOpen() chains that failed to
                                       // decode (corrupt storage); no doc
                                       // was produced.
    uint64_t lazy_segments_skipped = 0;  // Segment ops/content columns left
                                         // cold across all chain loads.
    uint64_t lazy_bytes_skipped = 0;     // Their stored (compressed) bytes.
    uint64_t hydrations_retired = 0;     // Doc::ops_hydrations() accumulated
                                         // from evicted docs (see
                                         // TotalOpsHydrations).
    uint64_t hydrated_bytes_retired = 0;  // Doc::hydrated_bytes() likewise
                                          // (see TotalHydratedBytes).

    template <typename Fn>
    static void VisitFields(Fn&& fn) {
      fn("opens", &Stats::opens);
      fn("hits", &Stats::hits);
      fn("loads", &Stats::loads);
      fn("creates", &Stats::creates);
      fn("flushes", &Stats::flushes);
      fn("compactions", &Stats::compactions);
      fn("evictions", &Stats::evictions);
      fn("replayed_on_load", &Stats::replayed_on_load);
      fn("session_resumes", &Stats::session_resumes);
      fn("replayed_retired", &Stats::replayed_retired);
      fn("chain_load_failures", &Stats::chain_load_failures);
      fn("lazy_segments_skipped", &Stats::lazy_segments_skipped);
      fn("lazy_bytes_skipped", &Stats::lazy_bytes_skipped);
      fn("hydrations_retired", &Stats::hydrations_retired);
      fn("hydrated_bytes_retired", &Stats::hydrated_bytes_retired);
    }
    // obs/stats.h contract: field-wise sum / back to value-initialized.
    void Merge(const Stats& other) { obs::MergeStats(*this, other); }
    void Reset() { obs::ResetStats(*this); }
  };

  explicit DocRegistry(SegmentStorage& storage, const Config& config = {});

  // The resident document, loading from its checkpoint chain or creating it
  // fresh. May evict the least-recently-used other document. The reference
  // is valid until that document is itself evicted. A corrupt chain aborts
  // (chains are written by this registry; use TryOpen to survive storage
  // corruption).
  Doc& Open(const std::string& name);

  // Open(), except a chain that fails to decode returns nullptr instead of
  // aborting: the corrupt document is counted (stats().chain_load_failures),
  // *error carries the decoder's diagnostic (which segment, what failed),
  // no resident entry is created, and the stored chain is left untouched
  // for offline repair. Every other path behaves exactly like Open().
  Doc* TryOpen(const std::string& name, std::string* error = nullptr);

  bool resident(const std::string& name) const { return entries_.count(name) > 0; }
  size_t resident_count() const { return entries_.size(); }

  // Events not yet covered by a checkpoint (0 when clean or not resident).
  uint64_t DirtyEvents(const std::string& name) const;

  // Appends a segment covering the events since the last checkpoint.
  // Returns false when the document is clean or not resident.
  bool Flush(const std::string& name);

  // Flush only when at least `min_new_events` are dirty (checkpoint cadence
  // for callers that batch).
  bool FlushIfDirty(const std::string& name, uint64_t min_new_events);

  void FlushAll();

  // Flushes and drops a resident document. Returns false if not resident.
  bool Evict(const std::string& name);

  const Stats& stats() const { return stats_; }

  // Total walker replay work done by every document this registry has ever
  // held: the retired sum plus the currently resident docs' counters. The
  // soak tests compare this across anchored and anchor-free universes to
  // prove sessions really survive eviction.
  uint64_t TotalReplayedEvents() const;

  // Total cold-prefix hydration passes / decoded stored bytes across every
  // document this registry has ever held (same retired + resident shape as
  // TotalReplayedEvents). The churn tests assert TotalHydratedBytes() stays
  // strictly below stats().lazy_bytes_skipped: reload-then-merge decodes
  // only the touched suffix, never the whole skipped history.
  uint64_t TotalOpsHydrations() const;
  uint64_t TotalHydratedBytes() const;

 private:
  struct Entry {
    Doc doc;
    Lv checkpoint_lv = 0;    // Events below this are persisted.
    uint64_t last_used = 0;  // LRU clock value.
  };

  void Touch(Entry& entry) { entry.last_used = ++clock_; }
  // `retiring` marks an eviction flush: it may write a session-carrying
  // refresh segment even when the document is clean.
  bool FlushEntry(const std::string& name, Entry& entry, bool retiring = false);
  void EvictOverCapacity(const std::string& keep);

  SegmentStorage& storage_;
  Config config_;
  std::map<std::string, Entry> entries_;
  uint64_t clock_ = 0;
  Stats stats_;
};

}  // namespace egwalker

#endif  // EGWALKER_SERVER_REGISTRY_H_
