// Network synchronisation: version summaries and event patches.
//
// Section 3.8: "We send the same data format over the network when
// replicating the entire event graph. When sending a subset of events over
// the network (e.g., a single event during real-time collaboration),
// references to parent events outside of that subset need to be encoded
// using event IDs of the form (replicaID, seqNo)."
//
// The protocol here is the classic two-step delta sync on top of that idea:
//
//   1. The receiver sends a VersionSummary: per agent, how many of that
//      agent's events it has. Because an agent's events are generated
//      sequentially on one replica, a causally-closed graph always holds a
//      per-agent *prefix*, so one integer per agent fully describes the
//      receiver's knowledge.
//   2. The sender answers with a patch: every event run the receiver lacks,
//      in causal order, with parents outside the patch encoded as
//      (agent, seq) pairs and chained runs flagged instead of re-encoded.
//
// Patches decode into a RemoteBatch for Doc::ApplyRemoteBatch, which
// validates causal closure before touching the document — a patch whose
// dependencies have not arrived yet is rejected wholesale (the
// reliable-broadcast layer retries), never half-applied.
//
// O(delta) patch building
// -----------------------
// MakePatch does NOT scan the sender's history. It runs on the graph's
// agent-indexed history (Graph::agent_runs: per-agent sorted lists of
// (seq run -> LV span), maintained incrementally on append):
//
//   1. Per agent, the receiver's count is a *watermark*: sequence numbers
//      below it are known, everything at or above it is missing. One binary
//      search per agent finds the first run past the watermark; the tail of
//      the run list, clipped at the watermark, is that agent's missing
//      LV-span set.
//   2. The per-agent span lists are merged into one ascending LV sequence
//      (spans from different agents never overlap), which is exactly the
//      causal order the old full scan produced.
//   3. Chunks are cut from those spans by the shared ChunkScanner and
//      encoded as before, so the bytes are identical to the full scan's.
//
// A nearly-caught-up receiver therefore costs O(missing events + agents),
// not O(history) — the broker's steady-state fan-out depends on it.
//
// Chain-link edge case: when a receiver's watermark splits an RLE run
// mid-chunk (it holds the run's prefix), the missing tail cannot use the
// kChunkChainPrevious flag — the previous *included* chunk is some other
// run entirely. The tail instead encodes one explicit parent,
// (agent, watermark seq - 1): within a graph run every event's parent is
// its predecessor, so the link is exact. MakePatchReference keeps the old
// whole-history scan alive as the differential-testing oracle
// (fuzz_all requires byte-identical output for random summaries).
//
// Allocation contract
// -------------------
// The codec's heap traffic does not depend on how many parents a chunk
// has, and parents cost no hashing. The broker encodes once per writer per
// tick on all-writer documents, so this is the server's fan-out cost.
//
//   * MakePatch: the missing-span and chunk lists (grown by doubling, so
//     O(log spans) reallocations), plus exactly four more buffers in the
//     encoder: an AgentId-indexed slot vector that interns agents into the
//     wire's name table, the table itself, the resolved (table index, seq)
//     parents, and the output string, reserved to its exact size. Chunks
//     point at the graph's parent lists instead of copying them, and each
//     parent is resolved to its agent and seq by one agent-span search.
//   * DecodePatch: three buffers (agent names, parents, runs); parents are
//     resized once per chunk, so a wide chunk costs one reallocation. Names
//     and text are views into the patch bytes, and every reservation is
//     capped by the bytes left, so a hostile count cannot inflate it.
//   * Doc::ApplyRemoteBatch rejects a table that repeats a name, resolves
//     each name once, then validates and appends on ids: a fixed handful
//     of buffers of its own, plus Graph::Add's storage for what is
//     actually appended.
//
// test_sync's PatchAllocations test pins these counts for 4- and 32-wide
// merge chunks, and bench_micro's BM_MakePatchWideFrontier reports
// allocs_per_call, which check_bench gates against the committed baseline.

#ifndef EGWALKER_SYNC_PATCH_H_
#define EGWALKER_SYNC_PATCH_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "core/doc.h"

namespace egwalker {

// Per-agent event counts: agent name -> number of events held (a prefix of
// that agent's sequence numbers).
struct VersionSummary {
  std::map<std::string, uint64_t> agents;
  bool operator==(const VersionSummary&) const = default;
};

// Summarises what `doc` knows.
VersionSummary SummarizeDoc(const Doc& doc);

// Wire encoding of a summary.
std::string EncodeSummary(const VersionSummary& summary);
std::optional<VersionSummary> DecodeSummary(std::string_view bytes,
                                            std::string* error = nullptr);

// Work counters for one MakePatch call (accumulated by Broker::Stats).
// events_scanned is instrumented at the chunk scan itself — it counts the
// events the builder actually VISITS, not the missing-set size — so it is
// the observable form of the O(delta) claim: MakePatch keeps
// scanned == encoded (it visits nothing it does not send; the server soak
// asserts the ratio stays 1), while MakePatchReference reports the whole
// history as scanned — swapping the full scan back in trips the same
// assertions.
struct MakePatchStats {
  uint64_t events_scanned = 0;  // Events visited while building chunks.
  uint64_t events_encoded = 0;  // Events actually written into the patch.
  uint64_t chunks = 0;          // Chunks written.
};

// Builds a patch containing every event of `doc` the holder of `they_have`
// lacks. Returns an empty string when there is nothing to send. Runs in
// O(missing events + agents), not O(history) — see the file comment.
std::string MakePatch(const Doc& doc, const VersionSummary& they_have,
                      MakePatchStats* stats = nullptr);

// The original whole-history scan, kept as the differential-testing oracle:
// byte-identical output to MakePatch for every summary, O(history) cost
// (its stats report every visited event, i.e. the full history).
std::string MakePatchReference(const Doc& doc, const VersionSummary& they_have,
                               MakePatchStats* stats = nullptr);

// True iff the holder of `summary` already has every event in [from, to) —
// i.e. each event's (agent, seq) sits below the summary's watermark. The
// broker's cross-tick encode cache uses this as the reuse condition: a
// cached patch stays valid while every event appended past its encode
// point is already known to the receiver. O(agent runs in the range).
bool SummaryCoversRange(const Graph& graph, const VersionSummary& summary, Lv from, Lv to);

// Decodes a patch into a remote batch (ready for Doc::ApplyRemoteBatch).
// The batch's agent names and text are views into `bytes`, which must
// outlive it.
std::optional<RemoteBatch> DecodePatch(std::string_view bytes, std::string* error = nullptr);

// Convenience: decode + apply. Returns the number of events merged;
// std::nullopt if the patch is malformed or causally premature (the
// document is left unchanged in either case).
std::optional<uint64_t> ApplyPatch(Doc& doc, std::string_view bytes,
                                   std::string* error = nullptr);

}  // namespace egwalker

#endif  // EGWALKER_SYNC_PATCH_H_
