// Broker: the server endpoint routing summary/patch exchanges.
//
// One Broker serves every document in a DocRegistry to every subscribed
// client over the Message protocol (protocol.h). The broker is a star: each
// client syncs with the server's replica of a document, and the broker
// fans changes out to the other subscribers — the deployment shape the
// paper contrasts with pure peer-to-peer, and the one large-scale
// collaborative-writing studies assume (session management on a server).
//
// Session lifecycle state machine — a session is one (client endpoint,
// document) pair. Creation and the bootstrap exchange are atomic (the same
// message that creates the session triggers the bootstrap patch), so the
// machine has two states plus absence:
//
//   (none) --kSyncRequest--> LIVE     the request's summary seeds the
//                                     estimate and the bootstrap patch is
//                                     sent in the same handling step.
//   LIVE --kLeave----------> CLOSED   the session is erased. A kPatch
//                                     without a session (racing ahead of
//                                     the join, or reordered after the
//                                     leave) still has its events applied —
//                                     a departing client's last edits are
//                                     not lost — but does NOT create a
//                                     session: that would resurrect a
//                                     ghost subscriber.
//   LIVE --idle timeout----> CLOSED   kLeave is best-effort (it is the one
//                                     message loss cannot be repaired by a
//                                     retry — the sender is gone), and a
//                                     kSyncRequest reordered after its own
//                                     kLeave legitimately re-creates a
//                                     session (a join IS a sync request).
//                                     The backstop for both is expiry: a
//                                     session that sends nothing for
//                                     Config::session_idle_timeout ticks
//                                     is swept. Live clients stay resident
//                                     for free — their periodic sync
//                                     requests are already the protocol's
//                                     repair heartbeat.
//
// The client side of the same lifecycle (bootstrap pending vs live) is
// described in client.h.
//
// Broadcasts are *optimistic*: after fanning a patch out to a session the
// broker assumes delivery and advances its estimate of that client's
// summary, so steady-state traffic is deltas only. A dropped broadcast
// therefore silently desynchronises the estimate — by design; the client's
// periodic kSyncRequest carries its true summary, which both repairs the
// estimate and triggers the catch-up patch (retry-based reliable
// broadcast, paper Section 2.1).
//
// Broadcasts are also *batched per tick*: HandlePatch only marks the
// document broadcast-pending, and the fan-out runs once from OnTick after
// every message of the tick was applied. N patches to one document in a
// tick therefore cost one fan-out round instead of N (cutting the
// amplification from N*subscribers patch encodes to subscribers), and
// subscribers whose summary estimates are equal share a single encoded
// patch. Equal estimates are the steady state for read-only subscribers,
// which batching keeps in lockstep, but not for writers: every writer holds
// its own newest events and lacks the others', so on an all-writer document
// each writer's summary is distinct and each needs its own encode. The
// server-writers benchmark (4 docs x 32 writers) makes 1486.5 MakePatch
// calls per replay and reuses only 126 across ticks, which is why the
// encoder's per-call cost (sync/patch.h) matters here. The sender of a
// patch is not special-cased: after its summary update, the patch built
// against its estimate is empty (or carries exactly the other clients'
// same-tick events, which it needs anyway). Batching delays a
// fan-out by less than one tick, which is below the network's minimum
// latency — the protocol's loss tolerance is untouched.
//
// Patch encodes are *watermarked and cached across ticks*: every encoded
// patch is remembered per (document, receiver summary), stamped with the
// document's end LV at encode time — the entry's watermark. A later
// request for the same summary reuses the bytes as long as every event
// appended past the watermark is already covered by that summary
// (SummaryCoversRange over the agent-span runs in the gap — O(new runs),
// no re-encode): the missing set, and therefore the deterministic
// encoding, cannot have changed, so the cached bytes are still
// byte-identical to a fresh MakePatch. Validation advances the watermark.
// Together with the O(delta) MakePatch (sync/patch.h) this makes the
// steady-state fan-out cost of a mostly-caught-up subscriber O(events it
// is actually sent): hits within one fan-out round count as
// patch_encodes_shared, cross-tick hits as patch_encodes_reused, and the
// scanned/encoded event counters expose the O(delta) property to tests.
//
// Checkpointing: after applying client patches the broker flushes the
// document's new events to the registry's incremental checkpoint chain
// once at least Config::flush_every_events have accumulated, so an
// eviction is cheap and a crash loses at most that many events.

#ifndef EGWALKER_SERVER_BROKER_H_
#define EGWALKER_SERVER_BROKER_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "obs/stats.h"
#include "server/netsim.h"
#include "server/protocol.h"
#include "server/registry.h"

namespace egwalker {

// Out-of-class so the constructor's `= {}` default parses (same idiom as
// WalkerOptions).
struct BrokerConfig {
  // Checkpoint cadence: flush a document's dirty suffix once this many
  // uncheckpointed events have accumulated (0 = flush on every change).
  uint64_t flush_every_events = 64;
  // Sessions that send nothing for this many network ticks are swept
  // (0 = never expire). The backstop for lost/reordered kLeave messages;
  // must comfortably exceed the clients' sync-request period.
  uint64_t session_idle_timeout = 512;
};

class Broker : public Endpoint {
 public:
  using Config = BrokerConfig;

  struct Stats {
    uint64_t sync_requests = 0;
    uint64_t patches_in = 0;
    uint64_t patches_applied = 0;  // With at least one new event.
    uint64_t patches_rejected = 0; // Causally premature (client repairs).
    uint64_t broadcasts = 0;       // Patches actually sent by fan-out.
    uint64_t broadcast_rounds = 0; // Per-tick fan-outs (<= patches_applied).
    uint64_t patch_encodes = 0;        // MakePatch calls (fan-out + sync).
    uint64_t patch_encodes_shared = 0; // Cache hits within one fan-out round.
    uint64_t patch_encodes_reused = 0; // Cross-tick cache hits (watermark
                                       // still valid after new events).
    uint64_t patch_events_scanned = 0; // Events visited by MakePatch.
    uint64_t patch_events_encoded = 0; // Events written into patches.
    uint64_t leaves = 0;
    uint64_t expired = 0;  // Sessions swept by the idle timeout.

    template <typename Fn>
    static void VisitFields(Fn&& fn) {
      fn("sync_requests", &Stats::sync_requests);
      fn("patches_in", &Stats::patches_in);
      fn("patches_applied", &Stats::patches_applied);
      fn("patches_rejected", &Stats::patches_rejected);
      fn("broadcasts", &Stats::broadcasts);
      fn("broadcast_rounds", &Stats::broadcast_rounds);
      fn("patch_encodes", &Stats::patch_encodes);
      fn("patch_encodes_shared", &Stats::patch_encodes_shared);
      fn("patch_encodes_reused", &Stats::patch_encodes_reused);
      fn("patch_events_scanned", &Stats::patch_events_scanned);
      fn("patch_events_encoded", &Stats::patch_events_encoded);
      fn("leaves", &Stats::leaves);
      fn("expired", &Stats::expired);
    }

    // Folds another broker's counters in (obs/stats.h contract). Each
    // shard's broker owns its stats outright — no cross-thread counters,
    // by design — so a sharded deployment's aggregate view is built by
    // merging per-shard copies after the workers have quiesced
    // (Router::AggregateBrokerStats).
    void Merge(const Stats& other) { obs::MergeStats(*this, other); }
    void Reset() { obs::ResetStats(*this); }
  };

  // Best estimate of one subscribed client's state. Public because shard
  // handoff moves a document's live sessions between brokers (ExtractDoc /
  // AdoptDoc): re-homing a document must not forget who subscribes to it or
  // what they are believed to know — a handoff is invisible on the wire.
  struct Session {
    // Best estimate of the client's summary: authoritative on every
    // kSyncRequest, advanced optimistically on every broadcast.
    VersionSummary known;
    // Network tick of the last message received from the client (sends do
    // not count: only inbound traffic proves the client is alive).
    uint64_t last_active = 0;
  };

  // Everything a broker knows about one document's subscribers, packaged
  // for shard handoff. The patch-encode cache deliberately stays behind
  // (and is dropped): encodes are deterministic, so the adopting broker
  // rebuilds byte-identical entries on demand.
  struct DocHandoff {
    std::map<int, Session> sessions;  // Keyed by client endpoint id.
    bool broadcast_pending = false;   // Un-flushed fan-out owed to the doc.
  };

  explicit Broker(DocRegistry& registry, const Config& config = {});

  // Registers with the network; returns (and remembers) the endpoint id.
  int Attach(NetSim& net);
  int endpoint_id() const { return endpoint_id_; }

  // Transport-independent core: handle one inbound message / flush the
  // tick's batched broadcasts, writing replies to `sink`. The NetSim
  // Endpoint overrides below and the shard worker loop (server/shard.cc)
  // are both thin wrappers over these two calls.
  void Handle(MessageSink& sink, int from, const Message& msg);
  void FlushBroadcasts(MessageSink& sink);

  void OnMessage(NetSim& net, int from, int self, const Message& msg) override;
  // Flushes the tick's batched broadcasts (see the file comment).
  void OnTick(NetSim& net, int self) override;

  // Removes and returns `doc_name`'s sessions and pending-broadcast flag;
  // drops its patch-cache entries. The shard-handoff drain step.
  DocHandoff ExtractDoc(const std::string& doc_name);
  // Installs a DocHandoff extracted from another broker (adopt step).
  void AdoptDoc(const std::string& doc_name, DocHandoff handoff);

  DocRegistry& registry() { return registry_; }
  const Stats& stats() const { return stats_; }
  size_t session_count() const { return sessions_.size(); }

 private:
  // (doc name, endpoint): doc-first so Broadcast range-scans one document's
  // subscribers instead of every session on the server.
  using SessionKey = std::pair<std::string, int>;

  // One remembered encode of the watermarked patch cache (see the file
  // comment). `end_lv` is the watermark: the document end the bytes were
  // last validated against.
  struct CachedEncode {
    VersionSummary summary;
    Lv end_lv = 0;
    std::string patch;
    uint64_t stamp = 0;  // LRU clock value of the last hit or encode.
    uint64_t epoch = 0;  // Encode epoch of the last hit (shared-vs-reused).
  };
  // Cached entries per document, LRU-capped. Entries never go stale-wrong:
  // reuse is gated on the watermark check against the live graph, so an
  // invalid entry is simply re-encoded in place.
  static constexpr size_t kPatchCacheEntriesPerDoc = 16;

  void HandleSyncRequest(MessageSink& sink, int from, const Message& msg);
  void HandlePatch(MessageSink& sink, int from, const Message& msg);
  // Erases sessions idle past the timeout; runs lazily from Handle.
  void SweepIdleSessions(uint64_t now);
  // Sends each live subscriber of `doc_name` the delta it is missing,
  // encoding one patch per distinct subscriber summary and reusing
  // watermark-valid encodes from previous ticks. `doc` is the caller's
  // already-open registry reference (re-opening here would distort the
  // registry's hit-rate stats).
  void Broadcast(MessageSink& sink, Doc& doc, const std::string& doc_name);
  void MaybeCheckpoint(const std::string& doc_name);
  // The patch for `summary` against `doc`, from the cache when the
  // watermark validates, freshly encoded (and cached) otherwise. `epoch`
  // groups lookups of one fan-out round for the shared/reused stats split.
  // The reference is valid until the next CachedPatch call.
  const std::string& CachedPatch(Doc& doc, const std::string& doc_name,
                                 const VersionSummary& summary, uint64_t epoch);
  // Frees `doc_name`'s cached encodes once no session subscribes to it —
  // the cache's memory lifetime is tied to subscriber interest, so broker
  // memory does not grow with every document ever touched.
  void MaybeDropPatchCache(const std::string& doc_name);

  DocRegistry& registry_;
  Config config_;
  int endpoint_id_ = -1;
  std::map<SessionKey, Session> sessions_;
  // Documents with applied-but-not-yet-broadcast events; flushed by OnTick.
  std::set<std::string> pending_broadcasts_;
  std::map<std::string, std::vector<CachedEncode>> patch_cache_;
  // Scratch slot for a round with more distinct subscriber summaries than
  // cache slots: the overflow encode lands here instead of evicting an
  // entry already served this round (see CachedPatch).
  CachedEncode overflow_encode_;
  uint64_t patch_cache_clock_ = 0;
  uint64_t patch_epoch_ = 0;
  uint64_t last_sweep_ = 0;
  Stats stats_;
};

}  // namespace egwalker

#endif  // EGWALKER_SERVER_BROKER_H_
