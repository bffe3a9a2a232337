// Shard: one worker thread owning one partition of the document space.
//
// The sharded server (ROADMAP: scale-out) splits document names across N
// shards. Each shard is a complete single-threaded server in miniature — its
// own MemStorage, DocRegistry (LRU + checkpoint chains), Broker (sessions,
// pending broadcasts) — owned exclusively by one worker thread. No document state is shared between shards, and nothing here is
// protected by a lock around data: the only synchronization in the whole
// design is the pair of bounded queues (util/mpsc.h) each shard exposes.
//
// Threading model — what runs on which thread:
//
//   router thread (the NetSim event loop, server/router.h)
//     - owns the Router, the NetSim, and every queue *handle*
//     - during message delivery: Post()s kClient requests into shard
//       inboxes (blocking push = backpressure when a shard lags)
//     - at the tick barrier: Post()s kTick to every shard, then
//       WaitReply()s from each in shard order and forwards the outbound
//       batches into the network
//     - between ticks (both queues provably empty — see the barrier
//       argument below): drives handoff with kDrain / kAdopt round trips
//
//   shard worker thread (one per shard, Run() below)
//     - owns this shard's storage/registry/broker outright; no other
//       thread touches them while the worker runs
//     - drains the inbox in FIFO order: applies client messages
//       (Broker::Handle with a buffering MessageSink — sends accumulate
//       locally, nothing crosses a thread mid-request), runs the broadcast
//       flush on kTick and replies with the accumulated send batch,
//       services drain/adopt handoff requests
//     - pushes exactly one ShardReply per kTick/kDrain/kAdopt request and
//       none for kClient, so the router's WaitReply pairing is static
//
// Queue ownership: the inbox is MPSC in shape but single-producer in
// practice (only the router posts); the reply queue's single producer is
// the worker and single consumer the router. The worker never pushes to
// its own inbox and the router always consumes the reply it is owed before
// posting the next barrier request, so neither side can deadlock on a full
// queue; Stop() closes both queues before joining, so even a mis-paired
// caller unblocks with a failure rather than hanging.
//
// Why determinism survives the threads: NetSim delivers a tick's messages
// in a deterministic order, so each shard's inbox receives a deterministic
// subsequence of that order (FIFO per producer); within a shard, handling
// is sequential, so all registry/broker behaviour — including every PRNG-
// free decision — matches what a single-threaded broker fed the same
// per-shard message sequence would do. Outbound traffic is buffered until
// the kTick barrier and forwarded to the network in *shard order*, which
// is deterministic too. Threads change only wall-clock overlap, never the
// observable schedule. (Whether the N-shard schedule equals the 1-shard
// schedule is a separate, stronger property; NetSimConfig::per_route_rng
// plus one-doc-per-client workloads deliver it for the differential soak.)
//
// Handoff protocol (rebalancing a document from shard A to shard B), run
// by the router strictly between ticks:
//
//   1. kDrain -> A: evict the doc (retiring flush writes a session-carrying
//      segment — PR 5's session checkpoints make the later re-open a
//      *resume*, not a replay), lift its whole chain out of A's storage,
//      and extract its broker state (subscriber sessions + pending-
//      broadcast flag). A replies with the chain + handoff.
//   2. kAdopt -> B: install the chain into B's storage and the sessions
//      into B's broker. B acks.
//   3. The router repoints its placement map; the next message for the doc
//      routes to B, which re-opens it from the adopted chain on demand.
//
// Because both legs are synchronous round trips on an otherwise idle
// queue pair, a handoff is atomic from every other actor's point of view:
// no message for the doc can be in either shard's inbox while it moves.
// Subscribers notice nothing — their sessions (and any broadcast owed to
// them) travel with the document.
//
// Stats: each shard's Broker::Stats / DocRegistry::Stats are plain
// non-atomic counters owned by the worker. They are read only through the
// quiesce-gated accessors below, after Stop() has joined the thread (the
// join is the happens-before edge), and merged by the router's aggregate
// helpers — there are no cross-thread counters anywhere, which is exactly
// what the ThreadSanitizer CI lane asserts.

#ifndef EGWALKER_SERVER_SHARD_H_
#define EGWALKER_SERVER_SHARD_H_

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "server/broker.h"
#include "server/registry.h"
#include "util/mpsc.h"

namespace egwalker {

struct ShardConfig {
  DocRegistryConfig registry;
  BrokerConfig broker;
  // Inbox capacity: how many client messages the router may buffer into a
  // shard before backpressure blocks the event loop. Small values force the
  // backpressure path (the TSan stress test does this on purpose).
  size_t queue_capacity = 256;
  // Worker-thread label for the trace timeline (obs/trace.h). The router
  // stamps "shard-<i>" here; standalone shards keep the default.
  std::string name = "shard";
};

// One unit of work posted to a shard's inbox.
struct ShardRequest {
  enum class Kind : uint8_t {
    kClient,  // One inbound protocol message: (from, msg) at tick `now`.
    kTick,    // Barrier: flush broadcasts, reply with the send batch.
    kDrain,   // Handoff step 1: give up `doc` (chain + broker state).
    kAdopt,   // Handoff step 2: take ownership of `doc`.
  };
  Kind kind = Kind::kClient;
  int from = -1;      // kClient: sending endpoint id.
  uint64_t now = 0;   // Network tick at post time (kClient/kTick).
  Message msg;        // kClient payload.
  std::string doc;    // kDrain / kAdopt target.
  std::vector<std::string> chain;  // kAdopt: the doc's persisted chain.
  Broker::DocHandoff handoff;      // kAdopt: the doc's broker state.
};

// One outbound message of a shard's per-tick batch.
struct ShardSend {
  int to = -1;
  Message msg;
};

// Reply to a kTick (sends), kDrain (chain + handoff) or kAdopt (empty ack).
struct ShardReply {
  std::vector<ShardSend> sends;
  std::vector<std::string> chain;
  Broker::DocHandoff handoff;
};

class Shard {
 public:
  explicit Shard(const ShardConfig& config = {});
  ~Shard();

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  // Spawns the worker thread. Post/WaitReply are valid only while running.
  void Start();
  // Closes both queues and joins the worker. Idempotent. After Stop() the
  // quiesce accessors below are safe (join = happens-before).
  void Stop();
  bool running() const { return running_; }

  // Enqueues a request (blocking when the inbox is full — backpressure).
  // False only if the shard is stopped.
  bool Post(ShardRequest req);
  // Blocks for the next reply. The caller must have posted a kTick, kDrain
  // or kAdopt it has not yet collected the reply for.
  ShardReply WaitReply();

  // Times a Post blocked on a full inbox. Safe from any thread at any time
  // (the counter lives behind the queue's mutex); the backpressure stress
  // test asserts it moved.
  uint64_t inbox_blocked_pushes() const { return inbox_.blocked_pushes(); }

  // Quiesce-only: the worker must be stopped (these EGW_CHECK that).
  MemStorage& storage();
  DocRegistry& registry();
  Broker& broker();

 private:
  void Run();  // Worker loop; the only code that touches the members below.

  ShardConfig config_;
  MemStorage storage_;
  DocRegistry registry_;
  Broker broker_;
  MpscQueue<ShardRequest> inbox_;
  MpscQueue<ShardReply> replies_;
  std::thread thread_;
  bool running_ = false;
};

}  // namespace egwalker

#endif  // EGWALKER_SERVER_SHARD_H_
