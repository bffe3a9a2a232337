// Wire protocol of the collaboration server (src/server).
//
// One message shape serves the whole protocol: every message names a
// document and carries the sender's VersionSummary (sync/patch.h) — the
// per-agent event counts that fully describe a causally-closed replica.
// Patches ride alongside. The protocol is a summary-driven pull:
//
//   kSyncRequest  "here is what I have; send me what I lack (and learn
//                  what I might have that you lack)."
//   kPatch        "events you may lack, built against my best estimate of
//                  your state, plus my summary so you can spot gaps."
//   kLeave        "close my session for this document." Best-effort: it
//                 is the one message a retry cannot repair (the sender is
//                 gone), so the broker's session idle timeout is the
//                 backstop for a lost kLeave.
//
// Every delivery is safe under loss, duplication, and reordering:
// Doc::ApplyRemoteBatch rejects causally premature patches wholesale and
// skips already-known events, so the receiver of a kPatch either applies it
// cleanly or answers with a kSyncRequest that repairs the gap on the next
// round trip. No acknowledgements are tracked; periodic kSyncRequests are
// the retry mechanism of the reliable-broadcast layer (paper Section 2.1).
//
// Messages stay structured (no envelope serialisation): the NetSim
// transport is in-process, and the summary/patch payloads are already the
// wire encodings from sync/patch.h.

#ifndef EGWALKER_SERVER_PROTOCOL_H_
#define EGWALKER_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>

#include "sync/patch.h"

namespace egwalker {

enum class MsgType : uint8_t {
  kSyncRequest,
  kPatch,
  kLeave,
};

struct Message {
  MsgType type = MsgType::kSyncRequest;
  std::string doc;      // Document name.
  std::string summary;  // EncodeSummary() of the sender's state.
  std::string patch;    // MakePatch() bytes (kPatch only; may be empty).
};

// Where a protocol handler's outbound messages go. The broker's handlers
// write to a sink instead of a concrete transport so the same handler code
// runs in two deployments: directly attached to a NetSim endpoint
// (NetSimSink, netsim.h — the single-threaded legacy shape), or on a shard
// worker thread that buffers sends locally and hands the batch back to the
// router over a queue (server/shard.h — no transport object ever crosses a
// thread boundary). `now()` is the transport's tick clock, used for session
// liveness; a buffering sink reports the tick it was handed with the batch.
class MessageSink {
 public:
  virtual ~MessageSink() = default;
  virtual void Send(int to, Message msg) = 0;
  virtual uint64_t now() const = 0;
};

// True if `theirs` claims events `mine` lacks: the signal to pull with a
// kSyncRequest of our own.
inline bool SummaryAhead(const VersionSummary& theirs, const VersionSummary& mine) {
  for (const auto& [agent, count] : theirs.agents) {
    auto it = mine.agents.find(agent);
    if (it == mine.agents.end() ? count > 0 : count > it->second) {
      return true;
    }
  }
  return false;
}

// Folds `other` into `into`, keeping the per-agent maximum. Summaries are
// per-agent prefixes, so the pointwise max is exactly the union of the two
// knowledge sets — the right estimate for a peer that holds both.
inline void SummaryMerge(VersionSummary& into, const VersionSummary& other) {
  for (const auto& [agent, count] : other.agents) {
    uint64_t& slot = into.agents[agent];
    if (count > slot) {
      slot = count;
    }
  }
}

}  // namespace egwalker

#endif  // EGWALKER_SERVER_PROTOCOL_H_
