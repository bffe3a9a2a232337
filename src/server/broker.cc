#include "server/broker.h"

#include <climits>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "util/assert.h"

namespace egwalker {

Broker::Broker(DocRegistry& registry, const Config& config)
    : registry_(registry), config_(config) {}

int Broker::Attach(NetSim& net) {
  endpoint_id_ = net.AddEndpoint(this);
  return endpoint_id_;
}

void Broker::OnMessage(NetSim& net, int from, int self, const Message& msg) {
  EGW_CHECK(self == endpoint_id_);
  NetSimSink sink(net, endpoint_id_);
  Handle(sink, from, msg);
}

void Broker::Handle(MessageSink& sink, int from, const Message& msg) {
  switch (msg.type) {
    case MsgType::kSyncRequest:
      HandleSyncRequest(sink, from, msg);
      break;
    case MsgType::kPatch:
      HandlePatch(sink, from, msg);
      break;
    case MsgType::kLeave:
      ++stats_.leaves;
      sessions_.erase(SessionKey{msg.doc, from});
      break;
  }
  // Sweep after handling: the message just processed counts as liveness,
  // so a client resurfacing exactly at its timeout is not reaped by its
  // own message.
  SweepIdleSessions(sink.now());
}

void Broker::HandleSyncRequest(MessageSink& sink, int from, const Message& msg) {
  EGW_TRACE_SPAN("broker.sync_request");
  ++stats_.sync_requests;
  auto theirs = DecodeSummary(msg.summary);
  if (!theirs) {
    return;  // Malformed summaries are dropped like lost packets.
  }
  Session& session = sessions_[SessionKey{msg.doc, from}];
  session.last_active = sink.now();
  // A corrupt checkpoint chain must not take the whole broker down: the
  // request is dropped (like a lost packet) and the failure is visible in
  // the registry's chain_load_failures stat.
  Doc* doc_ptr = registry_.TryOpen(msg.doc);
  if (doc_ptr == nullptr) {
    return;
  }
  Doc& doc = *doc_ptr;
  VersionSummary mine = SummarizeDoc(doc);
  std::string my_summary = EncodeSummary(mine);
  Message reply;
  reply.type = MsgType::kPatch;
  reply.doc = msg.doc;
  reply.summary = my_summary;
  // Periodic sync requests are the protocol's heartbeat; for a caught-up
  // client the O(delta) encode finds nothing and the reply's patch is empty.
  reply.patch = EncodePatch(doc, *theirs);
  sink.Send(from, std::move(reply));

  // The summary may also reveal events the server lacks (the client edited
  // while its patches were lost): pull them.
  if (SummaryAhead(*theirs, mine)) {
    Message pull;
    pull.type = MsgType::kSyncRequest;
    pull.doc = msg.doc;
    pull.summary = std::move(my_summary);
    sink.Send(from, std::move(pull));
  }
  // Optimistic: the client will hold its own events plus the in-flight
  // reply, so the estimate is the pointwise max of the two summaries.
  session.known = std::move(mine);
  SummaryMerge(session.known, *theirs);
}

void Broker::HandlePatch(MessageSink& sink, int from, const Message& msg) {
  EGW_TRACE_SPAN("broker.apply_patch");
  ++stats_.patches_in;
  // A patch may arrive without a session (the client left and the patch
  // was still in flight, possibly reordered after its kLeave). The events
  // are still applied — a departing client's last edits must not be lost —
  // but no session is created: resurrecting one would leak a ghost
  // subscriber the broker broadcasts to forever.
  auto it = sessions_.find(SessionKey{msg.doc, from});
  Session* session = it != sessions_.end() ? &it->second : nullptr;
  if (session != nullptr) {
    session->last_active = sink.now();
  }

  // Same fail-soft contract as HandleSyncRequest: an unloadable chain drops
  // the patch rather than aborting the server.
  Doc* doc_ptr = registry_.TryOpen(msg.doc);
  if (doc_ptr == nullptr) {
    return;
  }
  Doc& doc = *doc_ptr;
  std::string error;
  auto merged = ApplyPatch(doc, msg.patch, &error);
  if (!merged.has_value()) {
    // Causally premature (an earlier client patch was dropped or is still
    // in flight): ask the client for everything we lack.
    ++stats_.patches_rejected;
    Message repair;
    repair.type = MsgType::kSyncRequest;
    repair.doc = msg.doc;
    repair.summary = EncodeSummary(SummarizeDoc(doc));
    sink.Send(from, std::move(repair));
    return;
  }
  if (session != nullptr) {
    if (auto theirs = DecodeSummary(msg.summary)) {
      session->known = *theirs;
    }
  }
  if (*merged == 0) {
    return;  // Duplicate delivery: nothing new, nothing to fan out.
  }
  ++stats_.patches_applied;
  MaybeCheckpoint(msg.doc);
  // Batched fan-out: every patch applied to this document within the
  // current tick shares the broadcast round OnTick flushes.
  pending_broadcasts_.insert(msg.doc);
}

void Broker::OnTick(NetSim& net, int self) {
  EGW_CHECK(self == endpoint_id_);
  NetSimSink sink(net, endpoint_id_);
  FlushBroadcasts(sink);
}

void Broker::FlushBroadcasts(MessageSink& sink) {
  if (pending_broadcasts_.empty()) {
    return;  // Span only when there is work: idle ticks stay off the trace.
  }
  EGW_TRACE_SPAN("broker.flush");
  // Swap out first: Broadcast sends nothing that could re-mark a document
  // within this flush, but keep the loop reentrancy-proof anyway.
  std::set<std::string> pending;
  pending.swap(pending_broadcasts_);
  for (const std::string& doc_name : pending) {
    // A doc marked for broadcast is normally resident, but an eviction may
    // have intervened; if its chain then fails to load, skip the round.
    Doc* doc = registry_.TryOpen(doc_name);
    if (doc == nullptr) {
      continue;
    }
    ++stats_.broadcast_rounds;
    Broadcast(sink, *doc, doc_name);
  }
}

void Broker::Broadcast(MessageSink& sink, Doc& doc, const std::string& doc_name) {
  VersionSummary mine = SummarizeDoc(doc);
  std::string my_summary = EncodeSummary(mine);
  // One encoded patch per distinct subscriber estimate in this round.
  // Read-only subscribers stay in lockstep after a batched round and share
  // one O(delta) MakePatch. Writers do not: each lacks everyone's events
  // but its own, so an all-writer fan-out costs one encode per writer.
  // Estimates are compared in place, so none may advance before the
  // round's last encode; `receivers` defers that.
  std::vector<std::pair<const VersionSummary*, std::string>> encodes;
  std::vector<Session*> receivers;
  // Doc-first session keys: scan exactly this document's subscribers.
  for (auto it = sessions_.lower_bound(SessionKey{doc_name, INT_MIN});
       it != sessions_.end() && it->first.first == doc_name; ++it) {
    Session& session = it->second;
    size_t i = 0;
    while (i < encodes.size() && *encodes[i].first != session.known) {
      ++i;
    }
    if (i == encodes.size()) {
      encodes.emplace_back(&session.known, EncodePatch(doc, session.known));
    } else {
      ++stats_.patch_encodes_shared;
    }
    const std::string& patch = encodes[i].second;
    if (patch.empty()) {
      continue;  // Estimated fully caught up (e.g. the patch's own sender).
    }
    Message out;
    out.type = MsgType::kPatch;
    out.doc = doc_name;
    out.summary = my_summary;
    out.patch = patch;
    sink.Send(it->first.second, std::move(out));
    receivers.push_back(&session);
    ++stats_.broadcasts;
  }
  // Optimistic union of what each receiver had and what is in flight;
  // repaired by the client's next sync request if the broadcast is lost.
  for (Session* session : receivers) {
    SummaryMerge(session->known, mine);
  }
}

std::string Broker::EncodePatch(const Doc& doc, const VersionSummary& summary) {
  EGW_TRACE_SPAN("broker.encode_patch");
  MakePatchStats patch_stats;
  std::string patch = MakePatch(doc, summary, &patch_stats);
  ++stats_.patch_encodes;
  stats_.patch_events_scanned += patch_stats.events_scanned;
  stats_.patch_events_encoded += patch_stats.events_encoded;
  return patch;
}

Broker::DocHandoff Broker::ExtractDoc(const std::string& doc_name) {
  DocHandoff out;
  auto it = sessions_.lower_bound(SessionKey{doc_name, INT_MIN});
  while (it != sessions_.end() && it->first.first == doc_name) {
    out.sessions.emplace(it->first.second, std::move(it->second));
    it = sessions_.erase(it);
  }
  out.broadcast_pending = pending_broadcasts_.erase(doc_name) > 0;
  return out;
}

void Broker::AdoptDoc(const std::string& doc_name, DocHandoff handoff) {
  for (auto& [endpoint, session] : handoff.sessions) {
    sessions_[SessionKey{doc_name, endpoint}] = std::move(session);
  }
  if (handoff.broadcast_pending) {
    pending_broadcasts_.insert(doc_name);
  }
}

void Broker::SweepIdleSessions(uint64_t now) {
  if (config_.session_idle_timeout == 0) {
    return;
  }
  // Sweep at most once per half-timeout: cheap, and a session can outlive
  // its timeout by at most 1.5x.
  if (now < last_sweep_ + config_.session_idle_timeout / 2) {
    return;
  }
  last_sweep_ = now;
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (now >= it->second.last_active + config_.session_idle_timeout) {
      it = sessions_.erase(it);
      ++stats_.expired;
    } else {
      ++it;
    }
  }
}

void Broker::MaybeCheckpoint(const std::string& doc_name) {
  uint64_t threshold = config_.flush_every_events == 0 ? 1 : config_.flush_every_events;
  registry_.FlushIfDirty(doc_name, threshold);
}

}  // namespace egwalker
