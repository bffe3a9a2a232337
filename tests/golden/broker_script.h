// The scripted broker runs behind broker_stream.fnv64 (README.md).
//
// make_broker_golden.cc ran these scripts once against the broker of the
// time and recorded an FNV-1a-64 of every message the broker sent;
// test_server runs them again and checks that today's broker sends the
// same messages, byte for byte, at the same ticks and to the same clients.
// The edits and the clients' timing come from the script's own LCG
// (legacy_script.h); the network is a seeded NetSim; the clients are
// CollabClients. Only the broker is meant to be under test: a change to
// the client, NetSim or the patch encoder would change the stream too.

#ifndef EGWALKER_TESTS_GOLDEN_BROKER_SCRIPT_H_
#define EGWALKER_TESTS_GOLDEN_BROKER_SCRIPT_H_

#include <cstdint>
#include <functional>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "golden/legacy_script.h"
#include "golden/patch_script.h"
#include "server/broker.h"
#include "server/client.h"
#include "server/netsim.h"
#include "server/registry.h"
#include "util/assert.h"

namespace egwalker::golden {

// Called for every message the broker sends, in send order; `tick` is the
// network tick of the send.
using BrokerSendFn = std::function<void(uint64_t tick, int to, const Message& msg)>;

// FNV-1a-64 over everything a send puts on the wire: the tick, the
// destination, the type, then the document name, summary and patch, each
// prefixed with its length.
inline uint64_t HashBrokerSend(uint64_t tick, int to, const Message& msg) {
  std::string bytes;
  auto put_u64 = [&](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      bytes.push_back(static_cast<char>(v >> (8 * i)));
    }
  };
  put_u64(tick);
  put_u64(static_cast<uint64_t>(static_cast<uint32_t>(to)));
  bytes.push_back(static_cast<char>(msg.type));
  for (const std::string* field : {&msg.doc, &msg.summary, &msg.patch}) {
    put_u64(field->size());
    bytes += *field;
  }
  return Fnv1a64(bytes);
}

// One fixed script. Writers edit and push; readers never edit and send a
// sync request (the protocol's heartbeat) every `heartbeat_every` ticks.
struct BrokerShape {
  const char* name;
  uint64_t seed;
  int docs;
  int writers_per_doc;
  int readers_per_doc;
  int ticks;
  size_t max_resident;  // 0 = every document stays resident.
  NetSimConfig net;
  uint64_t idle_timeout;
  int heartbeat_every;
  // Readers heartbeat in lockstep (same tick) or staggered by reader index.
  bool lockstep;
  // Reader 0 of every document leaves at ticks/4 and re-joins at ticks/3
  // (as a fresh replica); reader 1 never heartbeats, and the writers pause
  // from ticks/2 to 11*ticks/12, so idle sessions expire in the lull.
  bool churn_sessions;
};

inline std::vector<BrokerShape> BrokerShapes() {
  std::vector<BrokerShape> shapes;
  // Lockstep read-only subscribers with heartbeats, under eviction: three
  // documents, room for two.
  NetSimConfig calm;
  calm.seed = 0x51;
  calm.min_latency = 1;
  calm.max_latency = 3;
  shapes.push_back({"readers", 0xb7e1, 3, 2, 6, 48, 2, calm, 512, 6, true, false});
  // One all-writer document: every estimate is distinct, and there are more
  // writers than any fixed number of per-document slots a broker might keep.
  NetSimConfig fast;
  fast.seed = 0x52;
  fast.min_latency = 1;
  fast.max_latency = 2;
  shapes.push_back({"writers", 0xb7e2, 1, 20, 0, 12, 0, fast, 512, 0, false, false});
  // Drops, duplicates and reordering: causal rejections and sync repair,
  // plus a leave/re-join and an expiring session per document.
  NetSimConfig lossy;
  lossy.seed = 0x53;
  lossy.min_latency = 1;
  lossy.max_latency = 8;
  lossy.drop = 0.15;
  lossy.duplicate = 0.1;
  shapes.push_back({"lossy", 0xb7e3, 3, 2, 3, 96, 2, lossy, 16, 8, false, true});
  return shapes;
}

// Puts a broker on a NetSim through a sink that reports each send first.
class TappedBroker final : public Endpoint {
 public:
  TappedBroker(Broker& broker, BrokerSendFn on_send)
      : broker_(broker), on_send_(std::move(on_send)) {}

  void OnMessage(NetSim& net, int from, int self, const Message& msg) override {
    Sink sink(net, self, on_send_);
    broker_.Handle(sink, from, msg);
  }
  void OnTick(NetSim& net, int self) override {
    Sink sink(net, self, on_send_);
    broker_.FlushBroadcasts(sink);
  }

 private:
  class Sink final : public MessageSink {
   public:
    Sink(NetSim& net, int self, const BrokerSendFn& on_send)
        : net_(net), self_(self), on_send_(on_send) {}
    void Send(int to, Message msg) override {
      on_send_(net_.now(), to, msg);
      net_.Send(self_, to, std::move(msg));
    }
    uint64_t now() const override { return net_.now(); }

   private:
    NetSim& net_;
    int self_;
    const BrokerSendFn& on_send_;
  };

  Broker& broker_;
  BrokerSendFn on_send_;
};

struct BrokerScriptOutcome {
  Broker::Stats broker;
  DocRegistry::Stats registry;
  NetSim::Stats net;
  uint64_t client_rejections = 0;
};

// Runs `shape`, then drains over a lossless network until every replica
// has converged (checked). Every broker send goes to `on_send`.
inline BrokerScriptOutcome RunBrokerScript(const BrokerShape& shape, BrokerSendFn on_send) {
  static const char* const kWords[] = {"the ", "quick ", "brown ", "fox ", "naïve ",
                                       "café ", "世界 ", "😀 ", "\n"};
  MemStorage storage;
  DocRegistry::Config registry_config;
  registry_config.max_resident = shape.max_resident;
  DocRegistry registry(storage, registry_config);
  Broker::Config broker_config;
  broker_config.flush_every_events = 16;
  broker_config.session_idle_timeout = shape.idle_timeout;
  Broker broker(registry, broker_config);
  NetSim net(shape.net);
  TappedBroker tapped(broker, std::move(on_send));
  const int broker_id = net.AddEndpoint(&tapped);

  const int per_doc = shape.writers_per_doc + shape.readers_per_doc;
  std::vector<std::string> doc_names;
  std::vector<CollabClient> clients;
  clients.reserve(static_cast<size_t>(shape.docs * per_doc));  // NetSim keeps pointers.
  for (int d = 0; d < shape.docs; ++d) {
    doc_names.push_back("doc-" + std::to_string(d));
    for (int c = 0; c < per_doc; ++c) {
      const bool writer = c < shape.writers_per_doc;
      clients.emplace_back("d" + std::to_string(d) + (writer ? "-w" : "-r") + std::to_string(c));
    }
  }
  auto client = [&](int d, int c) -> CollabClient& {
    return clients[static_cast<size_t>(d * per_doc + c)];
  };
  for (CollabClient& c : clients) {
    c.Attach(net, broker_id);
  }
  for (int d = 0; d < shape.docs; ++d) {
    for (int c = 0; c < per_doc; ++c) {
      client(d, c).Join(net, doc_names[static_cast<size_t>(d)]);
    }
  }

  ScriptRng rng(shape.seed);
  for (int tick = 0; tick < shape.ticks; ++tick) {
    const bool lull =
        shape.churn_sessions && tick >= shape.ticks / 2 && tick < 11 * shape.ticks / 12;
    for (int d = 0; d < shape.docs; ++d) {
      const std::string& name = doc_names[static_cast<size_t>(d)];
      for (int w = 0; w < shape.writers_per_doc && !lull; ++w) {
        CollabClient& writer = client(d, w);
        if (rng.Below(10) >= 5) {
          continue;
        }
        const uint64_t len = writer.doc(name).size();
        if (len > 8 && rng.Below(10) < 3) {
          uint64_t n = 1 + rng.Below(3);
          writer.Delete(name, rng.Below(len - n + 1), n);
        } else {
          writer.Insert(name, rng.Below(len + 1), kWords[rng.Below(std::size(kWords))]);
        }
        if (rng.Below(4) != 0) {
          writer.PushEdits(net, name);
        }
      }
      for (int r = 0; r < shape.readers_per_doc; ++r) {
        CollabClient& reader = client(d, shape.writers_per_doc + r);
        if (shape.churn_sessions && r == 0) {
          if (tick == shape.ticks / 4) {
            reader.Leave(net, name);
          } else if (tick == shape.ticks / 3) {
            reader.Join(net, name);
          }
          if (!reader.subscribed(name)) {
            continue;
          }
        }
        if (shape.churn_sessions && r == 1) {
          continue;
        }
        const int phase = shape.lockstep ? 0 : r + d;
        if (shape.heartbeat_every > 0 && (tick + phase) % shape.heartbeat_every == 0) {
          reader.RequestSync(net, name);
        }
      }
    }
    net.Tick();
  }

  NetSimConfig lossless;
  lossless.min_latency = 1;
  lossless.max_latency = 2;
  net.set_config(lossless);
  for (int round = 0; round < 3; ++round) {
    for (int d = 0; d < shape.docs; ++d) {
      for (int c = 0; c < per_doc; ++c) {
        client(d, c).PushEdits(net, doc_names[static_cast<size_t>(d)]);
        client(d, c).RequestSync(net, doc_names[static_cast<size_t>(d)]);
      }
    }
    EGW_CHECK(net.Run(400));
  }

  BrokerScriptOutcome out;
  for (int d = 0; d < shape.docs; ++d) {
    const std::string& name = doc_names[static_cast<size_t>(d)];
    const std::string text = registry.Open(name).Text();
    for (int c = 0; c < per_doc; ++c) {
      EGW_CHECK(client(d, c).doc(name).Text() == text);
    }
  }
  for (const CollabClient& c : clients) {
    out.client_rejections += c.stats().patches_rejected;
  }
  out.broker = broker.stats();
  out.registry = registry.stats();
  out.net = net.stats();
  return out;
}

}  // namespace egwalker::golden

#endif  // EGWALKER_TESTS_GOLDEN_BROKER_SCRIPT_H_
