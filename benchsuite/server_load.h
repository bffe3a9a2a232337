// Recorded server load: the scripted client churn of bench/bench_server.cc,
// the tap that records the server's inbound stream, and the tick-by-tick
// replay of that stream into a router + shard deployment.
//
// This is a copy of bench_server's RunScript, RecordingTap, DiscardEndpoint
// and RunShardedReplay loop, kept inside the benchmark so that the benchmark
// does not change when bench_server does. Two differences, neither of which
// changes what the server is sent: the script's two seeds are lifted into
// the Scenario (script_seed 41 and net_seed 7 reproduce bench_server's rows
// exactly), and the client replicas are handed back to the caller, so the
// suite can check every replica against the server after the drain.
//
// Replay is a closed loop at tick granularity: one tick's recorded batch is
// posted to the router, then the tick barrier runs; the next batch is posted
// only once that barrier has returned. Each (post + barrier) is one tick
// sample. The sequence of ticks and posts is exactly RunShardedReplay's
// (tick, post, tick, post, ..., NetSim::Run(64)); only the points where the
// clock is read differ.

#ifndef EGWALKER_BENCHSUITE_SERVER_LOAD_H_
#define EGWALKER_BENCHSUITE_SERVER_LOAD_H_

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "obs/convergence.h"
#include "obs/trace.h"
#include "server/broker.h"
#include "server/client.h"
#include "server/netsim.h"
#include "server/registry.h"
#include "server/router.h"
#include "util/memtrack.h"
#include "util/prng.h"

namespace egwalker::suite {

struct Scenario {
  int docs = 4;
  int clients_per_doc = 4;
  int ticks = 60;
  size_t max_resident = 0;  // Resident documents; 0 = no eviction.
  // First `writers` clients of each doc edit; the rest only subscribe and
  // sync with probability reader_sync_prob per tick (0 = everyone writes).
  int writers = 0;
  double reader_sync_prob = 0.0;
  uint64_t script_seed = 41;
  uint64_t net_seed = 7;
};

inline std::string DocName(int d) { return "doc-" + std::to_string(d); }

struct RecordedMsg {
  uint64_t tick = 0;  // net.now() at delivery.
  int from = -1;
  Message msg;
};

struct RecordedLoad {
  std::vector<RecordedMsg> msgs;  // In delivery order (ticks ascending).
  int endpoints = 0;              // Server + clients.
};

// Endpoint wrapping a Broker: forwards everything, logging the inbound
// stream (the broker's handlers are sink-based, so the tap owns the
// endpoint id and hands the broker a NetSimSink for it).
class RecordingTap final : public Endpoint {
 public:
  RecordingTap(Broker& broker, RecordedLoad& out) : broker_(broker), out_(out) {}
  RecordingTap(const RecordingTap&) = delete;  // The network holds its address.
  RecordingTap& operator=(const RecordingTap&) = delete;

  int Attach(NetSim& net) {
    id_ = net.AddEndpoint(this);
    return id_;
  }

  void OnMessage(NetSim& net, int from, int, const Message& msg) override {
    out_.msgs.push_back(RecordedMsg{net.now(), from, msg});
    NetSimSink sink(net, id_);
    broker_.Handle(sink, from, msg);
  }

  void OnTick(NetSim& net, int) override {
    NetSimSink sink(net, id_);
    broker_.FlushBroadcasts(sink);
  }

 private:
  Broker& broker_;
  RecordedLoad& out_;
  int id_ = -1;
};

// Swallows replayed outbound traffic (stands in for the recorded clients).
class DiscardEndpoint final : public Endpoint {
 public:
  void OnMessage(NetSim&, int, int, const Message&) override {}
};

inline NetSimConfig ScenarioNetConfig(const Scenario& scenario) {
  NetSimConfig net_config;
  net_config.seed = scenario.net_seed;
  net_config.min_latency = 1;
  net_config.max_latency = 3;
  return net_config;
}

// Runs the scripted churn against `server_endpoint`: everyone joins, then
// `ticks` rounds of edits / pushes / reader syncs, then a drain. `clients`
// must be empty; it receives the replicas (attached to `net`, so it must
// not outlive it). With `conv`, every push records a convergence probe and
// every tick sweeps them (latency in simulated ticks; deterministic).
inline void RunScript(const Scenario& scenario, NetSim& net, int server_endpoint,
                      std::vector<CollabClient>& clients,
                      obs::ConvergenceTracker* conv = nullptr) {
  const size_t per_doc = static_cast<size_t>(scenario.clients_per_doc);
  clients.reserve(static_cast<size_t>(scenario.docs) * per_doc);
  for (int d = 0; d < scenario.docs; ++d) {
    for (int c = 0; c < scenario.clients_per_doc; ++c) {
      clients.emplace_back("a" + std::to_string(d) + "-" + std::to_string(c));
    }
  }
  for (auto& client : clients) {
    client.Attach(net, server_endpoint);
  }
  for (int d = 0; d < scenario.docs; ++d) {
    for (size_t c = 0; c < per_doc; ++c) {
      clients[static_cast<size_t>(d) * per_doc + c].Join(net, DocName(d));
    }
  }
  net.Run(64);

  std::vector<uint64_t> last_recorded(clients.size(), 0);
  auto record_push = [&](size_t client_index, const std::string& name) {
    if (conv == nullptr) {
      return;
    }
    const Doc& doc = clients[client_index].doc(name);
    uint64_t seq_end = doc.next_seq();
    if (seq_end > last_recorded[client_index]) {
      last_recorded[client_index] = seq_end;
      conv->Record(name, doc.agent_name(), seq_end, net.now());
    }
  };
  auto converged = [&](obs::ConvergenceTracker::Pending& p) {
    size_t d = static_cast<size_t>(std::atoi(p.doc.c_str() + 4));  // "doc-<d>".
    // Containment is monotone: resume at the first replica that lacked it.
    for (size_t c = p.probe_cursor; c < per_doc; ++c) {
      if (clients[d * per_doc + c].doc(p.doc).graph().RawToLv(p.agent, p.seq_end - 1) ==
          kInvalidLv) {
        p.probe_cursor = static_cast<uint32_t>(c);
        return false;
      }
    }
    return true;
  };

  Prng rng(scenario.script_seed);
  for (int tick = 0; tick < scenario.ticks; ++tick) {
    for (int d = 0; d < scenario.docs; ++d) {
      for (int c = 0; c < scenario.clients_per_doc; ++c) {
        size_t index = static_cast<size_t>(d) * per_doc + static_cast<size_t>(c);
        CollabClient& client = clients[index];
        const std::string name = DocName(d);
        if (scenario.writers != 0 && c >= scenario.writers) {
          if (scenario.reader_sync_prob > 0 && rng.Chance(scenario.reader_sync_prob)) {
            client.RequestSync(net, name);
          }
          continue;
        }
        Doc& doc = client.doc(name);
        if (doc.size() > 16 && rng.Chance(0.25)) {
          client.Delete(name, rng.Below(doc.size() - 2), 1 + rng.Below(2));
        } else {
          std::string burst(1 + rng.Below(4), static_cast<char>('a' + (c % 26)));
          client.Insert(name, rng.Below(doc.size() + 1), burst);
        }
        if (rng.Chance(0.5)) {
          client.PushEdits(net, name);
          record_push(index, name);
        }
      }
    }
    net.Tick();
    if (conv != nullptr) {
      conv->Advance(net.now(), converged);
    }
  }
  for (int guard = 0; guard < (1 << 12); ++guard) {
    net.Tick();
    if (conv != nullptr) {
      conv->Advance(net.now(), converged);
    }
    if (net.in_flight() == 0) {
      break;
    }
  }
}

// One untimed interactive run against a single broker behind a recording
// tap: the inbound stream, convergence, and the server's final documents.
struct Recording {
  RecordedLoad load;
  std::vector<std::string> server_texts;  // Per doc, after the drain.
  uint64_t events = 0;                    // Events the server holds.
  obs::Histogram conv_latency;
  uint64_t conv_pending = 0;
  uint64_t replica_checks = 0;    // Replicas compared with the server doc.
  uint64_t replica_failures = 0;  // ... that differed.
};

inline Recording Record(const Scenario& scenario) {
  Recording out;
  NetSim net(ScenarioNetConfig(scenario));
  MemStorage storage;
  DocRegistry::Config registry_config;
  registry_config.max_resident = scenario.max_resident;
  DocRegistry registry(storage, registry_config);
  Broker::Config broker_config;
  broker_config.flush_every_events = 64;
  Broker broker(registry, broker_config);
  RecordingTap tap(broker, out.load);
  int tap_endpoint = tap.Attach(net);
  obs::ConvergenceTracker conv;
  std::vector<CollabClient> clients;
  RunScript(scenario, net, tap_endpoint, clients, &conv);
  out.load.endpoints = 1 + scenario.docs * scenario.clients_per_doc;
  out.conv_latency = conv.latency();
  out.conv_pending = conv.pending();

  const size_t per_doc = static_cast<size_t>(scenario.clients_per_doc);
  for (int d = 0; d < scenario.docs; ++d) {
    const Doc& server_doc = registry.Open(DocName(d));
    std::string text = server_doc.Text();
    out.events += server_doc.end_lv();
    for (size_t c = 0; c < per_doc; ++c) {
      ++out.replica_checks;
      if (clients[static_cast<size_t>(d) * per_doc + c].doc(DocName(d)).Text() != text) {
        ++out.replica_failures;
      }
    }
    out.server_texts.push_back(std::move(text));
  }
  return out;
}

inline double MsBetween(std::chrono::steady_clock::time_point a,
                        std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct TickSample {
  double ms = 0;          // Post of the tick's batch plus the barrier.
  size_t messages = 0;    // Inbound messages posted (0 for drain ticks).
  size_t live_bytes = 0;  // memtrack::CurrentBytes() after the barrier.
};

// The replay deployment: a Router with one shard worker holding the
// scenario's max_resident documents. Endpoint 0 is the router; the discards
// take the recorded client ids so replayed outbound sends resolve.
class ReplayDeployment {
 public:
  ReplayDeployment(const Scenario& scenario, int endpoints)
      : net_(ScenarioNetConfig(scenario)), router_(MakeConfig(scenario)),
        discards_(static_cast<size_t>(endpoints - 1)) {
    self_ = router_.Attach(net_);
    for (auto& d : discards_) {
      net_.AddEndpoint(&d);
    }
  }

  // Replays `load`, appending one sample per tick to `ticks`. Returns the
  // replay's whole wall clock.
  double Replay(const RecordedLoad& load, std::vector<TickSample>* ticks) {
    using Clock = std::chrono::steady_clock;
    auto start = Clock::now();
    EGW_TRACE_SPAN("bench.replay");
    net_.Tick();
    size_t i = 0;
    while (i < load.msgs.size()) {
      auto t0 = Clock::now();
      size_t first = i;
      {
        EGW_TRACE_SPAN("router.route");  // This tick's recorded batch.
        while (i < load.msgs.size() && load.msgs[i].tick <= net_.now()) {
          router_.OnMessage(net_, load.msgs[i].from, self_, load.msgs[i].msg);
          ++i;
        }
      }
      net_.Tick();  // Barrier; drains outbound into the discards.
      ticks->push_back({MsBetween(t0, Clock::now()), i - first, memtrack::CurrentBytes()});
    }
    // Final barriers: flush the last broadcasts through. With the loop's
    // last tick these are NetSim::Run(64).
    for (int guard = 1; guard < 64 && net_.in_flight() != 0; ++guard) {
      auto t0 = Clock::now();
      net_.Tick();
      ticks->push_back({MsBetween(t0, Clock::now()), 0, memtrack::CurrentBytes()});
    }
    return MsBetween(start, Clock::now());
  }

  // The network holds the router's and discards' addresses.
  ReplayDeployment(const ReplayDeployment&) = delete;
  ReplayDeployment& operator=(const ReplayDeployment&) = delete;

  Router& router() { return router_; }

 private:
  static RouterConfig MakeConfig(const Scenario& scenario) {
    RouterConfig config;
    config.shards = 1;
    config.shard.registry.max_resident = scenario.max_resident;
    config.shard.broker.flush_every_events = 64;
    return config;
  }

  NetSim net_;
  Router router_;
  std::vector<DiscardEndpoint> discards_;
  int self_ = 0;
};

}  // namespace egwalker::suite

#endif  // EGWALKER_BENCHSUITE_SERVER_LOAD_H_
