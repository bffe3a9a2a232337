// Multi-document collaboration server demo.
//
// A Broker serves several named documents out of a DocRegistry with a small
// resident capacity, so busy documents stay hot while idle ones get
// LRU-evicted to incremental checkpoint chains — and come back, replay-free,
// when a client touches them again. Clients churn over a deterministic
// lossy NetSim (drops, duplicates, reordering), then the network is drained
// and every replica is checked for byte-identical convergence.
//
// Run: ./build/collab_server [docs] [clients_per_doc] [ticks]
//                            [--trace=<path>] [--metrics=<path>]
//
// Observability walkthrough:
//
//   ./build/collab_server 6 4 80 --trace=collab.json --metrics=metrics.json
//
// collab.json is Chrome trace_event JSON: open https://ui.perfetto.dev (or
// chrome://tracing) and drop the file in. The timeline shows every tick's
// phases — net.tick delivery, broker.apply_patch / broker.sync_request per
// message, broker.encode_patch for every patch the broker builds (under
// broker.sync_request, or broker.flush for a tick's fan-out, where
// subscribers with equal estimates share one), walker.merge for each
// replica-side merge, registry.load / registry.flush when the LRU evicts
// and reloads. `python3 tools/summarize_trace.py
// collab.json` prints the same data as a per-phase self-time table.
// metrics.json is the metrics registry (obs/metrics.h): broker/registry/
// net counters plus the client-observed convergence-latency histogram in
// simulated ticks.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "obs/convergence.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/broker.h"
#include "server/client.h"
#include "server/netsim.h"
#include "server/registry.h"
#include "util/json.h"
#include "util/prng.h"

using namespace egwalker;

int main(int argc, char** argv) {
  int docs = 6, clients_per_doc = 4, ticks = 80;
  std::string trace_path, metrics_path;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      trace_path = argv[i] + 8;
    } else if (std::strncmp(argv[i], "--metrics=", 10) == 0) {
      metrics_path = argv[i] + 10;
    } else {
      int value = std::atoi(argv[i]);
      if (positional == 0) docs = value;
      if (positional == 1) clients_per_doc = value;
      if (positional == 2) ticks = value;
      ++positional;
    }
  }

  if (!trace_path.empty()) {
    obs::TraceStart();
    obs::TraceSetThreadName("collab-server");
  }

  NetSimConfig net_config;
  net_config.seed = 2025;
  net_config.min_latency = 1;
  net_config.max_latency = 8;
  net_config.drop = 0.1;
  net_config.duplicate = 0.05;
  NetSim net(net_config);

  MemStorage storage;
  DocRegistry::Config registry_config;
  registry_config.max_resident = static_cast<size_t>(docs) / 2 + 1;  // Force evictions.
  DocRegistry registry(storage, registry_config);
  Broker::Config broker_config;
  broker_config.flush_every_events = 32;
  Broker broker(registry, broker_config);
  broker.Attach(net);

  std::vector<std::string> names;
  for (int d = 0; d < docs; ++d) {
    names.push_back("doc-" + std::to_string(d));
  }
  std::vector<CollabClient> clients;
  clients.reserve(static_cast<size_t>(docs * clients_per_doc));
  for (int d = 0; d < docs; ++d) {
    for (int c = 0; c < clients_per_doc; ++c) {
      clients.emplace_back("editor-" + std::to_string(d) + "-" + std::to_string(c));
    }
  }
  for (auto& client : clients) {
    client.Attach(net, broker.endpoint_id());
  }
  for (int d = 0; d < docs; ++d) {
    for (int c = 0; c < clients_per_doc; ++c) {
      clients[static_cast<size_t>(d * clients_per_doc + c)].Join(net, names[static_cast<size_t>(d)]);
    }
  }

  // Convergence probes: each PushEdits records the author's latest event;
  // an edit converges once every subscriber replica of its doc contains it
  // (non-mutating Graph::RawToLv check). Latency is in simulated ticks.
  obs::ConvergenceTracker conv;
  std::vector<uint64_t> last_recorded(clients.size(), 0);
  auto record_push = [&](size_t client_index, const std::string& name) {
    const Doc& doc = clients[client_index].doc(name);
    uint64_t seq_end = doc.next_seq();
    if (seq_end > last_recorded[client_index]) {
      last_recorded[client_index] = seq_end;
      conv.Record(name, doc.agent_name(), seq_end, net.now());
    }
  };
  auto converged_probe = [&](obs::ConvergenceTracker::Pending& p) {
    int d = std::atoi(p.doc.c_str() + 4);  // Names are "doc-<d>".
    // probe_cursor resumes at the first unconfirmed replica (containment is
    // monotone), keeping the sweep O(new confirmations) per tick.
    for (int c = static_cast<int>(p.probe_cursor); c < clients_per_doc; ++c) {
      CollabClient& peer = clients[static_cast<size_t>(d * clients_per_doc + c)];
      if (peer.doc(p.doc).graph().RawToLv(p.agent, p.seq_end - 1) == kInvalidLv) {
        p.probe_cursor = static_cast<uint32_t>(c);
        return false;
      }
    }
    return true;
  };

  Prng rng(5);
  for (int tick = 0; tick < ticks; ++tick) {
    for (int d = 0; d < docs; ++d) {
      for (int c = 0; c < clients_per_doc; ++c) {
        CollabClient& client = clients[static_cast<size_t>(d * clients_per_doc + c)];
        const std::string& name = names[static_cast<size_t>(d)];
        if (rng.Chance(0.4)) {
          Doc& doc = client.doc(name);
          if (doc.size() > 10 && rng.Chance(0.25)) {
            client.Delete(name, rng.Below(doc.size() - 1), 1);
          } else {
            std::string burst(1 + rng.Below(3), static_cast<char>('a' + (c % 26)));
            client.Insert(name, rng.Below(doc.size() + 1), burst);
          }
        }
        if (rng.Chance(0.3)) {
          client.PushEdits(net, name);
          record_push(static_cast<size_t>(d * clients_per_doc + c), name);
        }
        if (rng.Chance(0.1)) {
          client.RequestSync(net, name);
        }
      }
    }
    net.Tick();
    conv.Advance(net.now(), converged_probe);
  }

  // Drain: lossless network, sync sweeps until quiet.
  NetSimConfig lossless;
  lossless.min_latency = 1;
  lossless.max_latency = 2;
  net.set_config(lossless);
  for (int round = 0; round < 5; ++round) {
    for (int d = 0; d < docs; ++d) {
      for (int c = 0; c < clients_per_doc; ++c) {
        CollabClient& client = clients[static_cast<size_t>(d * clients_per_doc + c)];
        client.PushEdits(net, names[static_cast<size_t>(d)]);
        client.RequestSync(net, names[static_cast<size_t>(d)]);
      }
    }
    net.Run(1 << 12);
    conv.Advance(net.now(), converged_probe);
  }

  const NetSim::Stats& ns = net.stats();
  const DocRegistry::Stats& rs = registry.stats();
  std::printf("%d docs x %d clients, %d ticks: %llu msgs sent, %llu delivered, "
              "%llu dropped, %llu duplicated\n",
              docs, clients_per_doc, ticks, static_cast<unsigned long long>(ns.sent),
              static_cast<unsigned long long>(ns.delivered),
              static_cast<unsigned long long>(ns.dropped),
              static_cast<unsigned long long>(ns.duplicated));
  std::printf("registry: %llu evictions, %llu chain reloads (replayed %llu events), "
              "%llu flushes, %llu compactions, %zu bytes of checkpoints\n",
              static_cast<unsigned long long>(rs.evictions),
              static_cast<unsigned long long>(rs.loads),
              static_cast<unsigned long long>(rs.replayed_on_load),
              static_cast<unsigned long long>(rs.flushes),
              static_cast<unsigned long long>(rs.compactions),
              static_cast<size_t>(storage.total_bytes()));

  bool converged = true;
  uint64_t total_chars = 0;
  registry.FlushAll();
  for (int d = 0; d < docs; ++d) {
    const std::string& name = names[static_cast<size_t>(d)];
    std::string server_text = registry.Open(name).Text();
    total_chars += server_text.size();
    for (int c = 0; c < clients_per_doc; ++c) {
      converged = converged &&
                  clients[static_cast<size_t>(d * clients_per_doc + c)].doc(name).Text() ==
                      server_text;
    }
    // An evicted-and-reloaded replica must equal the live ones. A document
    // that never saw an event has no chain (clean docs flush nothing).
    if (const std::vector<std::string>* chain = storage.Chain(name)) {
      auto reloaded = Doc::LoadChain(*chain, "!server");
      converged = converged && reloaded.has_value() && reloaded->Text() == server_text &&
                  reloaded->replayed_events() == 0;
    } else {
      converged = converged && server_text.empty();
    }
  }
  std::printf("converged: %s (%llu chars across %d documents)\n",
              converged ? "yes" : "NO — BUG",
              static_cast<unsigned long long>(total_chars), docs);
  std::printf("convergence latency (ticks): p50=%llu p95=%llu p99=%llu over %llu edits"
              " (%zu never converged)\n",
              static_cast<unsigned long long>(conv.latency().Percentile(0.50)),
              static_cast<unsigned long long>(conv.latency().Percentile(0.95)),
              static_cast<unsigned long long>(conv.latency().Percentile(0.99)),
              static_cast<unsigned long long>(conv.latency().count()), conv.pending());

  if (!metrics_path.empty()) {
    obs::MetricsRegistry reg;
    obs::ExportStats(reg, "broker", broker.stats());
    obs::ExportStats(reg, "registry", registry.stats());
    obs::ExportStats(reg, "net", net.stats());
    reg.Histo("convergence.latency_ticks")->Merge(conv.latency());
    *reg.Counter("convergence.pending") += conv.pending();
    std::string text = reg.ToJson().Dump(2);
    text += '\n';
    if (FILE* f = std::fopen(metrics_path.c_str(), "w")) {
      std::fwrite(text.data(), 1, text.size(), f);
      std::fclose(f);
      std::printf("metrics: %s\n", metrics_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", metrics_path.c_str());
    }
  }
  if (!trace_path.empty()) {
    obs::TraceStop();
    if (obs::TraceWriteChrome(trace_path)) {
      std::printf("trace:   %s  (open in chrome://tracing or ui.perfetto.dev)\n",
                  trace_path.c_str());
    }
  }
  return converged ? 0 : 1;
}
