// Benchmark suite program: runs ONE workload and prints one JSON object as
// the last line of stdout. benchsuite/run.py builds and drives it; see the
// docstring there for the workloads and metrics.
//
//   suite --workload=<name> --seed=<n> [--seconds=<s>] [--layers]
//         [--trace-out=<path>]
//
// Set-up builds several inputs of the workload's shape from sub-seeds of
// --seed (sub-seed 0 is --seed itself), timing each; setup_s is their
// median. One input's structure moves its costs by several percent, so
// every metric is a mean over the inputs of that input's statistic, which
// keeps a run's numbers steady from seed to seed.
//
// Default mode is the timed pass (tracing off): the journey's operations
// run interleaved until --seconds have elapsed and each has a fixed minimum
// number of samples per input (kMinMerges, kMinSamples, kMinReplays), so
// every median and p90 rests on at least that many samples however fast
// the machine is.
//
// --layers runs the layer pass instead, with fixed repetition counts so
// every counter repeats exactly. Editor workloads time calls into each
// layer directly and read the stats structs. Server workloads replay
// untraced, then traced (the Chrome trace goes to --trace-out), and report
// exact counters; run.py derives per-layer self times from the trace.
//
// Every operation's output is checked: merged and loaded texts against the
// RefCrdt oracle computed in set-up, saved bytes against the file they were
// loaded from, server replicas against the server, reloaded chains against
// the recorded server documents. Each check counts as one attempted
// operation; a mismatch counts as failed.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/doc.h"
#include "core/walker.h"
#include "crdt/ref_crdt.h"
#include "encoding/columnar.h"
#include "graph/topo_sort.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rope/rope.h"
#include "server/registry.h"
#include "server_load.h"
#include "trace/generate.h"
#include "util/json.h"
#include "util/memtrack.h"

namespace egwalker::suite {
namespace {

using Clock = std::chrono::steady_clock;

// Timed pass, minimum samples per input: whole merges (their p90 is the
// 18th of 20, not the maximum), server replays, and every other operation.
constexpr size_t kMinMerges = 20;
constexpr size_t kMinReplays = 2;
constexpr size_t kMinSamples = 5;
constexpr int kLayerReps = 10;     // Editor layer pass: calls per layer per input.
constexpr int kLayerReplays = 1;   // Server layer pass: replays per input per phase.

struct Args {
  std::string workload;
  uint64_t seed = 0;
  bool seed_given = false;
  double seconds = 10;
  bool layers = false;
  std::string trace_out;
};

// Inputs per run. A2-shaped histories vary most from seed to seed (one
// input's merge and load times move by up to ~9%), so editor-async
// averages over twice as many.
int InputCount(const std::string& workload) { return workload == "editor-async" ? 8 : 4; }

uint64_t SubSeed(uint64_t seed, int input) {
  return seed + static_cast<uint64_t>(input) * 0x10000;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Nearest-rank percentile (p in (0, 1]).
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::max<size_t>(rank, 1) - 1];
}

double MsSince(Clock::time_point t0) { return MsBetween(t0, Clock::now()); }

// Times `fn` once, appending milliseconds to `samples`.
template <typename Fn>
void TimeInto(std::vector<double>& samples, Fn&& fn) {
  auto t0 = Clock::now();
  fn();
  samples.push_back(MsSince(t0));
}

uint64_t Fnv1a64(std::string_view bytes, uint64_t h = 0xcbf29ce484222325ULL) {
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

// Digest of a run's final texts, in input order.
std::string Digest(const std::vector<std::string>& texts) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::string& text : texts) {
    h = Fnv1a64(text, h);
    h = Fnv1a64(std::string_view("\0", 1), h);
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// One metric's samples, kept per input (or per document of an input).
class PerInput {
 public:
  explicit PerInput(size_t inputs) : samples_(inputs) {}
  std::vector<double>& operator[](size_t input) { return samples_[input]; }
  double MeanOf(const std::function<double(const std::vector<double>&)>& stat) const {
    double sum = 0;
    for (const auto& s : samples_) {
      sum += stat(s);
    }
    return samples_.empty() ? 0 : sum / static_cast<double>(samples_.size());
  }
  double MeanOfMedians() const { return MeanOf(Median); }
  std::vector<double> Pooled() const {
    std::vector<double> all;
    for (const auto& s : samples_) {
      all.insert(all.end(), s.begin(), s.end());
    }
    return all;
  }

 private:
  std::vector<std::vector<double>> samples_;
};

// The run's output: metrics, their sample spreads, and the correctness
// ledger.
class Report {
 public:
  void Metric(const std::string& name, double value) {
    metrics_.emplace_back(name, Json(value));
  }
  // Records the count and quartiles of the samples behind metric `name`.
  void Spread(const std::string& name, const std::vector<double>& samples) {
    JsonObject spread;
    spread.emplace_back("n", Json(static_cast<uint64_t>(samples.size())));
    spread.emplace_back("p25", Json(Percentile(samples, 0.25)));
    spread.emplace_back("p75", Json(Percentile(samples, 0.75)));
    samples_.emplace_back(name, Json(std::move(spread)));
  }
  // The mean over inputs of each input's median, with the pooled spread.
  void MeanOfMedians(const std::string& name, const PerInput& samples) {
    Metric(name, samples.MeanOfMedians());
    Spread(name, samples.Pooled());
  }
  void Info(const std::string& name, Json value) { info_.emplace_back(name, std::move(value)); }
  // One attempted operation whose output was checked.
  void Check(bool ok, const char* what) { Tally(1, ok ? 0 : 1, what); }
  // `attempted` operations checked elsewhere, `failed` of which mismatched.
  void Tally(uint64_t attempted, uint64_t failed, const char* what) {
    attempted_ += attempted;
    failed_ += failed;
    if (failed > 0) {
      std::fprintf(stderr, "check failed %llu/%llu times: %s\n",
                   static_cast<unsigned long long>(failed),
                   static_cast<unsigned long long>(attempted), what);
    }
  }
  void Print() {
    JsonObject out;
    out.emplace_back("attempted", Json(attempted_));
    out.emplace_back("failed", Json(failed_));
    out.emplace_back("metrics", Json(std::move(metrics_)));
    out.emplace_back("samples", Json(std::move(samples_)));
    out.emplace_back("info", Json(std::move(info_)));
    std::printf("%s\n", Json(std::move(out)).Dump().c_str());
  }

 private:
  JsonObject metrics_;
  JsonObject samples_;
  JsonObject info_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// Sets up InputCount() inputs, one per sub-seed; the timed pass reports the
// median set-up time as setup_s.
template <typename T>
std::vector<T> SetUp(const Args& args, Report& report,
                     const std::function<T(uint64_t seed)>& setup) {
  std::vector<T> inputs;
  std::vector<double> seconds;
  for (int i = 0; i < InputCount(args.workload); ++i) {
    auto t0 = Clock::now();
    inputs.push_back(setup(SubSeed(args.seed, i)));
    seconds.push_back(MsSince(t0) / 1000.0);
  }
  if (!args.layers) {
    report.Metric("setup_s", Median(seconds));
    report.Spread("setup_s", seconds);
  }
  return inputs;
}

// One kind of timed operation on one input: `run` performs it once,
// appending its time to *samples and checking its output.
struct TimedOp {
  std::vector<double>* samples;
  size_t min_samples;
  std::function<void()> run;
  double used_ms = 0;
};

// Interleaves `ops` until each has its min_samples and `seconds` have
// elapsed, always running the one that has used the least time so far
// (first among those still short of their minimum): each gets an equal
// share, and cheap operations collect more samples.
void RunInterleaved(double seconds, std::vector<TimedOp>& ops) {
  auto start = Clock::now();
  auto short_of_min = [](const TimedOp& op) { return op.samples->size() < op.min_samples; };
  for (;;) {
    bool filled = std::none_of(ops.begin(), ops.end(), short_of_min);
    if (filled && MsSince(start) >= seconds * 1000) {
      return;
    }
    TimedOp* next = nullptr;
    for (TimedOp& op : ops) {
      if ((filled || short_of_min(op)) && (next == nullptr || op.used_ms < next->used_ms)) {
        next = &op;
      }
    }
    next->run();
    next->used_ms += next->samples->back();
  }
}

// Per-input values of several metrics, reported as their means over inputs.
using Values = std::vector<std::pair<std::string, double>>;

void ReportMeans(const std::vector<Values>& per_input, Report& report) {
  for (size_t m = 0; m < per_input.front().size(); ++m) {
    double sum = 0;
    for (const Values& values : per_input) {
      sum += values[m].second;
    }
    report.Metric(per_input.front()[m].first, sum / static_cast<double>(per_input.size()));
  }
}

// --- Editor journey -----------------------------------------------------------
//
// One user's document: merge a whole remote history (Walker::ReplayAll),
// load it from disk (Doc::Load), save it (Doc::Save). Files use the
// server's at-rest format (DocRegistryConfig{}.checkpoint: v2 columns,
// compressed, cached final text), so load decodes the graph but replays
// nothing.

Trace GenerateEditorTrace(const std::string& workload, uint64_t seed) {
  // Table 1 shapes at scale 1.0; the default seeds reproduce the S3, C2
  // and A2 presets of GenerateNamedTrace exactly.
  if (workload == "editor-seq") {
    return GenerateSequential({2339000, 0.099, 2, seed}, "S3");
  }
  if (workload == "editor-conc") {
    return GenerateConcurrent({608000, 0.930, 3, 2.4, 12.9, seed}, "C2");
  }
  AsyncConfig cfg;
  cfg.target_events = 698000;
  cfg.chars_remaining = 0.496;
  cfg.style = AsyncConfig::Style::kInterleaved;
  cfg.live_branches = 6;
  cfg.target_commits = 2430;
  cfg.authors = 299;
  cfg.seed = seed;
  return GenerateAsync(cfg, "A2");
}

struct EditorInput {
  Trace trace;
  std::string oracle;      // Final text by the reference CRDT.
  std::string file;        // At-rest file (load input; what save must write).
  std::string fig10_file;  // Plain v1 encoding, the Figure 10 merge input.
  std::string agent;       // Loading replica: an agent already in the file.
};

EditorInput SetupEditor(const std::string& workload, uint64_t seed) {
  EditorInput in;
  in.trace = GenerateEditorTrace(workload, seed);
  // The oracle integrates the ID-based op stream with the reference CRDT;
  // the stream comes from a replay with clearing (and so the untransformed
  // fast path and placeholders) disabled.
  std::vector<CrdtOp> crdt_ops;
  {
    Walker walker(in.trace.graph, in.trace.ops);
    Rope scratch;
    Walker::Options opts;
    opts.enable_clearing = false;
    ReplaySinks sinks;
    sinks.crdt_ops = &crdt_ops;
    walker.ReplayAll(scratch, opts, sinks);
  }
  {
    RefCrdt crdt(in.trace.graph);
    Rope doc;
    for (const CrdtOp& op : crdt_ops) {
      crdt.Apply(op, doc);
    }
    in.oracle = doc.ToString();
  }
  in.file = EncodeTrace(in.trace, DocRegistryConfig{}.checkpoint, in.oracle);
  in.fig10_file = EncodeTrace(in.trace, SaveOptions{});
  in.agent = in.trace.graph.AgentName(0);
  return in;
}

// Fresh walker per merge: the cost a replica pays when a history arrives.
void Merge(const EditorInput& in, Rope& doc, ReplaySinks sinks = {}) {
  Walker walker(in.trace.graph, in.trace.ops);
  walker.ReplayAll(doc, {}, sinks);
}

void ApplyXfOps(const std::vector<XfOp>& ops, Rope& doc) {
  for (const XfOp& op : ops) {
    if (op.kind == OpKind::kInsert) {
      doc.InsertAt(op.pos, op.text);
    } else if (!op.noop) {
      doc.RemoveAt(op.pos, op.count);
    }
  }
}

void EditorTimed(const Args& args, const std::vector<EditorInput>& inputs, Report& report) {
  const SaveOptions save_options = DocRegistryConfig{}.checkpoint;
  const size_t n = inputs.size();
  PerInput merge_ms(n), load_ms(n), save_ms(n), peak(n), steady(n);
  std::vector<Doc> loaded;  // Per input: the document each save writes.
  std::vector<TimedOp> ops;
  for (size_t j = 0; j < n; ++j) {
    const EditorInput& in = inputs[j];
    std::optional<Doc> doc = Doc::Load(in.file, in.agent);
    report.Check(doc.has_value(), "at-rest file loads");
    if (!doc.has_value()) {
      return;
    }
    loaded.push_back(std::move(*doc));
  }
  for (size_t j = 0; j < n; ++j) {
    ops.push_back({&merge_ms[j], kMinMerges, [&, j] {
                     const EditorInput& in = inputs[j];
                     Rope merged;
                     TimeInto(merge_ms[j], [&] { Merge(in, merged); });
                     report.Check(merged.ToString() == in.oracle, "merged text == oracle");
                   }});
    ops.push_back({&load_ms[j], kMinSamples, [&, j] {
                     const EditorInput& in = inputs[j];
                     std::optional<Doc> doc;
                     TimeInto(load_ms[j], [&] { doc = Doc::Load(in.file, in.agent); });
                     report.Check(doc.has_value() && doc->Text() == in.oracle,
                                  "loaded text == oracle");
                   }});
    ops.push_back({&save_ms[j], kMinSamples, [&, j] {
                     std::string saved;
                     TimeInto(save_ms[j], [&] { saved = loaded[j].Save(save_options); });
                     report.Check(saved == inputs[j].file, "saved bytes == loaded file");
                   }});
  }
  RunInterleaved(args.seconds, ops);

  double events = 0, file_bytes = 0, merge_s = 0;
  for (size_t j = 0; j < n; ++j) {
    const EditorInput& in = inputs[j];
    events += static_cast<double>(in.trace.graph.size());
    file_bytes += static_cast<double>(in.file.size());
    merge_s += Median(merge_ms[j]) / 1000.0;
    // Figure 10's method: decode the serialised graph and replay it inside
    // the measured scope; peak is measured inside, steady after it, with
    // only the document text left alive.
    Rope doc;
    size_t base = memtrack::CurrentBytes();
    memtrack::ResetPeak();
    {
      auto decoded = DecodeTrace(in.fig10_file);
      if (decoded.has_value()) {
        Walker walker(decoded->trace.graph, decoded->trace.ops);
        walker.ReplayAll(doc);
      }
      peak[j].push_back(static_cast<double>(memtrack::PeakBytes() - base));
    }
    steady[j].push_back(static_cast<double>(memtrack::CurrentBytes() - base));
    report.Check(doc.ToString() == in.oracle, "fig10 merge text == oracle");
  }

  report.MeanOfMedians("latency_p50_ms", merge_ms);
  report.Metric("latency_p90_ms",
                merge_ms.MeanOf([](const std::vector<double>& s) { return Percentile(s, 0.9); }));
  report.Spread("latency_p90_ms", merge_ms.Pooled());
  report.Metric("events_per_s", events / merge_s);
  report.MeanOfMedians("load_ms", load_ms);
  report.MeanOfMedians("save_ms", save_ms);
  report.Metric("at_rest_bytes_per_event", file_bytes / events);
  report.MeanOfMedians("peak_bytes", peak);
  report.MeanOfMedians("steady_bytes", steady);
}

Values EditorLayerValues(const EditorInput& in, Report& report) {
  const Graph& graph = in.trace.graph;

  // topo: the plan ReplayAll builds, alone.
  std::vector<double> plan_ms;
  size_t steps = 0;
  for (int i = 0; i < kLayerReps; ++i) {
    TimeInto(plan_ms, [&] { steps = PlanWalkAll(graph).steps.size(); });
  }

  // The transformed-op stream, captured once (untimed), for the rope layer.
  std::vector<XfOp> xf_ops;
  {
    Rope doc;
    ReplaySinks sinks;
    sinks.xf_ops = &xf_ops;
    Merge(in, doc, sinks);
  }

  // Whole merges; the first one also reads the YATA/walker counters and
  // the allocation count.
  std::vector<double> merge_ms;
  DiffStats diff_before = graph.diff_stats();
  YataStats yata;
  size_t peak_spans = 0;
  size_t allocs = 0;
  for (int i = 0; i < kLayerReps; ++i) {
    Rope doc;
    size_t allocs_before = memtrack::TotalAllocations();
    Walker walker(graph, in.trace.ops);
    TimeInto(merge_ms, [&] { walker.ReplayAll(doc); });
    if (i == 0) {
      allocs = memtrack::TotalAllocations() - allocs_before;
      yata = walker.yata_stats();
      peak_spans = walker.peak_span_count();
    }
    report.Check(doc.ToString() == in.oracle, "merged text == oracle");
  }
  // Every merge makes the same diff calls; report one merge's worth.
  DiffStats diff = graph.diff_stats();
  double calls = static_cast<double>(diff.calls - diff_before.calls) / kLayerReps;
  double runs = static_cast<double>(diff.runs_visited - diff_before.runs_visited) / kLayerReps;
  double spanned =
      static_cast<double>(diff.events_spanned - diff_before.events_spanned) / kLayerReps;

  std::vector<double> rope_apply_ms;
  for (int i = 0; i < kLayerReps; ++i) {
    Rope doc;
    TimeInto(rope_apply_ms, [&] { ApplyXfOps(xf_ops, doc); });
    report.Check(doc.ToString() == in.oracle, "xf-op replay text == oracle");
  }

  std::vector<double> decode_ms, build_ms;
  for (int i = 0; i < kLayerReps; ++i) {
    std::optional<DecodeResult> decoded;
    TimeInto(decode_ms, [&] { decoded = DecodeTrace(in.file); });
    report.Check(decoded.has_value() && decoded->cached_doc == in.oracle,
                 "decoded cached text == oracle");
    Rope doc;
    TimeInto(build_ms, [&] { doc = Rope(in.oracle); });
    report.Check(doc.byte_size() == in.oracle.size(), "rope build size");
  }

  double inserts = static_cast<double>(yata.integrations + yata.fast_inserts);
  double scans = static_cast<double>(yata.scan_steps + yata.or_scan_steps + yata.cmp_steps);
  double plan = Median(plan_ms), rope = Median(rope_apply_ms);
  return {
      {"topo.plan_ms", plan},
      {"topo.steps", static_cast<double>(steps)},
      {"graph.diff_calls", calls},
      {"graph.diff_runs_per_call", calls > 0 ? runs / calls : 0},
      {"graph.diff_events_per_call", calls > 0 ? spanned / calls : 0},
      {"yata.integrations", static_cast<double>(yata.integrations)},
      {"yata.scan_steps_per_insert", inserts > 0 ? scans / inserts : 0},
      {"yata.fast_insert_frac",
       inserts > 0 ? static_cast<double>(yata.fast_inserts) / inserts : 0},
      {"walker.peak_spans", static_cast<double>(peak_spans)},
      // Derived, not measured: merge minus its plan and rope shares.
      {"walker.self_ms", Median(merge_ms) - plan - rope},
      {"rope.apply_ms", rope},
      {"rope.xf_ops", static_cast<double>(xf_ops.size())},
      {"rope.build_ms", Median(build_ms)},
      {"codec.decode_ms", Median(decode_ms)},
      {"alloc.per_merge", static_cast<double>(allocs)},
  };
}

void RunEditor(const Args& args, Report& report) {
  std::vector<EditorInput> inputs = SetUp<EditorInput>(
      args, report, [&](uint64_t seed) { return SetupEditor(args.workload, seed); });
  uint64_t events = 0;
  std::vector<std::string> texts;
  for (const EditorInput& in : inputs) {
    events += in.trace.graph.size();
    texts.push_back(in.oracle);
  }
  report.Info("events", Json(events));
  report.Info("digest", Json(Digest(texts)));
  if (args.layers) {
    std::vector<Values> per_input;
    for (const EditorInput& in : inputs) {
      per_input.push_back(EditorLayerValues(in, report));
    }
    ReportMeans(per_input, report);
  } else {
    EditorTimed(args, inputs, report);
  }
}

// --- Server journey -------------------------------------------------------------
//
// The recorded inbound stream of an interactive run (set-up) replayed tick
// by tick into a Router with one shard worker. One, because on a 4-vCPU VM
// two shards replay 4x32w only ~5% faster while the run-to-run spread grows
// from ~2% to 6-17% (both shards allocate hard, and every allocation
// updates memtrack's shared atomics), which no bound could absorb. After
// each replay the
// deployment is stopped and flushed, and every document's chain is
// reloaded and checked. Whole-document I/O is what chain compaction does:
// save = Doc::SaveSegment from 0, load = Doc::LoadChain of that segment.

struct ServerInput {
  Scenario scenario;
  Recording rec;
};

Scenario ServerScenario(const std::string& workload, uint64_t seed) {
  Scenario s;
  if (workload == "server-writers") {
    // bench_server's 4x32w: 32 writers per doc, all documents resident.
    s = Scenario{4, 32, 12, 0, 0, 0.0};
  } else {
    // bench_server's 4x32/r2/w4: 4 writers + 28 syncing readers per doc,
    // resident capacity for half of the documents.
    s = Scenario{4, 32, 180, 2, 4, 0.25};
  }
  // Seed 41 reproduces bench_server's (script 41, network 7) pair.
  s.script_seed = seed;
  s.net_seed = seed ^ 0x2E;
  return s;
}

// Exact counters the layer report carries (Router::ExportMetrics names).
const char* const kServerCounters[] = {
    "broker.patch_encodes",     "broker.patch_encodes_reused", "broker.patch_events_encoded",
    "broker.patches_rejected",  "registry.evictions",          "registry.loads",
    "registry.session_resumes", "registry.flushes",            "registry.compactions",
    "registry.replayed_on_load", "registry.lazy_bytes_skipped",
};
constexpr size_t kEvictionsCounter = 4;

struct ReplayOutcome {
  double wall_ms = 0;
  std::vector<TickSample> ticks;
  size_t base_bytes = 0;  // Live heap before the deployment existed.
  size_t peak_bytes = 0;  // Above base, during the replay.
  size_t allocations = 0;
  std::vector<uint64_t> counters;  // kServerCounters, in order.
  uint64_t blocked_pushes = 0;     // Depends on thread timing.
};

// One replay into a fresh deployment, then stop, flush, and reload every
// document's chain (checked against the recorded server). With `docs`, the
// reloaded documents are handed back.
ReplayOutcome ReplayOnce(const ServerInput& in, Report& report,
                         std::vector<Doc>* docs = nullptr) {
  ReplayOutcome out;
  out.base_bytes = memtrack::CurrentBytes();
  size_t allocs_before = memtrack::TotalAllocations();
  memtrack::ResetPeak();
  ReplayDeployment deployment(in.scenario, in.rec.load.endpoints);
  out.wall_ms = deployment.Replay(in.rec.load, &out.ticks);
  out.peak_bytes = memtrack::PeakBytes() - out.base_bytes;
  out.allocations = memtrack::TotalAllocations() - allocs_before;
  Router& router = deployment.router();
  router.Stop();
  obs::MetricsRegistry reg;
  router.ExportMetrics(reg);
  for (const char* name : kServerCounters) {
    out.counters.push_back(*reg.Counter(name));
  }
  out.blocked_pushes = *reg.Counter("server.blocked_pushes");
  if (in.scenario.max_resident > 0) {
    report.Check(out.counters[kEvictionsCounter] > 0, "evicts when the cache is short");
  } else {
    report.Check(out.counters[kEvictionsCounter] == 0, "never evicts when all fit");
  }

  Shard& shard = router.shard(0);
  shard.registry().FlushAll();
  uint64_t chain_events = 0;
  for (int d = 0; d < in.scenario.docs; ++d) {
    const std::vector<std::string>* chain = shard.storage().Chain(DocName(d));
    std::optional<Doc> doc;
    if (chain != nullptr) {
      doc = Doc::LoadChain(*chain, "!server");
    }
    bool ok = doc.has_value() && doc->Text() == in.rec.server_texts[static_cast<size_t>(d)];
    report.Check(ok, "reloaded chain == server doc");
    if (ok) {
      chain_events += doc->end_lv();
      if (docs != nullptr) {
        docs->push_back(std::move(*doc));
      }
    }
  }
  report.Check(chain_events == in.rec.events, "chains hold every recorded event");
  return out;
}

void ServerTimed(const Args& args, const std::vector<ServerInput>& inputs, Report& report) {
  const SaveOptions save_options = DocRegistryConfig{}.checkpoint;
  const size_t n = inputs.size();
  PerInput message_ms(n), live_bytes(n), events_per_s(n), peak(n);
  // Documents differ in size, so whole-document I/O is kept per document.
  const size_t docs_per_input = static_cast<size_t>(inputs.front().scenario.docs);
  PerInput load_ms(n * docs_per_input), save_ms(n * docs_per_input);
  std::vector<std::vector<Doc>> docs(n);
  std::vector<std::vector<std::vector<std::string>>> compacted(n);  // One-segment chains.
  double events = 0, at_rest_bytes = 0;
  // Replays take turns over the inputs for three quarters of the run.
  auto start = Clock::now();
  for (size_t round = 0; round < kMinReplays * n || MsSince(start) < args.seconds * 750;
       ++round) {
    size_t j = round % n;
    const ServerInput& in = inputs[j];
    bool first = round < n;
    ReplayOutcome out = ReplayOnce(in, report, first ? &docs[j] : nullptr);
    if (first) {
      events += static_cast<double>(in.rec.events);
      for (const Doc& doc : docs[j]) {
        compacted[j].push_back({doc.SaveSegment(0, save_options)});
        at_rest_bytes += static_cast<double>(compacted[j].back()[0].size());
      }
    }
    // Every inbound message waits for its tick's post and barrier, so each
    // tick counts once per message it carried.
    for (const TickSample& tick : out.ticks) {
      message_ms[j].insert(message_ms[j].end(), tick.messages, tick.ms);
      live_bytes[j].push_back(static_cast<double>(tick.live_bytes - out.base_bytes));
    }
    events_per_s[j].push_back(static_cast<double>(in.rec.events) / (out.wall_ms / 1000.0));
    peak[j].push_back(static_cast<double>(out.peak_bytes));
  }

  // Whole-document saves and loads share the last quarter. (Right after a
  // replay the first dozen loads run up to 50% slow, so interleaving them
  // with replays made their medians swing by 20% from run to run.)
  std::vector<TimedOp> ops;
  for (size_t j = 0; j < n; ++j) {
    for (size_t d = 0; d < docs[j].size(); ++d) {
      const Doc* doc = &docs[j][d];
      const std::vector<std::string>* chain = &compacted[j][d];
      const std::string* text = &inputs[j].rec.server_texts[d];
      std::vector<double>* saves = &save_ms[j * docs_per_input + d];
      std::vector<double>* loads = &load_ms[j * docs_per_input + d];
      ops.push_back({saves, kMinSamples, [&report, &save_options, doc, chain, saves] {
                       std::string saved;
                       TimeInto(*saves, [&] { saved = doc->SaveSegment(0, save_options); });
                       report.Check(saved == (*chain)[0], "compacted segment is deterministic");
                     }});
      ops.push_back({loads, kMinSamples, [&report, chain, text, loads] {
                       std::optional<Doc> loaded;
                       TimeInto(*loads, [&] { loaded = Doc::LoadChain(*chain, "!server"); });
                       report.Check(loaded.has_value() && loaded->Text() == *text,
                                    "reloaded compacted chain == server doc");
                     }});
    }
  }
  RunInterleaved(args.seconds / 4, ops);

  report.MeanOfMedians("latency_p50_ms", message_ms);
  report.Metric("latency_p90_ms",
                message_ms.MeanOf([](const std::vector<double>& s) { return Percentile(s, 0.9); }));
  report.Spread("latency_p90_ms", message_ms.Pooled());
  report.MeanOfMedians("events_per_s", events_per_s);
  report.MeanOfMedians("load_ms", load_ms);
  report.MeanOfMedians("save_ms", save_ms);
  report.Metric("at_rest_bytes_per_event", at_rest_bytes / events);
  report.MeanOfMedians("peak_bytes", peak);
  report.MeanOfMedians("steady_bytes", live_bytes);
}

void ServerLayers(const Args& args, const std::vector<ServerInput>& inputs, Report& report) {
  const size_t n = inputs.size();
  PerInput untraced_ms(n), traced_ms(n), allocs(n), blocked_pushes(n);
  std::vector<std::vector<uint64_t>> counters(inputs.size());
  auto replay = [&](size_t j, PerInput& walls) {
    ReplayOutcome out = ReplayOnce(inputs[j], report);
    walls[j].push_back(out.wall_ms);
    allocs[j].push_back(static_cast<double>(out.allocations));
    blocked_pushes[j].push_back(static_cast<double>(out.blocked_pushes));
    if (counters[j].empty()) {
      counters[j] = out.counters;
    } else {
      report.Check(out.counters == counters[j], "replay counters repeat exactly");
    }
  };
  for (int i = 0; i < kLayerReplays; ++i) {
    for (size_t j = 0; j < inputs.size(); ++j) {
      replay(j, untraced_ms);
    }
  }
  // The session must be live before the shard threads start (obs/trace.h).
  obs::TraceStart();
  obs::TraceSetThreadName("bench-main");
  for (int i = 0; i < kLayerReplays; ++i) {
    for (size_t j = 0; j < inputs.size(); ++j) {
      replay(j, traced_ms);
    }
  }
  obs::TraceStop();
  if (!args.trace_out.empty()) {
    report.Check(obs::TraceWriteChrome(args.trace_out), "trace written");
  }

  std::vector<Values> per_input;
  for (size_t j = 0; j < inputs.size(); ++j) {
    Values values;
    for (size_t c = 0; c < std::size(kServerCounters); ++c) {
      values.emplace_back(kServerCounters[c], static_cast<double>(counters[j][c]));
    }
    values.emplace_back("net.conv_p95_ticks",
                        static_cast<double>(inputs[j].rec.conv_latency.Percentile(0.95)));
    per_input.push_back(std::move(values));
  }
  ReportMeans(per_input, report);
  report.Metric("router.blocked_pushes", blocked_pushes.MeanOfMedians());
  report.Metric("alloc.per_replay", allocs.MeanOfMedians());
  report.Info("replays_traced", Json(kLayerReplays * static_cast<int>(inputs.size())));
  report.Info("replay_ms_traced", Json(traced_ms.MeanOfMedians()));
  report.Info("replay_ms_untraced", Json(untraced_ms.MeanOfMedians()));
}

void RunServer(const Args& args, Report& report) {
  std::vector<ServerInput> inputs = SetUp<ServerInput>(args, report, [&](uint64_t seed) {
    Scenario scenario = ServerScenario(args.workload, seed);
    return ServerInput{scenario, Record(scenario)};
  });
  uint64_t events = 0, messages = 0;
  std::vector<std::string> texts;
  for (const ServerInput& in : inputs) {
    report.Tally(in.rec.replica_checks, in.rec.replica_failures,
                 "replica == server doc after drain");
    report.Check(in.rec.conv_pending == 0, "every pushed edit converged");
    events += in.rec.events;
    messages += in.rec.load.msgs.size();
    texts.insert(texts.end(), in.rec.server_texts.begin(), in.rec.server_texts.end());
  }
  report.Info("events", Json(events));
  report.Info("messages", Json(messages));
  report.Info("digest", Json(Digest(texts)));
  if (args.layers) {
    ServerLayers(args, inputs, report);
  } else {
    ServerTimed(args, inputs, report);
  }
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      size_t n = std::strlen(flag);
      return arg.compare(0, n, flag) == 0 ? argv[i] + n : nullptr;
    };
    if (const char* v = value("--workload=")) {
      args->workload = v;
    } else if (const char* v = value("--seed=")) {
      char* end = nullptr;
      args->seed = std::strtoull(v, &end, 0);
      args->seed_given = end != v && *end == '\0';
    } else if (const char* v = value("--seconds=")) {
      args->seconds = std::atof(v);
    } else if (const char* v = value("--trace-out=")) {
      args->trace_out = v;
    } else if (arg == "--layers") {
      args->layers = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return args->seed_given;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr, "usage: suite --workload=<name> --seed=<n> [--seconds=<s>] "
                         "[--layers] [--trace-out=<path>]\n");
    return 2;
  }
  Report report;
  if (args.workload == "editor-seq" || args.workload == "editor-conc" ||
      args.workload == "editor-async") {
    RunEditor(args, report);
  } else if (args.workload == "server-writers" || args.workload == "server-churn") {
    RunServer(args, report);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  report.Print();
  return 0;
}

}  // namespace
}  // namespace egwalker::suite

int main(int argc, char** argv) { return egwalker::suite::Main(argc, argv); }
