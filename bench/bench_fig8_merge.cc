// Figure 8: CPU time to merge all events in each trace (as received from a
// remote replica), and to reload the resulting document from disk.
//
// Rows per trace:
//   eg-walker   merge: full replay (heuristic order, clearing enabled)
//               cached load: read the checksummed cached-doc column of the
//               v2 container and build the rope — no replay, and no graph
//               decode (the graph stays on disk)
//   OT          merge: TTF replay (quadratic in concurrency windows);
//               on A2 the window is the whole trace, so the measurement
//               runs at a capped scale and is extrapolated quadratically
//               (the paper's full-size value is 61 minutes)
//               cached load: identical storage strategy to eg-walker
//   ref CRDT    merge == load: integrate the ID-based op stream (conversion
//               is untimed preprocessing, Section 2.5) while maintaining
//               the document rope
//   naive CRDT  merge == load: same stream, per-character records
//               (Automerge/Yjs-class constant factors)

#include "bench_common.h"

#include "crdt/naive_crdt.h"
#include "crdt/ref_crdt.h"
#include "encoding/columnar.h"
#include "ot/ot.h"

namespace egwalker::bench {
namespace {

struct PaperFig8 {
  const char* name;
  double egwalker_ms, eg_load_ms, ot_ms, ref_ms, automerge_ms, yjs_ms;
};
// Figure 8 values from the paper (ms; merge columns).
constexpr PaperFig8 kPaper[] = {
    {"S1", 1.8, 0.07, 2.4, 17.9, 620, 57.4},
    {"S2", 2.7, 0.04, 2.8, 19.1, 747, 85.2},
    {"S3", 3.6, 0.03, 3.8, 26.9, 1400, 79.9},
    {"C1", 56.1, 0.12, 365, 52.5, 11800, 84.1},
    {"C2", 82.6, 0.11, 378, 64.2, 24600, 55.2},
    {"A1", 8.9, 0.01, 6300, 42.7, 485, 88.4},
    {"A2", 23.5, 0.05, 3666000, 26.2, 520, 74.2},
};

int Run(int argc, char** argv) {
  Options opts = ParseArgs(argc, argv);
  PrintHeader("Figure 8: merge + cached-load times", opts);
  JsonReport report("fig8_merge", opts);
  std::printf("%-4s | %-26s %12s | %12s\n", "", "algorithm", "measured", "paper@1.0");

  for (const PaperFig8& paper : kPaper) {
    bool selected = false;
    for (const std::string& t : opts.traces) {
      selected = selected || t == paper.name;
    }
    if (!selected) {
      continue;
    }
    BenchTrace bt = MakeBenchTrace(paper.name, opts.scale);
    const Trace& trace = bt.trace;

    // --- eg-walker merge ---
    double eg_ms;
    size_t eg_peak_spans;
    {
      // The walker must not outlive this block: `bt` (and the trace it
      // references) is reassigned below for the OT rows.
      Walker walker(trace.graph, trace.ops);
      eg_ms = TimeMs(
          [&] {
            Rope doc;
            walker.ReplayAll(doc);
          },
          opts.time_budget_s);
      eg_peak_spans = walker.peak_span_count();
    }
    std::printf("%-4s | %-26s %12s | %12s\n", paper.name, "eg-walker (merge)",
                FmtMs(eg_ms).c_str(), FmtMs(paper.egwalker_ms).c_str());
    report.Add(paper.name, "eg-walker (merge)", eg_ms);
    report.Annotate("peak_spans", Json(static_cast<uint64_t>(eg_peak_spans)));

    // --- eg-walker / OT cached load ---
    SaveOptions save;
    save.cache_final_doc = true;
    std::string file = EncodeTrace(trace, save, bt.final_text);
    double load_ms = TimeMs(
        [&] {
          auto text = ReadCachedDoc(file);
          Rope doc(*text);
          if (doc.char_size() != bt.final_chars) {
            std::abort();
          }
        },
        opts.time_budget_s);
    std::printf("%-4s | %-26s %12s | %12s\n", paper.name, "eg-walker/OT (cached load)",
                FmtMs(load_ms).c_str(), FmtMs(paper.eg_load_ms).c_str());
    report.Add(paper.name, "eg-walker/OT (cached load)", load_ms);

    // --- OT merge (capped on A2, whose window is the whole trace) ---
    {
      double ot_scale = opts.scale;
      bool capped = false;
      if (std::string(paper.name) == "A2" && ot_scale > 0.1) {
        ot_scale = 0.1;
        capped = true;
      }
      BenchTrace ot_bt = capped ? MakeBenchTrace(paper.name, ot_scale) : std::move(bt);
      double ot_ms = TimeMs(
          [&] {
            OtReplayer ot(ot_bt.trace.graph, ot_bt.trace.ops);
            ot.ReplayAll();
          },
          opts.time_budget_s);
      if (capped) {
        double factor = (opts.scale / ot_scale) * (opts.scale / ot_scale);
        std::printf("%-4s | %-26s %12s | %12s   (measured at scale %.2f: %s; x%.0f quadratic)\n",
                    paper.name, "OT (merge, extrapolated)", FmtMs(ot_ms * factor).c_str(),
                    FmtMs(paper.ot_ms).c_str(), ot_scale, FmtMs(ot_ms).c_str(), factor);
        report.Add(paper.name, "OT (merge, extrapolated)", ot_ms * factor);
        report.Annotate("measured_scale", Json(ot_scale));
        report.Annotate("measured_ms", Json(ot_ms));
        bt = MakeBenchTrace(paper.name, opts.scale);  // Restore for CRDT rows.
      } else {
        std::printf("%-4s | %-26s %12s | %12s\n", paper.name, "OT (merge)",
                    FmtMs(ot_ms).c_str(), FmtMs(paper.ot_ms).c_str());
        report.Add(paper.name, "OT (merge)", ot_ms);
        bt = std::move(ot_bt);
      }
    }

    // --- CRDT baselines: convert once (untimed), then integrate (timed) ---
    std::vector<CrdtOp> crdt_ops;
    {
      Walker walker(bt.trace.graph, bt.trace.ops);
      Rope doc;
      Walker::Options wopts;
      wopts.enable_clearing = false;
      ReplaySinks sinks;
      sinks.crdt_ops = &crdt_ops;
      walker.ReplayAll(doc, wopts, sinks);
    }
    double ref_ms = TimeMs(
        [&] {
          RefCrdt crdt(bt.trace.graph);
          Rope doc;
          for (const CrdtOp& op : crdt_ops) {
            crdt.Apply(op, doc);
          }
        },
        opts.time_budget_s);
    std::printf("%-4s | %-26s %12s | %12s\n", paper.name, "ref CRDT (merge=load)",
                FmtMs(ref_ms).c_str(), FmtMs(paper.ref_ms).c_str());
    report.Add(paper.name, "ref CRDT (merge=load)", ref_ms);

    double naive_ms = TimeMs(
        [&] {
          NaiveCrdt crdt(bt.trace.graph);
          for (const CrdtOp& op : crdt_ops) {
            crdt.Apply(op);
          }
          if (crdt.ToText().empty() && bt.final_chars > 0) {
            std::abort();
          }
        },
        opts.time_budget_s);
    std::printf("%-4s | %-26s %12s | %12s   (paper: Automerge %s / Yjs %s)\n", paper.name,
                "naive CRDT (merge=load)", FmtMs(naive_ms).c_str(), "-",
                FmtMs(paper.automerge_ms).c_str(), FmtMs(paper.yjs_ms).c_str());
    report.Add(paper.name, "naive CRDT (merge=load)", naive_ms);
    std::printf("-----+\n");
  }

  // --- Hostile presets (docs/TRACES.md): opt-in via --trace=<name> ---------
  //
  // Fixed-shape adversarial traces (scale is ignored; see generate.h). Each
  // eg-walker row is annotated with the YataStats scan counters, which are
  // deterministic per preset: tools/check_bench.py gates per-insert scan
  // work growing sub-linearly between the two committed storm widths.
  for (const std::string& name : HostileTraceNames()) {
    bool selected = false;
    for (const std::string& t : opts.traces) {
      selected = selected || t == name;
    }
    if (!selected) {
      continue;
    }
    BenchTrace bt = MakeBenchTrace(name, opts.scale);
    const Trace& trace = bt.trace;
    uint64_t insert_events = 0;
    for (Lv v = 0; v < trace.graph.size();) {
      OpSlice slice = trace.ops.SliceAt(v, trace.graph.size());
      if (slice.kind == OpKind::kInsert) {
        insert_events += slice.count;
      }
      v += slice.count;
    }

    // Scan counters from exactly one replay (TimeMs iterates a
    // machine-dependent number of times; the gate needs determinism).
    YataStats stats;
    {
      Walker counted(trace.graph, trace.ops);
      Rope doc;
      counted.ReplayAll(doc);
      stats = counted.yata_stats();
    }
    double eg_ms;
    {
      Walker walker(trace.graph, trace.ops);
      eg_ms = TimeMs(
          [&] {
            Rope doc;
            walker.ReplayAll(doc);
          },
          opts.time_budget_s);
    }
    std::printf("%-12s | %-18s %12s | inserts %llu\n", name.c_str(), "eg-walker (merge)",
                FmtMs(eg_ms).c_str(), static_cast<unsigned long long>(insert_events));
    report.Add(name, "eg-walker (merge)", eg_ms);
    report.Annotate("insert_events", Json(insert_events));
    report.Annotate("scan_steps", Json(stats.scan_steps));
    report.Annotate("or_scan_steps", Json(stats.or_scan_steps));
    report.Annotate("cmp_steps", Json(stats.cmp_steps));
    report.Annotate("fast_inserts", Json(stats.fast_inserts));
    report.Annotate("group_establishes", Json(stats.group_establishes));

    // The naive-complexity witness: the reference CRDT integrates the same
    // stream with the unassisted linear scan.
    std::vector<CrdtOp> crdt_ops;
    {
      Walker walker(trace.graph, trace.ops);
      Rope doc;
      Walker::Options wopts;
      wopts.enable_clearing = false;
      ReplaySinks sinks;
      sinks.crdt_ops = &crdt_ops;
      walker.ReplayAll(doc, wopts, sinks);
    }
    double ref_ms = TimeMs(
        [&] {
          RefCrdt crdt(trace.graph);
          Rope doc;
          for (const CrdtOp& op : crdt_ops) {
            crdt.Apply(op, doc);
          }
        },
        opts.time_budget_s);
    std::printf("%-12s | %-18s %12s |\n", name.c_str(), "ref CRDT (merge=load)",
                FmtMs(ref_ms).c_str());
    report.Add(name, "ref CRDT (merge=load)", ref_ms);
    std::printf("-----+\n");
  }
  return 0;
}

}  // namespace
}  // namespace egwalker::bench

int main(int argc, char** argv) { return egwalker::bench::Run(argc, argv); }
