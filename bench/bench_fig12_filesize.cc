// Figure 12: file size when deleted text is omitted (Yjs's storage model):
// our event-graph encoding without deleted content vs the Yjs-like
// final-state format. The lower bound is the final document text.
//
// The paper's observation to reproduce: our encoding is smaller than Yjs on
// the sequential and asynchronous traces, but larger on the concurrent
// traces, where the event graph's edges take more space.

#include "bench_common.h"

#include "encoding/columnar.h"
#include "encoding/size_models.h"

namespace egwalker::bench {
namespace {

struct PaperFig12 {
  const char* name;
  double eg_kib, yjs_kib;
};
constexpr PaperFig12 kPaper[] = {
    {"S1", 378, 480}, {"S2", 285, 406}, {"S3", 268, 318},  {"C1", 981, 845},
    {"C2", 1229, 726}, {"A1", 151, 308}, {"A2", 330, 506},
};

int Run(int argc, char** argv) {
  Options opts = ParseArgs(argc, argv);
  PrintHeader("Figure 12: final-state file sizes (deleted text omitted)", opts);
  JsonReport report("fig12_filesize", opts);
  auto add_row = [&](const char* trace, const char* algorithm, uint64_t bytes) {
    report.Add(trace, algorithm, 0.0);
    report.Annotate("bytes", Json(static_cast<double>(bytes)));
  };
  std::printf("%-4s | %12s %12s %12s %12s %12s | %s\n", "", "final text", "event graph", "yjs~",
              "v2 raw", "v2 lzhuf", "paper eg/yjs (KiB @1.0)");
  for (const PaperFig12& paper : kPaper) {
    bool selected = false;
    for (const std::string& t : opts.traces) {
      selected = selected || t == paper.name;
    }
    if (!selected) {
      continue;
    }
    BenchTrace bt = MakeBenchTrace(paper.name, opts.scale);
    std::vector<LvSpan> surviving = ComputeSurvivingChars(bt.trace.graph, bt.trace.ops);
    SaveOptions smol;
    smol.include_deleted_content = false;
    uint64_t ours = EncodeTrace(bt.trace, smol, {}, &surviving).size();
    uint64_t yjs = YjsLikeSize(bt.trace.graph, bt.trace.ops);
    // At-rest pair for the size gate: v2 + cached final doc (mirroring
    // Yjs-style stores, which keep the current text hot), raw vs
    // per-column compression.
    SaveOptions v2_raw_opts = smol;
    v2_raw_opts.cache_final_doc = true;
    uint64_t v2_raw = EncodeTrace(bt.trace, v2_raw_opts, bt.final_text, &surviving).size();
    SaveOptions v2_z_opts = v2_raw_opts;
    v2_z_opts.compress_columns = true;
    uint64_t v2_z = EncodeTrace(bt.trace, v2_z_opts, bt.final_text, &surviving).size();
    std::printf("%-4s | %12s %12s %12s %12s %12s | %.0f / %.0f\n", paper.name,
                FmtBytes(static_cast<double>(bt.final_text.size())).c_str(),
                FmtBytes(static_cast<double>(ours)).c_str(),
                FmtBytes(static_cast<double>(yjs)).c_str(),
                FmtBytes(static_cast<double>(v2_raw)).c_str(),
                FmtBytes(static_cast<double>(v2_z)).c_str(), paper.eg_kib, paper.yjs_kib);
    add_row(paper.name, "event graph", ours);
    add_row(paper.name, "yjs-like", yjs);
    add_row(paper.name, "v2 raw", v2_raw);
    add_row(paper.name, "v2 compressed", v2_z);
  }
  return 0;
}

}  // namespace
}  // namespace egwalker::bench

int main(int argc, char** argv) { return egwalker::bench::Run(argc, argv); }
