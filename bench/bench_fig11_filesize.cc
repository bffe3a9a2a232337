// Figure 11: file size storing the full editing history (compression
// disabled, like the paper's like-for-like comparison): our event-graph
// encoding, the same plus a cached copy of the final document, and the
// Automerge-like full-history format. The "lower bound" column is the
// concatenated length of all inserted text, which every full-history format
// must contain. The last column is the at-rest store configuration (what
// DocRegistry checkpoints write): the cached-doc file with per-column
// compression.

#include "bench_common.h"

#include "encoding/columnar.h"
#include "encoding/size_models.h"

namespace egwalker::bench {
namespace {

struct PaperFig11 {
  const char* name;
  double eg_kib, eg_cached_kib, automerge_kib;
};
constexpr PaperFig11 kPaper[] = {
    {"S1", 611, 925, 878},  {"S2", 753, 923, 1228},  {"S3", 1434, 1536, 1945},
    {"C1", 1024, 1638, 1638}, {"C2", 1229, 1843, 1740}, {"A1", 602, 640, 1434},
    {"A2", 561, 789, 1126},
};

int Run(int argc, char** argv) {
  Options opts = ParseArgs(argc, argv);
  PrintHeader("Figure 11: full-history file sizes (uncompressed)", opts);
  JsonReport report("fig11_filesize", opts);
  auto add_row = [&](const char* trace, const char* algorithm, uint64_t bytes) {
    report.Add(trace, algorithm, 0.0);
    report.Annotate("bytes", Json(static_cast<double>(bytes)));
  };
  std::printf("%-4s | %12s %12s %12s %12s %12s | %s\n", "", "lower bound", "event graph",
              "+cached doc", "automerge~", "v2 lzhuf", "paper eg/cached/am (KiB @1.0)");
  for (const PaperFig11& paper : kPaper) {
    bool selected = false;
    for (const std::string& t : opts.traces) {
      selected = selected || t == paper.name;
    }
    if (!selected) {
      continue;
    }
    BenchTrace bt = MakeBenchTrace(paper.name, opts.scale);
    uint64_t lower_bound = bt.trace.ops.total_inserted_chars();  // ASCII traces: bytes==chars.
    uint64_t plain = EncodeTrace(bt.trace, SaveOptions{}).size();
    SaveOptions cached;
    cached.cache_final_doc = true;
    uint64_t with_doc = EncodeTrace(bt.trace, cached, bt.final_text).size();
    uint64_t automerge = AutomergeLikeSize(bt.trace.graph, bt.trace.ops);
    // The size gate holds "+cached doc" to >= 2x its compressed twin.
    SaveOptions packed = cached;
    packed.compress_columns = true;
    uint64_t v2_z = EncodeTrace(bt.trace, packed, bt.final_text).size();
    std::printf("%-4s | %12s %12s %12s %12s %12s | %.0f / %.0f / %.0f\n", paper.name,
                FmtBytes(static_cast<double>(lower_bound)).c_str(),
                FmtBytes(static_cast<double>(plain)).c_str(),
                FmtBytes(static_cast<double>(with_doc)).c_str(),
                FmtBytes(static_cast<double>(automerge)).c_str(),
                FmtBytes(static_cast<double>(v2_z)).c_str(), paper.eg_kib,
                paper.eg_cached_kib, paper.automerge_kib);
    add_row(paper.name, "event graph", plain);
    add_row(paper.name, "event graph + cached doc", with_doc);
    add_row(paper.name, "automerge-like", automerge);
    add_row(paper.name, "v2 compressed", v2_z);
  }
  return 0;
}

}  // namespace
}  // namespace egwalker::bench

int main(int argc, char** argv) { return egwalker::bench::Run(argc, argv); }
