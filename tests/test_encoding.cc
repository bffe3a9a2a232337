// Tests for the columnar storage format and the comparison size models.

#include "encoding/columnar.h"
#include "encoding/size_models.h"

#include <gtest/gtest.h>

#include "core/doc.h"
#include "core/walker.h"
#include "golden/fixtures.h"
#include "testing/random_trace.h"
#include "trace/generate.h"

namespace egwalker {
namespace {

std::string Replay(const Trace& t) {
  Walker w(t.graph, t.ops);
  Rope doc;
  w.ReplayAll(doc);
  return doc.ToString();
}

void ExpectTracesEquivalent(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.graph.size(), b.graph.size());
  ASSERT_EQ(a.graph.entry_count(), b.graph.entry_count());
  ASSERT_EQ(a.graph.agent_count(), b.graph.agent_count());
  ASSERT_EQ(a.ops.runs().run_count(), b.ops.runs().run_count());
  for (Lv v = 0; v < a.graph.size(); ++v) {
    ASSERT_EQ(a.graph.LvToRaw(v), b.graph.LvToRaw(v)) << v;
    ASSERT_EQ(a.graph.ParentsOf(v), b.graph.ParentsOf(v)) << v;
  }
  EXPECT_EQ(Replay(a), Replay(b));
}

TEST(Columnar, RoundTripSimple) {
  Trace t;
  AgentId a = t.graph.GetOrCreateAgent("alice");
  t.AppendInsert(a, {}, 0, "hello world");
  t.AppendDelete(a, t.graph.version(), 0, 6);

  std::string bytes = EncodeTrace(t, SaveOptions{});
  auto decoded = DecodeTrace(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->content_complete);
  EXPECT_FALSE(decoded->cached_doc.has_value());
  ExpectTracesEquivalent(t, decoded->trace);
}

TEST(Columnar, RoundTripConcurrentWithUnicode) {
  Trace t;
  AgentId a = t.graph.GetOrCreateAgent("a");
  AgentId b = t.graph.GetOrCreateAgent("b");
  Lv base = t.AppendInsert(a, {}, 0, "héllo 世界");
  Frontier common{base + 7};
  t.AppendInsert(a, common, 2, "😀");
  t.AppendDelete(b, common, 1, 3, /*fwd=*/true);
  std::string bytes = EncodeTrace(t, SaveOptions{});
  auto decoded = DecodeTrace(bytes);
  ASSERT_TRUE(decoded.has_value());
  ExpectTracesEquivalent(t, decoded->trace);
}

TEST(Columnar, CachedFinalDoc) {
  Trace t = GenerateNamedTrace("C2", 0.002);
  std::string final_doc = Replay(t);
  SaveOptions opts;
  opts.cache_final_doc = true;
  std::string bytes = EncodeTrace(t, opts, final_doc);
  auto decoded = DecodeTrace(bytes);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_TRUE(decoded->cached_doc.has_value());
  EXPECT_EQ(*decoded->cached_doc, final_doc);
  // Caching costs roughly the document size.
  std::string without = EncodeTrace(t, SaveOptions{});
  EXPECT_NEAR(static_cast<double>(bytes.size()),
              static_cast<double>(without.size() + final_doc.size()), 16.0);
}

TEST(Columnar, OmittingDeletedContentShrinksFileButPreservesFinalText) {
  Trace t = GenerateNamedTrace("S3", 0.004);  // Heavy churn: most chars die.
  std::vector<LvSpan> surviving = ComputeSurvivingChars(t.graph, t.ops);
  SaveOptions opts;
  opts.include_deleted_content = false;
  std::string small = EncodeTrace(t, opts, {}, &surviving);
  std::string full = EncodeTrace(t, SaveOptions{});
  EXPECT_LT(small.size(), full.size());

  auto decoded = DecodeTrace(small);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_FALSE(decoded->content_complete);
  // Deleted characters decode as placeholders, so the *final* text — which
  // contains only surviving characters — must be intact.
  EXPECT_EQ(Replay(decoded->trace), Replay(t));
}

TEST(Columnar, RandomTracesRoundTrip) {
  for (uint64_t seed = 71; seed <= 76; ++seed) {
    testing::RandomTraceOptions ropts;
    ropts.seed = seed;
    ropts.actions = 60;
    Trace t = testing::MakeRandomTrace(ropts);
    auto decoded = DecodeTrace(EncodeTrace(t, SaveOptions{}));
    ASSERT_TRUE(decoded.has_value()) << seed;
    ExpectTracesEquivalent(t, decoded->trace);

    // Also with deleted content omitted.
    std::vector<LvSpan> surviving = ComputeSurvivingChars(t.graph, t.ops);
    SaveOptions small_opts;
    small_opts.include_deleted_content = false;
    auto decoded_small = DecodeTrace(EncodeTrace(t, small_opts, {}, &surviving));
    ASSERT_TRUE(decoded_small.has_value()) << seed;
    EXPECT_EQ(Replay(decoded_small->trace), Replay(t)) << seed;
  }
}

TEST(Columnar, RejectsCorruptInput) {
  Trace t;
  AgentId a = t.graph.GetOrCreateAgent("alice");
  t.AppendInsert(a, {}, 0, "content goes here");
  std::string bytes = EncodeTrace(t, SaveOptions{});

  EXPECT_FALSE(DecodeTrace("").has_value());
  EXPECT_FALSE(DecodeTrace("EGWX").has_value());
  std::string wrong_version = bytes;
  wrong_version[4] = 99;
  EXPECT_FALSE(DecodeTrace(wrong_version).has_value());
  for (size_t len = 0; len < bytes.size(); len += 5) {
    std::string error;
    EXPECT_FALSE(DecodeTrace(bytes.substr(0, len), &error).has_value()) << len;
    EXPECT_FALSE(error.empty()) << len;
  }
}

TEST(Columnar, MetadataOverheadIsSmallOnSequentialTraces) {
  Trace t = GenerateNamedTrace("S2", 0.01);
  std::string bytes = EncodeTrace(t, SaveOptions{});
  // Paper Section 4.5: file sizes are dominated by the inserted text; the
  // graph/ops metadata for a sequential trace is a small fraction.
  EXPECT_LT(static_cast<double>(bytes.size()),
            1.25 * static_cast<double>(t.ops.total_inserted_chars()));
}

TEST(Columnar, ReadCachedDocSkipsEverythingElse) {
  Trace t = GenerateNamedTrace("C1", 0.002);
  std::string final_doc = Replay(t);
  SaveOptions opts;
  opts.cache_final_doc = true;
  std::string bytes = EncodeTrace(t, opts, final_doc);
  auto text = ReadCachedDoc(bytes);
  ASSERT_TRUE(text.has_value());
  EXPECT_EQ(*text, final_doc);

  // Also with compressed columns and omitted deleted content in the file.
  std::vector<LvSpan> surviving = ComputeSurvivingChars(t.graph, t.ops);
  opts.compress_columns = true;
  opts.include_deleted_content = false;
  bytes = EncodeTrace(t, opts, final_doc, &surviving);
  text = ReadCachedDoc(bytes);
  ASSERT_TRUE(text.has_value());
  EXPECT_EQ(*text, final_doc);

  // Files without a cached doc yield nothing.
  EXPECT_FALSE(ReadCachedDoc(EncodeTrace(t, SaveOptions{})).has_value());
  // Corrupt/truncated input never crashes.
  for (size_t len = 0; len < bytes.size(); len += 7) {
    ReadCachedDoc(std::string_view(bytes).substr(0, len));
  }
}

// --- Indexed (v2) container ------------------------------------------------

TEST(ColumnarV2, RoundTripsEveryOptionMix) {
  for (uint64_t seed = 81; seed <= 86; ++seed) {
    testing::RandomTraceOptions ropts;
    ropts.seed = seed;
    ropts.actions = 60;
    Trace t = testing::MakeRandomTrace(ropts);
    std::string final_doc = Replay(t);
    for (bool compress : {false, true}) {
      for (bool cache : {false, true}) {
        SaveOptions opts;
        opts.compress_columns = compress;
        opts.cache_final_doc = cache;
        std::string bytes = EncodeTrace(t, opts, cache ? final_doc : std::string_view{});
        auto decoded = DecodeTrace(bytes);
        ASSERT_TRUE(decoded.has_value()) << seed << " compress=" << compress;
        ExpectTracesEquivalent(t, decoded->trace);
        EXPECT_EQ(decoded->cached_doc.has_value(), cache) << seed;
        if (cache) {
          EXPECT_EQ(*decoded->cached_doc, final_doc) << seed;
          auto text = ReadCachedDoc(bytes);
          ASSERT_TRUE(text.has_value()) << seed;
          EXPECT_EQ(*text, final_doc) << seed;
        }
      }
    }
  }
}

TEST(ColumnarV2, CompressedColumnsShrinkFiles) {
  Trace t = GenerateNamedTrace("S2", 0.01);
  SaveOptions packed;
  packed.compress_columns = true;
  std::string raw_bytes = EncodeTrace(t, SaveOptions{});
  std::string packed_bytes = EncodeTrace(t, packed);
  EXPECT_LT(packed_bytes.size(), raw_bytes.size());
  auto decoded = DecodeTrace(packed_bytes);
  ASSERT_TRUE(decoded.has_value());
  ExpectTracesEquivalent(t, decoded->trace);
}

TEST(ColumnarV2, RoundTripEdgeCases) {
  SaveOptions opts;

  // Empty trace: every column is empty.
  {
    Trace t;
    auto decoded = DecodeTrace(EncodeTrace(t, opts));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->trace.graph.size(), 0u);
  }
  // Single-event trace.
  {
    Trace t;
    AgentId a = t.graph.GetOrCreateAgent("solo");
    t.AppendInsert(a, {}, 0, "x");
    auto decoded = DecodeTrace(EncodeTrace(t, opts));
    ASSERT_TRUE(decoded.has_value());
    ExpectTracesEquivalent(t, decoded->trace);
  }
  // Delete-only suffix segment: its content column is empty while ops are
  // not (empty columns must round-trip inside the directory).
  {
    Trace t;
    AgentId a = t.graph.GetOrCreateAgent("d");
    t.AppendInsert(a, {}, 0, "abcdef");
    Lv base = t.graph.size();
    t.AppendDelete(a, t.graph.version(), 1, 3);
    // Re-encode only the delete suffix on top of a decoded prefix.
    Trace prefix;
    std::optional<std::string> cached;
    std::string error;
    {
      Trace full;
      AgentId pa = full.graph.GetOrCreateAgent("d");
      full.AppendInsert(pa, {}, 0, "abcdef");
      std::string head = EncodeSegment(full, 0, opts);
      ASSERT_TRUE(DecodeSegmentInto(prefix, head, &cached, &error)) << error;
    }
    std::string tail = EncodeSegment(t, base, opts);
    ASSERT_TRUE(DecodeSegmentInto(prefix, tail, &cached, &error)) << error;
    ExpectTracesEquivalent(t, prefix);
  }
}

TEST(SegmentV2, PeekReportsDirectoryAndExtents) {
  Trace t;
  AgentId a = t.graph.GetOrCreateAgent("alice");
  AgentId b = t.graph.GetOrCreateAgent("bob");
  t.AppendInsert(a, {}, 0, "hello ");
  t.AppendInsert(b, t.graph.version(), 6, "world");
  SaveOptions opts;
  opts.cache_final_doc = true;
  std::string seg = EncodeSegment(t, 0, opts, "hello world");
  auto info = PeekSegment(seg);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->format_version, 2);
  EXPECT_EQ(info->base_lv, 0u);
  EXPECT_EQ(info->event_count, 11u);
  EXPECT_TRUE(info->has_cached_doc);
  ASSERT_EQ(info->agents.size(), 2u);
  EXPECT_EQ(info->agents[0].agent, "alice");
  EXPECT_EQ(info->agents[0].first_seq, 0u);
  EXPECT_EQ(info->agents[0].count, 6u);
  EXPECT_EQ(info->agents[1].agent, "bob");
  EXPECT_EQ(info->agents[1].count, 5u);
  EXPECT_FALSE(info->columns.empty());
  uint64_t stored = 0;
  for (const SegmentColumn& col : info->columns) {
    EXPECT_EQ(col.codec, 0u);  // compress_columns is off by default.
    stored += col.stored_size;
  }
  EXPECT_LE(stored, seg.size());
}

TEST(SegmentV2, ChecksumCatchesEveryPayloadByteFlip) {
  Trace t = GenerateNamedTrace("S1", 0.004);
  SaveOptions opts;
  opts.cache_final_doc = true;
  std::string final_doc = Replay(t);
  std::string seg = EncodeSegment(t, 0, opts, final_doc);
  auto info = PeekSegment(seg);
  ASSERT_TRUE(info.has_value());
  uint64_t payload = 0;
  for (const SegmentColumn& col : info->columns) {
    payload += col.stored_size;
  }
  ASSERT_GT(payload, 0u);
  ASSERT_LE(payload, seg.size());
  // Payloads sit at the very end of a v2 segment; flipping ANY payload bit
  // must be caught by the column checksums, fail-closed.
  const size_t payload_start = seg.size() - payload;
  const size_t step = payload > 512 ? payload / 256 : 1;
  for (size_t i = payload_start; i < seg.size(); i += step) {
    std::string corrupt = seg;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x40);
    Trace scratch;
    std::optional<std::string> cached;
    std::string error;
    EXPECT_FALSE(DecodeSegmentInto(scratch, corrupt, &cached, &error)) << i;
    EXPECT_FALSE(error.empty()) << i;
  }
}

TEST(SegmentV2, RejectsTruncationAndBitFlipsWithoutCrashing) {
  Trace t = GenerateNamedTrace("S1", 0.003);
  SaveOptions opts;
  opts.cache_final_doc = true;
  std::string seg = EncodeSegment(t, 0, opts, Replay(t));

  // Truncations never crash and always fail (v2 validates directory offsets
  // and exact payload extents).
  for (size_t len = 0; len < seg.size(); len += 3) {
    std::string_view cut(seg.data(), len);
    EXPECT_FALSE(PeekSegment(cut).has_value()) << len;
    Trace scratch;
    std::optional<std::string> cached;
    EXPECT_FALSE(DecodeSegmentInto(scratch, cut, &cached)) << len;
  }
  // Bit flips anywhere must never crash or misdecode into a different
  // document: either the decode fails, or (flips in redundant varint
  // padding etc.) it yields the identical trace.
  std::string expected = Replay(t);
  for (size_t i = 0; i < seg.size(); i += 2) {
    std::string corrupt = seg;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x10);
    (void)PeekSegment(corrupt);
    Trace scratch;
    std::optional<std::string> cached;
    if (DecodeSegmentInto(scratch, corrupt, &cached)) {
      EXPECT_EQ(Replay(scratch), expected) << i;
    }
  }
}

TEST(SegmentV2, RejectsIncompleteContentFlag) {
  // Segments always carry deleted content; a cleared flag bit 0 is corrupt.
  Trace t;
  AgentId a = t.graph.GetOrCreateAgent("alice");
  t.AppendInsert(a, {}, 0, "payload");
  std::string seg = EncodeSegment(t, 0, SaveOptions{});
  seg[5] = static_cast<char>(seg[5] & ~1);
  Trace scratch;
  std::optional<std::string> cached;
  std::string error;
  EXPECT_FALSE(DecodeSegmentInto(scratch, seg, &cached, &error));
  EXPECT_EQ(error, "segment content incomplete");
}

TEST(SegmentV2, TrailingGarbageIsRejected) {
  Trace t;
  AgentId a = t.graph.GetOrCreateAgent("alice");
  t.AppendInsert(a, {}, 0, "payload");
  std::string seg = EncodeSegment(t, 0, SaveOptions{});
  seg.push_back('\0');
  EXPECT_FALSE(PeekSegment(seg).has_value());
  Trace scratch;
  std::optional<std::string> cached;
  std::string error;
  EXPECT_FALSE(DecodeSegmentInto(scratch, seg, &cached, &error));
  EXPECT_FALSE(error.empty());
}

// --- Legacy formats: committed fixtures (tests/golden/README.md) ----------
//
// Nothing writes v1 containers, the v1 LZ4 content flag or codec-1 columns
// any more; these fixtures, cut from golden::RunLegacyScript by an older
// encoder, hold the decoders to accepting them.

const Doc& LegacyDoc() {
  static const Doc doc = golden::RunLegacyScript();
  return doc;
}

constexpr uint8_t kV1CompressedFlag = 1 << 1;

TEST(LegacyFormat, V1FilesDecodeToTheRegeneratedTrace) {
  const Doc& doc = LegacyDoc();
  for (const char* name : {"v1_plain.egwk", "v1_lz4.egwk", "v1_cached.egwk"}) {
    SCOPED_TRACE(name);
    std::string bytes = golden::ReadFixture(name);
    ASSERT_EQ(bytes[4], 1);  // Version byte.
    EXPECT_EQ((bytes[5] & kV1CompressedFlag) != 0, name == std::string("v1_lz4.egwk"));
    auto decoded = DecodeTrace(bytes);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_TRUE(decoded->content_complete);
    ExpectTracesEquivalent(doc.trace(), decoded->trace);
    EXPECT_EQ(Replay(decoded->trace), doc.Text());
    auto loaded = Doc::Load(bytes, "reader");
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->Text(), doc.Text());
  }
  auto cached = DecodeTrace(golden::ReadFixture("v1_cached.egwk"));
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(cached->cached_doc, doc.Text());
  EXPECT_EQ(ReadCachedDoc(golden::ReadFixture("v1_cached.egwk")), doc.Text());
  EXPECT_FALSE(ReadCachedDoc(golden::ReadFixture("v1_plain.egwk")).has_value());
}

TEST(LegacyFormat, V1FileWithDeletedContentOmitted) {
  // Survival column + LZ4 content + cached doc, all in one v1 file.
  const Doc& doc = LegacyDoc();
  std::string bytes = golden::ReadFixture("v1_omitted.egwk");
  ASSERT_EQ(bytes[4], 1);
  ASSERT_NE(bytes[5] & kV1CompressedFlag, 0);
  auto decoded = DecodeTrace(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_FALSE(decoded->content_complete);
  EXPECT_EQ(decoded->trace.graph.size(), doc.end_lv());
  for (Lv v = 0; v < doc.end_lv(); ++v) {
    ASSERT_EQ(decoded->trace.graph.LvToRaw(v), doc.graph().LvToRaw(v)) << v;
    ASSERT_EQ(decoded->trace.graph.ParentsOf(v), doc.graph().ParentsOf(v)) << v;
  }
  EXPECT_EQ(Replay(decoded->trace), doc.Text());
  EXPECT_EQ(decoded->cached_doc, doc.Text());
  EXPECT_EQ(ReadCachedDoc(bytes), doc.Text());
}

TEST(LegacyFormat, V1ChainDecodesLoadsAndResumes) {
  const Doc& doc = LegacyDoc();
  std::vector<std::string> chain = golden::LegacyChain();
  ASSERT_EQ(chain.size(), 3u);
  for (const std::string& seg : chain) {
    auto info = PeekSegment(seg);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->format_version, 1);
    EXPECT_TRUE(info->columns.empty());  // No directory in v1.
    EXPECT_TRUE(info->agents.empty());
  }
  EXPECT_NE(chain[1][5] & kV1CompressedFlag, 0);
  auto tail = PeekSegment(chain[2]);
  EXPECT_TRUE(tail->has_cached_doc);
  EXPECT_TRUE(tail->has_session_state);
  EXPECT_NE(tail->anchor.lv, kInvalidLv);

  Trace t;
  std::optional<std::string> cached;
  SegmentAnchor anchor;
  std::string error;
  for (const std::string& seg : chain) {
    ASSERT_TRUE(DecodeSegmentInto(t, seg, &cached, &error, &anchor)) << error;
  }
  ExpectTracesEquivalent(doc.trace(), t);
  EXPECT_EQ(cached, doc.Text());
  EXPECT_EQ(anchor.lv, tail->anchor.lv);
  EXPECT_FALSE(anchor.session_state.empty());

  auto loaded = Doc::LoadChain(chain, "reader", &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->Text(), doc.Text());
  EXPECT_EQ(loaded->replayed_events(), 0u);
  EXPECT_TRUE(loaded->TryResumeSession());
  // The resumed document keeps merging correctly.
  Doc other("carol");
  other.MergeFrom(*loaded);
  other.Insert(other.size() / 2, "carol was here");
  loaded->Insert(0, "reader: ");
  loaded->MergeFrom(other);
  other.MergeFrom(*loaded);
  EXPECT_EQ(loaded->Text(), other.Text());
}

TEST(LegacyFormat, V2SegmentWithLz4Columns) {
  const Doc& doc = LegacyDoc();
  std::string seg = golden::ReadFixture("v2_codec1.egws");
  auto info = PeekSegment(seg);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->format_version, 2);
  int lz4_columns = 0;
  for (const SegmentColumn& col : info->columns) {
    lz4_columns += col.codec == 1;
  }
  EXPECT_EQ(lz4_columns, 2);  // Ops and content.

  Trace t;
  std::optional<std::string> cached;
  std::string error;
  ASSERT_TRUE(DecodeSegmentInto(t, seg, &cached, &error)) << error;
  ExpectTracesEquivalent(doc.trace(), t);
  EXPECT_EQ(cached, doc.Text());

  // Lazy load skips both LZ4 columns, then hydrates them on demand.
  auto loaded = Doc::LoadChain({seg}, "reader", &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->lazy_segments_skipped(), 1u);
  loaded->EnsureOpsFor(0);
  EXPECT_EQ(loaded->ops_hydrations(), 1u);
  EXPECT_EQ(loaded->ops().runs().run_count(), doc.ops().runs().run_count());
  EXPECT_EQ(Replay(loaded->trace()), doc.Text());
}

TEST(SizeModels, OrderingMatchesPaperFigures) {
  // Figure 11: the Automerge-like full-history file is larger than our
  // event-graph encoding. Figure 12: the Yjs-like final-state file is
  // smaller than the full encoding.
  for (const char* name : {"S2", "C2", "A1"}) {
    Trace t = GenerateNamedTrace(name, 0.004);
    uint64_t ours = EncodeTrace(t, SaveOptions{}).size();
    uint64_t automerge = AutomergeLikeSize(t.graph, t.ops);
    uint64_t yjs = YjsLikeSize(t.graph, t.ops);
    EXPECT_GT(automerge, ours) << name;
    EXPECT_LT(yjs, automerge) << name;
    EXPECT_GT(yjs, 0u) << name;
  }
}

}  // namespace
}  // namespace egwalker
