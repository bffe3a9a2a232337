// Tests for the collaboration server subsystem: incremental checkpoint
// segments, the DocRegistry LRU + flush/evict/reload lifecycle, the
// NetSim's determinism, broker/client convergence scenarios, the broker's
// recorded wire stream (tests/golden/broker_stream.fnv64), and the
// randomized soak test of the acceptance criteria (many documents × many
// clients under seeded drop/duplication/reordering, plus replay-free
// reload equality for evicted documents).

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "encoding/columnar.h"
#include "golden/broker_script.h"
#include "golden/fixtures.h"
#include "server/broker.h"
#include "server/client.h"
#include "server/netsim.h"
#include "server/registry.h"
#include "util/prng.h"

namespace egwalker {
namespace {

// --- Incremental checkpoint segments ----------------------------------------

SaveOptions CachedSegmentOptions() {
  SaveOptions opts;
  opts.cache_final_doc = true;
  return opts;
}

TEST(Segment, SingleSegmentRoundTripIsReplayFree) {
  Doc doc("alice");
  EXPECT_EQ(doc.latest_critical(), kInvalidLv);
  doc.Insert(0, "hello world");
  doc.Delete(0, 6);
  doc.Insert(5, "!");
  // Local edits keep the tip critical: the natural checkpoint boundary for
  // policies that flush at critical versions (see registry.h).
  EXPECT_EQ(doc.latest_critical(), doc.end_lv() - 1);

  std::vector<std::string> chain;
  chain.push_back(doc.SaveSegment(0, CachedSegmentOptions()));
  auto back = Doc::LoadChain(chain, "alice");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->Text(), doc.Text());
  EXPECT_EQ(back->end_lv(), doc.end_lv());
  EXPECT_EQ(back->replayed_events(), 0u);  // Cached doc: no replay at all.
}

TEST(Segment, ChainSplitsMidTypingRun) {
  // A checkpoint lands in the middle of one RLE typing run: the second
  // segment's first events must chain onto the run prefix.
  Doc doc("alice");
  doc.Insert(0, "abcdef");
  std::vector<std::string> chain;
  chain.push_back(doc.SaveSegment(0, CachedSegmentOptions()));
  Lv checkpoint = doc.end_lv();
  doc.Insert(6, "ghijkl");  // Extends the same typing run.
  doc.Delete(2, 3);
  chain.push_back(doc.SaveSegment(checkpoint, CachedSegmentOptions()));

  auto back = Doc::LoadChain(chain, "alice");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->Text(), doc.Text());
  EXPECT_EQ(back->replayed_events(), 0u);
  // The reloaded replica keeps collaborating: a fresh peer can pull it.
  Doc bob("bob");
  EXPECT_EQ(bob.MergeFrom(*back), back->end_lv());
  EXPECT_EQ(bob.Text(), doc.Text());
}

TEST(Segment, ChainCoversMergesAcrossSegments) {
  // Concurrent branches merged between checkpoints: segment 2 contains
  // events whose parents live in segment 1.
  Doc alice("alice");
  alice.Insert(0, "base text here");
  Doc bob("bob");
  bob.MergeFrom(alice);

  std::vector<std::string> chain;
  chain.push_back(alice.SaveSegment(0, CachedSegmentOptions()));
  Lv checkpoint = alice.end_lv();

  alice.Insert(4, " alice");
  bob.Insert(9, " bob");
  bob.Delete(0, 2);
  alice.MergeFrom(bob);
  chain.push_back(alice.SaveSegment(checkpoint, CachedSegmentOptions()));

  auto back = Doc::LoadChain(chain, "alice");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->Text(), alice.Text());
  EXPECT_EQ(back->end_lv(), alice.end_lv());
  EXPECT_EQ(back->replayed_events(), 0u);
  // Full-file load agrees with the chain load.
  SaveOptions full;
  full.cache_final_doc = true;
  auto whole = Doc::Load(alice.Save(full), "alice");
  ASSERT_TRUE(whole.has_value());
  EXPECT_EQ(whole->Text(), back->Text());
}

TEST(Segment, MultiByteContentSurvivesCachedReload) {
  // Non-ASCII documents exercise the rope bulk-load path on the replay-free
  // reload (regression: leaf splits around multi-byte scalars used to
  // overflow) and UTF-8 clipping at checkpoint boundaries.
  Doc doc("alice");
  std::string text;
  for (int i = 0; i < 60; ++i) {
    text += "mixé世界😀𝄞-";
  }
  doc.Insert(0, text);
  std::vector<std::string> chain;
  chain.push_back(doc.SaveSegment(0, CachedSegmentOptions()));
  Lv checkpoint = doc.end_lv();
  doc.Insert(3, "😀中φ");  // The next segment clips inside multi-byte text.
  doc.Delete(10, 5);
  chain.push_back(doc.SaveSegment(checkpoint, CachedSegmentOptions()));
  auto back = Doc::LoadChain(chain, "alice");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->Text(), doc.Text());
  EXPECT_EQ(back->replayed_events(), 0u);
}

TEST(Segment, UncachedChainReplaysEverything) {
  Doc doc("alice");
  doc.Insert(0, "0123456789");
  doc.Delete(3, 4);
  std::vector<std::string> chain;
  chain.push_back(doc.SaveSegment(0, SaveOptions{}));  // No cached doc.
  auto back = Doc::LoadChain(chain, "alice");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->Text(), doc.Text());
  EXPECT_EQ(back->replayed_events(), doc.end_lv());  // Full replay counted.
}

TEST(Segment, OnlyFinalSegmentCachedDocCounts) {
  // Cached doc in segment 1 but not segment 2: the stale cache must not be
  // used; the loader replays instead.
  Doc doc("alice");
  doc.Insert(0, "first");
  std::vector<std::string> chain;
  chain.push_back(doc.SaveSegment(0, CachedSegmentOptions()));
  Lv checkpoint = doc.end_lv();
  doc.Insert(5, " second");
  chain.push_back(doc.SaveSegment(checkpoint, SaveOptions{}));
  auto back = Doc::LoadChain(chain, "alice");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->Text(), "first second");
  EXPECT_GT(back->replayed_events(), 0u);
}

TEST(Segment, EmptyRefreshSegmentIsAllowed) {
  Doc doc("alice");
  doc.Insert(0, "steady");
  std::vector<std::string> chain;
  chain.push_back(doc.SaveSegment(0, CachedSegmentOptions()));
  chain.push_back(doc.SaveSegment(doc.end_lv(), CachedSegmentOptions()));
  auto info = PeekSegment(chain[1]);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->event_count, 0u);
  EXPECT_EQ(info->base_lv, doc.end_lv());
  auto back = Doc::LoadChain(chain, "alice");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->Text(), "steady");
}

TEST(Segment, PeekReportsChainPosition) {
  Doc doc("alice");
  doc.Insert(0, "xy");
  std::string seg = doc.SaveSegment(0, CachedSegmentOptions());
  auto info = PeekSegment(seg);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->base_lv, 0u);
  EXPECT_EQ(info->event_count, 2u);
  EXPECT_TRUE(info->has_cached_doc);
  EXPECT_FALSE(PeekSegment("EGWK junk").has_value());
}

TEST(Segment, RejectsChainGapsAndCorruption) {
  Doc doc("alice");
  doc.Insert(0, "abcdef");
  std::string seg1 = doc.SaveSegment(0, CachedSegmentOptions());
  Lv checkpoint = doc.end_lv();
  doc.Insert(6, "ghi");
  std::string seg2 = doc.SaveSegment(checkpoint, CachedSegmentOptions());

  std::string error;
  // Out of order: segment 2 cannot start a chain.
  EXPECT_FALSE(Doc::LoadChain({seg2, seg1}, "alice", &error).has_value());
  EXPECT_FALSE(error.empty());
  // Missing link: the same segment twice is a gap (base_lv mismatch).
  EXPECT_FALSE(Doc::LoadChain({seg1, seg1}, "alice").has_value());
  // Truncations never crash and never succeed.
  for (size_t len = 1; len < seg1.size(); len += 5) {
    Trace scratch;
    std::optional<std::string> cached;
    EXPECT_FALSE(DecodeSegmentInto(scratch, seg1.substr(0, len), &cached)) << len;
  }
  EXPECT_FALSE(Doc::LoadChain({}, "alice").has_value());
}

TEST(Segment, AnchorSurvivesReloadAndBoundsReplay) {
  // A server doc whose frontier has two tips at flush time: without the
  // checkpointed session anchor a reload loses every replay-base candidate
  // (no singleton frontier to seed from) and the next merge rebuilds the
  // whole history; with it, the merge replays only the post-anchor window.
  Doc server("!server");
  server.Insert(0, std::string(50, 'x'));  // Critical tip at LV 49.
  Doc c1("c1"), c2("c2");
  c1.MergeFrom(server);
  c2.MergeFrom(server);
  c1.Insert(10, "one");
  c2.Insert(20, "two");
  server.MergeFrom(c1);
  server.MergeFrom(c2);  // Two concurrent tips: no critical frontier.
  ASSERT_GT(server.version().size(), 1u);
  Lv anchor = server.latest_critical();
  ASSERT_NE(anchor, kInvalidLv);

  SaveOptions cached = CachedSegmentOptions();
  std::string with_anchor = server.SaveSegment(0, cached);
  SaveOptions no_anchor = cached;
  no_anchor.checkpoint_session_anchor = false;
  std::string without_anchor = server.SaveSegment(0, no_anchor);

  auto info = PeekSegment(with_anchor);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->anchor.lv, anchor);
  EXPECT_EQ(info->anchor.doc_len, server.latest_critical_len());
  EXPECT_EQ(PeekSegment(without_anchor)->anchor.lv, kInvalidLv);

  auto anchored = Doc::LoadChain({with_anchor}, "!server");
  auto plain = Doc::LoadChain({without_anchor}, "!server");
  ASSERT_TRUE(anchored.has_value() && plain.has_value());
  EXPECT_EQ(anchored->latest_critical(), anchor);
  EXPECT_EQ(plain->latest_critical(), kInvalidLv);
  EXPECT_EQ(anchored->Text(), plain->Text());

  // The next merge: anchored replays the post-anchor window, the plain
  // reload has to rebuild from scratch — byte-identical results.
  c1.Insert(0, "zz");
  anchored->MergeFrom(c1);
  plain->MergeFrom(c1);
  EXPECT_EQ(anchored->Text(), plain->Text());
  EXPECT_GT(plain->replayed_events(), 0u);
  EXPECT_LT(anchored->replayed_events(), plain->replayed_events());
}

TEST(Segment, AnchorRejectsCorruptValues) {
  Doc doc("alice");
  doc.Insert(0, "abc");
  std::string seg = doc.SaveSegment(0, CachedSegmentOptions());
  auto info = PeekSegment(seg);
  ASSERT_TRUE(info.has_value());
  ASSERT_NE(info->anchor.lv, kInvalidLv);  // Local edits keep a critical tip.
  {
    Trace scratch;
    std::optional<std::string> cached;
    SegmentAnchor anchor;
    ASSERT_TRUE(DecodeSegmentInto(scratch, seg, &cached, nullptr, &anchor));
    EXPECT_EQ(anchor.lv, info->anchor.lv);
    EXPECT_EQ(anchor.doc_len, 3u);
  }
  // The anchor-specific validation: anchor at/past the segment end must be
  // rejected by decode AND peek. With 3 single-digit header values the
  // anchor LV varint sits at a fixed offset: magic(4) + version(1) +
  // flags(1) + base_lv(1, =0) + count(1, =3) -> offset 8 holds anchor.lv
  // (=2). Guard the layout assumption, then corrupt it in place.
  ASSERT_EQ(static_cast<uint8_t>(seg[7]), 3u);  // event count
  ASSERT_EQ(static_cast<uint8_t>(seg[8]), 2u);  // anchor.lv == end - 1
  std::string corrupt = seg;
  corrupt[8] = 3;  // anchor.lv == base + count: past the segment end.
  EXPECT_FALSE(PeekSegment(corrupt).has_value());
  Trace scratch;
  std::optional<std::string> cached;
  SegmentAnchor anchor;
  std::string error;
  EXPECT_FALSE(DecodeSegmentInto(scratch, corrupt, &cached, &error, &anchor));
  EXPECT_EQ(error, "segment anchor past the segment end");
  EXPECT_EQ(anchor.lv, kInvalidLv);  // Nothing restored from a bad segment.
}

TEST(Registry, EvictionChurnWithSessionsIsByteIdenticalToResident) {
  // Randomized differential for the serialized-session restore path: one
  // registry evicts its document after every round (forcing a session
  // save/restore cycle each time, at whatever frontier the round left —
  // including multi-tip ones with no critical version), the other keeps it
  // resident with an uninterrupted session. Both merge the same client
  // patches; the documents must stay byte-identical, and the churned
  // registry must replay only O(appended) events despite the churn.
  Prng rng(4242);
  MemStorage churn_storage, calm_storage;
  DocRegistry churned(churn_storage, DocRegistry::Config{});
  DocRegistry calm(calm_storage, DocRegistry::Config{});
  std::vector<Doc> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back("client-" + std::to_string(c));
  }
  for (int round = 0; round < 40; ++round) {
    // Each client edits its own replica (divergent, concurrent).
    for (Doc& client : clients) {
      uint64_t len = client.size();
      if (len > 6 && rng.Chance(0.3)) {
        client.Delete(rng.Below(len - 2), 1 + rng.Below(2));
      } else {
        std::string burst(1 + rng.Below(3), static_cast<char>('a' + rng.Below(26)));
        client.Insert(rng.Below(len + 1), burst);
      }
    }
    // A random client syncs with both servers (patch-level, like the
    // broker), then pulls the servers' state back.
    size_t who = rng.Below(clients.size());
    for (DocRegistry* registry : {&churned, &calm}) {
      Doc& server = registry->Open("doc");
      std::string patch = MakePatch(clients[who], SummarizeDoc(server));
      ASSERT_TRUE(ApplyPatch(server, patch).has_value()) << round;
    }
    ASSERT_TRUE(
        ApplyPatch(clients[who], MakePatch(churned.Open("doc"), SummarizeDoc(clients[who])))
            .has_value());
    ASSERT_EQ(churned.Open("doc").Text(), calm.Open("doc").Text()) << round;
    churned.Evict("doc");  // Session checkpoint + reload next round.
  }
  EXPECT_GE(churned.stats().session_resumes, 30u);  // Restores actually ran.
  // The churned universe did no extra walker work: sessions survived, so
  // replay stayed O(appended) — identical to the resident universe.
  EXPECT_EQ(churned.TotalReplayedEvents(), calm.TotalReplayedEvents());
  // Lazy chain loads actually skipped cold columns, and the merges after
  // each reload hydrated strictly less than was skipped: a reload decodes
  // only the touched suffix, never the whole persisted history.
  EXPECT_GT(churned.stats().lazy_segments_skipped, 0u);
  EXPECT_LT(churned.TotalHydratedBytes(), churned.stats().lazy_bytes_skipped);
}

TEST(Registry, EvictedDocResumesSessionOnReload) {
  MemStorage storage;
  DocRegistry::Config config;
  config.max_resident = 1;
  DocRegistry registry(storage, config);
  Doc& doc = registry.Open("doc");
  doc.Insert(0, "hello session");  // Singleton critical tip.
  registry.Open("other");          // Evicts "doc", flushing tip + anchor.
  EXPECT_FALSE(registry.resident("doc"));

  Doc& back = registry.Open("doc");  // Evicts "other".
  EXPECT_EQ(back.replayed_events(), 0u);   // Cached-doc reload: no replay...
  EXPECT_TRUE(back.merge_session_active());  // ...and the session is back.
  EXPECT_EQ(registry.stats().session_resumes, 1u);

  // The resumed session continues exactly like an uninterrupted one: a
  // remote merge walks only the appended events.
  Doc peer("peer");
  peer.MergeFrom(back);
  peer.Insert(0, "x");
  back.MergeFrom(peer);
  EXPECT_EQ(back.replayed_events(), 1u);
  EXPECT_EQ(back.Text(), peer.Text());
}

TEST(Registry, TryOpenSurvivesCorruptChainAndRecoversAfterRepair) {
  // A corrupt middle segment must fail the whole open — fail-closed, with a
  // diagnostic naming the segment — while leaving the stored chain in place
  // for offline repair. TryOpen is the non-aborting variant brokers use.
  MemStorage storage;
  DocRegistry registry(storage, DocRegistry::Config{});
  {
    Doc& doc = registry.Open("doc");
    doc.Insert(0, "first segment text. ");
    registry.Flush("doc");
    doc.Insert(doc.size(), "second segment text. ");
    registry.Flush("doc");
    doc.Insert(doc.size(), "third segment text.");
    registry.Evict("doc");
  }
  ASSERT_NE(storage.Chain("doc"), nullptr);
  std::vector<std::string> pristine = *storage.Chain("doc");
  ASSERT_GE(pristine.size(), 3u);
  std::string expected = registry.Open("doc").Text();
  registry.Evict("doc");

  // Flip a byte in the middle segment's column payloads (a v2 segment ends
  // with the checksummed payload block, so the flip cannot go unnoticed —
  // not even in a lazily skipped column).
  std::vector<std::string> corrupt = pristine;
  corrupt[1][corrupt[1].size() - 3] ^= 0x20;
  storage.Replace("doc", corrupt);

  std::string error;
  EXPECT_EQ(registry.TryOpen("doc", &error), nullptr);
  EXPECT_EQ(registry.stats().chain_load_failures, 1u);
  EXPECT_NE(error.find("segment 1/" + std::to_string(pristine.size())),
            std::string::npos)
      << error;
  EXPECT_FALSE(registry.resident("doc"));
  // The chain was not clobbered or partially rewritten.
  ASSERT_NE(storage.Chain("doc"), nullptr);
  EXPECT_EQ(storage.Chain("doc")->size(), pristine.size());

  // After repair the same registry opens the document normally.
  storage.Replace("doc", pristine);
  Doc* repaired = registry.TryOpen("doc", &error);
  ASSERT_NE(repaired, nullptr);
  EXPECT_EQ(repaired->Text(), expected);
  EXPECT_EQ(registry.stats().chain_load_failures, 1u);
}

TEST(Registry, MixedV1V2ChainLoadsAndCompactsToV2) {
  // A chain whose prefix was written by an old server in the v1 layout
  // (the committed golden chain, LZ4 content and session state included)
  // must load seamlessly under the current registry, take v2 segments on
  // new flushes, and compact down to a single v2 segment.
  MemStorage storage;
  for (const std::string& seg : golden::LegacyChain()) {
    storage.Append("doc", seg);
  }
  const Doc writer = golden::RunLegacyScript();

  DocRegistry::Config config;
  config.compact_above_segments = 6;
  DocRegistry registry(storage, config);
  Doc& doc = registry.Open("doc");
  EXPECT_EQ(doc.Text(), writer.Text());
  // v1 segments carry no column directory: nothing can be lazily skipped.
  EXPECT_EQ(registry.stats().lazy_segments_skipped, 0u);
  // The legacy tail's serialized walker session resumes.
  EXPECT_EQ(registry.stats().session_resumes, 1u);

  for (const char* suffix : {"modern suffix. ", "and another. "}) {
    doc.Insert(doc.size(), suffix);
    registry.Flush("doc");
  }
  {
    const std::vector<std::string>* chain = storage.Chain("doc");
    ASSERT_NE(chain, nullptr);
    ASSERT_EQ(chain->size(), 5u);
    auto head = PeekSegment((*chain)[0]);
    auto tail = PeekSegment((*chain)[4]);
    ASSERT_TRUE(head.has_value() && tail.has_value());
    EXPECT_EQ(head->format_version, 1u);
    EXPECT_EQ(tail->format_version, 2u);
  }
  std::string expected = doc.Text();

  // Reload across the raw mixed chain (no registry, no compaction) is
  // byte-identical.
  {
    auto reloaded = Doc::LoadChain(*storage.Chain("doc"), "!server");
    ASSERT_TRUE(reloaded.has_value());
    EXPECT_EQ(reloaded->Text(), expected);
  }

  // The eviction flush crosses the compaction threshold: the mixed chain is
  // rewritten as one consolidated v2 segment, which still loads clean.
  registry.Evict("doc");
  {
    const std::vector<std::string>* chain = storage.Chain("doc");
    ASSERT_NE(chain, nullptr);
    ASSERT_EQ(chain->size(), 1u);
    auto only = PeekSegment((*chain)[0]);
    ASSERT_TRUE(only.has_value());
    EXPECT_EQ(only->format_version, 2u);
    EXPECT_EQ(registry.stats().compactions, 1u);
  }
  EXPECT_EQ(registry.Open("doc").Text(), expected);
}

TEST(Segment, IncrementalSegmentsAreSmallerThanFullSaves) {
  Doc doc("alice");
  std::string paragraph(400, 'p');
  for (int i = 0; i < 50; ++i) {
    doc.Insert(doc.size(), paragraph);
  }
  std::string seg1 = doc.SaveSegment(0, SaveOptions{});
  Lv checkpoint = doc.end_lv();
  doc.Insert(doc.size(), "one more line");
  std::string seg2 = doc.SaveSegment(checkpoint, SaveOptions{});
  EXPECT_LT(seg2.size() * 100, seg1.size());  // Only the suffix travels.
}

// --- DocRegistry -------------------------------------------------------------

TEST(Registry, OpensCreateThenHit) {
  MemStorage storage;
  DocRegistry registry(storage);
  Doc& a = registry.Open("doc-a");
  a.Insert(0, "hello");
  Doc& again = registry.Open("doc-a");
  EXPECT_EQ(&a, &again);
  EXPECT_EQ(registry.stats().creates, 1u);
  EXPECT_EQ(registry.stats().hits, 1u);
  EXPECT_EQ(registry.resident_count(), 1u);
}

TEST(Registry, FlushWritesOnlyDirtySuffix) {
  MemStorage storage;
  DocRegistry registry(storage);
  Doc& doc = registry.Open("doc");
  doc.Insert(0, "0123456789");
  EXPECT_EQ(registry.DirtyEvents("doc"), 10u);
  EXPECT_TRUE(registry.Flush("doc"));
  EXPECT_EQ(registry.DirtyEvents("doc"), 0u);
  EXPECT_FALSE(registry.Flush("doc"));  // Clean: nothing written.
  ASSERT_NE(storage.Chain("doc"), nullptr);
  EXPECT_EQ(storage.Chain("doc")->size(), 1u);
  doc.Insert(10, "ab");
  EXPECT_FALSE(registry.FlushIfDirty("doc", 10));  // Below cadence.
  EXPECT_TRUE(registry.FlushIfDirty("doc", 2));
  EXPECT_EQ(storage.Chain("doc")->size(), 2u);
  auto info = PeekSegment(storage.Chain("doc")->back());
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->base_lv, 10u);
  EXPECT_EQ(info->event_count, 2u);
}

TEST(Registry, LruEvictionFlushesAndReloadsWithoutReplay) {
  MemStorage storage;
  DocRegistry::Config config;
  config.max_resident = 2;
  DocRegistry registry(storage, config);

  registry.Open("a").Insert(0, "text of a");
  registry.Open("b").Insert(0, "text of b");
  registry.Open("c").Insert(0, "text of c");  // Evicts "a" (LRU), flushing it.
  EXPECT_EQ(registry.resident_count(), 2u);
  EXPECT_FALSE(registry.resident("a"));
  EXPECT_EQ(registry.stats().evictions, 1u);
  ASSERT_NE(storage.Chain("a"), nullptr);  // Eviction persisted the dirty doc.

  Doc& a = registry.Open("a");  // Evicts "b".
  EXPECT_EQ(a.Text(), "text of a");
  EXPECT_EQ(registry.stats().loads, 1u);
  EXPECT_EQ(registry.stats().replayed_on_load, 0u);  // Chain reload: no replay.
  EXPECT_FALSE(registry.resident("b"));
}

TEST(Registry, EvictedDocAccumulatesChainAcrossCycles) {
  MemStorage storage;
  DocRegistry::Config config;
  config.max_resident = 1;
  DocRegistry registry(storage, config);
  std::string expect;
  for (int cycle = 0; cycle < 4; ++cycle) {
    Doc& doc = registry.Open("doc");
    std::string line = "line " + std::to_string(cycle) + "\n";
    doc.Insert(doc.size(), line);
    expect += line;
    registry.Open("other-" + std::to_string(cycle));  // Evicts "doc".
  }
  EXPECT_EQ(storage.Chain("doc")->size(), 4u);  // One incremental segment per cycle.
  EXPECT_EQ(registry.Open("doc").Text(), expect);
  EXPECT_EQ(registry.stats().replayed_on_load, 0u);
}

TEST(Registry, CompactionBoundsChainLength) {
  MemStorage storage;
  DocRegistry::Config config;
  config.compact_above_segments = 4;
  DocRegistry registry(storage, config);
  std::string expect;
  for (int i = 0; i < 20; ++i) {
    Doc& doc = registry.Open("doc");
    std::string line = std::to_string(i) + ";";
    doc.Insert(doc.size(), line);
    expect += line;
    registry.Flush("doc");
    ASSERT_LE(storage.Chain("doc")->size(), 4u) << "flush " << i;
  }
  EXPECT_GT(registry.stats().compactions, 0u);
  auto reloaded = Doc::LoadChain(*storage.Chain("doc"), "!server");
  ASSERT_TRUE(reloaded.has_value());
  EXPECT_EQ(reloaded->Text(), expect);
  EXPECT_EQ(reloaded->replayed_events(), 0u);
}

// --- NetSim ------------------------------------------------------------------

// Records every delivery it sees (and sends nothing).
class RecordingEndpoint : public Endpoint {
 public:
  void OnMessage(NetSim& net, int from, int self, const Message& msg) override {
    log.push_back(std::to_string(net.now()) + ":" + std::to_string(from) + ">" +
                  std::to_string(self) + ":" + msg.doc);
  }
  std::vector<std::string> log;
};

std::vector<std::string> RunLossyScenario(uint64_t seed) {
  NetSimConfig config;
  config.seed = seed;
  config.min_latency = 1;
  config.max_latency = 6;
  config.drop = 0.2;
  config.duplicate = 0.2;
  NetSim net(config);
  RecordingEndpoint a, b, c;
  int ia = net.AddEndpoint(&a);
  int ib = net.AddEndpoint(&b);
  int ic = net.AddEndpoint(&c);
  Message msg;
  for (int i = 0; i < 40; ++i) {
    msg.doc = "m" + std::to_string(i);
    net.Send(ia, i % 2 == 0 ? ib : ic, msg);
    net.Send(ib, ic, msg);
    net.Tick();
  }
  net.Run(64);
  std::vector<std::string> all = a.log;
  all.insert(all.end(), b.log.begin(), b.log.end());
  all.insert(all.end(), c.log.begin(), c.log.end());
  return all;
}

TEST(NetSim, SameSeedSameDeliverySchedule) {
  auto run1 = RunLossyScenario(42);
  auto run2 = RunLossyScenario(42);
  EXPECT_EQ(run1, run2);
  EXPECT_FALSE(run1.empty());
  auto run3 = RunLossyScenario(43);
  EXPECT_NE(run1, run3);  // The adversary actually depends on the seed.
}

TEST(NetSim, LossDuplicationAndReorderingHappen) {
  auto deliveries = RunLossyScenario(7);
  NetSimConfig config;
  config.seed = 7;
  config.drop = 0.2;
  config.duplicate = 0.2;
  config.max_latency = 6;
  NetSim net(config);
  RecordingEndpoint a, b;
  int ia = net.AddEndpoint(&a);
  int ib = net.AddEndpoint(&b);
  for (int i = 0; i < 200; ++i) {
    Message msg;
    msg.doc = std::to_string(i);
    net.Send(ia, ib, msg);
  }
  net.Run(64);
  const NetSim::Stats& stats = net.stats();
  EXPECT_GT(stats.dropped, 0u);
  EXPECT_GT(stats.duplicated, 0u);
  EXPECT_EQ(stats.delivered + stats.dropped, stats.sent + stats.duplicated);
  // Reordering: some message with a larger sequence number arrives before a
  // smaller one.
  bool reordered = false;
  for (size_t i = 1; i < b.log.size(); ++i) {
    size_t colon = b.log[i - 1].rfind(':');
    size_t colon2 = b.log[i].rfind(':');
    if (std::stoi(b.log[i - 1].substr(colon + 1)) > std::stoi(b.log[i].substr(colon2 + 1))) {
      reordered = true;
      break;
    }
  }
  EXPECT_TRUE(reordered);
}

// --- Broker + clients --------------------------------------------------------

struct Harness {
  MemStorage storage;
  DocRegistry registry;
  Broker broker;
  NetSim net;

  explicit Harness(const NetSimConfig& net_config = {}, size_t max_resident = 8,
                   uint64_t flush_every = 16, bool checkpoint_anchor = true)
      : registry(storage, RegistryConfig(max_resident, checkpoint_anchor)),
        broker(registry, BrokerCfg(flush_every)),
        net(net_config) {
    broker.Attach(net);
  }

  static DocRegistry::Config RegistryConfig(size_t max_resident,
                                            bool checkpoint_anchor = true) {
    DocRegistry::Config config;
    config.max_resident = max_resident;
    config.checkpoint.checkpoint_session_anchor = checkpoint_anchor;
    return config;
  }
  static Broker::Config BrokerCfg(uint64_t flush_every) {
    Broker::Config config;
    config.flush_every_events = flush_every;
    return config;
  }
};

TEST(Broker, BootstrapAndBidirectionalSync) {
  Harness h;
  CollabClient alice("alice"), bob("bob");
  alice.Attach(h.net, h.broker.endpoint_id());
  bob.Attach(h.net, h.broker.endpoint_id());

  alice.Join(h.net, "notes");
  bob.Join(h.net, "notes");
  ASSERT_TRUE(h.net.Run(50));

  alice.Insert("notes", 0, "from alice. ");
  alice.PushEdits(h.net, "notes");
  ASSERT_TRUE(h.net.Run(50));
  EXPECT_EQ(bob.doc("notes").Text(), "from alice. ");

  bob.Insert("notes", 12, "from bob.");
  bob.PushEdits(h.net, "notes");
  ASSERT_TRUE(h.net.Run(50));
  EXPECT_EQ(alice.doc("notes").Text(), "from alice. from bob.");
  EXPECT_EQ(h.registry.Open("notes").Text(), "from alice. from bob.");
}

TEST(Broker, DocumentsAreIsolated) {
  Harness h;
  CollabClient alice("alice"), bob("bob");
  alice.Attach(h.net, h.broker.endpoint_id());
  bob.Attach(h.net, h.broker.endpoint_id());
  alice.Join(h.net, "doc-a");
  bob.Join(h.net, "doc-b");
  ASSERT_TRUE(h.net.Run(50));
  alice.Insert("doc-a", 0, "only in a");
  alice.PushEdits(h.net, "doc-a");
  ASSERT_TRUE(h.net.Run(50));
  EXPECT_EQ(h.registry.Open("doc-a").Text(), "only in a");
  EXPECT_EQ(h.registry.Open("doc-b").size(), 0u);
  EXPECT_EQ(bob.doc("doc-b").size(), 0u);
}

TEST(Broker, LeaveStopsBroadcasts) {
  Harness h;
  CollabClient alice("alice"), bob("bob");
  alice.Attach(h.net, h.broker.endpoint_id());
  bob.Attach(h.net, h.broker.endpoint_id());
  alice.Join(h.net, "doc");
  bob.Join(h.net, "doc");
  ASSERT_TRUE(h.net.Run(50));
  alice.Insert("doc", 0, "one");
  alice.PushEdits(h.net, "doc");
  ASSERT_TRUE(h.net.Run(50));
  EXPECT_EQ(h.broker.session_count(), 2u);
  bob.Leave(h.net, "doc");
  ASSERT_TRUE(h.net.Run(50));
  EXPECT_EQ(h.broker.session_count(), 1u);
  uint64_t broadcasts = h.broker.stats().broadcasts;
  alice.Insert("doc", 3, " two");
  alice.PushEdits(h.net, "doc");
  ASSERT_TRUE(h.net.Run(50));
  EXPECT_EQ(h.broker.stats().broadcasts, broadcasts);  // No one left to fan to.
}

TEST(Broker, IdleSessionsExpireWhenLeaveIsLost) {
  // kLeave is best-effort; a lost one must not leak the session forever.
  // Alice goes silent (as if her kLeave was dropped); bob keeps editing.
  // The idle timeout reaps alice's session and broadcasts to her stop.
  MemStorage storage;
  DocRegistry registry(storage);
  Broker::Config broker_config;
  broker_config.session_idle_timeout = 20;
  Broker broker(registry, broker_config);
  NetSim net;
  broker.Attach(net);
  CollabClient alice("alice"), bob("bob");
  alice.Attach(net, broker.endpoint_id());
  bob.Attach(net, broker.endpoint_id());
  alice.Join(net, "doc");
  bob.Join(net, "doc");
  ASSERT_TRUE(net.Run(50));
  EXPECT_EQ(broker.session_count(), 2u);
  // Alice leaves, but her kLeave is lost (drop everything for one send).
  NetSimConfig blackhole;
  blackhole.drop = 1.0;
  net.set_config(blackhole);
  alice.Leave(net, "doc");
  net.set_config(NetSimConfig{});
  EXPECT_EQ(broker.session_count(), 2u);  // The broker never heard it.
  for (int i = 0; i < 60; ++i) {
    bob.Insert("doc", bob.doc("doc").size(), "x");
    bob.PushEdits(net, "doc");
    net.Tick();
  }
  ASSERT_TRUE(net.Run(50));
  EXPECT_EQ(broker.session_count(), 1u);  // Alice's session was reaped.
  EXPECT_GT(broker.stats().expired, 0u);
  EXPECT_EQ(registry.Open("doc").Text(), bob.doc("doc").Text());
  // A reaped client that comes back simply re-joins and re-bootstraps.
  alice.Join(net, "doc");
  ASSERT_TRUE(net.Run(50));
  EXPECT_EQ(broker.session_count(), 2u);
  EXPECT_EQ(alice.doc("doc").Text(), bob.doc("doc").Text());
}

TEST(Broker, RejoinAfterLeaveConvergesDespitePreBootstrapEdits) {
  // Regression: a re-joined client gets a fresh replica identity. Reusing
  // the old agent name from seq 0 would collide with the agent's earlier
  // events — the server would skip the new events as known duplicates and
  // both sides' summaries would show no gap, diverging permanently.
  Harness h;
  CollabClient alice("alice"), bob("bob");
  alice.Attach(h.net, h.broker.endpoint_id());
  bob.Attach(h.net, h.broker.endpoint_id());
  alice.Join(h.net, "doc");
  bob.Join(h.net, "doc");
  ASSERT_TRUE(h.net.Run(50));
  alice.Insert("doc", 0, "hello");
  alice.PushEdits(h.net, "doc");
  ASSERT_TRUE(h.net.Run(50));
  alice.Leave(h.net, "doc");
  ASSERT_TRUE(h.net.Run(50));
  alice.Join(h.net, "doc");
  // Edit before the bootstrap patch arrives: the fresh replica issues its
  // first sequence numbers right here.
  alice.Insert("doc", 0, "XY");
  alice.PushEdits(h.net, "doc");
  ASSERT_TRUE(h.net.Run(50));
  for (int i = 0; i < 3; ++i) {
    alice.PushEdits(h.net, "doc");
    alice.RequestSync(h.net, "doc");
    bob.RequestSync(h.net, "doc");
    ASSERT_TRUE(h.net.Run(50));
  }
  std::string server_text = h.registry.Open("doc").Text();
  EXPECT_EQ(server_text.size(), 7u);  // "hello" + "XY", interleaved by merge.
  EXPECT_EQ(alice.doc("doc").Text(), server_text);
  EXPECT_EQ(bob.doc("doc").Text(), server_text);
}

TEST(Broker, PatchReorderedAfterLeaveAppliesWithoutGhostSession) {
  // Regression: a patch delivered after its sender's kLeave must persist
  // the departing client's last edits but must not resurrect the session
  // (a ghost subscriber would be broadcast to forever).
  Harness h;
  CollabClient alice("alice"), bob("bob");
  int alice_id = alice.Attach(h.net, h.broker.endpoint_id());
  bob.Attach(h.net, h.broker.endpoint_id());
  alice.Join(h.net, "doc");
  bob.Join(h.net, "doc");
  ASSERT_TRUE(h.net.Run(50));
  alice.Insert("doc", 0, "last words");
  // Model the reorder deterministically: capture the patch alice would have
  // sent, deliver her kLeave first, then inject the patch afterwards.
  Message late;
  late.type = MsgType::kPatch;
  late.doc = "doc";
  late.summary = EncodeSummary(SummarizeDoc(alice.doc("doc")));
  late.patch = MakePatch(alice.doc("doc"), SummarizeDoc(h.registry.Open("doc")));
  alice.Leave(h.net, "doc");
  ASSERT_TRUE(h.net.Run(50));
  EXPECT_EQ(h.broker.session_count(), 1u);  // Only bob remains.
  h.net.Send(alice_id, h.broker.endpoint_id(), std::move(late));
  ASSERT_TRUE(h.net.Run(50));
  EXPECT_EQ(h.broker.session_count(), 1u);  // No ghost session.
  EXPECT_EQ(h.registry.Open("doc").Text(), "last words");  // Edits kept.
  EXPECT_EQ(bob.doc("doc").Text(), "last words");  // Still broadcast to bob.
}

TEST(Broker, LockstepReadersShareOneEncodePerRound) {
  // One writer and eight read-only subscribers. After the first edit's
  // fan-out the readers' estimates are equal, so the next edit's round
  // encodes twice: the writer's own patch (empty: it sent the events) and
  // one patch that all eight readers share.
  Harness h;
  CollabClient writer("writer");
  std::vector<CollabClient> readers;
  readers.reserve(8);  // NetSim keeps pointers.
  for (int r = 0; r < 8; ++r) {
    readers.emplace_back("reader-" + std::to_string(r));
  }
  writer.Attach(h.net, h.broker.endpoint_id());
  writer.Join(h.net, "doc");
  for (CollabClient& reader : readers) {
    reader.Attach(h.net, h.broker.endpoint_id());
    reader.Join(h.net, "doc");
  }
  ASSERT_TRUE(h.net.Run(50));
  writer.Insert("doc", 0, "first");
  writer.PushEdits(h.net, "doc");
  ASSERT_TRUE(h.net.Run(50));

  const Broker::Stats before = h.broker.stats();
  writer.Insert("doc", 5, " second");
  writer.PushEdits(h.net, "doc");
  ASSERT_TRUE(h.net.Run(50));
  const Broker::Stats& after = h.broker.stats();
  EXPECT_EQ(after.broadcast_rounds - before.broadcast_rounds, 1u);
  EXPECT_EQ(after.patch_encodes - before.patch_encodes, 2u);
  EXPECT_EQ(after.patch_encodes_shared - before.patch_encodes_shared, 7u);
  EXPECT_EQ(after.broadcasts - before.broadcasts, 8u);
  for (CollabClient& reader : readers) {
    EXPECT_EQ(reader.doc("doc").Text(), "first second");
  }
}

// --- The broker's recorded wire stream ----------------------------------------

TEST(BrokerGolden, ScriptsReproduceRecordedSends) {
  // broker_stream.fnv64 pins every message an earlier broker sent in the
  // scripts of golden/broker_script.h (tests/golden/README.md): its tick,
  // destination, type, document, summary and patch bytes.
  struct Recorded {
    uint64_t tick;
    int to;
    int type;
    size_t bytes;
    uint64_t fnv;
  };
  std::map<std::string, std::vector<Recorded>> recorded;
  std::istringstream in(golden::ReadFixture("broker_stream.fnv64"));
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    char shape[16];
    Recorded r{};
    ASSERT_EQ(std::sscanf(line.c_str(), "%15s %" SCNu64 " %d %d %zu %" SCNx64, shape, &r.tick,
                          &r.to, &r.type, &r.bytes, &r.fnv),
              6)
        << line;
    recorded[shape].push_back(r);
  }

  for (const golden::BrokerShape& shape : golden::BrokerShapes()) {
    const std::vector<Recorded>& want = recorded[shape.name];
    ASSERT_GT(want.size(), 300u) << shape.name;
    size_t next = 0;
    size_t mismatches = 0;
    golden::BrokerScriptOutcome out = golden::RunBrokerScript(
        shape, [&](uint64_t tick, int to, const Message& msg) {
          if (next < want.size()) {
            const Recorded& r = want[next];
            if (r.tick != tick || r.to != to || r.type != static_cast<int>(msg.type) ||
                r.bytes != msg.patch.size() || r.fnv != golden::HashBrokerSend(tick, to, msg)) {
              if (mismatches++ == 0) {
                ADD_FAILURE() << shape.name << ": send " << next << " (tick " << tick << ", to "
                              << to << ") differs from the recording (tick " << r.tick
                              << ", to " << r.to << ")";
              }
            }
          }
          ++next;
        });
    EXPECT_EQ(next, want.size()) << shape.name;
    EXPECT_EQ(mismatches, 0u) << shape.name;

    // Each script reaches the paths it is there to pin.
    const std::string name = shape.name;
    EXPECT_GT(out.broker.broadcasts, 0u) << name;
    EXPECT_GT(out.broker.sync_requests, 0u) << name;
    if (name == "readers") {
      EXPECT_GT(out.registry.evictions, 0u);
      EXPECT_GT(out.broker.patch_encodes_shared, 0u);
    } else if (name == "writers") {
      EXPECT_EQ(out.registry.evictions, 0u);
      EXPECT_GT(out.broker.broadcast_rounds, 0u);
    } else {
      EXPECT_EQ(name, "lossy");
      EXPECT_GT(out.net.dropped, 0u);
      EXPECT_GT(out.net.duplicated, 0u);
      EXPECT_GT(out.client_rejections, 0u);
      EXPECT_GT(out.broker.expired, 0u);
      EXPECT_GT(out.broker.leaves, 0u);
      EXPECT_GT(out.registry.evictions, 0u);
    }
  }
}

// --- The acceptance soak -----------------------------------------------------
//
// >= 8 documents x >= 6 clients each under seeded drop / duplication /
// reordering; every replica converges byte-identically, documents get
// LRU-evicted and reloaded from incremental checkpoint chains mid-run, and
// a post-hoc chain reload equals the never-evicted client replicas without
// replaying a single pre-checkpoint event. Factored into a helper so the
// session-equivalence test can run the identical script with persistent
// walker sessions on and off and compare the two universes.

struct SoakOutcome {
  // Final text per document (server replica after the drain).
  std::vector<std::string> server_texts;
  // Final text per (doc, client) replica.
  std::vector<std::vector<std::string>> client_texts;
  // Sum of Doc::replayed_events() across all client replicas (clients are
  // never evicted, so this is a stable work metric for the whole run).
  uint64_t client_replayed = 0;
  uint64_t client_events = 0;  // Sum of end_lv() across client replicas.
  // Server-side walker work across the whole run, including docs that were
  // evicted mid-run (DocRegistry::TotalReplayedEvents).
  uint64_t server_replayed = 0;
  uint64_t server_session_resumes = 0;
};

// RAII guard: the soak flips the process-wide session default; every exit
// path must restore the prior value or later tests silently run in the
// wrong universe.
struct MergeSessionsDefaultGuard {
  explicit MergeSessionsDefaultGuard(bool enabled) : previous(Doc::MergeSessionsDefault()) {
    Doc::SetMergeSessionsDefault(enabled);
  }
  ~MergeSessionsDefaultGuard() { Doc::SetMergeSessionsDefault(previous); }
  bool previous;
};

void RunAcceptanceSoak(bool merge_sessions, SoakOutcome* out,
                       bool checkpoint_anchor = true) {
  MergeSessionsDefaultGuard session_guard(merge_sessions);
  constexpr int kDocs = 8;
  constexpr int kClientsPerDoc = 6;
  constexpr int kTicks = 120;

  NetSimConfig net_config;
  net_config.seed = 1234;
  net_config.min_latency = 1;
  net_config.max_latency = 10;  // Unequal delays: reordering.
  net_config.drop = 0.12;
  net_config.duplicate = 0.08;
  // Capacity 3 of 8 documents: traffic interleaving forces constant
  // eviction / chain-reload churn while clients are live.
  Harness h(net_config, /*max_resident=*/3, /*flush_every=*/24, checkpoint_anchor);

  std::vector<std::string> doc_names;
  for (int d = 0; d < kDocs; ++d) {
    doc_names.push_back("doc-" + std::to_string(d));
  }
  std::vector<CollabClient> clients;
  clients.reserve(kDocs * kClientsPerDoc);
  for (int d = 0; d < kDocs; ++d) {
    for (int c = 0; c < kClientsPerDoc; ++c) {
      clients.emplace_back("agent-" + std::to_string(d) + "-" + std::to_string(c));
    }
  }
  for (auto& client : clients) {
    client.Attach(h.net, h.broker.endpoint_id());
  }
  for (int d = 0; d < kDocs; ++d) {
    for (int c = 0; c < kClientsPerDoc; ++c) {
      clients[static_cast<size_t>(d * kClientsPerDoc + c)].Join(h.net, doc_names[static_cast<size_t>(d)]);
    }
  }

  Prng rng(99);
  for (int tick = 0; tick < kTicks; ++tick) {
    for (int d = 0; d < kDocs; ++d) {
      for (int c = 0; c < kClientsPerDoc; ++c) {
        CollabClient& client = clients[static_cast<size_t>(d * kClientsPerDoc + c)];
        const std::string& name = doc_names[static_cast<size_t>(d)];
        if (rng.Chance(0.3)) {
          Doc& doc = client.doc(name);
          if (doc.size() > 12 && rng.Chance(0.3)) {
            uint64_t pos = rng.Below(doc.size() - 2);
            client.Delete(name, pos, 1 + rng.Below(2));
          } else {
            std::string burst(1 + rng.Below(3), static_cast<char>('a' + (c % 26)));
            client.Insert(name, rng.Below(doc.size() + 1), burst);
          }
        }
        if (rng.Chance(0.25)) {
          client.PushEdits(h.net, name);
        }
        if (rng.Chance(0.08)) {
          client.RequestSync(h.net, name);
        }
      }
    }
    h.net.Tick();
  }

  // The adversarial phase must actually have been adversarial.
  EXPECT_GT(h.net.stats().dropped, 0u);
  EXPECT_GT(h.net.stats().duplicated, 0u);
  EXPECT_GT(h.registry.stats().evictions, 0u);
  EXPECT_GT(h.registry.stats().loads, 0u);

  // Drain: lossless network, periodic sync requests until quiet.
  NetSimConfig lossless;
  lossless.seed = 0;  // Ignored: the stream continues.
  lossless.min_latency = 1;
  lossless.max_latency = 2;
  h.net.set_config(lossless);
  for (int round = 0; round < 5; ++round) {
    for (int d = 0; d < kDocs; ++d) {
      for (int c = 0; c < kClientsPerDoc; ++c) {
        CollabClient& client = clients[static_cast<size_t>(d * kClientsPerDoc + c)];
        client.PushEdits(h.net, doc_names[static_cast<size_t>(d)]);
        client.RequestSync(h.net, doc_names[static_cast<size_t>(d)]);
      }
    }
    ASSERT_TRUE(h.net.Run(400)) << "network failed to drain in round " << round;
  }

  // Convergence: every replica of every document is byte-identical.
  uint64_t diff_calls = 0;
  uint64_t diff_runs = 0;
  uint64_t diff_events = 0;
  uint64_t total_history = 0;
  for (int d = 0; d < kDocs; ++d) {
    const std::string& name = doc_names[static_cast<size_t>(d)];
    std::string server_text = h.registry.Open(name).Text();
    EXPECT_GT(server_text.size(), 0u) << name;
    out->server_texts.push_back(server_text);
    out->client_texts.emplace_back();
    for (int c = 0; c < kClientsPerDoc; ++c) {
      Doc& replica = clients[static_cast<size_t>(d * kClientsPerDoc + c)].doc(name);
      EXPECT_EQ(replica.Text(), server_text) << name << " client " << c;
      out->client_texts.back().push_back(replica.Text());
      out->client_replayed += replica.replayed_events();
      out->client_events += replica.end_lv();
      EXPECT_EQ(replica.merge_session_active(), merge_sessions) << name << " client " << c;
      const DiffStats& ds = replica.graph().diff_stats();
      diff_calls += ds.calls;
      diff_runs += ds.runs_visited;
      diff_events += ds.events_spanned;
      total_history += replica.end_lv();
    }
  }
  // Diff work scales with runs, not history: the soak's replicas run
  // thousands of retreat/advance diffs each over ever-growing graphs, and
  // the run-level walk must keep both the runs a query touches and the
  // events it classifies one-sided small and *flat* — a per-call average
  // within a constant budget, an order of magnitude below the mean history
  // length (the event-level walk's floor). Measured steady state (seeded,
  // deterministic): ~13 runs and ~18 events per call against a mean history
  // of ~400 events; the bounds leave margin for workload drift without ever
  // admitting O(history) behavior.
  ASSERT_GT(diff_calls, 0u);
  const uint64_t mean_history = total_history / (kDocs * kClientsPerDoc);
  EXPECT_GT(mean_history, 100u);  // The histories are non-trivial...
  EXPECT_LE(diff_runs / diff_calls, 24u);    // ...yet runs touched stay flat
  EXPECT_LE(diff_events / diff_calls, 48u);  // and so do events classified.

  // Eviction equality: flush everything, then reload each document from its
  // incremental checkpoint chain alone. The reload must equal the
  // never-evicted client replicas — without replaying pre-checkpoint events
  // (the replay counter stays at zero), across a genuine multi-segment
  // chain.
  h.registry.FlushAll();
  bool saw_multi_segment_chain = false;
  for (int d = 0; d < kDocs; ++d) {
    const std::string& name = doc_names[static_cast<size_t>(d)];
    const std::vector<std::string>* chain = h.storage.Chain(name);
    ASSERT_NE(chain, nullptr) << name;
    saw_multi_segment_chain = saw_multi_segment_chain || chain->size() > 1;
    auto reloaded = Doc::LoadChain(*chain, "!server");
    ASSERT_TRUE(reloaded.has_value()) << name;
    EXPECT_EQ(reloaded->replayed_events(), 0u) << name;
    EXPECT_EQ(reloaded->Text(),
              clients[static_cast<size_t>(d * kClientsPerDoc)].doc(name).Text())
        << name;
  }
  EXPECT_TRUE(saw_multi_segment_chain);
  EXPECT_EQ(h.registry.stats().replayed_on_load, 0u);
  // Eviction churn produced lazy chain reloads: cold columns were skipped
  // on every load, and — with anchored sessions bounding replay reach-back —
  // post-reload merges hydrated strictly less than was skipped.
  EXPECT_GT(h.registry.stats().lazy_segments_skipped, 0u);
  if (checkpoint_anchor) {
    EXPECT_LT(h.registry.TotalHydratedBytes(), h.registry.stats().lazy_bytes_skipped);
  }
  // Adversarial delivery exercised the causal-rejection path somewhere.
  uint64_t rejections = h.broker.stats().patches_rejected;
  for (const auto& client : clients) {
    rejections += client.stats().patches_rejected;
  }
  EXPECT_GT(rejections, 0u);
  // The batched fan-out actually coalesced: strictly fewer broadcast
  // rounds than applied patches.
  EXPECT_GT(h.broker.stats().broadcast_rounds, 0u);
  EXPECT_LT(h.broker.stats().broadcast_rounds, h.broker.stats().patches_applied);
  // The O(delta) patch pipeline: MakePatch visits only events it encodes,
  // so steady-state scanned-events-per-encoded-event is exactly 1 (the old
  // full scan visited the whole history per encode, making this ratio grow
  // with document age).
  const Broker::Stats& bs = h.broker.stats();
  EXPECT_GT(bs.patch_encodes, 0u);
  EXPECT_GT(bs.patch_events_encoded, 0u);
  EXPECT_EQ(bs.patch_events_scanned, bs.patch_events_encoded);
  out->server_replayed = h.registry.TotalReplayedEvents();
  out->server_session_resumes = h.registry.stats().session_resumes;
}

TEST(ServerSoak, ConvergesUnderAdversarialDeliveryWithEvictionChurn) {
  SoakOutcome outcome;
  RunAcceptanceSoak(/*merge_sessions=*/true, &outcome);
}

// Session-equivalence property: the identical adversarial soak script run
// with persistent walker sessions and with a fresh walker per merge must
// land every replica of every document on byte-identical text, while the
// session universe replays strictly fewer events through the walker.
TEST(ServerSoak, SessionUniverseIsByteIdenticalToFreshWalkerUniverse) {
  SoakOutcome with_sessions;
  RunAcceptanceSoak(/*merge_sessions=*/true, &with_sessions);
  SoakOutcome without_sessions;
  RunAcceptanceSoak(/*merge_sessions=*/false, &without_sessions);

  ASSERT_EQ(with_sessions.server_texts.size(), without_sessions.server_texts.size());
  for (size_t d = 0; d < with_sessions.server_texts.size(); ++d) {
    EXPECT_EQ(with_sessions.server_texts[d], without_sessions.server_texts[d]) << "doc " << d;
    ASSERT_EQ(with_sessions.client_texts[d].size(), without_sessions.client_texts[d].size());
    for (size_t c = 0; c < with_sessions.client_texts[d].size(); ++c) {
      EXPECT_EQ(with_sessions.client_texts[d][c], without_sessions.client_texts[d][c])
          << "doc " << d << " client " << c;
    }
  }
  // Both universes saw the same events (the script and network are seeded),
  // but the session universe walked far fewer of them.
  EXPECT_EQ(with_sessions.client_events, without_sessions.client_events);
  EXPECT_LT(with_sessions.client_replayed, without_sessions.client_replayed);
}

// Session-across-eviction property: the identical soak script run with and
// without the checkpointed session anchor must land on byte-identical
// documents (the anchor only changes local replay work, never wire bytes),
// while the anchored universe resumes sessions after eviction/reload and
// replays strictly fewer events server-side — i.e. eviction no longer
// destroys the persistent-session machinery.
TEST(ServerSoak, AnchoredCheckpointsResumeSessionsAcrossEviction) {
  SoakOutcome anchored;
  RunAcceptanceSoak(/*merge_sessions=*/true, &anchored, /*checkpoint_anchor=*/true);
  SoakOutcome plain;
  RunAcceptanceSoak(/*merge_sessions=*/true, &plain, /*checkpoint_anchor=*/false);

  ASSERT_EQ(anchored.server_texts.size(), plain.server_texts.size());
  for (size_t d = 0; d < anchored.server_texts.size(); ++d) {
    EXPECT_EQ(anchored.server_texts[d], plain.server_texts[d]) << "doc " << d;
  }
  EXPECT_EQ(anchored.client_events, plain.client_events);
  EXPECT_GT(anchored.server_session_resumes, 0u);
  EXPECT_EQ(plain.server_session_resumes, 0u);
  EXPECT_LT(anchored.server_replayed, plain.server_replayed);
}

}  // namespace
}  // namespace egwalker
