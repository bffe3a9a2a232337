// Tests for the sync layer: version summaries, delta patches, causal
// rejection, and patch-only convergence between replicas.

#include "sync/patch.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "golden/fixtures.h"
#include "golden/patch_script.h"
#include "rope/utf8.h"
#include "util/memtrack.h"
#include "util/prng.h"

namespace egwalker {
namespace {

TEST(Summary, EmptyDoc) {
  Doc doc("alice");
  VersionSummary s = SummarizeDoc(doc);
  EXPECT_TRUE(s.agents.empty());
}

TEST(Summary, CountsPerAgent) {
  Doc alice("alice");
  alice.Insert(0, "hello");
  Doc bob("bob");
  bob.MergeFrom(alice);
  bob.Insert(5, "!!");
  VersionSummary s = SummarizeDoc(bob);
  EXPECT_EQ(s.agents.at("alice"), 5u);
  EXPECT_EQ(s.agents.at("bob"), 2u);
}

TEST(Summary, EncodingRoundTrips) {
  VersionSummary s;
  s.agents["alice"] = 12345;
  s.agents["bob"] = 1;
  s.agents["carol-with-a-long-name"] = 99;
  auto back = DecodeSummary(EncodeSummary(s));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, s);
  auto empty = DecodeSummary(EncodeSummary(VersionSummary{}));
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->agents.empty());
}

TEST(Summary, RejectsCorruptInput) {
  std::string error;
  EXPECT_FALSE(DecodeSummary("", &error).has_value());
  EXPECT_FALSE(DecodeSummary("EGXX\x01", &error).has_value());
  std::string good = EncodeSummary({{{"a", 1}}});
  EXPECT_FALSE(DecodeSummary(good + "x").has_value());       // Trailing bytes.
  EXPECT_FALSE(DecodeSummary(good.substr(0, 6)).has_value());  // Truncated.
}

TEST(Patch, NothingToSendIsEmpty) {
  Doc alice("alice");
  alice.Insert(0, "state");
  std::string patch = MakePatch(alice, SummarizeDoc(alice));
  EXPECT_TRUE(patch.empty());
  Doc bob("bob");
  bob.MergeFrom(alice);
  EXPECT_EQ(ApplyPatch(bob, patch), 0u);
}

TEST(Patch, FullBootstrap) {
  Doc alice("alice");
  alice.Insert(0, "hello world");
  alice.Delete(0, 6);
  Doc bob("bob");
  std::string patch = MakePatch(alice, SummarizeDoc(bob));
  EXPECT_FALSE(patch.empty());
  auto merged = ApplyPatch(bob, patch);
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(*merged, 17u);
  EXPECT_EQ(bob.Text(), "world");
}

TEST(Patch, IncrementalDelta) {
  Doc alice("alice");
  alice.Insert(0, "base");
  Doc bob("bob");
  bob.MergeFrom(alice);
  alice.Insert(4, " more");
  std::string patch = MakePatch(alice, SummarizeDoc(bob));
  // Only the delta travels: far smaller than a full history.
  EXPECT_LT(patch.size(), 64u);
  ASSERT_TRUE(ApplyPatch(bob, patch).has_value());
  EXPECT_EQ(bob.Text(), "base more");
}

TEST(Patch, ConcurrentEditsBothWays) {
  Doc alice("alice");
  alice.Insert(0, "Helo");
  Doc bob("bob");
  bob.MergeFrom(alice);
  alice.Insert(3, "l");
  bob.Insert(4, "!");
  std::string a_to_b = MakePatch(alice, SummarizeDoc(bob));
  std::string b_to_a = MakePatch(bob, SummarizeDoc(alice));
  ASSERT_TRUE(ApplyPatch(bob, a_to_b).has_value());
  ASSERT_TRUE(ApplyPatch(alice, b_to_a).has_value());
  EXPECT_EQ(alice.Text(), "Hello!");
  EXPECT_EQ(bob.Text(), "Hello!");
}

TEST(Patch, PartialRunDelta) {
  // Bob holds a prefix of one of alice's runs; the patch must clip the run
  // and chain it onto the part bob already has.
  Doc alice("alice");
  alice.Insert(0, "abcdef");
  Doc bob("bob");
  bob.MergeFrom(alice);
  alice.Insert(6, "ghijkl");  // Extends the same typing run.
  std::string patch = MakePatch(alice, SummarizeDoc(bob));
  ASSERT_TRUE(ApplyPatch(bob, patch).has_value());
  EXPECT_EQ(bob.Text(), "abcdefghijkl");
}

TEST(Patch, CaughtUpButOneEventScansOneEvent) {
  // The acceptance property of the O(delta) pipeline: a subscriber missing
  // exactly one event costs one scanned event, no matter how long the
  // history is.
  Doc alice("alice");
  for (int i = 0; i < 200; ++i) {
    alice.Insert(alice.size(), "history line; ");
    alice.Delete(3, 2);
  }
  Doc bob("bob");
  bob.MergeFrom(alice);
  alice.Insert(0, "x");  // The one event bob lacks.
  MakePatchStats stats;
  std::string patch = MakePatch(alice, SummarizeDoc(bob), &stats);
  EXPECT_EQ(stats.events_scanned, 1u);
  EXPECT_EQ(stats.events_encoded, 1u);
  EXPECT_EQ(stats.chunks, 1u);
  ASSERT_TRUE(ApplyPatch(bob, patch).has_value());
  EXPECT_EQ(bob.Text(), alice.Text());
  // Fully caught up: zero work, empty patch.
  MakePatchStats caught_up;
  EXPECT_TRUE(MakePatch(alice, SummarizeDoc(bob), &caught_up).empty());
  EXPECT_EQ(caught_up.events_scanned, 0u);
}

TEST(Patch, MatchesReferenceScanOnEdgeSummaries) {
  // Absent agents, inflated claims, and mid-run watermarks against the
  // whole-history oracle (the fuzz in fuzz_all covers random shapes; these
  // pin the named edge cases deterministically).
  Doc alice("alice");
  alice.Insert(0, "aaaa");
  Doc bob("bob");
  bob.MergeFrom(alice);
  bob.Insert(4, "bbbb");
  alice.MergeFrom(bob);
  alice.Insert(8, "cccc");  // alice: seqs 0..7 (runs split by the merge).
  auto expect_equal = [&](const VersionSummary& summary) {
    MakePatchStats stats;
    EXPECT_EQ(MakePatch(alice, summary, &stats), MakePatchReference(alice, summary));
    EXPECT_EQ(stats.events_scanned, stats.events_encoded);
  };
  expect_equal(VersionSummary{});                           // Absent agents.
  expect_equal(VersionSummary{{{"alice", 2}}});             // Mid-run split.
  expect_equal(VersionSummary{{{"alice", 6}, {"bob", 2}}}); // Splits both.
  expect_equal(VersionSummary{{{"alice", 99}, {"bob", 99}}});  // Inflated.
  expect_equal(VersionSummary{{{"ghost", 7}}});             // Unknown agent.
  expect_equal(SummarizeDoc(alice));                        // Caught up.
}

TEST(Patch, BackspaceRunDelta) {
  Doc alice("alice");
  alice.Insert(0, "abcdef");
  Doc bob("bob");
  bob.MergeFrom(alice);
  // Delete "cde" (alice's editor may have issued backspaces; Doc::Delete
  // normalises to a forward run — direction is covered by the OpLog tests).
  alice.Delete(2, 3);
  std::string patch = MakePatch(alice, SummarizeDoc(bob));
  ASSERT_TRUE(ApplyPatch(bob, patch).has_value());
  EXPECT_EQ(bob.Text(), alice.Text());
}

TEST(Patch, RejectsCausallyPrematurePatch) {
  Doc alice("alice");
  alice.Insert(0, "base");
  Doc bob("bob");
  bob.MergeFrom(alice);
  alice.Insert(4, "1");
  VersionSummary bob_has = SummarizeDoc(bob);
  alice.Insert(5, "2");
  // A patch against an artificially advanced summary: pretend bob already
  // has alice's 5th event so the patch only carries the 6th.
  VersionSummary fake = bob_has;
  fake.agents["alice"] = 5;
  std::string premature = MakePatch(alice, fake);
  std::string error;
  EXPECT_FALSE(ApplyPatch(bob, premature, &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(bob.Text(), "base");  // Untouched.
  // Once the gap is filled, the same patch applies cleanly.
  ASSERT_TRUE(ApplyPatch(bob, MakePatch(alice, bob_has)).has_value());
  EXPECT_EQ(bob.Text(), "base12");
}

TEST(Patch, RejectsCorruptBytes) {
  Doc alice("alice");
  alice.Insert(0, "content");
  Doc bob("bob");
  std::string patch = MakePatch(alice, SummarizeDoc(bob));
  for (size_t len = 1; len < patch.size(); len += 3) {
    std::string error;
    EXPECT_FALSE(ApplyPatch(bob, patch.substr(0, len), &error).has_value()) << len;
  }
  std::string mangled = patch;
  mangled[1] = 'X';
  EXPECT_FALSE(ApplyPatch(bob, mangled).has_value());
  EXPECT_EQ(bob.size(), 0u);
}

TEST(Patch, RejectsAgentTableListingANameTwice) {
  // The encoder never repeats a name, but a hostile patch can: "zed" (new
  // to bob) at table indexes 0 and 1, each with a run at seq 0..3. Applied
  // per index, the second run would append (zed, 0..3) a second time.
  Doc bob("bob");
  bob.Insert(0, "hi");
  // Magic, version, two names, two chunks.
  std::string patch = std::string("EGWP\x01\x02", 6) + "\x03zed\x03zed\x02";
  for (char agent : {'\0', '\1'}) {
    // Insert flags, agent, seq 0, 4 events, no parents, pos 0, 4 text bytes.
    patch += std::string({'\0', agent, '\0', '\4', '\0', '\0', '\4'}) + "abcd";
  }
  ASSERT_TRUE(DecodePatch(patch).has_value());
  std::string error;
  EXPECT_FALSE(ApplyPatch(bob, patch, &error).has_value());
  EXPECT_EQ(error, "batch lists an agent name twice");
  EXPECT_EQ(bob.graph().size(), 2u);
  EXPECT_FALSE(bob.graph().FindAgent("zed").has_value());
  EXPECT_EQ(bob.Text(), "hi");
}

TEST(Patch, ApplyingTwiceIsIdempotent) {
  Doc alice("alice");
  alice.Insert(0, "once");
  Doc bob("bob");
  std::string patch = MakePatch(alice, SummarizeDoc(bob));
  ASSERT_TRUE(ApplyPatch(bob, patch).has_value());
  auto again = ApplyPatch(bob, patch);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(*again, 0u);
  EXPECT_EQ(bob.Text(), "once");
}

TEST(Patch, RandomisedPatchOnlyGossipConverges) {
  for (uint64_t seed = 201; seed <= 208; ++seed) {
    Prng rng(seed);
    std::vector<Doc> peers;
    for (int i = 0; i < 3; ++i) {
      peers.emplace_back("p" + std::to_string(i));
    }
    peers[0].Insert(0, "root ");
    for (int i = 1; i < 3; ++i) {
      std::string boot = MakePatch(peers[0], SummarizeDoc(peers[i]));
      ASSERT_TRUE(ApplyPatch(peers[i], boot).has_value());
    }
    for (int step = 0; step < 120; ++step) {
      Doc& d = peers[rng.Below(3)];
      if (d.size() > 6 && rng.Chance(0.3)) {
        uint64_t pos = rng.Below(d.size() - 1);
        d.Delete(pos, 1 + rng.Below(2));
      } else {
        std::string text(1 + rng.Below(4), static_cast<char>('a' + rng.Below(26)));
        d.Insert(rng.Below(d.size() + 1), text);
      }
      if (rng.Chance(0.3)) {
        size_t from = rng.Below(3);
        size_t to = rng.Below(3);
        if (from != to) {
          std::string patch = MakePatch(peers[from], SummarizeDoc(peers[to]));
          ASSERT_TRUE(ApplyPatch(peers[to], patch).has_value()) << "seed " << seed;
        }
      }
    }
    for (int sweep = 0; sweep < 2; ++sweep) {
      for (size_t i = 0; i < 3; ++i) {
        for (size_t j = 0; j < 3; ++j) {
          if (i != j) {
            std::string patch = MakePatch(peers[i], SummarizeDoc(peers[j]));
            ASSERT_TRUE(ApplyPatch(peers[j], patch).has_value());
          }
        }
      }
    }
    EXPECT_EQ(peers[0].Text(), peers[1].Text()) << "seed " << seed;
    EXPECT_EQ(peers[1].Text(), peers[2].Text()) << "seed " << seed;
  }
}

TEST(Patch, AdversarialDeliveryNeverHalfApplies) {
  // Fuzz the causal-closure gate: patches built against stale summaries
  // (massive duplication), against artificially advanced summaries
  // (causally premature by construction), delivered out of order and more
  // than once. Invariant: ApplyPatch either applies cleanly or leaves the
  // document byte-identical — text, event count, and summary all unchanged
  // on rejection; duplicates merge zero events; and the replicas still
  // converge once real deltas flow.
  for (uint64_t seed = 501; seed <= 506; ++seed) {
    Prng rng(seed);
    std::vector<Doc> peers;
    for (int i = 0; i < 3; ++i) {
      peers.emplace_back("p" + std::to_string(i));
    }
    peers[0].Insert(0, "seed text ");
    for (int i = 1; i < 3; ++i) {
      ASSERT_TRUE(ApplyPatch(peers[i], MakePatch(peers[0], SummarizeDoc(peers[i]))).has_value());
    }

    // In-flight patches (reordering: random pick; duplication: not removed
    // on delivery half the time) and a history of stale summaries.
    struct Flight {
      size_t to;
      std::string patch;
    };
    std::vector<Flight> flights;
    std::vector<VersionSummary> stale;
    uint64_t rejections = 0;

    for (int step = 0; step < 300; ++step) {
      size_t actor = rng.Below(3);
      Doc& doc = peers[actor];
      switch (rng.Below(6)) {
        case 0:
        case 1: {  // Edit.
          if (doc.size() > 4 && rng.Chance(0.3)) {
            doc.Delete(rng.Below(doc.size() - 1), 1);
          } else {
            std::string text(1 + rng.Below(3), static_cast<char>('a' + rng.Below(26)));
            doc.Insert(rng.Below(doc.size() + 1), text);
          }
          break;
        }
        case 2: {  // Record a summary for later (it will go stale).
          stale.push_back(SummarizeDoc(doc));
          break;
        }
        case 3: {  // Send a patch against a stale (or fresh) summary.
          size_t to = rng.Below(3);
          if (to == actor) {
            break;
          }
          VersionSummary base = (!stale.empty() && rng.Chance(0.6))
                                    ? stale[rng.Below(stale.size())]
                                    : SummarizeDoc(peers[to]);
          std::string patch = MakePatch(doc, base);
          if (!patch.empty()) {
            flights.push_back({to, std::move(patch)});
          }
          break;
        }
        case 4: {  // Send a causally premature patch: pretend the receiver
                   // is ahead of everyone, so the patch has gaps.
          size_t to = rng.Below(3);
          if (to == actor) {
            break;
          }
          VersionSummary advanced = SummarizeDoc(peers[to]);
          bool inflated = false;
          for (auto& [agent, count] : advanced.agents) {
            if (SummarizeDoc(doc).agents.count(agent) != 0 &&
                SummarizeDoc(doc).agents.at(agent) > count + 1) {
              count += 1 + rng.Below(2);  // Claim events the receiver lacks.
              inflated = true;
            }
          }
          std::string patch = MakePatch(doc, advanced);
          if (inflated && !patch.empty()) {
            flights.push_back({to, std::move(patch)});
          }
          break;
        }
        case 5: {  // Deliver a random in-flight patch (reordered); keep it
                   // around half the time (duplication).
          if (flights.empty()) {
            break;
          }
          size_t pick = rng.Below(flights.size());
          Doc& target = peers[flights[pick].to];
          std::string before_text = target.Text();
          uint64_t before_events = target.graph().size();
          VersionSummary before_summary = SummarizeDoc(target);
          auto merged = ApplyPatch(target, flights[pick].patch);
          if (!merged.has_value()) {
            ++rejections;
            // The whole point: rejection is all-or-nothing.
            ASSERT_EQ(target.Text(), before_text) << "seed " << seed;
            ASSERT_EQ(target.graph().size(), before_events) << "seed " << seed;
            ASSERT_EQ(SummarizeDoc(target), before_summary) << "seed " << seed;
          } else {
            ASSERT_GE(target.graph().size(), before_events);
          }
          if (rng.Chance(0.5)) {
            flights.erase(flights.begin() + static_cast<long>(pick));
          }
          break;
        }
      }
    }
    EXPECT_GT(rejections, 0u) << "seed " << seed;  // The adversary showed up.

    // Clean final exchange: everyone converges despite the chaos above.
    for (int sweep = 0; sweep < 3; ++sweep) {
      for (size_t i = 0; i < 3; ++i) {
        for (size_t j = 0; j < 3; ++j) {
          if (i != j) {
            ASSERT_TRUE(
                ApplyPatch(peers[j], MakePatch(peers[i], SummarizeDoc(peers[j]))).has_value());
          }
        }
      }
    }
    EXPECT_EQ(peers[0].Text(), peers[1].Text()) << "seed " << seed;
    EXPECT_EQ(peers[1].Text(), peers[2].Text()) << "seed " << seed;
  }
}

TEST(Patch, DuplicateAndInterleavedDeliveryIsIdempotent) {
  // The same patch applied repeatedly, interleaved with other patches that
  // partially overlap it, must merge each event exactly once.
  Doc alice("alice");
  Doc bob("bob");
  alice.Insert(0, "shared base. ");
  ASSERT_TRUE(ApplyPatch(bob, MakePatch(alice, SummarizeDoc(bob))).has_value());
  alice.Insert(13, "one ");
  std::string patch1 = MakePatch(alice, SummarizeDoc(bob));
  alice.Insert(17, "two ");
  std::string patch2 = MakePatch(alice, SummarizeDoc(bob));  // Overlaps patch1.
  bob.Insert(0, "bob! ");
  std::string patch_b = MakePatch(bob, SummarizeDoc(alice));

  ASSERT_TRUE(ApplyPatch(bob, patch1).has_value());
  auto again = ApplyPatch(bob, patch1);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(*again, 0u);
  auto overlap = ApplyPatch(bob, patch2);  // Brings only the new run.
  ASSERT_TRUE(overlap.has_value());
  EXPECT_EQ(*overlap, 4u);
  ASSERT_TRUE(ApplyPatch(bob, patch2).has_value());
  ASSERT_TRUE(ApplyPatch(alice, patch_b).has_value());
  ASSERT_TRUE(ApplyPatch(alice, patch_b).has_value());
  EXPECT_EQ(alice.graph().size(), bob.graph().size());
  EXPECT_EQ(alice.Text(), bob.Text());
}

TEST(Patch, DeltaSizeIsProportionalToChanges) {
  Doc alice("alice");
  for (int i = 0; i < 200; ++i) {
    alice.Insert(alice.size(), "paragraph " + std::to_string(i) + "\n");
  }
  Doc bob("bob");
  bob.MergeFrom(alice);
  alice.Insert(0, "tiny");
  std::string delta = MakePatch(alice, SummarizeDoc(bob));
  std::string full = MakePatch(alice, VersionSummary{});
  EXPECT_LT(delta.size() * 20, full.size());
}

// A hub relaying for `width` writers. Each round every writer catches up
// and types one run concurrently with the others, the hub merges them all
// and types on top of the merge, so its last chunk has at least `width`
// parents. `reader` is left holding everything but that chunk.
class WideMerge {
 public:
  explicit WideMerge(int width) {
    hub.Insert(0, "shared base. ");
    for (int w = 0; w < width; ++w) {
      writers_.emplace_back("writer-" + std::to_string(w));
    }
  }

  void Round() {
    for (Doc& w : writers_) {
      ASSERT_TRUE(ApplyPatch(w, MakePatch(hub, SummarizeDoc(w))).has_value());
      w.Insert(w.size(), "typed by " + w.agent_name() + ". ");
    }
    for (Doc& w : writers_) {
      ASSERT_TRUE(ApplyPatch(hub, MakePatch(w, SummarizeDoc(hub))).has_value());
    }
    ASSERT_TRUE(ApplyPatch(reader, MakePatch(hub, SummarizeDoc(reader))).has_value());
    hub.Insert(0, "merged: ");
  }

  Doc hub{"hub"};
  Doc reader{"reader"};

 private:
  std::vector<Doc> writers_;
};

TEST(PatchAllocations, CodecDoesNotGrowWithParentsPerChunk) {
  // The codec's allocation contract (sync/patch.h): a fixed handful of
  // buffers per call, however many parents a chunk has. Before it, every
  // parent cost hash-node allocations on both sides. The second round is
  // measured: the first grows the graph's and walker's reusable scratch
  // buffers to this width.
  const int widths[2] = {4, 32};
  size_t encode[2], decode[2], duplicate[2], apply[2];
  for (int i = 0; i < 2; ++i) {
    WideMerge m(widths[i]);
    for (int round = 0; round < 2; ++round) {
      m.Round();
      VersionSummary they_have = SummarizeDoc(m.reader);
      size_t before = memtrack::TotalAllocations();
      std::string patch = MakePatch(m.hub, they_have);
      encode[i] = memtrack::TotalAllocations() - before;

      before = memtrack::TotalAllocations();
      auto batch = DecodePatch(patch);
      decode[i] = memtrack::TotalAllocations() - before;
      ASSERT_TRUE(batch.has_value());
      ASSERT_EQ(batch->runs.size(), 1u);
      EXPECT_GE(batch->runs[0].parents_end - batch->runs[0].parents_begin,
                static_cast<size_t>(widths[i]));

      before = memtrack::TotalAllocations();
      auto merged = ApplyPatch(m.reader, patch);
      apply[i] = memtrack::TotalAllocations() - before;
      ASSERT_EQ(merged, 8u);
      EXPECT_EQ(m.reader.Text(), m.hub.Text());

      // A duplicate delivery: decode, the agent-table check, validation and
      // the append pass's known-run skip, with no graph or walker work
      // behind them.
      before = memtrack::TotalAllocations();
      merged = ApplyPatch(m.reader, patch);
      duplicate[i] = memtrack::TotalAllocations() - before;
      ASSERT_EQ(merged, 0u);
    }
  }
  EXPECT_EQ(encode[1], encode[0]);
  EXPECT_LE(encode[1], 6u);
  EXPECT_EQ(decode[1], decode[0]);
  EXPECT_LE(decode[1], 3u);
  EXPECT_EQ(duplicate[1], duplicate[0]);
  EXPECT_LE(duplicate[1], 7u);
  // A fresh delivery adds Graph::Add and the walker's merge. Both are
  // bounded too; only the walker's retreat/advance diff lists grow (by
  // doubling) with the number of concurrent runs it has to advance.
  EXPECT_LE(apply[0], 40u);
  EXPECT_LE(apply[1], 40u);
}

TEST(PatchGolden, EncoderReproducesRecordedBytes) {
  // patch_exchange.fnv64 pins the wire bytes an earlier encoder wrote for
  // the 32-writer exchange of golden/patch_script.h (tests/golden/README.md).
  // MakePatch and MakePatchReference share one encoder, so their byte
  // differential cannot catch an encoder change; this can.
  struct Recorded {
    size_t bytes;
    uint64_t fnv;
  };
  std::vector<Recorded> recorded;
  std::istringstream in(golden::ReadFixture("patch_exchange.fnv64"));
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    uint64_t index = 0;
    Recorded r{};
    ASSERT_EQ(std::sscanf(line.c_str(), "%" SCNu64 " %zu %" SCNx64, &index, &r.bytes, &r.fnv), 3);
    ASSERT_EQ(index, recorded.size());
    recorded.push_back(r);
  }
  ASSERT_GT(recorded.size(), 300u);

  size_t next = 0;
  uint64_t multi_parent = 0, split_run = 0, backspace = 0, multibyte = 0;
  std::vector<Doc> writers =
      golden::RunPatchExchange([&](const Doc& from, const VersionSummary& they_have) {
        std::string patch = MakePatch(from, they_have);
        EXPECT_EQ(patch, MakePatchReference(from, they_have));
        EXPECT_LT(next, recorded.size());
        if (next < recorded.size()) {
          EXPECT_EQ(patch.size(), recorded[next].bytes) << "patch " << next;
          EXPECT_EQ(golden::Fnv1a64(patch), recorded[next].fnv) << "patch " << next;
        }
        ++next;
        if (auto batch = DecodePatch(patch)) {
          for (const RemoteBatch::Run& r : batch->runs) {
            size_t parents = r.chain_previous ? 0 : r.parents_end - r.parents_begin;
            multi_parent += parents >= 2;
            if (parents == 1) {
              const RemoteBatch::Parent& p = batch->parents[r.parents_begin];
              split_run += p.agent == r.agent && p.seq + 1 == r.seq_start;
            }
            backspace += r.kind == OpKind::kDelete && !r.fwd;
            multibyte += Utf8CountChars(r.text) != r.text.size();
          }
        }
        return patch;
      });
  EXPECT_EQ(next, recorded.size());
  // The exchange exercises every encoder path the fixture is meant to pin.
  EXPECT_GT(multi_parent, 0u);
  EXPECT_GT(split_run, 0u);
  EXPECT_GT(backspace, 0u);
  EXPECT_GT(multibyte, 0u);
  for (const Doc& w : writers) {
    EXPECT_EQ(w.Text(), writers[0].Text());
  }
}

}  // namespace
}  // namespace egwalker
