// Tests for the public Doc API: local editing, incremental merging between
// replicas, time travel, and persistence.

#include "core/doc.h"

#include <gtest/gtest.h>

#include <set>

#include "util/prng.h"

namespace egwalker {
namespace {

// Versions are replica-local LVs; to compare versions across replicas,
// translate them to interchange (agent, seq) ids.
std::set<std::pair<std::string, uint64_t>> RawVersionOf(const Doc& doc) {
  std::set<std::pair<std::string, uint64_t>> out;
  for (Lv v : doc.version()) {
    RawVersion rv = doc.graph().LvToRaw(v);
    out.emplace(rv.agent, rv.seq);
  }
  return out;
}

TEST(Doc, LocalEditing) {
  Doc doc("alice");
  doc.Insert(0, "hello");
  doc.Insert(5, " world");
  doc.Delete(0, 1);
  doc.Insert(0, "H");
  EXPECT_EQ(doc.Text(), "Hello world");
  EXPECT_EQ(doc.size(), 11u);
  EXPECT_EQ(doc.graph().size(), 13u);
}

TEST(Doc, MergeSequentialCatchUp) {
  Doc alice("alice");
  alice.Insert(0, "shared state");
  Doc bob("bob");
  EXPECT_EQ(bob.MergeFrom(alice), 12u);
  EXPECT_EQ(bob.Text(), "shared state");
  // Bob continues; alice catches up.
  bob.Insert(12, "!");
  EXPECT_EQ(alice.MergeFrom(bob), 1u);
  EXPECT_EQ(alice.Text(), "shared state!");
  // Merging again is a no-op.
  EXPECT_EQ(alice.MergeFrom(bob), 0u);
  EXPECT_EQ(bob.MergeFrom(alice), 0u);
}

TEST(Doc, MergeFigure1) {
  Doc user1("user1");
  user1.Insert(0, "Helo");
  Doc user2("user2");
  user2.MergeFrom(user1);
  user1.Insert(3, "l");
  user2.Insert(4, "!");
  user1.MergeFrom(user2);
  user2.MergeFrom(user1);
  EXPECT_EQ(user1.Text(), "Hello!");
  EXPECT_EQ(user2.Text(), "Hello!");
}

TEST(Doc, OfflineDivergenceConverges) {
  Doc alice("alice");
  alice.Insert(0, "The document begins here. The document ends here.");
  Doc bob("bob");
  bob.MergeFrom(alice);

  // Long offline editing on both sides.
  for (int i = 0; i < 20; ++i) {
    alice.Insert(alice.size() / 2, "alice-" + std::to_string(i) + " ");
    if (alice.size() > 30) {
      alice.Delete(3, 2);
    }
    bob.Insert(0, "bob-" + std::to_string(i) + " ");
    if (bob.size() > 25) {
      bob.Delete(bob.size() - 5, 3);
    }
  }
  alice.MergeFrom(bob);
  bob.MergeFrom(alice);
  EXPECT_EQ(alice.Text(), bob.Text());
  EXPECT_EQ(RawVersionOf(alice), RawVersionOf(bob));
}

TEST(Doc, ThreeReplicasGossip) {
  Doc a("a"), b("b"), c("c");
  a.Insert(0, "root ");
  b.MergeFrom(a);
  c.MergeFrom(a);
  a.Insert(5, "from-a");
  b.Insert(0, "from-b ");
  c.Insert(0, "from-c ");
  // Gossip in a ring until stable.
  for (int round = 0; round < 3; ++round) {
    b.MergeFrom(a);
    c.MergeFrom(b);
    a.MergeFrom(c);
  }
  EXPECT_EQ(a.Text(), b.Text());
  EXPECT_EQ(b.Text(), c.Text());
  EXPECT_EQ(RawVersionOf(a), RawVersionOf(c));
}

TEST(Doc, MergeIsIncrementalAfterCriticalVersions) {
  Doc alice("alice");
  Doc bob("bob");
  // Large shared prefix (many critical versions), then a small divergence.
  for (int i = 0; i < 50; ++i) {
    alice.Insert(alice.size(), "paragraph " + std::to_string(i) + "\n");
  }
  bob.MergeFrom(alice);
  alice.Insert(0, "A");
  bob.Insert(bob.size(), "B");
  alice.MergeFrom(bob);
  bob.MergeFrom(alice);
  EXPECT_EQ(alice.Text(), bob.Text());
}

TEST(Doc, RandomisedPairwiseConvergence) {
  for (uint64_t seed = 81; seed <= 86; ++seed) {
    Prng rng(seed);
    Doc a("a"), b("b");
    a.Insert(0, "seed");
    b.MergeFrom(a);
    for (int step = 0; step < 60; ++step) {
      Doc& d = rng.Chance(0.5) ? a : b;
      if (d.size() > 2 && rng.Chance(0.3)) {
        uint64_t pos = rng.Below(d.size() - 1);
        d.Delete(pos, 1 + rng.Below(std::min<uint64_t>(d.size() - pos, 3)));
      } else {
        std::string text;
        for (uint64_t n = 1 + rng.Below(5); n > 0; --n) {
          text.push_back(static_cast<char>('a' + rng.Below(26)));
        }
        d.Insert(rng.Below(d.size() + 1), text);
      }
      if (rng.Chance(0.2)) {
        a.MergeFrom(b);
      }
      if (rng.Chance(0.2)) {
        b.MergeFrom(a);
      }
    }
    a.MergeFrom(b);
    b.MergeFrom(a);
    EXPECT_EQ(a.Text(), b.Text()) << "seed " << seed;
  }
}

TEST(Doc, RandomisedThreeWayGossipConvergence) {
  // Regression: three-peer gossip once produced a partial-replay base that
  // did not dominate chunks merged earlier from a third replica (candidate
  // domination was only checked against coalesced span starts).
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Prng rng(seed);
    std::vector<Doc> peers;
    for (int i = 0; i < 3; ++i) {
      peers.emplace_back("p" + std::to_string(i));
    }
    peers[0].Insert(0, "seed ");
    peers[1].MergeFrom(peers[0]);
    peers[2].MergeFrom(peers[0]);
    for (int tick = 0; tick < 30; ++tick) {
      for (size_t i = 0; i < peers.size(); ++i) {
        if (!rng.Chance(0.7)) {
          continue;
        }
        Doc& d = peers[i];
        if (d.size() > 10 && rng.Chance(0.2)) {
          uint64_t pos = rng.Below(d.size() - 1);
          d.Delete(pos, 1 + rng.Below(2));
        } else {
          std::string burst(1 + rng.Below(4), static_cast<char>('a' + i));
          d.Insert(rng.Below(d.size() + 1), burst);
        }
        size_t to = rng.Below(peers.size());
        if (to != i) {
          peers[to].MergeFrom(peers[i]);
        }
      }
    }
    for (int sweep = 0; sweep < 2; ++sweep) {
      for (size_t i = 0; i < peers.size(); ++i) {
        for (size_t j = 0; j < peers.size(); ++j) {
          if (i != j) {
            peers[i].MergeFrom(peers[j]);
          }
        }
      }
    }
    EXPECT_EQ(peers[0].Text(), peers[1].Text()) << "seed " << seed;
    EXPECT_EQ(peers[1].Text(), peers[2].Text()) << "seed " << seed;
  }
}

// Differential universes: the identical randomized three-peer gossip script
// run once with persistent walker sessions and once with a fresh walker per
// merge must produce byte-identical documents at every comparison point,
// while the session universe replays strictly fewer events (proving the
// sessions actually engaged).
TEST(Doc, SessionUniverseMatchesFreshWalkerUniverse) {
  for (uint64_t seed = 301; seed <= 308; ++seed) {
    std::vector<std::vector<Doc>> universes;
    for (bool sessions : {true, false}) {
      Prng rng(seed);  // Same stream for both universes.
      std::vector<Doc> peers;
      for (int i = 0; i < 3; ++i) {
        peers.emplace_back("p" + std::to_string(i));
        peers.back().set_merge_sessions(sessions);
      }
      peers[0].Insert(0, "seed ");
      peers[1].MergeFrom(peers[0]);
      peers[2].MergeFrom(peers[0]);
      for (int tick = 0; tick < 40; ++tick) {
        for (size_t i = 0; i < peers.size(); ++i) {
          if (!rng.Chance(0.7)) {
            continue;
          }
          Doc& d = peers[i];
          if (d.size() > 10 && rng.Chance(0.25)) {
            uint64_t pos = rng.Below(d.size() - 1);
            d.Delete(pos, 1 + rng.Below(2));
          } else {
            std::string burst(1 + rng.Below(4), static_cast<char>('a' + i));
            d.Insert(rng.Below(d.size() + 1), burst);
          }
          size_t to = rng.Below(peers.size());
          if (to != i) {
            peers[to].MergeFrom(peers[i]);
          }
        }
      }
      for (int sweep = 0; sweep < 2; ++sweep) {
        for (size_t i = 0; i < peers.size(); ++i) {
          for (size_t j = 0; j < peers.size(); ++j) {
            if (i != j) {
              peers[i].MergeFrom(peers[j]);
            }
          }
        }
      }
      universes.push_back(std::move(peers));
    }
    uint64_t replayed_on = 0;
    uint64_t replayed_off = 0;
    for (size_t i = 0; i < 3; ++i) {
      ASSERT_EQ(universes[0][i].Text(), universes[1][i].Text())
          << "seed " << seed << " peer " << i;
      ASSERT_EQ(universes[0][i].end_lv(), universes[1][i].end_lv())
          << "seed " << seed << " peer " << i;
      replayed_on += universes[0][i].replayed_events();
      replayed_off += universes[1][i].replayed_events();
      EXPECT_TRUE(universes[0][i].merge_session_active()) << "seed " << seed;
      EXPECT_FALSE(universes[1][i].merge_session_active()) << "seed " << seed;
    }
    EXPECT_LT(replayed_on, replayed_off) << "seed " << seed;
  }
}

// An "editor buffer" driven purely by the change feed: if the listener
// contract holds, this shadow copy tracks the document exactly.
struct ShadowBuffer {
  Rope rope;
  static void OnChange(const XfOp& op, void* ctx) {
    auto* self = static_cast<ShadowBuffer*>(ctx);
    if (op.kind == OpKind::kInsert) {
      self->rope.InsertAt(op.pos, op.text);
    } else {
      self->rope.RemoveAt(op.pos, op.count);
    }
  }
};

TEST(Doc, ChangeListenerKeepsEditorBufferInSync) {
  Doc alice("alice");
  Doc bob("bob");
  alice.Insert(0, "shared document");
  bob.MergeFrom(alice);

  ShadowBuffer editor;  // Bob's editor buffer, fed only by the listener...
  editor.rope.InsertAt(0, bob.Text());
  bob.SetChangeListener(&ShadowBuffer::OnChange, &editor);

  // Remote edits arrive via merge: the editor hears about them.
  alice.Insert(6, " and versioned");
  alice.Delete(0, 7);
  bob.MergeFrom(alice);
  EXPECT_EQ(editor.rope.ToString(), bob.Text());

  // Local edits do not notify — the editor itself made them.
  bob.Insert(0, "> ");
  editor.rope.InsertAt(0, "> ");
  EXPECT_EQ(editor.rope.ToString(), bob.Text());

  // Concurrent two-way divergence still keeps the shadow in sync.
  alice.Insert(alice.size(), "!");
  bob.Delete(2, 3);
  editor.rope.RemoveAt(2, 3);
  bob.MergeFrom(alice);
  alice.MergeFrom(bob);
  EXPECT_EQ(editor.rope.ToString(), bob.Text());
  EXPECT_EQ(alice.Text(), bob.Text());
}

TEST(Doc, ChangeListenerRandomisedShadowStaysInSync) {
  for (uint64_t seed = 301; seed <= 306; ++seed) {
    Prng rng(seed);
    Doc alice("alice");
    Doc bob("bob");
    alice.Insert(0, "origin ");
    bob.MergeFrom(alice);
    ShadowBuffer editor;
    editor.rope.InsertAt(0, bob.Text());
    bob.SetChangeListener(&ShadowBuffer::OnChange, &editor);
    for (int step = 0; step < 50; ++step) {
      // Alice edits remotely.
      if (alice.size() > 4 && rng.Chance(0.3)) {
        uint64_t pos = rng.Below(alice.size() - 1);
        alice.Delete(pos, 1 + rng.Below(2));
      } else {
        std::string text(1 + rng.Below(4), static_cast<char>('a' + rng.Below(26)));
        alice.Insert(rng.Below(alice.size() + 1), text);
      }
      // Bob edits locally (mirroring into his own editor state).
      if (rng.Chance(0.5)) {
        std::string text(1 + rng.Below(3), 'B');
        uint64_t pos = rng.Below(bob.size() + 1);
        bob.Insert(pos, text);
        editor.rope.InsertAt(pos, text);
      }
      if (rng.Chance(0.4)) {
        bob.MergeFrom(alice);
        ASSERT_EQ(editor.rope.ToString(), bob.Text()) << "seed " << seed << " step " << step;
      }
      if (rng.Chance(0.3)) {
        alice.MergeFrom(bob);
      }
    }
    bob.MergeFrom(alice);
    EXPECT_EQ(editor.rope.ToString(), bob.Text()) << "seed " << seed;
  }
}

TEST(Doc, TextAtTimeTravel) {
  Doc doc("alice");
  doc.Insert(0, "v1");
  Frontier v1 = doc.version();
  doc.Insert(2, " v2");
  Frontier v2 = doc.version();
  doc.Delete(0, 2);
  EXPECT_EQ(doc.Text(), " v2");
  EXPECT_EQ(doc.TextAt(v1), "v1");
  EXPECT_EQ(doc.TextAt(v2), "v1 v2");
  EXPECT_EQ(doc.TextAt({}), "");
  EXPECT_EQ(doc.TextAt(doc.version()), doc.Text());
}

TEST(Doc, SaveLoadRoundTrip) {
  Doc doc("alice");
  doc.Insert(0, "persistent content");
  doc.Delete(0, 4);
  std::string bytes = doc.Save();
  auto loaded = Doc::Load(bytes, "alice");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->Text(), doc.Text());
  EXPECT_EQ(loaded->version(), doc.version());
  // The loaded replica can continue editing without id collisions.
  loaded->Insert(0, ">");
  EXPECT_EQ(loaded->Text(), ">istent content");
}

TEST(Doc, SaveWithCachedDocLoadsWithoutReplay) {
  Doc doc("alice");
  for (int i = 0; i < 30; ++i) {
    doc.Insert(doc.size(), "block " + std::to_string(i) + " ");
  }
  SaveOptions opts;
  opts.cache_final_doc = true;
  std::string bytes = doc.Save(opts);
  auto loaded = Doc::Load(bytes, "alice");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->Text(), doc.Text());
}

TEST(Doc, LoadedDocMergesWithPeers) {
  Doc alice("alice");
  alice.Insert(0, "document body");
  std::string bytes = alice.Save();
  auto bob = Doc::Load(bytes, "bob");
  ASSERT_TRUE(bob.has_value());
  bob->Insert(0, "> ");
  alice.Insert(alice.size(), " <");
  alice.MergeFrom(*bob);
  bob->MergeFrom(alice);
  EXPECT_EQ(alice.Text(), bob->Text());
  EXPECT_EQ(alice.Text(), "> document body <");
}

TEST(Doc, ApplyRemoteBatchValidatesBeforeTouchingAnything) {
  Doc doc("local");
  doc.Insert(0, "base");
  std::string before = doc.Text();

  auto expect_rejected = [&](const RemoteBatch& batch, const char* why) {
    std::string error;
    EXPECT_FALSE(doc.ApplyRemoteBatch(batch, &error).has_value()) << why;
    EXPECT_FALSE(error.empty()) << why;
    EXPECT_EQ(doc.Text(), before) << why;  // Never half-applied.
    EXPECT_FALSE(doc.graph().FindAgent("remote").has_value()) << why;
  };

  // One run: "remote" inserts "ab" at 0 after (local, 3).
  RemoteBatch good;
  good.agents = {"remote", "local"};
  good.parents = {{1, 3}};
  RemoteBatch::Run run;
  run.agent = 0;
  run.seq_start = 0;
  run.count = 2;
  run.parents_begin = 0;
  run.parents_end = 1;
  run.kind = OpKind::kInsert;
  run.pos = 0;
  run.text = "ab";
  good.runs = {run};

  RemoteBatch empty = good;
  empty.runs[0].count = 0;
  empty.runs[0].text = "";
  expect_rejected(empty, "empty run");

  RemoteBatch mismatch = good;
  mismatch.runs[0].text = "abc";  // 3 chars, count 2.
  expect_rejected(mismatch, "text/count mismatch");

  RemoteBatch unknown_parent = good;
  unknown_parent.agents.push_back("nobody");
  unknown_parent.parents = {{2, 9}};
  expect_rejected(unknown_parent, "unknown parent");

  RemoteBatch chain_first = good;
  chain_first.runs[0].chain_previous = true;
  expect_rejected(chain_first, "first run cannot chain");

  RemoteBatch bad_backspace = good;
  bad_backspace.runs[0].kind = OpKind::kDelete;
  bad_backspace.runs[0].fwd = false;
  bad_backspace.runs[0].pos = 0;  // Two backspaces from position 0 underflow.
  bad_backspace.runs[0].text = "";
  expect_rejected(bad_backspace, "backspace underflow");

  // The well-formed run applies, chained with a second.
  RemoteBatch::Run second;
  second.agent = 0;
  second.seq_start = 2;
  second.count = 1;
  second.chain_previous = true;
  second.kind = OpKind::kInsert;
  second.pos = 2;
  second.text = "c";
  good.runs.push_back(second);
  auto merged = doc.ApplyRemoteBatch(good);
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(*merged, 3u);
  EXPECT_EQ(doc.Text(), "abcbase");
}

TEST(Doc, ApplyRemoteBatchAcceptsForwardReferencesWithinBatch) {
  // A run may reference a parent provided by an earlier run of the same
  // batch, even though it is unknown before the batch starts.
  Doc doc("local");
  doc.Insert(0, "x");
  RemoteBatch batch;
  batch.agents = {"peer", "local", "peer2"};
  batch.parents = {{1, 0}, {0, 0}};  // (local, 0), then (peer, 0).
  RemoteBatch::Run first;
  first.agent = 0;
  first.seq_start = 0;
  first.count = 1;
  first.parents_begin = 0;
  first.parents_end = 1;
  first.kind = OpKind::kInsert;
  first.pos = 1;
  first.text = "y";
  RemoteBatch::Run second;
  second.agent = 2;
  second.seq_start = 0;
  second.count = 1;
  second.parents_begin = 1;
  second.parents_end = 2;  // (peer, 0): provided by `first`.
  second.kind = OpKind::kInsert;
  second.pos = 2;
  second.text = "z";
  batch.runs = {first, second};
  auto merged = doc.ApplyRemoteBatch(batch);
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(doc.Text(), "xyz");
}

TEST(Doc, LoadRejectsGarbage) {
  std::string error;
  EXPECT_FALSE(Doc::Load("garbage", "x", &error).has_value());
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace egwalker
