// Tests for the causal event graph: structure bookkeeping, identity
// mapping, and — via randomised differential tests against brute-force
// ancestor sets — the version queries (IsAncestor, VersionContains, Diff,
// EventsOf, Reduce) that everything else builds on.

#include "graph/graph.h"

#include <gtest/gtest.h>

#include <set>

#include "util/prng.h"

namespace egwalker {
namespace {

// Brute-force transitive closure of a version, one event at a time.
std::set<Lv> BruteClosure(const Graph& g, const Frontier& frontier) {
  std::set<Lv> out;
  std::vector<Lv> stack(frontier.begin(), frontier.end());
  while (!stack.empty()) {
    Lv v = stack.back();
    stack.pop_back();
    if (!out.insert(v).second) {
      continue;
    }
    for (Lv p : g.ParentsOf(v)) {
      stack.push_back(p);
    }
  }
  return out;
}

std::set<Lv> SpansToSet(const std::vector<LvSpan>& spans) {
  std::set<Lv> out;
  for (const LvSpan& s : spans) {
    for (Lv v = s.start; v < s.end; ++v) {
      out.insert(v);
    }
  }
  return out;
}

// Builds a random DAG: runs of events whose parents are a random antichain
// of existing events. Returns the graph; shape controlled by seed.
Graph RandomGraph(uint64_t seed, int runs, uint64_t max_run_len = 5) {
  Graph g;
  Prng rng(seed);
  AgentId agents[3] = {g.GetOrCreateAgent("a"), g.GetOrCreateAgent("b"), g.GetOrCreateAgent("c")};
  std::vector<uint64_t> next_seq(3, 0);
  for (int r = 0; r < runs; ++r) {
    Frontier parents;
    if (g.size() > 0) {
      int k = 1 + static_cast<int>(rng.Below(3));
      for (int i = 0; i < k; ++i) {
        FrontierInsert(parents, rng.Below(g.size()));
      }
      parents = g.Reduce(parents);
      if (rng.Chance(0.2)) {
        parents.clear();  // Occasional new root (fully concurrent branch).
      }
    }
    uint64_t len = 1 + rng.Below(max_run_len);
    size_t a = rng.Below(3);
    g.Add(agents[a], next_seq[a], len, parents);
    next_seq[a] += len;
  }
  return g;
}

TEST(Graph, EmptyGraph) {
  Graph g;
  EXPECT_TRUE(g.empty());
  EXPECT_EQ(g.size(), 0u);
  EXPECT_TRUE(g.version().empty());
}

TEST(Graph, LinearChainIsOneEntry) {
  Graph g;
  AgentId a = g.GetOrCreateAgent("alice");
  Lv first = g.Add(a, 0, 10, {});
  EXPECT_EQ(first, 0u);
  Lv second = g.Add(a, 10, 5, {9});
  EXPECT_EQ(second, 10u);
  EXPECT_EQ(g.entry_count(), 1u);  // Chained runs merge.
  EXPECT_EQ(g.version(), (Frontier{14}));
  EXPECT_EQ(g.ParentsOf(0), Frontier{});
  EXPECT_EQ(g.ParentsOf(7), (Frontier{6}));
  EXPECT_EQ(g.ParentsOf(10), (Frontier{9}));
}

TEST(Graph, BranchAndMerge) {
  // 0..2 (a), then two concurrent branches 3..4 (b) and 5..6 (c), merged by 7.
  Graph g;
  AgentId a = g.GetOrCreateAgent("alice");
  AgentId b = g.GetOrCreateAgent("bob");
  AgentId c = g.GetOrCreateAgent("carol");
  g.Add(a, 0, 3, {});
  g.Add(b, 0, 2, {2});
  g.Add(c, 0, 2, {2});
  EXPECT_EQ(g.version(), (Frontier{4, 6}));
  g.Add(a, 3, 1, {4, 6});
  EXPECT_EQ(g.version(), (Frontier{7}));
  // Bob's branch chains linearly off event 2 (the previous LV), so it
  // run-length merges into alice's entry; carol's branch and the merge
  // event start fresh entries.
  EXPECT_EQ(g.entry_count(), 3u);

  EXPECT_TRUE(g.IsAncestor(2, 3));
  EXPECT_TRUE(g.IsAncestor(2, 5));
  EXPECT_TRUE(g.IsAncestor(0, 7));
  EXPECT_FALSE(g.IsAncestor(3, 5));
  EXPECT_FALSE(g.IsAncestor(5, 3));
  EXPECT_FALSE(g.IsAncestor(7, 6));
  EXPECT_TRUE(g.IsAncestor(4, 7));
}

TEST(Graph, FrontierOfConcurrentRoots) {
  Graph g;
  AgentId a = g.GetOrCreateAgent("alice");
  AgentId b = g.GetOrCreateAgent("bob");
  g.Add(a, 0, 2, {});
  g.Add(b, 0, 2, {});
  EXPECT_EQ(g.version(), (Frontier{1, 3}));
  EXPECT_FALSE(g.IsAncestor(0, 2));
  EXPECT_FALSE(g.IsAncestor(1, 3));
  EXPECT_TRUE(g.IsAncestor(0, 1));
}

TEST(Graph, RawVersionMapping) {
  Graph g;
  AgentId a = g.GetOrCreateAgent("alice");
  AgentId b = g.GetOrCreateAgent("bob");
  g.Add(a, 0, 5, {});
  g.Add(b, 10, 3, {4});
  g.Add(a, 5, 2, {7});

  EXPECT_EQ(g.LvToRaw(0), (RawVersion{"alice", 0}));
  EXPECT_EQ(g.LvToRaw(4), (RawVersion{"alice", 4}));
  EXPECT_EQ(g.LvToRaw(5), (RawVersion{"bob", 10}));
  EXPECT_EQ(g.LvToRaw(9), (RawVersion{"alice", 6}));

  EXPECT_EQ(g.RawToLv("alice", 3), 3u);
  EXPECT_EQ(g.RawToLv("bob", 12), 7u);
  EXPECT_EQ(g.RawToLv("alice", 6), 9u);
  EXPECT_EQ(g.RawToLv("bob", 0), kInvalidLv);
  EXPECT_EQ(g.RawToLv("nobody", 0), kInvalidLv);

  EXPECT_EQ(g.KnownRunLen("alice", 0), 5u);
  EXPECT_EQ(g.KnownRunLen("alice", 5), 2u);
  EXPECT_EQ(g.KnownRunLen("alice", 7), 0u);
  EXPECT_EQ(g.KnownRunLen("bob", 11), 2u);

  EXPECT_EQ(g.NextSeqFor(a), 7u);
  EXPECT_EQ(g.NextSeqFor(b), 13u);
}

TEST(Graph, CompareRawOrdersByAgentThenSeq) {
  Graph g;
  AgentId a = g.GetOrCreateAgent("alice");
  AgentId b = g.GetOrCreateAgent("bob");
  g.Add(a, 0, 2, {});
  g.Add(b, 0, 2, {});
  EXPECT_LT(g.CompareRaw(0, 2), 0);  // alice < bob.
  EXPECT_GT(g.CompareRaw(2, 0), 0);
  EXPECT_LT(g.CompareRaw(0, 1), 0);  // Same agent: by seq.
  EXPECT_EQ(g.CompareRaw(1, 1), 0);
}

TEST(Graph, DiffSimpleBranches) {
  Graph g;
  AgentId a = g.GetOrCreateAgent("a");
  AgentId b = g.GetOrCreateAgent("b");
  g.Add(a, 0, 3, {});     // 0 1 2
  g.Add(b, 0, 3, {2});    // 3 4 5
  g.Add(a, 3, 3, {2});    // 6 7 8

  DiffResult d = g.Diff({5}, {8});
  EXPECT_EQ(SpansToSet(d.only_a), (std::set<Lv>{3, 4, 5}));
  EXPECT_EQ(SpansToSet(d.only_b), (std::set<Lv>{6, 7, 8}));

  d = g.Diff({2}, {8});
  EXPECT_TRUE(d.only_a.empty());
  EXPECT_EQ(SpansToSet(d.only_b), (std::set<Lv>{6, 7, 8}));

  d = g.Diff({8}, {8});
  EXPECT_TRUE(d.only_a.empty());
  EXPECT_TRUE(d.only_b.empty());

  d = g.Diff({}, {2});
  EXPECT_TRUE(d.only_a.empty());
  EXPECT_EQ(SpansToSet(d.only_b), (std::set<Lv>{0, 1, 2}));
}

TEST(Graph, EventsOfClosure) {
  Graph g;
  AgentId a = g.GetOrCreateAgent("a");
  AgentId b = g.GetOrCreateAgent("b");
  g.Add(a, 0, 3, {});
  g.Add(b, 0, 2, {1});  // Forks from mid-run.
  EXPECT_EQ(SpansToSet(g.EventsOf({4})), (std::set<Lv>{0, 1, 3, 4}));
  EXPECT_EQ(SpansToSet(g.EventsOf({2, 4})), (std::set<Lv>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(g.EventsOf({}).empty());
}

TEST(Graph, ReduceRemovesDominated) {
  Graph g;
  AgentId a = g.GetOrCreateAgent("a");
  g.Add(a, 0, 5, {});
  EXPECT_EQ(g.Reduce({1, 3, 4}), (Frontier{4}));
  EXPECT_EQ(g.Reduce({2}), (Frontier{2}));
  AgentId b = g.GetOrCreateAgent("b");
  g.Add(b, 0, 2, {});  // Concurrent root: 5 6.
  EXPECT_EQ(g.Reduce({4, 6}), (Frontier{4, 6}));
  EXPECT_EQ(g.Reduce({1, 4, 5, 6}), (Frontier{4, 6}));
}

TEST(Graph, ReduceAndVersionContainsEdgeCases) {
  Graph g;
  // Empty graph / empty frontier.
  EXPECT_EQ(g.Reduce({}), Frontier{});
  EXPECT_FALSE(g.VersionContains({}, 0));

  // Single-root chain: every member of a frontier within one run is
  // dominated by the largest.
  AgentId a = g.GetOrCreateAgent("a");
  g.Add(a, 0, 6, {});
  EXPECT_EQ(g.Reduce({}), Frontier{});
  EXPECT_EQ(g.Reduce({0}), (Frontier{0}));
  EXPECT_EQ(g.Reduce({0, 1, 2, 3, 4, 5}), (Frontier{5}));
  EXPECT_TRUE(g.VersionContains({5}, 0));
  EXPECT_TRUE(g.VersionContains({5}, 5));
  EXPECT_FALSE(g.VersionContains({0}, 5));
  EXPECT_FALSE(g.VersionContains({}, 3));

  // Dominated members across a merge: 6,7 concurrent with the chain tail,
  // 8 merges {5, 7}.
  AgentId b = g.GetOrCreateAgent("b");
  g.Add(b, 0, 2, {2});  // 6 7, forked mid-run.
  g.Add(a, 6, 1, {5, 7});  // 8.
  EXPECT_EQ(g.Reduce({5, 7, 8}), (Frontier{8}));
  EXPECT_EQ(g.Reduce({4, 6}), (Frontier{4, 6}));  // Truly concurrent pair.
  EXPECT_EQ(g.Reduce({2, 4, 6}), (Frontier{4, 6}));
  EXPECT_TRUE(g.VersionContains({8}, 6));
  EXPECT_TRUE(g.VersionContains({8}, 4));
  EXPECT_FALSE(g.VersionContains({7}, 3));  // 3 is past the fork point.
  EXPECT_TRUE(g.VersionContains({7}, 2));
}

// --- Randomised differential tests -----------------------------------------

class GraphRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GraphRandomTest, VersionContainsMatchesBruteForce) {
  Graph g = RandomGraph(GetParam(), 40);
  Prng rng(GetParam() ^ 0xabc);
  for (int i = 0; i < 200; ++i) {
    Frontier f;
    int k = 1 + static_cast<int>(rng.Below(3));
    for (int j = 0; j < k; ++j) {
      FrontierInsert(f, rng.Below(g.size()));
    }
    std::set<Lv> closure = BruteClosure(g, f);
    Lv probe = rng.Below(g.size());
    EXPECT_EQ(g.VersionContains(f, probe), closure.count(probe) > 0)
        << "probe " << probe << " frontier " << FrontierToString(f);
  }
}

TEST_P(GraphRandomTest, IsAncestorMatchesBruteForce) {
  Graph g = RandomGraph(GetParam(), 30);
  for (Lv a = 0; a < g.size(); ++a) {
    std::set<Lv> up = BruteClosure(g, {a});
    for (Lv b = 0; b < g.size(); ++b) {
      bool expected = (b != a) && up.count(b) > 0;
      EXPECT_EQ(g.IsAncestor(b, a), expected) << b << " -> " << a;
    }
  }
}

TEST_P(GraphRandomTest, DiffMatchesBruteForce) {
  Graph g = RandomGraph(GetParam(), 40);
  Prng rng(GetParam() ^ 0xdef);
  for (int i = 0; i < 100; ++i) {
    Frontier fa, fb;
    for (uint64_t j = 1 + rng.Below(3); j > 0; --j) {
      FrontierInsert(fa, rng.Below(g.size()));
    }
    for (uint64_t j = 1 + rng.Below(3); j > 0; --j) {
      FrontierInsert(fb, rng.Below(g.size()));
    }
    fa = g.Reduce(fa);
    fb = g.Reduce(fb);
    std::set<Lv> ca = BruteClosure(g, fa);
    std::set<Lv> cb = BruteClosure(g, fb);
    std::set<Lv> only_a, only_b;
    for (Lv v : ca) {
      if (cb.count(v) == 0) {
        only_a.insert(v);
      }
    }
    for (Lv v : cb) {
      if (ca.count(v) == 0) {
        only_b.insert(v);
      }
    }
    DiffResult d = g.Diff(fa, fb);
    EXPECT_EQ(SpansToSet(d.only_a), only_a) << FrontierToString(fa) << FrontierToString(fb);
    EXPECT_EQ(SpansToSet(d.only_b), only_b) << FrontierToString(fa) << FrontierToString(fb);
  }
}

TEST_P(GraphRandomTest, EventsOfMatchesBruteForce) {
  Graph g = RandomGraph(GetParam(), 35);
  Prng rng(GetParam() ^ 0x123);
  for (int i = 0; i < 50; ++i) {
    Frontier f;
    for (uint64_t j = 1 + rng.Below(4); j > 0; --j) {
      FrontierInsert(f, rng.Below(g.size()));
    }
    EXPECT_EQ(SpansToSet(g.EventsOf(f)), BruteClosure(g, f));
  }
}

TEST_P(GraphRandomTest, VersionFrontierIsMinimalAndComplete) {
  Graph g = RandomGraph(GetParam(), 50);
  const Frontier& v = g.version();
  // Minimal: no member dominated by another.
  EXPECT_EQ(g.Reduce(v), v);
  // Complete: every event is in the closure.
  EXPECT_EQ(BruteClosure(g, v).size(), g.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphRandomTest, ::testing::Values(1, 2, 3, 4, 5, 77, 1234));

// --- The agent-indexed history (Graph::agent_runs) ---------------------------

TEST(AgentIndex, ContiguousAppendsCoalesceIntoOneRun) {
  Graph g;
  AgentId a = g.GetOrCreateAgent("a");
  g.Add(a, 0, 5, {});
  g.Add(a, 5, 3, Frontier{4});  // Seq- and LV-contiguous: must RLE-merge.
  const RleVec<AgentSeqRun>& runs = g.agent_runs(a);
  ASSERT_EQ(runs.run_count(), 1u);
  EXPECT_EQ(runs[0].seq_start, 0u);
  EXPECT_EQ(runs[0].seq_end, 8u);
  EXPECT_EQ(runs[0].lv_start, 0u);
}

TEST(AgentIndex, InterleavedAgentsSplitRuns) {
  Graph g;
  AgentId a = g.GetOrCreateAgent("a");
  AgentId b = g.GetOrCreateAgent("b");
  g.Add(a, 0, 4, {});            // LVs [0, 4)
  g.Add(b, 0, 2, Frontier{3});   // LVs [4, 6)
  g.Add(a, 4, 3, Frontier{5});   // LVs [6, 9): seq-contiguous, LV-gapped.
  const RleVec<AgentSeqRun>& runs_a = g.agent_runs(a);
  ASSERT_EQ(runs_a.run_count(), 2u);
  EXPECT_EQ(runs_a[0].lv_start, 0u);
  EXPECT_EQ(runs_a[1].seq_start, 4u);
  EXPECT_EQ(runs_a[1].lv_start, 6u);
  ASSERT_EQ(g.agent_runs(b).run_count(), 1u);
  EXPECT_EQ(g.agent_runs(b)[0].lv_start, 4u);
}

TEST_P(GraphRandomTest, AgentRunsMatchIdentityMapping) {
  // Differential: the per-agent index must agree, event by event, with the
  // (slower) global identity mapping — and its run boundaries must match
  // the agent-span column's, which is what MakePatch's span clipping
  // relies on.
  Graph g = RandomGraph(GetParam(), 60);
  for (size_t a = 0; a < g.agent_count(); ++a) {
    AgentId id = static_cast<AgentId>(a);
    const std::string& name = g.AgentName(id);
    uint64_t covered = 0;
    uint64_t prev_seq_end = 0;
    Lv prev_lv = 0;
    for (const AgentSeqRun& run : g.agent_runs(id)) {
      ASSERT_LT(run.seq_start, run.seq_end);
      // Sorted ascending in both seq and LV.
      EXPECT_GE(run.seq_start, prev_seq_end);
      EXPECT_GE(run.lv_start, prev_lv);
      prev_seq_end = run.seq_end;
      prev_lv = run.lv_start + (run.seq_end - run.seq_start);
      for (uint64_t seq = run.seq_start; seq < run.seq_end; ++seq) {
        Lv lv = run.lv_start + (seq - run.seq_start);
        RawVersion rv = g.LvToRaw(lv);
        EXPECT_EQ(rv.agent, name) << "lv " << lv;
        EXPECT_EQ(rv.seq, seq) << "lv " << lv;
        EXPECT_EQ(g.RawToLv(name, seq), lv);
      }
      // Run boundaries coincide with the agent-span column's runs.
      const AgentSpan& as = g.agent_spans().FindChecked(run.lv_start);
      EXPECT_EQ(as.span.start, run.lv_start);
      EXPECT_EQ(as.span.end, prev_lv);
      EXPECT_EQ(as.agent, id);
      EXPECT_EQ(as.seq_start, run.seq_start);
      covered += run.seq_end - run.seq_start;
    }
    EXPECT_EQ(g.NextSeqFor(id), prev_seq_end);
    // A causally-closed graph holds per-agent seq prefixes: full coverage.
    EXPECT_EQ(covered, prev_seq_end);
  }
}

// --- Run-level walk vs the event-level reference -----------------------------

// The production Diff/VersionContains/Reduce walk runs, not events; the old
// event-level walk survives as DiffReference, the oracle these tests hold
// it to. Byte-for-byte (exact span vectors, not just member sets): both
// walks must coalesce identically or walker retreat/advance consumes
// different spans.

TEST_P(GraphRandomTest, RunLevelDiffMatchesReferenceByteForByte) {
  uint64_t seed = GetParam();
  Graph g = RandomGraph(seed, 30);
  Prng rng(seed ^ 0xbeef);
  AgentId extra = g.GetOrCreateAgent("x");
  uint64_t extra_seq = 0;
  for (int round = 0; round < 200; ++round) {
    Frontier fa, fb;
    for (uint64_t j = 1 + rng.Below(4); j > 0; --j) {
      FrontierInsert(fa, rng.Below(g.size()));
    }
    for (uint64_t j = 1 + rng.Below(4); j > 0; --j) {
      FrontierInsert(fb, rng.Below(g.size()));
    }
    fa = g.Reduce(fa);
    fb = g.Reduce(fb);
    if (rng.Chance(0.1)) {
      fa.clear();  // Empty-frontier edge case.
    }
    if (rng.Chance(0.1)) {
      fb = g.version();
    }
    DiffResult run_level = g.Diff(fa, fb);
    DiffResult reference = g.DiffReference(fa, fb);
    ASSERT_EQ(run_level.only_a, reference.only_a)
        << FrontierToString(fa) << " vs " << FrontierToString(fb);
    ASSERT_EQ(run_level.only_b, reference.only_b)
        << FrontierToString(fa) << " vs " << FrontierToString(fb);
    if (round % 20 == 19) {
      // Interleaved growth: watermark epochs and linearity flags must stay
      // consistent across Adds, not just on a frozen graph.
      Frontier parents = g.Reduce(Frontier{rng.Below(g.size())});
      uint64_t len = 1 + rng.Below(4);
      g.Add(extra, extra_seq, len, parents);
      extra_seq += len;
    }
  }
}

// Replica-style generator: every new run's parents dominate the agent's own
// previous tip (causal delivery), so all agents stay linear and the
// watermark fast paths actually fire — RandomGraph's random antichains
// break linearity, which silently disables the pruning under test.
Graph ReplicaGraph(uint64_t seed, int rounds, size_t n_agents,
                   std::vector<Frontier>* tips_out = nullptr) {
  Graph g;
  Prng rng(seed);
  std::vector<AgentId> agents;
  std::vector<Frontier> local(n_agents);
  std::vector<uint64_t> next_seq(n_agents, 0);
  for (size_t i = 0; i < n_agents; ++i) {
    agents.push_back(g.GetOrCreateAgent("r" + std::to_string(i)));
  }
  for (int r = 0; r < rounds; ++r) {
    size_t i = rng.Below(n_agents);
    if (rng.Chance(0.4)) {
      // Receive another replica's full state (frontier union models the
      // closed causal delivery of a sync).
      Frontier merged = local[i];
      for (Lv v : local[rng.Below(n_agents)]) {
        FrontierInsert(merged, v);
      }
      local[i] = g.Reduce(merged);
    }
    uint64_t len = 1 + rng.Below(4);
    Lv first = g.Add(agents[i], next_seq[i], len, local[i]);
    next_seq[i] += len;
    local[i] = Frontier{first + len - 1};
  }
  if (tips_out != nullptr) {
    *tips_out = local;
  }
  return g;
}

TEST_P(GraphRandomTest, ReplicaDiffMatchesReferenceUnderWatermarkPruning) {
  uint64_t seed = GetParam();
  std::vector<Frontier> tips;
  Graph g = ReplicaGraph(seed, 80, 5, &tips);
  for (size_t a = 0; a < g.agent_count(); ++a) {
    ASSERT_TRUE(g.agent_linear(static_cast<AgentId>(a)));  // Pruning is live.
  }
  Prng rng(seed ^ 0x5eed);
  // Replica tips and their unions are the frontiers real merges diff —
  // mostly-shared, watermark-prunable shapes random draws rarely produce.
  std::vector<Frontier> pool = tips;
  for (int i = 0; i < 4; ++i) {
    Frontier merged = tips[rng.Below(tips.size())];
    for (Lv v : tips[rng.Below(tips.size())]) {
      FrontierInsert(merged, v);
    }
    pool.push_back(g.Reduce(merged));
  }
  pool.push_back(Frontier{});
  pool.push_back(g.version());
  for (int round = 0; round < 150; ++round) {
    const Frontier& fa = pool[rng.Below(pool.size())];
    const Frontier& fb = pool[rng.Below(pool.size())];
    DiffResult run_level = g.Diff(fa, fb);
    DiffResult reference = g.DiffReference(fa, fb);
    ASSERT_EQ(run_level.only_a, reference.only_a)
        << FrontierToString(fa) << " vs " << FrontierToString(fb);
    ASSERT_EQ(run_level.only_b, reference.only_b)
        << FrontierToString(fa) << " vs " << FrontierToString(fb);
    std::set<Lv> ca = BruteClosure(g, fa);
    std::set<Lv> cb = BruteClosure(g, fb);
    Lv probe = rng.Below(g.size());
    ASSERT_EQ(g.VersionContains(fa, probe), ca.count(probe) > 0);
    ASSERT_EQ(g.VersionContains(fb, probe), cb.count(probe) > 0);
  }
}

TEST(Graph, AgentLinearityClearsOnConcurrentSelfEvents) {
  Graph g;
  AgentId a = g.GetOrCreateAgent("a");
  AgentId b = g.GetOrCreateAgent("b");
  g.Add(a, 0, 2, {});  // [0, 2)
  g.Add(b, 0, 2, {});  // [2, 4)
  EXPECT_TRUE(g.agent_linear(a));
  // a's next run hangs off b alone — concurrent with a's own first run, so
  // "all seqs below the watermark are ancestors" no longer holds for a.
  g.Add(a, 2, 2, {3});  // [4, 6)
  EXPECT_FALSE(g.agent_linear(a));
  EXPECT_TRUE(g.agent_linear(b));
  // Queries stay exact with pruning disabled for a.
  EXPECT_FALSE(g.VersionContains({5}, 0));
  EXPECT_TRUE(g.VersionContains({5}, 3));
  DiffResult d = g.Diff({1}, {5});
  DiffResult ref = g.DiffReference({1}, {5});
  EXPECT_EQ(d.only_a, ref.only_a);
  EXPECT_EQ(d.only_b, ref.only_b);
}

TEST(Graph, RunBoundaryEdgeCases) {
  Graph g;
  AgentId a = g.GetOrCreateAgent("a");
  AgentId b = g.GetOrCreateAgent("b");
  g.Add(a, 0, 8, {});    // One entry [0, 8).
  g.Add(b, 0, 4, {3});   // Fork mid-run: [8, 12) hangs off event 3.
  // Frontier member mid-run: containment must split the entry at the member.
  EXPECT_TRUE(g.VersionContains({5}, 2));
  EXPECT_FALSE(g.VersionContains({5}, 6));
  EXPECT_TRUE(g.VersionContains({9}, 3));   // Through the mid-run parent.
  EXPECT_FALSE(g.VersionContains({9}, 4));  // Just past the fork point.
  // Single-agent dominance: members of one linear agent reduce to the tip.
  EXPECT_TRUE(g.agent_linear(a));
  EXPECT_EQ(g.Reduce({1, 5, 7}), (Frontier{7}));
  EXPECT_EQ(g.Reduce({3, 8}), (Frontier{8}));  // Dominated via mid-run parent.
  EXPECT_EQ(g.Reduce({4, 8}), (Frontier{4, 8}));  // Concurrent pair survives.
  // Empty diff between identical mid-run frontiers terminates immediately.
  DiffResult d = g.Diff({5, 9}, {5, 9});
  EXPECT_TRUE(d.only_a.empty());
  EXPECT_TRUE(d.only_b.empty());
  // A diff whose answer splits runs at the fork must coalesce exactly like
  // the reference.
  d = g.Diff({11}, {6});
  DiffResult ref = g.DiffReference({11}, {6});
  EXPECT_EQ(d.only_a, ref.only_a);
  EXPECT_EQ(d.only_b, ref.only_b);
  EXPECT_EQ(SpansToSet(d.only_a), (std::set<Lv>{8, 9, 10, 11}));
  EXPECT_EQ(SpansToSet(d.only_b), (std::set<Lv>{4, 5, 6}));
}

TEST_P(GraphRandomTest, ReduceMatchesBruteForce) {
  Graph g = RandomGraph(GetParam(), 40);
  Prng rng(GetParam() ^ 0x777);
  for (int i = 0; i < 100; ++i) {
    Frontier f;
    for (uint64_t j = 1 + rng.Below(5); j > 0; --j) {
      FrontierInsert(f, rng.Below(g.size()));
    }
    Frontier expected;
    for (Lv v : f) {
      bool dominated = false;
      for (Lv u : f) {
        if (u != v && BruteClosure(g, {u}).count(v) > 0) {
          dominated = true;
          break;
        }
      }
      if (!dominated) {
        FrontierInsert(expected, v);
      }
    }
    EXPECT_EQ(g.Reduce(f), expected) << FrontierToString(f);
  }
}

TEST(Graph, ReduceWideMemberSetFallsBackToPairwise) {
  // More than 64 members exceeds the bitmask walk's width and must take the
  // pairwise fallback — same answer, different code path.
  Graph g = RandomGraph(99, 60);
  Prng rng(0x42);
  Frontier f;
  while (f.size() < 70) {
    FrontierInsert(f, rng.Below(g.size()));
  }
  Frontier expected;
  for (Lv v : f) {
    bool dominated = false;
    for (Lv u : f) {
      if (u != v && BruteClosure(g, {u}).count(v) > 0) {
        dominated = true;
        break;
      }
    }
    if (!dominated) {
      FrontierInsert(expected, v);
    }
  }
  EXPECT_EQ(g.Reduce(f), expected);
}

TEST(GraphDiffStats, WideSharedFrontierSpansOnlyTheDivergentRun) {
  // The BM_GraphDiffWide shape: W linear writers braid runs on top of the
  // full previous-round frontier. Diffing the final frontier against the
  // same frontier with one member a run behind is the walker's bread and
  // butter — the answer is one run, and the walk must span only that run's
  // events no matter how wide the frontier is.
  constexpr uint64_t kWidth = 16;
  constexpr uint64_t kRunLen = 3;
  Graph g;
  std::vector<AgentId> agents;
  std::vector<uint64_t> seq(kWidth, 0);
  for (uint64_t w = 0; w < kWidth; ++w) {
    agents.push_back(g.GetOrCreateAgent("w" + std::to_string(w)));
  }
  Frontier prev_round;
  std::vector<Lv> prev_tip(kWidth, 0);
  for (int round = 0; round < 4; ++round) {
    Frontier this_round;
    for (uint64_t w = 0; w < kWidth; ++w) {
      Lv first = g.Add(agents[w], seq[w], kRunLen, prev_round);
      seq[w] += kRunLen;
      if (round == 2) {
        prev_tip[w] = first + kRunLen - 1;
      }
      FrontierInsert(this_round, first + kRunLen - 1);
    }
    prev_round = this_round;
  }
  Frontier a = prev_round;       // Full final frontier.
  Frontier b = prev_round;
  b.erase(b.begin());            // Drop writer 0's final tip...
  FrontierInsert(b, prev_tip[0]);  // ...and rewind it one round.
  const DiffStats before = g.diff_stats();
  DiffResult d = g.Diff(a, b);
  const DiffStats& after = g.diff_stats();
  EXPECT_EQ(after.calls, before.calls + 1);
  // The answer: exactly writer 0's final run.
  ASSERT_EQ(d.only_a.size(), 1u);
  EXPECT_EQ(d.only_a[0].size(), kRunLen);
  EXPECT_TRUE(d.only_b.empty());
  // Work scales with the frontier's runs, not with the 4*W*kRunLen events
  // of history: one-sided classification touched only the divergent run.
  EXPECT_EQ(after.events_spanned - before.events_spanned, kRunLen);
  EXPECT_LE(after.runs_visited - before.runs_visited, kWidth + 2);
}

}  // namespace
}  // namespace egwalker
