// Tests for the observability layer's metrics side (src/obs): histogram
// bucket geometry and percentiles, registry get-or-create handle stability
// and the name-collision check, the Merge-at-quiesce threading model (the
// multi-thread case doubles as a TSan target proving per-thread registries
// share nothing), the unified VisitFields Reset/Merge contract across every
// participating stats struct, and the ConvergenceTracker.

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "crdt/yata.h"
#include "graph/graph.h"
#include "obs/convergence.h"
#include "obs/metrics.h"
#include "obs/stats.h"
#include "server/broker.h"
#include "server/client.h"
#include "server/netsim.h"
#include "server/registry.h"
#include "util/json.h"

namespace egwalker {
namespace {

using obs::Histogram;
using obs::MetricsRegistry;

// --- Histogram geometry ----------------------------------------------------

TEST(Histogram, ExactBucketsBelow16) {
  for (uint64_t v = 0; v < Histogram::kExact; ++v) {
    EXPECT_EQ(Histogram::BucketOf(v), v);
    EXPECT_EQ(Histogram::BucketUpper(v), v);
  }
}

TEST(Histogram, OctaveBucketEdges) {
  // First non-exact octave (values 16..31, 4 sub-buckets of width 4).
  EXPECT_EQ(Histogram::BucketOf(16), 16u);
  EXPECT_EQ(Histogram::BucketOf(19), 16u);
  EXPECT_EQ(Histogram::BucketUpper(16), 19u);
  EXPECT_EQ(Histogram::BucketOf(20), 17u);
  EXPECT_EQ(Histogram::BucketOf(23), 17u);
  EXPECT_EQ(Histogram::BucketUpper(17), 23u);
  EXPECT_EQ(Histogram::BucketOf(31), 19u);
  EXPECT_EQ(Histogram::BucketUpper(19), 31u);
  // Next octave starts a new group of 4.
  EXPECT_EQ(Histogram::BucketOf(32), 20u);
  EXPECT_EQ(Histogram::BucketUpper(Histogram::BucketOf(32)), 39u);
}

TEST(Histogram, BucketUpperIsInclusiveInverseOfBucketOf) {
  // BucketUpper(b) must be the LARGEST value mapping to b: the value itself
  // maps back to b, and the next value maps to b+1 (no gaps, no overlap).
  std::vector<uint64_t> probes;
  for (uint64_t v = 0; v < 4096; ++v) {
    probes.push_back(v);
  }
  for (int shift = 12; shift < 64; ++shift) {
    probes.push_back(uint64_t(1) << shift);
    probes.push_back((uint64_t(1) << shift) + 1);
    probes.push_back((uint64_t(1) << shift) - 1);
  }
  probes.push_back(UINT64_MAX);
  for (uint64_t v : probes) {
    size_t b = Histogram::BucketOf(v);
    uint64_t upper = Histogram::BucketUpper(b);
    EXPECT_GE(upper, v) << "v=" << v;
    EXPECT_EQ(Histogram::BucketOf(upper), b) << "v=" << v;
    if (upper != UINT64_MAX) {
      EXPECT_EQ(Histogram::BucketOf(upper + 1), b + 1) << "v=" << v;
    }
  }
  EXPECT_EQ(Histogram::BucketOf(UINT64_MAX), Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::BucketUpper(Histogram::kBuckets - 1), UINT64_MAX);
}

TEST(Histogram, PercentilesExactOnSmallValues) {
  Histogram h;
  for (uint64_t v = 1; v <= 10; ++v) {
    h.Record(v);  // Values < 16: buckets are exact, so percentiles are too.
  }
  EXPECT_EQ(h.count(), 10u);
  EXPECT_EQ(h.sum(), 55u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 10u);
  EXPECT_EQ(h.Percentile(0.50), 5u);
  EXPECT_EQ(h.Percentile(0.95), 10u);
  EXPECT_EQ(h.Percentile(1.00), 10u);
  EXPECT_EQ(h.Percentile(0.01), 1u);
}

TEST(Histogram, PercentileClampsToObservedMax) {
  Histogram h;
  h.Record(1000);  // Bucket upper edge is > 1000; the clamp reports 1000.
  EXPECT_EQ(h.Percentile(0.99), 1000u);
  EXPECT_EQ(h.Percentile(0.50), 1000u);
}

TEST(Histogram, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.Percentile(0.99), 0u);
}

TEST(Histogram, MergeAddsAndTracksExtrema) {
  Histogram a, b;
  a.Record(2);
  a.Record(100);
  b.Record(1);
  b.Record(7);
  a.Merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.sum(), 110u);
  EXPECT_EQ(a.min(), 1u);
  EXPECT_EQ(a.max(), 100u);
  // Merging an empty histogram must not disturb the extrema.
  a.Merge(Histogram{});
  EXPECT_EQ(a.min(), 1u);
  EXPECT_EQ(a.max(), 100u);
  Histogram empty;
  empty.Merge(a);
  EXPECT_EQ(empty.min(), 1u);
  EXPECT_EQ(empty.count(), 4u);
}

TEST(Histogram, ToJsonShape) {
  Histogram h;
  h.Record(3);
  h.Record(5);
  Json j = h.ToJson();
  ASSERT_TRUE(j.is_object());
  EXPECT_EQ(j.Find("count")->as_int(), 2);
  EXPECT_EQ(j.Find("sum")->as_int(), 8);
  EXPECT_EQ(j.Find("min")->as_int(), 3);
  EXPECT_EQ(j.Find("max")->as_int(), 5);
  EXPECT_EQ(j.Find("p50")->as_int(), 3);
  EXPECT_EQ(j.Find("p99")->as_int(), 5);
}

// --- MetricsRegistry -------------------------------------------------------

TEST(MetricsRegistry, GetOrCreateReturnsStableHandles) {
  MetricsRegistry reg;
  uint64_t* c = reg.Counter("a.count");
  Histogram* h = reg.Histo("a.latency");
  double* g = reg.Gauge("a.level");
  *c = 7;
  g[0] = 1.5;
  h->Record(4);
  // Registering many more instruments must not move the earlier handles.
  for (int i = 0; i < 1000; ++i) {
    *reg.Counter("fill." + std::to_string(i)) += 1;
  }
  EXPECT_EQ(reg.Counter("a.count"), c);
  EXPECT_EQ(reg.Histo("a.latency"), h);
  EXPECT_EQ(reg.Gauge("a.level"), g);
  EXPECT_EQ(*c, 7u);
  EXPECT_EQ(h->count(), 1u);
}

TEST(MetricsRegistryDeathTest, KindCollisionIsFatal) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  MetricsRegistry reg;
  reg.Counter("x");
  // Names are the merge key; re-registering as another kind must abort.
  EXPECT_DEATH(reg.Histo("x"), "");
  EXPECT_DEATH(reg.Gauge("x"), "");
}

TEST(MetricsRegistry, MergeCreatesAndAdds) {
  MetricsRegistry a, b;
  *a.Counter("shared") += 1;
  *b.Counter("shared") += 2;
  *b.Counter("only_b") += 5;
  *b.Gauge("depth") += 3.0;
  b.Histo("lat")->Record(9);
  a.Merge(b);
  EXPECT_EQ(*a.Counter("shared"), 3u);
  EXPECT_EQ(*a.Counter("only_b"), 5u);
  EXPECT_EQ(*a.Gauge("depth"), 3.0);
  EXPECT_EQ(a.Histo("lat")->count(), 1u);
  // Merge reads, never writes, its source.
  EXPECT_EQ(*b.Counter("shared"), 2u);
}

TEST(MetricsRegistry, ResetZeroesButKeepsRegistrations) {
  MetricsRegistry reg;
  uint64_t* c = reg.Counter("c");
  Histogram* h = reg.Histo("h");
  *c = 42;
  h->Record(1);
  size_t size_before = reg.size();
  reg.Reset();
  EXPECT_EQ(reg.size(), size_before);
  EXPECT_EQ(reg.Counter("c"), c);  // Handles survive the epoch handover.
  EXPECT_EQ(reg.Histo("h"), h);
  EXPECT_EQ(*c, 0u);
  EXPECT_EQ(h->count(), 0u);
}

TEST(MetricsRegistry, ToJsonIsSortedAndTyped) {
  MetricsRegistry reg;
  *reg.Counter("b.count") = 2;
  *reg.Gauge("a.level") = 0.5;
  reg.Histo("c.lat")->Record(3);
  Json j = reg.ToJson();
  ASSERT_TRUE(j.is_object());
  const JsonObject& obj = j.as_object();
  ASSERT_EQ(obj.size(), 3u);
  EXPECT_EQ(obj[0].first, "a.level");
  EXPECT_EQ(obj[1].first, "b.count");
  EXPECT_EQ(obj[2].first, "c.lat");
  EXPECT_TRUE(obj[0].second.is_number());
  EXPECT_EQ(obj[1].second.as_int(), 2);
  EXPECT_TRUE(obj[2].second.is_object());
  // The dump must round-trip through the parser (CI tooling consumes it).
  auto parsed = Json::Parse(j.Dump(2));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->Find("b.count")->as_int(), 2);
}

// The threading model under TSan: N threads each own a registry outright
// and bump with zero synchronization; the only cross-thread edge is the
// join before the merge. If any slot were shared this test is the TSan
// lane's tripwire.
TEST(MetricsRegistry, PerThreadInstancesMergeAtQuiesce) {
  constexpr int kThreads = 4;
  constexpr uint64_t kBumps = 50000;
  // MetricsRegistry is non-movable; a deque gives stable storage anyway.
  std::deque<MetricsRegistry> per_thread;
  for (int i = 0; i < kThreads; ++i) {
    per_thread.emplace_back();
  }
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&per_thread, i] {
      MetricsRegistry& reg = per_thread[static_cast<size_t>(i)];
      uint64_t* ops = reg.Counter("worker.ops");
      Histogram* lat = reg.Histo("worker.latency");
      for (uint64_t n = 0; n < kBumps; ++n) {
        ++*ops;
        lat->Record(n & 1023);
      }
      *reg.Counter("worker." + std::to_string(i) + ".id") = uint64_t(i);
    });
  }
  for (auto& t : threads) {
    t.join();  // The happens-before edge that makes the merge race-free.
  }
  MetricsRegistry total;
  for (auto& reg : per_thread) {
    total.Merge(reg);
  }
  EXPECT_EQ(*total.Counter("worker.ops"), kThreads * kBumps);
  EXPECT_EQ(total.Histo("worker.latency")->count(), kThreads * kBumps);
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(*total.Counter("worker." + std::to_string(i) + ".id"), uint64_t(i));
  }
}

// --- VisitFields contract --------------------------------------------------

// Asserts the obs/stats.h contract for one struct: value-initialized is the
// Merge identity, Merge is field-wise additive and commutative, and Reset
// restores the default-constructed state.
template <typename S>
void CheckStatsContract() {
  S a{}, b{}, fresh{};
  EXPECT_TRUE(obs::StatsEqual(a, fresh));
  // Give every field a distinct nonzero value via the same visitor the
  // implementation uses — a field missing from VisitFields cannot pass this.
  uint64_t next = 1;
  S::VisitFields([&](const char*, auto member) { a.*member = next++; });
  uint64_t next_b = 100;
  S::VisitFields([&](const char*, auto member) { b.*member = next_b++; });
  S ab = a, ba = b;
  ab.Merge(b);
  ba.Merge(a);
  EXPECT_TRUE(obs::StatsEqual(ab, ba));  // Commutative.
  uint64_t check_a = 1, check_b = 100;
  S::VisitFields([&](const char*, auto member) {
    EXPECT_EQ(ab.*member, check_a + check_b);  // Field-wise additive.
    ++check_a;
    ++check_b;
  });
  S identity = a;
  identity.Merge(fresh);
  EXPECT_TRUE(obs::StatsEqual(identity, a));  // Default is the identity.
  ab.Reset();
  EXPECT_TRUE(obs::StatsEqual(ab, fresh));  // Reset == fresh construction.
  // Fields must also be exported under the registry prefix scheme.
  MetricsRegistry reg;
  obs::ExportStats(reg, "t", a);
  uint64_t exported = 0;
  S::VisitFields([&](const char* name, auto) {
    exported += *reg.Counter(std::string("t.") + name);
  });
  uint64_t expect = 0;
  S::VisitFields([&](const char*, auto member) { expect += a.*member; });
  EXPECT_EQ(exported, expect);
}

TEST(StatsContract, BrokerStats) { CheckStatsContract<Broker::Stats>(); }
TEST(StatsContract, DocRegistryStats) { CheckStatsContract<DocRegistry::Stats>(); }
TEST(StatsContract, DiffStats) { CheckStatsContract<DiffStats>(); }
TEST(StatsContract, NetSimStats) { CheckStatsContract<NetSim::Stats>(); }
TEST(StatsContract, CollabClientStats) { CheckStatsContract<CollabClient::Stats>(); }
TEST(StatsContract, YataStats) { CheckStatsContract<YataStats>(); }

// --- ConvergenceTracker ----------------------------------------------------

TEST(ConvergenceTracker, RecordsLatencyWhenPredicateConverges) {
  obs::ConvergenceTracker conv;
  conv.Record("doc-0", "alice", 3, 10);
  conv.Record("doc-0", "bob", 1, 10);
  conv.Record("doc-1", "carol", 5, 12);
  EXPECT_EQ(conv.pending(), 3u);

  // Tick 14: only bob's edit has reached every replica.
  conv.Advance(14, [](const obs::ConvergenceTracker::Pending& p) {
    return p.agent == "bob";
  });
  EXPECT_EQ(conv.pending(), 2u);
  EXPECT_EQ(conv.latency().count(), 1u);
  EXPECT_EQ(conv.latency().min(), 4u);  // 14 - 10.

  // Tick 20: everything else converges.
  conv.Advance(20, [](const obs::ConvergenceTracker::Pending&) { return true; });
  EXPECT_EQ(conv.pending(), 0u);
  EXPECT_EQ(conv.latency().count(), 3u);
  EXPECT_EQ(conv.latency().max(), 10u);  // alice: 20 - 10.
  EXPECT_EQ(conv.latency().sum(), 4u + 10u + 8u);

  conv.Reset();
  EXPECT_EQ(conv.pending(), 0u);
  EXPECT_EQ(conv.latency().count(), 0u);
}

TEST(ConvergenceTracker, ProbeCursorPersistsAcrossSweeps) {
  // Containment is monotone, so a predicate may park the first unconfirmed
  // replica index in probe_cursor and resume there on the next sweep
  // instead of re-proving the confirmed prefix.
  obs::ConvergenceTracker conv;
  conv.Record("doc", "a", 1, 0);
  int probes = 0;
  auto probe_up_to = [&](uint32_t confirmed) {
    return [&, confirmed](obs::ConvergenceTracker::Pending& p) {
      for (uint32_t c = p.probe_cursor; c < 4; ++c) {
        ++probes;
        if (c >= confirmed) {
          p.probe_cursor = c;
          return false;
        }
      }
      return true;
    };
  };
  conv.Advance(1, probe_up_to(2));  // Confirms replicas 0,1; fails at 2.
  EXPECT_EQ(conv.pending(), 1u);
  EXPECT_EQ(probes, 3);
  probes = 0;
  conv.Advance(2, probe_up_to(4));  // Resumes at 2: only 2,3 probed.
  EXPECT_EQ(conv.pending(), 0u);
  EXPECT_EQ(probes, 2);
  EXPECT_EQ(conv.latency().min(), 2u);
}

}  // namespace
}  // namespace egwalker
