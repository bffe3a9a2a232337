// Tests for the heap-tracking allocator hooks behind Figure 10.

#include "util/memtrack.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace egwalker {
namespace {

TEST(Memtrack, CountsAllocationsAndFrees) {
  size_t before = memtrack::CurrentBytes();
  {
    auto block = std::make_unique<char[]>(1 << 20);
    block[0] = 1;  // Keep the allocation alive.
    EXPECT_GE(memtrack::CurrentBytes(), before + (1 << 20));
  }
  // Freed: back to (roughly) the baseline.
  EXPECT_LT(memtrack::CurrentBytes(), before + 4096);
}

TEST(Memtrack, PeakTracksHighWaterMark) {
  memtrack::ResetPeak();
  size_t base = memtrack::PeakBytes();
  {
    std::vector<char> big(8 << 20);
    big[0] = 1;
  }
  EXPECT_GE(memtrack::PeakBytes(), base + (8 << 20));
  // The peak persists after the free...
  EXPECT_GE(memtrack::PeakBytes(), memtrack::CurrentBytes() + (8 << 20) - 4096);
  // ...until reset.
  memtrack::ResetPeak();
  EXPECT_EQ(memtrack::PeakBytes(), memtrack::CurrentBytes());
}

TEST(Memtrack, CountsManySmallAllocations) {
  size_t allocs_before = memtrack::TotalAllocations();
  size_t bytes_before = memtrack::CurrentBytes();
  std::vector<std::unique_ptr<int>> keep;
  for (int i = 0; i < 1000; ++i) {
    keep.push_back(std::make_unique<int>(i));
  }
  EXPECT_GE(memtrack::TotalAllocations(), allocs_before + 1000);
  EXPECT_GE(memtrack::CurrentBytes(), bytes_before + 1000 * sizeof(int));
  keep.clear();
  EXPECT_LE(memtrack::CurrentBytes(), bytes_before + 65536);
}

TEST(Memtrack, AlignedAllocationsTracked) {
  size_t before = memtrack::CurrentBytes();
  struct alignas(64) Wide {
    char data[256];
  };
  {
    auto w = std::make_unique<Wide>();
    w->data[0] = 1;
    EXPECT_GE(memtrack::CurrentBytes(), before + sizeof(Wide));
  }
  EXPECT_LT(memtrack::CurrentBytes(), before + 4096);
}

}  // namespace
}  // namespace egwalker
