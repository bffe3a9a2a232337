// Unit tests for the LEB128 varint codec.

#include "util/varint.h"

#include <gtest/gtest.h>

#include <limits>

#include "util/prng.h"

namespace egwalker {
namespace {

TEST(Varint, EncodesSmallValuesInOneByte) {
  for (uint64_t v : {0ull, 1ull, 42ull, 127ull}) {
    std::string out;
    AppendVarint(out, v);
    EXPECT_EQ(out.size(), 1u) << v;
  }
}

TEST(Varint, EncodesBoundaryValues) {
  struct Case {
    uint64_t value;
    size_t bytes;
  };
  const Case cases[] = {
      {127, 1}, {128, 2}, {16383, 2}, {16384, 3}, {std::numeric_limits<uint64_t>::max(), 10},
  };
  for (const Case& c : cases) {
    std::string out;
    AppendVarint(out, c.value);
    EXPECT_EQ(out.size(), c.bytes) << c.value;
    EXPECT_EQ(VarintLen(c.value), c.bytes) << c.value;
  }
}

TEST(Varint, RoundTripsExhaustivelyNearPowersOfTwo) {
  std::string buf;
  std::vector<uint64_t> values;
  for (int shift = 0; shift < 64; ++shift) {
    uint64_t base = uint64_t{1} << shift;
    for (int64_t delta = -2; delta <= 2; ++delta) {
      uint64_t v = base + static_cast<uint64_t>(delta);
      values.push_back(v);
      AppendVarint(buf, v);
    }
  }
  ByteReader reader(buf);
  for (uint64_t expected : values) {
    auto got = reader.ReadVarint();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, expected);
  }
  EXPECT_TRUE(reader.empty());
}

TEST(Varint, RoundTripsRandomValues) {
  Prng rng(42);
  std::string buf;
  std::vector<uint64_t> values;
  for (int i = 0; i < 10000; ++i) {
    // Mix magnitudes so all byte lengths get exercised.
    uint64_t v = rng.Next() >> (rng.Next() % 64);
    values.push_back(v);
    AppendVarint(buf, v);
  }
  ByteReader reader(buf);
  for (uint64_t expected : values) {
    auto got = reader.ReadVarint();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, expected);
  }
}

TEST(Varint, RejectsTruncatedInput) {
  std::string buf;
  AppendVarint(buf, 1u << 20);
  for (size_t len = 0; len < buf.size(); ++len) {
    ByteReader reader(reinterpret_cast<const uint8_t*>(buf.data()), len);
    EXPECT_FALSE(reader.ReadVarint().has_value()) << len;
  }
}

TEST(Varint, RejectsOverlongEncoding) {
  // 11 continuation bytes overflows 64 bits.
  std::string buf(10, '\x80');
  buf.push_back('\x02');
  ByteReader reader(buf);
  EXPECT_FALSE(reader.ReadVarint().has_value());
}

TEST(Varint, TruncatedReadDoesNotAdvanceCursor) {
  std::string buf;
  buf.push_back('\x80');  // Continuation with no following byte.
  ByteReader reader(buf);
  EXPECT_FALSE(reader.ReadVarint().has_value());
  EXPECT_EQ(reader.position(), 0u);
}

TEST(Zigzag, MapsSmallMagnitudesToSmallCodes) {
  EXPECT_EQ(ZigzagEncode(0), 0u);
  EXPECT_EQ(ZigzagEncode(-1), 1u);
  EXPECT_EQ(ZigzagEncode(1), 2u);
  EXPECT_EQ(ZigzagEncode(-2), 3u);
  EXPECT_EQ(ZigzagEncode(2), 4u);
}

TEST(Zigzag, RoundTripsExtremes) {
  for (int64_t v : {int64_t{0}, int64_t{-1}, std::numeric_limits<int64_t>::min(),
                    std::numeric_limits<int64_t>::max()}) {
    EXPECT_EQ(ZigzagDecode(ZigzagEncode(v)), v);
  }
}

TEST(Zigzag, SignedRoundTripThroughBuffer) {
  Prng rng(7);
  std::string buf;
  std::vector<int64_t> values;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = static_cast<int64_t>(rng.Next() >> (rng.Next() % 64));
    if (rng.Chance(0.5)) {
      v = -v;
    }
    values.push_back(v);
    AppendVarintSigned(buf, v);
  }
  ByteReader reader(buf);
  for (int64_t expected : values) {
    auto got = reader.ReadVarintSigned();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, expected);
  }
}

TEST(ByteReader, ReadBytesIsAllOrNothing) {
  std::string buf = "hello";
  ByteReader reader(buf);
  std::string out;
  EXPECT_FALSE(reader.ReadBytes(6, out));
  EXPECT_EQ(reader.position(), 0u);
  EXPECT_TRUE(reader.ReadBytes(5, out));
  EXPECT_EQ(out, "hello");
  EXPECT_TRUE(reader.empty());
}

TEST(ByteReader, SkipBounds) {
  std::string buf = "abc";
  ByteReader reader(buf);
  EXPECT_TRUE(reader.Skip(2));
  EXPECT_FALSE(reader.Skip(2));
  EXPECT_TRUE(reader.Skip(1));
  EXPECT_TRUE(reader.empty());
}

}  // namespace
}  // namespace egwalker
