// Tests for the LZ4 module: the shared match finder (Parse), and the
// block decoder against hand-written blocks — valid ones, including
// overlapping matches and length extensions, and corrupt ones.

#include "lz4/lz4.h"

#include <gtest/gtest.h>

#include "trace/generate.h"
#include "util/prng.h"

namespace egwalker {
namespace {

std::string Block(std::initializer_list<int> bytes) {
  std::string out;
  for (int b : bytes) {
    out.push_back(static_cast<char>(b));
  }
  return out;
}

// Rebuilds the input from a parse, checking every step's invariants.
std::string ApplySteps(const std::string& src, const std::vector<lz4::LzStep>& steps) {
  std::string out;
  size_t pos = 0;
  for (size_t i = 0; i < steps.size(); ++i) {
    const lz4::LzStep& step = steps[i];
    out.append(src, pos, step.literals);
    pos += step.literals;
    if (i + 1 == steps.size()) {
      EXPECT_EQ(step.match_len, 0u);  // The last step is literal-only.
      break;
    }
    EXPECT_GE(step.match_len, 4u);
    EXPECT_GE(step.offset, 1u);
    EXPECT_LE(step.offset, 65535u);
    if (step.offset == 0 || step.offset > out.size()) {
      ADD_FAILURE() << "offset " << step.offset << " outside " << out.size() << " bytes";
      return out;
    }
    for (size_t k = 0; k < step.match_len; ++k) {
      out.push_back(out[out.size() - step.offset]);
    }
    pos += step.match_len;
  }
  return out;
}

void ExpectParseCovers(const std::string& src) {
  std::vector<lz4::LzStep> steps = lz4::Parse(src);
  ASSERT_FALSE(steps.empty());
  EXPECT_EQ(ApplySteps(src, steps), src);
}

TEST(Lz4Parse, StepsRebuildTheInput) {
  ExpectParseCovers("");
  ExpectParseCovers("a");
  ExpectParseCovers("aaaaaaaaaaaa");  // 12 bytes: right at the match limit.
  ExpectParseCovers(std::string(100000, 'x'));
  std::string phrase;
  for (int i = 0; i < 3000; ++i) {
    phrase += "the quick brown fox jumps over the lazy dog. ";
  }
  ExpectParseCovers(phrase);
  Prng rng(5);
  ExpectParseCovers(GenerateProse(rng, 200000));
  std::string noise;
  for (int i = 0; i < 50000; ++i) {
    noise.push_back(static_cast<char>(rng.Next() & 0xff));
  }
  ExpectParseCovers(noise);
}

TEST(Lz4Parse, FindsMatchesInRepetitiveInput) {
  std::string input(100000, 'x');
  std::vector<lz4::LzStep> steps = lz4::Parse(input);
  EXPECT_LT(steps.size(), 10u);
}

TEST(Lz4Parse, RandomStructuredInputs) {
  Prng rng(99);
  for (int iter = 0; iter < 200; ++iter) {
    std::string input;
    size_t target = rng.Below(4000);
    while (input.size() < target) {
      if (rng.Chance(0.5) && !input.empty()) {
        // Copy a random earlier slice (creates matches).
        size_t from = rng.Below(input.size());
        size_t n = 1 + rng.Below(std::min<size_t>(input.size() - from, 60));
        input += input.substr(from, n);
      } else {
        for (uint64_t n = 1 + rng.Below(20); n > 0; --n) {
          input.push_back(static_cast<char>('a' + rng.Below(26)));
        }
      }
    }
    SCOPED_TRACE(iter);
    ExpectParseCovers(input);
  }
}

TEST(Lz4Decompress, EmptyBlock) {
  EXPECT_EQ(lz4::Decompress("", 0), std::string());
  EXPECT_FALSE(lz4::Decompress("", 1).has_value());
}

TEST(Lz4Decompress, LiteralOnlyBlock) {
  EXPECT_EQ(lz4::Decompress(Block({0x50, 'h', 'e', 'l', 'l', 'o'}), 5), "hello");
}

TEST(Lz4Decompress, OverlappingMatch) {
  // 'a', then a 9-byte match at offset 1 (overlap copy), then an empty
  // final sequence.
  EXPECT_EQ(lz4::Decompress(Block({0x15, 'a', 0x01, 0x00, 0x00}), 10), std::string(10, 'a'));
  // Period 3: "abc" then 6 bytes from offset 3.
  EXPECT_EQ(lz4::Decompress(Block({0x32, 'a', 'b', 'c', 0x03, 0x00, 0x00}), 9), "abcabcabc");
}

TEST(Lz4Decompress, LengthExtensions) {
  // Literal length 15 + 5 extension = 20 literals.
  std::string lits = Block({0xF0, 0x05});
  lits += "0123456789abcdefghij";
  EXPECT_EQ(lz4::Decompress(lits, 20), "0123456789abcdefghij");
  // Match length 4 + 15 + 255 + 10 = 284 after one literal.
  std::string matched = Block({0x1F, 'z', 0x01, 0x00, 0xFF, 0x0A, 0x00});
  EXPECT_EQ(lz4::Decompress(matched, 285), std::string(285, 'z'));
}

TEST(Lz4Decompress, RejectsWrongSize) {
  std::string block = Block({0x15, 'a', 0x01, 0x00, 0x00});
  EXPECT_FALSE(lz4::Decompress(block, 11).has_value());
  EXPECT_FALSE(lz4::Decompress(block, 9).has_value());
  EXPECT_FALSE(lz4::Decompress(Block({0x50, 'h', 'e', 'l', 'l', 'o'}), 4).has_value());
}

TEST(Lz4Decompress, RejectsTruncatedBlocks) {
  std::string matched = Block({0x1F, 'z', 0x01, 0x00, 0xFF, 0x0A, 0x00});
  for (size_t len = 0; len < matched.size(); ++len) {
    EXPECT_FALSE(lz4::Decompress(matched.substr(0, len), 285).has_value()) << len;
  }
  std::string lits = Block({0xF0, 0x05});
  lits += "0123456789abcdefghij";
  for (size_t len = 0; len < lits.size(); ++len) {
    EXPECT_FALSE(lz4::Decompress(lits.substr(0, len), 20).has_value()) << len;
  }
}

TEST(Lz4Decompress, RejectsBadOffsets) {
  // Token: 1 literal + match; offset 0 is illegal; offset beyond output too.
  std::string bad;
  bad.push_back(0x14);  // 1 literal, match len 4+4.
  bad.push_back('A');
  bad.push_back(0x00);  // offset lo
  bad.push_back(0x00);  // offset hi -> offset 0.
  EXPECT_FALSE(lz4::Decompress(bad, 10).has_value());
  bad[2] = 0x09;  // offset 9 > 1 byte of output so far.
  EXPECT_FALSE(lz4::Decompress(bad, 10).has_value());
}

TEST(Lz4Decompress, RejectsOutputOverrun) {
  // The match would write 285 bytes into a 100-byte output.
  std::string matched = Block({0x1F, 'z', 0x01, 0x00, 0xFF, 0x0A, 0x00});
  EXPECT_FALSE(lz4::Decompress(matched, 100).has_value());
}

}  // namespace
}  // namespace egwalker
