// Loads the committed legacy-format fixtures of this directory (README.md):
// byte streams older encoders wrote, which the decoders must accept forever.
// EGW_GOLDEN_DIR is set by the build to this directory's absolute path.

#ifndef EGWALKER_TESTS_GOLDEN_FIXTURES_H_
#define EGWALKER_TESTS_GOLDEN_FIXTURES_H_

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "golden/legacy_script.h"

namespace egwalker::golden {

inline std::string ReadFixture(std::string_view name) {
  std::string path = std::string(EGW_GOLDEN_DIR) + "/" + std::string(name);
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "missing fixture %s\n", path.c_str());
    std::abort();
  }
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

// The v1 EGWS chain: a plain segment, one with LZ4 content and a cached
// doc, and a final one with a cached doc, session anchor and session state.
inline std::vector<std::string> LegacyChain() {
  return {ReadFixture("v1_chain_0.egws"), ReadFixture("v1_chain_1.egws"),
          ReadFixture("v1_chain_2.egws")};
}

}  // namespace egwalker::golden

#endif  // EGWALKER_TESTS_GOLDEN_FIXTURES_H_
