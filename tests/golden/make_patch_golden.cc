// Writes patch_exchange.fnv64 (README.md): the size and FNV-1a-64 of every
// patch golden::RunPatchExchange (patch_script.h) sends, in order.
//
// The point of the file is to pin the wire bytes of the encoder that wrote
// it, so this program is not part of the build: re-running it against a
// changed encoder would only re-record that encoder. It was compiled and
// run against commit 3463566:
//
//   g++ -std=c++20 -O2 -Isrc -Itests tests/golden/make_patch_golden.cc \
//       build/libegwalker.a -lpthread -o make_patch_golden
//   ./make_patch_golden > tests/golden/patch_exchange.fnv64

#include <cinttypes>
#include <cstdio>

#include "golden/patch_script.h"

int main() {
  using namespace egwalker;
  std::printf("# golden::RunPatchExchange: <index> <bytes> <fnv1a64 hex> per patch\n");
  uint64_t index = 0;
  std::vector<Doc> writers =
      golden::RunPatchExchange([&](const Doc& from, const VersionSummary& they_have) {
        std::string patch = MakePatch(from, they_have);
        EGW_CHECK(patch == MakePatchReference(from, they_have));
        std::printf("%" PRIu64 " %zu %016" PRIx64 "\n", index++, patch.size(),
                    golden::Fnv1a64(patch));
        return patch;
      });
  for (const Doc& w : writers) {
    EGW_CHECK(w.Text() == writers[0].Text());
  }
  return 0;
}
