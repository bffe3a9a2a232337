// The 32-writer patch exchange behind patch_exchange.fnv64 (README.md).
//
// make_patch_golden.cc ran this script once against the encoder of the
// time and recorded an FNV-1a-64 of every patch; test_sync runs it again and
// checks that today's encoder reproduces every byte. Like legacy_script.h it
// uses its own LCG and only the public Doc and sync API, so nothing outside
// this file can silently change the exchange.

#ifndef EGWALKER_TESTS_GOLDEN_PATCH_SCRIPT_H_
#define EGWALKER_TESTS_GOLDEN_PATCH_SCRIPT_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "core/doc.h"
#include "golden/legacy_script.h"
#include "sync/patch.h"
#include "util/assert.h"

namespace egwalker::golden {

constexpr uint64_t kPatchScriptSeed = 0x9e7c;
constexpr int kPatchWriters = 32;
constexpr int kPatchRounds = 6;

inline uint64_t Fnv1a64(std::string_view bytes) {
  uint64_t h = 14695981039346656037ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// Builds the patch `from` sends to the holder of `they_have`; the script
// applies whatever it returns.
using PatchFn = std::function<std::string(const Doc& from, const VersionSummary& they_have)>;

// A star exchange: writers "w00".."w31" and a relay "hub" that never edits.
// Each round every writer edits (typing runs of words with multi-byte UTF-8,
// forward deletes, backspace runs) and uploads its delta to the hub; then
// the hub fans out to every writer. Per (writer, round), one writer in four
// misses the fan-out (its next one spans two rounds) and one in four is
// answered against a summary one event short of some agent's count, so the
// watermark splits that agent's last run and the tail needs the explicit
// (agent, seq - 1) parent. Writers edit on top of the hub's wide frontier,
// so their next chunks carry many parents. A last sweep catches every
// writer up. Returns the writers; they have converged.
inline std::vector<Doc> RunPatchExchange(const PatchFn& make_patch) {
  static const char* const kWords[] = {"the ",  "quick ", "brown ", "fox ", "naïve ",
                                       "café ", "世界 ",  "😀 ",    "\n"};
  ScriptRng rng(kPatchScriptSeed);
  Doc hub("hub");
  std::vector<Doc> writers;
  for (int w = 0; w < kPatchWriters; ++w) {
    char name[8];
    std::snprintf(name, sizeof(name), "w%02d", w);
    writers.emplace_back(name);
  }
  auto deliver = [&](const Doc& from, Doc& to, const VersionSummary& they_have) {
    std::string patch = make_patch(from, they_have);
    EGW_CHECK(ApplyPatch(to, patch).has_value());
  };
  for (int round = 0; round < kPatchRounds; ++round) {
    for (Doc& d : writers) {
      for (uint64_t edits = 1 + rng.Below(3); edits > 0; --edits) {
        const uint64_t len = d.size();
        if (len > 8 && rng.Below(10) < 3) {
          uint64_t n = 1 + rng.Below(4);
          uint64_t pos = rng.Below(len - n + 1);
          if (rng.Below(2) == 0) {
            d.Delete(pos, n);
          } else {
            for (uint64_t i = 0; i < n; ++i) {  // Backspace run.
              d.Delete(pos + n - 1 - i, 1);
            }
          }
        } else {
          uint64_t pos = rng.Below(2) == 0 ? len : rng.Below(len + 1);
          std::string text;
          for (uint64_t w = 1 + rng.Below(3); w > 0; --w) {
            text += kWords[rng.Below(sizeof(kWords) / sizeof(kWords[0]))];
          }
          d.Insert(pos, text);
        }
      }
    }
    for (Doc& d : writers) {
      deliver(d, hub, SummarizeDoc(hub));
    }
    for (int w = 0; w < kPatchWriters; ++w) {
      const int shape = (w + round) % 4;
      if (shape == 0) {
        continue;  // Misses this fan-out.
      }
      VersionSummary they_have = SummarizeDoc(writers[w]);
      if (shape == 1) {
        auto it = they_have.agents.begin();
        std::advance(it, static_cast<long>(rng.Below(they_have.agents.size())));
        if (it->second > 1) {
          --it->second;  // Splits the agent's last run.
        }
      }
      deliver(hub, writers[w], they_have);
    }
  }
  for (Doc& d : writers) {
    deliver(hub, d, SummarizeDoc(d));
  }
  return writers;
}

}  // namespace egwalker::golden

#endif  // EGWALKER_TESTS_GOLDEN_PATCH_SCRIPT_H_
