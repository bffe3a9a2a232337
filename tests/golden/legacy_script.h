// The editing session behind the committed legacy-format fixtures in this
// directory (README.md lists them with their save options).
//
// make_legacy_fixtures.cc ran this script once to write the fixtures; the
// tests run it again to regenerate the document every fixture must decode
// to. The script uses its own tiny LCG rather than util/prng.h, and only the
// public Doc editing API, so nothing outside this file can silently change
// the history it produces — the fixtures cannot be re-made once the v1
// writer is gone.

#ifndef EGWALKER_TESTS_GOLDEN_LEGACY_SCRIPT_H_
#define EGWALKER_TESTS_GOLDEN_LEGACY_SCRIPT_H_

#include <cstdint>
#include <functional>
#include <string>

#include "core/doc.h"

namespace egwalker::golden {

constexpr uint64_t kScriptSeed = 0x6f1d;
constexpr int kScriptRounds = 14;

class ScriptRng {
 public:
  explicit ScriptRng(uint64_t seed) : state_(seed) {}
  uint64_t Below(uint64_t n) {
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    return (state_ >> 33) % n;
  }

 private:
  uint64_t state_;
};

// Two replicas ("alice", "bob") edit concurrently for kScriptRounds rounds:
// typing runs of repeated words (so LZ4 finds matches), multi-byte UTF-8,
// forward deletes and backspace runs, with random one- or two-way merges
// between rounds. `after_round(alice, round)` runs after each round's merge;
// the last round always merges both ways and then alice types once more.
// Returns alice's final document.
inline Doc RunLegacyScript(const std::function<void(const Doc&, int)>& after_round = {}) {
  static const char* const kWords[] = {"the ",  "quick ", "brown ", "fox ",  "jumps ",
                                       "over ", "lazy ",  "dog. ",  "naïve ", "café ",
                                       "世界 ", "😀 ",    "\n"};
  ScriptRng rng(kScriptSeed);
  Doc alice("alice");
  Doc bob("bob");
  for (int round = 0; round < kScriptRounds; ++round) {
    for (Doc* d : {&alice, &bob}) {
      for (uint64_t edits = 2 + rng.Below(4); edits > 0; --edits) {
        const uint64_t len = d->size();
        if (len > 8 && rng.Below(10) < 3) {
          uint64_t n = 1 + rng.Below(4);
          uint64_t pos = rng.Below(len - n + 1);
          if (rng.Below(2) == 0) {
            d->Delete(pos, n);
          } else {
            for (uint64_t i = 0; i < n; ++i) {  // Backspace run.
              d->Delete(pos + n - 1 - i, 1);
            }
          }
        } else {
          uint64_t pos = rng.Below(2) == 0 ? len : rng.Below(len + 1);
          std::string text;
          for (uint64_t w = 1 + rng.Below(3); w > 0; --w) {
            text += kWords[rng.Below(sizeof(kWords) / sizeof(kWords[0]))];
          }
          d->Insert(pos, text);
        }
      }
    }
    const uint64_t merge = round + 1 == kScriptRounds ? 3 : rng.Below(4);
    if (merge & 1) {
      bob.MergeFrom(alice);
    }
    if (merge & 2) {
      alice.MergeFrom(bob);
    }
    if (round + 1 == kScriptRounds) {
      alice.Insert(alice.size(), "fin.");  // A critical version to anchor on.
    }
    if (after_round) {
      after_round(alice, round);
    }
  }
  return alice;
}

}  // namespace egwalker::golden

#endif  // EGWALKER_TESTS_GOLDEN_LEGACY_SCRIPT_H_
