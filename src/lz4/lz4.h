// The LZ4 block format: a decoder, plus the match finder it shares with
// the lzhuf codec, implemented from scratch.
//
// Section 3.8 of the paper LZ4-compresses the inserted-content column of the
// event-graph file format. The encoder no longer emits LZ4 (the lzhuf
// codes beat it on every column measured), but files written by older
// encoders carry LZ4 blocks — the v1 content column and v2 columns with
// codec 1 — so Decompress stays. The framing (where sizes live) is up to
// the caller.
//
// Parse() is the hash-chain match search (the HC strategy, with lazy
// evaluation): the lzhuf codec (lzhuf/lzhuf.h) entropy-codes its LZ step
// stream.

#ifndef EGWALKER_LZ4_LZ4_H_
#define EGWALKER_LZ4_LZ4_H_

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace egwalker::lz4 {

// One step of an LZ parse: copy `literals` source bytes verbatim, then copy
// `match_len` bytes starting `offset` bytes back in the output. The final
// step of a parse has match_len == 0 (trailing literals only); every other
// step has match_len >= 4 and 1 <= offset <= 65535.
struct LzStep {
  size_t literals = 0;
  size_t match_len = 0;
  size_t offset = 0;
};

// Greedy-lazy hash-chain parse of `src` (64KiB window, min match 4). The
// steps exactly cover src; the last step is literal-only.
std::vector<LzStep> Parse(std::string_view src);

// Decompresses an LZ4 block. `decompressed_size` must be the exact original
// size. Returns std::nullopt on malformed input (including any
// out-of-bounds reference).
std::optional<std::string> Decompress(std::string_view src, size_t decompressed_size);

}  // namespace egwalker::lz4

#endif  // EGWALKER_LZ4_LZ4_H_
