// Writes the legacy-format fixtures of this directory (README.md).
//
// The fixtures pin formats the library still decodes but no longer writes:
// the v1 EGWK/EGWS containers (including the v1 LZ4 content flag) and v2
// columns stored with codec 1 (LZ4). Writing them needs the v1 encoder and
// lz4::Compress, so this program is not part of the build. It was compiled
// and run once against commit 50e6698, the last one with both:
//
//   g++ -std=c++20 -O2 -Isrc -Itests tests/golden/make_legacy_fixtures.cc \
//       build/libegwalker.a -o make_legacy_fixtures
//   ./make_legacy_fixtures tests/golden
//
// Every fixture is cut from golden::RunLegacyScript (legacy_script.h).

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/doc.h"
#include "encoding/columnar.h"
#include "golden/legacy_script.h"
#include "lz4/lz4.h"
#include "util/assert.h"
#include "util/varint.h"

namespace egwalker {
namespace {

uint32_t Fnv1a(std::string_view bytes) {
  uint32_t h = 2166136261u;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 16777619u;
  }
  return h;
}

void Write(const std::string& dir, const char* name, const std::string& bytes) {
  std::ofstream out(dir + "/" + name, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  EGW_CHECK(out.good());
  std::printf("%-20s %6zu bytes\n", name, bytes.size());
}

// Re-stores the ops and content columns of an all-raw v2 segment as LZ4
// (codec 1), rewriting the column directory to match.
std::string RepackAsLz4(const std::string& seg) {
  auto info = PeekSegment(seg);
  EGW_CHECK(info.has_value() && info->format_version == 2);
  uint64_t payload = 0;
  for (const SegmentColumn& c : info->columns) {
    EGW_CHECK(c.codec == 0);
    payload += c.stored_size;
  }
  std::vector<std::string> stored;
  std::string old_dir;
  AppendVarint(old_dir, info->columns.size());
  size_t at = seg.size() - payload;
  for (const SegmentColumn& c : info->columns) {
    std::string raw = seg.substr(at, c.stored_size);
    old_dir.push_back(static_cast<char>(c.id));
    old_dir.push_back(0);
    AppendVarint(old_dir, c.raw_size);
    AppendVarint(old_dir, c.stored_size);
    AppendVarint(old_dir, at - (seg.size() - payload));
    AppendVarint(old_dir, Fnv1a(raw));
    at += c.stored_size;
    stored.push_back(std::move(raw));
  }
  const size_t dir_start = seg.size() - payload - old_dir.size();
  EGW_CHECK(seg.compare(dir_start, old_dir.size(), old_dir) == 0);

  std::string out = seg.substr(0, dir_start);
  AppendVarint(out, info->columns.size());
  uint64_t offset = 0;
  for (size_t i = 0; i < info->columns.size(); ++i) {
    const SegmentColumn& c = info->columns[i];
    uint8_t codec = 0;
    if (c.id == 0 || c.id == 3) {  // Ops, content.
      stored[i] = lz4::Compress(stored[i]);
      codec = 1;
    }
    out.push_back(static_cast<char>(c.id));
    out.push_back(static_cast<char>(codec));
    AppendVarint(out, c.raw_size);
    AppendVarint(out, stored[i].size());
    AppendVarint(out, offset);
    AppendVarint(out, Fnv1a(stored[i]));
    offset += stored[i].size();
  }
  for (const std::string& s : stored) {
    out += s;
  }
  return out;
}

int Main(const std::string& dir) {
  SaveOptions v1_segment;
  v1_segment.format_version = 1;
  std::vector<std::string> chain;
  Lv checkpoint = 0;
  Doc doc = golden::RunLegacyScript([&](const Doc& d, int round) {
    SaveOptions opts = v1_segment;
    if (round == 4) {
      // Plain segment.
    } else if (round == 9) {
      opts.compress_content = true;
      opts.cache_final_doc = true;
    } else if (round + 1 == golden::kScriptRounds) {
      opts.cache_final_doc = true;
      opts.checkpoint_session_state = true;
      EGW_CHECK(d.merge_session_active());
    } else {
      return;
    }
    chain.push_back(d.SaveSegment(checkpoint, opts));
    checkpoint = d.end_lv();
  });
  EGW_CHECK(PeekSegment(chain.back())->has_session_state);
  EGW_CHECK(PeekSegment(chain.back())->anchor.lv != kInvalidLv);
  EGW_CHECK(Doc::LoadChain(chain, "reader")->Text() == doc.Text());

  SaveOptions plain;
  plain.format_version = 1;
  SaveOptions lz4 = plain;
  lz4.compress_content = true;
  SaveOptions cached = plain;
  cached.cache_final_doc = true;
  SaveOptions omitted = plain;
  omitted.include_deleted_content = false;
  omitted.compress_content = true;
  omitted.cache_final_doc = true;
  Write(dir, "v1_plain.egwk", doc.Save(plain));
  Write(dir, "v1_lz4.egwk", doc.Save(lz4));
  Write(dir, "v1_cached.egwk", doc.Save(cached));
  Write(dir, "v1_omitted.egwk", doc.Save(omitted));
  for (size_t i = 0; i < chain.size(); ++i) {
    std::string name = "v1_chain_" + std::to_string(i) + ".egws";
    Write(dir, name.c_str(), chain[i]);
  }

  SaveOptions v2_raw;
  v2_raw.format_version = 2;
  v2_raw.compress_columns = false;
  v2_raw.cache_final_doc = true;
  std::string codec1 = RepackAsLz4(doc.SaveSegment(0, v2_raw));
  Trace decoded;
  std::optional<std::string> decoded_doc;
  EGW_CHECK(DecodeSegmentInto(decoded, codec1, &decoded_doc));
  EGW_CHECK(decoded.graph.size() == doc.end_lv() && decoded_doc == doc.Text());
  Write(dir, "v2_codec1.egws", codec1);
  return 0;
}

}  // namespace
}  // namespace egwalker

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: make_legacy_fixtures <output dir>\n");
    return 2;
  }
  return egwalker::Main(argv[1]);
}
