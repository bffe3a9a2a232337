#include "sync/patch.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <unordered_map>

#include "rope/utf8.h"
#include "util/assert.h"
#include "util/varint.h"

namespace egwalker {
namespace {

constexpr char kSummaryMagic[4] = {'E', 'G', 'V', 'S'};
constexpr char kPatchMagic[4] = {'E', 'G', 'W', 'P'};
constexpr uint8_t kFormatVersion = 1;

// Chunk flag bits.
constexpr uint8_t kChunkDelete = 1 << 0;
constexpr uint8_t kChunkBackspace = 1 << 1;
constexpr uint8_t kChunkChainPrevious = 1 << 2;

}  // namespace

VersionSummary SummarizeDoc(const Doc& doc) {
  VersionSummary summary;
  const Graph& g = doc.graph();
  for (size_t i = 0; i < g.agent_count(); ++i) {
    AgentId id = static_cast<AgentId>(i);
    uint64_t next = g.NextSeqFor(id);
    if (next > 0) {
      summary.agents.emplace(g.AgentName(id), next);
    }
  }
  return summary;
}

std::string EncodeSummary(const VersionSummary& summary) {
  std::string out;
  out.append(kSummaryMagic, sizeof(kSummaryMagic));
  out.push_back(static_cast<char>(kFormatVersion));
  AppendVarint(out, summary.agents.size());
  for (const auto& [agent, count] : summary.agents) {
    AppendVarint(out, agent.size());
    out += agent;
    AppendVarint(out, count);
  }
  return out;
}

std::optional<VersionSummary> DecodeSummary(std::string_view bytes, std::string* error) {
  auto fail = [&](const char* msg) -> std::optional<VersionSummary> {
    if (error != nullptr) {
      *error = msg;
    }
    return std::nullopt;
  };
  ByteReader reader(reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
  std::string magic;
  if (!reader.ReadBytes(4, magic) || magic != std::string(kSummaryMagic, 4)) {
    return fail("bad summary magic");
  }
  auto version = reader.ReadByte();
  if (!version || *version != kFormatVersion) {
    return fail("unsupported summary version");
  }
  auto count = reader.ReadVarint();
  if (!count || *count > 1u << 24) {
    return fail("bad agent count");
  }
  VersionSummary summary;
  for (uint64_t i = 0; i < *count; ++i) {
    auto len = reader.ReadVarint();
    std::string name;
    if (!len || !reader.ReadBytes(*len, name)) {
      return fail("bad agent name");
    }
    auto seqs = reader.ReadVarint();
    if (!seqs) {
      return fail("bad agent seq count");
    }
    summary.agents.emplace(std::move(name), *seqs);
  }
  if (!reader.empty()) {
    return fail("trailing summary bytes");
  }
  return summary;
}

namespace {

// One patch chunk awaiting encode, in LV order. It owns no heap memory: a
// chunk starting a graph run points at that run's parent list, and a chunk
// starting mid-run holds its single parent (the predecessor event) inline.
struct PendingChunk {
  AgentId agent;
  uint64_t seq_start;
  const Frontier* entry_parents;  // Null when the parent is `own_parent`.
  Lv own_parent;
  bool chained;   // The parent is the previous chunk's last event: not written.
  OpSlice slice;  // Exactly the events sent: count, position and text clipped.

  std::span<const Lv> parents() const {
    return entry_parents != nullptr ? std::span<const Lv>(*entry_parents)
                                    : std::span<const Lv>(&own_parent, 1);
  }
};

// Points `chunk` at the parents of `v`, its first event (inside `entry`),
// and flags the chain link when the only parent is `prev_included_tail`.
void SetParents(PendingChunk& chunk, const GraphEntry& entry, Lv v, Lv prev_included_tail) {
  if (v > entry.span.start) {
    chunk.entry_parents = nullptr;
    chunk.own_parent = v - 1;
  } else {
    chunk.entry_parents = &entry.parents;
  }
  std::span<const Lv> parents = chunk.parents();
  chunk.chained = parents.size() == 1 && parents[0] == prev_included_tail;
}

// A parent as written on the wire: (agent-table index, seq).
struct WireParent {
  uint32_t agent;
  uint64_t seq;
};

// Serialises collected chunks into patch wire bytes. Shared by MakePatch
// and MakePatchReference so the two collection strategies cannot drift in
// encoding (the fuzz differential compares their bytes, not just decodes).
//
// Two passes over the chunks. The first interns every referenced agent
// (authors and parents, in first-use order) through a flat AgentId-indexed
// slot vector, resolves each written parent to (table index, seq) with one
// agent-span search, and totals the exact wire size. The second writes into
// a string reserved to that size. Four allocations (slots, table, parents,
// output), whatever the chunk and parent counts (see the contract in
// patch.h).
std::string EncodePendingChunks(const Graph& g, const std::vector<PendingChunk>& chunks) {
  if (chunks.empty()) {
    return std::string();
  }
  size_t parent_count = 0;
  for (const PendingChunk& chunk : chunks) {
    if (!chunk.chained) {
      parent_count += chunk.parents().size();
    }
  }

  constexpr uint32_t kUnseen = UINT32_MAX;
  std::vector<uint32_t> slot(g.agent_count(), kUnseen);
  std::vector<AgentId> table;
  table.reserve(g.agent_count());
  std::vector<WireParent> parents;
  parents.reserve(parent_count);
  size_t size = sizeof(kPatchMagic) + 1 + VarintLen(chunks.size());
  auto intern = [&](AgentId id) {
    uint32_t& index = slot[id];
    if (index == kUnseen) {
      index = static_cast<uint32_t>(table.size());
      table.push_back(id);
      size += VarintLen(g.AgentName(id).size()) + g.AgentName(id).size();
    }
    return index;
  };
  for (const PendingChunk& chunk : chunks) {
    const OpSlice& slice = chunk.slice;
    size += 1 + VarintLen(intern(chunk.agent)) + VarintLen(chunk.seq_start) +
            VarintLen(slice.count) + VarintLen(slice.pos_start);
    if (slice.kind == OpKind::kInsert) {
      size += VarintLen(slice.text.size()) + slice.text.size();
    }
    if (chunk.chained) {
      continue;
    }
    std::span<const Lv> ps = chunk.parents();
    size += VarintLen(ps.size());
    for (Lv p : ps) {
      const AgentSpan& as = g.agent_spans().FindChecked(p);
      WireParent wp{intern(as.agent), as.seq_start + (p - as.span.start)};
      size += VarintLen(wp.agent) + VarintLen(wp.seq);
      parents.push_back(wp);
    }
  }
  size += VarintLen(table.size());

  std::string out;
  out.reserve(size);
  out.append(kPatchMagic, sizeof(kPatchMagic));
  out.push_back(static_cast<char>(kFormatVersion));
  AppendVarint(out, table.size());
  for (AgentId id : table) {
    const std::string& name = g.AgentName(id);
    AppendVarint(out, name.size());
    out += name;
  }
  AppendVarint(out, chunks.size());
  const WireParent* next_parent = parents.data();
  for (const PendingChunk& chunk : chunks) {
    const OpSlice& slice = chunk.slice;
    uint8_t flags = 0;
    if (slice.kind == OpKind::kDelete) {
      flags |= kChunkDelete;
      if (!slice.fwd) {
        flags |= kChunkBackspace;
      }
    }
    if (chunk.chained) {
      flags |= kChunkChainPrevious;
    }
    out.push_back(static_cast<char>(flags));
    AppendVarint(out, slot[chunk.agent]);
    AppendVarint(out, chunk.seq_start);
    AppendVarint(out, slice.count);
    if (!chunk.chained) {
      size_t n = chunk.parents().size();
      AppendVarint(out, n);
      for (; n > 0; --n, ++next_parent) {
        AppendVarint(out, next_parent->agent);
        AppendVarint(out, next_parent->seq);
      }
    }
    AppendVarint(out, slice.pos_start);
    if (slice.kind == OpKind::kInsert) {
      AppendVarint(out, slice.text.size());
      out += slice.text;
    }
  }
  EGW_CHECK(out.size() == size);
  return out;
}

}  // namespace

std::string MakePatch(const Doc& doc, const VersionSummary& they_have,
                      MakePatchStats* stats) {
  const Graph& g = doc.graph();
  const OpLog& ops = doc.ops();

  // Phase 1 — translate the receiver's summary into missing LV spans via
  // the agent-indexed history: per agent, the summary count is a watermark;
  // one binary search finds the first (seq run -> LV span) past it, and the
  // clipped tail of that agent's run list is its missing set. Only agents
  // and runs with missing events are ever touched.
  std::vector<LvSpan> missing;
  for (size_t a = 0; a < g.agent_count(); ++a) {
    const RleVec<AgentSeqRun>& runs = g.agent_runs(static_cast<AgentId>(a));
    if (runs.empty()) {
      continue;
    }
    uint64_t have = 0;
    if (auto it = they_have.agents.find(g.AgentName(static_cast<AgentId>(a)));
        it != they_have.agents.end()) {
      have = it->second;
    }
    if (have >= runs.back().seq_end) {
      continue;  // Caught up on this agent (or an inflated claim: trust it —
                 // the receiver's periodic sync requests repair any lie).
    }
    // First run with events at or past the watermark. (A causally-closed
    // graph holds per-agent seq *prefixes*, but the search stays a plain
    // first-seq_end-above-have bound so a gapped index would only over-send,
    // never crash.)
    size_t lo = 0, hi = runs.run_count();
    while (lo < hi) {
      size_t mid = lo + (hi - lo) / 2;
      if (runs[mid].seq_end <= have) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    for (size_t i = lo; i < runs.run_count(); ++i) {
      const AgentSeqRun& r = runs[i];
      uint64_t from_seq = std::max(r.seq_start, have);
      missing.push_back({r.lv_start + (from_seq - r.seq_start),
                         r.lv_start + (r.seq_end - r.seq_start)});
    }
  }
  if (missing.empty()) {
    return std::string();
  }
  // Phase 2 — merge the per-agent span lists into one ascending LV
  // sequence. Spans from different agents are disjoint, so a sort by start
  // is exactly the k-way merge, and LV order is the causal order the wire
  // format requires.
  std::sort(missing.begin(), missing.end(),
            [](const LvSpan& a, const LvSpan& b) { return a.start < b.start; });
  // A lazily chain-loaded doc keeps old segment ops cold; a patch reaching
  // back into that window (a receiver far behind the checkpoint chain)
  // materialises them here. Steady-state receivers stay above the cold end,
  // so this is normally a no-op. The `ops` reference above survives
  // hydration (the OpLog is rebuilt in place).
  doc.EnsureOpsFor(missing.front().start);

  // Phase 3 — cut chunks from the missing spans only. The scanner state
  // stays cheap because spans ascend; nothing outside them is visited.
  std::vector<PendingChunk> chunks;
  chunks.reserve(missing.size());  // At least one chunk per span.
  Lv prev_included_tail = kInvalidLv;  // LV of the previous chunk's last event.
  ChunkScanner scan(g, ops);
  for (const LvSpan& span : missing) {
    Lv olv = span.start;
    while (olv < span.end) {
      ChunkScanner::Chunk ck = scan.At(olv);
      // Agent-span boundaries bound both the scanner chunk and the missing
      // span, so ck.end never overshoots span.end; min() keeps a malformed
      // span from dragging known events in regardless.
      Lv chunk_end = std::min(ck.end, span.end);

      PendingChunk chunk;
      chunk.agent = ck.agent->agent;
      chunk.seq_start = ck.agent->seq_start + (olv - ck.agent->span.start);
      chunk.slice = ck.slice;  // Already starts at the first missing event.
      chunk.slice.count = chunk_end - olv;
      if (chunk_end < ck.end && chunk.slice.kind == OpKind::kInsert) {
        chunk.slice.text = chunk.slice.text.substr(
            0, Utf8ByteOfChar(chunk.slice.text, chunk.slice.count));
      }
      // Parents: mid-run events chain onto their predecessor — including
      // the chain-link edge case where the receiver's watermark split the
      // run and the predecessor is NOT in the patch (it is encoded as the
      // explicit parent (agent, seq-1) because prev_included_tail then
      // points at some other run's tail, never at olv-1).
      SetParents(chunk, *ck.entry, olv, prev_included_tail);
      prev_included_tail = chunk_end - 1;
      if (stats != nullptr) {
        // scanned counts the scanner's materialised chunk extent (ck.end),
        // encoded the span-clipped portion actually written. They agree
        // exactly when the builder touches nothing outside the missing
        // spans — the O(delta) property the soak asserts; a scan
        // overshooting its span (or a reintroduced history walk) makes
        // scanned outrun encoded.
        stats->events_scanned += ck.end - olv;
        stats->events_encoded += chunk.slice.count;
        ++stats->chunks;
      }
      chunks.push_back(chunk);
      olv = chunk_end;
    }
  }
  return EncodePendingChunks(g, chunks);
}

std::string MakePatchReference(const Doc& doc, const VersionSummary& they_have,
                               MakePatchStats* stats) {
  doc.EnsureOpsFor(0);  // The reference builder scans the whole history.
  const Graph& g = doc.graph();
  const OpLog& ops = doc.ops();

  // Collect chunks in LV (causal) order, like Doc::MergeFrom, but keep only
  // events beyond the receiver's per-agent prefix. This scans the whole
  // history per receiver — the pre-index behaviour MakePatch is
  // differentially tested against; production paths use MakePatch.
  std::vector<PendingChunk> chunks;
  std::unordered_map<std::string, uint64_t> have;
  for (const auto& [agent, count] : they_have.agents) {
    have.emplace(agent, count);
  }

  Lv prev_included_tail = kInvalidLv;  // LV of the previous included chunk's last event.
  Lv olv = 0;
  ChunkScanner scan(g, ops);
  while (olv < g.size()) {
    ChunkScanner::Chunk ck = scan.At(olv);
    const AgentSpan& as = *ck.agent;
    OpSlice slice = ck.slice;
    Lv chunk_end = ck.end;
    if (stats != nullptr) {
      stats->events_scanned += chunk_end - olv;  // Every event is visited.
    }

    const std::string& agent_name = g.AgentName(as.agent);
    uint64_t seq = as.seq_start + (olv - as.span.start);
    uint64_t known_remote = 0;
    if (auto it = have.find(agent_name); it != have.end() && it->second > seq) {
      known_remote = std::min<uint64_t>(it->second - seq, slice.count);
    }
    if (known_remote == slice.count) {
      olv = chunk_end;
      continue;
    }
    if (stats != nullptr) {
      stats->events_encoded += slice.count - known_remote;
      ++stats->chunks;
    }

    PendingChunk chunk;
    chunk.agent = as.agent;
    chunk.seq_start = seq + known_remote;
    chunk.slice = slice;
    if (known_remote > 0) {
      // The receiver has the run's prefix: clip it off the slice and chain
      // from (agent, seq-1), encoded as an explicit parent.
      chunk.slice.count -= known_remote;
      if (slice.kind == OpKind::kInsert) {
        chunk.slice.text = slice.text.substr(Utf8ByteOfChar(slice.text, known_remote));
        chunk.slice.pos_start += known_remote;
      } else if (!slice.fwd) {
        chunk.slice.pos_start -= known_remote;
      }
      chunk.entry_parents = nullptr;
      chunk.own_parent = olv + known_remote - 1;
      chunk.chained = false;
    } else {
      SetParents(chunk, *ck.entry, olv, prev_included_tail);
    }
    prev_included_tail = chunk_end - 1;
    chunks.push_back(chunk);
    olv = chunk_end;
  }
  return EncodePendingChunks(g, chunks);
}

bool SummaryCoversRange(const Graph& graph, const VersionSummary& summary, Lv from, Lv to) {
  if (from >= to) {
    return true;
  }
  if (to > graph.size()) {
    return false;
  }
  const RleVec<AgentSpan>& spans = graph.agent_spans();
  size_t idx = spans.FindIndex(from);
  EGW_CHECK(idx != RleVec<AgentSpan>::npos);
  for (; idx < spans.run_count(); ++idx) {
    const AgentSpan& as = spans[idx];
    if (as.span.start >= to) {
      break;
    }
    // Summaries are per-agent prefixes, so covering the range's highest seq
    // in this run covers the whole overlap.
    Lv hi = std::min(to, as.span.end);
    uint64_t seq_hi = as.seq_start + (hi - as.span.start);
    auto it = summary.agents.find(graph.AgentName(as.agent));
    if (it == summary.agents.end() || it->second < seq_hi) {
      return false;
    }
  }
  return true;
}

std::optional<RemoteBatch> DecodePatch(std::string_view bytes, std::string* error) {
  auto fail = [&](const char* msg) -> std::optional<RemoteBatch> {
    if (error != nullptr) {
      *error = msg;
    }
    return std::nullopt;
  };
  ByteReader reader(reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
  // A view of the next `n` bytes, or false when fewer remain.
  auto read_view = [&](uint64_t n, std::string_view& out) {
    size_t at = reader.position();
    if (!reader.Skip(n)) {
      return false;
    }
    out = bytes.substr(at, n);
    return true;
  };
  std::string_view magic;
  if (!read_view(4, magic) || magic != std::string_view(kPatchMagic, 4)) {
    return fail("bad patch magic");
  }
  auto version = reader.ReadByte();
  if (!version || *version != kFormatVersion) {
    return fail("unsupported patch version");
  }
  auto agent_count = reader.ReadVarint();
  if (!agent_count || *agent_count == 0 || *agent_count > 1u << 24) {
    return fail("bad patch agent count");
  }
  // Reservations are capped by the bytes left, so a hostile count cannot
  // make the decoder allocate more than the patch's own size warrants.
  RemoteBatch batch;
  batch.agents.reserve(std::min<uint64_t>(*agent_count, reader.remaining()));
  for (uint64_t i = 0; i < *agent_count; ++i) {
    auto len = reader.ReadVarint();
    std::string_view name;
    if (!len || !read_view(*len, name)) {
      return fail("bad patch agent name");
    }
    batch.agents.push_back(name);
  }
  auto chunk_count = reader.ReadVarint();
  if (!chunk_count || *chunk_count > 1u << 28) {
    return fail("bad patch chunk count");
  }
  // Every chunk takes at least 5 bytes (flags, agent, seq, count, pos).
  batch.runs.reserve(std::min<uint64_t>(*chunk_count, reader.remaining() / 5));
  for (uint64_t i = 0; i < *chunk_count; ++i) {
    auto flags = reader.ReadByte();
    auto agent = reader.ReadVarint();
    auto seq = reader.ReadVarint();
    auto count = reader.ReadVarint();
    if (!flags || !agent || *agent >= batch.agents.size() || !seq || !count || *count == 0) {
      return fail("bad chunk header");
    }
    RemoteBatch::Run run;
    run.agent = static_cast<uint32_t>(*agent);
    run.seq_start = *seq;
    run.count = *count;
    run.kind = (*flags & kChunkDelete) != 0 ? OpKind::kDelete : OpKind::kInsert;
    run.fwd = (*flags & kChunkBackspace) == 0;
    run.chain_previous = (*flags & kChunkChainPrevious) != 0;
    if (run.chain_previous && i == 0) {
      return fail("first chunk cannot chain");
    }
    run.parents_begin = batch.parents.size();
    if (!run.chain_previous) {
      auto nparents = reader.ReadVarint();
      // Each parent takes at least two bytes, so a count the bytes left
      // cannot hold is malformed (and cannot inflate the resize below).
      if (!nparents || *nparents > 1u << 16 || *nparents > reader.remaining() / 2) {
        return fail("bad chunk parent count");
      }
      // One resize per chunk: a wide chunk costs at most one reallocation.
      batch.parents.resize(run.parents_begin + *nparents);
      for (size_t p = run.parents_begin; p < batch.parents.size(); ++p) {
        auto pagent = reader.ReadVarint();
        auto pseq = reader.ReadVarint();
        if (!pagent || *pagent >= batch.agents.size() || !pseq) {
          return fail("bad chunk parent");
        }
        batch.parents[p] = {static_cast<uint32_t>(*pagent), *pseq};
      }
    }
    run.parents_end = batch.parents.size();
    auto pos = reader.ReadVarint();
    if (!pos) {
      return fail("bad chunk position");
    }
    run.pos = *pos;
    if (run.kind == OpKind::kInsert) {
      auto text_len = reader.ReadVarint();
      if (!text_len || !read_view(*text_len, run.text)) {
        return fail("bad chunk text");
      }
      if (!Utf8IsValid(run.text) || Utf8CountChars(run.text) != run.count) {
        return fail("chunk text does not match event count");
      }
    }
    batch.runs.push_back(run);
  }
  if (!reader.empty()) {
    return fail("trailing patch bytes");
  }
  return batch;
}

std::optional<uint64_t> ApplyPatch(Doc& doc, std::string_view bytes, std::string* error) {
  if (bytes.empty()) {
    return 0;  // MakePatch returns an empty string for "nothing to send".
  }
  auto batch = DecodePatch(bytes, error);
  if (!batch) {
    return std::nullopt;
  }
  return doc.ApplyRemoteBatch(*batch, error);
}

}  // namespace egwalker
