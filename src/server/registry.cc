#include "server/registry.h"

#include <utility>

#include "obs/trace.h"
#include "util/assert.h"

namespace egwalker {

void MemStorage::Append(const std::string& doc, std::string segment) {
  total_bytes_ += segment.size();
  chains_[doc].push_back(std::move(segment));
}

const std::vector<std::string>* MemStorage::Chain(const std::string& doc) const {
  auto it = chains_.find(doc);
  return it == chains_.end() ? nullptr : &it->second;
}

void MemStorage::Replace(const std::string& doc, std::vector<std::string> chain) {
  std::vector<std::string>& slot = chains_[doc];
  for (const std::string& segment : slot) {
    total_bytes_ -= segment.size();
  }
  for (const std::string& segment : chain) {
    total_bytes_ += segment.size();
  }
  if (chain.empty()) {
    // Replacing with nothing means the document has no persisted state:
    // erase the entry so Chain() reports "never flushed" rather than
    // handing Open() a zero-segment chain to decode. Shard handoff relies
    // on this when it lifts a drained document's chain out of one shard's
    // storage to re-home it in another's.
    chains_.erase(doc);
    return;
  }
  slot = std::move(chain);
}

DocRegistry::DocRegistry(SegmentStorage& storage, const Config& config)
    : storage_(storage), config_(config) {
  EGW_CHECK(config_.checkpoint.include_deleted_content);
}

Doc& DocRegistry::Open(const std::string& name) {
  Doc* doc = TryOpen(name);
  // Chains are written by this registry; a decode failure is corruption,
  // and this caller opted out of handling it.
  EGW_CHECK(doc != nullptr);
  return *doc;
}

Doc* DocRegistry::TryOpen(const std::string& name, std::string* error) {
  ++stats_.opens;
  auto it = entries_.find(name);
  if (it != entries_.end()) {
    ++stats_.hits;
    Touch(it->second);
    return &it->second.doc;
  }

  Entry* entry = nullptr;
  if (const std::vector<std::string>* chain = storage_.Chain(name)) {
    // One span over the whole reload: the chain decode and the session
    // resume below are both the price of having evicted the document.
    EGW_TRACE_SPAN("registry.load");
    auto loaded = Doc::LoadChain(*chain, config_.agent, error);
    if (!loaded.has_value()) {
      // Fail the whole open: no partial document, no resident entry. The
      // chain stays in storage untouched so an operator can inspect or
      // restore it; retrying Open without a repair fails again.
      ++stats_.chain_load_failures;
      return nullptr;
    }
    ++stats_.loads;
    stats_.replayed_on_load += loaded->replayed_events();
    stats_.lazy_segments_skipped += loaded->lazy_segments_skipped();
    stats_.lazy_bytes_skipped += loaded->lazy_bytes_skipped();
    const Lv checkpoint_lv = loaded->end_lv();
    entry = &entries_.emplace(name, Entry{std::move(*loaded), checkpoint_lv, 0}).first->second;
    // Sessions never survive the moves above; resume on the settled Doc so
    // an evicted-then-reloaded document merges exactly like a resident one
    // (TryResumeSession is a no-op for checkpoint-free chains — older
    // files, checkpoint_session_anchor off — which keep the plain reload
    // behaviour).
    if (entry->doc.TryResumeSession()) {
      ++stats_.session_resumes;
    }
  } else {
    ++stats_.creates;
    entry = &entries_.emplace(name, Entry{Doc(config_.agent), 0, 0}).first->second;
  }
  Touch(*entry);
  EvictOverCapacity(name);
  return &entry->doc;
}

uint64_t DocRegistry::TotalReplayedEvents() const {
  uint64_t total = stats_.replayed_retired;
  for (const auto& [name, entry] : entries_) {
    total += entry.doc.replayed_events();
  }
  return total;
}

uint64_t DocRegistry::TotalOpsHydrations() const {
  uint64_t total = stats_.hydrations_retired;
  for (const auto& [name, entry] : entries_) {
    total += entry.doc.ops_hydrations();
  }
  return total;
}

uint64_t DocRegistry::TotalHydratedBytes() const {
  uint64_t total = stats_.hydrated_bytes_retired;
  for (const auto& [name, entry] : entries_) {
    total += entry.doc.hydrated_bytes();
  }
  return total;
}

uint64_t DocRegistry::DirtyEvents(const std::string& name) const {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return 0;
  }
  return it->second.doc.end_lv() - it->second.checkpoint_lv;
}

bool DocRegistry::FlushEntry(const std::string& name, Entry& entry, bool retiring) {
  // The serialized walker session rides only on retiring (eviction)
  // flushes — only a chain's final segment's state is ever consumed, so
  // periodic checkpoints skip those bytes.
  SaveOptions opts = config_.checkpoint;
  opts.checkpoint_session_state = retiring;

  // Compaction applies to BOTH write paths below: a heavily evicted
  // document accumulates one segment per eviction (incremental or refresh),
  // and once the chain is about to reach the threshold the write is
  // replaced by a single consolidated segment, so reload cost stays
  // O(history), not O(history x evictions).
  const std::vector<std::string>* chain = storage_.Chain(name);
  size_t chain_len = chain != nullptr ? chain->size() : 0;
  const bool compact = config_.compact_above_segments != 0 &&
                       chain_len + 1 >= config_.compact_above_segments;
  auto write = [&](const SaveOptions& incremental_opts) {
    EGW_TRACE_SPAN("registry.flush");
    if (compact) {
      EGW_TRACE_SPAN("registry.compact");
      // The consolidated segment replaces the whole chain, so it keeps the
      // configured cached-doc behaviour and carries the session iff this
      // flush is retiring.
      std::vector<std::string> consolidated;
      consolidated.push_back(entry.doc.SaveSegment(0, opts));
      storage_.Replace(name, std::move(consolidated));
      ++stats_.compactions;
    } else {
      storage_.Append(name, entry.doc.SaveSegment(entry.checkpoint_lv, incremental_opts));
    }
    entry.checkpoint_lv = entry.doc.end_lv();
    ++stats_.flushes;
  };

  if (entry.doc.end_lv() == entry.checkpoint_lv) {
    // Clean: an incremental flush writes nothing — except when the document
    // is being retired with a live merge session. Losing the session would
    // make the next post-reload merge rebuild internal state from scratch,
    // so the eviction appends a tiny *refresh* segment (no events, no
    // cached doc — the previous segment's is still valid, see
    // DecodeSegmentInto) carrying just the serialized session.
    if (retiring && config_.checkpoint.checkpoint_session_anchor &&
        entry.doc.merge_session_active() && chain_len > 0) {
      // Idle evict/resume cycles would otherwise append an identical
      // refresh per cycle: a clean document's session is semantically the
      // one the chain's final segment already holds (nothing merged since
      // the resume), so an existing state checkpoint makes this a no-op.
      if (auto info = PeekSegment((*chain)[chain_len - 1]);
          info.has_value() && info->has_session_state) {
        return false;
      }
      SaveOptions refresh = opts;
      refresh.cache_final_doc = false;
      write(refresh);
      return true;
    }
    return false;
  }
  write(opts);
  return true;
}

bool DocRegistry::Flush(const std::string& name) {
  auto it = entries_.find(name);
  return it != entries_.end() && FlushEntry(name, it->second);
}

bool DocRegistry::FlushIfDirty(const std::string& name, uint64_t min_new_events) {
  auto it = entries_.find(name);
  if (it == entries_.end() ||
      it->second.doc.end_lv() - it->second.checkpoint_lv < min_new_events) {
    return false;
  }
  return FlushEntry(name, it->second);
}

void DocRegistry::FlushAll() {
  for (auto& [name, entry] : entries_) {
    FlushEntry(name, entry);
  }
}

bool DocRegistry::Evict(const std::string& name) {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return false;
  }
  FlushEntry(name, it->second, /*retiring=*/true);
  stats_.replayed_retired += it->second.doc.replayed_events();
  stats_.hydrations_retired += it->second.doc.ops_hydrations();
  stats_.hydrated_bytes_retired += it->second.doc.hydrated_bytes();
  entries_.erase(it);
  ++stats_.evictions;
  return true;
}

void DocRegistry::EvictOverCapacity(const std::string& keep) {
  if (config_.max_resident == 0) {
    return;
  }
  while (entries_.size() > config_.max_resident) {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->first == keep) {
        continue;
      }
      if (victim == entries_.end() || it->second.last_used < victim->second.last_used) {
        victim = it;
      }
    }
    if (victim == entries_.end()) {
      return;  // Only the protected document is resident.
    }
    FlushEntry(victim->first, victim->second, /*retiring=*/true);
    stats_.replayed_retired += victim->second.doc.replayed_events();
    stats_.hydrations_retired += victim->second.doc.ops_hydrations();
    stats_.hydrated_bytes_retired += victim->second.doc.hydrated_bytes();
    entries_.erase(victim);
    ++stats_.evictions;
  }
}

}  // namespace egwalker
