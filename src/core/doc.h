// Doc: the user-facing collaborative text document.
//
// This is the public API a text editor would embed. In the steady state a
// Doc holds only the document text (a rope) plus the event graph columns —
// no CRDT metadata (Section 3.1). Local edits append events to the graph
// and apply directly to the rope; the Eg-walker machinery runs only when
// concurrent remote events are merged, and its internal state is discarded
// as soon as the merge completes.
//
// Merging is incremental: the Doc caches the critical versions discovered
// during previous replays, so MergeFrom only replays the events after the
// most recent critical version that precedes the incoming ones
// (Section 3.6) — usually a small suffix of the history.
//
// On top of that, consecutive merges share a *persistent walker session*
// (see walker.h): the internal state built by one merge is kept alive, so
// the next merge replays only the events appended since — local edits
// catch up silently, remote events apply live. The session is dropped (and
// the incremental replay falls back to the critical-version path) when the
// incoming events are concurrent with the session's base, or when the
// retained state grows past a memory cap. Sessions are a pure cache:
// merged documents are byte-identical with sessions on or off.
//
// Save/Load use the columnar format of Section 3.8, optionally caching the
// final text so documents open without any replay.

#ifndef EGWALKER_CORE_DOC_H_
#define EGWALKER_CORE_DOC_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "core/walker.h"
#include "encoding/columnar.h"
#include "rope/rope.h"
#include "trace/trace.h"

namespace egwalker {

// Remote event runs with their agents interned: the shape a sync patch
// carries on the wire (sync/patch.h decodes straight into it) and the one
// form Doc::ApplyRemoteBatch consumes. `agents` lists each agent name once
// (a batch that repeats a name is rejected); runs and parents refer to
// names by index, so applying a batch looks each name up in the local
// graph once, however many runs and parents cite it. Names and text are
// views: the bytes behind them must outlive the batch.
struct RemoteBatch {
  struct Parent {
    uint32_t agent = 0;  // Index into `agents`.
    uint64_t seq = 0;
  };
  struct Run {
    uint32_t agent = 0;  // Index into `agents`.
    uint64_t seq_start = 0;
    uint64_t count = 0;
    // Parents of the first event: parents[parents_begin, parents_end), or,
    // with chain_previous set, the previous run's last event (the range is
    // then ignored).
    bool chain_previous = false;
    size_t parents_begin = 0;
    size_t parents_end = 0;
    // The operation run (see OpRun semantics).
    OpKind kind = OpKind::kInsert;
    uint64_t pos = 0;
    bool fwd = true;
    std::string_view text;
  };
  std::vector<std::string_view> agents;
  std::vector<Parent> parents;
  std::vector<Run> runs;
};

class Doc {
 public:
  // `agent_name` must be unique among collaborating replicas.
  explicit Doc(std::string_view agent_name);

  // --- Local editing ------------------------------------------------------

  // Inserts UTF-8 `text` at character position `pos` (<= size()).
  void Insert(uint64_t pos, std::string_view text);

  // Deletes `count` characters starting at `pos`.
  void Delete(uint64_t pos, uint64_t count);

  // --- Reading ------------------------------------------------------------

  std::string Text() const { return rope_.ToString(); }
  uint64_t size() const { return rope_.char_size(); }
  const Frontier& version() const { return trace_.graph.version(); }
  const Graph& graph() const { return trace_.graph; }
  const OpLog& ops() const { return trace_.ops; }
  // This replica's agent identity (interned at construction).
  const std::string& agent_name() const { return trace_.graph.AgentName(agent_); }
  // The sequence number the next local edit would take — equivalently, how
  // many events this replica has authored. Convergence probes use it: the
  // latest authored event is (agent_name(), next_seq() - 1).
  uint64_t next_seq() const { return trace_.graph.NextSeqFor(agent_); }

  // Reconstructs the document text at an arbitrary historical version by
  // replaying Events(version) (time travel / history browsing).
  std::string TextAt(const Frontier& version) const;

  // --- Synchronisation ----------------------------------------------------

  // Pulls every event `other` has that this replica lacks, then merges.
  // Returns the number of events merged. Both documents may have diverged
  // arbitrarily (offline editing, long-running branches).
  uint64_t MergeFrom(const Doc& other);

  // Integrates event runs received from a remote replica (causal order:
  // every run's parents must be satisfied by known events or earlier runs
  // of the batch). Already-known events are skipped, concurrent ones are
  // merged incrementally. Returns the number of new events, or std::nullopt
  // if a run references an unknown parent or is malformed — the caller (the
  // reliable-broadcast layer of Section 2.1) should retry once the gap is
  // filled; the document is left unchanged in that case. Every agent name
  // in the batch is resolved against the local graph once, and the
  // validation and append passes work on ids. sync's ApplyPatch decodes
  // into a batch; MergeFrom builds one from the other document's graph.
  std::optional<uint64_t> ApplyRemoteBatch(const RemoteBatch& batch,
                                           std::string* error = nullptr);

  // --- Editor integration ---------------------------------------------------

  // Change listener: receives the *transformed* operations (Section 2.4's
  // incremental update) that MergeFrom / ApplyRemoteBatch apply to the
  // text, so an editor can patch its own buffer instead of reloading it.
  // Positions are indexes into the document as it stands when each op is
  // delivered; ops arrive in application order. Local Insert/Delete calls
  // do not notify (the editor made those itself). Pass nullptr to detach.
  using ChangeListener = void (*)(const XfOp& op, void* ctx);
  void SetChangeListener(ChangeListener listener, void* ctx) {
    change_listener_ = listener;
    change_ctx_ = ctx;
  }

  // --- Persistence --------------------------------------------------------

  // Serialises the full event graph; with cache_final_doc set, loading
  // needs no replay.
  std::string Save(const SaveOptions& options = {}) const;

  // Restores a document (including this replica's agent identity) from
  // Save() output. Returns std::nullopt on malformed input.
  static std::optional<Doc> Load(std::string_view bytes, std::string_view agent_name,
                                 std::string* error = nullptr);

  // --- Incremental checkpointing (server hooks) ---------------------------

  // One past the last event's LV: the frontier of checkpoint bookkeeping.
  // A server flush saves [last_checkpoint, end_lv()) and records end_lv()
  // as the new checkpoint; any LV prefix is causally closed.
  Lv end_lv() const { return trace_.graph.size(); }

  // The newest cached critical version (kInvalidLv if none): the natural
  // boundary for checkpoint policies that want replay-free partial loads
  // even without a cached document. Every cached candidate is critical with
  // respect to the current graph (new events are only ever appended under
  // domination checks), which is what lets SaveSegment checkpoint it as the
  // segment's session anchor.
  Lv latest_critical() const {
    return critical_candidates_.empty() ? kInvalidLv : critical_candidates_.back();
  }

  // Document character length at latest_critical() (0 if none).
  uint64_t latest_critical_len() const {
    return critical_lens_.empty() ? 0 : critical_lens_.back();
  }

  // Serialises events [base_lv, end_lv()) as an append-only checkpoint
  // segment (see encoding/columnar.h). With options.cache_final_doc set the
  // current text rides along, so a LoadChain ending in this segment replays
  // nothing; with options.checkpoint_session_anchor set (the default) the
  // newest critical version rides along as the segment's session anchor.
  // options.include_deleted_content must stay true for segments.
  std::string SaveSegment(Lv base_lv, const SaveOptions& options = {}) const;

  // Restores a document from a chain of SaveSegment outputs (contiguous,
  // oldest first). When the final segment carries a cached document, the
  // load is replay-free: replayed_events() of the result is 0. When it also
  // carries a session anchor, the anchor re-seeds the incremental-replay
  // candidates — the first post-reload merge replays from the anchor
  // instead of rebuilding the whole history — and, when the loaded frontier
  // is a single tip, the merge session itself is resumed for free (the
  // post-clear walker state at a critical tip is just a placeholder over
  // the cached document), so eviction/reload no longer costs the next merge
  // anything: replayed_events() stays O(appended), exactly as if the
  // document had never left memory.
  // A chain that ends on a cached document decodes the ops/content columns
  // of its leading v2 segments lazily: the reload parses only graph columns
  // (plus the final text), and the skipped payloads are hydrated on demand
  // by the first operation that actually walks back into the old window
  // (Doc::EnsureOpsFor). Checksums of skipped columns are still verified at
  // load.
  // A corrupt or discontiguous segment anywhere in the chain fails the
  // WHOLE load (no partial prefix is ever returned), with *error naming
  // the offending segment index.
  static std::optional<Doc> LoadChain(const std::vector<std::string>& segments,
                                      std::string_view agent_name,
                                      std::string* error = nullptr);

  // Diagnostic counter: how many events this Doc has replayed through the
  // walker (full rebuilds, incremental merges, uncached loads). Incremental
  // checkpointing exists to keep this at zero on reload; the server soak
  // test asserts on it.
  uint64_t replayed_events() const { return replayed_events_; }

  // --- Lazy ops (chain loads) ---------------------------------------------

  // Guarantees trace().ops holds materialised runs for every LV >= lowest.
  // A no-op unless this Doc was lazily chain-loaded and `lowest` reaches
  // into the cold prefix; then the retained segment payloads are decoded
  // and the op log rebuilt in place (logically const: hydration changes
  // no observable document state). Every ops consumer inside Doc calls
  // this; external readers of ops() below the cold end must too (the sync
  // layer's MakePatch does).
  void EnsureOpsFor(Lv lowest) const;

  // Diagnostics for the registry's lazy-decode stats: how many segment
  // ops/content columns this load skipped and their stored bytes; how many
  // hydration passes ran afterwards and how much of the skipped data they
  // actually decoded. Hydration is suffix-only, so hydrated_bytes() <
  // lazy_bytes_skipped() whenever a merge reached only part-way back — the
  // "reload decodes only the touched suffix" property the churn tests
  // assert.
  uint64_t lazy_segments_skipped() const { return lazy_segments_skipped_; }
  uint64_t lazy_bytes_skipped() const { return lazy_bytes_skipped_; }
  uint64_t ops_hydrations() const { return hydrations_; }
  uint64_t hydrated_segments() const { return hydrated_segments_; }
  uint64_t hydrated_bytes() const { return hydrated_bytes_; }

  // --- Merge sessions -----------------------------------------------------

  // Per-document toggle for persistent walker sessions (on by default; the
  // process-wide default below seeds new documents). Turning sessions off
  // drops any live session; merges then rebuild a fresh walker each time —
  // the behaviour differential tests compare against.
  void set_merge_sessions(bool enabled);
  bool merge_sessions() const { return merge_sessions_; }

  // Process-wide default copied by every subsequently constructed/loaded
  // Doc. Lets soak tests toggle whole server topologies (registry docs,
  // client replicas) without threading a flag through each layer.
  static void SetMergeSessionsDefault(bool enabled);
  static bool MergeSessionsDefault();

  // True while a walker session is retained for the next merge.
  bool merge_session_active() const;

  // Reopens a merge session on a settled document (sessions never survive a
  // Doc copy/move — the walker references this Doc's trace by address, so
  // resuming must happen after the Doc has reached its final address).
  // A no-op unless this Doc was chain-loaded from a segment carrying a
  // session checkpoint (anchor or serialized state) — checkpoint-free
  // chains keep the plain reload behaviour. Rebuilds the checkpointed
  // session state when present (works at any frontier), or falls back to
  // the free placeholder rebuild at a single critical tip; returns whether
  // a session is active afterwards. DocRegistry::Open calls this after a
  // chain reload so eviction/reload does not cost the next merge a history
  // re-walk.
  bool TryResumeSession();

  // --- Introspection ------------------------------------------------------

  const Trace& trace() const { return trace_; }

 private:
  Doc() = default;
  void NoteLocalEvent(Lv tip);
  void DropSession();
  // Decodes the suffix of retained cold payloads covering [lowest,
  // cold_end) and re-materialises trace_.ops (a shortened cold prefix,
  // the decoded suffix, then the already-warm runs re-appended). The
  // OpLog is move-assigned in place, so outstanding `const OpLog&`
  // references (the session walker's) stay valid; RLE cursors merely go
  // stale, which hinted lookups tolerate.
  void HydrateOps(Lv lowest);
  // The most recent cached critical version dominating every newly merged
  // chunk, or kInvalidLv for "replay everything". Prunes invalidated
  // candidates.
  Lv FindReplayBase(const std::vector<Lv>& new_chunk_starts);

  // The retained walker references this Doc's trace_ by address, so it must
  // not survive a copy or move of the Doc — on either side: every special
  // member leaves both slots empty (the session is a cache; dropping it is
  // always correct). A moved-from source in particular must not keep a
  // walker whose seen_end outruns its gutted graph.
  struct SessionSlot {
    std::unique_ptr<Walker> walker;
    SessionSlot() = default;
    SessionSlot(const SessionSlot&) noexcept {}
    SessionSlot(SessionSlot&& other) noexcept { other.walker.reset(); }
    SessionSlot& operator=(const SessionSlot&) noexcept {
      walker.reset();
      return *this;
    }
    SessionSlot& operator=(SessionSlot&& other) noexcept {
      walker.reset();
      other.walker.reset();
      return *this;
    }
  };

  static bool default_merge_sessions_;

  Trace trace_;
  Rope rope_;
  AgentId agent_ = 0;
  SessionSlot session_;
  // Serialized walker session found by LoadChain, held until
  // TryResumeSession consumes it (the walker itself cannot be built before
  // the Doc settles at its final address — see SessionSlot).
  std::string pending_session_state_;
  // True iff LoadChain's final segment carried a session checkpoint
  // (anchor and/or state): the gate for TryResumeSession.
  bool chain_session_checkpoint_ = false;
  bool merge_sessions_ = default_merge_sessions_;
  // Cached critical versions (ascending) and the document length at each;
  // parallel vectors, bounded by kMaxCandidates.
  std::vector<Lv> critical_candidates_;
  std::vector<uint64_t> critical_lens_;
  ChangeListener change_listener_ = nullptr;
  void* change_ctx_ = nullptr;
  uint64_t replayed_events_ = 0;
  // Lazily-skipped segment payloads (oldest first, contiguous from LV 0),
  // kept until HydrateOps consumes them. Mutable with hydrations_ because
  // hydration is a logically-const cache fill (same idiom as the walker's
  // internal caches).
  mutable std::vector<SegmentOpsPayload> cold_ops_;
  mutable uint64_t hydrations_ = 0;
  mutable uint64_t hydrated_segments_ = 0;
  mutable uint64_t hydrated_bytes_ = 0;
  uint64_t lazy_segments_skipped_ = 0;
  uint64_t lazy_bytes_skipped_ = 0;
};

}  // namespace egwalker

#endif  // EGWALKER_CORE_DOC_H_
