#ifndef XPSTREAM_PUBLIC_ENGINE_H_
#define XPSTREAM_PUBLIC_ENGINE_H_

/// \file
/// The public streaming-filter facade. One Engine answers BOOLEVAL for a
/// set of subscriptions over a sequence of streaming XML documents:
///
///   auto engine = Engine::Create({.engine = "frontier"});
///   (*engine)->Subscribe("cheap-books", "/book[price < 30]/title");
///   (*engine)->Feed(xml_chunk);        // bytes, any chunking
///   (*engine)->FinishDocument();
///   bool hit = *(*engine)->Matched("cheap-books");
///
/// The algorithm is selected by registry name — "naive", "nfa",
/// "lazy_dfa", "frontier" (the paper's Section 8 algorithm, the
/// default), or "nfa_index" (a YFilter-style shared automaton for
/// thousand-query dissemination). Single-query filtering and multi-query
/// dissemination use the same subscription model; every engine reports
/// uniform MemoryStats.
///
/// Three entry points, highest level first:
///  * bytes    — Feed()/FinishDocument() or FilterXml(); the engine owns
///               the streaming XML parser, callers never see SAX;
///  * SAX      — OnEvent() (the Engine is an EventSink) with document
///               boundaries taken from start/endDocument events;
///  * batch    — FilterEvents() for a pre-parsed document.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/memory_stats.h"
#include "common/status.h"
#include "xml/event.h"
#include "xml/stats.h"
#include "xpstream/query.h"

namespace xpstream {

class DfaTableCache;  // internal (stream/dfa_table_cache.h)
class Matcher;        // internal (stream/matcher.h)
class SymbolTable;    // internal (xml/symbol_table.h)
class ThreadPool;     // internal (common/thread_pool.h)
class XmlParser;      // internal (xml/parser.h)

/// What happens to a Subscribe whose predicted peak memory would push
/// the engine past EngineOptions::memory_budget_bytes.
enum class AdmissionPolicy {
  /// Fail the Subscribe with kResourceExhausted; the engine is
  /// untouched. The default.
  kReject,
  /// Admit the subscription degraded: its delivery mode is forced to
  /// kAtEnd (no early push work) and the admission is counted in
  /// admission_degrades(). The predicted cost is still charged, so one
  /// over-budget admission does not open the gate for the next.
  kDegrade,
};

/// When a subscription's result is pushed to the ResultSink.
enum class DeliveryMode {
  /// Notify at document completion — the classic pull behavior, the
  /// default. The reported event ordinal is still the engine's decided
  /// position; only the callback is deferred to the document boundary.
  kAtEnd,
  /// Notify at the first event where the engine's verdict is provably
  /// decided — its commitment point, the quantity the paper's
  /// buffering bounds reason about. Different engines commit at
  /// different positions on the same document (automata on accepting-
  /// state entry, the frontier algorithm at endElement aggregation,
  /// the naive engine only at endDocument).
  kEarliest,
};

/// Observer for push-based result delivery. Attach with
/// Engine::SetSink(); override only what you need. Callbacks are
/// synchronous with the event stream and always arrive on the thread
/// driving the engine, in a deterministic order that is bit-identical
/// between threads = 1 and sharded execution: OnMatch calls in
/// nondecreasing event-ordinal order (ascending slot within one
/// ordinal), then the document's OnDocumentDone.
class ResultSink {
 public:
  virtual ~ResultSink() = default;

  /// Subscription `slot` (its index in subscription_ids() order)
  /// matched document `doc_index`; `event_ordinal` is the 0-based
  /// position of the deciding event in the document's SAX stream
  /// (startDocument = 0). Delivered at the deciding event for
  /// kEarliest subscriptions and at document completion for kAtEnd
  /// ones. Non-matches are not reported here — read them from
  /// OnDocumentDone.
  virtual void OnMatch(size_t slot, size_t doc_index, size_t event_ordinal) {
    (void)slot;
    (void)doc_index;
    (void)event_ordinal;
  }

  /// Document `doc_index` completed with these verdicts (in
  /// subscription_ids() order). Fires for every completed document,
  /// after all of its OnMatch deliveries.
  virtual void OnDocumentDone(size_t doc_index,
                              const std::vector<bool>& verdicts) {
    (void)doc_index;
    (void)verdicts;
  }
};

/// Engine construction options.
struct EngineOptions {
  /// Registry name of the filtering algorithm — or "auto", which routes
  /// each subscription to the engine the query planner
  /// (xpstream/planner.h) predicts cheapest for it — or, for a linear
  /// path, to the shared nfa_index when the index's population bound
  /// stays within its members' charges — falling back down the ranking
  /// when an engine rejects the query at Subscribe time.
  /// "auto" is a routing policy, not a registry engine, so it does not
  /// appear in AvailableEngines().
  std::string engine = "frontier";

  /// Per-engine (per-tenant) admission budget in predicted peak bytes;
  /// 0 = no admission control. Every new evaluation slot is priced by
  /// the planner against the profile of the documents observed so far
  /// (assumed_profile before the first document); when the running
  /// predicted total would exceed this budget, the Subscribe is
  /// rejected or degraded per `admission`. Deduplicated subscriptions
  /// (an equivalent query already evaluating) are free and always
  /// admitted.
  size_t memory_budget_bytes = 0;

  /// What to do with a Subscribe that would overrun the budget.
  AdmissionPolicy admission = AdmissionPolicy::kReject;

  /// The document profile admission control and "auto" routing price
  /// against until the first real document is observed (then running
  /// maxima of observed documents take over). Deployments expecting
  /// hostile input should assert here the worst document their caps
  /// admit.
  DocumentProfile assumed_profile;

  /// Record the verdicts of every completed document in history().
  /// Disable for unbounded document streams where only Matched() /
  /// last_verdicts() and the peak gauges are consumed.
  bool keep_history = true;

  /// Matching threads. 1 (the default) runs the base engine unchanged;
  /// N > 1 partitions subscriptions round-robin across N shards of the
  /// base engine and replays every document's event batch to all shards
  /// on a persistent thread pool. Verdicts and history are bit-identical
  /// to threads = 1 regardless of scheduling. Stats are deterministic
  /// (slot-ordered merge, scheduling-independent) but not equal to the
  /// threads = 1 readings: sharding changes per-shard structure sizes
  /// (e.g. nfa_index loses cross-shard prefix sharing) and the buffered
  /// event batch is charged to buffered_bytes. 0 means one thread per
  /// hardware core.
  size_t threads = 1;

  /// Documents of parse lookahead in FilterDocuments(): with threads >
  /// 1, up to this many upcoming documents are parsed on the pool while
  /// earlier ones are matched. Values below 1 are treated as 1.
  size_t batch_size = 8;

  /// Stop matching a document as soon as every subscription's verdict
  /// is provably decided (all matched — verdicts are monotone, so
  /// non-matches only decide at endDocument). The rest of the document
  /// is consumed through a fast well-formedness-only path: byte input
  /// is still fully parsed and validated, SAX input is depth-checked,
  /// but no engine sees the remaining events. A pure work cut — the
  /// verdicts, decided positions and sink deliveries are identical to
  /// a full scan. With threads > 1 the skip happens inside each
  /// shard's batch replay instead (events are already buffered by the
  /// time matching starts).
  bool short_circuit = false;

  /// Maximum open-element depth a document may reach on the streaming
  /// entry points (bytes and per-event SAX); 0 = unlimited. Exceeding
  /// it fails the document with kNotWellFormed before the offending
  /// event reaches any engine — hostile-input hardening for service
  /// deployments, where deep recursion is exactly the adversary the
  /// paper's §4 lower bounds build. The whole-document batch fast path
  /// (FilterEvents of a single envelope with threads > 1) trusts its
  /// pre-parsed input and does not enforce the cap.
  size_t max_element_depth = 0;

  /// Cap on the cumulative bytes one document's entity and character
  /// references may decode to on the byte entry points (0 = unlimited).
  /// A billion-laughs-style reference flood fails the document with a
  /// clean kParseError instead of demanding unbounded decode work;
  /// DTD-defined entities are rejected outright by the parser, so this
  /// bounds the predefined-entity/charref amplification that remains.
  size_t max_entity_expansion_bytes = 0;
};

/// Shared pipeline structure for creating *replica* engines — worker
/// copies of one logical engine that evaluate independent documents
/// concurrently (xpstream/pipeline.h's EnginePool). Replicas keep a
/// private SymbolTable and matcher state (document evaluation never
/// synchronizes), but share the structures whose meaning is
/// population-wide: the memoized lazy-DFA tables (thread-safe
/// internally) and the DocumentProfile the planner prices against, so
/// admission and "auto" routing decide identically on every replica
/// and a subscription's budget is charged once per logical slot, not
/// once per replica. All pointers may be null — the engine then owns a
/// private equivalent (Create(options) is exactly this overload with an
/// empty context).
struct EngineSharedContext {
  /// Shared memoized lazy-DFA transition tables; safe to share across
  /// threads (mutex-guarded publish/lookup, immutable snapshots).
  DfaTableCache* dfa_tables = nullptr;
  /// Shared document profile: running maxima over every document any
  /// replica observed. Reads (Subscribe-time pricing) must be quiesced
  /// against writes (document boundaries) by the owner — EnginePool
  /// applies mutations only while no document is in flight.
  DocumentProfile* profile = nullptr;
  /// Guards concurrent profile updates when replicas finish documents
  /// at the same time; the engine locks it around its boundary fold.
  /// Required whenever `profile` is shared across threads.
  std::mutex* profile_mutex = nullptr;
};

class Engine : public EventSink {
 public:
  /// Creates an engine; kNotFound when options.engine names no
  /// registered algorithm.
  static Result<std::unique_ptr<Engine>> Create(const EngineOptions& options);

  /// Convenience overload: default options with the named algorithm.
  static Result<std::unique_ptr<Engine>> Create(std::string_view engine_name);

  /// Replica construction: like Create(options), but binding the given
  /// shared pipeline structures instead of owning private ones (null
  /// members still get private equivalents). The building block of
  /// xpstream/pipeline.h's EnginePool; see EngineSharedContext for the
  /// sharing and synchronization contract.
  static Result<std::unique_ptr<Engine>> Create(
      const EngineOptions& options, const EngineSharedContext& shared);

  /// Registry names available for EngineOptions::engine, sorted.
  static std::vector<std::string> AvailableEngines();

  ~Engine() override;

  /// The registry name this engine was created under.
  const std::string& engine_name() const { return options_.engine; }

  // --- subscriptions -----------------------------------------------
  // Register/remove before a document starts; between documents is
  // fine, mid-document is an error. Subscription ids are caller-chosen,
  // distinct, and keep their registration order in verdict vectors.
  //
  // Dedup: every incoming query is canonicalized (structural
  // equivalence up to query automorphism and and/or commutativity —
  // analysis/canonical); equivalent subscriptions collapse onto one
  // *evaluation slot* of the underlying matcher, behind a slot →
  // subscriber fan-out map. A million logical subscriptions over a
  // thousand distinct queries cost a thousand slots of evaluation
  // work; verdicts, DecidedAt and ResultSink delivery are expanded
  // per subscription and are indistinguishable from unshared
  // evaluation. Queries whose canonicalization fails (exotic shapes
  // exceeding the automorphism budget) safely fall back to a private
  // slot — never a false merge.

  /// Subscribes a compiled query (the engine takes ownership). Fails
  /// with kUnsupported when the query lies outside the algorithm's
  /// fragment and with kInvalidArgument on a duplicate id. A failed or
  /// rejected Subscribe leaves the engine — slot map, symbol table,
  /// matcher — untouched. `mode` selects when an attached ResultSink
  /// hears about this subscription's matches.
  Status Subscribe(std::string id, CompiledQuery query,
                   DeliveryMode mode = DeliveryMode::kAtEnd);

  /// Compiles and subscribes in one step.
  Status Subscribe(std::string id, std::string_view xpath,
                   DeliveryMode mode = DeliveryMode::kAtEnd);

  /// Removes the subscription `id`. When the last subscriber of an
  /// evaluation slot leaves, the slot is *tombstoned* — the matcher
  /// stops evaluating it, but no automaton is rebuilt and no in-flight
  /// structure is invalidated, so removal is safe under live traffic.
  /// Later subscription indices shift down by one (ids keep
  /// registration order); verdicts of the last completed document
  /// remain queryable for the survivors. Tombstoned capacity is
  /// reclaimed only by CompactSubscriptions(). Cost: a hash lookup and
  /// a binary search find the subscription, then one contiguous erase
  /// per per-subscription vector shifts the later entries (a memmove
  /// of O(live subscriptions) words, no per-entry work), plus the
  /// engine's own tombstone (O(1) for nfa_index: one accept list).
  Status Unsubscribe(std::string_view id);

  /// Rebuilds the matcher without tombstoned slots — the deferred half
  /// of Unsubscribe's tombstone-then-compact contract, to be called in
  /// a maintenance window between documents. Under "auto" this is also
  /// the re-routing point: every surviving slot is re-priced against
  /// the *observed* document profile (not the assumed one it may have
  /// been admitted under) and routed afresh, so a compact also fires
  /// with zero tombstones when the router now places some slot on a
  /// different engine. No-op when nothing is tombstoned and no slot
  /// would re-route. On failure the engine is unchanged (the old
  /// matcher keeps serving). This is the only operation that rebuilds
  /// the automaton; automaton_rebuilds() counts exactly these.
  Status CompactSubscriptions();

  /// Live logical subscriptions (fan-out entries, not eval slots).
  size_t NumSubscriptions() const { return handles_.size(); }

  /// Distinct evaluation slots currently doing work — the dedup
  /// measure: NumSubscriptions() logical subscriptions over
  /// num_eval_slots() distinct canonical queries.
  size_t num_eval_slots() const { return slots_.size() - tombstoned_slots_; }

  /// Slots whose last subscriber left, awaiting CompactSubscriptions().
  size_t tombstoned_slots() const { return tombstoned_slots_; }

  /// Full matcher rebuilds so far — incremented by
  /// CompactSubscriptions() only, never by Subscribe/Unsubscribe.
  size_t automaton_rebuilds() const { return automaton_rebuilds_; }

  /// Live evaluation slots evaluated by `engine` — the routed member
  /// under "auto" (see PlanOf), every live slot for a fixed engine.
  size_t eval_slots_on(std::string_view engine) const;

  /// Subscription ids in registration order — the verdict-vector order.
  /// Assembled on each call (O(live subscriptions)).
  std::vector<std::string> subscription_ids() const;

  /// The compiled query subscribed under `id`; kNotFound when unknown.
  Result<const CompiledQuery*> SubscribedQuery(std::string_view id) const;

  // --- planning and admission --------------------------------------

  /// The planner's record for one admitted subscription.
  struct SubscriptionPlan {
    /// The engine actually evaluating it ("auto" resolves to the
    /// routed member engine; fixed-engine setups report that engine).
    std::string engine;
    /// The predicted peak bytes charged against the budget when its
    /// evaluation slot was admitted.
    size_t predicted_peak_bytes = 0;
    /// Whether admission degraded it (AdmissionPolicy::kDegrade path).
    bool degraded = false;
  };

  /// The plan under which subscription `id` was admitted; kNotFound
  /// when unknown.
  Result<SubscriptionPlan> PlanOf(std::string_view id) const;

  /// Predicted peak bytes of all live evaluation slots — the quantity
  /// admission control holds below memory_budget_bytes. Also exported
  /// as the predicted_peak_bytes gauge of stats().
  size_t predicted_peak_bytes() const { return predicted_total_; }

  /// Subscribes rejected (kResourceExhausted) by admission control.
  size_t admission_rejects() const { return admission_rejects_; }

  /// Subscribes admitted degraded by AdmissionPolicy::kDegrade.
  size_t admission_degrades() const { return admission_degrades_; }

  /// The document profile predictions currently price against: running
  /// maxima of observed documents, or EngineOptions::assumed_profile
  /// before the first document completes.
  const DocumentProfile& observed_profile() const { return *profile_; }

  // --- byte-level entry points -------------------------------------

  /// Feeds the next chunk of XML text of the current document; the
  /// engine owns the streaming parser. Chunk boundaries are arbitrary.
  Status Feed(std::string_view chunk);

  /// Declares the current document's text complete, verifies
  /// well-formedness, and records its verdicts. The next Feed() starts
  /// the next document of the stream.
  Status FinishDocument();

  /// Convenience: one whole document, returning its verdicts (in
  /// subscription_ids() order). On failure the partial document is
  /// discarded, so the engine stays usable for the next document.
  Result<std::vector<bool>> FilterXml(std::string_view xml);

  /// Discards the current partially-consumed document (bytes or SAX),
  /// e.g. after a parse error on an incremental Feed(). No verdicts are
  /// recorded; the engine is ready for the next document.
  void AbortDocument();

  // --- SAX-level entry points --------------------------------------

  /// Feeds one SAX event; documents are delimited by startDocument /
  /// endDocument events (the old FilterSession contract).
  Status OnEvent(const Event& event) override;

  /// Convenience: one pre-parsed document, returning its verdicts.
  Result<std::vector<bool>> FilterEvents(const EventStream& events);

  // --- batch entry point -------------------------------------------

  /// Filters a corpus of whole XML documents in order, returning one
  /// verdict vector per document; equivalent to FilterXml per element.
  /// With threads > 1 parsing and matching are pipelined: up to
  /// batch_size upcoming documents parse on the thread pool while
  /// earlier ones are matched. On the first failing document the error
  /// is returned; earlier documents' verdicts remain in history() and
  /// the engine stays usable for further documents.
  Result<std::vector<std::vector<bool>>> FilterDocuments(
      const std::vector<std::string>& xmls);

  // --- push-based results ------------------------------------------

  /// Attaches a result observer (nullptr detaches). Attach between
  /// documents; matches of the current document may otherwise be
  /// missed. The sink must outlive the engine or be detached first.
  void SetSink(ResultSink* sink) { result_sink_ = sink; }

  /// Per-subscription event ordinals (subscription_ids() order) at
  /// which the engine's verdicts became provably decided in the most
  /// recent completed document: the deciding event for matches, the
  /// endDocument ordinal for non-matches. The per-engine measurable
  /// behind the paper's buffering/commitment story — an engine's
  /// earliest-decision position bounds how long it must hold state.
  /// Results are recorded per evaluation slot and expanded to this
  /// per-subscription view on first access (then cached), so engines
  /// with heavy dedup never pay O(subscriptions) per document unless a
  /// caller asks for the full vector.
  const std::vector<size_t>& last_decided_at() const;

  /// Decided position of subscription `id` in the most recent
  /// document; same errors as Matched(id).
  Result<size_t> DecidedAt(std::string_view id) const;

  /// Documents whose tail was skipped by the facade's streaming
  /// short-circuit path (threads = 1 only: with threads > 1 the cut
  /// happens inside each shard's batch replay and is not counted
  /// here, though the work reduction is just as real).
  size_t documents_short_circuited() const {
    return documents_short_circuited_;
  }

  // --- results ------------------------------------------------------

  /// Number of completed documents.
  size_t documents_seen() const { return documents_seen_; }

  /// Per-document verdict history (empty when keep_history is off).
  const std::vector<std::vector<bool>>& history() const { return history_; }

  /// Verdicts of the most recent completed document (lazily expanded
  /// from per-slot results, like last_decided_at()).
  const std::vector<bool>& last_verdicts() const;

  /// Verdict of subscription `id` in the most recent document. O(1):
  /// answered through the slot map without expanding the full vector.
  Result<bool> Matched(std::string_view id) const;

  /// Single-subscription convenience; kInvalidArgument unless exactly
  /// one subscription is registered.
  Result<bool> Matched() const;

  // --- memory accounting -------------------------------------------

  /// Stats of the current / most recent document (for a filter-bank
  /// engine, summed over the per-subscription filters), plus the
  /// footprint of the engine's shared name SymbolTable in
  /// symbol_bytes. The engine owns one table for its whole pipeline:
  /// the parser interns element/attribute names into it as it
  /// tokenizes, subscriptions resolve their node tests against it, and
  /// every event reaches the matching engines as an integer symbol —
  /// this gauge is the once-per-distinct-name cost of that trade.
  const MemoryStats& stats() const;

  /// Peak live table/frontier entries across all documents seen so far.
  size_t peak_table_entries() const { return peak_table_entries_; }

  /// Peak buffered document text across all documents seen so far.
  size_t peak_buffered_bytes() const { return peak_buffered_bytes_; }

 private:
  struct SinkRelay;  // the engine's MatchSink face, defined in engine.cc

  /// One evaluation slot of the matcher: the representative compiled
  /// query, its canonical dedup key (empty = not dedupable, private
  /// slot), and how many logical subscriptions fan out of it.
  struct EvalSlot {
    std::string key;
    CompiledQuery query;
    size_t refs;
    bool tombstoned;
    /// Planner record, fixed at admission: which engine evaluates the
    /// slot, what peak the planner predicted (the bytes charged against
    /// the budget), and whether admission degraded it.
    std::string planned_engine;
    size_t predicted_bytes = 0;
    bool degraded = false;
  };

  Engine(EngineOptions options, std::shared_ptr<ThreadPool> pool,
         std::unique_ptr<SymbolTable> symbols,
         std::unique_ptr<DfaTableCache> owned_dfa_tables,
         std::unique_ptr<DocumentProfile> owned_profile,
         const EngineSharedContext& effective,
         std::unique_ptr<Matcher> matcher);

  /// Copy of the current profile, taken under profile_mutex_ when the
  /// profile is shared — planner pricing then works off a coherent
  /// snapshot even while replica threads fold document boundaries.
  DocumentProfile ProfileSnapshot() const;

  Status CheckSubscribable(const std::string& id) const;

  /// SubIndexOf's answer for an unknown id.
  static constexpr size_t kUnknownSub = static_cast<size_t>(-1);

  /// The current index of subscription `id` in registration order (its
  /// handle's position among the live handles, by binary search), or
  /// kUnknownSub.
  size_t SubIndexOf(std::string_view id) const;

  /// Prices one new evaluation slot for `query` against the current
  /// profile: the predicted peak bytes of the engine that will run it
  /// (the planner's choice under "auto", the configured engine
  /// otherwise; 0 for engines the planner does not know).
  size_t PredictSlotCost(const CompiledQuery& query) const;

  /// Rebuilds slot_subs_ from sub_slot_ when stale (Subscribe /
  /// Unsubscribe mark it dirty; both are barred mid-document, so the
  /// map cannot go stale while a document streams).
  void EnsureFanout();

  /// Delivers the kEarliest matches buffered for pending_ordinal_ in
  /// ascending subscription order, then clears the buffer.
  void FlushPendingMatches();

  /// Relay target: the matcher decided eval slot `slot`'s verdict (a
  /// match) at `event_ordinal`; fans out to the slot's subscribers.
  void HandleSlotMatched(size_t slot, size_t event_ordinal);

  /// Fills the last_verdicts_/last_decided_at_ caches from the
  /// per-slot results of the most recent document, if stale.
  void MaterializeExpansion() const;

  /// Consumes one event of the skipped tail of a short-circuited
  /// document: well-formedness-only depth checking, no matching.
  Status SkipEvent(const Event& event);

  /// Document-completion bookkeeping shared by the streaming, batch
  /// and short-circuit paths: decided positions, history, peak gauges,
  /// deferred sink deliveries. Expects last_verdicts_ set and
  /// event_ordinal_ at the endDocument ordinal.
  void FinalizeDocument();

  /// Whole-document fast path around Matcher::OnDocument (sharded
  /// engines replay the caller-owned span without copying it).
  Result<std::vector<bool>> FilterEventsBatch(const EventStream& events);

  EngineOptions options_;
  std::shared_ptr<ThreadPool> pool_;  // live when options_.threads != 1
  /// The pipeline's shared name-interning table. Owned here — the
  /// facade outlives the parser that interns into it and the matcher
  /// (and shards) that resolve against it; declared before matcher_ so
  /// it is destroyed after everything referencing it.
  std::unique_ptr<SymbolTable> symbols_;
  /// Privately owned lazy-DFA table cache / document profile — null for
  /// a replica engine bound to an EngineSharedContext (the shared
  /// structures then outlive the engine by the caller's contract).
  /// Declared before matcher_ so they are destroyed after everything
  /// referencing them.
  std::unique_ptr<DfaTableCache> owned_dfa_tables_;
  std::unique_ptr<DocumentProfile> owned_profile_;
  /// Effective shared structures: the owned ones above, or the caller's
  /// via EngineSharedContext. Always non-null after construction.
  DfaTableCache* dfa_tables_ = nullptr;
  /// The pipeline's document profile (PipelineContext::profile points
  /// here): assumed_profile until the first document completes, running
  /// maxima afterwards.
  DocumentProfile* profile_ = nullptr;
  /// Locked around the document-boundary profile fold when the profile
  /// is shared across replica threads; null when the engine owns it.
  std::mutex* profile_mutex_ = nullptr;
  std::unique_ptr<Matcher> matcher_;
  std::unique_ptr<SinkRelay> relay_;

  // --- evaluation slots (dedup side) ---
  std::vector<EvalSlot> slots_;  // matcher slot s evaluates slots_[s]
  /// Canonical key -> eval slot, live (non-tombstoned) slots only.
  std::map<std::string, size_t> slot_of_key_;
  size_t tombstoned_slots_ = 0;
  size_t automaton_rebuilds_ = 0;

  /// What a logical subscription keeps beyond its index: its id and,
  /// for a duplicate subscriber, its own compiled query (null for the
  /// slot representative, whose query lives in the slot so it outlives
  /// any one subscriber). Stored at the subscription's handle.
  struct SubRecord {
    std::string id;  ///< empty once unsubscribed
    std::unique_ptr<CompiledQuery> query;
  };

  /// Drops the records of removed subscriptions and renumbers the
  /// survivors' handles 0..n-1, keeping their order. Run by
  /// Unsubscribe once removed records outnumber live ones, so its O(n)
  /// cost is amortized over as many removals.
  void CompactHandles();

  // --- logical subscriptions (public side) ---
  // Indexed by subscription index, shifting down on Unsubscribe: the
  // plain-old-data columns only.
  std::vector<size_t> sub_slot_;  // subscription -> its eval slot
  std::vector<DeliveryMode> modes_;
  /// Each subscription's handle, ascending: drawn from records_.size()
  /// at Subscribe, so a removal renumbers nothing and a subscription's
  /// index is its handle's position here (binary search).
  std::vector<size_t> handles_;
  /// Per handle; removed subscriptions leave an empty record until
  /// CompactHandles.
  std::vector<SubRecord> records_;
  size_t removed_records_ = 0;
  std::unordered_map<std::string, size_t> id_index_;  // id -> handle

  /// Eval slot -> subscriber indices, for sink fan-out; rebuilt lazily.
  std::vector<std::vector<size_t>> slot_subs_;
  bool fanout_dirty_ = false;

  std::unique_ptr<XmlParser> parser_;  // live while a byte doc is open
  /// Scratch for the zero-copy parser: decoded entities and
  /// streaming-mode text copies of the document being fed. One Reset()
  /// per document (blocks recycled), performed after the matcher has
  /// fully consumed endDocument — event views stay valid exactly as
  /// long as the lifetime contract in xml/event.h promises.
  Arena parse_arena_;
  /// Set for the duration of FilterXml: the whole document is a live
  /// caller buffer, so the parser may emit views straight into it.
  bool stable_parse_ = false;
  bool in_document_ = false;

  // --- current-document push/skip state ---
  ResultSink* result_sink_ = nullptr;
  bool short_circuited_ = false;  // skipping the rest of this document
  size_t element_depth_ = 0;      // open elements (skip-path validation)
  size_t event_ordinal_ = 0;      // ordinal of the next event
  size_t matched_count_ = 0;      // eval slots decided (matched) so far
  std::vector<size_t> decided_at_;  // per eval slot, current document
  /// kEarliest deliveries buffered for pending_ordinal_ so fan-out
  /// across slots still reaches the sink in ascending subscription
  /// order within one ordinal.
  std::vector<size_t> pending_matches_;
  size_t pending_ordinal_ = 0;

  size_t documents_seen_ = 0;
  size_t documents_short_circuited_ = 0;
  std::vector<std::vector<bool>> history_;

  // --- planning and admission ---
  /// Streaming measurement of the current document, folded into
  /// profile_ at each document boundary.
  DocumentStatsCollector collector_;
  size_t predicted_total_ = 0;   ///< sum over live slots' predicted_bytes
  size_t admission_rejects_ = 0;
  size_t admission_degrades_ = 0;

  // --- last-document results, recorded per eval slot ---
  std::vector<bool> slot_verdicts_;
  std::vector<size_t> slot_decided_at_;
  /// Subscriptions registered when the last document completed; a sub
  /// index >= this was added afterwards and has no verdict yet.
  /// Unsubscribing below the boundary shifts it down in tandem, so the
  /// invariant "sub < boundary had its slot evaluated last document"
  /// survives churn.
  size_t subs_at_last_doc_ = 0;
  /// Per-subscription expansions of the slot results, built on demand
  /// (MaterializeExpansion) so dedup-heavy engines pay O(slots), not
  /// O(subscriptions), per document.
  mutable std::vector<bool> last_verdicts_;
  mutable std::vector<size_t> last_decided_at_;
  mutable bool expansion_valid_ = false;
  size_t peak_table_entries_ = 0;
  size_t peak_buffered_bytes_ = 0;
  mutable MemoryStats stats_;  // matcher stats + symbol_bytes, on demand
};

}  // namespace xpstream

#endif  // XPSTREAM_PUBLIC_ENGINE_H_
