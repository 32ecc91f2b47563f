#include "xpstream/engine.h"

#include <algorithm>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "analysis/canonical.h"
#include "common/thread_pool.h"
#include "planner/auto_matcher.h"
#include "planner/cost_model.h"
#include "stream/dfa_table_cache.h"
#include "stream/engine_registry.h"
#include "stream/matcher.h"
#include "stream/sharded_matcher.h"
#include "xml/parser.h"
#include "xml/symbol_table.h"
#include "xpath/ast.h"

namespace xpstream {

/// The facade's MatchSink face: forwards matcher decisions into the
/// engine's per-document bookkeeping (and on to the public ResultSink).
struct Engine::SinkRelay : MatchSink {
  explicit SinkRelay(Engine* engine) : engine(engine) {}
  void OnSlotMatched(size_t slot, size_t ordinal) override {
    engine->HandleSlotMatched(slot, ordinal);
  }
  Engine* engine;
};

Engine::Engine(EngineOptions options, std::shared_ptr<ThreadPool> pool,
               std::unique_ptr<SymbolTable> symbols,
               std::unique_ptr<DfaTableCache> owned_dfa_tables,
               std::unique_ptr<DocumentProfile> owned_profile,
               const EngineSharedContext& effective,
               std::unique_ptr<Matcher> matcher)
    : options_(std::move(options)),
      pool_(std::move(pool)),
      symbols_(std::move(symbols)),
      owned_dfa_tables_(std::move(owned_dfa_tables)),
      owned_profile_(std::move(owned_profile)),
      dfa_tables_(effective.dfa_tables),
      profile_(effective.profile),
      profile_mutex_(effective.profile_mutex),
      matcher_(std::move(matcher)),
      relay_(std::make_unique<SinkRelay>(this)) {
  matcher_->SetSink(relay_.get());
}

Engine::~Engine() = default;

namespace {

/// Builds the matcher stack for `options`: the bare registry engine at
/// threads = 1, a ShardedMatcher wrapping it otherwise. Shared by
/// Engine::Create and CompactSubscriptions (which rebuilds into the
/// same pipeline context).
Result<std::unique_ptr<Matcher>> BuildMatcher(
    const EngineOptions& options, const std::shared_ptr<ThreadPool>& pool,
    const PipelineContext& context) {
  // "auto" is a routing policy over registry engines, not a registry
  // engine itself (it must not show up in AvailableEngines()), so the
  // facade resolves it here: the planner-backed AutoMatcher at
  // threads = 1, one AutoMatcher per shard otherwise.
  if (options.threads == 1) {
    if (options.engine == "auto") return CreateAutoMatcher(context);
    return EngineRegistry::Global().CreateMatcher(options.engine, context);
  }
  auto matcher =
      options.engine == "auto"
          ? ShardedMatcher::Create(
                "auto",
                [](const PipelineContext& shard_context) {
                  return CreateAutoMatcher(shard_context);
                },
                options.threads, pool, context)
          : ShardedMatcher::Create(options.engine, options.threads, pool,
                                   context);
  if (!matcher.ok()) return matcher.status();
  // Sharded matching starts at the endDocument dispatch, so the facade
  // skip path never triggers; the cut happens inside each shard's
  // replay instead.
  (*matcher)->EnableShortCircuit(options.short_circuit);
  return std::unique_ptr<Matcher>(std::move(matcher).value());
}

}  // namespace

Result<std::unique_ptr<Engine>> Engine::Create(const EngineOptions& options) {
  return Create(options, EngineSharedContext{});
}

Result<std::unique_ptr<Engine>> Engine::Create(
    const EngineOptions& options, const EngineSharedContext& shared) {
  EngineOptions resolved = options;
  if (resolved.threads == 0) {
    resolved.threads = std::max(1u, std::thread::hardware_concurrency());
  }
  if (resolved.batch_size == 0) resolved.batch_size = 1;

  // One SymbolTable per engine pipeline: the facade's parser interns
  // into it, subscriptions resolve their node tests against it, and the
  // matcher (every shard of it) dispatches on its ids. It is never
  // shared across pool replicas — interning is single-threaded by
  // design. The DfaTableCache and DocumentProfile *are* shareable: when
  // the caller supplies them (an EnginePool wiring up replicas) this
  // engine borrows; otherwise it owns private equivalents.
  auto symbols = std::make_unique<SymbolTable>();
  std::unique_ptr<DfaTableCache> owned_dfa;
  std::unique_ptr<DocumentProfile> owned_profile;
  EngineSharedContext effective = shared;
  if (effective.dfa_tables == nullptr) {
    owned_dfa = std::make_unique<DfaTableCache>();
    effective.dfa_tables = owned_dfa.get();
  }
  if (effective.profile == nullptr) {
    // The pipeline's document profile starts as the caller's asserted
    // workload shape; observed documents take over at the first boundary.
    owned_profile = std::make_unique<DocumentProfile>(resolved.assumed_profile);
    effective.profile = owned_profile.get();
    effective.profile_mutex = nullptr;  // private profile needs no lock
  }

  std::shared_ptr<ThreadPool> pool;
  if (resolved.threads > 1) {
    // threads-1 pool workers: the dispatching thread participates in
    // every shard replay, so N threads in total drive N shards.
    pool = std::make_shared<ThreadPool>(resolved.threads - 1);
  }
  PipelineContext context;
  context.symbols = symbols.get();
  context.dfa_tables = effective.dfa_tables;
  context.profile = effective.profile;
  auto matcher = BuildMatcher(resolved, pool, context);
  if (!matcher.ok()) return matcher.status();
  return std::unique_ptr<Engine>(
      new Engine(std::move(resolved), std::move(pool), std::move(symbols),
                 std::move(owned_dfa), std::move(owned_profile), effective,
                 std::move(matcher).value()));
}

Result<std::unique_ptr<Engine>> Engine::Create(std::string_view engine_name) {
  EngineOptions options;
  options.engine = std::string(engine_name);
  return Create(options);
}

std::vector<std::string> Engine::AvailableEngines() {
  return EngineRegistry::Global().Names();
}

Status Engine::CheckSubscribable(const std::string& id) const {
  if (in_document_ || parser_ != nullptr) {
    return Status::InvalidArgument(
        "cannot subscribe while a document is being consumed");
  }
  // A hash lookup, not a scan: at a million standing subscriptions the
  // old std::find made every Subscribe O(n) — quadratic registration.
  if (id_index_.find(id) != id_index_.end()) {
    return Status::InvalidArgument("duplicate subscription id: " + id);
  }
  return Status::OK();
}

DocumentProfile Engine::ProfileSnapshot() const {
  std::unique_lock<std::mutex> lock;
  if (profile_mutex_ != nullptr) {
    lock = std::unique_lock<std::mutex>(*profile_mutex_);
  }
  return *profile_;
}

size_t Engine::PredictSlotCost(const CompiledQuery& query) const {
  const DocumentProfile profile = ProfileSnapshot();
  const QueryPlan plan = BuildQueryPlan(*query.query(), profile);
  if (options_.engine == "auto") {
    const EnginePrediction* choice = plan.Choice();
    return choice != nullptr ? choice->cost.PredictedPeakBytes() : 0;
  }
  for (const EnginePrediction& prediction : plan.ranking) {
    if (prediction.engine == options_.engine) {
      return prediction.cost.PredictedPeakBytes();
    }
  }
  // An externally registered engine the planner cannot price: admission
  // has no basis to refuse it.
  return 0;
}

Status Engine::Subscribe(std::string id, CompiledQuery query,
                         DeliveryMode mode) {
  XPS_RETURN_IF_ERROR(CheckSubscribable(id));
  if (query.query() == nullptr) {
    return Status::InvalidArgument(
        "cannot subscribe a moved-from CompiledQuery");
  }

  // Canonicalize for dedup. A key failure (automorphism budget, exotic
  // shape) downgrades to a private slot — correct, just unshared; it
  // must never fail a subscription that the engine itself accepts.
  std::string key;
  auto canonical = CanonicalQueryKey(*query.query());
  if (canonical.ok()) key = std::move(canonical).value();

  auto hit = key.empty() ? slot_of_key_.end() : slot_of_key_.find(key);
  if (hit != slot_of_key_.end()) {
    // Equivalent query already evaluating: pure appends from here, so
    // a duplicate subscription can never fail and never touches the
    // matcher or symbol table.
    const size_t slot = hit->second;
    slots_[slot].refs++;
    id_index_.emplace(id, records_.size());
    handles_.push_back(records_.size());
    records_.push_back(SubRecord{
        std::move(id), std::make_unique<CompiledQuery>(std::move(query))});
    sub_slot_.push_back(slot);
    modes_.push_back(mode);
    fanout_dirty_ = true;
    return Status::OK();
  }

  // New evaluation slot: admission control first. The planner prices
  // the slot on the engine that would run it (the ranking's choice
  // under "auto") against the current document profile; a prediction
  // that would overrun the budget rejects or degrades *before* any
  // facade or matcher state mutates.
  const size_t predicted = PredictSlotCost(query);
  bool degraded = false;
  if (options_.memory_budget_bytes != 0 &&
      predicted_total_ + predicted > options_.memory_budget_bytes) {
    if (options_.admission == AdmissionPolicy::kReject) {
      ++admission_rejects_;
      return Status::ResourceExhausted(
          "subscription predicted to peak at " + std::to_string(predicted) +
          " bytes; " +
          std::to_string(options_.memory_budget_bytes - std::min(
              options_.memory_budget_bytes, predicted_total_)) +
          " of memory_budget_bytes = " +
          std::to_string(options_.memory_budget_bytes) + " remain");
    }
    degraded = true;
    ++admission_degrades_;
    mode = DeliveryMode::kAtEnd;  // no early push work for the degraded
  }

  // The matcher subscribes *next*: a rejected query (outside the
  // engine's fragment) still returns before any facade state mutates,
  // extending the engines' rejected-Subscribe non-pollution guarantee
  // to the dedup layer.
  const size_t slot = slots_.size();
  XPS_RETURN_IF_ERROR(matcher_->Subscribe(slot, query.query()));
  if (!key.empty()) slot_of_key_.emplace(key, slot);
  slots_.push_back(EvalSlot{std::move(key), std::move(query), 1, false,
                            matcher_->EngineForSlot(slot), predicted,
                            degraded});
  predicted_total_ += predicted;
  id_index_.emplace(id, records_.size());
  handles_.push_back(records_.size());
  // The representative's query lives in the slot.
  records_.push_back(SubRecord{std::move(id), nullptr});
  sub_slot_.push_back(slot);
  modes_.push_back(mode);
  fanout_dirty_ = true;
  return Status::OK();
}

Status Engine::Subscribe(std::string id, std::string_view xpath,
                         DeliveryMode mode) {
  auto query = CompileQuery(xpath);
  if (!query.ok()) return query.status();
  return Subscribe(std::move(id), std::move(query).value(), mode);
}

Status Engine::Unsubscribe(std::string_view id) {
  if (in_document_ || parser_ != nullptr) {
    return Status::InvalidArgument(
        "cannot unsubscribe while a document is being consumed");
  }
  const size_t sub = SubIndexOf(id);
  if (sub == kUnknownSub) {
    return Status::NotFound("unknown subscription id: " + std::string(id));
  }
  const size_t slot = sub_slot_[sub];
  if (slots_[slot].refs == 1) {
    // Last subscriber of the slot: tombstone it in the matcher before
    // mutating anything, so an engine that cannot unsubscribe leaves
    // the facade untouched. Tombstoning never rebuilds the automaton —
    // reclaiming the capacity is CompactSubscriptions()' job.
    XPS_RETURN_IF_ERROR(matcher_->Unsubscribe(slot));
    slots_[slot].tombstoned = true;
    ++tombstoned_slots_;
    // Release the slot's budget charge: the matcher stopped evaluating
    // it, so its predicted peak no longer counts against admission.
    predicted_total_ -= std::min(predicted_total_, slots_[slot].predicted_bytes);
    if (!slots_[slot].key.empty()) slot_of_key_.erase(slots_[slot].key);
  }
  slots_[slot].refs--;
  // Later subscriptions shift down one index (the documented public
  // semantics); survivors keep their last-document results because
  // those live per slot and the survivors' slot mapping is intact.
  // Their handles do not move, so nothing is renumbered: the shift is
  // one memmove per plain-data column.
  const auto at = static_cast<ptrdiff_t>(sub);
  SubRecord& record = records_[handles_[sub]];
  id_index_.erase(record.id);
  record = SubRecord();  // `id` may view the record's string: used up
  ++removed_records_;
  handles_.erase(handles_.begin() + at);
  sub_slot_.erase(sub_slot_.begin() + at);
  modes_.erase(modes_.begin() + at);
  if (removed_records_ > handles_.size()) CompactHandles();
  if (sub < subs_at_last_doc_) --subs_at_last_doc_;
  expansion_valid_ = false;
  fanout_dirty_ = true;
  return Status::OK();
}

Status Engine::CompactSubscriptions() {
  if (in_document_ || parser_ != nullptr) {
    return Status::InvalidArgument(
        "cannot compact while a document is being consumed");
  }
  // A compaction is worth a rebuild when there is capacity to reclaim
  // *or*, under "auto", the router would now place some slot on another
  // engine (the observed profile shifted a ranking or a population
  // bound). A fixed engine with nothing tombstoned has nothing to do.
  if (tombstoned_slots_ == 0 && options_.engine != "auto") {
    return Status::OK();
  }

  // Let the old matcher fold its shareable structure (lazy-DFA tables)
  // into the pipeline caches, so the rebuilt matcher starts warm.
  matcher_->PublishShared();

  // The fresh matcher plans against the *observed* profile, not the
  // assumed one the original matcher may have been built with: this is
  // what re-routes slots whose cheapest engine changed as documents
  // taught the planner the real workload shape.
  PipelineContext context;
  context.symbols = symbols_.get();
  context.dfa_tables = dfa_tables_;
  context.profile = profile_;
  auto fresh = BuildMatcher(options_, pool_, context);
  if (!fresh.ok()) return fresh.status();

  // Re-subscribe the live slots densely, in old slot order. Everything
  // up to here is fallible but touches only the fresh matcher — on any
  // failure the old matcher keeps serving, unchanged.
  std::vector<size_t> new_of_old(slots_.size(), kNoEventOrdinal);
  size_t next = 0;
  for (size_t old = 0; old < slots_.size(); ++old) {
    if (slots_[old].tombstoned) continue;
    XPS_RETURN_IF_ERROR((*fresh)->Subscribe(next, slots_[old].query.query()));
    new_of_old[old] = next++;
  }
  // With nothing to reclaim, the rebuild is kept only if the router —
  // the very routing a rebuild performs — moved some slot. Otherwise
  // the fresh matcher is dropped and the compaction is a no-op.
  if (tombstoned_slots_ == 0) {
    bool rerouted = false;
    for (size_t s = 0; s < slots_.size() && !rerouted; ++s) {
      rerouted = (*fresh)->EngineForSlot(s) != slots_[s].planned_engine;
    }
    if (!rerouted) return Status::OK();
  }

  // Commit point: renumber facade state and swap the matcher in. The
  // per-slot results of the last document follow their slots through
  // the renumbering, so survivors stay queryable across a compaction.
  std::vector<bool> compact_verdicts(next, false);
  std::vector<size_t> compact_decided(next, kNoEventOrdinal);
  for (size_t old = 0; old < slots_.size(); ++old) {
    if (new_of_old[old] == kNoEventOrdinal) continue;
    if (old < slot_verdicts_.size()) {
      compact_verdicts[new_of_old[old]] = slot_verdicts_[old];
    }
    if (old < slot_decided_at_.size()) {
      compact_decided[new_of_old[old]] = slot_decided_at_[old];
    }
  }
  slot_verdicts_ = std::move(compact_verdicts);
  slot_decided_at_ = std::move(compact_decided);
  std::vector<EvalSlot> live;
  live.reserve(next);
  slot_of_key_.clear();
  for (auto& slot : slots_) {
    if (slot.tombstoned) continue;
    if (!slot.key.empty()) slot_of_key_[slot.key] = live.size();
    live.push_back(std::move(slot));
  }
  slots_ = std::move(live);
  for (size_t& s : sub_slot_) s = new_of_old[s];
  tombstoned_slots_ = 0;
  matcher_ = std::move(fresh).value();
  matcher_->SetSink(relay_.get());
  ++automaton_rebuilds_;
  // Re-price the survivors against the *current* profile (it has
  // usually grown since they were admitted) and refresh their routed
  // engine — under "auto" the rebuilt matcher re-planned every slot.
  predicted_total_ = 0;
  for (size_t s = 0; s < slots_.size(); ++s) {
    slots_[s].predicted_bytes = PredictSlotCost(slots_[s].query);
    slots_[s].planned_engine = matcher_->EngineForSlot(s);
    predicted_total_ += slots_[s].predicted_bytes;
  }
  expansion_valid_ = false;
  fanout_dirty_ = true;
  return Status::OK();
}

size_t Engine::eval_slots_on(std::string_view engine) const {
  size_t count = 0;
  for (const EvalSlot& slot : slots_) {
    if (!slot.tombstoned && slot.planned_engine == engine) ++count;
  }
  return count;
}

void Engine::CompactHandles() {
  std::vector<SubRecord> live;
  live.reserve(handles_.size());
  for (size_t& handle : handles_) {
    SubRecord& record = records_[handle];
    handle = live.size();
    id_index_[record.id] = handle;
    live.push_back(std::move(record));
  }
  records_ = std::move(live);
  removed_records_ = 0;
}

std::vector<std::string> Engine::subscription_ids() const {
  std::vector<std::string> ids;
  ids.reserve(handles_.size());
  for (size_t handle : handles_) ids.push_back(records_[handle].id);
  return ids;
}

size_t Engine::SubIndexOf(std::string_view id) const {
  auto it = id_index_.find(std::string(id));
  if (it == id_index_.end()) return kUnknownSub;
  return static_cast<size_t>(
      std::lower_bound(handles_.begin(), handles_.end(), it->second) -
      handles_.begin());
}

Result<Engine::SubscriptionPlan> Engine::PlanOf(std::string_view id) const {
  const size_t sub = SubIndexOf(id);
  if (sub == kUnknownSub) {
    return Status::NotFound("unknown subscription id: " + std::string(id));
  }
  const EvalSlot& slot = slots_[sub_slot_[sub]];
  return SubscriptionPlan{slot.planned_engine, slot.predicted_bytes,
                          slot.degraded};
}

Result<const CompiledQuery*> Engine::SubscribedQuery(
    std::string_view id) const {
  const size_t sub = SubIndexOf(id);
  if (sub == kUnknownSub) {
    return Status::NotFound("unknown subscription id: " + std::string(id));
  }
  // Duplicate subscribers keep their own compiled query; the slot
  // representative's lives in the slot itself.
  const SubRecord& record = records_[handles_[sub]];
  const CompiledQuery* query = record.query != nullptr
                                   ? record.query.get()
                                   : &slots_[sub_slot_[sub]].query;
  return query;
}

Status Engine::Feed(std::string_view chunk) {
  if (parser_ == nullptr) {
    // The parser interns names into the engine's table as it tokenizes,
    // so on the byte path every event reaches the matcher with its
    // symbol resolved — no hashing downstream. Text rides the engine's
    // reusable arena (or, under FilterXml, views the caller's buffer):
    // zero per-event allocations either way.
    XmlParserOptions parser_options;
    parser_options.symbols = symbols_.get();
    parser_options.arena = &parse_arena_;
    parser_options.stable_input = stable_parse_;
    parser_ = std::make_unique<XmlParser>(this, parser_options);
    parser_->SetMaxEntityExpansionBytes(options_.max_entity_expansion_bytes);
  }
  return parser_->Feed(chunk);
}

Status Engine::FinishDocument() {
  if (parser_ == nullptr) {
    return Status::InvalidArgument("no document text was fed");
  }
  Status status = parser_->Finish();
  // One parser per document: the next Feed() starts the next document.
  // The matcher consumed endDocument inside Finish(), so the arena's
  // views are dead and its blocks can be recycled.
  parser_.reset();
  parse_arena_.Reset();
  if (!status.ok()) AbortDocument();
  return status;
}

Result<std::vector<bool>> Engine::FilterXml(std::string_view xml) {
  if (parser_ != nullptr || in_document_) {
    return Status::InvalidArgument("a document is already being consumed");
  }
  // `xml` stays alive for the whole parse+match, so the parser may back
  // event views with it directly — the zero-copy whole-document path.
  stable_parse_ = true;
  Status status = Feed(xml);
  if (status.ok()) status = FinishDocument();
  stable_parse_ = false;
  if (!status.ok()) {
    AbortDocument();
    return status;
  }
  return last_verdicts();
}

void Engine::AbortDocument() {
  parser_.reset();
  parse_arena_.Reset();
  in_document_ = false;  // the next startDocument resets the matcher
  short_circuited_ = false;
  pending_matches_.clear();
}

void Engine::EnsureFanout() {
  if (!fanout_dirty_ && slot_subs_.size() == slots_.size()) return;
  slot_subs_.assign(slots_.size(), {});
  for (size_t sub = 0; sub < sub_slot_.size(); ++sub) {
    slot_subs_[sub_slot_[sub]].push_back(sub);
  }
  fanout_dirty_ = false;
}

void Engine::FlushPendingMatches() {
  if (pending_matches_.empty()) return;
  // Fan-out appends slot by slot in matcher-report order; subscriber
  // order within the ordinal is restored here.
  std::sort(pending_matches_.begin(), pending_matches_.end());
  for (size_t sub : pending_matches_) {
    result_sink_->OnMatch(sub, documents_seen_, pending_ordinal_);
  }
  pending_matches_.clear();
}

void Engine::HandleSlotMatched(size_t slot, size_t event_ordinal) {
  if (slot >= decided_at_.size() ||
      decided_at_[slot] != kNoEventOrdinal) {
    return;  // already decided (defensive: matchers report once)
  }
  decided_at_[slot] = event_ordinal;
  ++matched_count_;
  if (result_sink_ == nullptr) return;
  // Buffer instead of delivering: two slots deciding at the same event
  // must reach the sink in subscriber order, which fan-out would
  // otherwise scramble (slot order need not be subscriber order).
  if (event_ordinal != pending_ordinal_) FlushPendingMatches();
  pending_ordinal_ = event_ordinal;
  EnsureFanout();
  for (size_t sub : slot_subs_[slot]) {
    if (modes_[sub] == DeliveryMode::kEarliest) {
      pending_matches_.push_back(sub);
    }
  }
}

void Engine::MaterializeExpansion() const {
  if (expansion_valid_) return;
  last_verdicts_.resize(subs_at_last_doc_);
  last_decided_at_.resize(subs_at_last_doc_);
  for (size_t sub = 0; sub < subs_at_last_doc_; ++sub) {
    last_verdicts_[sub] = slot_verdicts_[sub_slot_[sub]];
    last_decided_at_[sub] = slot_decided_at_[sub_slot_[sub]];
  }
  expansion_valid_ = true;
}

const std::vector<bool>& Engine::last_verdicts() const {
  MaterializeExpansion();
  return last_verdicts_;
}

const std::vector<size_t>& Engine::last_decided_at() const {
  MaterializeExpansion();
  return last_decided_at_;
}

Status Engine::SkipEvent(const Event& event) {
  // The engines are done with this document; only stream shape is
  // still enforced so a malformed tail cannot slip through. (Byte
  // input additionally passes the full XmlParser validation.)
  switch (event.type) {
    case EventType::kStartElement:
      ++element_depth_;
      return Status::OK();
    case EventType::kEndElement:
      if (element_depth_ == 0) {
        return Status::NotWellFormed("unbalanced endElement");
      }
      --element_depth_;
      return Status::OK();
    default:
      return Status::OK();
  }
}

void Engine::FinalizeDocument() {
  in_document_ = false;
  // Fold the document's measurements into the pipeline profile: from
  // here on, the planner prices subscriptions against observed reality
  // instead of the assumed profile. The symbol table holds every
  // distinct name the pipeline has interned — the alphabet size of the
  // DFA blowup bound. A pool-shared profile is fed from every replica's
  // worker thread, hence the (optional) lock.
  {
    std::unique_lock<std::mutex> lock;
    if (profile_mutex_ != nullptr) {
      lock = std::unique_lock<std::mutex>(*profile_mutex_);
    }
    profile_->Observe(collector_.stats(), symbols_->size());
  }
  if (result_sink_ != nullptr) FlushPendingMatches();
  // Slots still undecided carry non-matches, decided at endDocument.
  for (size_t& position : decided_at_) {
    if (position == kNoEventOrdinal) position = event_ordinal_;
  }
  // Everything O(subscriptions) below is deferred or sink-gated; a
  // sink-less caller that samples results per id pays O(slots) here.
  slot_decided_at_ = decided_at_;
  subs_at_last_doc_ = handles_.size();
  expansion_valid_ = false;
  if (options_.keep_history) {
    MaterializeExpansion();
    history_.push_back(last_verdicts_);
  }
  const size_t doc_index = documents_seen_;
  ++documents_seen_;
  const MemoryStats& document_stats = matcher_->stats();
  peak_table_entries_ = std::max(peak_table_entries_,
                                 document_stats.table_entries().peak());
  peak_buffered_bytes_ = std::max(peak_buffered_bytes_,
                                  document_stats.buffered_bytes().peak());
  if (result_sink_ != nullptr) {
    MaterializeExpansion();
    for (size_t sub = 0; sub < subs_at_last_doc_; ++sub) {
      if (modes_[sub] == DeliveryMode::kAtEnd && last_verdicts_[sub]) {
        result_sink_->OnMatch(sub, doc_index, last_decided_at_[sub]);
      }
    }
    result_sink_->OnDocumentDone(doc_index, last_verdicts_);
  }
}

Status Engine::OnEvent(const Event& event) {
  // The old FilterSession contract, folded into the facade: reset the
  // matcher at each document start, harvest verdicts and fold peak
  // gauges at each document end — plus push delivery and the
  // short-circuit skip path.
  switch (event.type) {
    case EventType::kStartDocument:
      if (in_document_) {
        return Status::NotWellFormed("nested startDocument in stream");
      }
      in_document_ = true;
      short_circuited_ = false;
      element_depth_ = 0;
      event_ordinal_ = 0;
      matched_count_ = 0;
      decided_at_.assign(slots_.size(), kNoEventOrdinal);
      pending_matches_.clear();
      pending_ordinal_ = 0;
      collector_.Reset();
      collector_.OnEvent(event);
      XPS_RETURN_IF_ERROR(matcher_->Reset());
      XPS_RETURN_IF_ERROR(matcher_->OnEvent(event));
      if (result_sink_ != nullptr) FlushPendingMatches();
      ++event_ordinal_;
      return Status::OK();
    case EventType::kEndDocument: {
      if (!in_document_) {
        return Status::NotWellFormed("endDocument outside a document");
      }
      collector_.OnEvent(event);
      if (short_circuited_) {
        if (element_depth_ != 0) {
          return Status::NotWellFormed("endDocument with open elements");
        }
        // All subscriptions decided mid-document — decided means
        // matched, so the verdicts are known without the matcher.
        slot_verdicts_.assign(slots_.size(), true);
        ++documents_short_circuited_;
      } else {
        XPS_RETURN_IF_ERROR(matcher_->OnEvent(event));
        auto verdicts = matcher_->Verdicts();
        if (!verdicts.ok()) return verdicts.status();
        slot_verdicts_ = std::move(verdicts).value();
      }
      FinalizeDocument();
      return Status::OK();
    }
    default: {
      if (!in_document_) {
        return Status::NotWellFormed("content outside a document");
      }
      // Depth cap before the event reaches matcher or skip path: a
      // hostile deep document fails cleanly instead of growing
      // per-level engine state without bound.
      if (event.type == EventType::kStartElement &&
          options_.max_element_depth != 0 &&
          element_depth_ >= options_.max_element_depth) {
        return Status::NotWellFormed(
            "element depth exceeds max_element_depth = " +
            std::to_string(options_.max_element_depth));
      }
      // The profile measures the whole document, skipped tail included.
      collector_.OnEvent(event);
      if (short_circuited_) {
        XPS_RETURN_IF_ERROR(SkipEvent(event));
        ++event_ordinal_;
        return Status::OK();
      }
      XPS_RETURN_IF_ERROR(matcher_->OnEvent(event));
      // Per-event streaming keeps push delivery synchronous: everything
      // the matcher decided at this event flushes before the next one.
      // (The batch path flushes on ordinal advance instead.)
      if (result_sink_ != nullptr) FlushPendingMatches();
      if (event.type == EventType::kStartElement) {
        ++element_depth_;
      } else if (event.type == EventType::kEndElement &&
                 element_depth_ > 0) {
        // The matcher validates balance; this mirror only feeds the
        // skip path (a sharded matcher defers validation to dispatch,
        // hence the underflow clamp).
        --element_depth_;
      }
      ++event_ordinal_;
      // Decided means matched, per eval slot: tombstoned slots never
      // decide (the matcher dropped them), so the cut fires when every
      // *live* slot has matched — every logical subscription is decided.
      const size_t live_slots = slots_.size() - tombstoned_slots_;
      if (options_.short_circuit && live_slots > 0 &&
          matched_count_ == live_slots) {
        short_circuited_ = true;
      }
      return Status::OK();
    }
  }
}

namespace {

/// True when `events` is exactly one document envelope: startDocument
/// first, endDocument last, no interior document boundaries. Element
/// balance is left to the engines (a sharded matcher reports it at
/// dispatch, matching the per-event path's behavior).
bool IsSingleDocumentEnvelope(const EventStream& events) {
  if (events.size() < 2 ||
      events.front().type != EventType::kStartDocument ||
      events.back().type != EventType::kEndDocument) {
    return false;
  }
  for (size_t i = 1; i + 1 < events.size(); ++i) {
    if (events[i].type == EventType::kStartDocument ||
        events[i].type == EventType::kEndDocument) {
      return false;
    }
  }
  return true;
}

}  // namespace

Result<std::vector<bool>> Engine::FilterEventsBatch(
    const EventStream& events) {
  // Borrowed-batch replay: the whole span goes to the matcher, which
  // replays it without copying (ShardedMatcher overrides OnDocument).
  // The span is only borrowed for the duration of the call.
  in_document_ = true;
  short_circuited_ = false;
  element_depth_ = 0;
  event_ordinal_ = events.size() - 1;  // the endDocument ordinal
  matched_count_ = 0;
  decided_at_.assign(slots_.size(), kNoEventOrdinal);
  pending_matches_.clear();
  pending_ordinal_ = 0;
  collector_.Reset();
  for (const Event& event : events) collector_.OnEvent(event);
  Status status = matcher_->OnDocument(events);
  if (!status.ok()) {
    AbortDocument();
    return status;
  }
  auto verdicts = matcher_->Verdicts();
  if (!verdicts.ok()) {
    AbortDocument();
    return verdicts.status();
  }
  slot_verdicts_ = std::move(verdicts).value();
  FinalizeDocument();
  return last_verdicts();
}

Result<std::vector<bool>> Engine::FilterEvents(const EventStream& events) {
  if (in_document_) {
    return Status::InvalidArgument("a document is already being consumed");
  }
  if (parser_ != nullptr) {
    return Status::InvalidArgument("a document is already being consumed");
  }
  if (pool_ != nullptr && IsSingleDocumentEnvelope(events)) {
    return FilterEventsBatch(events);
  }
  for (const Event& event : events) {
    Status status = OnEvent(event);
    if (!status.ok()) {
      AbortDocument();  // discard the partial document, stay usable
      return status;
    }
  }
  if (in_document_) {
    AbortDocument();
    return Status::NotWellFormed("event stream ended mid-document");
  }
  return last_verdicts();
}

namespace {

/// Parses one whole XML document into its SAX event batch. Deliberately
/// without a SymbolTable: these parses run concurrently on pool workers
/// and the table is single-threaded by design — names resolve later, on
/// the match thread (once per event, before any shard fan-out). Returns
/// the owning EventBuffer form: the events outlive the parse task, so
/// they must carry their backing storage with them.
Result<EventBuffer> ParseToEvents(const std::string& xml) {
  return ParseXmlToEvents(xml);
}

}  // namespace

Result<std::vector<std::vector<bool>>> Engine::FilterDocuments(
    const std::vector<std::string>& xmls) {
  if (parser_ != nullptr || in_document_) {
    return Status::InvalidArgument("a document is already being consumed");
  }
  std::vector<std::vector<bool>> verdicts;
  verdicts.reserve(xmls.size());

  if (pool_ == nullptr || xmls.size() < 2) {
    for (const std::string& xml : xmls) {
      auto document = FilterXml(xml);
      if (!document.ok()) return document.status();
      verdicts.push_back(std::move(document).value());
    }
    return verdicts;
  }

  // Pipeline: up to batch_size upcoming documents parse on the pool
  // while the calling thread matches earlier ones (matching itself fans
  // out across the same pool's workers shard by shard).
  using ParseSlot = std::optional<Result<EventBuffer>>;
  std::deque<std::pair<std::shared_ptr<ParseSlot>, std::future<void>>> inflight;
  size_t next = 0;
  auto submit = [&] {
    auto slot = std::make_shared<ParseSlot>();
    const std::string* xml = &xmls[next++];
    std::future<void> done =
        pool_->Submit([slot, xml] { slot->emplace(ParseToEvents(*xml)); });
    inflight.emplace_back(std::move(slot), std::move(done));
  };

  // On an early error the remaining parses must finish before returning:
  // their tasks hold pointers into the caller's xmls.
  auto fail = [&](Status status) -> Status {
    for (auto& entry : inflight) entry.second.wait();
    return status;
  };

  const size_t lookahead = std::max<size_t>(1, options_.batch_size);
  while (next < xmls.size() && inflight.size() < lookahead) submit();
  while (!inflight.empty()) {
    auto [slot, done] = std::move(inflight.front());
    inflight.pop_front();
    done.wait();
    if (next < xmls.size()) submit();  // keep the parse pipeline full
    if (!slot->has_value()) {
      // The parse task died before storing a result (it threw, e.g.
      // bad_alloc); the exception sits in the discarded future.
      return fail(Status::Internal("document parse task failed"));
    }
    Result<EventBuffer>& parsed = **slot;
    if (!parsed.ok()) return fail(parsed.status());
    auto document = FilterEvents(parsed.value().events());
    if (!document.ok()) return fail(document.status());
    verdicts.push_back(std::move(document).value());
  }
  return verdicts;
}

Result<bool> Engine::Matched(std::string_view id) const {
  if (documents_seen_ == 0) {
    return Status::InvalidArgument("no document has completed yet");
  }
  const size_t sub = SubIndexOf(id);
  if (sub == kUnknownSub) {
    return Status::NotFound("unknown subscription id: " + std::string(id));
  }
  if (sub >= subs_at_last_doc_) {
    // Subscribed between documents: no verdict until the next one.
    return Status::InvalidArgument("subscription \"" + std::string(id) +
                                   "\" was added after the last document");
  }
  return static_cast<bool>(slot_verdicts_[sub_slot_[sub]]);
}

Result<bool> Engine::Matched() const {
  if (handles_.size() != 1) {
    return Status::InvalidArgument(
        "Matched() without an id needs exactly one subscription");
  }
  return Matched(records_[handles_.front()].id);
}

Result<size_t> Engine::DecidedAt(std::string_view id) const {
  if (documents_seen_ == 0) {
    return Status::InvalidArgument("no document has completed yet");
  }
  const size_t sub = SubIndexOf(id);
  if (sub == kUnknownSub) {
    return Status::NotFound("unknown subscription id: " + std::string(id));
  }
  if (sub >= subs_at_last_doc_) {
    return Status::InvalidArgument("subscription \"" + std::string(id) +
                                   "\" was added after the last document");
  }
  return slot_decided_at_[sub_slot_[sub]];
}

const MemoryStats& Engine::stats() const {
  stats_.Reset();
  stats_.Accumulate(matcher_->stats());
  // The shared table's footprint: the once-per-distinct-name cost that
  // replaces per-event string work across the whole pipeline.
  stats_.symbol_bytes().Set(symbols_->FootprintBytes());
  // The planner-side gauges: the forecast admission holds under budget
  // and the rejections it issued doing so.
  stats_.predicted_peak_bytes().Set(predicted_total_);
  stats_.admission_rejects().Set(admission_rejects_);
  // Scratch retained by the zero-copy parser's per-document arena.
  stats_.arena_bytes().Set(parse_arena_.FootprintBytes());
  return stats_;
}

}  // namespace xpstream
