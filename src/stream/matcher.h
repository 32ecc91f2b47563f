#ifndef XPSTREAM_STREAM_MATCHER_H_
#define XPSTREAM_STREAM_MATCHER_H_

/// \file
/// The single subscription model behind the public Engine facade. A
/// Matcher answers BOOLEVAL for a *set* of subscriptions over one
/// document stream at a time: subscriptions are registered under dense
/// slots, the document arrives as SAX events, and after endDocument the
/// matcher reports one verdict per slot plus uniform MemoryStats.
///
/// Three shapes implement the interface:
///  * FilterBankMatcher — one StreamFilter per subscription sharing a
///    single SAX scan (nfa / lazy_dfa / naive engines); every member is
///    called on every event and polled for its decision right after;
///  * FrontierBank (stream/frontier_bank.h, the frontier engine) — the
///    paper's §8 algorithm over one flat record table shared by all
///    subscriptions. Start tags reach only the records in their name's
///    symbol bucket and the `*` bucket; attributes and end tags reach
///    only the open element's frame (its expansions and attribute
///    records); text is one append to a shared log while any capture is
///    open; only slots an event touched are polled. table_entries and
///    buffered_bytes sum the per-slot FrontierFilter readings, while
///    auxiliary_bytes counts the bank's routing state (bucket entries,
///    frame/expansion/anchor stacks, open captures);
///  * the shared-automaton matcher over NfaIndex (nfa_index engine),
///    where all subscriptions run in one automaton.
/// All are reached by name through the EngineRegistry.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/memory_stats.h"
#include "common/status.h"
#include "stream/filter.h"
#include "xml/event.h"
#include "xml/stats.h"
#include "xml/symbol_table.h"

namespace xpstream {

class DfaTableCache;  // stream/dfa_table_cache.h
class Query;          // xpath/ast.h

/// Shared per-pipeline structure handed to matcher factories: every
/// shard and member filter of one Engine resolves names against the
/// same SymbolTable, and engines that memoize query-shaped tables
/// (lazy_dfa's transition tables) share them through the cache so a
/// compaction rebuild or a re-sharding never starts cold. Either
/// pointer may be null — the component then owns a private equivalent.
struct PipelineContext {
  SymbolTable* symbols = nullptr;
  DfaTableCache* dfa_tables = nullptr;
  /// Document statistics of the pipeline's stream so far (owned by the
  /// facade, updated at every document boundary). Read by planning
  /// matchers — the "auto" meta-engine prices each subscription against
  /// it at Subscribe time. Null when no planner is in play.
  const DocumentProfile* profile = nullptr;
};

/// Push-notification interface of the matcher layer: as the scan
/// proceeds, the matcher reports each subscription slot whose verdict
/// became provably decided *true*, together with the 0-based event
/// ordinal of the deciding event (startDocument = 0). Verdicts are
/// monotone, so a slot is reported at most once per document; false
/// verdicts are never reported (they only decide at endDocument and are
/// read from Verdicts()). Reports arrive in nondecreasing ordinal
/// order, ascending slot within one ordinal — ShardedMatcher's merge
/// reproduces exactly this order, making sink delivery bit-identical to
/// a single-threaded run.
class MatchSink {
 public:
  virtual ~MatchSink() = default;
  virtual void OnSlotMatched(size_t slot, size_t ordinal) = 0;
};

class Matcher : public EventSink {
 public:
  ~Matcher() override = default;

  /// Attaches a push sink for match notifications (nullptr detaches).
  /// Must not be called between startDocument and endDocument.
  virtual void SetSink(MatchSink* sink) { sink_ = sink; }

  /// Engine-registry key this matcher was created under.
  virtual std::string name() const = 0;

  /// The concrete algorithm evaluating `slot`. For ordinary matchers
  /// this is name(); routing matchers (the planner's "auto"
  /// meta-engine) answer per slot, and ShardedMatcher forwards to the
  /// owning shard, so the facade can report the decision regardless of
  /// the matcher stack's shape. `slot` must be a subscribed slot.
  virtual std::string EngineForSlot(size_t slot) const {
    (void)slot;
    return name();
  }

  /// Registers a subscription under the next dense slot; `slot` must
  /// equal NumSubscriptions(). The query must outlive the matcher.
  /// Fails with kUnsupported when the query is outside the engine's
  /// fragment, and must not be called between startDocument and
  /// endDocument (the facade enforces this).
  virtual Status Subscribe(size_t slot, const Query* query) = 0;

  /// Tombstones the subscription in `slot`: the slot stops evaluating
  /// (its verdict reads false, its decided position kNoEventOrdinal)
  /// but stays allocated, so live slots keep their numbers, verdict
  /// vectors keep their width, and — crucially — no automaton is
  /// rebuilt and no in-flight document state is invalidated. Must not
  /// be called between startDocument and endDocument (the facade
  /// enforces this). Reclaiming tombstoned capacity is the caller's
  /// deferred-compaction decision (the facade rebuilds into a fresh
  /// matcher in a maintenance window, never on the Unsubscribe path).
  /// kUnsupported by default for external engines that predate churn.
  virtual Status Unsubscribe(size_t slot) {
    (void)slot;
    return Status::Unsupported("engine \"" + name() +
                               "\" does not support Unsubscribe");
  }

  /// Total slots ever subscribed, including tombstoned ones (the width
  /// of Verdicts()/DecidedPositions() and the next dense Subscribe
  /// slot).
  virtual size_t NumSubscriptions() const = 0;

  /// Folds privately accumulated shareable structure (a lazy DFA's
  /// transition-table overlay) back into the pipeline's shared caches.
  /// Called by the owner on the dispatch thread only — never
  /// concurrently with matching — so implementations need no
  /// synchronization beyond the caches' own. Default: nothing shared.
  virtual void PublishShared() {}

  /// Prepares for a new document; verdicts and per-document stats reset.
  virtual Status Reset() = 0;

  /// Feeds the next SAX event (EventSink interface): resolves the
  /// event's name against symbols() once — a cached-symbol read for
  /// events produced by a table-backed parser, one intern otherwise —
  /// and forwards to OnSymbolizedEvent. Final so every event reaches
  /// the engines with its symbol already resolved, exactly once.
  Status OnEvent(const Event& event) final {
    return OnSymbolizedEvent(event, ResolveEventName(event, symbols()));
  }

  /// The per-event hot path: `name_sym` is the event's name resolved
  /// against symbols() (kNoSymbol for nameless events). All engines a
  /// matcher fans the event out to share that table, so the one symbol
  /// serves every subscription.
  virtual Status OnSymbolizedEvent(const Event& event, Symbol name_sym) = 0;

  /// Batch entry point: one whole pre-parsed document (startDocument
  /// first, endDocument last — the facade validates the envelope). The
  /// default replays event by event; ShardedMatcher overrides it to
  /// replay the caller-owned span without copying it into a batch. The
  /// span is only borrowed for the duration of the call.
  virtual Status OnDocument(const EventStream& events);

  /// The SymbolTable this matcher's subscriptions resolve against: the
  /// pipeline table bound at creation (shared with the parser and, for
  /// sharded engines, with every shard), or a private one when created
  /// standalone.
  SymbolTable* symbols() { return symbols_.get(); }

  /// Per-slot verdicts; valid only after endDocument was consumed.
  virtual Result<std::vector<bool>> Verdicts() const = 0;

  /// Per-slot event ordinals at which verdicts became provably decided
  /// (matches: the deciding event, non-matches: the endDocument
  /// ordinal); kNoEventOrdinal for slots still undecided. Unlike
  /// Verdicts() this is readable mid-document — the short-circuit path
  /// harvests positions from matchers that never see endDocument.
  virtual std::vector<size_t> DecidedPositions() const = 0;

  /// True when every slot's verdict is already provably decided — all
  /// slots matched so far, since non-matches only decide at
  /// endDocument. The short-circuit lever: once true, the remaining
  /// events of the document cannot change any verdict.
  virtual bool AllDecided() const = 0;

  /// Memory accounting for the current/most recent document. For a
  /// filter bank this is the sum over member filters (peaks sum to an
  /// upper bound, since members may peak at different moments).
  virtual const MemoryStats& stats() const = 0;

 protected:
  /// Binds the pipeline's shared SymbolTable (nullptr keeps a lazily
  /// created private table). Called at construction, before the first
  /// Subscribe.
  void BindSymbols(SymbolTable* table) { symbols_.Bind(table); }

  MatchSink* sink_ = nullptr;

 private:
  SymbolTableRef symbols_;
};

/// Creates a Matcher of the engine registered under `name`, wired into
/// the pipeline's shared structures (context members may be null — the
/// matcher then owns private equivalents).
using MatcherFactory =
    std::function<Result<std::unique_ptr<Matcher>>(const PipelineContext&)>;

/// Creates one engine-specific StreamFilter for a subscription query,
/// with its node tests resolved in `symbols`.
using FilterFactory = std::function<Result<std::unique_ptr<StreamFilter>>(
    const Query*, SymbolTable* symbols)>;

/// A bank of per-subscription StreamFilters sharing one SAX scan — the
/// adapter that turns a single-query engine (nfa, lazy_dfa, naive) into
/// a multi-query dissemination engine. All member filters share the bank's
/// SymbolTable, so one name resolution per event serves every filter.
class FilterBankMatcher : public Matcher {
 public:
  FilterBankMatcher(std::string name, FilterFactory factory,
                    SymbolTable* symbols = nullptr)
      : name_(std::move(name)), factory_(std::move(factory)) {
    BindSymbols(symbols);
  }

  std::string name() const override { return name_; }
  Status Subscribe(size_t slot, const Query* query) override;
  Status Unsubscribe(size_t slot) override;
  size_t NumSubscriptions() const override { return filters_.size(); }
  Status Reset() override;
  Status OnSymbolizedEvent(const Event& event, Symbol name_sym) override;
  Result<std::vector<bool>> Verdicts() const override;
  std::vector<size_t> DecidedPositions() const override;
  bool AllDecided() const override {
    return decided_count_ == filters_.size();
  }
  void PublishShared() override;
  const MemoryStats& stats() const override;

 private:
  /// Clears per-document harvest bookkeeping. Tombstoned slots start
  /// pre-decided (they can never report), so AllDecided keeps meaning
  /// "nothing left that could change".
  void ResetHarvest();

  std::string name_;
  FilterFactory factory_;
  /// Member filters by slot; a null entry is a tombstoned slot
  /// (unsubscribed — it evaluates nothing and reads as a non-match).
  std::vector<std::unique_ptr<StreamFilter>> filters_;
  std::vector<uint8_t> decided_;  ///< per-slot: decision already harvested
  size_t decided_count_ = 0;
  mutable MemoryStats stats_;  // aggregated on demand
};

}  // namespace xpstream

#endif  // XPSTREAM_STREAM_MATCHER_H_
