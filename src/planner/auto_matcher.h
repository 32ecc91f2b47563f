#ifndef XPSTREAM_PLANNER_AUTO_MATCHER_H_
#define XPSTREAM_PLANNER_AUTO_MATCHER_H_

/// \file
/// The "auto" meta-engine: a routing Matcher that prices every incoming
/// subscription with the planner (PlanQuery against the pipeline's
/// DocumentProfile) and subscribes it on a member engine. Members are
/// real registry engines, created lazily on first use and fed every
/// event in lockstep; verdicts, decided positions, sink reports and
/// stats are merged back into the caller's global slot space.
///
/// Routing (docs/cost_model.md, "the routing invariant"): a linear path
/// q joins the one shared nfa_index member I iff the population bound
/// B(I ∪ {q}) is at most the sum of the admission charges of I ∪ {q},
/// each charge being the slot's standalone PlanQuery choice — what the
/// facade charges against the budget. Every other query, and a linear
/// one that fails the test, goes to its predicted-cheapest engine that
/// accepts it. A lone subscription therefore routes exactly as its
/// standalone ranking says, and the index never holds a population
/// whose bound exceeds what admission charged for it.
///
/// Deliberately *not* registered in the EngineRegistry: "auto" is a
/// policy over engines, not an engine, and keeping it out of
/// AvailableEngines() keeps engine-enumeration loops (tests, benches,
/// the server's caps listing) meaning "concrete algorithms".

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "stream/matcher.h"
#include "stream/nfa_index.h"

namespace xpstream {

class AutoMatcher : public Matcher {
 public:
  /// Creates an auto matcher wired into the pipeline: members share
  /// `context`'s SymbolTable (or the matcher's private one) and
  /// DfaTableCache, and every Subscribe consults `context.profile`
  /// (assumed defaults when null).
  static Result<std::unique_ptr<AutoMatcher>> Create(
      const PipelineContext& context);

  std::string name() const override { return "auto"; }
  std::string EngineForSlot(size_t slot) const override;
  Status Subscribe(size_t slot, const Query* query) override;
  Status Unsubscribe(size_t slot) override;
  size_t NumSubscriptions() const override { return routes_.size(); }
  Status Reset() override;
  Status OnSymbolizedEvent(const Event& event, Symbol name_sym) override;
  Result<std::vector<bool>> Verdicts() const override;
  std::vector<size_t> DecidedPositions() const override;
  bool AllDecided() const override;
  void PublishShared() override;
  const MemoryStats& stats() const override;

 private:
  /// One lazily created member engine and its local→global slot map.
  struct Member;
  /// Per-member MatchSink translating local reports into the shared
  /// pending buffer (global slots), flushed in contract order per event.
  class Relay;
  /// Where one global slot landed.
  struct Route {
    size_t member = 0;  ///< index into members_
    size_t local = 0;   ///< slot inside that member
    size_t charge = 0;  ///< admission charge carried into the index (else 0)
  };

  explicit AutoMatcher(const PipelineContext& context);

  /// Returns the index of the member running `engine`, creating it (and
  /// its relay) on first use.
  Result<size_t> EnsureMember(const std::string& engine);

  /// The routing invariant's test: whether `query`, charged `price`,
  /// may join the shared index under `profile`.
  bool IndexAdmits(const Query& query, size_t price,
                   const DocumentProfile& profile) const;

  void OnMemberMatch(size_t member, size_t local, size_t ordinal);

  /// Delivers buffered member reports to the sink sorted by
  /// (ordinal, global slot) — the MatchSink contract order.
  void FlushPending();

  PipelineContext context_;
  std::vector<Member> members_;
  std::vector<Route> routes_;
  /// The nfa_index member, once created (owned by members_).
  const NfaIndexMatcher* index_ = nullptr;
  /// Sum of the charges of the live slots routed to the index.
  size_t index_charges_ = 0;
  std::vector<std::pair<size_t, size_t>> pending_;  ///< (ordinal, slot)
  mutable MemoryStats stats_;  // aggregated over members on demand
};

/// Factory with the MatcherFactory shape, for BuildMatcher and
/// ShardedMatcher composition ("auto" inside every shard).
Result<std::unique_ptr<Matcher>> CreateAutoMatcher(
    const PipelineContext& context);

}  // namespace xpstream

#endif  // XPSTREAM_PLANNER_AUTO_MATCHER_H_
