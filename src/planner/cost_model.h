#ifndef XPSTREAM_PLANNER_COST_MODEL_H_
#define XPSTREAM_PLANNER_COST_MODEL_H_

/// \file
/// The estimator behind include/xpstream/planner.h: per-engine peak
/// cost from query shape and a DocumentProfile. Formulas restate the
/// paper's bounds (lowerbounds/theory.h) with this codebase's constant
/// factors; docs/cost_model.md is the authoritative derivation and
/// carries the worked examples. Internal — external callers go through
/// the public PlanQuery/EstimateEngineCost.

#include <string>
#include <vector>

#include "stream/nfa_index.h"
#include "xml/stats.h"
#include "xpstream/planner.h"

namespace xpstream {

class Query;

/// The query-side inputs of the cost formulas, extracted once per
/// subscription.
struct QueryShape {
  size_t size = 0;            ///< |Q|: query tree nodes incl. root.
  size_t depth = 0;           ///< Query tree depth.
  size_t steps = 0;           ///< Successor-chain (location path) length.
  size_t distinct_names = 0;  ///< Distinct non-wildcard node tests.
  /// The DFA memory window: longest run of consecutive wildcard steps
  /// with a descendant axis anywhere upstream — the k of //a/*^k, the
  /// driver of the 2^k transition-table blowup (experiment E5).
  size_t wildcard_window = 0;
  bool has_descendant = false; ///< Any descendant axis (not closure-free).
  bool has_attribute = false;  ///< Any attribute-axis step on the path.
  bool has_predicates = false; ///< Any predicate anywhere.
  bool linear = false;         ///< Pure location path (IsLinearPathQuery).
  /// The query's own nfa_index trie (NfaIndex::ShapeOf): B({q})'s counts.
  NfaIndex::TrieShape index_trie;
};

/// Measures `query` for the cost formulas.
QueryShape AnalyzeQueryShape(const Query& query);

/// The engines the planner prices, in candidate preference order used
/// to break exact cost ties deterministically.
const std::vector<std::string>& PlannerEngines();

/// Static fragment check mirroring `engine`'s own Subscribe gate.
/// Advisory: the "auto" matcher still falls through on a live
/// kUnsupported, so a permissive mistake here costs one rejected
/// attempt, never a wrong verdict.
bool EngineSupportsQuery(const std::string& engine, const Query& query,
                         const QueryShape& shape, std::string* why);

/// Prices `query` on `engine` under `profile`. `engine` must be one of
/// PlannerEngines().
CostEstimate EstimateCostForEngine(const std::string& engine,
                                   const QueryShape& shape,
                                   const DocumentProfile& profile);

/// B(P), the nfa_index population bound (docs/cost_model.md): for a
/// population whose shared trie has `trie`'s counts, one automaton entry
/// per state, one run entry per anchored state (live at its own depth
/// only) and one per open level for every floating state. A lone query
/// is P = {q}: EstimateCostForEngine("nfa_index") is B({q}).
CostEstimate NfaIndexPopulationCost(const NfaIndex::TrieShape& trie,
                                    const DocumentProfile& profile);

/// Builds the full supported-then-cheapest ranking (the body of the
/// public PlanQuery).
QueryPlan BuildQueryPlan(const Query& query, const DocumentProfile& profile);

}  // namespace xpstream

#endif  // XPSTREAM_PLANNER_COST_MODEL_H_
