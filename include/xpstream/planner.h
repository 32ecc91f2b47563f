#ifndef XPSTREAM_PUBLIC_PLANNER_H_
#define XPSTREAM_PUBLIC_PLANNER_H_

/// \file
/// The query planner: prices a subscription's peak memory on every
/// built-in engine *before* any document streams, from query shape and
/// a DocumentProfile of the stream. The estimator formulas restate the
/// paper's §4/§8 bounds (src/lowerbounds/theory.h) with the constant
/// factors of this codebase's data structures; docs/cost_model.md
/// derives each one and shows worked examples against measured peaks.
///
/// Two consumers: EngineOptions::engine = "auto" routes each
/// subscription at Subscribe time, and EngineOptions::memory_budget_bytes
/// admission-controls subscriptions whose predicted peak would overrun a
/// tenant budget. Admission charges exactly the PlanQuery() choice
/// below, so a caller can reproduce (and audit) every charge:
///
///   auto query = CompileQuery("//a/*/*/*");
///   DocumentProfile profile;          // or Engine::observed_profile()
///   QueryPlan plan = PlanQuery(*query, profile);
///   // plan.Choice()->cost.PredictedPeakBytes() == the admission charge
///
/// "auto" routes a lone subscription to that choice too; in a population
/// it also puts a linear path on the one shared nfa_index whenever the
/// index's population bound stays within the charges of its members
/// (docs/cost_model.md, "the routing invariant"). Engine::PlanOf reports
/// where each subscription landed.

#include <cstddef>
#include <string>
#include <vector>

#include "common/status.h"
#include "xml/stats.h"
#include "xpstream/query.h"

namespace xpstream {

/// Predicted peak footprint of one subscription on one engine, in the
/// same gauge vocabulary as MemoryStats so predictions and measurements
/// line up column by column.
struct CostEstimate {
  /// Live table/stack/frontier entries (MemoryStats::table_entries).
  size_t state_entries = 0;
  /// Automaton states + transition-table entries materialized.
  size_t automaton_entries = 0;
  /// Document text the engine must buffer, in bytes.
  size_t buffered_bytes = 0;
  /// Auxiliary structure bytes (stacks, counters).
  size_t aux_bytes = 0;
  /// The paper's information-theoretic floor for this query/profile in
  /// bits — what *no* streaming algorithm can beat (Thm 4.5 / Thm 8.8).
  size_t lower_bound_bits = 0;

  /// The single number admission control compares against a budget:
  /// entries are charged `bytes_per_entry` (16, matching
  /// MemoryStats::PeakBytes) plus the byte gauges.
  size_t PredictedPeakBytes(size_t bytes_per_entry = 16) const;

  /// One-line key=value rendering.
  std::string ToString() const;
};

/// One engine's row in a query plan.
struct EnginePrediction {
  /// Registry name ("naive", "nfa", "lazy_dfa", "frontier", "nfa_index").
  std::string engine;
  /// Predicted peak cost on this engine.
  CostEstimate cost;
  /// Static fragment check: whether this engine is expected to accept
  /// the query. The planner's check mirrors the engines' own gates;
  /// "auto" still falls through to the next candidate if an engine
  /// disagrees and rejects at Subscribe time.
  bool supported = false;
  /// One-phrase rationale: the dominating bound, or the fragment gate
  /// that failed.
  std::string why;
};

/// The full per-engine ranking for one query: supported engines first,
/// cheapest first within each group (exact ties: nfa_index, nfa,
/// lazy_dfa, frontier, naive). This ordering is the "auto" engine's
/// fallback order and the admission controller's price list.
struct QueryPlan {
  /// All built-in engines, supported-then-cheapest first.
  std::vector<EnginePrediction> ranking;

  /// The standalone choice — the first supported entry, what admission
  /// charges and what "auto" picks for a lone subscription — or nullptr
  /// when no engine statically accepts the query.
  const EnginePrediction* Choice() const;

  /// Multi-line table rendering for logs and tools.
  std::string ToString() const;
};

/// Prices `query` on every built-in engine under `profile`.
QueryPlan PlanQuery(const CompiledQuery& query, const DocumentProfile& profile);

/// Prices `query` on one engine; kNotFound for unknown engine names
/// (the "auto" meta-engine is not priceable — plan it instead).
Result<CostEstimate> EstimateEngineCost(const CompiledQuery& query,
                                        const DocumentProfile& profile,
                                        const std::string& engine);

}  // namespace xpstream

#endif  // XPSTREAM_PUBLIC_PLANNER_H_
