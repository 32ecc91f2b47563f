#ifndef XPSTREAM_WORKLOAD_QUERY_GENERATOR_H_
#define XPSTREAM_WORKLOAD_QUERY_GENERATOR_H_

/// \file
/// Random query generators. Queries are generated as *text* and parsed,
/// so the parser is the single source of AST construction. Two modes:
///
///  * GenerateRandomQuery — twig queries in the univariate conjunctive
///    fragment. With distinct_names set, every node test is unique, which
///    kills all non-trivial automorphisms and hence makes the query
///    strongly subsumption-free by construction.
///  * GenerateLinearQuery — single-path queries (the fragment the
///    automaton baselines support).
///
/// Plus fixed families used by the benchmarks:
///  * FrontierFamilyQuery(k) — FS = k+1 via k sibling predicates;
///  * RecursionFamilyQuery — the //a[b and c] shape of Thm 4.5;
///  * DepthFamilyQuery — the /a/b shape of Thm 4.6.

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "xml/event.h"
#include "xpath/ast.h"

namespace xpstream {

struct QueryGenOptions {
  size_t max_depth = 4;          ///< steps along any root-to-leaf path
  size_t max_predicate_children = 2;
  double descendant_prob = 0.3;
  double wildcard_prob = 0.1;
  double value_predicate_prob = 0.4;  ///< leaf gets a comparison/function
  size_t name_pool = 4;
  bool distinct_names = false;   ///< unique name per node
  std::vector<std::string> names = {"a", "b", "c", "d", "e",
                                    "f", "g", "h"};
};

/// Generates a univariate conjunctive query; returns the parsed form.
Result<std::unique_ptr<Query>> GenerateRandomQuery(Random* rng,
                                                   const QueryGenOptions& opts);

/// Generates a linear path query of exactly `steps` steps.
Result<std::unique_ptr<Query>> GenerateLinearQuery(Random* rng, size_t steps,
                                                   double descendant_prob,
                                                   double wildcard_prob,
                                                   size_t name_pool);

/// `count` linear path queries written against `documents`, the way
/// dissemination subscriptions are written against the stream they
/// filter: each follows one root-to-element path of a random document,
/// leaves an inner step out behind a `//` with probability `skip`, and
/// widens a name to `*` with probability `wildcard`. Texts repeat when
/// the draws do. `documents` must hold at least one element.
std::vector<std::string> GeneratePathQueries(
    Random* rng, const std::vector<EventStream>& documents, size_t count,
    double skip, double wildcard);

/// "/r[p0 > 0 and p1 > 1 and ... and p(k-1) > k-1]/s" — frontier size
/// k+1, all names distinct (redundancy-free).
std::string FrontierFamilyQueryText(size_t k);

/// "//a[b and c]" with fresh names when requested.
std::string RecursionFamilyQueryText();

/// "/a/b".
std::string DepthFamilyQueryText();

}  // namespace xpstream

#endif  // XPSTREAM_WORKLOAD_QUERY_GENERATOR_H_
