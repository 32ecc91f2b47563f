#ifndef XPSTREAM_ANALYSIS_TRUTH_SET_H_
#define XPSTREAM_ANALYSIS_TRUTH_SET_H_

/// \file
/// Truth sets (paper Definition 5.6). For a univariate atomic predicate P,
/// TRUTH(P) is the set of strings that satisfy P after substitution for
/// its variable; each query node u is assigned TRUTH(u) — TRUTH(P) when u
/// is the succession leaf of a predicate variable, the universal set S
/// otherwise.
///
/// Membership is decided exactly (substitute and evaluate). The prefix
/// question "is α a prefix of some member?" — needed by the prefix
/// sunflower property (Def. 5.17) and canonical document construction — is
/// answered by a sound symbolic case analysis with a conservative
/// kUnknown fallback.
///
/// Special case: a bare existence predicate "[b]" is treated as purely
/// structural (TRUTH = S). The literal Def. 5.6 would exclude the empty
/// string (EBV("") = false), which contradicts Lemma 5.10 on documents
/// with empty elements; the paper implicitly assumes non-empty content.

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "xpath/ast.h"
#include "xpath/value.h"

namespace xpstream {

class TruthSet {
 public:
  enum class Tri { kNo, kYes, kUnknown };

  /// The universal set S.
  static TruthSet Universal();

  /// TRUTH(P) for the atomic predicate rooted at `root` whose single
  /// variable is the kPathRef leaf `variable`.
  static TruthSet FromAtomicPredicate(const ExprNode* root,
                                      const ExprNode* variable);

  /// True when constructed as Universal (a syntactic property; a
  /// tautological predicate still reports false here).
  bool is_universal() const { return root_ == nullptr; }

  /// Exact membership: substitute `value` for the variable and evaluate.
  /// The common `var = 'literal'` / `var != 'literal'` shape compares
  /// the view directly, without building a value.
  bool Contains(std::string_view value) const;

  /// Sound approximation of "alpha ∈ PREFIX(TRUTH)": kNo is definite.
  Tri PrefixOfMember(const std::string& alpha) const;

  /// Candidate strings worth probing with Contains() when searching for
  /// members / non-members (derived from the predicate's constants).
  std::vector<std::string> SampleCandidates() const;

  const ExprNode* predicate_root() const { return root_; }

 private:
  const ExprNode* root_ = nullptr;      // nullptr = universal
  const ExprNode* variable_ = nullptr;
  /// Set when the predicate is `variable = literal` or `!=` (either
  /// order): the literal string, compared without evaluation.
  const std::string* literal_ = nullptr;
  bool literal_negated_ = false;
};

/// Evaluates an expression tree in which the kPathRef leaf `variable`
/// (possibly nullptr) is bound to `binding`. All values are atomic. Other
/// kPathRef leaves evaluate to the empty sequence.
Value EvalExprWithBinding(const ExprNode* expr, const ExprNode* variable,
                          const Value& binding);

/// Per-node truth set assignment (Def. 5.6) for a univariate conjunctive
/// query.
class TruthSetMap {
 public:
  /// Fails with kUnsupported if the query is not univariate-conjunctive.
  static Result<TruthSetMap> Build(const Query& query);

  /// TRUTH(node) for a node of the query the map was built from (the
  /// universal set for nodes without a predicate variable): an index
  /// by node id, no lookup structure on the event path.
  const TruthSet& Get(const QueryNode* node) const;

  /// Heuristic probe for Def. 5.7 value-restriction: returns true when a
  /// probe string is provably outside TRUTH(node).
  bool IsValueRestricted(const QueryNode* node) const;

 private:
  std::vector<TruthSet> by_id_;  ///< indexed by QueryNode::id()
  TruthSet universal_ = TruthSet::Universal();
};

/// Decomposes a conjunctive predicate into its atomic predicates
/// (Def. 5.3/5.4): the predicate itself, or the args of a top-level
/// conjunction (nested conjunctions are flattened).
std::vector<const ExprNode*> AtomicPredicatesOf(const ExprNode* predicate);

/// All kPathRef leaves under `expr`.
std::vector<const ExprNode*> PathRefsUnder(const ExprNode* expr);

}  // namespace xpstream

#endif  // XPSTREAM_ANALYSIS_TRUTH_SET_H_
