#include "analysis/truth_set.h"

#include <algorithm>

#include "common/string_util.h"
#include "xpath/functions.h"

namespace xpstream {

TruthSet TruthSet::Universal() { return TruthSet(); }

TruthSet TruthSet::FromAtomicPredicate(const ExprNode* root,
                                       const ExprNode* variable) {
  // A bare existence predicate is structural; see header note.
  if (root == variable) return Universal();
  TruthSet out;
  out.root_ = root;
  out.variable_ = variable;
  // A string-valued variable compared with a string literal by = or !=
  // is a string comparison (XPath 1.0), decidable on the raw view.
  if (root->kind() == ExprKind::kCompare &&
      (root->comp_op == CompOp::kEq || root->comp_op == CompOp::kNe) &&
      root->args().size() == 2) {
    const ExprNode* lhs = root->args()[0].get();
    const ExprNode* rhs = root->args()[1].get();
    const ExprNode* literal = lhs == variable   ? rhs
                              : rhs == variable ? lhs
                                                : nullptr;
    if (literal != nullptr && literal->kind() == ExprKind::kConstString) {
      out.literal_ = &literal->string_value;
      out.literal_negated_ = root->comp_op == CompOp::kNe;
    }
  }
  return out;
}

Value EvalExprWithBinding(const ExprNode* expr, const ExprNode* variable,
                          const Value& binding) {
  switch (expr->kind()) {
    case ExprKind::kConstNumber:
      return Value::Number(expr->number_value);
    case ExprKind::kConstString:
      return Value::String(expr->string_value);
    case ExprKind::kPathRef:
      if (expr == variable) return binding;
      return Value::EmptySequence();
    case ExprKind::kAnd: {
      for (const auto& arg : expr->args()) {
        if (!EvalExprWithBinding(arg.get(), variable, binding)
                 .EffectiveBooleanValue()) {
          return Value::Boolean(false);
        }
      }
      return Value::Boolean(true);
    }
    case ExprKind::kOr: {
      for (const auto& arg : expr->args()) {
        if (EvalExprWithBinding(arg.get(), variable, binding)
                .EffectiveBooleanValue()) {
          return Value::Boolean(true);
        }
      }
      return Value::Boolean(false);
    }
    case ExprKind::kNot:
      return Value::Boolean(
          !EvalExprWithBinding(expr->args()[0].get(), variable, binding)
               .EffectiveBooleanValue());
    case ExprKind::kCompare: {
      Value lhs = EvalExprWithBinding(expr->args()[0].get(), variable, binding);
      Value rhs = EvalExprWithBinding(expr->args()[1].get(), variable, binding);
      if (lhs.kind() == ValueKind::kSequence ||
          rhs.kind() == ValueKind::kSequence) {
        // Existential rule over (at most singleton) sequences.
        for (const Value& l : lhs.Atomized()) {
          for (const Value& r : rhs.Atomized()) {
            if (CompareAtomic(l, expr->comp_op, r)) return Value::Boolean(true);
          }
        }
        return Value::Boolean(false);
      }
      return Value::Boolean(CompareAtomic(lhs, expr->comp_op, rhs));
    }
    case ExprKind::kArith: {
      Value lhs = EvalExprWithBinding(expr->args()[0].get(), variable, binding);
      Value rhs = EvalExprWithBinding(expr->args()[1].get(), variable, binding);
      return Value::Number(ApplyArith(lhs, expr->arith_op, rhs));
    }
    case ExprKind::kNeg:
      return Value::Number(
          -EvalExprWithBinding(expr->args()[0].get(), variable, binding)
               .ToNumber());
    case ExprKind::kFunc: {
      std::vector<Value> args;
      for (size_t i = 0; i < expr->args().size(); ++i) {
        Value raw =
            EvalExprWithBinding(expr->args()[i].get(), variable, binding);
        args.push_back(expr->func->ConvertArg(i, raw));
      }
      return expr->func->eval(args);
    }
  }
  return Value::EmptySequence();
}

bool TruthSet::Contains(std::string_view value) const {
  if (is_universal()) return true;
  if (literal_ != nullptr) return (value == *literal_) != literal_negated_;
  return EvalExprWithBinding(root_, variable_,
                             Value::String(std::string(value)))
      .EffectiveBooleanValue();
}

namespace {

bool CouldBeNumericPrefix(const std::string& alpha) {
  // Members of numeric truth sets are numeric-lexical strings (possibly
  // whitespace-padded). alpha can only be a prefix of one if every
  // character is whitespace, sign, digit or dot.
  for (char c : alpha) {
    if (!(IsXmlWhitespace(c) || c == '+' || c == '-' || c == '.' ||
          (c >= '0' && c <= '9'))) {
      return false;
    }
  }
  return true;
}

bool PrefixComparable(const std::string& a, const std::string& b) {
  return StartsWith(a, b) || StartsWith(b, a);
}

/// True when `expr` mentions the variable somewhere beneath it.
bool MentionsVariable(const ExprNode* expr, const ExprNode* variable) {
  if (expr == variable) return true;
  for (const auto& arg : expr->args()) {
    if (MentionsVariable(arg.get(), variable)) return true;
  }
  return false;
}

}  // namespace

TruthSet::Tri TruthSet::PrefixOfMember(const std::string& alpha) const {
  if (is_universal()) return Tri::kYes;  // PREFIX(S) = S
  const ExprNode* r = root_;
  // Comparison against the variable.
  if (r->kind() == ExprKind::kCompare) {
    const ExprNode* a = r->args()[0].get();
    const ExprNode* b = r->args()[1].get();
    const ExprNode* var_side = MentionsVariable(a, variable_) ? a : b;
    const ExprNode* const_side = var_side == a ? b : a;
    if (var_side == variable_) {
      // Direct comparison var OP const-expr.
      bool ordering = r->comp_op != CompOp::kEq && r->comp_op != CompOp::kNe;
      if (const_side->kind() == ExprKind::kConstString && !ordering) {
        // String (in)equality.
        if (r->comp_op == CompOp::kEq) {
          return PrefixComparable(const_side->string_value, alpha) &&
                         StartsWith(const_side->string_value, alpha)
                     ? Tri::kYes
                     : Tri::kNo;
        }
        return Tri::kYes;  // != "c": almost everything is a member
      }
      // Numeric semantics.
      return CouldBeNumericPrefix(alpha) ? Tri::kYes : Tri::kNo;
    }
    // Variable nested in an arithmetic expression: members must still
    // cast to number to make the comparison true.
    if (MentionsVariable(var_side, variable_)) {
      return CouldBeNumericPrefix(alpha) ? Tri::kYes : Tri::kUnknown;
    }
    return Tri::kUnknown;
  }
  // Boolean function applied directly to the variable.
  if (r->kind() == ExprKind::kFunc && r->func != nullptr &&
      r->func->returns_boolean && !r->args().empty() &&
      r->args()[0].get() == variable_) {
    const std::string& fname = r->func->name;
    auto second_const = [&]() -> const std::string* {
      if (r->args().size() >= 2 &&
          r->args()[1]->kind() == ExprKind::kConstString) {
        return &r->args()[1]->string_value;
      }
      return nullptr;
    };
    if (fname == "starts-with") {
      const std::string* c = second_const();
      if (c != nullptr) {
        return PrefixComparable(alpha, *c) ? Tri::kYes : Tri::kNo;
      }
      return Tri::kUnknown;
    }
    if (fname == "ends-with" || fname == "contains") {
      // Any alpha extends to a member: PREFIX(TRUTH) = S.
      return Tri::kYes;
    }
    if (fname == "matches") {
      const std::string* c = second_const();
      if (c != nullptr && !c->empty() && (*c)[0] == '^') {
        // Extract the leading literal run of the anchored pattern.
        std::string lead;
        for (size_t i = 1; i < c->size(); ++i) {
          char ch = (*c)[i];
          if (ch == '.' || ch == '*' || ch == '+' || ch == '$') break;
          lead += ch;
        }
        return PrefixComparable(alpha, lead) ? Tri::kYes : Tri::kNo;
      }
      return Tri::kYes;
    }
    return Tri::kUnknown;
  }
  return Tri::kUnknown;
}

std::vector<std::string> TruthSet::SampleCandidates() const {
  std::vector<std::string> out = {"",   "0",     "1",  "-1",
                                  "42", "hello", "x",  "2.5",
                                  "9999999", "-9999999"};
  if (root_ == nullptr) return out;
  // Derive candidates from the constants mentioned in the predicate.
  auto rec = [&](auto&& self, const ExprNode* e) -> void {
    if (e->kind() == ExprKind::kConstNumber) {
      double k = e->number_value;
      for (double delta : {-1.0, -0.5, 0.0, 0.5, 1.0}) {
        out.push_back(FormatXPathNumber(k + delta));
      }
      out.push_back(FormatXPathNumber(k * 2));
      out.push_back(FormatXPathNumber(-k));
    } else if (e->kind() == ExprKind::kConstString) {
      const std::string& c = e->string_value;
      out.push_back(c);
      out.push_back(c + "a");
      out.push_back("a" + c);
      out.push_back(c + c);
      if (!c.empty()) out.push_back(c.substr(0, c.size() - 1));
    }
    for (const auto& arg : e->args()) self(self, arg.get());
  };
  rec(rec, root_);
  return out;
}

std::vector<const ExprNode*> AtomicPredicatesOf(const ExprNode* predicate) {
  std::vector<const ExprNode*> out;
  if (predicate == nullptr) return out;
  if (predicate->kind() == ExprKind::kAnd) {
    for (const auto& arg : predicate->args()) {
      auto inner = AtomicPredicatesOf(arg.get());
      out.insert(out.end(), inner.begin(), inner.end());
    }
    return out;
  }
  out.push_back(predicate);
  return out;
}

std::vector<const ExprNode*> PathRefsUnder(const ExprNode* expr) {
  std::vector<const ExprNode*> out;
  if (expr == nullptr) return out;
  auto rec = [&](auto&& self, const ExprNode* e) -> void {
    if (e->kind() == ExprKind::kPathRef) out.push_back(e);
    for (const auto& arg : e->args()) self(self, arg.get());
  };
  rec(rec, expr);
  return out;
}

Result<TruthSetMap> TruthSetMap::Build(const Query& query) {
  TruthSetMap map;
  map.by_id_.assign(query.size(), TruthSet::Universal());
  std::vector<bool> assigned(query.size(), false);
  // For each node with a predicate, associate each predicate child with
  // the atomic predicate containing its (unique) reference.
  for (const QueryNode* node : query.AllNodes()) {
    const ExprNode* pred = node->predicate();
    if (pred == nullptr) continue;
    for (const ExprNode* atom : AtomicPredicatesOf(pred)) {
      // Atomic predicates must not contain boolean-argument operators.
      if (atom->kind() == ExprKind::kOr || atom->kind() == ExprKind::kNot ||
          atom->kind() == ExprKind::kAnd) {
        return Status::Unsupported(
            "query is not conjunctive: predicate contains or/not");
      }
      std::vector<const ExprNode*> refs = PathRefsUnder(atom);
      if (refs.size() > 1) {
        return Status::Unsupported("query is not univariate: predicate '" +
                                   atom->ToString() +
                                   "' references several paths");
      }
      if (refs.empty()) continue;
      const ExprNode* var = refs[0];
      const QueryNode* child = var->path_child;
      // TRUTH applies to the succession leaf of the referenced child.
      const QueryNode* leaf = child->SuccessionLeaf();
      // The first predicate naming a leaf defines its truth set.
      if (assigned[leaf->id()]) continue;
      assigned[leaf->id()] = true;
      map.by_id_[leaf->id()] = TruthSet::FromAtomicPredicate(atom, var);
    }
  }
  return map;
}

const TruthSet& TruthSetMap::Get(const QueryNode* node) const {
  return node->id() < by_id_.size() ? by_id_[node->id()] : universal_;
}

bool TruthSetMap::IsValueRestricted(const QueryNode* node) const {
  const TruthSet& ts = Get(node);
  if (ts.is_universal()) return false;
  for (const std::string& probe : ts.SampleCandidates()) {
    if (!ts.Contains(probe)) return true;
  }
  // Probe a few unlikely sentinels as well.
  for (const char* probe : {"~none~", "zzz_sentinel", "\x01"}) {
    if (!ts.Contains(probe)) return true;
  }
  return false;
}

}  // namespace xpstream
