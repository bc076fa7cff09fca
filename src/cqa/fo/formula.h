#ifndef CQA_FO_FORMULA_H_
#define CQA_FO_FORMULA_H_

#include <memory>
#include <string>
#include <vector>

#include "cqa/base/result.h"
#include "cqa/base/symbol_set.h"
#include "cqa/query/schema.h"
#include "cqa/query/term.h"

namespace cqa {

class Fo;
/// Formulas are immutable and shared; rewritings are DAGs.
using FoPtr = std::shared_ptr<const Fo>;

enum class FoKind {
  kTrue,
  kFalse,
  kAtom,     // R(t1,...,tn)
  kEquals,   // t1 = t2
  kAnd,      // conjunction over children
  kOr,       // disjunction over children
  kNot,      // children[0]
  kImplies,  // children[0] -> children[1]
  kExists,   // ∃ qvars . children[0]
  kForall,   // ∀ qvars . children[0]
};

/// A first-order formula over the relational vocabulary with equality and
/// constants (the class FO of the paper: no other built-ins). Constructed
/// via the factory functions below, which perform light normalisation
/// (flattening ∧/∨, constant folding of ⊤/⊥, collapsing empty quantifiers).
class Fo {
 public:
  FoKind kind() const { return kind_; }

  // kAtom accessors.
  Symbol relation() const { return relation_; }
  const std::string& relation_name() const { return SymbolName(relation_); }
  int key_len() const { return key_len_; }
  const std::vector<Term>& terms() const { return terms_; }

  // kEquals accessors.
  const Term& lhs() const { return terms_[0]; }
  const Term& rhs() const { return terms_[1]; }

  const std::vector<FoPtr>& children() const { return children_; }
  const FoPtr& child(size_t i = 0) const { return children_[i]; }

  // Quantifier accessors.
  const std::vector<Symbol>& qvars() const { return qvars_; }

  /// Number of AST nodes (shared subformulas counted once per occurrence).
  size_t Size() const;

  /// Maximum quantifier nesting depth.
  int QuantifierDepth() const;

  /// Free variables.
  SymbolSet FreeVars() const;

  /// All constants occurring in the formula.
  std::vector<Value> Constants() const;

  /// Structural equality.
  static bool Equal(const FoPtr& a, const FoPtr& b);

  std::string ToString() const;

 private:
  friend FoPtr FoTrue();
  friend FoPtr FoFalse();
  friend FoPtr FoAtom(Symbol relation, int key_len, std::vector<Term> terms);
  friend FoPtr FoEquals(Term a, Term b);
  friend FoPtr FoAnd(std::vector<FoPtr> children);
  friend FoPtr FoOr(std::vector<FoPtr> children);
  friend FoPtr FoNot(FoPtr f);
  friend FoPtr FoImplies(FoPtr a, FoPtr b);
  friend FoPtr FoExists(std::vector<Symbol> vars, FoPtr body);
  friend FoPtr FoForall(std::vector<Symbol> vars, FoPtr body);

  Fo() = default;

  FoKind kind_ = FoKind::kTrue;
  Symbol relation_ = kNoSymbol;
  int key_len_ = 0;
  std::vector<Term> terms_;
  std::vector<FoPtr> children_;
  std::vector<Symbol> qvars_;
};

/// Whether every atom of `f` fits `schema` (see `Schema::CheckFits`); a
/// mismatch fails `kParse`. Evaluating a formula whose atoms disagree with
/// the database's signatures is undefined, so call this before running a
/// user-supplied formula on a user database.
Result<bool> CheckFoAgainst(const FoPtr& f, const Schema& schema);

FoPtr FoTrue();
FoPtr FoFalse();
/// An atom; `key_len` is carried for pretty-printing and SQL generation.
FoPtr FoAtom(Symbol relation, int key_len, std::vector<Term> terms);
FoPtr FoEquals(Term a, Term b);
/// n-ary conjunction; flattens nested ∧, drops ⊤, folds ⊥. Empty → ⊤.
FoPtr FoAnd(std::vector<FoPtr> children);
/// n-ary disjunction; flattens nested ∨, drops ⊥, folds ⊤. Empty → ⊥.
FoPtr FoOr(std::vector<FoPtr> children);
FoPtr FoNot(FoPtr f);
FoPtr FoImplies(FoPtr a, FoPtr b);
/// ∃vars.body; empty vars collapse to body.
FoPtr FoExists(std::vector<Symbol> vars, FoPtr body);
FoPtr FoForall(std::vector<Symbol> vars, FoPtr body);

/// t1 ≠ t2, i.e. ¬(t1 = t2).
FoPtr FoNotEquals(Term a, Term b);

}  // namespace cqa

#endif  // CQA_FO_FORMULA_H_
