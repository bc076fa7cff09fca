#ifndef CQA_QUERY_QUERY_H_
#define CQA_QUERY_QUERY_H_

#include <optional>
#include <string>
#include <vector>

#include "cqa/base/result.h"
#include "cqa/base/symbol_set.h"
#include "cqa/query/atom.h"
#include "cqa/query/schema.h"

namespace cqa {

/// A literal: an atom or its negation.
struct Literal {
  Atom atom;
  bool negated = false;

  std::string ToString() const {
    return (negated ? "not " : "") + atom.ToString();
  }
};

/// A disequality constraint between two equal-length term vectors, with
/// semantics "lhs != rhs componentwise somewhere":  OR_i lhs[i] != rhs[i].
/// This is the `v̄ ≠ c̄` construct of Definition 6.3 (sjfBCQ¬≠), generalised
/// to allow variables on both sides (the right-hand side holds reified
/// variables during rewriting).
struct Diseq {
  std::vector<Term> lhs;
  std::vector<Term> rhs;

  std::string ToString() const;
};

/// A self-join-free Boolean conjunctive query with negated atoms and
/// optional disequality constraints (the class sjfBCQ¬≠ of Definition 6.3).
///
/// The `reified` set marks variables that are *treated as constants*: the
/// rewriting construction of Lemma 6.1 repeatedly reifies the primary-key
/// variables of unattacked atoms, and all var-set computations (safety,
/// guards, functional dependencies, attacks) exclude reified variables.
/// A freshly parsed/built query has an empty reified set.
class Query {
 public:
  /// Validates and constructs a query. Checks:
  ///  * self-join-freeness (pairwise distinct relation names),
  ///  * safety (every non-reified variable of a negated atom or disequality
  ///    occurs in a non-negated atom),
  ///  * well-formed disequalities (equal nonzero lengths).
  static Result<Query> Make(std::vector<Literal> literals,
                            std::vector<Diseq> diseqs = {},
                            SymbolSet reified = {});

  /// As `Make` but asserts validity (for statically known queries).
  static Query MakeOrDie(std::vector<Literal> literals,
                         std::vector<Diseq> diseqs = {},
                         SymbolSet reified = {});

  const std::vector<Literal>& literals() const { return literals_; }
  const std::vector<Diseq>& diseqs() const { return diseqs_; }
  const SymbolSet& reified() const { return reified_; }

  size_t NumLiterals() const { return literals_.size(); }
  const Literal& literal(size_t i) const { return literals_[i]; }
  const Atom& atom(size_t i) const { return literals_[i].atom; }
  bool IsNegated(size_t i) const { return literals_[i].negated; }

  /// Indices of non-negated / negated literals.
  std::vector<size_t> PositiveIndices() const;
  std::vector<size_t> NegativeIndices() const;

  /// Index of the literal over `relation`, if any.
  std::optional<size_t> FindRelation(Symbol relation) const;

  /// Non-reified variables of the whole query / of the positive part.
  SymbolSet Vars() const;
  SymbolSet PositiveVars() const;

  /// Number of atoms that are not all-key (the induction measure α(q) from
  /// the proof of Lemma 6.1).
  int Alpha() const;
  bool AllAtomsAllKey() const { return Alpha() == 0; }

  /// Negation is guarded: for every negated N there is a positive P with
  /// vars(N) ⊆ vars(P).
  bool IsGuarded() const;

  /// Negation is weakly guarded: any two variables sharing a negated atom
  /// (or a disequality, per Definition 6.3) also share a positive atom.
  bool IsWeaklyGuarded() const;

  /// True iff two non-reified variables co-occur in some positive atom.
  bool CoOccurPositively(Symbol x, Symbol y) const;

  /// q[v → c]: replaces variable `v` by constant `c` everywhere.
  Query Substituted(Symbol v, Value c) const;

  /// Copy with additional reified variables.
  Query WithReified(const SymbolSet& extra) const;

  /// Copy without literal `i`.
  Query WithoutLiteralAt(size_t i) const;

  /// Copy with an extra disequality constraint.
  Query WithDiseq(Diseq d) const;

  /// Registers all relations of this query into `schema`.
  Result<bool> RegisterInto(Schema* schema) const;

  /// Checks every atom against `schema`: fails `kParse`, naming the
  /// relation and both signatures, if an atom's relation is registered
  /// there with a different arity or key length. Relations absent from
  /// `schema` pass (they hold no facts). The engines index facts by the
  /// query's positions, so this runs before any of them touch a database.
  Result<bool> CheckAgainst(const Schema& schema) const;

  std::string ToString() const;

  /// A canonical serialisation usable as a memoisation key (independent of
  /// literal order).
  std::string CanonicalKey() const;

 private:
  Query(std::vector<Literal> literals, std::vector<Diseq> diseqs,
        SymbolSet reified)
      : literals_(std::move(literals)),
        diseqs_(std::move(diseqs)),
        reified_(std::move(reified)) {}

  std::vector<Literal> literals_;
  std::vector<Diseq> diseqs_;
  SymbolSet reified_;
};

/// Convenience constructors for literals.
Literal Pos(Atom atom);
Literal Neg(Atom atom);

}  // namespace cqa

#endif  // CQA_QUERY_QUERY_H_
