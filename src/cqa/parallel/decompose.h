#ifndef CQA_PARALLEL_DECOMPOSE_H_
#define CQA_PARALLEL_DECOMPOSE_H_

#include <memory>
#include <vector>

#include "cqa/db/database.h"
#include "cqa/query/query.h"

namespace cqa {

/// Two-level decomposition of CERTAINTY(q, db) into independent
/// subproblems, with conservative fallbacks whenever a split cannot be
/// proven sound (docs/THEORY.md, "Component decomposition", carries the
/// proof sketches referenced below).
///
/// Level 1 — query split (AND). The literals and disequalities of q
/// partition into variable-connected groups; self-join-freeness makes the
/// groups' relation sets disjoint, so repairs factor across them and
///   CERTAIN(q, db)  =  AND_i CERTAIN(q_i, db).
/// Sound for every sjfBCQ¬≠ with an empty reified set (reified variables
/// behave like per-query constants the groups could silently share, so a
/// non-empty set falls back to the single group {q}).
///
/// Level 2 — data split (OR). For one variable-connected group q_i, the
/// blocks of db partition into value-connected components (see
/// Database::BlockComponents) and
///   CERTAIN(q_i, db)  =  OR_C CERTAIN(q_i, db|C),
/// but only under three conditions, each with a concrete counterexample
/// otherwise:
///  (1) q_i has no disequalities and no reified variables;
///  (2) the *positive* literals of q_i are variable-connected through
///      positive atoms alone (connectivity through a negated atom is not
///      enough: q = R(x|u), S(y|v), ¬N(x,y) is certain on
///      {R(a|a'), S(b|b')} with N empty, yet neither single-relation
///      component is);
///  (3) every literal of q_i carries at least one variable (a ground
///      ¬N('c'|'d') can be falsified by a fact in a *different* component
///      than the one a satisfying valuation lives in).
/// When any condition fails, `DataDecomposable` returns false and the
/// group is solved whole (one component).
struct QuerySplit {
  /// The variable-connected groups, ordered by smallest literal index.
  /// Always non-empty; a single entry equal to q when no split applies.
  std::vector<Query> subqueries;
  /// True when the split actually produced more than one group.
  bool split = false;
};

QuerySplit SplitQueryConnected(const Query& q);

/// Whether the data-level OR rule is sound for `q` (conditions (1)-(3)
/// above; `q` should be one variable-connected group).
bool DataDecomposable(const Query& q);

/// One value-connected component of the database, restricted to the
/// relations of the sub-query it was built for.
struct DataComponent {
  /// A self-contained sub-database holding exactly the facts of the
  /// component's blocks over the sub-query's relations, built once (its
  /// block index is maintained as the facts go in); solver tasks share it
  /// read-only through this pointer.
  std::shared_ptr<const Database> db;
  size_t blocks = 0;
  size_t facts = 0;
};

/// Splits `db` into per-component sub-databases for `q` (which must be
/// `DataDecomposable`). Components lacking a block of *every* positive
/// relation of q cannot satisfy q in any repair, contribute `false` to the
/// OR, and are skipped — so the result can legitimately be empty, meaning
/// CERTAIN(q, db) is false. Components are ordered by smallest block id
/// (deterministic for a given database).
std::vector<DataComponent> DecomposeData(const Query& q, const Database& db);

}  // namespace cqa

#endif  // CQA_PARALLEL_DECOMPOSE_H_
