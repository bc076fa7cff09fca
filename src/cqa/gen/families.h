#ifndef CQA_GEN_FAMILIES_H_
#define CQA_GEN_FAMILIES_H_

#include "cqa/db/database.h"
#include "cqa/query/query.h"

namespace cqa {

/// Parametric query families used by tests and benchmarks to study how the
/// paper's machinery scales with query size.

/// Chain: C0(x0|x1), C1(x1|x2), ..., C{k-1}(x{k-1}|xk), optionally followed
/// by ¬CN(x{k-1}|xk). Acyclic attack graph for every k (in FO).
Query ChainQuery(int k, bool negated_tail = true);

/// Cycle: C0(x0|x1), ..., C{k-1}(x{k-1}|x0). The attack graph is cyclic for
/// k >= 2 (and contains a 2-cycle, per [19]'s structure theory), so
/// CERTAINTY is L-hard.
Query CycleQuery(int k);

/// Star: Core(x | y1,...,yb) plus negated leaves ¬N1(x|y1), ..., ¬Nb(x|yb).
/// Guarded negation, acyclic attack graph (in FO); the rewriting nests one
/// block quantification per leaf, mirroring q_Hall's exponential growth.
Query StarQuery(int branches);

/// The paper's canonical query q1 = { R(x|y), ¬S(y|x) }. Its attack graph
/// is cyclic (not in FO), but CERTAINTY(q1) is the complement of bipartite
/// perfect matching (Lemma 5.2), so it is in P: auto dispatch solves it by
/// matching.
Query PigeonholeQuery();

/// q1 with an extra (vacuous on `PigeonholeDatabase`) negated atom ¬T(x|y):
/// the same certainty question. T is keyed by R's key x, so it is a
/// self-covering atom and the query stays in the matching engine's class
/// (`DetectQ1Shape`): auto dispatch solves it by matching in polynomial
/// time. The attack graph stays cyclic (not in FO).
Query PigeonholeCyclicQuery();

/// q1 with an extra (vacuous on `PigeonholeDatabase`) negated atom ¬T(y|x):
/// the same certainty question, but T is keyed by y, so the matching
/// engine's detector rejects the query and the auto-dispatched solver falls
/// back to exponential backtracking. The attack graph stays cyclic (not in
/// FO). Used wherever a test or bench needs a solve that is slow by
/// default.
Query PigeonholeBacktrackingQuery();

/// Adversarial instance for q1: R has k blocks a_1..a_k, each holding the
/// k-1 facts R(a_i, b_j); S holds S(b_j, a_i) for all i, j (and T, used by
/// `PigeonholeCyclicQuery` and `PigeonholeBacktrackingQuery`, is registered
/// but empty). A falsifying repair would be a system of distinct
/// representatives of the k R-blocks among k-1 values — impossible by
/// pigeonhole, so certainty is TRUE — but a branch-and-prune search must
/// exhaust exponentially many partial matchings to prove it. Used to exercise deadline/budget enforcement.
Database PigeonholeDatabase(int k);

}  // namespace cqa

#endif  // CQA_GEN_FAMILIES_H_
