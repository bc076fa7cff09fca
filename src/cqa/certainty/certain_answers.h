#ifndef CQA_CERTAINTY_CERTAIN_ANSWERS_H_
#define CQA_CERTAINTY_CERTAIN_ANSWERS_H_

#include <vector>

#include "cqa/base/budget.h"
#include "cqa/base/result.h"
#include "cqa/db/database.h"
#include "cqa/fo/formula.h"
#include "cqa/query/query.h"

namespace cqa {

/// Certain answers for non-Boolean queries. The paper (Section 1) notes
/// that free variables can be treated as constants; concretely, a tuple c̄
/// is a *certain answer* for q with free variables x̄ iff q[x̄→c̄] is true in
/// every repair. Such a c̄ embeds q⁺[x̄→c̄] (the positive atoms) into every
/// repair, and every repair is a subset of db, so c̄ is in the projection
/// onto x̄ of the join of q⁺ on db. That projection is the candidate list:
/// no certain answer lies outside it, and it is usually far smaller than
/// the product of the free variables' columns.

struct CertainAnswers {
  /// The free variables, in the order of the answer tuples.
  std::vector<Symbol> free_vars;
  /// All certain answer tuples, sorted by value spelling (first free
  /// variable most significant).
  std::vector<Tuple> answers;
  /// Number of candidate tuples examined (`CertainAnswerCandidates`).
  size_t candidates = 0;
};

/// The candidate tuples for q(x̄) on db: the projection onto `free_vars` of
/// the join of q's positive atoms on db, deduplicated and sorted by value
/// spelling (first free variable most significant). This order is the
/// answer order of `ComputeCertainAnswers` and the position order of the
/// streaming enumerator (answers/enumerator.h). Fails `kParse` if q does
/// not fit db's schema (`Query::CheckAgainst`), `kUnsupported` if a free
/// variable has no positive occurrence, and with the budget's code if
/// `budget` trips while the join runs (it is probed once per join tuple).
Result<std::vector<Tuple>> CertainAnswerCandidates(
    const Query& q, const std::vector<Symbol>& free_vars, const Database& db,
    Budget* budget = nullptr);

/// Computes the certain answers of `q` with free variables `free_vars` on
/// `db`, deciding each candidate with the auto-dispatched solver. Fails as
/// `CertainAnswerCandidates` does, or if the underlying solver fails. An
/// optional `budget` is probed in the join, per candidate, and threaded
/// into every per-candidate solve (degradation is off here: a
/// certain-answer set must be exact, so exhaustion surfaces as a typed
/// error rather than an approximate answer set).
Result<CertainAnswers> ComputeCertainAnswers(
    const Query& q, const std::vector<Symbol>& free_vars, const Database& db,
    Budget* budget = nullptr);

/// Builds a consistent first-order rewriting for q(x̄) with the free
/// variables `free_vars` left free in the output formula (they are treated
/// as constants during construction, exactly as in the proof of Lemma 6.1).
/// Evaluating the formula under a binding of x̄ decides whether that binding
/// is a certain answer. Requires the FO conditions of Theorem 4.3 with x̄
/// treated as constants.
Result<FoPtr> RewriteCertainWithFree(const Query& q,
                                     const std::vector<Symbol>& free_vars);

/// Certain answers computed by evaluating `RewriteCertainWithFree`'s
/// formula on every candidate binding. An optional `budget` governs both
/// the candidate join and each formula evaluation.
Result<CertainAnswers> CertainAnswersByRewriting(
    const Query& q, const std::vector<Symbol>& free_vars, const Database& db,
    Budget* budget = nullptr);

}  // namespace cqa

#endif  // CQA_CERTAINTY_CERTAIN_ANSWERS_H_
