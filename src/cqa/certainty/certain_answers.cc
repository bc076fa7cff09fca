#include "cqa/certainty/certain_answers.h"

#include <algorithm>
#include <unordered_set>

#include "cqa/certainty/solver.h"
#include "cqa/db/eval.h"
#include "cqa/fo/eval.h"
#include "cqa/rewriting/rewriter.h"

namespace cqa {

Result<std::vector<Tuple>> CertainAnswerCandidates(
    const Query& q, const std::vector<Symbol>& free_vars, const Database& db,
    Budget* budget) {
  using Out = Result<std::vector<Tuple>>;
  Result<bool> fits = q.CheckAgainst(db.schema());
  if (!fits.ok()) return Out::Error(fits);
  std::vector<Literal> positive;
  for (const Literal& l : q.literals()) {
    if (!l.negated) positive.push_back(l);
  }
  Result<Query> q_plus = Query::Make(std::move(positive));
  if (!q_plus.ok()) return Out::Error(q_plus);
  const SymbolSet positive_vars = q_plus->PositiveVars();
  for (Symbol v : free_vars) {
    if (!positive_vars.contains(v)) {
      return Out::Error(ErrorCode::kUnsupported,
                        "free variable '" + SymbolName(v) +
                            "' does not occur in a non-negated atom");
    }
  }

  std::vector<Tuple> out;
  std::unordered_set<Tuple, TupleHash> seen;
  std::optional<ErrorCode> tripped;
  uint64_t joined_tuples = 0;
  Tuple tuple(free_vars.size());
  ForEachWitness(*q_plus, db, {}, [&](const Valuation& theta) {
    if (budget != nullptr && (tripped = budget->CheckEvery())) return false;
    ++joined_tuples;
    for (size_t i = 0; i < free_vars.size(); ++i) {
      tuple[i] = theta.at(free_vars[i]);
    }
    if (seen.insert(tuple).second) out.push_back(tuple);
    return true;
  });
  if (tripped.has_value()) {
    return Out::Error(*tripped, "candidate join aborted after " +
                                    std::to_string(joined_tuples) +
                                    " join tuples: " +
                                    Budget::Describe(*tripped));
  }
  std::sort(out.begin(), out.end(), [](const Tuple& a, const Tuple& b) {
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i] != b[i]) return a[i].name() < b[i].name();
    }
    return false;
  });
  return out;
}

Result<CertainAnswers> ComputeCertainAnswers(
    const Query& q, const std::vector<Symbol>& free_vars, const Database& db,
    Budget* budget) {
  Result<std::vector<Tuple>> candidates =
      CertainAnswerCandidates(q, free_vars, db, budget);
  if (!candidates.ok()) return Result<CertainAnswers>::Error(candidates);

  CertainAnswers out;
  out.free_vars = free_vars;
  SolveOptions solve_options;
  solve_options.budget = budget;
  // A certain-answer *set* must be exact: a probably-certain candidate
  // could not soundly be included or excluded.
  solve_options.degrade_to_sampling = false;
  for (const Tuple& tuple : *candidates) {
    if (budget != nullptr) {
      if (std::optional<ErrorCode> code = budget->CheckEvery(1)) {
        return Result<CertainAnswers>::Error(
            *code, "certain-answer enumeration aborted after " +
                       std::to_string(out.candidates) +
                       " candidates: " + Budget::Describe(*code));
      }
    }
    ++out.candidates;
    Query ground = q;
    for (size_t i = 0; i < free_vars.size(); ++i) {
      ground = ground.Substituted(free_vars[i], tuple[i]);
    }
    Result<SolveReport> report = SolveCertainty(ground, db, solve_options);
    if (!report.ok()) return Result<CertainAnswers>::Error(report);
    if (report->certain) out.answers.push_back(tuple);
  }
  return out;
}

Result<FoPtr> RewriteCertainWithFree(const Query& q,
                                     const std::vector<Symbol>& free_vars) {
  Result<Rewriting> rw =
      RewriteCertain(q.WithReified(SymbolSet(free_vars)), {});
  if (!rw.ok()) return Result<FoPtr>::Error(rw.error());
  return rw->formula;
}

Result<CertainAnswers> CertainAnswersByRewriting(
    const Query& q, const std::vector<Symbol>& free_vars, const Database& db,
    Budget* budget) {
  Result<std::vector<Tuple>> candidates =
      CertainAnswerCandidates(q, free_vars, db, budget);
  if (!candidates.ok()) return Result<CertainAnswers>::Error(candidates);
  Result<FoPtr> formula = RewriteCertainWithFree(q, free_vars);
  if (!formula.ok()) return Result<CertainAnswers>::Error(formula);

  CertainAnswers out;
  out.free_vars = free_vars;
  FoEvaluator eval(db);
  for (const Tuple& tuple : *candidates) {
    ++out.candidates;
    Valuation env;
    for (size_t i = 0; i < free_vars.size(); ++i) {
      env.emplace(free_vars[i], tuple[i]);
    }
    Result<bool> holds = eval.EvalGoverned(formula.value(), env, budget);
    if (!holds.ok()) return Result<CertainAnswers>::Error(holds);
    if (holds.value()) out.answers.push_back(tuple);
  }
  return out;
}

}  // namespace cqa
