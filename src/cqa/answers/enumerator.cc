#include "cqa/answers/enumerator.h"

#include <algorithm>

#include "cqa/certainty/certain_answers.h"
#include "cqa/fo/eval.h"

namespace cqa {

Result<AnswerChunk> EnumerateAnswerChunk(const Query& q,
                                         const std::vector<Symbol>& free_vars,
                                         const Database& db,
                                         const EnumerateOptions& options,
                                         Budget* budget) {
  using Out = Result<AnswerChunk>;
  const Engine* engine = FindEngine(options.method);
  if (engine != nullptr && engine->answer == EngineAnswer::kSampled) {
    return Out::Error(ErrorCode::kUnsupported,
                      "answer enumeration needs exact verdicts; " +
                          ToString(options.method) +
                          " cannot soundly include or exclude a candidate");
  }
  // Position i is the i-th candidate in spelling order, so positions
  // enumerate tuples in exactly the order `ComputeCertainAnswers` returns
  // them, and are stable across processes and restarts of the same
  // database epoch.
  Result<std::vector<Tuple>> candidates =
      CertainAnswerCandidates(q, free_vars, db, budget);
  if (!candidates.ok()) return Out::Error(candidates);
  const uint64_t total = candidates->size();

  AnswerChunk chunk;
  for (Symbol v : free_vars) chunk.free_vars.push_back(SymbolName(v));
  chunk.total = total;
  chunk.start = options.start;
  chunk.next = options.start;
  if (options.start > total) {
    return Out::Error(ErrorCode::kParse,
                      "cursor position " + std::to_string(options.start) +
                          " beyond the candidate space (" +
                          std::to_string(total) + ")");
  }
  if (options.start == total) {
    chunk.done = true;
    return chunk;
  }

  // The rewriting path builds the Lemma 6.1 formula once per chunk and
  // evaluates it per candidate; every other method grounds the query and
  // dispatches the solver. Both are exact (degradation is off).
  Result<FoPtr> formula = Result<FoPtr>::Error(ErrorCode::kInternal, "");
  std::optional<FoEvaluator> eval;
  SolveOptions solve_options;
  if (options.method == SolverMethod::kRewriting) {
    formula = RewriteCertainWithFree(q, free_vars);
    if (!formula.ok()) return Out::Error(formula);
    eval.emplace(db);
  } else {
    solve_options.method = options.method;
    solve_options.budget = budget;
    solve_options.degrade_to_sampling = false;
  }

  const uint64_t max_answers = std::max<uint64_t>(1, options.max_chunk);
  while (chunk.next < total) {
    if (budget != nullptr) {
      if (std::optional<ErrorCode> code = budget->CheckEvery(1)) {
        if (chunk.scanned == 0) {
          return Out::Error(*code,
                            "answer chunk aborted before the first "
                            "candidate: " +
                                Budget::Describe(*code));
        }
        chunk.exhausted = true;
        break;
      }
    }
    const Tuple& tuple = (*candidates)[chunk.next];
    bool certain = false;
    if (eval.has_value()) {
      Valuation env;
      for (size_t i = 0; i < free_vars.size(); ++i) {
        env.emplace(free_vars[i], tuple[i]);
      }
      Result<bool> holds = eval->EvalGoverned(formula.value(), env, budget);
      if (!holds.ok()) {
        if (IsResourceExhaustion(holds.code()) && chunk.scanned > 0) {
          chunk.exhausted = true;
          break;
        }
        return Out::Error(holds);
      }
      certain = holds.value();
    } else {
      Query ground = q;
      for (size_t i = 0; i < free_vars.size(); ++i) {
        ground = ground.Substituted(free_vars[i], tuple[i]);
      }
      Result<SolveReport> report = SolveCertainty(ground, db, solve_options);
      if (!report.ok()) {
        if (IsResourceExhaustion(report.code()) && chunk.scanned > 0) {
          chunk.exhausted = true;
          break;
        }
        return Out::Error(report);
      }
      if (report->verdict != Verdict::kCertain &&
          report->verdict != Verdict::kNotCertain) {
        return Out::Error(ErrorCode::kUnsupported,
                          "candidate verdict was not exact (" +
                              ToString(report->verdict) + ")");
      }
      certain = report->certain;
    }
    ++chunk.scanned;
    ++chunk.next;
    if (certain) chunk.answers.push_back(tuple);
    if (chunk.answers.size() >= max_answers) break;
  }
  chunk.done = chunk.next == total;
  return chunk;
}

}  // namespace cqa
