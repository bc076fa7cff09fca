#ifndef CQA_ANSWERS_ENUMERATOR_H_
#define CQA_ANSWERS_ENUMERATOR_H_

#include <cstdint>
#include <vector>

#include "cqa/answers/answer_chunk.h"
#include "cqa/base/budget.h"
#include "cqa/base/result.h"
#include "cqa/certainty/solver.h"
#include "cqa/db/database.h"
#include "cqa/query/query.h"

namespace cqa {

/// Knobs for one incremental enumeration step.
struct EnumerateOptions {
  /// First candidate position to scan (a resume point from a previous
  /// chunk's `next`, or 0 for a fresh stream).
  uint64_t start = 0;
  /// Stop after this many certain answers have been collected (the
  /// chunk may scan arbitrarily many non-answer candidates in between,
  /// bounded only by the budget). Clamped to at least 1.
  uint64_t max_chunk = 64;
  /// Per-candidate decision engine. `kAuto` dispatches the solver;
  /// `kRewriting` evaluates the consistent first-order rewriting of
  /// Lemma 6.1 with the free variables left free (requires the FO
  /// class). Sampling is rejected: an answer *set* must be exact.
  SolverMethod method = SolverMethod::kAuto;
};

/// Computes one chunk of the certain answers of `q` with `free_vars` on
/// `db`, scanning candidate positions from `options.start` in the
/// deterministic canonical order: position i is the i-th tuple of
/// `CertainAnswerCandidates` (the projected join of q's positive atoms,
/// sorted by value spelling). The chunk ends at `max_chunk` answers, at
/// the end of the candidate list, or — partially — when `budget` trips
/// after at least one candidate was decided (`AnswerChunk::exhausted`); a
/// budget that trips earlier, in the candidate join included, fails typed
/// instead.
/// Fails `kUnsupported` when a free variable has no positive occurrence or
/// the method cannot produce exact verdicts, and `kParse` when q does not
/// fit db's schema or `start` lies beyond the candidate list (a cursor for
/// some other epoch or query).
///
/// Determinism contract: for fixed (q, free_vars, db), concatenating the
/// `answers` of chunks over adjacent `[start, next)` spans yields exactly
/// `ComputeCertainAnswers`'s sorted answer list, for any chunking.
Result<AnswerChunk> EnumerateAnswerChunk(const Query& q,
                                         const std::vector<Symbol>& free_vars,
                                         const Database& db,
                                         const EnumerateOptions& options,
                                         Budget* budget = nullptr);

}  // namespace cqa

#endif  // CQA_ANSWERS_ENUMERATOR_H_
