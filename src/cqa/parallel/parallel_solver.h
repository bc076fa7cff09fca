#ifndef CQA_PARALLEL_PARALLEL_SOLVER_H_
#define CQA_PARALLEL_PARALLEL_SOLVER_H_

#include <chrono>
#include <cstdint>

#include "cqa/base/budget.h"
#include "cqa/base/result.h"
#include "cqa/certainty/solver.h"
#include "cqa/db/database.h"
#include "cqa/query/query.h"

namespace cqa {

/// Knobs for `SolveCertainParallel`.
struct ParallelOptions {
  /// Work-stealing pool width (clamped to at least 1). With width 1 the
  /// decomposition still runs — callers wanting the plain sequential
  /// engine (the byte-for-byte parity baseline) route through
  /// `SolveOptions::parallelism == 1`, which never enters this solver.
  int parallelism = 2;
  /// Engine run per component: a row of `CQA_ENGINES` whose split is
  /// `kComponents` (backtracking, the default, or naive). Everything else
  /// is rejected with `kUnsupported`: on a polynomial engine, forking per
  /// component costs more than it saves.
  SolverMethod method = SolverMethod::kBacktracking;
  /// Parent governor. Deadline, remaining step allowance, and the fault
  /// knobs are snapshotted *by value* into every component task's child
  /// budget before the fan-out (no cross-thread access to the parent);
  /// the waiting thread polls the parent's cancel token and clock every
  /// `poll_every` and flips the component stop tokens on a trip. Summed
  /// child work is folded back via `Budget::ChargeSteps` after the join.
  Budget* budget = nullptr;
  std::chrono::milliseconds poll_every{2};
};

/// Accounting for one parallel solve.
struct ParallelReport {
  /// Exact verdict: q certain in every repair of db.
  bool certain = false;
  /// Variable-connected sub-queries solved (AND-combined).
  int subqueries = 1;
  /// Component tasks spawned across all sub-queries (OR-combined within
  /// each data-decomposable sub-query).
  int components = 0;
  /// Pool tasks executed by a worker that stole them from a sibling.
  uint64_t steals = 0;
  /// Summed solver-native work units across every component task.
  uint64_t steps = 0;
  /// True when decomposition produced more than one task.
  bool decomposed = false;
};

/// Decides CERTAINTY(q, db) by decomposing into independent subproblems
/// (see cqa/parallel/decompose.h for the two levels and their fallbacks)
/// and solving them on a bounded work-stealing pool:
///
///  * within a sub-query, the first component proved certain resolves the
///    sub-query (OR) and cancels its sibling tasks;
///  * a sub-query whose components are all refuted makes the overall
///    answer NOT-CERTAIN (AND) and cancels everything;
///  * all sub-queries certain ⇒ CERTAIN.
///
/// Errors surface only when no sound verdict was reached: a definitive
/// refutation observed before a sibling's budget trip still wins. The
/// verdict always equals the sequential engine's on the same input — the
/// differential suite (tests/parallel_test.cc), the fuzz phase, and the CI
/// trace-replay parity smoke all pin this down.
Result<ParallelReport> SolveCertainParallel(const Query& q,
                                            const Database& db,
                                            const ParallelOptions& options);

}  // namespace cqa

#endif  // CQA_PARALLEL_PARALLEL_SOLVER_H_
