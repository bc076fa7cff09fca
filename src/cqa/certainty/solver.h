#ifndef CQA_CERTAINTY_SOLVER_H_
#define CQA_CERTAINTY_SOLVER_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cqa/attack/classification.h"
#include "cqa/base/budget.h"
#include "cqa/base/result.h"
#include "cqa/db/database.h"
#include "cqa/query/query.h"

namespace cqa {

/// Strategy for `SolveCertainty`.
enum class SolverMethod {
  /// Classify first: FO queries go through Algorithm 1; hard queries in the
  /// matching class (`DetectQ1Shape`: q1 plus self-covering negated atoms)
  /// use the polynomial matching solver; everything else uses the
  /// exact backtracking search. Under a budget, exhaustion of the exact
  /// solver degrades to Monte-Carlo sampling (see `SolveOptions`).
  kAuto,
  kRewriting,    // build + evaluate the FO rewriting (requires FO class)
  kAlgorithm1,   // direct Algorithm 1 interpreter (requires FO class)
  kBacktracking, // exact branch-and-prune over blocks (any query)
  kNaive,        // full repair enumeration (any query; oracle)
  kMatchingQ1,   // Hopcroft–Karp (requires the DetectQ1Shape class)
  kSampling,     // Monte-Carlo repair sampling (any query; approximate)
};

std::string ToString(SolverMethod m);

/// How much the answer of `SolveCertainty` can be trusted.
enum class Verdict {
  /// Exactly decided: q holds in every repair.
  kCertain,
  /// Exactly decided: some repair falsifies q (sampling reports this too —
  /// a falsifying sample is a definitive refutation).
  kNotCertain,
  /// The exact solver ran out of budget; sampling found no falsifying
  /// repair among `SolveReport::samples` draws. See
  /// `SolveReport::confidence`.
  kProbablyCertain,
  /// The budget was exhausted before any evidence was gathered; the answer
  /// carries no information.
  kExhausted,
};

std::string ToString(Verdict v);

class WarmState;
struct AnswerChunk;

/// Execution knobs for `SolveCertainty`.
struct SolveOptions {
  SolverMethod method = SolverMethod::kAuto;
  /// Optional execution governor threaded through every stage; not owned.
  Budget* budget = nullptr;
  /// Optional per-worker warm state (cqa/cache/warm_state.h); not owned
  /// and NOT thread-safe — one instance per calling thread. Reuses
  /// classification results, constructed rewritings, and the Algorithm-1
  /// memo arena across calls. The caller must `BindDatabase` the warm
  /// state to `db`'s fingerprint before each call (the arena is only
  /// valid for the database it was filled from).
  WarmState* warm = nullptr;
  /// On `kAuto`, when the exact solver exhausts its budget (deadline or
  /// node limit), fall back to Monte-Carlo sampling with whatever budget
  /// remains instead of failing. Cancellation never degrades.
  bool degrade_to_sampling = true;
  /// Sample cap for the sampling stage (fallback or explicit `kSampling`).
  uint64_t max_samples = 10'000;
  /// Seed for the sampling stage (deterministic by default).
  uint64_t sampling_seed = 0x5eedu;
  /// Worker count for component-decomposed solving (cqa/parallel/). At 1
  /// (the default) the plain sequential engines run — this is the parity
  /// baseline. Above 1, the backtracking and naive engines (explicit or
  /// via `kAuto` fallthrough) decompose the instance into independent
  /// sub-problems solved on a work-stealing pool of this width; the
  /// verdict is always identical to the sequential one. Polynomial
  /// engines (FO, matching) ignore this knob.
  int parallelism = 1;
};

/// Timing and work accounting for one stage of a solve.
struct SolveStage {
  SolverMethod method = SolverMethod::kAuto;
  bool ok = false;
  /// Failure code when `!ok` (the stage that triggered degradation keeps
  /// its code here even though the overall solve succeeded).
  std::optional<ErrorCode> error;
  /// Solver-native work units: search nodes (backtracking), recursive
  /// calls (Algorithm 1), repairs (naive), samples (sampling), governor
  /// steps otherwise.
  uint64_t steps = 0;
  std::chrono::microseconds elapsed{0};
};

struct SolveReport {
  /// True iff q was *exactly* decided certain (`verdict == kCertain`).
  bool certain = false;
  /// Qualification of the answer; always set.
  Verdict verdict = Verdict::kExhausted;
  /// For `kProbablyCertain`: Laplace-smoothed estimate of the fraction of
  /// repairs satisfying q, i.e. (samples+1)/(samples+2) after `samples`
  /// satisfying draws and no falsifying one. 1.0 for exact verdicts, 0.0
  /// for `kExhausted`.
  double confidence = 0.0;
  /// Samples drawn by the sampling stage (0 when sampling never ran).
  uint64_t samples = 0;
  /// The method that produced the final answer.
  SolverMethod used = SolverMethod::kAuto;
  Classification classification;
  /// Every stage attempted, in order (e.g. backtracking then sampling).
  std::vector<SolveStage> stages;
  /// Pool width the solve actually used (1 = sequential path).
  int parallelism = 1;
  /// Component tasks the decomposer produced (0 when the sequential path
  /// or a polynomial engine ran).
  int components = 0;
  /// Work-stealing pool steals across the solve (0 on the sequential path).
  uint64_t steals = 0;
  /// Set only by answer-enumeration jobs (`ServeJob::kind == kAnswers`):
  /// the chunk of certain answers this job produced. Shared, immutable —
  /// cached reports and coalesced followers alias the same chunk. For
  /// such jobs `verdict` encodes cacheability, not an answer: `kCertain`
  /// for a clean chunk, `kExhausted` for a budget-truncated partial one
  /// (which `IsCacheableReport` rejects, exactly as intended).
  std::shared_ptr<const AnswerChunk> answer_chunk;
};

/// Unified entry point: decides whether `q` is true in every repair of `db`.
Result<SolveReport> SolveCertainty(const Query& q, const Database& db,
                                   SolverMethod method = SolverMethod::kAuto);

/// Governed entry point: bounded-latency, honestly-qualified answers.
/// With a budget and `kAuto`, a slow exact solve degrades to sampling and
/// the report says so (`verdict`, `stages`); without degradation the
/// failure is a typed error (`kDeadlineExceeded`, `kBudgetExhausted`,
/// `kCancelled`, `kUnsupported`, ...).
Result<SolveReport> SolveCertainty(const Query& q, const Database& db,
                                   const SolveOptions& options);

}  // namespace cqa

#endif  // CQA_CERTAINTY_SOLVER_H_
