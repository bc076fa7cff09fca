#ifndef CQA_CERTAINTY_SOLVER_H_
#define CQA_CERTAINTY_SOLVER_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cqa/attack/classification.h"
#include "cqa/base/budget.h"
#include "cqa/base/result.h"
#include "cqa/db/database.h"
#include "cqa/query/query.h"

namespace cqa {

class WarmState;

/// The solver engines, one row each (docs/THEORY.md, "Engine table"):
///   X(method, name, alias, scope, cost, answer, split, role, runner)
///
/// - `name` is the spelling `ToString` reports; `ParseSolverMethod` also
///   accepts `alias` ("" for none).
/// - `scope` is the applicability check (`Engine::Accepts`). An explicit
///   method outside its scope fails with the engine's own typed error.
/// - `cost`: `ShouldIsolate` forks a query no polynomial exact row accepts.
/// - `answer`: answer enumeration refuses a sampled row.
/// - `split`: with `SolveOptions::parallelism > 1`, a kComponents row runs
///   per component on the work-stealing pool (cqa/parallel/).
/// - `role`: `kAuto` runs the first kProduction row whose scope accepts
///   the query, so row order is dispatch order; kOracle rows run only when
///   named.
/// - `runner` (solver.cc) runs the engine sequentially, for
///   `SolveCertainty` and for the parallel solver's component tasks.
///
/// Adding an engine is one row plus its runner.
#define CQA_ENGINES(X)                                                    \
  /* Lemma 6.1: build the consistent FO rewriting, then evaluate it. */   \
  X(kRewriting, "fo-rewriting", "rewriting", kFoClass, kPolynomial,      \
    kExact, kWhole, kOracle, RunRewriting)                                \
  /* Algorithm 1: decide the FO class directly on the database. */        \
  X(kAlgorithm1, "algorithm1", "", kFoClass, kPolynomial, kExact, kWhole, \
    kProduction, RunAlgorithm1)                                           \
  /* Hopcroft–Karp over the uncovered R-blocks (docs/THEORY.md). */       \
  X(kMatchingQ1, "matching-q1", "", kMatchingClass, kPolynomial, kExact,  \
    kWhole, kProduction, RunMatchingQ1)                                   \
  /* Exact branch-and-prune over the blocks of the query's relations. */  \
  X(kBacktracking, "backtracking", "", kAnyQuery, kExponential, kExact,   \
    kComponents, kProduction, RunBacktracking)                            \
  /* Full repair enumeration: the definitional oracle. */                 \
  X(kNaive, "naive", "", kAnyQuery, kExponential, kExact, kComponents,    \
    kOracle, RunNaive)                                                    \
  /* Monte-Carlo repair sampling; also `kAuto`'s degradation stage. */    \
  X(kSampling, "sampling", "", kAnyQuery, kPolynomial, kSampled, kWhole,  \
    kOracle, RunSampling)

#define CQA_ENGINE_ENUMERATOR(method, ...) method,
/// Strategy for `SolveCertainty`: `kAuto` (classify, then dispatch; under
/// a budget an exhausted exact engine degrades to sampling, see
/// `SolveOptions`) or one engine by name.
enum class SolverMethod { kAuto, CQA_ENGINES(CQA_ENGINE_ENUMERATOR) };
#undef CQA_ENGINE_ENUMERATOR

#define CQA_ENGINE_METHOD(method, ...) SolverMethod::method,
/// Every method, `kAuto` first, in enumerator order.
inline constexpr SolverMethod kSolverMethods[] = {
    SolverMethod::kAuto, CQA_ENGINES(CQA_ENGINE_METHOD)};
#undef CQA_ENGINE_METHOD

std::string ToString(SolverMethod m);

/// Parses a `--method=` or wire `method` name: "" or "auto", a row's name
/// or its alias. Unknown names fail with `kUnsupported`.
Result<SolverMethod> ParseSolverMethod(const std::string& name);

/// The engine table's column types (see `CQA_ENGINES`).
enum class EngineScope {
  kFoClass,        // Theorem 4.3's FO class, read from the classification
  kMatchingClass,  // `DetectQ1Shape`: q1 plus self-covering negated atoms
  kAnyQuery,
};
enum class EngineCost { kPolynomial, kExponential };
enum class EngineAnswer { kExact, kSampled };
enum class EngineSplit { kWhole, kComponents };
enum class EngineRole { kProduction, kOracle };

/// One engine run: its inputs, and the work it reports back.
struct EngineCall {
  const Query& q;
  const Database& db;
  Budget* budget = nullptr;
  /// Optional warm state and the query's alpha-canonical key, as in
  /// `SolveOptions::warm`.
  WarmState* warm = nullptr;
  const std::string* warm_key = nullptr;
  /// Sampled rows: draw cap and seed, from `SolveOptions`.
  uint64_t max_samples = 0;
  uint64_t sampling_seed = 0;
  /// Out: solver-native work units (search nodes, Algorithm-1 calls,
  /// governor steps of naive, samples drawn). A stage left at 0 records
  /// the governor's step delta instead.
  uint64_t steps = 0;
};

/// One row of `CQA_ENGINES`.
struct Engine {
  SolverMethod method;
  const char* name;
  const char* alias;
  EngineScope scope;
  EngineCost cost;
  EngineAnswer answer;
  EngineSplit split;
  EngineRole role;
  /// Exact rows return the verdict. A sampled row returns false when a
  /// draw refuted q and true otherwise, with `steps` draws made.
  Result<bool> (*run)(EngineCall* call);

  /// The applicability check. Reads the caller's classification of `q`
  /// and never classifies again.
  bool Accepts(const Query& q, const Classification& c) const;
};

/// The rows, in table order.
std::span<const Engine> Engines();

/// The row of `m`; null for `kAuto`.
const Engine* FindEngine(SolverMethod m);

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
  /// baseline. Above 1, an engine whose row splits into components
  /// (backtracking, naive; explicit or chosen by `kAuto`) decomposes the
  /// instance into independent sub-problems solved on a work-stealing pool
  /// of this width; the verdict is always identical to the sequential
  /// one. The other engines ignore this knob.
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
