#include "cqa/certainty/solver.h"

#include "cqa/base/rng.h"
#include "cqa/cache/query_key.h"
#include "cqa/cache/warm_state.h"
#include "cqa/certainty/backtracking.h"
#include "cqa/certainty/matching_q1.h"
#include "cqa/certainty/naive.h"
#include "cqa/certainty/rewriting_solver.h"
#include "cqa/certainty/sampling.h"
#include "cqa/parallel/parallel_solver.h"
#include "cqa/rewriting/algorithm1.h"

namespace cqa {

std::string ToString(SolverMethod m) {
  switch (m) {
    case SolverMethod::kAuto:
      return "auto";
    case SolverMethod::kRewriting:
      return "fo-rewriting";
    case SolverMethod::kAlgorithm1:
      return "algorithm1";
    case SolverMethod::kBacktracking:
      return "backtracking";
    case SolverMethod::kNaive:
      return "naive";
    case SolverMethod::kMatchingQ1:
      return "matching-q1";
    case SolverMethod::kSampling:
      return "sampling";
  }
  return "?";
}

std::string ToString(Verdict v) {
  switch (v) {
    case Verdict::kCertain:
      return "certain";
    case Verdict::kNotCertain:
      return "not-certain";
    case Verdict::kProbablyCertain:
      return "probably-certain";
    case Verdict::kExhausted:
      return "exhausted";
  }
  return "?";
}

namespace {

// Runs `fn`, appending a SolveStage (outcome, wall-clock, work units) to the
// report. `native_steps` points at a counter the lambda fills with
// solver-native work units; when it stays 0 the governor-step delta of
// `budget` is recorded instead.
template <typename Fn>
Result<bool> RunStage(SolveReport* report, SolverMethod method, Budget* budget,
                      uint64_t* native_steps, Fn&& fn) {
  uint64_t steps_before = budget != nullptr ? budget->steps() : 0;
  auto start = std::chrono::steady_clock::now();
  Result<bool> r = fn();
  auto end = std::chrono::steady_clock::now();
  SolveStage stage;
  stage.method = method;
  stage.ok = r.ok();
  if (!r.ok()) stage.error = r.code();
  stage.steps = *native_steps != 0
                    ? *native_steps
                    : (budget != nullptr ? budget->steps() - steps_before : 0);
  stage.elapsed =
      std::chrono::duration_cast<std::chrono::microseconds>(end - start);
  report->stages.push_back(stage);
  return r;
}

// Dispatches a backtracking/naive solve to the component-decomposed
// parallel engine, folding its accounting into the report.
Result<bool> RunParallel(SolverMethod method, const Query& q,
                         const Database& db, Budget* budget, int parallelism,
                         uint64_t* native_steps, SolveReport* report) {
  ParallelOptions popts;
  popts.parallelism = parallelism;
  popts.method = method;
  popts.budget = budget;
  Result<ParallelReport> r = SolveCertainParallel(q, db, popts);
  if (!r.ok()) return Result<bool>::Error(r);
  *native_steps = r->steps;
  report->parallelism = parallelism;
  report->components = r->components;
  report->steals = r->steals;
  return r->certain;
}

// Runs one exact (or matching) solver with the budget threaded through.
// A non-null `warm` supplies memoized rewritings and a cross-request
// Algorithm-1 arena; `warm_key` is the query's alpha-canonical key.
// `parallelism > 1` reroutes the exponential engines (backtracking, naive)
// through the component-decomposed parallel solver; `report` receives its
// accounting (components, steals).
Result<bool> RunExact(SolverMethod method, const Query& q, const Database& db,
                      Budget* budget, WarmState* warm,
                      const std::string& warm_key, int parallelism,
                      uint64_t* native_steps, SolveReport* report) {
  switch (method) {
    case SolverMethod::kRewriting: {
      if (warm == nullptr) return IsCertainByRewriting(q, db, budget);
      // The rewriting is pure in q and its formula is closed, so one
      // constructed solver answers for every alpha-variant of the query.
      const WarmState::RewritingSlot& slot = warm->RewritingMemo(warm_key, q);
      if (slot.solver == nullptr) {
        return Result<bool>::Error(slot.code, slot.error);
      }
      return slot.solver->IsCertainGoverned(db, budget);
    }
    case SolverMethod::kAlgorithm1: {
      Algorithm1Options opts;
      opts.budget = budget;
      if (warm != nullptr) opts.memo_arena = warm->Algo1Arena();
      Algorithm1 algo(db, opts);
      Result<bool> r = algo.IsCertain(q);
      *native_steps = algo.calls();
      return r;
    }
    case SolverMethod::kBacktracking: {
      if (parallelism > 1) {
        return RunParallel(method, q, db, budget, parallelism, native_steps,
                           report);
      }
      BacktrackingOptions opts;
      opts.budget = budget;
      Result<BacktrackingReport> r = SolveCertainBacktracking(q, db, opts);
      if (!r.ok()) return Result<bool>::Error(r);
      *native_steps = r->nodes;
      return r->certain;
    }
    case SolverMethod::kNaive: {
      if (parallelism > 1) {
        return RunParallel(method, q, db, budget, parallelism, native_steps,
                           report);
      }
      NaiveOptions opts;
      opts.budget = budget;
      return IsCertainNaive(q, db, opts);
    }
    case SolverMethod::kMatchingQ1: {
      std::optional<bool> r = IsCertainQ1ByMatching(q, db);
      if (!r.has_value()) {
        return Result<bool>::Error(
            ErrorCode::kUnsupported,
            "query is not q1 plus self-covering negated atoms, the class "
            "the matching solver requires");
      }
      return *r;
    }
    case SolverMethod::kAuto:
    case SolverMethod::kSampling:
      break;
  }
  return Result<bool>::Error(ErrorCode::kInternal, "invalid solver method");
}

// The sampling stage: never fails on deadline/step exhaustion — it reports
// whatever it saw, qualified by the verdict. Only cancellation escapes as
// an error.
Result<SolveReport> RunSampling(const Query& q, const Database& db,
                                const SolveOptions& options, Budget* budget,
                                SolveReport report) {
  Rng rng(options.sampling_seed);
  SampleEstimate est;
  uint64_t native_steps = 0;
  Result<bool> r = RunStage(
      &report, SolverMethod::kSampling, budget, &native_steps,
      [&]() -> Result<bool> {
        est = EstimateCertainty(q, db, options.max_samples, &rng, budget);
        native_steps = est.samples;
        if (est.stopped == ErrorCode::kCancelled) {
          return Result<bool>::Error(ErrorCode::kCancelled,
                                     "sampling cancelled by caller");
        }
        return !est.refuted;
      });
  if (!r.ok()) return Result<SolveReport>::Error(r);
  report.used = SolverMethod::kSampling;
  report.samples = est.samples;
  if (est.refuted) {
    // A falsifying sample is a definitive refutation.
    report.certain = false;
    report.verdict = Verdict::kNotCertain;
    report.confidence = 1.0;
  } else if (est.samples > 0) {
    report.certain = false;  // not *exactly* decided
    report.verdict = Verdict::kProbablyCertain;
    report.confidence = static_cast<double>(est.samples + 1) /
                        static_cast<double>(est.samples + 2);
  } else {
    report.certain = false;
    report.verdict = Verdict::kExhausted;
    report.confidence = 0.0;
  }
  return report;
}

}  // namespace

Result<SolveReport> SolveCertainty(const Query& q, const Database& db,
                                   SolverMethod method) {
  SolveOptions options;
  options.method = method;
  return SolveCertainty(q, db, options);
}

Result<SolveReport> SolveCertainty(const Query& q, const Database& db,
                                   const SolveOptions& options) {
  Result<bool> fits = q.CheckAgainst(db.schema());
  if (!fits.ok()) return Result<SolveReport>::Error(fits);
  SolveReport report;
  std::string warm_key;
  if (options.warm != nullptr) {
    warm_key = CanonicalQueryKey(q);
    report.classification = options.warm->ClassifyMemo(warm_key, q);
  } else {
    report.classification = Classify(q);
  }

  if (options.method == SolverMethod::kSampling) {
    return RunSampling(q, db, options, options.budget, std::move(report));
  }

  SolverMethod chosen = options.method;
  if (chosen == SolverMethod::kAuto) {
    if (report.classification.cls == CertaintyClass::kFO) {
      chosen = SolverMethod::kAlgorithm1;
    } else if (DetectQ1Shape(q).has_value()) {
      chosen = SolverMethod::kMatchingQ1;
    } else {
      chosen = SolverMethod::kBacktracking;
    }
  }
  report.used = chosen;

  bool may_degrade =
      options.method == SolverMethod::kAuto && options.degrade_to_sampling;

  // When degradation is on the table and the caller set a deadline, the
  // exact stage only gets ~80% of the remaining wall-clock: a tripped
  // budget is sticky, so the sampling fallback needs its own slice to
  // produce a qualified verdict inside the caller's deadline.
  Budget exact_storage;
  Budget* exact_budget = options.budget;
  if (may_degrade && options.budget != nullptr &&
      options.budget->has_deadline()) {
    exact_storage = *options.budget;
    if (auto remaining = exact_storage.TimeRemaining()) {
      exact_storage.deadline = Budget::Clock::now() + (*remaining / 5) * 4;
    }
    exact_budget = &exact_storage;
  }

  uint64_t native_steps = 0;
  Result<bool> r =
      RunStage(&report, chosen, exact_budget, &native_steps, [&] {
        return RunExact(chosen, q, db, exact_budget, options.warm, warm_key,
                        options.parallelism, &native_steps, &report);
      });
  if (r.ok()) {
    report.certain = r.value();
    report.verdict = r.value() ? Verdict::kCertain : Verdict::kNotCertain;
    report.confidence = 1.0;
    return report;
  }

  // Degradation cascade: only for resource exhaustion — cancellation and
  // unsupported/parse failures propagate as typed errors.
  if (!may_degrade || !IsResourceExhaustion(r.code())) {
    return Result<SolveReport>::Error(r);
  }

  // Sampling runs under the caller's original deadline and cancellation
  // token, but not under the (already exhausted) step limit: its work is
  // capped by `max_samples` and whatever wall-clock remains.
  Budget sampling_storage;
  Budget* sampling_budget = nullptr;
  if (options.budget != nullptr) {
    sampling_storage.deadline = options.budget->deadline;
    sampling_storage.cancel = options.budget->cancel;
    sampling_storage.fail_after_probes = options.budget->fail_after_probes;
    sampling_budget = &sampling_storage;
  }
  return RunSampling(q, db, options, sampling_budget, std::move(report));
}

}  // namespace cqa
