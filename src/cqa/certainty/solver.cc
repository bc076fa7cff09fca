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

// Runs a row's engine per component on the parallel solver, folding its
// accounting into the report.
Result<bool> RunParallel(SolverMethod method, EngineCall* call,
                         int parallelism, SolveReport* report) {
  ParallelOptions popts;
  popts.parallelism = parallelism;
  popts.method = method;
  popts.budget = call->budget;
  Result<ParallelReport> r = SolveCertainParallel(call->q, call->db, popts);
  if (!r.ok()) return Result<bool>::Error(r);
  call->steps = r->steps;
  report->parallelism = parallelism;
  report->components = r->components;
  report->steals = r->steals;
  return r->certain;
}

// The sequential runners of the `CQA_ENGINES` rows.

Result<bool> RunRewriting(EngineCall* call) {
  if (call->warm == nullptr) {
    return IsCertainByRewriting(call->q, call->db, call->budget);
  }
  // The rewriting is pure in q and its formula is closed, so one
  // constructed solver answers for every alpha-variant of the query.
  const WarmState::RewritingSlot& slot =
      call->warm->RewritingMemo(*call->warm_key, call->q);
  if (slot.solver == nullptr) return Result<bool>::Error(slot.code, slot.error);
  return slot.solver->IsCertainGoverned(call->db, call->budget);
}

Result<bool> RunAlgorithm1(EngineCall* call) {
  Algorithm1Options opts;
  opts.budget = call->budget;
  if (call->warm != nullptr) opts.memo_arena = call->warm->Algo1Arena();
  Algorithm1 algo(call->db, opts);
  Result<bool> r = algo.IsCertain(call->q);
  call->steps = algo.calls();
  return r;
}

Result<bool> RunMatchingQ1(EngineCall* call) {
  std::optional<bool> r = IsCertainQ1ByMatching(call->q, call->db);
  if (!r.has_value()) {
    return Result<bool>::Error(
        ErrorCode::kUnsupported,
        "query is not q1 plus self-covering negated atoms, the class "
        "the matching solver requires");
  }
  return *r;
}

Result<bool> RunBacktracking(EngineCall* call) {
  BacktrackingOptions opts;
  opts.budget = call->budget;
  Result<BacktrackingReport> r =
      SolveCertainBacktracking(call->q, call->db, opts);
  if (!r.ok()) return Result<bool>::Error(r);
  call->steps = r->nodes;
  return r->certain;
}

Result<bool> RunNaive(EngineCall* call) {
  const uint64_t before = call->budget != nullptr ? call->budget->steps() : 0;
  NaiveOptions opts;
  opts.budget = call->budget;
  Result<bool> r = IsCertainNaive(call->q, call->db, opts);
  if (call->budget != nullptr) call->steps = call->budget->steps() - before;
  return r;
}

// Never fails on deadline/step exhaustion: it reports whatever it saw.
// Only cancellation escapes as an error.
Result<bool> RunSampling(EngineCall* call) {
  Rng rng(call->sampling_seed);
  SampleEstimate est = EstimateCertainty(call->q, call->db, call->max_samples,
                                         &rng, call->budget);
  call->steps = est.samples;
  if (est.stopped == ErrorCode::kCancelled) {
    return Result<bool>::Error(ErrorCode::kCancelled,
                               "sampling cancelled by caller");
  }
  return !est.refuted;
}

#define CQA_ENGINE_ROW(method, name, alias, scope, cost, answer, split, role, \
                       run)                                                  \
  Engine{SolverMethod::method, name, alias, EngineScope::scope,              \
         EngineCost::cost, EngineAnswer::answer, EngineSplit::split,         \
         EngineRole::role, run},
constexpr Engine kEngines[] = {CQA_ENGINES(CQA_ENGINE_ROW)};
#undef CQA_ENGINE_ROW

// `kAuto`: the first production row whose scope accepts q.
SolverMethod AutoEngine(const Query& q, const Classification& c) {
  for (const Engine& e : kEngines) {
    if (e.role == EngineRole::kProduction && e.Accepts(q, c)) return e.method;
  }
  return SolverMethod::kAuto;  // no row accepts: FindEngine fails it
}

// Runs a sampled row as the solve's (last) stage and qualifies its verdict.
Result<SolveReport> RunSampledStage(const Engine& engine, EngineCall* call,
                                    SolveReport report) {
  Result<bool> r = RunStage(&report, engine.method, call->budget, &call->steps,
                            [&] { return engine.run(call); });
  if (!r.ok()) return Result<SolveReport>::Error(r);
  report.used = engine.method;
  report.samples = call->steps;
  report.certain = false;  // never *exactly* decided
  if (!r.value()) {
    // A falsifying sample is a definitive refutation.
    report.verdict = Verdict::kNotCertain;
    report.confidence = 1.0;
  } else if (report.samples > 0) {
    report.verdict = Verdict::kProbablyCertain;
    report.confidence = static_cast<double>(report.samples + 1) /
                        static_cast<double>(report.samples + 2);
  } else {
    report.verdict = Verdict::kExhausted;
    report.confidence = 0.0;
  }
  return report;
}

}  // namespace

std::string ToString(SolverMethod m) {
  if (m == SolverMethod::kAuto) return "auto";
  const Engine* e = FindEngine(m);
  return e != nullptr ? e->name : "?";
}

Result<SolverMethod> ParseSolverMethod(const std::string& name) {
  if (name.empty() || name == "auto") return SolverMethod::kAuto;
  for (const Engine& e : kEngines) {
    if (name == e.name || name == e.alias) return e.method;
  }
  return Result<SolverMethod>::Error(ErrorCode::kUnsupported,
                                     "unknown method '" + name + "'");
}

bool Engine::Accepts(const Query& q, const Classification& c) const {
  switch (scope) {
    case EngineScope::kFoClass:
      return c.cls == CertaintyClass::kFO;
    case EngineScope::kMatchingClass:
      return DetectQ1Shape(q).has_value();
    case EngineScope::kAnyQuery:
      return true;
  }
  return false;
}

std::span<const Engine> Engines() { return kEngines; }

const Engine* FindEngine(SolverMethod m) {
  const size_t i = static_cast<size_t>(m);
  return i >= 1 && i <= std::size(kEngines) ? &kEngines[i - 1] : nullptr;
}

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

  const SolverMethod chosen = options.method == SolverMethod::kAuto
                                  ? AutoEngine(q, report.classification)
                                  : options.method;
  const Engine* engine = FindEngine(chosen);
  if (engine == nullptr) {
    return Result<SolveReport>::Error(ErrorCode::kInternal,
                                      "invalid solver method");
  }
  EngineCall call{.q = q,
                  .db = db,
                  .budget = options.budget,
                  .warm = options.warm,
                  .warm_key = &warm_key,
                  .max_samples = options.max_samples,
                  .sampling_seed = options.sampling_seed};
  if (engine->answer == EngineAnswer::kSampled) {
    return RunSampledStage(*engine, &call, std::move(report));
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

  call.budget = exact_budget;
  Result<bool> r =
      RunStage(&report, chosen, exact_budget, &call.steps, [&] {
        if (options.parallelism > 1 &&
            engine->split == EngineSplit::kComponents) {
          return RunParallel(chosen, &call, options.parallelism, &report);
        }
        return engine->run(&call);
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
    sampling_storage.faults.fail_after_probes =
        options.budget->faults.fail_after_probes;
    sampling_budget = &sampling_storage;
  }
  call.budget = sampling_budget;
  call.steps = 0;
  return RunSampledStage(*FindEngine(SolverMethod::kSampling), &call,
                         std::move(report));
}

}  // namespace cqa
