// Tests for the execution governor: Budget semantics, deadline expiry
// mid-search on an adversarial instance, deterministic fault injection at
// every probe site, cross-thread cancellation, and the degradation cascade
// of SolveCertainty against the naive oracle.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "cqa/answers/enumerator.h"
#include "cqa/attack/classification.h"
#include "cqa/base/budget.h"
#include "cqa/certainty/backtracking.h"
#include "cqa/certainty/certain_answers.h"
#include "cqa/certainty/matching_q1.h"
#include "cqa/certainty/naive.h"
#include "cqa/certainty/rewriting_solver.h"
#include "cqa/certainty/sampling.h"
#include "cqa/certainty/solver.h"
#include "cqa/db/repairs.h"
#include "cqa/fo/eval.h"
#include "cqa/fo/fo_parser.h"
#include "cqa/gen/families.h"
#include "cqa/gen/random_db.h"
#include "cqa/query/parser.h"
#include "cqa/rewriting/algorithm1.h"

namespace cqa {
namespace {

using std::chrono::milliseconds;
using Clock = Budget::Clock;

Query Q(const char* text) {
  Result<Query> q = ParseQuery(text);
  EXPECT_TRUE(q.ok()) << (q.ok() ? "" : q.error());
  return q.value();
}

// ---------------------------------------------------------------------------
// Budget semantics

TEST(BudgetTest, StepLimitTripsAndIsSticky) {
  Budget b = Budget::WithMaxSteps(10);
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(b.CheckEvery(1).has_value()) << "probe " << i;
  }
  std::optional<ErrorCode> trip = b.CheckEvery(1);
  ASSERT_TRUE(trip.has_value());
  EXPECT_EQ(*trip, ErrorCode::kBudgetExhausted);
  // Sticky: later probes keep returning the original violation.
  EXPECT_EQ(b.CheckEvery(1), ErrorCode::kBudgetExhausted);
  EXPECT_EQ(b.tripped(), ErrorCode::kBudgetExhausted);
}

TEST(BudgetTest, ExpiredDeadlineTripsOnFirstProbe) {
  Budget b;
  b.deadline = Clock::now() - milliseconds(1);
  // The first probe always consults the clock, even with a large stride.
  EXPECT_EQ(b.CheckEvery(1u << 20), ErrorCode::kDeadlineExceeded);
}

TEST(BudgetTest, StrideZeroAndOneProbeEveryCall) {
  // Strides 0 and 1 are both "no amortization": the cancellation token is
  // consulted on every single call, so a cancel lands on the very next probe.
  for (uint64_t stride : {0ull, 1ull}) {
    std::atomic<bool> flag{false};
    Budget b;
    b.cancel = &flag;
    EXPECT_FALSE(b.CheckEvery(stride).has_value()) << "stride " << stride;
    flag.store(true);
    EXPECT_EQ(b.CheckEvery(stride), ErrorCode::kCancelled)
        << "stride " << stride;
  }
}

TEST(BudgetTest, LargeStrideAmortizesTheTokenAway) {
  // With a huge stride, the token is only consulted on the first probe; a
  // cancel raised afterwards goes unnoticed by amortized probes (that is the
  // amortization contract) but an explicit CheckNow still sees it.
  std::atomic<bool> flag{false};
  Budget b;
  b.cancel = &flag;
  EXPECT_FALSE(b.CheckEvery(1u << 20).has_value());  // probe #1 checks token
  flag.store(true);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(b.CheckEvery(1u << 20).has_value()) << "probe " << i;
  }
  EXPECT_EQ(b.CheckNow(), ErrorCode::kCancelled);
}

TEST(BudgetTest, CancellationIsStickyEvenAfterTheTokenClears) {
  // Once tripped, the violation outlives the token: clearing the flag must
  // not resurrect the run (deep recursions unwind against a stable cause).
  std::atomic<bool> flag{true};
  Budget b;
  b.cancel = &flag;
  EXPECT_EQ(b.CheckEvery(1), ErrorCode::kCancelled);
  flag.store(false);
  EXPECT_EQ(b.CheckEvery(1), ErrorCode::kCancelled);
  EXPECT_EQ(b.CheckNow(), ErrorCode::kCancelled);
  EXPECT_EQ(b.tripped(), ErrorCode::kCancelled);
}

TEST(BudgetTest, FaultInjectionFiresRegardlessOfStride) {
  // fail_after_probes counts probes, not strides: with stride 7 the fault
  // still fires on exactly the Nth call, and steps() freezes there because
  // later (sticky) probes no longer charge steps.
  constexpr uint64_t kN = 10;
  Budget b;
  b.faults.fail_after_probes = kN;
  for (uint64_t i = 1; i < kN; ++i) {
    EXPECT_FALSE(b.CheckEvery(7).has_value()) << "probe " << i;
  }
  EXPECT_EQ(b.CheckEvery(7), ErrorCode::kBudgetExhausted);
  EXPECT_EQ(b.steps(), kN);
  for (int i = 0; i < 5; ++i) (void)b.CheckEvery(7);
  EXPECT_EQ(b.steps(), kN) << "sticky probes must not keep charging steps";
}

TEST(BudgetTest, FaultInjectionFiresAtTheExactProbe) {
  for (uint64_t n = 1; n <= 5; ++n) {
    Budget b;
    b.faults.fail_after_probes = n;
    for (uint64_t i = 1; i < n; ++i) {
      EXPECT_FALSE(b.CheckEvery().has_value());
    }
    EXPECT_EQ(b.CheckEvery(), ErrorCode::kBudgetExhausted);
  }
}

TEST(BudgetTest, CancellationToken) {
  std::atomic<bool> flag{false};
  Budget b;
  b.cancel = &flag;
  EXPECT_FALSE(b.CheckEvery(1).has_value());
  flag.store(true);
  EXPECT_EQ(b.CheckEvery(1), ErrorCode::kCancelled);
}

TEST(BudgetTest, RemainingAccessors) {
  Budget unlimited;
  EXPECT_FALSE(unlimited.has_deadline());
  EXPECT_FALSE(unlimited.TimeRemaining().has_value());
  EXPECT_FALSE(unlimited.StepsRemaining().has_value());

  Budget b = Budget::WithTimeout(milliseconds(10'000));
  EXPECT_TRUE(b.has_deadline());
  ASSERT_TRUE(b.TimeRemaining().has_value());
  EXPECT_GT(*b.TimeRemaining(), Clock::duration::zero());

  Budget s = Budget::WithMaxSteps(5);
  (void)s.CheckEvery(1);
  (void)s.CheckEvery(1);
  ASSERT_TRUE(s.StepsRemaining().has_value());
  EXPECT_EQ(*s.StepsRemaining(), 3u);
}

// ---------------------------------------------------------------------------
// The adversarial pigeonhole instance

TEST(PigeonholeTest, InstanceIsCertainAndHard) {
  // Small enough for the oracle: certainty holds by pigeonhole.
  Database small = PigeonholeDatabase(4);
  NaiveOptions oracle_opts;
  Result<bool> oracle = IsCertainNaive(PigeonholeQuery(), small, oracle_opts);
  ASSERT_TRUE(oracle.ok()) << oracle.error();
  EXPECT_TRUE(oracle.value());
  Result<bool> oracle_cyclic =
      IsCertainNaive(PigeonholeCyclicQuery(), small, oracle_opts);
  ASSERT_TRUE(oracle_cyclic.ok());
  EXPECT_TRUE(oracle_cyclic.value());

  // The matching solver decides q1 in polynomial time...
  std::optional<bool> matched =
      IsCertainQ1ByMatching(PigeonholeQuery(), PigeonholeDatabase(12));
  ASSERT_TRUE(matched.has_value());
  EXPECT_TRUE(*matched);
  // ...and so the cyclic variant, whose third atom ¬T(x | y) is
  // self-covering...
  EXPECT_TRUE(DetectQ1Shape(PigeonholeCyclicQuery()).has_value());
  EXPECT_NE(Classify(PigeonholeCyclicQuery()).cls, CertaintyClass::kFO);
  matched =
      IsCertainQ1ByMatching(PigeonholeCyclicQuery(), PigeonholeDatabase(12));
  ASSERT_TRUE(matched.has_value());
  EXPECT_TRUE(*matched);
  // ...but ¬T(y | x) defeats shape detection and keeps the attack graph
  // cyclic, forcing kAuto onto backtracking.
  Result<bool> oracle_backtracking =
      IsCertainNaive(PigeonholeBacktrackingQuery(), small, oracle_opts);
  ASSERT_TRUE(oracle_backtracking.ok());
  EXPECT_TRUE(oracle_backtracking.value());
  EXPECT_FALSE(DetectQ1Shape(PigeonholeBacktrackingQuery()).has_value());
  EXPECT_NE(Classify(PigeonholeBacktrackingQuery()).cls, CertaintyClass::kFO);
}

// Acceptance: every exponential solver obeys a 50 ms deadline within 2x.
TEST(GovernorTest, BacktrackingMeetsDeadline) {
  Database db = PigeonholeDatabase(12);
  Budget budget = Budget::WithTimeout(milliseconds(50));
  auto start = Clock::now();
  BacktrackingOptions opts;
  opts.budget = &budget;
  Result<BacktrackingReport> r =
      SolveCertainBacktracking(PigeonholeQuery(), db, opts);
  auto elapsed = Clock::now() - start;
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kDeadlineExceeded);
  EXPECT_LE(elapsed, milliseconds(100)) << "deadline overshot 2x";
}

TEST(GovernorTest, NaiveMeetsDeadline) {
  // ~3.5e18 repairs: below the uint64 refusal cap, far beyond any clock.
  Database db = PigeonholeDatabase(10);
  Budget budget = Budget::WithTimeout(milliseconds(50));
  NaiveOptions opts;
  opts.max_repairs = UINT64_MAX;  // let the deadline, not the cap, stop it
  opts.budget = &budget;
  auto start = Clock::now();
  Result<bool> r = IsCertainNaive(PigeonholeQuery(), db, opts);
  auto elapsed = Clock::now() - start;
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kDeadlineExceeded);
  EXPECT_LE(elapsed, milliseconds(100)) << "deadline overshot 2x";
}

TEST(GovernorTest, FoSolversHonorExpiredDeadline) {
  // Algorithm 1 and the rewriting evaluator require acyclic queries, so the
  // pigeonhole instance is out; an already-expired deadline shows they
  // probe before doing any work.
  Query q = Q("P(x | y), not N('c' | y)");
  Result<Database> db = Database::FromText("P(a | b)\nN(c | b)\nN(c | d)");
  ASSERT_TRUE(db.ok());
  Budget expired;
  expired.deadline = Clock::now() - milliseconds(1);

  Algorithm1Options a1opts;
  a1opts.budget = &expired;
  Result<bool> a1 = Algorithm1(db.value(), a1opts).IsCertain(q);
  ASSERT_FALSE(a1.ok());
  EXPECT_EQ(a1.code(), ErrorCode::kDeadlineExceeded);

  Budget expired2;
  expired2.deadline = Clock::now() - milliseconds(1);
  Result<bool> rw = IsCertainByRewriting(q, db.value(), &expired2);
  ASSERT_FALSE(rw.ok());
  EXPECT_EQ(rw.code(), ErrorCode::kDeadlineExceeded);
}

// ---------------------------------------------------------------------------
// Fault injection: every probe site unwinds cleanly with kBudgetExhausted.

TEST(GovernorTest, FaultInjectionBacktracking) {
  Database db = PigeonholeDatabase(5);
  for (uint64_t n : {1, 2, 7, 50}) {
    Budget b;
    b.faults.fail_after_probes = n;
    BacktrackingOptions opts;
    opts.budget = &b;
    Result<BacktrackingReport> r =
        SolveCertainBacktracking(PigeonholeQuery(), db, opts);
    ASSERT_FALSE(r.ok()) << "fail_after_probes=" << n;
    EXPECT_EQ(r.code(), ErrorCode::kBudgetExhausted);
  }
}

TEST(GovernorTest, FaultInjectionNaiveAndCounting) {
  Database db = PigeonholeDatabase(4);
  Budget b1;
  b1.faults.fail_after_probes = 1;
  NaiveOptions opts;
  opts.budget = &b1;
  Result<bool> r = IsCertainNaive(PigeonholeQuery(), db, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kBudgetExhausted);

  Budget b2;
  b2.faults.fail_after_probes = 3;
  NaiveOptions copts;
  copts.budget = &b2;
  Result<RepairCount> c = CountSatisfyingRepairs(PigeonholeQuery(), db, copts);
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.code(), ErrorCode::kBudgetExhausted);
}

TEST(GovernorTest, FaultInjectionRepairEnumeration) {
  Database db = PigeonholeDatabase(4);
  Budget b;
  b.faults.fail_after_probes = 2;
  uint64_t seen = 0;
  Result<bool> r = ForEachRepair(db, &b, [&](const Repair&) {
    ++seen;
    return true;
  });
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kBudgetExhausted);
  EXPECT_EQ(seen, 1u);  // probes precede delivery: exactly one repair seen
}

TEST(GovernorTest, FaultInjectionSamplingDegradesGracefully) {
  Database db = PigeonholeDatabase(5);
  Budget b;
  b.faults.fail_after_probes = 4;
  Rng rng(7);
  SampleEstimate est =
      EstimateCertainty(PigeonholeQuery(), db, 1000, &rng, &b);
  EXPECT_EQ(est.stopped, ErrorCode::kBudgetExhausted);
  EXPECT_EQ(est.samples, 3u);  // partial evidence survives
  EXPECT_FALSE(est.refuted);   // the instance is certain
}

TEST(GovernorTest, FaultInjectionAlgorithm1AndEval) {
  Query q = Q("P(x | y), not N('c' | y)");
  Result<Database> db = Database::FromText("P(a | b)\nN(c | b)\nN(c | d)");
  ASSERT_TRUE(db.ok());
  for (uint64_t n : {1, 2, 5}) {
    Budget b;
    b.faults.fail_after_probes = n;
    Algorithm1Options opts;
    opts.budget = &b;
    Result<bool> r = Algorithm1(db.value(), opts).IsCertain(q);
    ASSERT_FALSE(r.ok()) << "fail_after_probes=" << n;
    EXPECT_EQ(r.code(), ErrorCode::kBudgetExhausted);
  }
  Result<FoPtr> f = ParseFo("exists x y. P(x | y) & !N('c' | y)");
  ASSERT_TRUE(f.ok()) << f.error();
  for (uint64_t n : {1, 2, 5}) {
    Budget b;
    b.faults.fail_after_probes = n;
    Result<bool> r = EvalFoGoverned(f.value(), db.value(), &b);
    ASSERT_FALSE(r.ok()) << "fail_after_probes=" << n;
    EXPECT_EQ(r.code(), ErrorCode::kBudgetExhausted);
  }
}

TEST(GovernorTest, FaultInjectionCertainAnswers) {
  Query q = Q("R(x | y), not S(y | x)");
  Result<Database> db = Database::FromText("R(a | b), R(a | c)\nS(b | a)");
  ASSERT_TRUE(db.ok());
  Budget b;
  b.faults.fail_after_probes = 1;
  Result<CertainAnswers> r =
      ComputeCertainAnswers(q, {InternSymbol("x")}, db.value(), &b);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kBudgetExhausted);

  Budget b2;
  b2.faults.fail_after_probes = 2;
  Result<CertainAnswers> rw = CertainAnswersByRewriting(
      Q("P(x | y), not N('c' | y)"), {InternSymbol("x")},
      Database::FromText("P(a | b)\nN(c | d)").value(), &b2);
  ASSERT_FALSE(rw.ok());
  EXPECT_EQ(rw.code(), ErrorCode::kBudgetExhausted);
}

// The candidate join probes the budget once per join tuple, so a large
// join trips a step limit, a deadline or an injected fault inside the join
// itself, before any candidate is decided, and every answers entry point
// fails typed rather than returning a partial answer set.
TEST(GovernorTest, BudgetTripsInsideTheCandidateJoin) {
  // R(k_i | v_{i mod 5}) for 200 keys, S(v_j | w_l) for 5 x 20 facts: the
  // join of R(x | y) and S(y | z) has 200 * 20 = 4000 tuples.
  std::string facts;
  for (int i = 0; i < 200; ++i) {
    facts += "R(k" + std::to_string(i) + " | v" + std::to_string(i % 5) +
             ")\n";
  }
  for (int j = 0; j < 5; ++j) {
    for (int l = 0; l < 20; ++l) {
      facts += "S(v" + std::to_string(j) + " | w" + std::to_string(l) + ")\n";
    }
  }
  Result<Database> db = Database::FromText(facts);
  ASSERT_TRUE(db.ok()) << db.error();
  Query q = Q("R(x | y), S(y | z), not T(x | z)");
  const std::vector<Symbol> frees = {InternSymbol("x"), InternSymbol("z")};

  Result<std::vector<Tuple>> all = CertainAnswerCandidates(q, frees, *db);
  ASSERT_TRUE(all.ok()) << all.error();
  ASSERT_EQ(all->size(), 4000u);

  Budget injected;
  injected.faults.fail_after_probes = 1000;
  Result<CertainAnswers> r = ComputeCertainAnswers(q, frees, *db, &injected);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kBudgetExhausted);
  EXPECT_NE(r.error().find("candidate join"), std::string::npos) << r.error();
  EXPECT_EQ(injected.steps(), 1000u) << "the join ran past the trip";

  Budget limited;
  limited.max_steps = 100;
  Result<CertainAnswers> rw =
      CertainAnswersByRewriting(q, frees, *db, &limited);
  ASSERT_FALSE(rw.ok());
  EXPECT_EQ(rw.code(), ErrorCode::kBudgetExhausted);
  EXPECT_EQ(limited.steps(), 101u);

  Budget late;
  late.deadline = Clock::now() - milliseconds(1);
  Result<AnswerChunk> chunk = EnumerateAnswerChunk(q, frees, *db, {}, &late);
  ASSERT_FALSE(chunk.ok());
  EXPECT_EQ(chunk.code(), ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(late.steps(), 1u);
}

TEST(GovernorTest, FaultInjectionSolveCascadeEndsExhausted) {
  // Injection hits the exact stage, then the sampling fallback: the solve
  // still returns (kAuto degrades) but the verdict carries no information.
  Database db = PigeonholeDatabase(6);
  Budget b;
  b.faults.fail_after_probes = 1;
  SolveOptions options;
  options.budget = &b;
  Result<SolveReport> r =
      SolveCertainty(PigeonholeBacktrackingQuery(), db, options);
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r->verdict, Verdict::kExhausted);
  EXPECT_EQ(r->samples, 0u);
  EXPECT_EQ(r->confidence, 0.0);
  ASSERT_EQ(r->stages.size(), 2u);
  EXPECT_FALSE(r->stages[0].ok);
  EXPECT_EQ(r->stages[0].error, ErrorCode::kBudgetExhausted);
}

// ---------------------------------------------------------------------------
// Cooperative cancellation from another thread

TEST(GovernorTest, CancellationFromAnotherThread) {
  Database db = PigeonholeDatabase(13);  // hours of search, ungoverned
  std::atomic<bool> cancel{false};
  Budget budget;
  budget.cancel = &cancel;
  std::thread canceller([&] {
    std::this_thread::sleep_for(milliseconds(20));
    cancel.store(true);
  });
  BacktrackingOptions opts;
  opts.budget = &budget;
  auto start = Clock::now();
  Result<BacktrackingReport> r =
      SolveCertainBacktracking(PigeonholeQuery(), db, opts);
  auto elapsed = Clock::now() - start;
  canceller.join();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kCancelled);
  EXPECT_LE(elapsed, milliseconds(2000));
}

TEST(GovernorTest, CancellationDoesNotDegradeToSampling) {
  Database db = PigeonholeDatabase(12);
  std::atomic<bool> cancel{true};  // pre-cancelled
  Budget budget;
  budget.cancel = &cancel;
  SolveOptions options;
  options.budget = &budget;
  Result<SolveReport> r =
      SolveCertainty(PigeonholeBacktrackingQuery(), db, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kCancelled);
}

// ---------------------------------------------------------------------------
// Degradation cascade and verdict correctness

TEST(GovernorTest, AutoCascadeYieldsQualifiedSamplingVerdict) {
  // Acceptance: on the adversarial cyclic instance under a 50 ms deadline,
  // SolveCertainty(kAuto) returns probably-certain instead of an error.
  Database db = PigeonholeDatabase(12);
  Budget budget = Budget::WithTimeout(milliseconds(50));
  SolveOptions options;
  options.budget = &budget;
  auto start = Clock::now();
  Result<SolveReport> r =
      SolveCertainty(PigeonholeBacktrackingQuery(), db, options);
  auto elapsed = Clock::now() - start;
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_LE(elapsed, milliseconds(100)) << "cascade overshot the deadline 2x";
  EXPECT_EQ(r->verdict, Verdict::kProbablyCertain);
  EXPECT_EQ(r->used, SolverMethod::kSampling);
  EXPECT_GT(r->samples, 0u);
  EXPECT_GT(r->confidence, 0.5);
  EXPECT_LT(r->confidence, 1.0);
  EXPECT_FALSE(r->certain) << "a sampled verdict must not claim exactness";
  // Both stages are accounted for: the tripped exact stage and sampling.
  ASSERT_EQ(r->stages.size(), 2u);
  EXPECT_EQ(r->stages[0].method, SolverMethod::kBacktracking);
  EXPECT_FALSE(r->stages[0].ok);
  EXPECT_EQ(r->stages[0].error, ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(r->stages[1].method, SolverMethod::kSampling);
  EXPECT_TRUE(r->stages[1].ok);
}

TEST(GovernorTest, DegradationOffMakesExhaustionAnError) {
  Database db = PigeonholeDatabase(12);
  Budget budget = Budget::WithTimeout(milliseconds(50));
  SolveOptions options;
  options.budget = &budget;
  options.degrade_to_sampling = false;
  Result<SolveReport> r =
      SolveCertainty(PigeonholeBacktrackingQuery(), db, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kDeadlineExceeded);
}

TEST(GovernorTest, ExplicitMethodNeverDegrades) {
  Database db = PigeonholeDatabase(12);
  Budget budget = Budget::WithMaxSteps(100);
  SolveOptions options;
  options.method = SolverMethod::kBacktracking;
  options.budget = &budget;
  Result<SolveReport> r = SolveCertainty(PigeonholeQuery(), db, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kBudgetExhausted);
}

TEST(GovernorTest, VerdictsMatchNaiveOracleOnSmallInstances) {
  // With a generous budget nothing degrades: exact verdicts, confidence 1.
  Rng rng(42);
  RandomDbOptions dopts;
  dopts.blocks_per_relation = 3;
  dopts.max_block_size = 2;
  dopts.domain_size = 4;
  Query q = PigeonholeCyclicQuery();
  for (int i = 0; i < 50; ++i) {
    Database db = GenerateRandomDatabaseFor(q, dopts, &rng);
    Result<bool> oracle = IsCertainNaive(q, db);
    ASSERT_TRUE(oracle.ok());
    Budget budget = Budget::WithTimeout(milliseconds(10'000));
    SolveOptions options;
    options.budget = &budget;
    Result<SolveReport> r = SolveCertainty(q, db, options);
    ASSERT_TRUE(r.ok()) << r.error();
    EXPECT_EQ(r->certain, oracle.value()) << db.ToString();
    EXPECT_EQ(r->verdict,
              oracle.value() ? Verdict::kCertain : Verdict::kNotCertain);
    EXPECT_EQ(r->confidence, 1.0);
  }
}

TEST(GovernorTest, SamplingRefutationIsExact) {
  // A not-certain instance: sampling must eventually find the falsifying
  // repair and report kNotCertain with confidence 1.
  Result<Database> db = Database::FromText("R(a | b), R(a | c)\nS(b | a)");
  ASSERT_TRUE(db.ok());
  SolveOptions options;
  options.method = SolverMethod::kSampling;
  options.max_samples = 1000;
  Result<SolveReport> r =
      SolveCertainty(Q("R(x | y), not S(y | x)"), db.value(), options);
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r->verdict, Verdict::kNotCertain);
  EXPECT_EQ(r->confidence, 1.0);
  EXPECT_EQ(r->used, SolverMethod::kSampling);
}

}  // namespace
}  // namespace cqa
