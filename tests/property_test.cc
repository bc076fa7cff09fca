#include <gtest/gtest.h>

#include "cqa/attack/classification.h"
#include "cqa/certainty/backtracking.h"
#include "cqa/certainty/naive.h"
#include "cqa/certainty/rewriting_solver.h"
#include "cqa/certainty/solver.h"
#include "cqa/fo/eval.h"
#include "cqa/gen/random_db.h"
#include "cqa/gen/random_query.h"
#include "cqa/query/parser.h"
#include "cqa/rewriting/algorithm1.h"
#include "cqa/rewriting/rewriter.h"

namespace cqa {
namespace {

// The central end-to-end property of the reproduction: on random
// weakly-guarded queries and random inconsistent databases, every solver
// agrees with the definitional repair-enumeration oracle, and for queries
// classified FO by Theorem 4.3 the consistent first-order rewriting (i) can
// be constructed and (ii) evaluates to the oracle's answer.
class SolverAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SolverAgreementTest, AllSolversMatchOracle) {
  Rng rng(GetParam());
  RandomQueryOptions qopts;
  RandomDbOptions dopts;
  dopts.blocks_per_relation = 2;
  dopts.max_block_size = 2;
  dopts.domain_size = 4;

  for (int round = 0; round < 8; ++round) {
    Query q = GenerateRandomQuery(qopts, &rng);
    Classification cls = Classify(q);

    std::optional<RewritingSolver> rewriting;
    std::optional<Algorithm1> algo1;
    if (cls.cls == CertaintyClass::kFO) {
      Result<RewritingSolver> rs = RewritingSolver::Create(q);
      ASSERT_TRUE(rs.ok()) << "Theorem 4.3 promises a rewriting for "
                           << q.ToString() << ": " << rs.error();
      rewriting = std::move(rs.value());
    } else {
      // Hard or unknown: the FO constructors must refuse.
      EXPECT_FALSE(RewriteCertain(q).ok()) << q.ToString();
    }

    for (int i = 0; i < 15; ++i) {
      Database db = GenerateRandomDatabaseFor(q, dopts, &rng);
      Result<bool> oracle = IsCertainNaive(q, db);
      ASSERT_TRUE(oracle.ok()) << oracle.error();

      Result<bool> bt = IsCertainBacktracking(q, db);
      ASSERT_TRUE(bt.ok()) << bt.error();
      ASSERT_EQ(bt.value(), oracle.value())
          << "backtracking disagrees on " << q.ToString() << "\n"
          << db.ToString();

      Result<SolveReport> facade = SolveCertainty(q, db);
      if (facade.ok()) {
        EXPECT_EQ(facade->certain, oracle.value())
            << "facade (" << ToString(facade->used) << ") disagrees on "
            << q.ToString();
      }

      // Every exact row of the engine table that accepts q, so a new row
      // is oracle-checked without a new assertion.
      for (const Engine& e : Engines()) {
        if (e.answer != EngineAnswer::kExact || !e.Accepts(q, cls)) continue;
        Result<SolveReport> r = SolveCertainty(q, db, e.method);
        ASSERT_TRUE(r.ok()) << e.name << " on " << q.ToString() << ": "
                            << r.error();
        ASSERT_EQ(r->certain, oracle.value())
            << e.name << " disagrees on " << q.ToString() << "\n"
            << db.ToString();
      }

      if (cls.cls == CertaintyClass::kFO) {
        ASSERT_EQ(rewriting->IsCertain(db), oracle.value())
            << "rewriting disagrees on " << q.ToString() << "\n"
            << rewriting->rewriting().formula->ToString() << "\n"
            << db.ToString();
        Result<bool> a1 = IsCertainAlgorithm1(q, db);
        ASSERT_TRUE(a1.ok()) << a1.error();
        ASSERT_EQ(a1.value(), oracle.value())
            << "Algorithm 1 disagrees on " << q.ToString() << "\n"
            << db.ToString();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverAgreementTest,
                         ::testing::Range<uint64_t>(1, 61));

// The matching engine's widened class — q1 plus self-covering negated
// atoms — on six shapes: q1 itself, ¬T(x|y), two extra atoms, a unary
// ¬U(x), a repeated-variable ¬T(x|x) and a wider ¬T(x|y,x). The matching
// solver must agree with the repair-enumeration oracle on every instance,
// and auto dispatch must route each shape to matching.
class MatchingClassTest : public ::testing::TestWithParam<const char*> {};

TEST_P(MatchingClassTest, MatchingAgreesWithNaive) {
  Result<Query> q = ParseQuery(GetParam());
  ASSERT_TRUE(q.ok()) << q.error();
  Rng rng(std::hash<std::string>()(GetParam()));
  RandomDbOptions dopts;
  dopts.blocks_per_relation = 3;
  dopts.max_block_size = 3;
  dopts.domain_size = 4;
  int certain = 0;
  constexpr int kInstances = 300;
  for (int i = 0; i < kInstances; ++i) {
    Database db = GenerateRandomDatabaseFor(*q, dopts, &rng);
    Result<SolveReport> oracle = SolveCertainty(*q, db, SolverMethod::kNaive);
    ASSERT_TRUE(oracle.ok()) << oracle.error();
    Result<SolveReport> matched =
        SolveCertainty(*q, db, SolverMethod::kMatchingQ1);
    ASSERT_TRUE(matched.ok()) << matched.error();
    ASSERT_EQ(matched->certain, oracle->certain)
        << "matching disagrees on " << q->ToString() << "\n"
        << db.ToString();
    Result<SolveReport> facade = SolveCertainty(*q, db);
    ASSERT_TRUE(facade.ok()) << facade.error();
    EXPECT_EQ(facade->used, SolverMethod::kMatchingQ1);
    if (oracle->certain) ++certain;
  }
  // Both verdicts occur, so neither side of the rule goes untested.
  EXPECT_GT(certain, 0);
  EXPECT_LT(certain, kInstances);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatchingClassTest,
    ::testing::Values("R(x | y), not S(y | x)",
                      "R(x | y), not S(y | x), not T(x | y)",
                      "R(x | y), not S(y | x), not T(x | y), not U(x)",
                      "R(x | y), not S(y | x), not U(x)",
                      "R(x | y), not S(y | x), not T(x | x)",
                      "R(x | y), not S(y | x), not T(x | y, x)"));

// Rewriting evaluation is consistent across database mutations: adding a
// fact to a negated-atom relation can only flip in controlled ways; here we
// simply re-check oracle agreement after random single-fact removals.
class MutationTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MutationTest, AgreementSurvivesFactRemovals) {
  Rng rng(GetParam() * 7919);
  RandomQueryOptions qopts;
  qopts.max_negative = 2;
  RandomDbOptions dopts;
  dopts.blocks_per_relation = 2;
  dopts.max_block_size = 2;

  Query q = GenerateRandomQuery(qopts, &rng);
  if (Classify(q).cls != CertaintyClass::kFO) return;
  Result<RewritingSolver> rs = RewritingSolver::Create(q);
  ASSERT_TRUE(rs.ok());

  Database db = GenerateRandomDatabaseFor(q, dopts, &rng);
  for (int step = 0; step < 20; ++step) {
    Result<bool> oracle = IsCertainNaive(q, db);
    ASSERT_TRUE(oracle.ok());
    ASSERT_EQ(rs->IsCertain(db), oracle.value()) << q.ToString();
    // Remove one random fact (if any remain).
    std::vector<std::pair<Symbol, Tuple>> all;
    for (const RelationSchema& r : db.schema().relations()) {
      for (const Tuple& t : db.FactsOf(r.name)) all.emplace_back(r.name, t);
    }
    if (all.empty()) break;
    const auto& victim = all[rng.Below(all.size())];
    db.RemoveFact(victim.first, victim.second);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutationTest,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace cqa
