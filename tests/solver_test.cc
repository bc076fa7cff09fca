#include <gtest/gtest.h>

#include "cqa/certainty/matching_q1.h"
#include "cqa/certainty/solver.h"
#include "cqa/gen/random_db.h"
#include "cqa/gen/random_query.h"
#include "cqa/query/parser.h"
#include "cqa/reductions/bpm.h"
#include "cqa/reductions/q4.h"
#include "cqa/serve/sandbox/sandbox.h"

namespace cqa {
namespace {

Query Q(const char* text) {
  Result<Query> q = ParseQuery(text);
  EXPECT_TRUE(q.ok()) << (q.ok() ? "" : q.error());
  return q.value();
}

TEST(SolverTest, AutoPicksAlgorithm1ForFoQueries) {
  Query q = Q("P(x | y), not N('c' | y)");
  Rng rng(901);
  Database db = GenerateRandomDatabaseFor(q, {}, &rng);
  Result<SolveReport> report = SolveCertainty(q, db);
  ASSERT_TRUE(report.ok()) << report.error();
  EXPECT_EQ(report->used, SolverMethod::kAlgorithm1);
  EXPECT_EQ(report->classification.cls, CertaintyClass::kFO);
}

TEST(SolverTest, AutoPicksMatchingForQ1) {
  Query q1 = MakeQ1();
  Rng rng(907);
  Database db = GenerateRandomDatabaseFor(q1, {}, &rng);
  Result<SolveReport> report = SolveCertainty(q1, db);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->used, SolverMethod::kMatchingQ1);
}

TEST(SolverTest, AutoFallsBackToBacktracking) {
  Query q4 = MakeQ4();
  Rng rng(911);
  Database db = GenerateRandomDatabaseFor(q4, {}, &rng);
  Result<SolveReport> report = SolveCertainty(q4, db);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->used, SolverMethod::kBacktracking);
}

TEST(SolverTest, AllApplicableMethodsAgree) {
  Query q = Q("P(x | y), not N(x | y)");
  Rng rng(919);
  RandomDbOptions opts;
  opts.blocks_per_relation = 3;
  for (int i = 0; i < 100; ++i) {
    Database db = GenerateRandomDatabaseFor(q, opts, &rng);
    Result<SolveReport> naive = SolveCertainty(q, db, SolverMethod::kNaive);
    ASSERT_TRUE(naive.ok());
    for (SolverMethod m :
         {SolverMethod::kRewriting, SolverMethod::kAlgorithm1,
          SolverMethod::kBacktracking, SolverMethod::kAuto}) {
      Result<SolveReport> r = SolveCertainty(q, db, m);
      ASSERT_TRUE(r.ok()) << ToString(m) << ": " << r.error();
      EXPECT_EQ(r->certain, naive->certain) << ToString(m);
    }
  }
}

TEST(SolverTest, MethodErrorsAreSurfaced) {
  Query q1 = MakeQ1();
  Schema s;
  s.AddRelationOrDie("R", 2, 1);
  Database db(s);
  // FO-only solvers refuse the cyclic q1.
  EXPECT_FALSE(SolveCertainty(q1, db, SolverMethod::kRewriting).ok());
  EXPECT_FALSE(SolveCertainty(q1, db, SolverMethod::kAlgorithm1).ok());
  // Matching solver refuses a non-q1 shape.
  EXPECT_FALSE(
      SolveCertainty(Q("R(x | y)"), db, SolverMethod::kMatchingQ1).ok());
}

// A query atom whose relation the database holds at another signature
// fails typed under every method (sequential and decomposed) before any
// engine reads a tuple: no engine may match R(x | y) against unary facts.
TEST(SolverTest, SignatureMismatchFailsTypedUnderEveryMethod) {
  Result<Database> db = Database::FromText("R(a), S(b | a), R(c)");
  ASSERT_TRUE(db.ok()) << db.error();
  for (SolverMethod m : kSolverMethods) {
    for (int parallelism : {1, 4}) {
      SolveOptions options;
      options.method = m;
      options.parallelism = parallelism;
      Result<SolveReport> r =
          SolveCertainty(Q("R(x | y), not S(y | x)"), *db, options);
      ASSERT_FALSE(r.ok()) << ToString(m) << " answered "
                           << ToString(r->verdict);
      EXPECT_EQ(r.code(), ErrorCode::kParse) << ToString(m);
      EXPECT_NE(r.error().find("'R' is R[2,1] in the query but R[1,1]"),
                std::string::npos)
          << r.error();
    }
    // Equal arity, different key length.
    Result<SolveReport> key = SolveCertainty(Q("S(y, x)"), *db, m);
    ASSERT_FALSE(key.ok()) << ToString(m);
    EXPECT_EQ(key.code(), ErrorCode::kParse) << ToString(m);
    EXPECT_NE(key.error().find("S[2,2] in the query but S[2,1]"),
              std::string::npos)
        << key.error();
  }
  // A relation the database does not hold is not a mismatch: it is empty.
  Result<SolveReport> absent = SolveCertainty(Q("R(x), not T(x | x)"), *db);
  ASSERT_TRUE(absent.ok()) << absent.error();
  EXPECT_TRUE(absent->certain);
}

TEST(SolverTest, MethodNames) {
  EXPECT_EQ(ToString(SolverMethod::kAuto), "auto");
  EXPECT_EQ(ToString(SolverMethod::kRewriting), "fo-rewriting");
  EXPECT_EQ(ToString(SolverMethod::kAlgorithm1), "algorithm1");
  EXPECT_EQ(ToString(SolverMethod::kBacktracking), "backtracking");
  EXPECT_EQ(ToString(SolverMethod::kNaive), "naive");
  EXPECT_EQ(ToString(SolverMethod::kMatchingQ1), "matching-q1");
  EXPECT_EQ(ToString(SolverMethod::kSampling), "sampling");
  EXPECT_EQ(ToString(Verdict::kCertain), "certain");
  EXPECT_EQ(ToString(Verdict::kNotCertain), "not-certain");
  EXPECT_EQ(ToString(Verdict::kProbablyCertain), "probably-certain");
  EXPECT_EQ(ToString(Verdict::kExhausted), "exhausted");
}

// The engine table must reproduce the paper's dispatch rule, stated here
// by hand as the oracle: the FO class (Theorem 4.3) goes to Algorithm 1;
// otherwise the matching class (`DetectQ1Shape`) goes to matching;
// everything else to backtracking. Fork isolation is for exactly the
// queries neither polynomial side takes.
TEST(EngineTableTest, AutoAndIsolationMatchThePaperRule) {
  std::vector<Query> queries;
  Rng rng(0xe7a61e);
  for (int i = 0; i < 2000; ++i) {
    queries.push_back(GenerateRandomQuery(RandomQueryOptions{}, &rng));
  }
  // The six shapes of property_test's MatchingClassTest.
  for (const char* text : {"R(x | y), not S(y | x)",
                           "R(x | y), not S(y | x), not T(x | y)",
                           "R(x | y), not S(y | x), not T(x | y), not U(x)",
                           "R(x | y), not S(y | x), not U(x)",
                           "R(x | y), not S(y | x), not T(x | x)",
                           "R(x | y), not S(y | x), not T(x | y, x)"}) {
    queries.push_back(Q(text));
  }
  const Database empty{Schema()};
  int fo_queries = 0, matching_queries = 0, other_queries = 0;
  for (const Query& q : queries) {
    const Classification c = Classify(q);
    const bool fo = c.cls == CertaintyClass::kFO;
    const bool matching = !fo && DetectQ1Shape(q).has_value();
    const SolverMethod rule = fo         ? SolverMethod::kAlgorithm1
                              : matching ? SolverMethod::kMatchingQ1
                                         : SolverMethod::kBacktracking;
    Result<SolveReport> r = SolveCertainty(q, empty);
    ASSERT_TRUE(r.ok()) << q.ToString() << ": " << r.error();
    EXPECT_EQ(ToString(r->used), ToString(rule)) << q.ToString();
    EXPECT_EQ(ShouldIsolate(q, c), !fo && !matching) << q.ToString();
    ++(fo ? fo_queries : matching ? matching_queries : other_queries);
  }
  // Every branch of the rule is exercised.
  EXPECT_GT(fo_queries, 0);
  EXPECT_GE(matching_queries, 6);
  EXPECT_GT(other_queries, 0);
}

TEST(EngineTableTest, NamesAndAliasesRoundTrip) {
  EXPECT_EQ(*ParseSolverMethod(ToString(SolverMethod::kAuto)),
            SolverMethod::kAuto);
  ASSERT_EQ(Engines().size() + 1, std::size(kSolverMethods));
  for (const Engine& e : Engines()) {
    EXPECT_EQ(FindEngine(e.method), &e) << e.name;
    EXPECT_EQ(ToString(e.method), e.name);
    Result<SolverMethod> by_name = ParseSolverMethod(e.name);
    ASSERT_TRUE(by_name.ok()) << by_name.error();
    EXPECT_EQ(*by_name, e.method) << e.name;
    if (*e.alias != '\0') {
      Result<SolverMethod> by_alias = ParseSolverMethod(e.alias);
      ASSERT_TRUE(by_alias.ok()) << by_alias.error();
      EXPECT_EQ(*by_alias, e.method) << e.alias;
    }
  }
  EXPECT_EQ(FindEngine(SolverMethod::kAuto), nullptr);
  EXPECT_EQ(ParseSolverMethod("rewriting-q1").code(), ErrorCode::kUnsupported);
}

}  // namespace
}  // namespace cqa
