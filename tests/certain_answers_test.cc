#include <gtest/gtest.h>

#include "cqa/answers/enumerator.h"
#include "cqa/certainty/certain_answers.h"
#include "cqa/certainty/naive.h"
#include "cqa/gen/poll.h"
#include "cqa/gen/random_db.h"
#include "cqa/query/parser.h"

namespace cqa {
namespace {

Query Q(const char* text) {
  Result<Query> q = ParseQuery(text);
  EXPECT_TRUE(q.ok()) << (q.ok() ? "" : q.error());
  return q.value();
}

Database Db(const char* text) {
  Result<Database> db = Database::FromText(text);
  EXPECT_TRUE(db.ok()) << (db.ok() ? "" : db.error());
  return db.value();
}

TEST(CertainAnswersTest, HandCase) {
  // q(x) = P(x | y), ¬N('c' | y): which keys x certainly have a y avoiding
  // every N-value?
  Query q = Q("P(x | y), not N('c' | y)");
  Database db = Db(R"(
    P(k1 | a)
    P(k2 | b), P(k2 | a)
    P(k3 | b)
    N(c | b)
  )");
  // k1: only value a, not blocked => certain.
  // k2: block {a, b}; the repair choosing b has no witness at k2... but a
  //     witness may come from ANOTHER block: q[x->k2] requires P(k2,y);
  //     repair {P(k2,b)}: y=b is blocked => not certain.
  // k3: only value b, blocked => not certain.
  Result<CertainAnswers> answers =
      ComputeCertainAnswers(q, {InternSymbol("x")}, db);
  ASSERT_TRUE(answers.ok()) << answers.error();
  ASSERT_EQ(answers->answers.size(), 1u);
  EXPECT_EQ(answers->answers[0], Tuple{Value::Of("k1")});
  EXPECT_EQ(answers->candidates, 3u);
}

TEST(CertainAnswersTest, MatchesPerCandidateNaive) {
  Query q = Q("P(x | y), not N(x | y)");
  Rng rng(1201);
  RandomDbOptions opts;
  opts.blocks_per_relation = 3;
  opts.domain_size = 4;
  Symbol x = InternSymbol("x");
  for (int trial = 0; trial < 40; ++trial) {
    Database db = GenerateRandomDatabaseFor(q, opts, &rng);
    Result<CertainAnswers> got = ComputeCertainAnswers(q, {x}, db);
    ASSERT_TRUE(got.ok()) << got.error();
    // Ground truth per candidate via naive enumeration.
    std::vector<Tuple> expected;
    std::unordered_map<Value, bool, ValueHash> seen;
    db.ForEachFact(InternSymbol("P"), [&](const Tuple& t) {
      if (!seen.emplace(t[0], true).second) return true;
      Query ground = q.Substituted(x, t[0]);
      if (IsCertainNaive(ground, db).value()) expected.push_back({t[0]});
      return true;
    });
    std::sort(expected.begin(), expected.end(),
              [](const Tuple& a, const Tuple& b) {
                return a[0].name() < b[0].name();
              });
    ASSERT_EQ(got->answers, expected) << db.ToString();
  }
}

TEST(CertainAnswersTest, RewritingPathAgrees) {
  Query q = Q("P(x | y), not N(x | y)");
  Rng rng(1213);
  Symbol x = InternSymbol("x");
  for (int trial = 0; trial < 40; ++trial) {
    Database db = GenerateRandomDatabaseFor(q, {}, &rng);
    Result<CertainAnswers> a = ComputeCertainAnswers(q, {x}, db);
    Result<CertainAnswers> b = CertainAnswersByRewriting(q, {x}, db);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->answers, b->answers) << db.ToString();
  }
}

TEST(CertainAnswersTest, TwoFreeVariables) {
  // q(p, t) = Lives(p | t), ¬Born(p | t): certainly-lives-elsewhere pairs.
  Query q = Q("Lives(p | t), not Born(p | t)");
  Database db = Db(R"(
    Lives(ann | rome)
    Lives(bob | oslo), Lives(bob | kiev)
    Born(ann | oslo)
    Born(bob | oslo)
  )");
  Result<CertainAnswers> answers = ComputeCertainAnswers(
      q, {InternSymbol("p"), InternSymbol("t")}, db);
  ASSERT_TRUE(answers.ok()) << answers.error();
  // (ann, rome) is certain. (bob, oslo): repair keeps Lives(bob,kiev) — not
  // certain; also Born(bob,oslo) blocks it anyway. (bob, kiev): the repair
  // keeping Lives(bob,oslo) has no Lives(bob,kiev) — not certain.
  ASSERT_EQ(answers->answers.size(), 1u);
  EXPECT_EQ(answers->answers[0],
            (Tuple{Value::Of("ann"), Value::Of("rome")}));
}

// A free variable listed twice names one value in both columns: the
// answers of q(x, x) are the diagonal pairs, never (a, c).
TEST(CertainAnswersTest, RepeatedFreeVariableProjectsTheDiagonal) {
  Query q = Q("R(x | y)");
  Database db = Db("R(a | b), R(c | d), R(c | e)");
  Symbol x = InternSymbol("x");
  Result<CertainAnswers> answers = ComputeCertainAnswers(q, {x, x}, db);
  ASSERT_TRUE(answers.ok()) << answers.error();
  EXPECT_EQ(answers->answers,
            (std::vector<Tuple>{{Value::Of("a"), Value::Of("a")},
                                {Value::Of("c"), Value::Of("c")}}));
}

TEST(CertainAnswersTest, FreeVariableWithoutPositiveOccurrenceFails) {
  Query q = Q("P(x | y), not N(x | y)");
  Schema s;
  s.AddRelationOrDie("P", 2, 1);
  s.AddRelationOrDie("N", 2, 1);
  Database db(s);
  EXPECT_FALSE(ComputeCertainAnswers(q, {InternSymbol("zzz")}, db).ok());
}

// The candidate join reads the database at the query's positions, so a
// signature mismatch must fail typed on every answers entry point before
// the join runs.
TEST(CertainAnswersTest, SignatureMismatchFailsTypedOnEveryEntryPoint) {
  Query q = Q("R(x | y), not S(y | x)");
  Database db = Db("R(a), S(b | a), R(c)");
  const std::vector<Symbol> x = {InternSymbol("x")};
  Result<CertainAnswers> solved = ComputeCertainAnswers(q, x, db);
  ASSERT_FALSE(solved.ok());
  EXPECT_EQ(solved.code(), ErrorCode::kParse) << solved.error();
  Result<CertainAnswers> rewritten = CertainAnswersByRewriting(q, x, db);
  ASSERT_FALSE(rewritten.ok());
  EXPECT_EQ(rewritten.code(), ErrorCode::kParse) << rewritten.error();
  for (SolverMethod m : {SolverMethod::kAuto, SolverMethod::kRewriting}) {
    EnumerateOptions opts;
    opts.method = m;
    Result<AnswerChunk> chunk = EnumerateAnswerChunk(q, x, db, opts);
    ASSERT_FALSE(chunk.ok());
    EXPECT_EQ(chunk.code(), ErrorCode::kParse) << chunk.error();
  }
}

TEST(CertainAnswersTest, RewritingWithFreeRejectsHardQuery) {
  // With x free (reified), q1's attack graph... S still attacks R via x?
  // key(R)={x} is now constant-like, so the cycle breaks and q1(x) becomes
  // rewritable; but q1 with free y keeps the cycle? Just assert the calls
  // behave consistently with the classifier on the reified query.
  Query q1 = Q("R(x | y), not S(y | x)");
  Result<FoPtr> with_x = RewriteCertainWithFree(q1, {InternSymbol("x")});
  EXPECT_TRUE(with_x.ok()) << (with_x.ok() ? "" : with_x.error());
  Result<FoPtr> with_none = RewriteCertainWithFree(q1, {});
  EXPECT_FALSE(with_none.ok());
}

TEST(CertainAnswersTest, PollScenario) {
  // Certain answers of qa's person variable on generated poll data: every
  // reported person certainly lives in a town they were not born in and do
  // not like.
  Query qa_free = Q("Lives(p | t), not Born(p | t), not Likes(p, t)");
  Rng rng(1217);
  PollDbOptions opts;
  opts.num_persons = 8;
  opts.num_towns = 3;
  Database db = GeneratePollDatabase(opts, &rng);
  Result<CertainAnswers> answers =
      ComputeCertainAnswers(qa_free, {InternSymbol("p")}, db);
  ASSERT_TRUE(answers.ok()) << answers.error();
  // Validate each reported answer and each rejected candidate by naive.
  std::unordered_map<Value, bool, ValueHash> reported;
  for (const Tuple& t : answers->answers) reported.emplace(t[0], true);
  std::unordered_map<Value, bool, ValueHash> seen;
  db.ForEachFact(InternSymbol("Lives"), [&](const Tuple& t) {
    if (!seen.emplace(t[0], true).second) return true;
    bool expected =
        IsCertainNaive(qa_free.Substituted(InternSymbol("p"), t[0]), db)
            .value();
    EXPECT_EQ(expected, reported.count(t[0]) > 0) << t[0].name();
    return true;
  });
  return;
}

}  // namespace
}  // namespace cqa
