#include <gtest/gtest.h>
#include <pthread.h>

#include <functional>
#include <string>

#include "cqa/certainty/matching_q1.h"
#include "cqa/matching/hopcroft_karp.h"
#include "cqa/certainty/naive.h"
#include "cqa/gen/random_db.h"
#include "cqa/query/parser.h"
#include "cqa/reductions/bpm.h"

namespace cqa {
namespace {

Query Q(const char* text) {
  Result<Query> q = ParseQuery(text);
  EXPECT_TRUE(q.ok()) << (q.ok() ? "" : q.error());
  return q.value();
}

TEST(MatchingQ1Test, ShapeDetection) {
  EXPECT_TRUE(DetectQ1Shape(MakeQ1()).has_value());
  // Renamed relations/variables still match.
  EXPECT_TRUE(DetectQ1Shape(Q("Knows(g | b), not Liked(b | g)")).has_value());
  // Reversed literal order.
  EXPECT_EQ(DetectQ1Shape(Q("not S(y | x), R(x | y)")).value(), 1u);
  // Non-matching shapes.
  EXPECT_FALSE(DetectQ1Shape(Q("R(x | y), not S(x | y)")).has_value());
  EXPECT_FALSE(DetectQ1Shape(Q("R(x | y), S(y | x)")).has_value());
  EXPECT_FALSE(DetectQ1Shape(Q("R(x | y), not S(y | 'c')")).has_value());
  EXPECT_FALSE(DetectQ1Shape(Q("R(x, y), not S(y | x)")).has_value());
  EXPECT_FALSE(
      DetectQ1Shape(Q("R(x | y), not S(y | x), not T(y | x)")).has_value());
}

TEST(MatchingQ1Test, DetectsSelfCoveringNegatedAtoms) {
  // q1 plus negated atoms keyed by exactly (x) over {x, y}, any order.
  EXPECT_TRUE(
      DetectQ1Shape(Q("R(x | y), not S(y | x), not T(x | y)")).has_value());
  EXPECT_TRUE(DetectQ1Shape(Q("R(x | y), not S(y | x), not U(x)")).has_value());
  EXPECT_TRUE(
      DetectQ1Shape(Q("R(x | y), not S(y | x), not T(x | x)")).has_value());
  EXPECT_TRUE(
      DetectQ1Shape(Q("R(x | y), not S(y | x), not T(x | y, x)")).has_value());
  EXPECT_EQ(DetectQ1Shape(Q("not T(x | y), R(x | y), not U(x), "
                            "not S(y | x)"))
                .value(),
            1u);
}

TEST(MatchingQ1Test, NearMissesStayOnBacktracking) {
  // Keyed by y: T's block b serves every R-block that reaches b.
  EXPECT_FALSE(
      DetectQ1Shape(Q("R(x | y), not S(y | x), not T(y | x)")).has_value());
  // A constant in the extra atom.
  EXPECT_FALSE(
      DetectQ1Shape(Q("R(x | y), not S(y | x), not T(x | 'c')")).has_value());
  // Keyed by (x, y) rather than exactly (x).
  EXPECT_FALSE(
      DetectQ1Shape(Q("R(x | y), not S(y | x), not T(x, y)")).has_value());
  // A second positive atom.
  EXPECT_FALSE(DetectQ1Shape(Q("R(x | y), P(x), not S(y | x)")).has_value());
  // No crossed atom at all.
  EXPECT_FALSE(DetectQ1Shape(Q("R(x | y), not T(x | y)")).has_value());
}

TEST(MatchingQ1Test, SelfCoveredBlocksLeaveTheMatching) {
  Query q = Q("R(x | y), not S(y | x), not T(x | y)");
  // Block a covers itself through T(a, b); block c matches into S-block d:
  // choosing R(a,b), T(a,b), R(c,d), S(d,c) falsifies q.
  Result<Database> parsed = Database::FromText(R"(
    R(a | b), T(a | b), R(c | d), S(d | c)
  )");
  ASSERT_TRUE(parsed.ok());
  Database db = parsed.value();
  EXPECT_FALSE(IsCertainQ1ByMatching(q, db).value());
  EXPECT_FALSE(IsCertainNaive(q, db).value());
  // Without T(a, b), block a has no S mirror: every repair satisfies q.
  ASSERT_TRUE(
      db.RemoveFact(InternSymbol("T"), {Value::Of("a"), Value::Of("b")}));
  EXPECT_TRUE(IsCertainQ1ByMatching(q, db).value());
  EXPECT_TRUE(IsCertainNaive(q, db).value());
}

// Runs `fn` on a thread with a `bytes`-sized stack, so a recursion that
// grows with the input overflows here rather than hiding in the default
// 8 MiB main-thread stack.
void RunOnStack(size_t bytes, const std::function<void()>& fn) {
  pthread_attr_t attr;
  ASSERT_EQ(pthread_attr_init(&attr), 0);
  ASSERT_EQ(pthread_attr_setstacksize(&attr, bytes), 0);
  pthread_t thread;
  void* (*trampoline)(void*) = [](void* arg) -> void* {
    (*static_cast<const std::function<void()>*>(arg))();
    return nullptr;
  };
  ASSERT_EQ(pthread_create(&thread, &attr, trampoline,
                           const_cast<std::function<void()>*>(&fn)),
            0);
  ASSERT_EQ(pthread_join(thread, nullptr), 0);
  pthread_attr_destroy(&attr);
}

constexpr int kChain = 100'000;
constexpr size_t kSmallStack = 256 * 1024;

TEST(MatchingQ1Test, ChainGraphAugmentsWithoutRecursion) {
  // Left i is adjacent to [r_i, r_{i+1}]; one more left vertex only to r_0.
  // The first phase matches i—r_i, leaving the last vertex free, so the
  // second phase's one augmenting path runs the whole chain.
  BipartiteGraph g(kChain + 1, kChain + 1);
  for (int i = 0; i < kChain; ++i) {
    g.AddEdge(i, i);
    g.AddEdge(i, i + 1);
  }
  g.AddEdge(kChain, 0);
  bool perfect = false;
  RunOnStack(kSmallStack, [&] { perfect = HasLeftPerfectMatching(g); });
  EXPECT_TRUE(perfect);
}

TEST(MatchingQ1Test, ChainDatabaseSolvesOnASmallStack) {
  // The same chain as a q1 instance: R-block a_i reaches S-blocks b_i and
  // b_{i+1}; the last R-block e reaches only b_0.
  Schema schema;
  schema.AddRelationOrDie("R", 2, 1);
  schema.AddRelationOrDie("S", 2, 1);
  Database db(std::move(schema));
  auto b = [](int i) { return Value::Of("chain_b" + std::to_string(i)); };
  for (int i = 0; i < kChain; ++i) {
    Value a = Value::Of("chain_a" + std::to_string(i));
    for (int j : {i, i + 1}) {
      db.AddFactOrDie("R", {a, b(j)});
      db.AddFactOrDie("S", {b(j), a});
    }
  }
  Value e = Value::Of("chain_e");
  db.AddFactOrDie("R", {e, b(0)});
  db.AddFactOrDie("S", {b(0), e});
  std::optional<bool> certain;
  RunOnStack(kSmallStack,
             [&] { certain = IsCertainQ1ByMatching(MakeQ1(), db); });
  ASSERT_TRUE(certain.has_value());
  EXPECT_FALSE(*certain) << "a_i -> b_{i+1}, e -> b_0 is a falsifying repair";
}

TEST(MatchingQ1Test, Figure1Database) {
  // Example 1.1: Alice–George / Maria–Bob is a perfect matching, so q1 is
  // not certain.
  Result<Database> db = Database::FromText(R"(
    R(alice | bob), R(alice | george), R(maria | bob), R(maria | john)
    S(bob | alice), S(bob | maria), S(george | alice), S(george | maria)
  )");
  ASSERT_TRUE(db.ok());
  std::optional<bool> certain = IsCertainQ1ByMatching(MakeQ1(), db.value());
  ASSERT_TRUE(certain.has_value());
  EXPECT_FALSE(*certain);
}

TEST(MatchingQ1Test, AgreesWithNaiveOnRandomDatabases) {
  Query q1 = MakeQ1();
  Rng rng(401);
  RandomDbOptions opts;
  opts.blocks_per_relation = 4;
  opts.max_block_size = 3;
  opts.domain_size = 5;
  for (int i = 0; i < 500; ++i) {
    Database db = GenerateRandomDatabaseFor(q1, opts, &rng);
    std::optional<bool> got = IsCertainQ1ByMatching(q1, db);
    ASSERT_TRUE(got.has_value());
    Result<bool> expected = IsCertainNaive(q1, db);
    ASSERT_TRUE(expected.ok());
    ASSERT_EQ(*got, expected.value()) << db.ToString();
  }
}

TEST(MatchingQ1Test, EmptyRIsNotCertain) {
  Schema s;
  s.AddRelationOrDie("R", 2, 1);
  s.AddRelationOrDie("S", 2, 1);
  Database db(s);
  EXPECT_FALSE(IsCertainQ1ByMatching(MakeQ1(), db).value());
}

TEST(MatchingQ1Test, RefusesOtherShapes) {
  Schema s;
  s.AddRelationOrDie("R", 2, 1);
  Database db(s);
  EXPECT_FALSE(IsCertainQ1ByMatching(Q("R(x | y)"), db).has_value());
}

}  // namespace
}  // namespace cqa
