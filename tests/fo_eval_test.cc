#include <gtest/gtest.h>
#include <pthread.h>

#include <functional>
#include <string>

#include "cqa/fo/eval.h"
#include "cqa/fo/fo_parser.h"
#include "cqa/fo/formula.h"

namespace cqa {
namespace {

Term V(const char* n) { return Term::Var(n); }
Term C(const char* n) { return Term::Const(n); }
Symbol S(const char* n) { return InternSymbol(n); }

Database Db(const char* text) {
  Result<Database> db = Database::FromText(text);
  EXPECT_TRUE(db.ok()) << (db.ok() ? "" : db.error());
  return db.value();
}

TEST(FoEvalTest, SchemaMismatchIsATypedParseError) {
  // R is unary in the database but binary in the formula: evaluating it
  // would index past the facts, so the check must refuse it first.
  Database db = Db("R(a), S(b | a), R(c)");
  Result<FoPtr> f = ParseFo("exists x y. R(x | y) & !S(y | x)");
  ASSERT_TRUE(f.ok()) << f.error();
  Result<bool> fits = CheckFoAgainst(f.value(), db.schema());
  ASSERT_FALSE(fits.ok());
  EXPECT_EQ(fits.code(), ErrorCode::kParse);
  EXPECT_NE(fits.error().find("'R'"), std::string::npos) << fits.error();
  EXPECT_NE(fits.error().find("R[2,1] in the formula"), std::string::npos)
      << fits.error();
  EXPECT_NE(fits.error().find("R[1,1] in the database"), std::string::npos)
      << fits.error();

  // Matching signatures, and relations the database lacks, both fit.
  Result<FoPtr> g = ParseFo("exists x y. S(x | y) & !T(y)");
  ASSERT_TRUE(g.ok()) << g.error();
  EXPECT_TRUE(CheckFoAgainst(g.value(), db.schema()).ok());
  EXPECT_TRUE(EvalFo(g.value(), db));
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

// Unoptimized and sanitizer builds grow each parser frame about threefold.
#if defined(__OPTIMIZE__) && !defined(__SANITIZE_ADDRESS__)
constexpr size_t kSmallStack = 256 * 1024;
#else
constexpr size_t kSmallStack = 1024 * 1024;
#endif

// The parser recurses once per nesting level; past the cap it fails typed
// instead of overflowing the stack (both inputs used to exit with 139).
TEST(FoEvalTest, DeepNestingIsATypedParseErrorOnASmallStack) {
  const std::string core = "exists x y. R(x | y)";
  const std::string parens =
      std::string(60'000, '(') + core + std::string(60'000, ')');
  const std::string negations = std::string(120'000, '!') + core;
  const std::string at_cap = std::string(kMaxFoNesting - 1, '(') + core +
                             std::string(kMaxFoNesting - 1, ')');
  const std::string depth = std::to_string(kMaxFoNesting);
  RunOnStack(kSmallStack, [&] {
    for (const std::string* text : {&parens, &negations}) {
      Result<FoPtr> f = ParseFo(*text);
      ASSERT_FALSE(f.ok());
      EXPECT_EQ(f.code(), ErrorCode::kParse);
      EXPECT_NE(f.error().find("nested deeper than " + depth),
                std::string::npos)
          << f.error();
    }
    Result<FoPtr> ok = ParseFo(at_cap);
    ASSERT_TRUE(ok.ok()) << ok.error();
    EXPECT_TRUE(EvalFo(ok.value(), Db("R(a | b)")));
  });
}

TEST(FoEvalTest, GroundAtoms) {
  Database db = Db("R(a | b)");
  EXPECT_TRUE(EvalFo(FoAtom(S("R"), 1, {C("a"), C("b")}), db));
  EXPECT_FALSE(EvalFo(FoAtom(S("R"), 1, {C("a"), C("zz")}), db));
  EXPECT_FALSE(EvalFo(FoAtom(S("Missing"), 1, {C("a")}), db));
}

TEST(FoEvalTest, GuardedExists) {
  Database db = Db("R(a | b)\nR(c | d)\nT(b)");
  FoPtr f = FoExists({S("x"), S("y")},
                     FoAnd({FoAtom(S("R"), 1, {V("x"), V("y")}),
                            FoAtom(S("T"), 1, {V("y")})}));
  EXPECT_TRUE(EvalFo(f, db));
  FoPtr g = FoExists({S("x"), S("y")},
                     FoAnd({FoAtom(S("R"), 1, {V("x"), V("y")}),
                            FoAtom(S("T"), 1, {V("x")})}));
  EXPECT_FALSE(EvalFo(g, db));
}

TEST(FoEvalTest, ForallWithImplicationPremise) {
  Database db = Db("R(a | b)\nR(a | c)\nT(b)\nT(c)");
  FoPtr f = FoForall({S("z")},
                     FoImplies(FoAtom(S("R"), 1, {C("a"), V("z")}),
                               FoAtom(S("T"), 1, {V("z")})));
  EXPECT_TRUE(EvalFo(f, db));
  Database db2 = Db("R(a | b)\nR(a | c)\nT(b)");
  EXPECT_FALSE(EvalFo(f, db2));
}

TEST(FoEvalTest, InfiniteDomainSemantics) {
  // ∃x ¬P(x) is TRUE over the infinite constant domain even if P holds for
  // every active-domain value (fresh witness).
  Database db = Db("P(a)\nP(b)");
  FoPtr f = FoExists({S("x")}, FoNot(FoAtom(S("P"), 1, {V("x")})));
  EXPECT_TRUE(EvalFo(f, db));
  // ∀x P(x) is FALSE for the same reason.
  FoPtr g = FoForall({S("x")}, FoAtom(S("P"), 1, {V("x")}));
  EXPECT_FALSE(EvalFo(g, db));
}

TEST(FoEvalTest, DistinctFreshWitnessesPerVariable) {
  // ∃x∃y (x ≠ y ∧ ¬P(x) ∧ ¬P(y)) needs two distinct outside-domain values.
  Database db = Db("P(a)");
  FoPtr f = FoExists(
      {S("x"), S("y")},
      FoAnd({FoNotEquals(V("x"), V("y")),
             FoNot(FoAtom(S("P"), 1, {V("x")})),
             FoNot(FoAtom(S("P"), 1, {V("y")}))}));
  EXPECT_TRUE(EvalFo(f, db));
}

TEST(FoEvalTest, PinningEqualities) {
  Database db = Db("R(a | b)");
  // ∃x (x = 'a' ∧ ∃y R(x, y)) — x pinned by equality, y by the atom.
  FoPtr f = FoExists(
      {S("x")},
      FoAnd({FoEquals(V("x"), C("a")),
             FoExists({S("y")}, FoAtom(S("R"), 1, {V("x"), V("y")}))}));
  EXPECT_TRUE(EvalFo(f, db));
  FoPtr g = FoExists(
      {S("x")},
      FoAnd({FoEquals(V("x"), C("zz")),
             FoExists({S("y")}, FoAtom(S("R"), 1, {V("x"), V("y")}))}));
  EXPECT_FALSE(EvalFo(g, db));
}

TEST(FoEvalTest, Example45RewritingShape) {
  // The hand-written rewriting of Example 4.5 for q3 = {P(x|y), ¬N(c|y)}:
  // ∃x∃y P(x,y) ∧ ∀z (N(c,z) → ∃x (∃y P(x,y) ∧ ∀w (P(x,w) → w ≠ z))).
  FoPtr inner = FoExists(
      {S("x")},
      FoAnd({FoExists({S("y")}, FoAtom(S("P"), 1, {V("x"), V("y")})),
             FoForall({S("w")},
                      FoImplies(FoAtom(S("P"), 1, {V("x"), V("w")}),
                                FoNotEquals(V("w"), V("z"))))}));
  FoPtr phi = FoAnd(
      {FoExists({S("x"), S("y")}, FoAtom(S("P"), 1, {V("x"), V("y")})),
       FoForall({S("z")},
                FoImplies(FoAtom(S("N"), 1, {C("c"), V("z")}), inner))});

  // P has a block where value 'b' does not occur => certain.
  Database yes = Db("P(k1 | a)\nP(k2 | b)\nN(c | b)");
  EXPECT_TRUE(EvalFo(phi, yes));
  // Every P-block contains b => some repair picks b everywhere => false.
  Database no = Db("P(k1 | b)\nP(k1 | a)\nN(c | b)");
  EXPECT_FALSE(EvalFo(phi, no));
  Database no2 = Db("N(c | b)");
  EXPECT_FALSE(EvalFo(phi, no2));  // no P-fact at all
}

TEST(FoEvalTest, ShadowedQuantifier) {
  Database db = Db("P(a)\nQ(b)");
  // ∃x (P(x) ∧ ∃x Q(x)) — inner x shadows outer.
  FoPtr f = FoExists(
      {S("x")},
      FoAnd({FoAtom(S("P"), 1, {V("x")}),
             FoExists({S("x")}, FoAtom(S("Q"), 1, {V("x")}))}));
  EXPECT_TRUE(EvalFo(f, db));
}

TEST(FoEvalTest, StepsCounterMoves) {
  Database db = Db("R(a | b)");
  FoEvaluator ev(db);
  EXPECT_TRUE(ev.Eval(FoExists(
      {S("x"), S("y")}, FoAtom(S("R"), 1, {V("x"), V("y")}))));
  EXPECT_GT(ev.steps(), 0u);
}

}  // namespace
}  // namespace cqa
