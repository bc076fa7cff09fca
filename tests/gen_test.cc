#include <gtest/gtest.h>

#include "cqa/attack/classification.h"
#include "cqa/gen/poll.h"
#include "cqa/gen/random_db.h"
#include "cqa/gen/random_query.h"
#include "cqa/query/parser.h"

namespace cqa {
namespace {

TEST(RandomDbTest, DeterministicForSeed) {
  Schema s;
  s.AddRelationOrDie("R", 2, 1);
  Rng a(5), b(5);
  Database da = GenerateRandomDatabase(s, {}, &a);
  Database db = GenerateRandomDatabase(s, {}, &b);
  EXPECT_EQ(da.ToString(), db.ToString());
}

TEST(RandomDbTest, RespectsKnobs) {
  Schema s;
  s.AddRelationOrDie("R", 3, 2);
  RandomDbOptions opts;
  opts.blocks_per_relation = 10;
  opts.min_block_size = 2;
  opts.max_block_size = 2;
  opts.domain_size = 50;  // large domain: block keys rarely collide
  Rng rng(7);
  Database db = GenerateRandomDatabase(s, opts, &rng);
  EXPECT_GT(db.NumFacts(), 10u);
  for (size_t b = 0; b < db.NumBlocks(); ++b) {
    // merges can at most double here
    EXPECT_LE(db.block(static_cast<int>(b)).size(), 4u);
  }
}

TEST(RandomDbTest, IncludesQueryConstants) {
  Result<Query> q = ParseQuery("N('c' | x), P(x | y)");
  ASSERT_TRUE(q.ok());
  Rng rng(11);
  bool saw_c = false;
  for (int i = 0; i < 30 && !saw_c; ++i) {
    Database db = GenerateRandomDatabaseFor(q.value(), {}, &rng);
    for (Value v : db.ActiveDomain()) {
      if (v == Value::Of("c")) saw_c = true;
    }
  }
  EXPECT_TRUE(saw_c);
}

TEST(RandomQueryTest, AlwaysValidAndGuarded) {
  Rng rng(13);
  RandomQueryOptions opts;
  for (int i = 0; i < 300; ++i) {
    Query q = GenerateRandomQuery(opts, &rng);
    EXPECT_GE(q.PositiveIndices().size(), 1u);
    EXPECT_TRUE(q.IsWeaklyGuarded()) << q.ToString();
    // Re-validating never fails.
    EXPECT_TRUE(Query::Make(q.literals()).ok());
  }
}

TEST(RandomQueryTest, ProducesBothClasses) {
  Rng rng(17);
  RandomQueryOptions opts;
  int fo = 0, hard = 0;
  for (int i = 0; i < 300; ++i) {
    Classification c = Classify(GenerateRandomQuery(opts, &rng));
    if (c.cls == CertaintyClass::kFO) ++fo;
    if (c.cls == CertaintyClass::kLHard || c.cls == CertaintyClass::kNLHard) {
      ++hard;
    }
  }
  EXPECT_GT(fo, 0);
  EXPECT_GT(hard, 0);
}

TEST(PollTest, SchemaAndQueriesConsistent) {
  Schema s = PollSchema();
  for (const Query& q : {PollQ1(), PollQ2(), PollQa(), PollQb()}) {
    Schema copy = s;
    EXPECT_TRUE(q.RegisterInto(&copy).ok()) << q.ToString();
  }
}

TEST(PollTest, GeneratedDataMatchesSchema) {
  Rng rng(19);
  PollDbOptions opts;
  opts.num_persons = 20;
  opts.num_towns = 5;
  Database db = GeneratePollDatabase(opts, &rng);
  EXPECT_GE(db.NumFacts(InternSymbol("Born")), 20u);
  EXPECT_GE(db.NumFacts(InternSymbol("Lives")), 20u);
  EXPECT_GE(db.NumFacts(InternSymbol("Mayor")), 5u);
  // With inconsistency 0.3 and 45+ draws, some block should be violated.
  EXPECT_FALSE(db.IsConsistent());
  // Likes is all-key, hence always consistent on its own.
  for (const Database::Block& b : db.BlocksOf(InternSymbol("Likes"))) {
    EXPECT_EQ(b.size(), 1u);
  }
}

TEST(PollTest, ZeroInconsistencyIsConsistent) {
  Rng rng(23);
  PollDbOptions opts;
  opts.inconsistency = 0.0;
  Database db = GeneratePollDatabase(opts, &rng);
  EXPECT_TRUE(db.IsConsistent());
}

}  // namespace
}  // namespace cqa
