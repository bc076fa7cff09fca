#include <gtest/gtest.h>

#include <algorithm>

#include "cqa/db/database.h"

namespace cqa {
namespace {

// The inconsistent girls/boys database of Figure 1.
Database Figure1Db() {
  Result<Database> db = Database::FromText(R"(
    R(alice | bob),   R(alice | george)
    R(maria | bob),   R(maria | john)
    S(bob | alice),   S(bob | maria)
    S(george | alice), S(george | maria)
  )");
  EXPECT_TRUE(db.ok()) << (db.ok() ? "" : db.error());
  return db.value();
}

TEST(DatabaseTest, Figure1BlocksAndCounts) {
  Database db = Figure1Db();
  EXPECT_EQ(db.NumFacts(), 8u);
  EXPECT_EQ(db.NumBlocks(), 4u);
  EXPECT_FALSE(db.IsConsistent());
  EXPECT_EQ(db.CountRepairs(), 16u);
  for (size_t b = 0; b < db.NumBlocks(); ++b) {
    EXPECT_EQ(db.block(static_cast<int>(b)).size(), 2u);
  }
}

TEST(DatabaseTest, SetSemanticsDeduplicates) {
  Schema s;
  s.AddRelationOrDie("R", 2, 1);
  Database db(s);
  EXPECT_TRUE(db.AddFact("R", {Value::Of("a"), Value::Of("b")}).value());
  EXPECT_FALSE(db.AddFact("R", {Value::Of("a"), Value::Of("b")}).value());
  EXPECT_EQ(db.NumFacts(), 1u);
  EXPECT_TRUE(db.IsConsistent());
}

TEST(DatabaseTest, AddFactValidation) {
  Schema s;
  s.AddRelationOrDie("R", 2, 1);
  Database db(s);
  EXPECT_FALSE(db.AddFact("Unknown", {Value::Of("a")}).ok());
  EXPECT_FALSE(db.AddFact("R", {Value::Of("a")}).ok());  // arity mismatch
}

TEST(DatabaseTest, ContainsAndBlockOf) {
  Database db = Figure1Db();
  Symbol r = InternSymbol("R");
  EXPECT_TRUE(db.Contains(r, {Value::Of("alice"), Value::Of("bob")}));
  EXPECT_FALSE(db.Contains(r, {Value::Of("alice"), Value::Of("john")}));
  std::optional<int> b1 = db.BlockOf(r, {Value::Of("alice"), Value::Of("bob")});
  std::optional<int> b2 =
      db.BlockOf(r, {Value::Of("alice"), Value::Of("george")});
  ASSERT_TRUE(b1.has_value());
  EXPECT_EQ(*b1, *b2);  // key-equal facts share a block
  EXPECT_FALSE(
      db.BlockOf(r, {Value::Of("alice"), Value::Of("john")}).has_value());
}

TEST(DatabaseTest, RemoveFactRebuildsBlocks) {
  Database db = Figure1Db();
  Symbol r = InternSymbol("R");
  EXPECT_TRUE(db.RemoveFact(r, {Value::Of("alice"), Value::Of("george")}));
  EXPECT_FALSE(db.RemoveFact(r, {Value::Of("alice"), Value::Of("george")}));
  EXPECT_EQ(db.NumFacts(), 7u);
  EXPECT_EQ(db.CountRepairs(), 8u);
}

TEST(DatabaseTest, ActiveDomain) {
  Database db = Figure1Db();
  std::vector<Value> adom = db.ActiveDomain();
  EXPECT_EQ(adom.size(), 5u);  // alice, maria, bob, george, john
  EXPECT_NE(std::find(adom.begin(), adom.end(), Value::Of("john")),
            adom.end());
}

TEST(DatabaseTest, AddAllMergesAndChecksSchema) {
  Database a = Figure1Db();
  Schema s;
  s.AddRelationOrDie("T", 1, 1);
  Database b(s);
  b.AddFactOrDie("T", {Value::Of("x")});
  ASSERT_TRUE(b.AddAll(a).ok());
  EXPECT_EQ(b.NumFacts(), 9u);

  Schema conflicting;
  conflicting.AddRelationOrDie("R", 3, 2);
  Database c(conflicting);
  EXPECT_FALSE(c.AddAll(a).ok());
}

TEST(DatabaseTest, CountRepairsCaps) {
  Schema s;
  s.AddRelationOrDie("R", 2, 1);
  Database db(s);
  for (int k = 0; k < 40; ++k) {
    for (int i = 0; i < 4; ++i) {
      db.AddFactOrDie("R", {Value::Of("k" + std::to_string(k)),
                            Value::Of("v" + std::to_string(i))});
    }
  }
  // 4^40 overflows; capped.
  EXPECT_EQ(db.CountRepairs(1000), 1000u);
}

TEST(DatabaseTest, FromTextInconsistentSignatureFails) {
  EXPECT_FALSE(Database::FromText("R(a | b)\nR(a, b)").ok());
}

}  // namespace
}  // namespace cqa
