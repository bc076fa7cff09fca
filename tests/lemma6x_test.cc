// Direct tests for the Section 6 machinery: Lemma 6.2 (fully ground negated
// atoms), Lemma 6.5 (variable-free keys via disequalities), Lemma 6.8 /
// Corollary 6.9 (reifiability of unattacked variables), and the counting
// connection (#satisfying == #repairs iff certain).

#include <gtest/gtest.h>

#include "cqa/attack/attack_graph.h"
#include "cqa/certainty/naive.h"
#include "cqa/db/eval.h"
#include "cqa/db/repairs.h"
#include "cqa/gen/random_db.h"
#include "cqa/gen/random_query.h"
#include "cqa/query/parser.h"

namespace cqa {
namespace {

Query Q(const char* text) {
  Result<Query> q = ParseQuery(text);
  EXPECT_TRUE(q.ok()) << (q.ok() ? "" : q.error());
  return q.value();
}

// Lemma 6.2: for ¬N ground, q certain iff N ∉ db and q \ {¬N} certain.
TEST(Lemma62Test, GroundNegatedAtomElimination) {
  Rng rng(1501);
  Query q = Q("P(x | y), not N('k' | 'v')");
  Query q_rest = Q("P(x | y)");
  RandomDbOptions opts;
  opts.domain_size = 3;
  for (int trial = 0; trial < 150; ++trial) {
    Database db = GenerateRandomDatabaseFor(q, opts, &rng);
    if (rng.Chance(0.5)) {
      db.AddFactOrDie("N", {Value::Of("k"), Value::Of("v")});
    }
    bool n_in_db =
        db.Contains(InternSymbol("N"), {Value::Of("k"), Value::Of("v")});
    bool lhs = IsCertainNaive(q, db).value();
    bool rhs = !n_in_db && IsCertainNaive(q_rest, db).value();
    ASSERT_EQ(lhs, rhs) << db.ToString();
  }
}

// Lemma 6.5: for ¬N with ground key, q certain iff q\{¬N} certain and, for
// every matching N-fact with values b̄, (q \ {¬N}) ∪ {ȳ ≠ b̄} certain.
TEST(Lemma65Test, VariableFreeKeyElimination) {
  Rng rng(1511);
  Query q = Q("P(x | y), not N('k' | y)");
  Query q_rest = Q("P(x | y)");
  RandomDbOptions opts;
  opts.domain_size = 3;
  for (int trial = 0; trial < 150; ++trial) {
    Database db = GenerateRandomDatabaseFor(q, opts, &rng);
    bool lhs = IsCertainNaive(q, db).value();

    bool rhs = IsCertainNaive(q_rest, db).value();
    if (rhs) {
      db.ForEachFact(InternSymbol("N"), [&](const Tuple& t) {
        if (t[0] != Value::Of("k")) return true;
        Query q_ne = q_rest.WithDiseq(
            Diseq{{Term::Var("y")}, {Term::Const(t[1].name())}});
        if (!IsCertainNaive(q_ne, db).value()) {
          rhs = false;
          return false;
        }
        return true;
      });
    }
    ASSERT_EQ(lhs, rhs) << db.ToString();
  }
}

// Lemma 6.8 (special case exercised directly): swapping a key-relevant fact
// of an atom G that does not attack X preserves the X-restricted witnesses.
TEST(Lemma68Test, KeyRelevantSwapPreservesRestrictedWitnesses) {
  Rng rng(1523);
  RandomQueryOptions qopts;
  qopts.constant_prob = 0.0;
  RandomDbOptions dopts;
  dopts.blocks_per_relation = 3;
  dopts.domain_size = 3;
  int exercised = 0;
  for (int trial = 0; trial < 400 && exercised < 60; ++trial) {
    Query q = GenerateRandomQuery(qopts, &rng);
    AttackGraph graph(q);
    Database db = GenerateRandomDatabaseFor(q, dopts, &rng);

    // Pick a repair r and an atom G; X := variables G does not attack.
    Repair r = RandomRepair(db, &rng);
    for (size_t g = 0; g < q.NumLiterals(); ++g) {
      SymbolSet x_set = q.Vars().Minus(graph.reachable_vars(g));
      if (x_set.empty()) continue;
      // A key-relevant G-fact A in r and a key-equal alternative B.
      std::vector<Fact> relevant = KeyRelevantFacts(q, g, r);
      if (relevant.empty()) continue;
      const Fact& a = relevant[0];
      std::optional<int> block = db.BlockOf(a.relation, a.values);
      ASSERT_TRUE(block.has_value());
      const Database::Block& blk = db.block(*block);
      if (blk.size() < 2) continue;
      ++exercised;
      for (size_t c = 0; c < blk.size(); ++c) {
        const Tuple& b = db.BlockFact(*block, c);
        if (b == a.values) continue;
        // r_B := (r \ {A}) ∪ {B} via choice flipping.
        std::vector<int> choices = r.choices();
        choices[static_cast<size_t>(*block)] = static_cast<int>(c);
        Repair rb(&db, choices);
        // Lemma 6.8: every X-restriction of a witness of r_B is also an
        // X-restriction of a witness of r.
        ForEachWitness(q, rb, {}, [&](const Valuation& zeta_full) {
          Valuation zeta;
          for (Symbol xv : x_set) {
            auto it = zeta_full.find(xv);
            if (it != zeta_full.end()) zeta.emplace(xv, it->second);
          }
          EXPECT_TRUE(Satisfies(q, r, zeta))
              << q.ToString() << "\natom " << g << "\n" << db.ToString();
          return true;
        });
      }
      break;
    }
  }
  EXPECT_GE(exercised, 30);
}

// Corollary 6.9 (reification): for weakly-guarded q with certain db, the
// unattacked key variables admit a single constant assignment that keeps
// the substituted query certain in every repair.
TEST(Corollary69Test, UnattackedVariablesAreReifiable) {
  Rng rng(1531);
  RandomQueryOptions qopts;
  qopts.constant_prob = 0.0;
  RandomDbOptions dopts;
  dopts.blocks_per_relation = 2;
  dopts.max_block_size = 2;
  dopts.domain_size = 3;
  int certain_seen = 0;
  for (int trial = 0; trial < 600 && certain_seen < 40; ++trial) {
    Query q = GenerateRandomQuery(qopts, &rng);
    AttackGraph graph(q);
    SymbolSet unattacked = q.Vars().Minus(graph.AttackedVars());
    if (unattacked.empty()) continue;
    Database db = GenerateRandomDatabaseFor(q, dopts, &rng);
    if (!IsCertainNaive(q, db).value()) continue;
    ++certain_seen;
    // Try all constants of the active domain for the first unattacked var.
    Symbol x = unattacked.items()[0];
    bool reified = false;
    for (Value c : db.ActiveDomain()) {
      if (IsCertainNaive(q.Substituted(x, c), db).value()) {
        reified = true;
        break;
      }
    }
    EXPECT_TRUE(reified) << q.ToString() << "\nvariable "
                         << SymbolName(x) << "\n" << db.ToString();
  }
  EXPECT_GE(certain_seen, 20);
}

// Counting connection: q certain iff every repair satisfies it.
TEST(CountingTest, CertainIffAllRepairsSatisfy) {
  Rng rng(1543);
  RandomQueryOptions qopts;
  RandomDbOptions dopts;
  dopts.blocks_per_relation = 2;
  for (int trial = 0; trial < 100; ++trial) {
    Query q = GenerateRandomQuery(qopts, &rng);
    Database db = GenerateRandomDatabaseFor(q, dopts, &rng);
    Result<RepairCount> rc = CountSatisfyingRepairs(q, db);
    ASSERT_TRUE(rc.ok());
    bool certain = IsCertainNaive(q, db).value();
    EXPECT_EQ(certain, rc->satisfying == rc->total);
    EXPECT_EQ(rc->total, db.CountRepairs());
  }
}

}  // namespace
}  // namespace cqa
