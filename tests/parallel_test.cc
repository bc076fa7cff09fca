// Differential parity suite for component-decomposed parallel solving
// (cqa/parallel/): on every instance the parallel solver — at any pool
// width — must return exactly the sequential engine's verdict. Also pins
// the decomposer's component-count properties, the block-index reuse
// contract across the component split, and the service-level parallel
// accounting counters.

#include <gtest/gtest.h>

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cqa/base/rng.h"
#include "cqa/cache/fingerprint.h"
#include "cqa/certainty/solver.h"
#include "cqa/db/database.h"
#include "cqa/gen/families.h"
#include "cqa/gen/random_db.h"
#include "cqa/gen/random_query.h"
#include "cqa/parallel/decompose.h"
#include "cqa/parallel/parallel_solver.h"
#include "cqa/query/parser.h"
#include "cqa/serve/service.h"

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
  return std::move(db.value());
}

// Solves sequentially and at the given widths; every exact verdict must
// match. Returns the number of instances actually compared (instances
// where the sequential engine exhausted a safety budget are skipped — the
// parallel budget split legitimately differs in *where* it runs out, only
// verdicts of completed solves are comparable).
int ExpectParity(const Query& q, const Database& db, SolverMethod method,
                 const std::string& label) {
  SolveOptions seq;
  seq.method = method;
  seq.parallelism = 1;
  seq.degrade_to_sampling = false;
  Budget seq_budget = Budget::WithMaxSteps(2'000'000);
  seq.budget = &seq_budget;
  Result<SolveReport> sequential = SolveCertainty(q, db, seq);
  if (!sequential.ok()) return 0;  // budget-limited instance: no oracle
  for (int width : {2, 8}) {
    SolveOptions par = seq;
    Budget par_budget = Budget::WithMaxSteps(8'000'000);
    par.budget = &par_budget;
    par.parallelism = width;
    Result<SolveReport> parallel = SolveCertainty(q, db, par);
    EXPECT_TRUE(parallel.ok())
        << label << " width " << width << ": "
        << (parallel.ok() ? "" : parallel.error());
    if (!parallel.ok()) return 0;
    EXPECT_EQ(parallel->certain, sequential->certain)
        << label << " diverged at width " << width;
    EXPECT_EQ(parallel->verdict, sequential->verdict)
        << label << " diverged at width " << width;
    EXPECT_EQ(parallel->parallelism, width) << label;
  }
  return 1;
}

// ---------------------------------------------------------------------------
// The 1000+-instance differential sweep

TEST(ParallelDifferentialTest, RandomInstancesAgreeAcrossWidths) {
  RandomQueryOptions qopts;
  RandomDbOptions small;
  small.blocks_per_relation = 3;
  small.max_block_size = 2;
  int compared = 0;
  for (uint64_t seed = 1; seed <= 420; ++seed) {
    Rng rng(0x9a11e7 + seed * 0x9e3779b97f4a7c15ull);
    Query q = GenerateRandomQuery(qopts, &rng);
    Database db = GenerateRandomDatabaseFor(q, small, &rng);
    compared += ExpectParity(q, db, SolverMethod::kBacktracking,
                             "random seed " + std::to_string(seed));
    if (HasFailure()) return;  // one diverging instance is enough output
  }
  // The generator families, across sizes and both tail polarities.
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(0xfa111e5 + seed);
    std::vector<Query> family = {
        ChainQuery(2, seed % 2 == 0), ChainQuery(3, seed % 2 == 1),
        CycleQuery(2 + static_cast<int>(seed % 3)),
        StarQuery(1 + static_cast<int>(seed % 4))};
    for (size_t f = 0; f < family.size(); ++f) {
      Database db = GenerateRandomDatabaseFor(family[f], small, &rng);
      compared += ExpectParity(
          family[f], db, SolverMethod::kBacktracking,
          "family " + std::to_string(f) + " seed " + std::to_string(seed));
      if (HasFailure()) return;
    }
  }
  // Adversarial pigeonhole instances (coNP-hard shape, certain) and the
  // naive oracle on a tiny slice of the random stream.
  for (int k = 2; k <= 5; ++k) {
    compared += ExpectParity(PigeonholeCyclicQuery(), PigeonholeDatabase(k),
                             SolverMethod::kBacktracking,
                             "pigeonhole k=" + std::to_string(k));
    if (HasFailure()) return;
  }
  RandomDbOptions tiny;
  tiny.blocks_per_relation = 2;
  tiny.max_block_size = 2;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(0xdead5eed + seed);
    Query q = GenerateRandomQuery(qopts, &rng);
    Database db = GenerateRandomDatabaseFor(q, tiny, &rng);
    compared += ExpectParity(q, db, SolverMethod::kNaive,
                             "naive seed " + std::to_string(seed));
    if (HasFailure()) return;
  }
  // 420 random + 240 family + 4 pigeonhole + 40 naive = 704 instances,
  // each solved at widths {1, 2, 8} = 2112 solves; the sweep must not
  // degenerate into skipping everything via the budget escape hatch.
  EXPECT_GE(compared, 500) << "differential sweep lost its instances";
}

// ---------------------------------------------------------------------------
// Component-count properties of the decomposer

TEST(ParallelDecomposeTest, ValueDisjointSingletonBlocksDecomposeFully) {
  // Five value-disjoint R-blocks with their S mirrors: five components.
  Database db = Db(
      "R('a1' | 'b1'), S('b1' | 'a1'), "
      "R('a2' | 'b2'), S('b2' | 'a2'), "
      "R('a3' | 'b3'), S('b3' | 'a3'), "
      "R('a4' | 'b4'), S('b4' | 'a4'), "
      "R('a5' | 'b5'), S('b5' | 'a5')");
  Query q = Q("R(x | y), not S(y | x)");
  ASSERT_TRUE(DataDecomposable(q));
  std::vector<DataComponent> components = DecomposeData(q, db);
  EXPECT_EQ(components.size(), 5u);
  for (const DataComponent& c : components) {
    EXPECT_EQ(c.blocks, 2u);
    EXPECT_EQ(c.facts, 2u);
  }
  ParallelOptions popts;
  popts.parallelism = 4;
  Result<ParallelReport> report = SolveCertainParallel(q, db, popts);
  ASSERT_TRUE(report.ok()) << report.error();
  EXPECT_EQ(report->components, 5);
  EXPECT_TRUE(report->decomposed);
}

TEST(ParallelDecomposeTest, SharedValuesMergeIntoOneComponent) {
  // Every block shares the value 'h' through S — one component, and a
  // negated relation's blocks participate in value-connectivity.
  Database db = Db(
      "R('a1' | 'h'), S('h' | 'a1'), "
      "R('a2' | 'h'), S('h' | 'a2'), "
      "R('a3' | 'h')");
  Query q = Q("R(x | y), not S(y | x)");
  std::vector<DataComponent> components = DecomposeData(q, db);
  EXPECT_EQ(components.size(), 1u);
}

TEST(ParallelDecomposeTest, QueryJoiningEverythingStaysOneGroup) {
  // Chain-joined positive atoms: the query-level split finds one group.
  QuerySplit joined = SplitQueryConnected(ChainQuery(4, true));
  EXPECT_FALSE(joined.split);
  EXPECT_EQ(joined.subqueries.size(), 1u);
  // Two variable-disjoint groups split; self-join-freeness keeps their
  // relation sets disjoint so the AND rule applies.
  QuerySplit split = SplitQueryConnected(Q("R(x | y), S(u | v)"));
  EXPECT_TRUE(split.split);
  EXPECT_EQ(split.subqueries.size(), 2u);
}

TEST(ParallelDecomposeTest, DisequalitiesAndGroundLiteralsBlockDataSplit) {
  EXPECT_FALSE(DataDecomposable(Q("R(x | y), not S(y | x), x != y")));
  // A ground negated literal can be falsified from any component.
  EXPECT_FALSE(DataDecomposable(Q("R(x | y), not S('c' | 'd')")));
  // Positive literals connected only through a negated atom: unsound OR.
  EXPECT_FALSE(DataDecomposable(Q("R(x | u), S(y | v), not N(x, y)")));
}

// ---------------------------------------------------------------------------
// Block-index reuse across the component split

TEST(ParallelIndexTest, ComponentSplitBuildsEachSubIndexExactlyOnce) {
  // Each component sub-database is built once, at decomposition, with its
  // block index maintained as its facts go in — complete before any task
  // runs. The decomposer is its only owner, so the solver tasks borrow it
  // rather than copy it, and solving never writes to the parent.
  Database db = Db(
      "R('a1' | 'b1'), S('b1' | 'a1'), "
      "R('a2' | 'b2'), S('b2' | 'a2'), "
      "R('a3' | 'b3'), S('b3' | 'a3'), "
      "R('a4' | 'b4'), S('b4' | 'a4')");
  Query q = Q("R(x | y), not S(y | x)");
  Symbol r = InternSymbol("R");
  Symbol s = InternSymbol("S");
  std::vector<DataComponent> components = DecomposeData(q, db);
  ASSERT_EQ(components.size(), 4u);
  size_t facts = 0;
  for (const DataComponent& c : components) {
    EXPECT_EQ(c.db.use_count(), 1);
    EXPECT_EQ(c.db->NumBlocks(), c.blocks);
    EXPECT_EQ(c.db->NumFacts(), c.facts);
    EXPECT_EQ(c.db->BlocksOf(r).size() + c.db->BlocksOf(s).size(), c.blocks);
    EXPECT_NE(c.db->FactsOf(r).data(), db.FactsOf(r).data());
    facts += c.facts;
  }
  EXPECT_EQ(facts, db.NumFacts());

  const Tuple* parent_r = db.FactsOf(r).data();
  const DbFingerprint parent_fp = FingerprintDatabase(db);
  ParallelOptions popts;
  popts.parallelism = 8;
  Result<ParallelReport> first = SolveCertainParallel(q, db, popts);
  ASSERT_TRUE(first.ok()) << first.error();
  EXPECT_EQ(first->components, 4);
  Result<ParallelReport> second = SolveCertainParallel(q, db, popts);
  ASSERT_TRUE(second.ok()) << second.error();
  EXPECT_EQ(second->certain, first->certain);
  EXPECT_EQ(db.FactsOf(r).data(), parent_r);
  EXPECT_EQ(FingerprintDatabase(db), parent_fp);
}

// ---------------------------------------------------------------------------
// Service accounting

TEST(ParallelServiceTest, StatsCountParallelSolves) {
  auto db = std::make_shared<const Database>(Db(
      "R('a1' | 'b1'), S('b1' | 'a1'), "
      "R('a2' | 'b2'), S('b2' | 'a2'), "
      "R('a3' | 'b3'), S('b3' | 'a3')"));
  ServiceOptions options;
  options.workers = 2;
  options.parallelism = 4;  // service default; jobs leave theirs at 0
  SolveService service(options);
  std::mutex mu;
  std::vector<ServeResponse> responses;
  for (int i = 0; i < 3; ++i) {
    ServeJob job(Q("R(x | y), not S(y | x)"), db);
    job.method = SolverMethod::kBacktracking;
    ASSERT_TRUE(service
                    .Submit(std::move(job),
                            [&](const ServeResponse& r) {
                              std::lock_guard<std::mutex> lock(mu);
                              responses.push_back(r);
                            })
                    .ok());
  }
  EXPECT_TRUE(service.Shutdown(std::chrono::milliseconds(30'000)));
  ASSERT_EQ(responses.size(), 3u);
  for (const ServeResponse& r : responses) {
    ASSERT_TRUE(r.result.ok()) << r.result.error();
    EXPECT_EQ(r.result->components, 3);
    EXPECT_EQ(r.result->parallelism, 4);
  }
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.parallel_solves, 3u);
  EXPECT_EQ(stats.components_found, 9u);
}

}  // namespace
}  // namespace cqa
