#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_set>
#include <vector>

#include "cqa/answers/cursor.h"
#include "cqa/answers/enumerator.h"
#include "cqa/base/crc32c.h"
#include "cqa/base/rng.h"
#include "cqa/certainty/certain_answers.h"
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

Database Db(const char* text) {
  Result<Database> db = Database::FromText(text);
  EXPECT_TRUE(db.ok()) << (db.ok() ? "" : db.error());
  return db.value();
}

// Drives the enumerator to completion with the given chunk size and
// returns the concatenated answers (asserting span bookkeeping on the
// way: chunks tile [0, total) with no gaps and no overlaps).
std::vector<Tuple> Drain(const Query& q, const std::vector<Symbol>& vars,
                         const Database& db, uint64_t max_chunk,
                         SolverMethod method = SolverMethod::kAuto) {
  std::vector<Tuple> out;
  EnumerateOptions opts;
  opts.max_chunk = max_chunk;
  opts.method = method;
  for (int guard = 0; guard < 100'000; ++guard) {
    Result<AnswerChunk> chunk = EnumerateAnswerChunk(q, vars, db, opts);
    EXPECT_TRUE(chunk.ok()) << chunk.error();
    if (!chunk.ok()) return out;
    EXPECT_EQ(chunk->start, opts.start);
    EXPECT_FALSE(chunk->exhausted);
    out.insert(out.end(), chunk->answers.begin(), chunk->answers.end());
    if (chunk->done) {
      EXPECT_EQ(chunk->next, chunk->total);
      return out;
    }
    EXPECT_LT(chunk->start, chunk->next);
    opts.start = chunk->next;
  }
  ADD_FAILURE() << "enumeration did not terminate";
  return out;
}

TEST(AnswerEnumeratorTest, ChunkConcatenationMatchesOneShot) {
  Query q = Q("P(x | y), not N(x | y)");
  Symbol x = InternSymbol("x");
  Rng rng(4201);
  RandomDbOptions opts;
  opts.blocks_per_relation = 5;
  opts.domain_size = 4;
  for (int trial = 0; trial < 20; ++trial) {
    Database db = GenerateRandomDatabaseFor(q, opts, &rng);
    Result<CertainAnswers> one_shot = ComputeCertainAnswers(q, {x}, db);
    ASSERT_TRUE(one_shot.ok()) << one_shot.error();
    // One-shot answers sorted canonically (the enumerator's order).
    std::vector<Tuple> expected = one_shot->answers;
    std::sort(expected.begin(), expected.end(),
              [](const Tuple& a, const Tuple& b) {
                return a[0].name() < b[0].name();
              });
    for (uint64_t chunk_size : {1u, 2u, 3u, 7u, 64u}) {
      EXPECT_EQ(Drain(q, {x}, db, chunk_size), expected)
          << "chunk size " << chunk_size << "\n" << db.ToString();
    }
  }
}

TEST(AnswerEnumeratorTest, MultiVariableCanonicalOrder) {
  // Two free variables: answers must come out lexicographically by
  // (x spelling, y spelling), the first free var most significant.
  Query q = Q("R(x | y), not S(x | y)");
  Database db = Db(R"(
    R(b | v2), R(a | v1)
    R(d | v2), R(c | v1)
    S(zz | zz)
  )");
  Symbol x = InternSymbol("x"), y = InternSymbol("y");
  std::vector<Tuple> got = Drain(q, {x, y}, db, 1);
  ASSERT_EQ(got.size(), 4u);
  std::vector<Tuple> sorted = got;
  std::sort(sorted.begin(), sorted.end(), [](const Tuple& a, const Tuple& b) {
    if (a[0].name() != b[0].name()) return a[0].name() < b[0].name();
    return a[1].name() < b[1].name();
  });
  EXPECT_EQ(got, sorted);
  // Swapping the free-variable order changes the major sort key.
  std::vector<Tuple> swapped = Drain(q, {y, x}, db, 2);
  ASSERT_EQ(swapped.size(), 4u);
  EXPECT_EQ(swapped[0][0].name(), "v1");
}

// The two-variable shape R(x | y), not S(y | x) on n R-blocks of two
// facts plus n S facts: the join has 2n tuples, while the product of the
// x and y columns has 2n² (n x-values times 2n y-values).
TEST(AnswerEnumeratorTest, TwoVariableShapeChecksLinearCandidates) {
  constexpr int kBlocks = 300;
  std::string facts;
  for (int i = 0; i < kBlocks; ++i) {
    const std::string n = std::to_string(i);
    facts += "R(a" + n + " | b" + n + "), R(a" + n + " | c" + n + "), S(b" +
             n + " | a" + n + ")\n";
  }
  Database db = Db(facts.c_str());
  Query q = Q("R(x | y), not S(y | x)");
  const std::vector<Symbol> xy = {InternSymbol("x"), InternSymbol("y")};
  Result<CertainAnswers> one_shot = ComputeCertainAnswers(q, xy, db);
  ASSERT_TRUE(one_shot.ok()) << one_shot.error();
  EXPECT_EQ(one_shot->candidates, 2u * kBlocks);
  // Neither fact of a two-fact block is in every repair.
  EXPECT_TRUE(one_shot->answers.empty());
  Result<CertainAnswers> rewritten = CertainAnswersByRewriting(q, xy, db);
  ASSERT_TRUE(rewritten.ok()) << rewritten.error();
  EXPECT_EQ(rewritten->candidates, 2u * kBlocks);
  Result<AnswerChunk> chunk = EnumerateAnswerChunk(q, xy, db, {});
  ASSERT_TRUE(chunk.ok()) << chunk.error();
  EXPECT_EQ(chunk->total, 2u * kBlocks);
  EXPECT_TRUE(chunk->done);
}

TEST(AnswerEnumeratorTest, StartBeyondSpaceIsTyped) {
  Query q = Q("P(x | y), not N(x | y)");
  Database db = Db("P(k1 | a)");
  EnumerateOptions opts;
  opts.start = 99;  // candidate space has exactly one position
  Result<AnswerChunk> chunk =
      EnumerateAnswerChunk(q, {InternSymbol("x")}, db, opts);
  ASSERT_FALSE(chunk.ok());
  EXPECT_EQ(chunk.code(), ErrorCode::kParse);
}

TEST(AnswerEnumeratorTest, SamplingMethodRejected) {
  Query q = Q("P(x | y), not N(x | y)");
  Database db = Db("P(k1 | a)");
  EnumerateOptions opts;
  opts.method = SolverMethod::kSampling;
  Result<AnswerChunk> chunk =
      EnumerateAnswerChunk(q, {InternSymbol("x")}, db, opts);
  ASSERT_FALSE(chunk.ok());
  EXPECT_EQ(chunk.code(), ErrorCode::kUnsupported);
}

TEST(AnswerEnumeratorTest, FreeVarWithoutPositiveOccurrenceRejected) {
  Query q = Q("P(x | y), not N(x | y)");
  Database db = Db("P(k1 | a)");
  Result<AnswerChunk> chunk =
      EnumerateAnswerChunk(q, {InternSymbol("zonk")}, db, {});
  ASSERT_FALSE(chunk.ok());
  EXPECT_EQ(chunk.code(), ErrorCode::kUnsupported);
}

TEST(AnswerEnumeratorTest, BudgetPartialChunkIsMarkedExhausted) {
  Query q = Q("P(x | y), not N(x | y)");
  Database db = Db("P(k1 | a), P(k2 | a), P(k3 | a), P(k4 | a)");
  // Force exhaustion at every probe site in turn. Each run must end in
  // exactly one of: a typed error with nothing decided, a
  // correct-but-partial chunk marked `exhausted`, or (once the trip
  // point lies past the workload) a complete chunk — never a silently
  // short result.
  bool saw_partial = false;
  for (uint64_t trip = 1; trip < 64; ++trip) {
    Budget budget;
    budget.faults.fail_after_probes = trip;
    EnumerateOptions opts;
    opts.max_chunk = 64;
    Result<AnswerChunk> chunk =
        EnumerateAnswerChunk(q, {InternSymbol("x")}, db, opts, &budget);
    if (!chunk.ok()) {
      EXPECT_TRUE(IsResourceExhaustion(chunk.code())) << chunk.error();
      continue;
    }
    // The decided prefix is always the true prefix, full or partial.
    ASSERT_LE(chunk->answers.size(), 4u);
    for (size_t i = 0; i < chunk->answers.size(); ++i) {
      EXPECT_EQ(chunk->answers[i][0].name(), "k" + std::to_string(i + 1));
    }
    if (chunk->exhausted) {
      saw_partial = true;
      EXPECT_FALSE(chunk->done);
      EXPECT_GT(chunk->next, 0u);
      EXPECT_LT(chunk->next, chunk->total);
    } else {
      EXPECT_TRUE(chunk->done);
      EXPECT_EQ(chunk->answers.size(), 4u);
    }
  }
  EXPECT_TRUE(saw_partial) << "no trip point produced a partial chunk";
}

TEST(AnswerEnumeratorTest, BudgetTrippedBeforeFirstCandidateIsTyped) {
  Query q = Q("P(x | y), not N(x | y)");
  Database db = Db("P(k1 | a)");
  Budget budget;
  budget.faults.fail_after_probes = 1;
  Result<AnswerChunk> chunk =
      EnumerateAnswerChunk(q, {InternSymbol("x")}, db, {}, &budget);
  ASSERT_FALSE(chunk.ok());
  EXPECT_TRUE(IsResourceExhaustion(chunk.code()));
}

TEST(AnswerCursorTest, RoundTrip) {
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    AnswerCursor cursor;
    cursor.position = rng.Next();
    cursor.query_hash = rng.Next();
    cursor.fingerprint.hi = rng.Next();
    cursor.fingerprint.lo = rng.Next();
    std::string text = EncodeAnswerCursor(cursor);
    EXPECT_EQ(text.size(), 76u);
    Result<AnswerCursor> back = DecodeAnswerCursor(text);
    ASSERT_TRUE(back.ok()) << back.error();
    EXPECT_EQ(back->position, cursor.position);
    EXPECT_EQ(back->query_hash, cursor.query_hash);
    EXPECT_TRUE(back->fingerprint == cursor.fingerprint);
  }
}

TEST(AnswerCursorTest, EveryCharacterCorruptionIsCaught) {
  AnswerCursor cursor;
  cursor.position = 12'345;
  cursor.query_hash = 0xdeadbeefcafef00dull;
  cursor.fingerprint.hi = 1;
  cursor.fingerprint.lo = 2;
  std::string text = EncodeAnswerCursor(cursor);
  for (size_t i = 0; i < text.size(); ++i) {
    std::string corrupt = text;
    corrupt[i] = corrupt[i] == 'f' ? '0' : 'f';
    if (corrupt == text) continue;
    Result<AnswerCursor> back = DecodeAnswerCursor(corrupt);
    EXPECT_FALSE(back.ok()) << "flip at " << i << " went undetected";
    if (!back.ok()) EXPECT_EQ(back.code(), ErrorCode::kParse);
  }
}

TEST(AnswerCursorTest, MalformedSpellingsAreTypedNotFatal) {
  AnswerCursor cursor;
  std::string good = EncodeAnswerCursor(cursor);
  const std::string hostile[] = {
      "",
      "cqa2",
      good.substr(0, 75),
      good + "0",
      "XXXX" + good.substr(4),
      std::string(76, 'g'),
      std::string(76, '\0'),
      "cqa2" + std::string(72, 'z'),
  };
  for (const std::string& text : hostile) {
    Result<AnswerCursor> back = DecodeAnswerCursor(text);
    ASSERT_FALSE(back.ok());
    EXPECT_EQ(back.code(), ErrorCode::kParse);
  }
}

// A cursor minted before positions indexed the join list: well formed,
// checksum intact, but its position means a place in another list. It
// must fail typed rather than resume there.
TEST(AnswerCursorTest, VersionOneCursorIsRefused) {
  AnswerCursor cursor;
  cursor.position = 3;
  cursor.query_hash = 0x0123456789abcdefull;
  std::string text = "cqa1" + EncodeAnswerCursor(cursor).substr(4, 64);
  uint32_t crc = Crc32c(text.data(), text.size());
  static const char kDigits[] = "0123456789abcdef";
  for (int shift = 28; shift >= 0; shift -= 4) {
    text.push_back(kDigits[(crc >> shift) & 0xf]);
  }
  ASSERT_EQ(text.size(), 76u);
  Result<AnswerCursor> back = DecodeAnswerCursor(text);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.code(), ErrorCode::kParse);
}

TEST(AnswerCursorTest, QueryHashSeparatesQueriesAndFreeOrders) {
  Query q1 = Q("P(x | y), not N(x | y)");
  Query q2 = Q("P(x | y), not M(x | y)");
  uint64_t h1 = AnswerQueryHash(q1, {"x"});
  EXPECT_NE(h1, AnswerQueryHash(q2, {"x"}));
  EXPECT_NE(h1, AnswerQueryHash(q1, {"y"}));
  EXPECT_NE(AnswerQueryHash(q1, {"x", "y"}), AnswerQueryHash(q1, {"y", "x"}));
  EXPECT_EQ(h1, AnswerQueryHash(Q("P(x | y), not N(x | y)"), {"x"}));
}

// Differential: the solver-backed answer set must agree with the
// first-order rewriting of Lemma 6.1 (free variables left free) on a few
// hundred random instances, and the chunked enumerator must agree with
// both under both methods.
TEST(AnswerDifferentialTest, SolverAgreesWithRewritingOnRandomInstances) {
  Rng rng(20'260'807);
  RandomQueryOptions qopts;
  qopts.max_positive = 2;
  qopts.max_negative = 2;
  qopts.max_arity = 2;
  qopts.num_vars = 3;
  RandomDbOptions dopts;
  dopts.blocks_per_relation = 3;
  dopts.domain_size = 3;
  int compared = 0;
  for (int trial = 0; trial < 600 && compared < 250; ++trial) {
    Query q = GenerateRandomQuery(qopts, &rng);
    // Free variables: every variable of the positive part (all have a
    // positive occurrence by construction).
    const SymbolSet positive_vars = q.PositiveVars();
    std::vector<Symbol> frees = positive_vars.items();
    if (frees.empty()) continue;
    Database db = GenerateRandomDatabaseFor(q, dopts, &rng);
    Result<CertainAnswers> by_rewriting =
        CertainAnswersByRewriting(q, frees, db);
    if (!by_rewriting.ok()) {
      // Outside the FO class (Theorem 4.3 with frees reified): only the
      // solver path applies; nothing to differentiate.
      ASSERT_EQ(by_rewriting.code(), ErrorCode::kUnsupported)
          << by_rewriting.error();
      continue;
    }
    Result<CertainAnswers> by_solver = ComputeCertainAnswers(q, frees, db);
    ASSERT_TRUE(by_solver.ok()) << by_solver.error();
    auto sorted = [](std::vector<Tuple> tuples) {
      std::sort(tuples.begin(), tuples.end());
      return tuples;
    };
    ASSERT_EQ(sorted(by_solver->answers), sorted(by_rewriting->answers))
        << q.ToString() << "\n" << db.ToString();
    // The streaming enumerator reproduces the same multiset in canonical
    // order under either decision engine.
    std::vector<Tuple> chunked = Drain(q, frees, db, 3);
    EXPECT_EQ(sorted(chunked), sorted(by_solver->answers))
        << q.ToString() << "\n" << db.ToString();
    EXPECT_EQ(Drain(q, frees, db, 5, SolverMethod::kRewriting), chunked)
        << q.ToString() << "\n" << db.ToString();
    ++compared;
  }
  // The generator parameters must actually exercise the rewriting class.
  EXPECT_GE(compared, 100) << "differential corpus too small";
}

// The candidate list before the positive join: each free variable ranges
// over the values of the first positive column it occurs in, and the
// candidates are the Cartesian product of those lists. It is a superset
// of the join, so deciding every product tuple finds every certain
// answer; kept here as the oracle for the join-based list.
std::vector<Tuple> ProductOfColumns(const Query& q,
                                    const std::vector<Symbol>& frees,
                                    const Database& db) {
  std::vector<Tuple> product(1);  // the product of no lists: one tuple
  for (Symbol v : frees) {
    std::vector<Value> column;
    bool found = false;
    for (const Literal& l : q.literals()) {
      if (l.negated) continue;
      for (int i = 0; i < l.atom.arity() && !found; ++i) {
        if (!l.atom.term(i).is_variable() || l.atom.term(i).var() != v) {
          continue;
        }
        found = true;
        std::unordered_set<Value, ValueHash> seen;
        db.ForEachFact(l.atom.relation(), [&](const Tuple& t) {
          Value value = t[static_cast<size_t>(i)];
          if (seen.insert(value).second) column.push_back(value);
          return true;
        });
      }
      if (found) break;
    }
    std::vector<Tuple> longer;
    for (const Tuple& prefix : product) {
      for (Value value : column) {
        longer.push_back(prefix);
        longer.back().push_back(value);
      }
    }
    product = std::move(longer);
  }
  return product;
}

bool SpellingLess(const Tuple& a, const Tuple& b) {
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return a[i].name() < b[i].name();
  }
  return false;
}

// Differential: on random queries with two or three free variables, the
// answers from the join candidates equal those found by solving every
// tuple of the column product with the naive repair enumerator, and the
// chunked enumerator tiles that list at every chunk size.
TEST(AnswerDifferentialTest, JoinCandidatesMatchColumnProductOracle) {
  Rng rng(20'261'019);
  RandomQueryOptions qopts;
  qopts.min_positive = 2;
  qopts.max_positive = 3;
  qopts.max_negative = 1;
  qopts.max_arity = 2;
  qopts.num_vars = 4;
  RandomDbOptions dopts;
  dopts.blocks_per_relation = 3;
  dopts.max_block_size = 2;
  dopts.domain_size = 3;
  int compared = 0, joins = 0, pruned = 0;
  for (int trial = 0; trial < 400 && compared < 150; ++trial) {
    Query q = GenerateRandomQuery(qopts, &rng);
    std::vector<Symbol> frees = q.PositiveVars().items();
    if (frees.size() < 2) continue;
    // Keep two or three free variables, in a random order.
    for (size_t i = frees.size(); i-- > 1;) {
      std::swap(frees[i], frees[rng.Below(i + 1)]);
    }
    frees.resize(std::min<size_t>(frees.size(), 2 + rng.Below(2)));
    Database db = GenerateRandomDatabaseFor(q, dopts, &rng);

    std::vector<Tuple> product = ProductOfColumns(q, frees, db);
    std::vector<Tuple> expected;
    for (const Tuple& tuple : product) {
      Query ground = q;
      for (size_t i = 0; i < frees.size(); ++i) {
        ground = ground.Substituted(frees[i], tuple[i]);
      }
      Result<SolveReport> r = SolveCertainty(ground, db, SolverMethod::kNaive);
      ASSERT_TRUE(r.ok()) << r.error();
      if (r->certain) expected.push_back(tuple);
    }
    std::sort(expected.begin(), expected.end(), SpellingLess);

    Result<std::vector<Tuple>> candidates =
        CertainAnswerCandidates(q, frees, db);
    ASSERT_TRUE(candidates.ok()) << candidates.error();
    ASSERT_TRUE(std::is_sorted(candidates->begin(), candidates->end(),
                               SpellingLess));
    for (const Tuple& c : *candidates) {
      ASSERT_NE(std::find(product.begin(), product.end(), c), product.end())
          << "join tuple outside the column product";
    }
    if (candidates->size() < product.size()) ++pruned;
    Result<CertainAnswers> one_shot = ComputeCertainAnswers(q, frees, db);
    ASSERT_TRUE(one_shot.ok()) << one_shot.error();
    EXPECT_EQ(one_shot->candidates, candidates->size());
    ASSERT_EQ(one_shot->answers, expected) << q.ToString() << "\n"
                                           << db.ToString();
    for (uint64_t chunk_size : {1u, 2u, 5u, 64u}) {
      EXPECT_EQ(Drain(q, frees, db, chunk_size), expected)
          << "chunk size " << chunk_size << ", " << q.ToString() << "\n"
          << db.ToString();
    }
    // Some variable shared by two positive atoms: the list is a real join.
    SymbolSet seen;
    bool joined = false;
    for (size_t i : q.PositiveIndices()) {
      SymbolSet vars = q.atom(i).Vars(q.reified());
      if (vars.Intersects(seen)) joined = true;
      seen.UnionWith(vars);
    }
    if (joined) ++joins;
    ++compared;
  }
  EXPECT_GE(compared, 100) << "differential corpus too small";
  EXPECT_GE(joins, 30) << "too few queries join their positive atoms";
  EXPECT_GE(pruned, 30) << "the join never pruned the product";
}

}  // namespace
}  // namespace cqa
