// Cache-consistency battery for the result cache (src/cqa/cache/):
//
//  * unit coverage of the building blocks — database fingerprinting, the
//    alpha-canonical query key, the sharded LRU `ResultCache`, and the
//    per-worker `WarmState` memos;
//  * a differential test over >= 1000 generated (query, database)
//    instances: verdicts served through a cache-and-warm-state-enabled
//    `SolveService` (miss, then hit) must be identical to a cold
//    `SolveCertainty` call, across every solver engine;
//  * the cacheability property: degraded verdicts (probably-certain /
//    exhausted, forced with `fail_after_probes`) and budget-exhaustion
//    errors are never stored — a retry with a larger budget re-solves.
//
// The concurrent end (single-flight coalescing, promotion on leader
// cancellation) lives in cache_chaos_test.cc.

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "cqa/base/interner.h"
#include "cqa/cache/fingerprint.h"
#include "cqa/delta/delta.h"
#include "cqa/cache/query_key.h"
#include "cqa/cache/result_cache.h"
#include "cqa/cache/warm_state.h"
#include "cqa/certainty/solver.h"
#include "cqa/db/database.h"
#include "cqa/gen/families.h"
#include "cqa/gen/random_db.h"
#include "cqa/gen/random_query.h"
#include "cqa/query/parser.h"
#include "cqa/serve/service.h"
#include "cqa/serve/stats.h"

namespace cqa {
namespace {

using std::chrono::milliseconds;

Query Q(const char* text) {
  Result<Query> q = ParseQuery(text);
  EXPECT_TRUE(q.ok()) << (q.ok() ? "" : q.error());
  return q.value();
}

std::shared_ptr<const Database> Db(const char* text) {
  Result<Database> db = Database::FromText(text);
  EXPECT_TRUE(db.ok()) << (db.ok() ? "" : db.error());
  return std::make_shared<const Database>(std::move(db.value()));
}

// Submits one job and blocks until its terminal response (cache hits are
// delivered synchronously inside Submit; everything else within the
// shutdown-free wait below).
ServeResponse SolveVia(SolveService* service, ServeJob job) {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  ServeResponse out;
  Result<uint64_t> id =
      service->Submit(std::move(job), [&](const ServeResponse& r) {
        std::lock_guard<std::mutex> lock(mu);
        out = r;
        done = true;
        cv.notify_one();
      });
  EXPECT_TRUE(id.ok()) << (id.ok() ? "" : id.error());
  std::unique_lock<std::mutex> lock(mu);
  cv.wait_for(lock, std::chrono::seconds(120), [&] { return done; });
  EXPECT_TRUE(done) << "request never completed";
  return out;
}

// ---------------------------------------------------------------------------
// DbFingerprint

TEST(FingerprintTest, DeterministicAndContentSensitive) {
  auto a = Db("R(a | b), R(a | c)\nS(b | a)");
  auto b = Db("R(a | b), R(a | c)\nS(b | a)");
  auto c = Db("R(a | b), R(a | d)\nS(b | a)");
  DbFingerprint fa = FingerprintDatabase(*a);
  EXPECT_TRUE(fa.valid());
  EXPECT_EQ(fa, FingerprintDatabase(*a)) << "same instance, same digest";
  EXPECT_EQ(fa, FingerprintDatabase(*b)) << "equal content, same digest";
  EXPECT_NE(fa, FingerprintDatabase(*c)) << "one value changed";
  EXPECT_EQ(fa.ToHex().size(), 32u);
}

TEST(FingerprintTest, InsensitiveToFactAndRelationOrder) {
  // The canonical form sorts relations and facts, so spelling order in the
  // source text must not matter.
  auto a = Db("R(a | b), R(a | c)\nS(b | a)");
  auto b = Db("S(b | a)\nR(a | c), R(a | b)");
  EXPECT_EQ(FingerprintDatabase(*a), FingerprintDatabase(*b));
}

TEST(FingerprintTest, DistinguishesValueBoundaries) {
  // Length-prefixed rendering: ("ab","c") and ("a","bc") must not collide.
  auto a = Db("R(ab | c)");
  auto b = Db("R(a | bc)");
  EXPECT_NE(FingerprintDatabase(*a), FingerprintDatabase(*b));
}

// ---------------------------------------------------------------------------
// CanonicalQueryKey

TEST(QueryKeyTest, AlphaRenamedQueriesShareAKey) {
  Query a = Q("R(x | y), not S(y | x)");
  Query b = Q("R(u | v), not S(v | u)");
  EXPECT_EQ(CanonicalQueryKey(a), CanonicalQueryKey(b));
}

TEST(QueryKeyTest, AtomOrderIsCanonicalized) {
  Query a = Q("R(x | y), S(y | z)");
  Query b = Q("S(y | z), R(x | y)");
  EXPECT_EQ(CanonicalQueryKey(a), CanonicalQueryKey(b));
}

TEST(QueryKeyTest, DistinctStructuresGetDistinctKeys) {
  EXPECT_NE(CanonicalQueryKey(Q("R(x | y)")),
            CanonicalQueryKey(Q("R(x | x)")));
  EXPECT_NE(CanonicalQueryKey(Q("R(x | y)")),
            CanonicalQueryKey(Q("R(x | 'a')")))
      << "a constant is not a variable";
  EXPECT_EQ(CanonicalQueryKey(Q("R(x | a)")), CanonicalQueryKey(Q("R(x | y)")))
      << "unquoted names in query position are variables (alpha-equivalent)";
  EXPECT_NE(CanonicalQueryKey(Q("R(x | y), not S(y | x)")),
            CanonicalQueryKey(Q("R(x | y), S(y | x)")))
      << "polarity is part of the key";
  EXPECT_NE(CanonicalQueryKey(Q("R(x | y), S(y | x)")),
            CanonicalQueryKey(Q("R(x | y), S(x | y)")))
      << "join structure is part of the key";
}

TEST(QueryKeyTest, ConstantSpellingsCannotForgeSeparators) {
  // The parser accepts embedded quotes via doubling ('a'',''b' is the
  // constant a','b), so a constant can spell the key's own separators.
  // Length-prefixed rendering keeps the key injective: these two queries
  // would collide on 'a','b','c' under naive quoting, and a collision is
  // a wrong verdict served from the shared cache.
  EXPECT_NE(CanonicalQueryKey(Q("R('x' | 'a'',''b', 'c')")),
            CanonicalQueryKey(Q("R('x' | 'a', 'b'',''c')")));
}

TEST(QueryKeyTest, MethodAndFingerprintSeparateCacheSlots) {
  auto db = Db("R(a | b)");
  DbFingerprint fp = FingerprintDatabase(*db);
  Query q = Q("R(x | y)");
  CacheKey aut = MakeCacheKey(fp, SolverMethod::kAuto, q);
  CacheKey bt = MakeCacheKey(fp, SolverMethod::kBacktracking, q);
  EXPECT_NE(aut.text, bt.text);
  auto db2 = Db("R(a | c)");
  CacheKey other = MakeCacheKey(FingerprintDatabase(*db2),
                                SolverMethod::kAuto, q);
  EXPECT_NE(aut.text, other.text);
}

// ---------------------------------------------------------------------------
// ResultCache

SolveReport ExactReport(Verdict v) {
  SolveReport r;
  r.verdict = v;
  r.certain = v == Verdict::kCertain;
  r.confidence = 1.0;
  return r;
}

TEST(ResultCacheTest, InsertLookupRoundTrip) {
  ResultCache cache(8, 1);
  auto db = Db("R(a | b)");
  CacheKey key =
      MakeCacheKey(FingerprintDatabase(*db), SolverMethod::kAuto, Q("R(x | y)"));
  EXPECT_FALSE(cache.Lookup(key).has_value());
  EXPECT_TRUE(cache.Insert(key, ExactReport(Verdict::kCertain)));
  std::optional<SolveReport> hit = cache.Lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->verdict, Verdict::kCertain);
  CacheStats s = cache.Stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.inserts, 1u);
  EXPECT_EQ(s.entries, 1u);
}

TEST(ResultCacheTest, DegradedVerdictsAreRejected) {
  ResultCache cache(8, 1);
  auto db = Db("R(a | b)");
  CacheKey key =
      MakeCacheKey(FingerprintDatabase(*db), SolverMethod::kAuto, Q("R(x | y)"));
  EXPECT_FALSE(IsCacheableReport(ExactReport(Verdict::kProbablyCertain)));
  EXPECT_FALSE(IsCacheableReport(ExactReport(Verdict::kExhausted)));
  EXPECT_TRUE(IsCacheableReport(ExactReport(Verdict::kNotCertain)));
  EXPECT_FALSE(cache.Insert(key, ExactReport(Verdict::kProbablyCertain)));
  EXPECT_FALSE(cache.Insert(key, ExactReport(Verdict::kExhausted)));
  EXPECT_FALSE(cache.Lookup(key).has_value());
  CacheStats s = cache.Stats();
  EXPECT_EQ(s.rejected, 2u);
  EXPECT_EQ(s.entries, 0u);
}

TEST(ResultCacheTest, LruEvictionUnderCapacity) {
  ResultCache cache(2, 1);  // one shard, two entries
  auto db = Db("R(a | b)");
  DbFingerprint fp = FingerprintDatabase(*db);
  CacheKey k1 = MakeCacheKey(fp, SolverMethod::kAuto, Q("R(x | y)"));
  CacheKey k2 = MakeCacheKey(fp, SolverMethod::kAuto, Q("R(x | x)"));
  CacheKey k3 = MakeCacheKey(fp, SolverMethod::kAuto, Q("R(x | 'a')"));
  EXPECT_TRUE(cache.Insert(k1, ExactReport(Verdict::kCertain)));
  EXPECT_TRUE(cache.Insert(k2, ExactReport(Verdict::kNotCertain)));
  // Touch k1 so k2 is the LRU victim.
  EXPECT_TRUE(cache.Lookup(k1).has_value());
  EXPECT_TRUE(cache.Insert(k3, ExactReport(Verdict::kCertain)));
  EXPECT_TRUE(cache.Lookup(k1).has_value()) << "recently used survives";
  EXPECT_FALSE(cache.Lookup(k2).has_value()) << "LRU tail evicted";
  EXPECT_TRUE(cache.Lookup(k3).has_value());
  EXPECT_EQ(cache.Stats().evictions, 1u);
  EXPECT_EQ(cache.Stats().entries, 2u);
}

TEST(ResultCacheTest, ConfiguredCapacityIsHonouredAcrossShards) {
  // 10 entries over 8 shards: a floor-only split would silently cap the
  // cache at 8 entries; the remainder spreads over the first shards so
  // the per-shard capacities sum to the configured bound.
  ResultCache cache(10, 8);
  EXPECT_EQ(cache.max_entries(), 10u);
  ResultCache one(1, 8);
  EXPECT_EQ(one.max_entries(), 1u);
}

// ---------------------------------------------------------------------------
// WarmState

TEST(WarmStateTest, ClassificationMemoHitsOnAlphaVariants) {
  WarmState warm;
  Query a = Q("R(x | y), not S(y | x)");
  Query b = Q("R(u | v), not S(v | u)");
  std::string key = CanonicalQueryKey(a);
  ASSERT_EQ(key, CanonicalQueryKey(b));
  const Classification& ca = warm.ClassifyMemo(key, a);
  const Classification& cb = warm.ClassifyMemo(key, b);
  EXPECT_EQ(&ca, &cb) << "second call must be a memo hit";
  EXPECT_EQ(warm.stats().classification_misses, 1u);
  EXPECT_EQ(warm.stats().classification_hits, 1u);
}

TEST(WarmStateTest, BindDatabaseClearsTheArenaOnlyOnChange) {
  WarmState warm;
  auto a = Db("R(a | b)");
  auto b = Db("R(a | c)");
  warm.BindDatabase(FingerprintDatabase(*a));
  (*warm.Algo1Arena())["probe"] = true;
  warm.BindDatabase(FingerprintDatabase(*a));
  EXPECT_EQ(warm.Algo1Arena()->size(), 1u) << "same database keeps the arena";
  warm.BindDatabase(FingerprintDatabase(*b));
  EXPECT_TRUE(warm.Algo1Arena()->empty()) << "new database clears the arena";
  EXPECT_EQ(warm.stats().arena_resets, 1u);
}

TEST(WarmStateTest, ArenaCapBoundsLongRunningWorkers) {
  // The Algorithm-1 arena obeys max_entries like the other memo maps: a
  // daemon worker fronting one immutable database never changes
  // fingerprint, so without the cap its arena would grow without bound.
  WarmState warm(/*max_entries=*/2);
  auto db = Db("R(a | b)");
  warm.BindDatabase(FingerprintDatabase(*db));
  (*warm.Algo1Arena())["p1"] = true;
  (*warm.Algo1Arena())["p2"] = true;  // under the cap at hand-out
  EXPECT_TRUE(warm.Algo1Arena()->empty())
      << "an over-full arena must be cleared at the next hand-out";
  EXPECT_EQ(warm.stats().arena_resets, 1u);
}

// ---------------------------------------------------------------------------
// Differential: cached path == cold path

TEST(CacheDifferentialTest, ServiceAgreesWithColdSolveOnGeneratedInstances) {
  // >= 1000 generated (query, database) instances, each solved cold via
  // SolveCertainty and twice through a cache+warm-state service (the first
  // a miss that fills the slot, the second a hit served from it). All
  // three verdicts must coincide.
  constexpr int kInstances = 1000;
  Rng rng(0xd1ff5eed);
  RandomQueryOptions qopts;
  RandomDbOptions dopts;
  dopts.blocks_per_relation = 3;
  dopts.max_block_size = 2;
  dopts.domain_size = 4;

  ServiceOptions options;
  options.workers = 4;
  options.cache_entries = 4 * kInstances;  // no evictions mid-test
  options.warm_state = true;
  SolveService service(options);

  uint64_t verdict_counts[2] = {0, 0};  // certain / not-certain, for honesty
  for (int i = 0; i < kInstances; ++i) {
    Query q = GenerateRandomQuery(qopts, &rng);
    auto db = std::make_shared<const Database>(
        GenerateRandomDatabaseFor(q, dopts, &rng));
    Result<SolveReport> cold = SolveCertainty(q, *db, SolverMethod::kAuto);
    ASSERT_TRUE(cold.ok()) << cold.error();
    ASSERT_TRUE(cold->verdict == Verdict::kCertain ||
                cold->verdict == Verdict::kNotCertain)
        << "ungoverned cold solve must be exact";
    ++verdict_counts[cold->verdict == Verdict::kCertain ? 0 : 1];
    for (int round = 0; round < 2; ++round) {
      ServeResponse r = SolveVia(&service, ServeJob(q, db));
      ASSERT_EQ(r.state, RequestState::kCompleted) << "instance " << i;
      ASSERT_TRUE(r.result.ok()) << r.result.error();
      EXPECT_EQ(r.result->verdict, cold->verdict)
          << "instance " << i << " round " << round;
    }
  }
  ServiceStats s = service.Stats();
  // Every second submission is served from the cache; first submissions
  // can hit too when the generator repeats an earlier (query, database).
  EXPECT_GE(s.cache_hits + s.cache_coalesced,
            static_cast<uint64_t>(kInstances));
  EXPECT_GT(verdict_counts[0], 0u) << "degenerate workload: nothing certain";
  EXPECT_GT(verdict_counts[1], 0u) << "degenerate workload: nothing refuted";
  EXPECT_TRUE(service.Shutdown(milliseconds(10'000)));
}

TEST(CacheDifferentialTest, EveryEngineAgreesCachedVsCold) {
  // A smaller sweep across every solver engine, methods that reject a
  // query included: the cached path must reproduce the cold path's typed
  // error as well as its verdict (errors are never cached, so both
  // submissions re-solve and must fail identically).
  Rng rng(0xe9);
  RandomQueryOptions qopts;
  qopts.max_positive = 2;
  qopts.max_negative = 1;
  RandomDbOptions dopts;
  dopts.blocks_per_relation = 2;
  dopts.max_block_size = 2;
  dopts.domain_size = 3;

  ServiceOptions options;
  options.workers = 2;
  options.cache_entries = 4096;
  options.warm_state = true;
  SolveService service(options);

  for (int i = 0; i < 25; ++i) {
    Query q = GenerateRandomQuery(qopts, &rng);
    auto db = std::make_shared<const Database>(
        GenerateRandomDatabaseFor(q, dopts, &rng));
    for (SolverMethod m : kSolverMethods) {
      Result<SolveReport> cold = SolveCertainty(q, *db, m);
      for (int round = 0; round < 2; ++round) {
        ServeJob job(q, db);
        job.method = m;
        ServeResponse r = SolveVia(&service, std::move(job));
        ASSERT_EQ(r.state, RequestState::kCompleted)
            << ToString(m) << " instance " << i;
        ASSERT_EQ(r.result.ok(), cold.ok())
            << ToString(m) << " instance " << i << " round " << round;
        if (cold.ok()) {
          EXPECT_EQ(r.result->verdict, cold->verdict)
              << ToString(m) << " instance " << i << " round " << round;
        } else {
          EXPECT_EQ(r.result.code(), cold.code())
              << ToString(m) << " instance " << i << " round " << round;
        }
      }
    }
  }
  EXPECT_TRUE(service.Shutdown(milliseconds(10'000)));
}

TEST(CacheDifferentialTest, AlphaRenamedQueriesHitTheSameSlot) {
  auto db = Db("R(a | b), R(a | c)\nS(b | a)");
  ServiceOptions options;
  options.workers = 1;
  options.cache_entries = 16;
  SolveService service(options);
  ServeResponse first =
      SolveVia(&service, ServeJob(Q("R(x | y), not S(y | x)"), db));
  ASSERT_TRUE(first.result.ok());
  ServeResponse second =
      SolveVia(&service, ServeJob(Q("R(u | v), not S(v | u)"), db));
  ASSERT_TRUE(second.result.ok());
  EXPECT_EQ(second.result->verdict, first.result->verdict);
  ServiceStats s = service.Stats();
  EXPECT_EQ(s.cache_misses, 1u);
  EXPECT_EQ(s.cache_hits, 1u) << "the alpha-variant must be a hit";
  EXPECT_EQ(s.cache_entries, 1u) << "both spellings share one slot";
  EXPECT_TRUE(service.Shutdown(milliseconds(10'000)));
}

TEST(CacheDifferentialTest, BypassPolicySkipsLookupAndStore)  {
  auto db = Db("R(a | b), R(a | c)");
  ServiceOptions options;
  options.workers = 1;
  options.cache_entries = 16;
  SolveService service(options);
  ServeJob job(Q("R(x | y)"), db);
  job.cache = CachePolicy::kBypass;
  for (int i = 0; i < 3; ++i) {
    ServeResponse r = SolveVia(&service, job);
    ASSERT_TRUE(r.result.ok());
    EXPECT_EQ(r.result->verdict, Verdict::kCertain);
  }
  ServiceStats s = service.Stats();
  EXPECT_EQ(s.cache_bypass, 3u);
  EXPECT_EQ(s.cache_hits, 0u);
  EXPECT_EQ(s.cache_misses, 0u);
  EXPECT_EQ(s.cache_entries, 0u) << "bypassed results must not be stored";
  EXPECT_TRUE(service.Shutdown(milliseconds(10'000)));
}

// ---------------------------------------------------------------------------
// Cacheability property: degraded and failed solves never stick

TEST(CachePropertyTest, DegradedVerdictIsNotCachedAndRetryResolves) {
  // First submission: fault injection exhausts the exact stage, the kAuto
  // path degrades to a qualified verdict. That verdict must not be cached:
  // the clean resubmission re-solves and reports the exact verdict. The
  // backtracking pigeonhole query forces the governed backtracking solver —
  // a query in the matching class would be answered by the ungoverned
  // poly-time matcher before the injected fault could bite.
  auto db = std::make_shared<const Database>(PigeonholeDatabase(6));
  Query q = PigeonholeBacktrackingQuery();
  Result<SolveReport> cold = SolveCertainty(q, *db, SolverMethod::kAuto);
  ASSERT_TRUE(cold.ok()) << cold.error();

  ServiceOptions options;
  options.workers = 1;
  options.cache_entries = 16;
  SolveService service(options);

  ServeJob faulted(q, db);
  faulted.method = SolverMethod::kAuto;
  // Trip the budget instantly, every stage.
  faulted.faults.fail_after_probes = 1;
  ServeResponse degraded = SolveVia(&service, std::move(faulted));
  ASSERT_EQ(degraded.state, RequestState::kCompleted);
  ASSERT_TRUE(degraded.result.ok()) << degraded.result.error();
  ASSERT_TRUE(degraded.result->verdict == Verdict::kProbablyCertain ||
              degraded.result->verdict == Verdict::kExhausted)
      << "fault injection should have degraded the verdict, got "
      << ToString(degraded.result->verdict);
  EXPECT_EQ(service.Stats().cache_entries, 0u)
      << "a degraded verdict must never be stored";

  ServeResponse clean = SolveVia(&service, ServeJob(q, db));
  ASSERT_TRUE(clean.result.ok());
  EXPECT_EQ(clean.result->verdict, cold->verdict)
      << "the retry with full budget must re-solve exactly";
  ServiceStats s = service.Stats();
  EXPECT_EQ(s.cache_hits, 0u)
      << "nothing was cached, so nothing can have hit";
  EXPECT_EQ(s.cache_misses, 2u);
  EXPECT_EQ(s.cache_entries, 1u) << "only the exact verdict is stored";
  EXPECT_TRUE(service.Shutdown(milliseconds(10'000)));
}

TEST(CachePropertyTest, BudgetExhaustedErrorIsNotCached) {
  // Degradation off: the faulted solve fails with a typed error. Errors
  // are not SolveReports and must never be cached — the clean retry gets
  // the exact verdict, not a replay of the failure.
  auto db = Db("R(a | b), R(a | c)");
  ServiceOptions options;
  options.workers = 1;
  options.cache_entries = 16;
  SolveService service(options);

  ServeJob faulted(Q("R(x | y)"), db);
  faulted.method = SolverMethod::kBacktracking;
  faulted.degrade_to_sampling = false;
  faulted.faults.fail_after_probes = 1;
  ServeResponse failed = SolveVia(&service, std::move(faulted));
  ASSERT_EQ(failed.state, RequestState::kCompleted);
  ASSERT_FALSE(failed.result.ok());
  EXPECT_EQ(failed.result.code(), ErrorCode::kBudgetExhausted);
  EXPECT_EQ(service.Stats().cache_entries, 0u);

  ServeJob clean(Q("R(x | y)"), db);
  clean.method = SolverMethod::kBacktracking;
  ServeResponse ok = SolveVia(&service, std::move(clean));
  ASSERT_TRUE(ok.result.ok()) << ok.result.error();
  EXPECT_EQ(ok.result->verdict, Verdict::kCertain);
  // And the now-cached exact verdict serves a third submission.
  ServeJob again(Q("R(x | y)"), db);
  again.method = SolverMethod::kBacktracking;
  ServeResponse hit = SolveVia(&service, std::move(again));
  ASSERT_TRUE(hit.result.ok());
  EXPECT_EQ(hit.result->verdict, Verdict::kCertain);
  EXPECT_EQ(service.Stats().cache_hits, 1u);
  EXPECT_TRUE(service.Shutdown(milliseconds(10'000)));
}

TEST(CachePropertyTest, SamplingRefutationIsCacheable) {
  // kNotCertain from the sampling engine is a definitive refutation (a
  // falsifying repair was exhibited), so it may be cached like any exact
  // verdict; a probably-certain sampling verdict may not.
  SolveReport refuted;
  refuted.verdict = Verdict::kNotCertain;
  refuted.used = SolverMethod::kSampling;
  EXPECT_TRUE(IsCacheableReport(refuted));
  SolveReport probably;
  probably.verdict = Verdict::kProbablyCertain;
  probably.used = SolverMethod::kSampling;
  probably.confidence = 0.99;
  EXPECT_FALSE(IsCacheableReport(probably));
}

// ---------------------------------------------------------------------------
// Delta fingerprint maintenance (the property the epoch-aware cache key
// stands on: the incremental digest IS the content digest)

DeltaOp RandomOp(std::mt19937_64& rng) {
  static const char* kRelations[] = {"R", "S", "T"};
  static const char* kValues[] = {"a", "b", "c", "d", "e", "f"};
  DeltaOp op;
  op.insert = (rng() & 1) != 0;
  op.relation = kRelations[rng() % 3];
  op.values = {kValues[rng() % 6], kValues[rng() % 6]};
  return op;
}

TEST(FingerprintDeltaPropertyTest, IncrementalMatchesFromScratchOn1000Deltas) {
  auto current = Db("R(a | b)\nS(b | a)\nT(x | y)");
  std::mt19937_64 rng(0xd1fffe7a5ull);
  for (int round = 0; round < 1000; ++round) {
    FactDelta delta;
    delta.id = "round-" + std::to_string(round);
    size_t ops = 1 + rng() % 8;
    for (size_t i = 0; i < ops; ++i) delta.ops.push_back(RandomOp(rng));
    Result<DeltaApplyOutcome> out = ApplyDeltaToDatabase(*current, delta);
    ASSERT_TRUE(out.ok()) << out.error();
    // From-scratch oracle: serialise the new epoch, load it cold, digest.
    Result<Database> rebuilt = Database::FromText(out->db->ToText());
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.error();
    ASSERT_EQ(out->fingerprint, FingerprintDatabase(rebuilt.value()))
        << "incremental digest diverged at round " << round;
    current = out->db;
  }
}

TEST(FingerprintDeltaPropertyTest, InsertThenDeleteRestoresTheExactDigest) {
  auto base = Db("R(a | b)\nS(b | a)\nT(x | y)");
  const DbFingerprint base_fp = FingerprintDatabase(*base);
  std::mt19937_64 rng(0xabcdef12ull);
  std::shared_ptr<const Database> current = base;
  for (int round = 0; round < 200; ++round) {
    // A batch of random inserts of facts not currently present...
    std::vector<DeltaOp> inserts;
    const size_t target = 1 + rng() % 5;
    while (inserts.size() < target) {
      DeltaOp op = RandomOp(rng);
      op.insert = true;
      Tuple t = {Value::Of(op.values[0]), Value::Of(op.values[1])};
      if (current->Contains(InternSymbol(op.relation), t)) continue;
      bool dup = false;
      for (const DeltaOp& seen : inserts) {
        dup |= seen.relation == op.relation && seen.values == op.values;
      }
      if (!dup) inserts.push_back(std::move(op));
    }
    FactDelta forward;
    forward.id = "fwd-" + std::to_string(round);
    forward.ops = inserts;
    Result<DeltaApplyOutcome> grown = ApplyDeltaToDatabase(*current, forward);
    ASSERT_TRUE(grown.ok()) << grown.error();
    ASSERT_EQ(grown->inserted, inserts.size());
    ASSERT_NE(grown->fingerprint, base_fp);

    // ...then the inverse deletes: the digest must return EXACTLY (the
    // XOR lane is self-inverse, the additive lane subtracts — any drift
    // here would poison every future cache key).
    FactDelta inverse;
    inverse.id = "inv-" + std::to_string(round);
    for (const DeltaOp& op : inserts) {
      DeltaOp del = op;
      del.insert = false;
      inverse.ops.push_back(std::move(del));
    }
    Result<DeltaApplyOutcome> restored =
        ApplyDeltaToDatabase(*grown->db, inverse);
    ASSERT_TRUE(restored.ok()) << restored.error();
    EXPECT_EQ(restored->fingerprint, base_fp)
        << "digest not restored at round " << round;
    current = base;  // keep rounds independent and the database small
  }
}

// ---------------------------------------------------------------------------
// ResultCache::OnDatabaseDelta

TEST(ResultCacheDeltaTest, RekeysDisjointAndDropsIntersectingEntries) {
  ResultCache cache(16, 2);
  auto old_db = Db("R(a | b)\nS(b | a)\nU(u | v)");
  auto new_db = Db("R(a | b)\nU(u | v)");
  const DbFingerprint old_fp = FingerprintDatabase(*old_db);
  const DbFingerprint new_fp = FingerprintDatabase(*new_db);

  Query touches_s = Q("R(x | y), not S(y | x)");
  Query avoids_s = Q("U(x | y)");
  CacheKey k_touch = MakeCacheKey(old_fp, SolverMethod::kAuto, touches_s);
  CacheKey k_avoid = MakeCacheKey(old_fp, SolverMethod::kAuto, avoids_s);
  ASSERT_TRUE(cache.Insert(k_touch, ExactReport(Verdict::kNotCertain)));
  ASSERT_TRUE(cache.Insert(k_avoid, ExactReport(Verdict::kCertain)));

  auto [invalidated, rekeyed] =
      cache.OnDatabaseDelta(old_fp, new_fp, {"S"});
  EXPECT_EQ(invalidated, 1u);
  EXPECT_EQ(rekeyed, 1u);

  // The S-free entry serves hits under the NEW fingerprint without ever
  // being re-inserted; nothing answers under the old one.
  EXPECT_TRUE(cache.Lookup(MakeCacheKey(new_fp, SolverMethod::kAuto, avoids_s))
                  .has_value());
  EXPECT_FALSE(
      cache.Lookup(MakeCacheKey(new_fp, SolverMethod::kAuto, touches_s))
          .has_value());
  EXPECT_FALSE(cache.Lookup(k_avoid).has_value());
  EXPECT_FALSE(cache.Lookup(k_touch).has_value());

  CacheStats s = cache.Stats();
  EXPECT_EQ(s.invalidated, 1u);
  EXPECT_EQ(s.rekeyed, 1u);
  EXPECT_EQ(s.entries, 1u);
}

TEST(ResultCacheDeltaTest, ForeignFingerprintsAreLeftAlone) {
  ResultCache cache(16, 2);
  auto db_a = Db("R(a | b)");
  auto db_b = Db("S(b | a)");
  const DbFingerprint fp_a = FingerprintDatabase(*db_a);
  const DbFingerprint fp_b = FingerprintDatabase(*db_b);
  CacheKey other = MakeCacheKey(fp_b, SolverMethod::kAuto, Q("S(x | y)"));
  ASSERT_TRUE(cache.Insert(other, ExactReport(Verdict::kCertain)));

  // A delta on database A must not disturb entries of database B, even
  // though they share one cache (sibling shards in one service).
  auto new_db_a = Db("R(a | b), R(a | c)");
  cache.OnDatabaseDelta(fp_a, FingerprintDatabase(*new_db_a), {"R"});
  EXPECT_TRUE(cache.Lookup(other).has_value());
}

}  // namespace
}  // namespace cqa
