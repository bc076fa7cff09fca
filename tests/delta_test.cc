// Unit tests for the live-update delta layer (src/cqa/delta/delta.*):
// validation, copy-on-write epoch construction, O(delta) fingerprint
// maintenance, wire codec strictness — and the service-level contract of
// ShardedSolveService::ApplyDelta (publication, idempotency, footprint-
// scoped cache treatment, per-shard counters). Journal durability and
// crash recovery live in journal_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cqa/base/interner.h"
#include "cqa/base/rng.h"
#include "cqa/cache/fingerprint.h"
#include "cqa/certainty/backtracking.h"
#include "cqa/db/database.h"
#include "cqa/delta/delta.h"
#include "cqa/query/parser.h"
#include "cqa/registry/sharded_service.h"
#include "cqa/serve/net/json.h"
#include "cqa/serve/service.h"

namespace cqa {
namespace {

using std::chrono::milliseconds;

Query Q(const char* text) {
  Result<Query> q = ParseQuery(text);
  EXPECT_TRUE(q.ok()) << (q.ok() ? "" : q.error());
  return q.value();
}

Database DbVal(const char* text) {
  Result<Database> db = Database::FromText(text);
  EXPECT_TRUE(db.ok()) << (db.ok() ? "" : db.error());
  return std::move(db.value());
}

DeltaOp Ins(const char* rel, std::vector<std::string> values) {
  DeltaOp op;
  op.insert = true;
  op.relation = rel;
  op.values = std::move(values);
  return op;
}

DeltaOp Del(const char* rel, std::vector<std::string> values) {
  DeltaOp op;
  op.insert = false;
  op.relation = rel;
  op.values = std::move(values);
  return op;
}

FactDelta Delta(std::string id, std::vector<DeltaOp> ops) {
  FactDelta d;
  d.id = std::move(id);
  d.ops = std::move(ops);
  return d;
}

// The ground truth a delta'd epoch must match: the same final fact set
// loaded cold into a fresh instance (fresh interner state is exercised by
// the spelling-based fingerprint, not needed here).
DbFingerprint ScratchFingerprint(const Database& db) {
  Result<Database> rebuilt = Database::FromText(db.ToText());
  EXPECT_TRUE(rebuilt.ok()) << (rebuilt.ok() ? "" : rebuilt.error());
  return FingerprintDatabase(rebuilt.value());
}

constexpr char kBase[] = "R(a | b), R(a | c)\nS(b | a)\nT(x | y)";

// ---------------------------------------------------------------------------
// ApplyDeltaToDatabase

TEST(DeltaApplyTest, InsertsAndDeletesProduceTheExpectedEpoch) {
  Database base = DbVal(kBase);
  const DbFingerprint base_fp = FingerprintDatabase(base);

  Result<DeltaApplyOutcome> out = ApplyDeltaToDatabase(
      base, Delta("d1", {Ins("R", {"d", "e"}), Del("S", {"b", "a"})}));
  ASSERT_TRUE(out.ok()) << out.error();
  EXPECT_EQ(out->inserted, 1u);
  EXPECT_EQ(out->deleted, 1u);
  EXPECT_EQ(out->touched, (std::vector<std::string>{"R", "S"}));
  EXPECT_EQ(out->db->NumFacts(), 4u);

  // The base epoch is untouched: readers pinned to it keep their view.
  EXPECT_EQ(base.NumFacts(), 4u);
  EXPECT_EQ(FingerprintDatabase(base), base_fp);
  EXPECT_NE(out->fingerprint, base_fp);

  // Incremental fingerprint == loading the final facts from scratch.
  EXPECT_EQ(out->fingerprint, ScratchFingerprint(*out->db));
}

TEST(DeltaApplyTest, ValidationIsAllOrNothing) {
  Database base = DbVal(kBase);
  const DbFingerprint base_fp = FingerprintDatabase(base);

  // Unknown relation: rejected before any op applies, even though the
  // first op alone would have been valid.
  Result<DeltaApplyOutcome> unknown = ApplyDeltaToDatabase(
      base, Delta("d1", {Ins("R", {"q", "q"}), Ins("Nope", {"x"})}));
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.code(), ErrorCode::kUnsupported);

  // Arity mismatch.
  Result<DeltaApplyOutcome> arity =
      ApplyDeltaToDatabase(base, Delta("d2", {Ins("R", {"only-one"})}));
  ASSERT_FALSE(arity.ok());
  EXPECT_EQ(arity.code(), ErrorCode::kUnsupported);

  EXPECT_EQ(FingerprintDatabase(base), base_fp);
  EXPECT_EQ(base.NumFacts(), 4u);
}

TEST(DeltaApplyTest, NoOpMutationsCountZeroButStillTouch) {
  Database base = DbVal(kBase);
  // Duplicate insert and missing delete are both no-ops for the content,
  // but the relations still enter the footprint (the delta asserted facts
  // about them).
  Result<DeltaApplyOutcome> out = ApplyDeltaToDatabase(
      base, Delta("d1", {Ins("R", {"a", "b"}), Del("T", {"no", "such"})}));
  ASSERT_TRUE(out.ok()) << out.error();
  EXPECT_EQ(out->inserted, 0u);
  EXPECT_EQ(out->deleted, 0u);
  EXPECT_EQ(out->touched, (std::vector<std::string>{"R", "T"}));
  EXPECT_EQ(out->fingerprint, FingerprintDatabase(base));
}

TEST(DeltaApplyTest, OpsApplyInOrderWithinTheBatch) {
  Database base = DbVal(kBase);
  // Insert-then-delete of the same new fact is a no-op batch...
  Result<DeltaApplyOutcome> noop = ApplyDeltaToDatabase(
      base, Delta("d1", {Ins("R", {"z", "z"}), Del("R", {"z", "z"})}));
  ASSERT_TRUE(noop.ok()) << noop.error();
  EXPECT_EQ(noop->fingerprint, FingerprintDatabase(base));
  EXPECT_EQ(noop->db->NumFacts(), base.NumFacts());

  // ...while delete-then-insert reasserts an existing fact, same content.
  Result<DeltaApplyOutcome> reassert = ApplyDeltaToDatabase(
      base, Delta("d2", {Del("S", {"b", "a"}), Ins("S", {"b", "a"})}));
  ASSERT_TRUE(reassert.ok()) << reassert.error();
  EXPECT_EQ(reassert->fingerprint, FingerprintDatabase(base));
}

TEST(DeltaApplyTest, UntouchedRelationsShareStorageWithTheBaseEpoch) {
  Database base = DbVal(kBase);
  Result<DeltaApplyOutcome> out =
      ApplyDeltaToDatabase(base, Delta("d1", {Ins("R", {"d", "e"})}));
  ASSERT_TRUE(out.ok()) << out.error();

  Symbol s = InternSymbol("S");
  Symbol t = InternSymbol("T");
  Symbol r = InternSymbol("R");
  // Copy-on-write at relation granularity: S and T are physically shared,
  // facts and block index alike; only R was cloned for the mutation.
  EXPECT_EQ(base.FactsOf(s).data(), out->db->FactsOf(s).data());
  EXPECT_EQ(base.FactsOf(t).data(), out->db->FactsOf(t).data());
  EXPECT_NE(base.FactsOf(r).data(), out->db->FactsOf(r).data());
  EXPECT_EQ(&base.BlocksOf(s), &out->db->BlocksOf(s));
  EXPECT_EQ(&base.BlocksOf(t), &out->db->BlocksOf(t));
  EXPECT_NE(&base.BlocksOf(r), &out->db->BlocksOf(r));

  // The new epoch's block index agrees with a from-scratch indexing of the
  // same facts.
  Result<Database> rebuilt = Database::FromText(out->db->ToText());
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(out->db->NumBlocks(), rebuilt->NumBlocks());
}

// Every index view of `db` equals that of `ref`, a database holding the
// same facts indexed from scratch. Block ids and block order may differ
// (deletes compact swap-with-last), so blocks compare by key and content.
void ExpectSameIndex(const Database& db, const Database& ref,
                     const std::string& where) {
  SCOPED_TRACE(where);
  ASSERT_EQ(db.NumBlocks(), ref.NumBlocks());
  ASSERT_EQ(db.NumFacts(), ref.NumFacts());
  EXPECT_EQ(FingerprintDatabase(db), FingerprintDatabase(ref));
  for (const RelationSchema& rs : ref.schema().relations()) {
    const std::vector<Database::Block>& blocks = db.BlocksOf(rs.name);
    ASSERT_EQ(blocks.size(), ref.BlocksOf(rs.name).size());
    const int first = db.FirstBlockId(rs.name);
    for (size_t i = 0; i < blocks.size(); ++i) {
      const Database::Block& blk = blocks[i];
      EXPECT_EQ(blk.relation, rs.name);
      EXPECT_EQ(&db.block(first + static_cast<int>(i)), &blk);
      std::optional<int> ref_id = ref.BlockWithKey(rs.name, blk.key);
      ASSERT_TRUE(ref_id.has_value());
      std::set<Tuple> mine;
      for (int f : blk.fact_indices) {
        const Tuple& fact = db.FactsOf(rs.name)[static_cast<size_t>(f)];
        EXPECT_TRUE(std::equal(blk.key.begin(), blk.key.end(), fact.begin()));
        mine.insert(fact);
      }
      std::set<Tuple> theirs;
      for (const Tuple* fact : ref.FactsWithKey(rs.name, blk.key)) {
        theirs.insert(*fact);
      }
      EXPECT_EQ(mine, theirs);
      std::set<Tuple> by_key;
      for (const Tuple* fact : db.FactsWithKey(rs.name, blk.key)) {
        by_key.insert(*fact);
      }
      EXPECT_EQ(by_key, theirs);
      EXPECT_EQ(db.BlockWithKey(rs.name, blk.key),
                std::optional<int>(first + static_cast<int>(i)));
    }
    for (const Tuple& fact : ref.FactsOf(rs.name)) {
      EXPECT_TRUE(db.Contains(rs.name, fact));
      std::optional<int> b = db.BlockOf(rs.name, fact);
      ASSERT_TRUE(b.has_value());
      EXPECT_EQ(db.block(*b).relation, rs.name);
      EXPECT_TRUE(std::equal(db.block(*b).key.begin(), db.block(*b).key.end(),
                             fact.begin()));
    }
  }
}

TEST(DeltaApplyTest, BlockIndexStaysConsistentAcrossManyDeltas) {
  // A seeded random insert/delete sweep over three relations of different
  // signatures, on a domain small enough that blocks keep growing,
  // shrinking, emptying and reappearing. After every step each index view
  // must equal a cold rebuild of the same facts, and every fact deleted so
  // far and not reinserted must be gone from all of them.
  struct Rel {
    const char* name;
    size_t arity;
  };
  const Rel rels[] = {{"R", 2}, {"S", 3}, {"T", 1}};
  const char* dom[] = {"a", "b", "c", "d"};
  std::shared_ptr<const Database> current = std::make_shared<const Database>(
      DbVal("R(a | b), S(a, b | c), T(a)"));
  Rng rng(2024);
  for (int step = 0; step < 300; ++step) {
    FactDelta d;
    d.id = "step-" + std::to_string(step);
    const int ops = 1 + static_cast<int>(rng.Below(4));
    for (int o = 0; o < ops; ++o) {
      const Rel& rel = rels[rng.Below(3)];
      std::vector<std::string> values;
      for (size_t i = 0; i < rel.arity; ++i) {
        values.push_back(dom[rng.Below(4)]);
      }
      DeltaOp op = rng.Chance(0.45) ? Del(rel.name, std::move(values))
                                    : Ins(rel.name, std::move(values));
      d.ops.push_back(op);
    }
    Result<DeltaApplyOutcome> out = ApplyDeltaToDatabase(*current, d);
    ASSERT_TRUE(out.ok()) << out.error();
    current = out->db;
    Result<Database> rebuilt = Database::FromText(current->ToText());
    ASSERT_TRUE(rebuilt.ok());
    ExpectSameIndex(*current, *rebuilt, d.id);
    // The last op's fact, if a delete, must be absent from every view.
    const DeltaOp& last = d.ops.back();
    if (!last.insert) {
      Tuple t;
      for (const std::string& v : last.values) t.push_back(Value::Of(v));
      Symbol rel = InternSymbol(last.relation);
      EXPECT_FALSE(current->Contains(rel, t));
      EXPECT_FALSE(current->BlockOf(rel, t).has_value());
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(DeltaConcurrencyTest, ReadersOfAnEpochRaceAWriterChainingDeltasFromIt) {
  // Epoch k shares each relation's storage, facts and block index, with
  // every epoch derived from it until a delta touches that relation. Solver
  // threads read every relation of epoch k while a writer chains deltas
  // k+1..k+200 from it: lazily built state left in the shared storage would
  // be a data race (the tsan preset runs this suite), and a write leaking
  // through the sharing would break the readers' invariants.
  std::string text;
  for (int i = 0; i < 40; ++i) {
    const std::string k = "k" + std::to_string(i);
    const std::string v = "v" + std::to_string(i % 3);
    text += "R(" + k + " | " + v + "), S(" + v + " | " + k + "), T(" + k +
            ")\n";
  }
  const std::shared_ptr<const Database> epoch_k =
      std::make_shared<const Database>(DbVal(text.c_str()));
  const DbFingerprint fp_k = FingerprintDatabase(*epoch_k);
  const size_t facts_k = epoch_k->NumFacts();
  const size_t blocks_k = epoch_k->NumBlocks();
  const Query q = Q("R(x | y), not S(y | x)");
  const Result<bool> verdict_k = IsCertainBacktracking(q, *epoch_k);
  ASSERT_TRUE(verdict_k.ok()) << verdict_k.error();

  std::atomic<bool> done{false};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      do {
        size_t facts = 0;
        for (const RelationSchema& rs : epoch_k->schema().relations()) {
          for (const Tuple& fact : epoch_k->FactsOf(rs.name)) {
            ++facts;
            std::optional<int> b = epoch_k->BlockOf(rs.name, fact);
            if (!b.has_value() || !epoch_k->Contains(rs.name, fact) ||
                epoch_k->FactsWithKey(rs.name, epoch_k->block(*b).key)
                    .empty()) {
              mismatches.fetch_add(1);
            }
          }
        }
        epoch_k->BlockComponents();
        Result<bool> v = IsCertainBacktracking(q, *epoch_k);
        if (facts != facts_k || epoch_k->NumBlocks() != blocks_k ||
            FingerprintDatabase(*epoch_k) != fp_k || !v.ok() ||
            v.value() != verdict_k.value()) {
          mismatches.fetch_add(1);
        }
      } while (!done.load());
    });
  }

  // The writer rotates over the relations, so every relation's storage is
  // unshared by some delta while the readers run.
  std::shared_ptr<const Database> current = epoch_k;
  bool writer_ok = true;
  for (int i = 1; i <= 200 && writer_ok; ++i) {
    const std::string k = "k" + std::to_string(i % 40);
    const std::string v = "v" + std::to_string(i % 40 % 3);
    const std::string w = "w" + std::to_string(i);
    std::vector<DeltaOp> ops;
    switch (i % 3) {
      case 0:
        ops = {Ins("R", {k, w}), Del("R", {k, v})};
        break;
      case 1:
        ops = {Ins("S", {w, k}), Del("S", {v, k})};
        break;
      default:
        ops = {Ins("T", {w}), Del("T", {k})};
        break;
    }
    Result<DeltaApplyOutcome> out =
        ApplyDeltaToDatabase(*current, Delta("c" + std::to_string(i), ops));
    writer_ok = out.ok();
    if (writer_ok) current = out->db;
  }
  done.store(true);
  for (std::thread& t : readers) t.join();

  EXPECT_TRUE(writer_ok);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(FingerprintDatabase(*epoch_k), fp_k);
  EXPECT_NE(FingerprintDatabase(*current), fp_k);
  EXPECT_EQ(FingerprintDatabase(*current), ScratchFingerprint(*current));
}

TEST(DeltaApplyTest, RejectsOversizedBatches) {
  Database base = DbVal(kBase);
  FactDelta big;
  big.id = "too-big";
  big.ops.resize(kMaxDeltaOps + 1, Ins("R", {"a", "b"}));
  Result<DeltaApplyOutcome> out = ApplyDeltaToDatabase(base, big);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.code(), ErrorCode::kUnsupported);
}

// ---------------------------------------------------------------------------
// Wire codec

TEST(DeltaCodecTest, EncodeDecodeRoundtrip) {
  std::vector<DeltaOp> ops = {Ins("R", {"a", "b"}), Del("S", {"x"}),
                              Ins("T", {"with space", "'quoted'"})};
  Result<std::vector<DeltaOp>> back = DecodeDeltaOps(EncodeDeltaOps(ops));
  ASSERT_TRUE(back.ok()) << back.error();
  ASSERT_EQ(back->size(), ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ((*back)[i].insert, ops[i].insert);
    EXPECT_EQ((*back)[i].relation, ops[i].relation);
    EXPECT_EQ((*back)[i].values, ops[i].values);
  }
}

TEST(DeltaCodecTest, DecodeRejectsHostileShapes) {
  auto reject = [](const char* json) {
    Result<Json> parsed = Json::Parse(json);
    ASSERT_TRUE(parsed.ok()) << json;
    Result<std::vector<DeltaOp>> ops = DecodeDeltaOps(parsed.value());
    EXPECT_FALSE(ops.ok()) << json;
  };
  reject("{}");                                       // not an array
  reject("[42]");                                     // op not an object
  reject("[{\"relation\":\"R\",\"values\":[]}]");     // missing "op"
  reject("[{\"op\":\"upsert\",\"relation\":\"R\",\"values\":[\"a\"]}]");
  reject("[{\"op\":\"insert\",\"values\":[\"a\"]}]"); // missing relation
  reject("[{\"op\":\"insert\",\"relation\":\"R\"}]"); // missing values
  reject("[{\"op\":\"insert\",\"relation\":\"R\",\"values\":[1]}]");
}

// ---------------------------------------------------------------------------
// ShardedSolveService::ApplyDelta

// Submits one solve and waits for its terminal response.
ServeResponse SolveOn(ShardedSolveService& service, const std::string& db,
                      const char* query_text) {
  auto state = std::make_shared<
      std::pair<std::mutex, std::pair<bool, ServeResponse>>>();
  ServeJob job(Q(query_text), nullptr);
  Result<uint64_t> id = service.Submit(db, std::move(job),
                                       [state](const ServeResponse& r) {
                                         std::lock_guard<std::mutex> lock(
                                             state->first);
                                         state->second = {true, r};
                                       });
  EXPECT_TRUE(id.ok()) << (id.ok() ? "" : id.error());
  for (int i = 0; i < 20'000; ++i) {
    {
      std::lock_guard<std::mutex> lock(state->first);
      if (state->second.first) return state->second.second;
    }
    std::this_thread::sleep_for(milliseconds(1));
  }
  ADD_FAILURE() << "terminal response never delivered";
  return ServeResponse{};
}

Verdict VerdictOf(const ServeResponse& r) {
  EXPECT_TRUE(r.result.ok()) << (r.result.ok() ? "" : r.result.error());
  return r.result.ok() ? r.result->verdict : Verdict::kExhausted;
}

ShardedServiceOptions CachedOptions() {
  ShardedServiceOptions options;
  options.shard.workers = 2;
  options.shard.cache_entries = 256;
  options.shard.warm_state = true;
  return options;
}

// On q = R(x | y), not S(y | x): with S(b | a) present every repair keeping
// an R(a | _) fact can be falsified — not certain; deleting S(b | a) makes
// q certain. The delta flips the verdict.
constexpr char kFlipQuery[] = "R(x | y), not S(y | x)";
constexpr char kFlipBase[] = "R(a | b), R(a | c)\nS(b | a)";

TEST(ServiceDeltaTest, ApplyPublishesANewEpochThatFlipsTheVerdict) {
  ShardedSolveService service(CachedOptions());
  ASSERT_TRUE(service.Attach("main", DbVal(kFlipBase)).ok());

  EXPECT_EQ(VerdictOf(SolveOn(service, "main", kFlipQuery)),
            Verdict::kNotCertain);

  Result<DeltaOutcome> out =
      service.ApplyDelta("main", Delta("d1", {Del("S", {"b", "a"})}));
  ASSERT_TRUE(out.ok()) << out.error();
  EXPECT_TRUE(out->applied);
  EXPECT_EQ(out->epoch, 1u);
  EXPECT_EQ(out->deleted, 1u);

  EXPECT_EQ(VerdictOf(SolveOn(service, "main", kFlipQuery)),
            Verdict::kCertain);

  Result<ServiceStats> stats = service.StatsFor("main");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->epoch, 1u);
  EXPECT_EQ(stats->deltas_applied, 1u);
}

TEST(ServiceDeltaTest, DuplicateDeltaIdsAckIdempotently) {
  ShardedSolveService service(CachedOptions());
  ASSERT_TRUE(service.Attach("main", DbVal(kFlipBase)).ok());

  FactDelta d = Delta("retry-me", {Ins("R", {"n", "n"})});
  Result<DeltaOutcome> first = service.ApplyDelta("main", d);
  ASSERT_TRUE(first.ok()) << first.error();
  EXPECT_TRUE(first->applied);

  // The retry (a client that lost the ack) must not re-apply: same epoch,
  // same fingerprint, applied == false.
  Result<DeltaOutcome> second = service.ApplyDelta("main", d);
  ASSERT_TRUE(second.ok()) << second.error();
  EXPECT_FALSE(second->applied);
  EXPECT_EQ(second->epoch, first->epoch);
  EXPECT_EQ(second->fingerprint, first->fingerprint);

  Result<ServiceStats> stats = service.StatsFor("main");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->epoch, 1u);
}

TEST(ServiceDeltaTest, RejectionsAreTypedAndLeaveTheEpochAlone) {
  ShardedSolveService service(CachedOptions());
  ASSERT_TRUE(service.Attach("main", DbVal(kFlipBase)).ok());

  Result<DeltaOutcome> unknown_db =
      service.ApplyDelta("ghost", Delta("d1", {Ins("R", {"a", "b"})}));
  ASSERT_FALSE(unknown_db.ok());
  EXPECT_EQ(unknown_db.code(), ErrorCode::kDetached);

  Result<DeltaOutcome> bad_ops =
      service.ApplyDelta("main", Delta("d2", {Ins("Nope", {"a"})}));
  ASSERT_FALSE(bad_ops.ok());
  EXPECT_EQ(bad_ops.code(), ErrorCode::kUnsupported);

  Result<DeltaOutcome> no_id = service.ApplyDelta("main", Delta("", {}));
  ASSERT_FALSE(no_id.ok());

  Result<ServiceStats> stats = service.StatsFor("main");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->epoch, 0u);
  EXPECT_EQ(stats->deltas_applied, 0u);
}

TEST(ServiceDeltaTest, DisjointFootprintEntriesKeepServingHits) {
  ShardedSolveService service(CachedOptions());
  ASSERT_TRUE(
      service.Attach("main", DbVal("R(a | b)\nS(b | a)\nU(u | v)")).ok());

  // Warm the cache with a query that never mentions S.
  const char* untouched_query = "U(x | y)";
  SolveOn(service, "main", untouched_query);
  Result<ServiceStats> before = service.StatsFor("main");
  ASSERT_TRUE(before.ok());

  // Delta touches only S: the U-entry must be rekeyed, not dropped.
  Result<DeltaOutcome> out =
      service.ApplyDelta("main", Delta("d1", {Del("S", {"b", "a"})}));
  ASSERT_TRUE(out.ok()) << out.error();
  EXPECT_GE(out->cache_rekeyed, 1u);

  SolveOn(service, "main", untouched_query);
  Result<ServiceStats> after = service.StatsFor("main");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->cache_hits, before->cache_hits + 1)
      << "the rekeyed entry should have served this hit";
  EXPECT_EQ(after->cache_misses, before->cache_misses)
      << "no re-solve for a query whose footprint the delta missed";
}

TEST(ServiceDeltaTest, IntersectingFootprintEntriesAreInvalidated) {
  ShardedSolveService service(CachedOptions());
  ASSERT_TRUE(service.Attach("main", DbVal(kFlipBase)).ok());

  SolveOn(service, "main", kFlipQuery);  // caches under the old epoch
  Result<DeltaOutcome> out =
      service.ApplyDelta("main", Delta("d1", {Del("S", {"b", "a"})}));
  ASSERT_TRUE(out.ok()) << out.error();
  EXPECT_GE(out->cache_invalidated, 1u);

  // The re-solve after invalidation answers from the new epoch.
  EXPECT_EQ(VerdictOf(SolveOn(service, "main", kFlipQuery)),
            Verdict::kCertain);
}

}  // namespace
}  // namespace cqa
