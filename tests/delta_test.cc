// Unit tests for the live-update delta layer (src/cqa/delta/delta.*):
// validation, copy-on-write epoch construction, O(delta) fingerprint
// maintenance, wire codec strictness — and the service-level contract of
// ShardedSolveService::ApplyDelta (publication, idempotency, footprint-
// scoped cache treatment, per-shard counters). Journal durability and
// crash recovery live in journal_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <span>
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
      const int id = first + static_cast<int>(i);
      const Database::Block& blk = blocks[i];
      EXPECT_EQ(blk.relation, rs.name);
      EXPECT_EQ(&db.block(id), &blk);
      const std::span<const Value> key = db.BlockKey(id);
      std::optional<int> ref_id = ref.BlockWithKey(rs.name, key);
      ASSERT_TRUE(ref_id.has_value());
      std::set<Tuple> mine;
      for (size_t m = 0; m < blk.size(); ++m) {
        const Tuple& fact = db.BlockFact(id, m);
        EXPECT_TRUE(std::equal(key.begin(), key.end(), fact.begin()));
        EXPECT_EQ(db.BlockOf(rs.name, fact), std::optional<int>(id));
        mine.insert(fact);
      }
      std::set<Tuple> theirs;
      for (const Tuple* fact : ref.FactsWithKey(rs.name, key)) {
        theirs.insert(*fact);
      }
      EXPECT_EQ(mine, theirs);
      std::set<Tuple> by_key;
      for (const Tuple* fact : db.FactsWithKey(rs.name, key)) {
        by_key.insert(*fact);
      }
      EXPECT_EQ(by_key, theirs);
      EXPECT_EQ(db.BlockWithKey(rs.name, key), std::optional<int>(id));
    }
    for (const Tuple& fact : ref.FactsOf(rs.name)) {
      EXPECT_TRUE(db.Contains(rs.name, fact));
      std::optional<int> b = db.BlockOf(rs.name, fact);
      ASSERT_TRUE(b.has_value());
      EXPECT_EQ(db.block(*b).relation, rs.name);
      const std::span<const Value> key = db.BlockKey(*b);
      EXPECT_TRUE(std::equal(key.begin(), key.end(), fact.begin()));
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

// The documented numbering of a relation's index, kept by a plain model:
// facts number in insertion order and a removal moves the last fact into
// the hole; blocks number by first appearance and an emptied block is
// replaced by the last one; a block's members keep their insertion order,
// a removal shifts the later ones down, and a moved fact keeps its member
// position under its new number.
struct IndexModel {
  std::vector<Tuple> facts;
  std::vector<std::vector<int>> blocks;  // member fact numbers
  std::vector<int> fact_to_block;
  std::map<Tuple, int> fact_id;
  std::map<Value, int> block_id;  // by key (R has a one-value key)

  int FindFact(const Tuple& t) const {
    auto it = fact_id.find(t);
    return it == fact_id.end() ? -1 : it->second;
  }
  void Add(const Tuple& t) {
    auto [it, fresh] =
        block_id.emplace(t[0], static_cast<int>(blocks.size()));
    if (fresh) blocks.emplace_back();
    const int b = it->second;
    blocks[static_cast<size_t>(b)].push_back(static_cast<int>(facts.size()));
    fact_to_block.push_back(b);
    fact_id[t] = static_cast<int>(facts.size());
    facts.push_back(t);
  }
  void Remove(int idx) {
    const int last = static_cast<int>(facts.size()) - 1;
    const int b = fact_to_block[static_cast<size_t>(idx)];
    std::vector<int>& members = blocks[static_cast<size_t>(b)];
    members.erase(std::find(members.begin(), members.end(), idx));
    const Value key = facts[static_cast<size_t>(idx)][0];
    fact_id.erase(facts[static_cast<size_t>(idx)]);
    if (idx != last) {
      facts[static_cast<size_t>(idx)] = facts[static_cast<size_t>(last)];
      fact_id[facts[static_cast<size_t>(idx)]] = idx;
      const int mb = fact_to_block[static_cast<size_t>(last)];
      std::vector<int>& moved = blocks[static_cast<size_t>(mb)];
      *std::find(moved.begin(), moved.end(), last) = idx;
      fact_to_block[static_cast<size_t>(idx)] = mb;
    }
    facts.pop_back();
    fact_to_block.pop_back();
    if (members.empty()) {
      const int end = static_cast<int>(blocks.size()) - 1;
      block_id.erase(key);
      if (b != end) {
        blocks[static_cast<size_t>(b)] = blocks[static_cast<size_t>(end)];
        block_id[facts[static_cast<size_t>(
            blocks[static_cast<size_t>(b)][0])][0]] = b;
        for (int f : blocks[static_cast<size_t>(b)]) {
          fact_to_block[static_cast<size_t>(f)] = b;
        }
      }
      blocks.pop_back();
    }
  }
};

// `db` holds exactly the model's facts under the model's fact numbers,
// block ids and member order, and every lookup agrees with a from-scratch
// load of the same facts. `gone` are facts that must be absent.
void ExpectModelIndex(const Database& db, const IndexModel& model,
                      const std::vector<Tuple>& gone, const std::string& where) {
  SCOPED_TRACE(where);
  const Symbol r = InternSymbol("R");
  ASSERT_EQ(db.FactsOf(r), model.facts);
  ASSERT_EQ(db.NumBlocks(), model.blocks.size());
  Result<Database> ref = Database::FromText(db.ToText());
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(FingerprintDatabase(db), FingerprintDatabase(*ref));
  EXPECT_EQ(db.NumBlocks(), ref->NumBlocks());
  const int first = db.FirstBlockId(r);
  for (size_t lb = 0; lb < model.blocks.size(); ++lb) {
    const int b = first + static_cast<int>(lb);
    const std::vector<int>& members = model.blocks[lb];
    ASSERT_EQ(db.block(b).size(), members.size());
    const std::span<const Value> key = db.BlockKey(b);
    ASSERT_EQ(key.size(), 1u);
    EXPECT_EQ(key[0], model.facts[static_cast<size_t>(members[0])][0]);
    EXPECT_EQ(db.BlockWithKey(r, key), std::optional<int>(b));
    const std::vector<const Tuple*> by_key = db.FactsWithKey(r, key);
    ASSERT_EQ(by_key.size(), members.size());
    std::set<Tuple> mine;
    for (size_t m = 0; m < members.size(); ++m) {
      const Tuple& fact = db.BlockFact(b, m);
      EXPECT_EQ(fact, model.facts[static_cast<size_t>(members[m])]);
      EXPECT_EQ(by_key[m], &fact);
      mine.insert(fact);
    }
    std::set<Tuple> theirs;
    for (const Tuple* t : ref->FactsWithKey(r, key)) theirs.insert(*t);
    EXPECT_EQ(mine, theirs);
    if (::testing::Test::HasFailure()) return;
  }
  for (size_t f = 0; f < model.facts.size(); ++f) {
    const Tuple& fact = model.facts[f];
    EXPECT_TRUE(db.Contains(r, fact));
    EXPECT_EQ(db.BlockOf(r, fact),
              std::optional<int>(first + model.fact_to_block[f]));
    EXPECT_TRUE(ref->Contains(r, fact));
  }
  for (const Tuple& fact : gone) {
    EXPECT_FALSE(db.Contains(r, fact));
    EXPECT_FALSE(db.BlockOf(r, fact).has_value());
  }
}

TEST(DeltaIndexStressTest, OneRelationThroughTenThousandInsertsAndDeletes) {
  // One relation R(k | v) driven through >10^4 seeded inserts and deletes:
  // thousands of singleton blocks beside one block that grows past 512
  // members, so the hash tables double several times, the big block's
  // member slice moves and shrinks, and runs of deletions of neighbouring
  // keys exercise the tables' backward-shift deletion. The model fixes the
  // numbering; a reload checks the lookups.
  Database db = DbVal("R(s0 | v0)");
  IndexModel model;
  model.Add({Value::Of("s0"), Value::Of("v0")});
  const Symbol r = InternSymbol("R");
  Rng rng(4242);
  std::vector<Tuple> gone;
  int ops = 0;
  auto insert = [&](const std::string& k, const std::string& v) {
    Tuple t{Value::Of(k), Value::Of(v)};
    Result<bool> added = db.AddFact(r, t);
    ASSERT_TRUE(added.ok());
    EXPECT_EQ(added.value(), model.FindFact(t) < 0);
    if (added.value()) model.Add(t);
    ++ops;
  };
  auto remove = [&](const Tuple& t) {
    const int idx = model.FindFact(t);
    EXPECT_EQ(db.RemoveFact(r, t), idx >= 0);
    if (idx >= 0) model.Remove(idx);
    gone.push_back(t);
    ++ops;
  };
  auto check = [&](const std::string& where) {
    // Only the most recent deletions are still absent for sure.
    std::vector<Tuple> recent(
        gone.end() - static_cast<std::ptrdiff_t>(std::min<size_t>(
                         gone.size(), 200)),
        gone.end());
    std::erase_if(recent, [&](const Tuple& t) { return model.FindFact(t) >= 0; });
    ExpectModelIndex(db, model, recent, where);
  };

  // Growth: 6000 singletons, every tenth insert also into the big block.
  for (int i = 1; i <= 6000; ++i) {
    insert("s" + std::to_string(i), "v" + std::to_string(i % 5));
    if (i % 10 == 0) insert("big", "b" + std::to_string(i));
    if (i % 1500 == 0) check("grow " + std::to_string(i));
    if (::testing::Test::HasFatalFailure()) return;
  }
  ASSERT_GE(db.block(*db.BlockWithKey(r, Tuple{Value::Of("big")})).size(),
            512u);
  // Deletion runs over consecutive keys, then most of the big block in
  // random order (its slice gives up room as it empties). Together they
  // free most of the member pool, so the pool compacts.
  for (int run = 0; run < 4; ++run) {
    const int start = 1 + static_cast<int>(rng.Below(5000));
    for (int i = start; i < start + 1000 && i <= 6000; ++i) {
      remove({Value::Of("s" + std::to_string(i)),
              Value::Of("v" + std::to_string(i % 5))});
    }
    check("delete run " + std::to_string(run));
    if (::testing::Test::HasFatalFailure()) return;
  }
  for (int n = 0; n < 550; ++n) {
    const int i = 10 * (1 + static_cast<int>(rng.Below(600)));
    remove({Value::Of("big"), Value::Of("b" + std::to_string(i))});
  }
  check("big block drained");
  if (::testing::Test::HasFatalFailure()) return;

  // Mixed random churn on a smaller key domain, with copy-then-mutate
  // isolation checked at every checkpoint, both ways.
  for (int round = 0; ops < 12000; ++round) {
    for (int n = 0; n < 400; ++n) {
      const std::string k =
          rng.Chance(0.2) ? "big" : "s" + std::to_string(rng.Below(3000));
      const std::string v = (k == "big" ? "b" : "v") +
                            std::to_string(k == "big" ? 10 * rng.Below(600)
                                                      : rng.Below(5));
      if (rng.Chance(0.5)) {
        insert(k, v);
      } else {
        remove({Value::Of(k), Value::Of(v)});
      }
    }
    check("churn " + std::to_string(round));
    if (::testing::Test::HasFatalFailure()) return;

    const Database copy = db;
    const IndexModel copy_model = model;
    remove(model.facts[rng.Below(model.facts.size())]);
    insert("iso" + std::to_string(round), "x");
    ExpectModelIndex(copy, copy_model, {}, "copy after source mutated");
    Database second = copy;
    IndexModel second_model = copy_model;
    const Tuple t = second_model.facts[rng.Below(second_model.facts.size())];
    ASSERT_TRUE(second.RemoveFact(r, t));
    second_model.Remove(second_model.FindFact(t));
    ASSERT_TRUE(second.AddFact(r, {Value::Of("iso2"), Value::Of("y")}).ok());
    second_model.Add({Value::Of("iso2"), Value::Of("y")});
    ExpectModelIndex(second, second_model, {t}, "mutated copy");
    ExpectModelIndex(copy, copy_model, {}, "copy after its copy mutated");
    ExpectModelIndex(db, model, {}, "source after copy mutated");
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GE(ops, 10000);
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
                epoch_k->FactsWithKey(rs.name, epoch_k->BlockKey(*b))
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
