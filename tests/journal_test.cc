// Durability tests for the write-ahead delta journal (src/cqa/delta/
// journal.*) and the crash-recovery contract of ShardedSolveService:
//
//  * on-disk format: append/replay roundtrip, CRC rejection, torn-tail
//    truncation at EVERY byte offset of a multi-record journal — the
//    recovered state must equal a clean application of exactly the record
//    prefix that fits, with verdict parity across every solver engine;
//  * fault injection: clean append failure (nothing written, delta
//    rejected) and mid-write tear (the kill -9 on-disk image), both
//    recovered from on restart;
//  * restart semantics: journal replay over the base snapshot restores the
//    acknowledged fingerprint, seeds idempotency ids, and rejects a wrong
//    base snapshot instead of serving a silently diverged database.

#include <gtest/gtest.h>

#include <stdlib.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cqa/cache/fingerprint.h"
#include "cqa/certainty/solver.h"
#include "cqa/db/database.h"
#include "cqa/delta/delta.h"
#include "cqa/delta/journal.h"
#include "cqa/query/parser.h"
#include "cqa/registry/sharded_service.h"

namespace cqa {
namespace {

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

struct TempDir {
  std::string path;
  TempDir() {
    char buf[] = "/tmp/cqa_journal_test_XXXXXX";
    char* made = mkdtemp(buf);
    EXPECT_NE(made, nullptr);
    path = made != nullptr ? made : "/tmp";
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  EXPECT_TRUE(out.good()) << path;
}

constexpr char kBase[] = "R(a | b), R(a | c)\nS(b | a)\nT(x | y)";
constexpr char kQuery[] = "R(x | y), not S(y | x)";

// A small scripted history whose deltas change the query's verdict along
// the way (so prefix confusion cannot fingerprint-collide into passing).
std::vector<FactDelta> ScriptedDeltas() {
  return {
      Delta("d1", {Ins("R", {"d", "e"})}),
      Delta("d2", {Del("S", {"b", "a"})}),          // flips kQuery to certain
      Delta("d3", {Ins("S", {"e", "d"}), Ins("T", {"t2", "u2"})}),
      Delta("d4", {Del("R", {"d", "e"})}),
      Delta("d5", {Ins("S", {"b", "a"}), Del("T", {"x", "y"})}),
  };
}

// Applies `deltas` to a fresh base snapshot, returning every intermediate
// epoch's fingerprint (index 0 = base, i = after delta i-1) and the final
// database.
std::pair<std::vector<DbFingerprint>, std::shared_ptr<const Database>>
CleanHistory(const std::vector<FactDelta>& deltas) {
  auto current = std::make_shared<const Database>(DbVal(kBase));
  std::vector<DbFingerprint> fps = {FingerprintDatabase(*current)};
  for (const FactDelta& d : deltas) {
    Result<DeltaApplyOutcome> out = ApplyDeltaToDatabase(*current, d);
    EXPECT_TRUE(out.ok()) << out.error();
    current = out->db;
    fps.push_back(out->fingerprint);
  }
  return {fps, current};
}

// The full engine roster (`kSolverMethods`): recovered and clean
// databases must agree on every engine's outcome (verdict when it
// answers, error code when the query is outside the engine's fragment).
void ExpectVerdictParity(const Database& recovered, const Database& clean) {
  Result<Query> q = ParseQuery(kQuery);
  ASSERT_TRUE(q.ok());
  for (SolverMethod m : kSolverMethods) {
    Result<SolveReport> a = SolveCertainty(*q, recovered, m);
    Result<SolveReport> b = SolveCertainty(*q, clean, m);
    ASSERT_EQ(a.ok(), b.ok()) << "engine " << ToString(m);
    if (a.ok()) {
      EXPECT_EQ(a->verdict, b->verdict) << "engine " << ToString(m);
    } else {
      EXPECT_EQ(a.code(), b.code()) << "engine " << ToString(m);
    }
  }
}

// ---------------------------------------------------------------------------
// Format

TEST(JournalFormatTest, AppendReplayRoundtrip) {
  TempDir dir;
  const std::string path = dir.path + "/roundtrip.journal";
  std::vector<FactDelta> deltas = ScriptedDeltas();
  auto [fps, final_db] = CleanHistory(deltas);
  {
    Result<std::unique_ptr<DeltaJournal>> journal =
        DeltaJournal::Open(path, JournalOptions{});
    ASSERT_TRUE(journal.ok()) << journal.error();
    for (size_t i = 0; i < deltas.size(); ++i) {
      Result<bool> appended = (*journal)->Append(deltas[i], fps[i + 1]);
      ASSERT_TRUE(appended.ok()) << appended.error();
    }
    // kAlways: every acked record was fsynced before the ack.
    EXPECT_EQ((*journal)->fsyncs(), deltas.size());
    EXPECT_EQ((*journal)->appends(), deltas.size());
  }
  Result<JournalReplay> replay = ReplayJournalFile(path, false);
  ASSERT_TRUE(replay.ok()) << replay.error();
  EXPECT_FALSE(replay->truncated_tail);
  ASSERT_EQ(replay->records.size(), deltas.size());
  for (size_t i = 0; i < deltas.size(); ++i) {
    const JournalRecord& rec = replay->records[i];
    EXPECT_EQ(rec.delta.id, deltas[i].id);
    EXPECT_EQ(rec.fp_after, fps[i + 1]);
    ASSERT_EQ(rec.delta.ops.size(), deltas[i].ops.size());
    for (size_t j = 0; j < deltas[i].ops.size(); ++j) {
      EXPECT_EQ(rec.delta.ops[j].insert, deltas[i].ops[j].insert);
      EXPECT_EQ(rec.delta.ops[j].relation, deltas[i].ops[j].relation);
      EXPECT_EQ(rec.delta.ops[j].values, deltas[i].ops[j].values);
    }
  }
}

TEST(JournalFormatTest, MissingFileIsAnEmptyJournal) {
  TempDir dir;
  Result<JournalReplay> replay =
      ReplayJournalFile(dir.path + "/never-written.journal", true);
  ASSERT_TRUE(replay.ok()) << replay.error();
  EXPECT_TRUE(replay->records.empty());
  EXPECT_FALSE(replay->truncated_tail);
}

// The crash differential: for EVERY byte offset a kill -9 could leave the
// file at, the parsed prefix must be exactly the records that fit whole,
// and replaying them over the base snapshot must land on the fingerprint
// acknowledged for that prefix.
TEST(JournalFormatTest, EveryTruncationOffsetRecoversTheAckedPrefix) {
  TempDir dir;
  const std::string path = dir.path + "/cut.journal";
  std::vector<FactDelta> deltas = ScriptedDeltas();
  auto [fps, final_db] = CleanHistory(deltas);

  std::vector<uint64_t> boundaries = {0};  // end offset of record i
  {
    JournalOptions fast;
    fast.fsync = FsyncPolicy::kNever;
    Result<std::unique_ptr<DeltaJournal>> journal =
        DeltaJournal::Open(path, fast);
    ASSERT_TRUE(journal.ok()) << journal.error();
    for (size_t i = 0; i < deltas.size(); ++i) {
      ASSERT_TRUE((*journal)->Append(deltas[i], fps[i + 1]).ok());
      boundaries.push_back((*journal)->bytes_written());
    }
  }
  const std::string bytes = ReadFileBytes(path);
  ASSERT_EQ(bytes.size(), boundaries.back());

  for (size_t cut = 0; cut <= bytes.size(); ++cut) {
    JournalReplay replay = ParseJournalBytes(
        std::string_view(bytes.data(), cut));
    // Number of whole records below the cut.
    size_t expected = 0;
    while (expected + 1 < boundaries.size() &&
           boundaries[expected + 1] <= cut) {
      ++expected;
    }
    ASSERT_EQ(replay.records.size(), expected) << "cut at " << cut;
    EXPECT_EQ(replay.valid_bytes, boundaries[expected]) << "cut at " << cut;
    EXPECT_EQ(replay.truncated_tail, cut != boundaries[expected])
        << "cut at " << cut;

    // Recovery lands on the acked prefix's fingerprint (checked at every
    // cut; O(1) per record thanks to the incremental digest).
    auto recovered = std::make_shared<const Database>(DbVal(kBase));
    for (const JournalRecord& rec : replay.records) {
      Result<DeltaApplyOutcome> out = ApplyDeltaToDatabase(*recovered, rec.delta);
      ASSERT_TRUE(out.ok()) << out.error();
      EXPECT_EQ(out->fingerprint, rec.fp_after);
      recovered = out->db;
    }
    EXPECT_EQ(FingerprintDatabase(*recovered), fps[expected])
        << "cut at " << cut;
  }

  // Verdict parity at each record boundary: the recovered database answers
  // like a clean application of the same prefix, on every engine.
  auto clean = std::make_shared<const Database>(DbVal(kBase));
  JournalReplay full = ParseJournalBytes(bytes);
  auto recovered = std::make_shared<const Database>(DbVal(kBase));
  ExpectVerdictParity(*recovered, *clean);
  for (size_t i = 0; i < full.records.size(); ++i) {
    Result<DeltaApplyOutcome> r =
        ApplyDeltaToDatabase(*recovered, full.records[i].delta);
    Result<DeltaApplyOutcome> c = ApplyDeltaToDatabase(*clean, deltas[i]);
    ASSERT_TRUE(r.ok() && c.ok());
    recovered = r->db;
    clean = c->db;
    ExpectVerdictParity(*recovered, *clean);
  }
}

TEST(JournalFormatTest, RandomCorruptionNeverCrashesAndYieldsAPrefix) {
  TempDir dir;
  const std::string path = dir.path + "/corrupt.journal";
  std::vector<FactDelta> deltas = ScriptedDeltas();
  auto [fps, final_db] = CleanHistory(deltas);
  {
    JournalOptions fast;
    fast.fsync = FsyncPolicy::kNever;
    Result<std::unique_ptr<DeltaJournal>> journal =
        DeltaJournal::Open(path, fast);
    ASSERT_TRUE(journal.ok());
    for (size_t i = 0; i < deltas.size(); ++i) {
      ASSERT_TRUE((*journal)->Append(deltas[i], fps[i + 1]).ok());
    }
  }
  const std::string clean_bytes = ReadFileBytes(path);
  std::mt19937_64 rng(0x5eed5eedull);
  for (int trial = 0; trial < 500; ++trial) {
    std::string bytes = clean_bytes;
    size_t pos = rng() % bytes.size();
    bytes[pos] = static_cast<char>(rng());
    JournalReplay replay = ParseJournalBytes(bytes);
    // A flipped byte can only shorten the valid prefix (or, for a benign
    // same-value write, leave it alone) — and every surviving record must
    // still replay to its own recorded fingerprint.
    EXPECT_LE(replay.records.size(), deltas.size());
    auto db = std::make_shared<const Database>(DbVal(kBase));
    for (const JournalRecord& rec : replay.records) {
      Result<DeltaApplyOutcome> out = ApplyDeltaToDatabase(*db, rec.delta);
      if (!out.ok()) break;  // corrupted ops that still pass CRC are
                             // impossible; schema says otherwise → stop
      EXPECT_EQ(out->fingerprint, rec.fp_after);
      db = out->db;
    }
  }
}

TEST(JournalChaosTest, CleanAppendFailureWritesNothing) {
  TempDir dir;
  const std::string path = dir.path + "/fail.journal";
  JournalOptions chaos;
  chaos.fsync = FsyncPolicy::kNever;
  chaos.fail_after_appends = 1;
  Result<std::unique_ptr<DeltaJournal>> journal =
      DeltaJournal::Open(path, chaos);
  ASSERT_TRUE(journal.ok());
  Database base = DbVal(kBase);
  DbFingerprint fp = FingerprintDatabase(base);
  ASSERT_TRUE((*journal)->Append(Delta("a", {Ins("R", {"1", "2"})}), fp).ok());
  const uint64_t after_first = (*journal)->bytes_written();
  Result<bool> second =
      (*journal)->Append(Delta("b", {Ins("R", {"3", "4"})}), fp);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ((*journal)->bytes_written(), after_first);
  JournalReplay replay = ParseJournalBytes(ReadFileBytes(path));
  ASSERT_EQ(replay.records.size(), 1u);
  EXPECT_EQ(replay.records[0].delta.id, "a");
  EXPECT_FALSE(replay.truncated_tail);
}

TEST(JournalChaosTest, TornAppendLeavesARecoverablePrefix) {
  TempDir dir;
  const std::string path = dir.path + "/tear.journal";
  JournalOptions chaos;
  chaos.fsync = FsyncPolicy::kNever;
  chaos.tear_after_appends = 1;
  chaos.tear_keep_bytes = 6;  // half a header: the torn image of kill -9
  Result<std::unique_ptr<DeltaJournal>> journal =
      DeltaJournal::Open(path, chaos);
  ASSERT_TRUE(journal.ok());
  Database base = DbVal(kBase);
  DbFingerprint fp = FingerprintDatabase(base);
  ASSERT_TRUE((*journal)->Append(Delta("a", {Ins("R", {"1", "2"})}), fp).ok());
  ASSERT_FALSE(
      (*journal)->Append(Delta("b", {Ins("R", {"3", "4"})}), fp).ok());

  // Replay with truncation recovers record "a" and cuts the torn bytes so
  // the next append restarts at a record boundary.
  Result<JournalReplay> replay = ReplayJournalFile(path, true);
  ASSERT_TRUE(replay.ok()) << replay.error();
  ASSERT_EQ(replay->records.size(), 1u);
  EXPECT_TRUE(replay->truncated_tail);
  EXPECT_EQ(std::filesystem::file_size(path), replay->valid_bytes);

  Result<std::unique_ptr<DeltaJournal>> reopened =
      DeltaJournal::Open(path, JournalOptions{});
  ASSERT_TRUE(reopened.ok());
  ASSERT_TRUE(
      (*reopened)->Append(Delta("b", {Ins("R", {"3", "4"})}), fp).ok());
  JournalReplay after = ParseJournalBytes(ReadFileBytes(path));
  ASSERT_EQ(after.records.size(), 2u);
  EXPECT_EQ(after.records[1].delta.id, "b");
}

// ---------------------------------------------------------------------------
// Group fsync

// Concurrent appliers under kGroup share fsyncs: with enough overlap the
// number of fsyncs is strictly smaller than the number of acked deltas,
// and every ack still implies a covering fsync ran first.
TEST(JournalGroupFsyncTest, ConcurrentAcksShareFsyncs) {
  TempDir dir;
  const std::string path = dir.path + "/group.journal";
  JournalOptions group;
  group.fsync = FsyncPolicy::kGroup;
  group.group_max_delay = std::chrono::milliseconds(20);
  group.group_max_batch = 64;
  Result<std::unique_ptr<DeltaJournal>> journal =
      DeltaJournal::Open(path, group);
  ASSERT_TRUE(journal.ok()) << journal.error();
  Database base = DbVal(kBase);
  DbFingerprint fp = FingerprintDatabase(base);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 16;
  std::mutex append_mu;  // stands in for the shard's delta lock
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        uint64_t seq = 0;
        {
          std::lock_guard<std::mutex> lock(append_mu);
          std::string id = "t" + std::to_string(t) + "-" + std::to_string(i);
          Result<bool> appended = (*journal)->Append(
              Delta(id, {Ins("T", {id, "v"})}), fp, /*epoch=*/1);
          if (!appended.ok()) {
            ++failures;
            return;
          }
          seq = (*journal)->appends();
        }
        // Ack gate, outside the lock: this is where batching happens.
        if (!(*journal)->WaitDurable(seq).ok()) ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(failures.load(), 0);
  EXPECT_EQ((*journal)->appends(), uint64_t{kThreads * kPerThread});
  EXPECT_GE((*journal)->fsyncs(), 1u);
  // A fully serialized schedule (one CPU, unlucky scheduler) can pay one
  // fsync per ack, so the hard bound is <=; BurstThenFlushSharesOneFsync
  // below asserts the amortization deterministically.
  EXPECT_LE((*journal)->fsyncs(), uint64_t{kThreads * kPerThread});
  // Everything acked is durable.
  EXPECT_EQ((*journal)->durable_bytes(), (*journal)->bytes_written());
  JournalReplay replay = ParseJournalBytes(ReadFileBytes(path));
  EXPECT_EQ(replay.records.size(), size_t{kThreads * kPerThread});
  EXPECT_FALSE(replay.truncated_tail);
}

// Deterministic fsync amortization: a burst of appends with no durability
// waiter stays in the batch window, and the single flush barrier at the
// end covers the whole burst with (essentially) one fsync. The batcher
// flushes early only when a waiter is registered AND no new append
// arrived since the last wakeup, so an ack-less burst coalesces fully.
TEST(JournalGroupFsyncTest, BurstThenFlushSharesOneFsync) {
  TempDir dir;
  const std::string path = dir.path + "/burst.journal";
  JournalOptions group;
  group.fsync = FsyncPolicy::kGroup;
  group.group_max_delay = std::chrono::milliseconds(200);
  group.group_max_batch = 64;
  Result<std::unique_ptr<DeltaJournal>> journal =
      DeltaJournal::Open(path, group);
  ASSERT_TRUE(journal.ok()) << journal.error();
  Database base = DbVal(kBase);
  DbFingerprint fp = FingerprintDatabase(base);
  constexpr int kBurst = 16;
  for (int i = 0; i < kBurst; ++i) {
    std::string id = "b" + std::to_string(i);
    ASSERT_TRUE(
        (*journal)->Append(Delta(id, {Ins("T", {id, "v"})}), fp, 1).ok());
  }
  ASSERT_TRUE((*journal)->FlushDurable().ok());
  EXPECT_EQ((*journal)->appends(), uint64_t{kBurst});
  EXPECT_EQ((*journal)->durable_bytes(), (*journal)->bytes_written());
  // One covering fsync in the common case; a scheduler stall longer than
  // the 200ms window could split the burst, so allow a little slack.
  EXPECT_LE((*journal)->fsyncs(), 4u)
      << "an ack-less burst should coalesce into ~one fsync";
}

// The power-loss differential for group mode: truncate the file to
// `durable_bytes()` (what stable storage is guaranteed to hold) and check
// every *acked* record survives. Unacked appends past the durable mark may
// die — that is the documented trade — but they were never acknowledged.
TEST(JournalGroupFsyncTest, AckedRecordsSurviveTruncationToDurableBytes) {
  TempDir dir;
  const std::string path = dir.path + "/powerloss.journal";
  Database base = DbVal(kBase);
  DbFingerprint fp = FingerprintDatabase(base);
  std::vector<std::string> acked_ids;
  uint64_t durable_mark = 0;
  {
    JournalOptions group;
    group.fsync = FsyncPolicy::kGroup;
    group.group_max_delay = std::chrono::milliseconds(1);
    Result<std::unique_ptr<DeltaJournal>> journal =
        DeltaJournal::Open(path, group);
    ASSERT_TRUE(journal.ok());
    for (int i = 0; i < 10; ++i) {
      std::string id = "g" + std::to_string(i);
      ASSERT_TRUE(
          (*journal)->Append(Delta(id, {Ins("T", {id, "v"})}), fp, 1).ok());
      ASSERT_TRUE((*journal)->WaitDurable((*journal)->appends()).ok());
      acked_ids.push_back(id);
    }
    durable_mark = (*journal)->durable_bytes();
    // One more append, NOT waited on: possibly lost, never acked.
    ASSERT_TRUE(
        (*journal)->Append(Delta("unacked", {Ins("T", {"u", "v"})}), fp, 1)
            .ok());
  }
  // Simulate power loss: only the durable prefix reaches the platter.
  std::string bytes = ReadFileBytes(path);
  ASSERT_GE(bytes.size(), durable_mark);
  WriteFileBytes(path, bytes.substr(0, durable_mark));

  Result<JournalReplay> replay = ReplayJournalFile(path, true);
  ASSERT_TRUE(replay.ok());
  ASSERT_GE(replay->records.size(), acked_ids.size());
  for (size_t i = 0; i < acked_ids.size(); ++i) {
    EXPECT_EQ(replay->records[i].delta.id, acked_ids[i]);
  }
}

// A failed batched fsync is sticky: the waiter gets kInternal (the delta
// must not be acked) and the journal poisons further appends — better a
// loud failure than an unbounded unsynced tail silently growing.
TEST(JournalGroupFsyncTest, FailedGroupFsyncIsStickyAndRefusesAcks) {
  TempDir dir;
  JournalOptions chaos;
  chaos.fsync = FsyncPolicy::kGroup;
  chaos.group_max_delay = std::chrono::milliseconds(1);
  chaos.fail_after_fsyncs = 1;
  Result<std::unique_ptr<DeltaJournal>> journal =
      DeltaJournal::Open(dir.path + "/sticky.journal", chaos);
  ASSERT_TRUE(journal.ok());
  Database base = DbVal(kBase);
  DbFingerprint fp = FingerprintDatabase(base);

  ASSERT_TRUE(
      (*journal)->Append(Delta("ok", {Ins("T", {"a", "b"})}), fp, 1).ok());
  ASSERT_TRUE((*journal)->WaitDurable((*journal)->appends()).ok());

  ASSERT_TRUE(
      (*journal)->Append(Delta("doomed", {Ins("T", {"c", "d"})}), fp, 2).ok());
  Result<bool> wait = (*journal)->WaitDurable((*journal)->appends());
  ASSERT_FALSE(wait.ok()) << "acked a record whose fsync failed";
  EXPECT_EQ(wait.code(), ErrorCode::kInternal);

  // Sticky: later appends are refused outright.
  Result<bool> later =
      (*journal)->Append(Delta("later", {Ins("T", {"e", "f"})}), fp, 3);
  EXPECT_FALSE(later.ok());
}

// Reset (compaction) truncates bytes but never the sequence domain: a
// WaitDurable captured before a concurrent Reset still completes.
TEST(JournalGroupFsyncTest, ResetDoesNotStrandDurabilityWaiters) {
  TempDir dir;
  JournalOptions group;
  group.fsync = FsyncPolicy::kGroup;
  group.group_max_delay = std::chrono::milliseconds(1);
  Result<std::unique_ptr<DeltaJournal>> journal =
      DeltaJournal::Open(dir.path + "/reset.journal", group);
  ASSERT_TRUE(journal.ok());
  Database base = DbVal(kBase);
  DbFingerprint fp = FingerprintDatabase(base);

  ASSERT_TRUE(
      (*journal)->Append(Delta("a", {Ins("T", {"1", "2"})}), fp, 1).ok());
  const uint64_t seq = (*journal)->appends();
  ASSERT_TRUE((*journal)->FlushDurable().ok());
  ASSERT_TRUE((*journal)->Reset().ok());
  EXPECT_EQ((*journal)->bytes_written(), 0u);
  // The pre-compaction sequence is still (vacuously) durable.
  EXPECT_TRUE((*journal)->WaitDurable(seq).ok());
  // And the journal keeps accepting appends from a record boundary.
  ASSERT_TRUE(
      (*journal)->Append(Delta("b", {Ins("T", {"3", "4"})}), fp, 2).ok());
  EXPECT_TRUE((*journal)->WaitDurable((*journal)->appends()).ok());
  JournalReplay replay =
      ParseJournalBytes(ReadFileBytes(dir.path + "/reset.journal"));
  ASSERT_EQ(replay.records.size(), 1u);
  EXPECT_EQ(replay.records[0].delta.id, "b");
}

// ---------------------------------------------------------------------------
// Service-level recovery

ShardedServiceOptions JournaledOptions(const std::string& dir) {
  ShardedServiceOptions options;
  options.shard.workers = 2;
  options.shard.cache_entries = 64;
  options.journal_dir = dir;
  options.journal.fsync = FsyncPolicy::kNever;  // tests; kAlways in prod
  return options;
}

TEST(JournalRecoveryTest, RestartReplaysAckedDeltasAndSeedsIdempotency) {
  TempDir dir;
  std::vector<FactDelta> deltas = ScriptedDeltas();
  DbFingerprint acked_fp;
  {
    ShardedSolveService service(JournaledOptions(dir.path));
    ASSERT_TRUE(service.Attach("main", DbVal(kBase)).ok());
    for (const FactDelta& d : deltas) {
      Result<DeltaOutcome> out = service.ApplyDelta("main", d);
      ASSERT_TRUE(out.ok()) << out.error();
      acked_fp = out->fingerprint;
    }
    // No detach, no shutdown handshake: the service dies like a crashed
    // process (the journal is already on disk).
  }
  {
    ShardedSolveService service(JournaledOptions(dir.path));
    Result<ShardedSolveService::Entry> attached =
        service.Attach("main", DbVal(kBase));  // the base snapshot
    ASSERT_TRUE(attached.ok()) << attached.error();
    EXPECT_EQ(attached->fingerprint, acked_fp);

    Result<ServiceStats> stats = service.StatsFor("main");
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->epoch, deltas.size());
    EXPECT_EQ(stats->deltas_applied, 0u) << "replay is not an application";

    // Replayed ids are idempotent: re-sending an acked delta is a no-op.
    Result<DeltaOutcome> dup = service.ApplyDelta("main", deltas[1]);
    ASSERT_TRUE(dup.ok()) << dup.error();
    EXPECT_FALSE(dup->applied);
    EXPECT_EQ(dup->fingerprint, acked_fp);

    // And genuinely new deltas continue the journal.
    Result<DeltaOutcome> fresh =
        service.ApplyDelta("main", Delta("d6", {Ins("T", {"n", "m"})}));
    ASSERT_TRUE(fresh.ok()) << fresh.error();
    EXPECT_TRUE(fresh->applied);
    EXPECT_EQ(fresh->epoch, deltas.size() + 1);
  }
}

TEST(JournalRecoveryTest, LongSingleRelationReplayMatchesOneByOneApplication) {
  // Replay applies every record in place to one copy of the base. Two
  // thousand records that all touch R must land on the same epoch and
  // fingerprint as applying them one epoch at a time.
  TempDir dir;
  constexpr int kRecords = 2000;
  std::vector<FactDelta> deltas;
  for (int i = 0; i < kRecords; ++i) {
    const std::string id = "r" + std::to_string(i);
    if (i % 4 == 3) {
      // Undo the previous record's insert: blocks shrink and empty too.
      deltas.push_back(Delta(id, {Del("R", {"k" + std::to_string((i - 1) % 50),
                                            "v" + std::to_string(i - 1)})}));
    } else {
      deltas.push_back(Delta(id, {Ins("R", {"k" + std::to_string(i % 50),
                                            "v" + std::to_string(i)})}));
    }
  }
  auto one_by_one = std::make_shared<const Database>(DbVal(kBase));
  for (const FactDelta& d : deltas) {
    Result<DeltaApplyOutcome> out = ApplyDeltaToDatabase(*one_by_one, d);
    ASSERT_TRUE(out.ok()) << out.error();
    one_by_one = out->db;
  }
  const DbFingerprint expected = FingerprintDatabase(*one_by_one);
  {
    ShardedSolveService service(JournaledOptions(dir.path));
    ASSERT_TRUE(service.Attach("main", DbVal(kBase)).ok());
    for (const FactDelta& d : deltas) {
      ASSERT_TRUE(service.ApplyDelta("main", d).ok());
    }
  }
  ShardedSolveService service(JournaledOptions(dir.path));
  Result<ShardedSolveService::Entry> attached =
      service.Attach("main", DbVal(kBase));
  ASSERT_TRUE(attached.ok()) << attached.error();
  EXPECT_EQ(attached->fingerprint, expected);
  EXPECT_EQ(FingerprintDatabase(*attached->db), expected);
  EXPECT_EQ(attached->db->NumFacts(), one_by_one->NumFacts());
  EXPECT_EQ(attached->db->NumBlocks(), one_by_one->NumBlocks());
  Result<ServiceStats> stats = service.StatsFor("main");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->epoch, static_cast<uint64_t>(kRecords));
}

TEST(JournalRecoveryTest, WrongBaseSnapshotFailsAttachInsteadOfDiverging) {
  TempDir dir;
  {
    ShardedSolveService service(JournaledOptions(dir.path));
    ASSERT_TRUE(service.Attach("main", DbVal(kBase)).ok());
    ASSERT_TRUE(
        service.ApplyDelta("main", Delta("d1", {Ins("R", {"z", "w"})})).ok());
  }
  {
    ShardedSolveService service(JournaledOptions(dir.path));
    // Different base: the replayed fingerprints cannot match the journal's
    // recorded ones — attaching must fail loudly, not serve wrong data.
    Result<ShardedSolveService::Entry> attached =
        service.Attach("main", DbVal("R(a | b)"));
    ASSERT_FALSE(attached.ok());
    EXPECT_EQ(attached.code(), ErrorCode::kInternal);
  }
}

TEST(JournalRecoveryTest, DuplicateAttachLeavesTheLiveJournalAlone) {
  // A second attach of a live name (a stray wire `attach` frame) must be
  // refused before recovery reads the name's files: replaying them would
  // truncate the live journal's unfinished tail, and a wrong base would
  // even fail as a divergence instead of as a duplicate.
  TempDir dir;
  ShardedSolveService service(JournaledOptions(dir.path));
  ASSERT_TRUE(service.Attach("main", DbVal(kBase)).ok());
  Result<DeltaOutcome> d1 =
      service.ApplyDelta("main", Delta("d1", {Ins("R", {"z", "w"})}));
  ASSERT_TRUE(d1.ok()) << d1.error();
  const std::string path = dir.path + "/main.journal";
  // The first 24 bytes of a record, as an append still being written
  // leaves them.
  const std::string live = ReadFileBytes(path);
  WriteFileBytes(path, live + live.substr(0, 24));
  const std::string before = ReadFileBytes(path);

  for (const char* base : {kBase, "R(a | b)"}) {
    Result<ShardedSolveService::Entry> dup =
        service.Attach("main", DbVal(base));
    ASSERT_FALSE(dup.ok());
    EXPECT_EQ(dup.code(), ErrorCode::kUnsupported) << dup.error();
    EXPECT_NE(dup.error().find("already attached"), std::string::npos)
        << dup.error();
    EXPECT_EQ(ReadFileBytes(path), before) << "base " << base;
  }
  Result<ShardedSolveService::Entry> entry = service.Get("main");
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->fingerprint, d1->fingerprint);
}

TEST(JournalRecoveryTest, CrashMidApplyRecoversToTheAckedPrefix) {
  TempDir dir;
  DbFingerprint fp_after_first;
  {
    ShardedServiceOptions chaos = JournaledOptions(dir.path);
    chaos.journal.tear_after_appends = 1;  // 2nd append dies mid-write
    chaos.journal.tear_keep_bytes = 9;
    ShardedSolveService service(chaos);
    ASSERT_TRUE(service.Attach("main", DbVal(kBase)).ok());

    Result<DeltaOutcome> first =
        service.ApplyDelta("main", Delta("d1", {Ins("R", {"p", "q"})}));
    ASSERT_TRUE(first.ok()) << first.error();
    fp_after_first = first->fingerprint;

    // The torn append: write-ahead means the delta is rejected and the
    // epoch unchanged — the ack never went out, so nothing is owed.
    Result<DeltaOutcome> torn =
        service.ApplyDelta("main", Delta("d2", {Del("S", {"b", "a"})}));
    ASSERT_FALSE(torn.ok());
    EXPECT_EQ(torn.code(), ErrorCode::kInternal);
    Result<ServiceStats> stats = service.StatsFor("main");
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->epoch, 1u);
  }
  {
    ShardedSolveService service(JournaledOptions(dir.path));
    Result<ShardedSolveService::Entry> attached =
        service.Attach("main", DbVal(kBase));
    ASSERT_TRUE(attached.ok()) << attached.error();
    EXPECT_EQ(attached->fingerprint, fp_after_first)
        << "recovered exactly the acked prefix, not the torn delta";
    Result<ServiceStats> stats = service.StatsFor("main");
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->epoch, 1u);

    // The verdict set matches a clean application of the acked prefix.
    auto clean = std::make_shared<const Database>(DbVal(kBase));
    Result<DeltaApplyOutcome> clean_first =
        ApplyDeltaToDatabase(*clean, Delta("d1", {Ins("R", {"p", "q"})}));
    ASSERT_TRUE(clean_first.ok());
    Result<ShardedSolveService::Entry> entry = service.Get("main");
    ASSERT_TRUE(entry.ok());
    ExpectVerdictParity(*entry->db, *clean_first->db);
  }
}

TEST(JournalRecoveryTest, JournalCountersSurfaceInShardStats) {
  TempDir dir;
  ShardedServiceOptions options = JournaledOptions(dir.path);
  options.journal.fsync = FsyncPolicy::kAlways;
  ShardedSolveService service(options);
  ASSERT_TRUE(service.Attach("main", DbVal(kBase)).ok());
  ASSERT_TRUE(
      service.ApplyDelta("main", Delta("d1", {Ins("R", {"j", "k"})})).ok());
  Result<ServiceStats> stats = service.StatsFor("main");
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->journal_bytes, 0u);
  EXPECT_GE(stats->journal_fsyncs, 1u);
  EXPECT_EQ(stats->deltas_applied, 1u);
}

}  // namespace
}  // namespace cqa
