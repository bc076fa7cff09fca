// Epoch snapshots and journal compaction (src/cqa/delta/snapshot.*, and
// the snapshot/recovery pipeline of ShardedSolveService):
//
//  * on-disk format: roundtrip, missing-file fallback, refusal of corrupt
//    or truncated files (never a silent fall-back over a bad snapshot);
//  * bounded recovery: attach after a snapshot loads snapshot + journal
//    tail only, landing on the acknowledged fingerprint with verdict
//    parity against a never-crashed history on every solver engine;
//  * crash-drill matrix at every stage boundary of the snapshot pipeline
//    (temp-file tear, die-before-rename, die-before-journal-truncate) —
//    each must recover to exactly the acked state;
//  * the sliding idempotency window: bounded memory, persistence across
//    snapshots and restarts, and the regression that an in-window
//    duplicate re-acks with applied:false instead of double-applying.

#include <gtest/gtest.h>

#include <stdlib.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cqa/cache/fingerprint.h"
#include "cqa/certainty/solver.h"
#include "cqa/db/database.h"
#include "cqa/delta/delta.h"
#include "cqa/delta/journal.h"
#include "cqa/delta/snapshot.h"
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

[[maybe_unused]] DeltaOp Del(const char* rel,
                             std::vector<std::string> values) {
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
    char buf[] = "/tmp/cqa_snapshot_test_XXXXXX";
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

// A delta stream long enough to cross snapshot boundaries; delta i toggles
// T facts so every epoch's fingerprint is distinct.
std::vector<FactDelta> Stream(size_t n) {
  std::vector<FactDelta> out;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(Delta("s" + std::to_string(i),
                        {Ins("T", {"k" + std::to_string(i), "v"})}));
  }
  return out;
}

ShardedServiceOptions Opts(const std::string& dir) {
  ShardedServiceOptions options;
  options.shard.workers = 2;
  options.shard.cache_entries = 64;
  options.journal_dir = dir;
  options.journal.fsync = FsyncPolicy::kNever;  // tests; kAlways in prod
  return options;
}

// ---------------------------------------------------------------------------
// File format

TEST(SnapshotFormatTest, WriteReadRoundtrip) {
  TempDir dir;
  const std::string path = dir.path + "/db.snapshot";
  SnapshotData data;
  data.epoch = 42;
  Database db = DbVal(kBase);
  data.fingerprint = FingerprintDatabase(db);
  data.facts = db.ToText();
  data.delta_ids = {{"d1", 40}, {"d2", 41}, {"d3", 42}};

  Result<uint64_t> written = WriteSnapshotFile(path, data, SnapshotPolicy{});
  ASSERT_TRUE(written.ok()) << written.error();
  EXPECT_EQ(*written, std::filesystem::file_size(path));

  Result<SnapshotReadResult> read = ReadSnapshotFile(path);
  ASSERT_TRUE(read.ok()) << read.error();
  ASSERT_TRUE(read->found);
  EXPECT_EQ(read->file_bytes, *written);
  EXPECT_EQ(read->data.epoch, 42u);
  EXPECT_EQ(read->data.fingerprint, data.fingerprint);
  EXPECT_EQ(read->data.delta_ids, data.delta_ids);
  Result<Database> reloaded = Database::FromText(read->data.facts);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(FingerprintDatabase(*reloaded), data.fingerprint);
}

TEST(SnapshotFormatTest, MissingFileIsNotFoundNotAnError) {
  TempDir dir;
  Result<SnapshotReadResult> read =
      ReadSnapshotFile(dir.path + "/never.snapshot");
  ASSERT_TRUE(read.ok()) << read.error();
  EXPECT_FALSE(read->found);
  EXPECT_EQ(read->file_bytes, 0u);
}

TEST(SnapshotFormatTest, CorruptionIsRefusedLoudly) {
  TempDir dir;
  const std::string path = dir.path + "/db.snapshot";
  SnapshotData data;
  data.epoch = 7;
  Database db = DbVal(kBase);
  data.fingerprint = FingerprintDatabase(db);
  data.facts = db.ToText();
  ASSERT_TRUE(WriteSnapshotFile(path, data, SnapshotPolicy{}).ok());
  const std::string clean = ReadFileBytes(path);

  // Flip one byte at every offset: every corruption must be detected (bad
  // magic, bad length, or CRC mismatch) — never parse into wrong data.
  for (size_t pos = 0; pos < clean.size(); ++pos) {
    std::string bytes = clean;
    bytes[pos] = static_cast<char>(bytes[pos] ^ 0x5a);
    WriteFileBytes(path, bytes);
    Result<SnapshotReadResult> read = ReadSnapshotFile(path);
    ASSERT_FALSE(read.ok()) << "corruption at offset " << pos << " accepted";
    EXPECT_EQ(read.code(), ErrorCode::kInternal);
  }

  // Truncations too (a torn snapshot write that skipped the temp-file
  // protocol would look like this).
  for (size_t cut : {size_t{0}, size_t{4}, size_t{9}, clean.size() - 1}) {
    WriteFileBytes(path, clean.substr(0, cut));
    Result<SnapshotReadResult> read = ReadSnapshotFile(path);
    ASSERT_FALSE(read.ok()) << "truncation at " << cut << " accepted";
  }
}

// ---------------------------------------------------------------------------
// DeltaIdWindow

TEST(DeltaIdWindowTest, SlidingEvictionKeepsTheMostRecentIds) {
  DeltaIdWindow window(3);
  window.Insert("a", 1);
  window.Insert("b", 2);
  window.Insert("c", 3);
  ASSERT_NE(window.Find("a"), nullptr);
  window.Insert("d", 4);  // evicts "a", the oldest
  EXPECT_EQ(window.Find("a"), nullptr);
  ASSERT_NE(window.Find("b"), nullptr);
  EXPECT_EQ(*window.Find("b"), 2u);
  EXPECT_EQ(window.size(), 3u);

  // Re-inserting a present id refreshes the epoch without re-aging it:
  // "b" is still the oldest and goes next.
  window.Insert("b", 9);
  EXPECT_EQ(*window.Find("b"), 9u);
  window.Insert("e", 5);
  EXPECT_EQ(window.Find("b"), nullptr);

  std::vector<std::pair<std::string, uint64_t>> items = window.Items();
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items.front().first, "c");  // oldest first
  EXPECT_EQ(items.back().first, "e");
}

TEST(DeltaIdWindowTest, MemoryIsBoundedUnderALongStream) {
  DeltaIdWindow window(64);
  for (int i = 0; i < 10'000; ++i) {
    window.Insert("id" + std::to_string(i), static_cast<uint64_t>(i));
  }
  EXPECT_EQ(window.size(), 64u);
  EXPECT_EQ(window.Find("id0"), nullptr);
  EXPECT_NE(window.Find("id9999"), nullptr);
}

// ---------------------------------------------------------------------------
// Service-level: snapshot + bounded recovery

TEST(SnapshotRecoveryTest, AttachLoadsSnapshotPlusTailOnly) {
  TempDir dir;
  std::vector<FactDelta> deltas = Stream(8);
  DbFingerprint final_fp;
  uint64_t journal_after_snapshot = 0;
  {
    ShardedSolveService service(Opts(dir.path));
    ASSERT_TRUE(service.Attach("main", DbVal(kBase)).ok());
    // 5 deltas, snapshot, 3 more: recovery must replay only the 3.
    for (size_t i = 0; i < 5; ++i) {
      ASSERT_TRUE(service.ApplyDelta("main", deltas[i]).ok());
    }
    Result<SnapshotOutcome> snap = service.Snapshot("main");
    ASSERT_TRUE(snap.ok()) << snap.error();
    EXPECT_EQ(snap->epoch, 5u);
    EXPECT_GT(snap->journal_bytes_before, 0u);
    EXPECT_EQ(snap->journal_bytes_after, 0u) << "journal truncated";
    EXPECT_GT(snap->snapshot_bytes, 0u);
    for (size_t i = 5; i < deltas.size(); ++i) {
      Result<DeltaOutcome> out = service.ApplyDelta("main", deltas[i]);
      ASSERT_TRUE(out.ok());
      final_fp = out->fingerprint;
    }
    journal_after_snapshot =
        std::filesystem::file_size(dir.path + "/main.journal");
    EXPECT_GT(journal_after_snapshot, 0u);
  }
  {
    // The journal on disk holds only the 3-record tail; a full-history
    // journal would be strictly longer. Recovery over it must land on the
    // final acked fingerprint at epoch 8.
    ShardedSolveService service(Opts(dir.path));
    Result<ShardedSolveService::Entry> attached =
        service.Attach("main", DbVal(kBase));
    ASSERT_TRUE(attached.ok()) << attached.error();
    EXPECT_EQ(attached->fingerprint, final_fp);
    Result<ServiceStats> stats = service.StatsFor("main");
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->epoch, 8u);
    EXPECT_EQ(stats->snapshot_epoch, 5u) << "recovered from the snapshot";
    EXPECT_GT(stats->snapshot_bytes, 0u);

    // Verdict parity against a clean, never-crashed application.
    auto clean = std::make_shared<const Database>(DbVal(kBase));
    for (const FactDelta& d : deltas) {
      Result<DeltaApplyOutcome> out = ApplyDeltaToDatabase(*clean, d);
      ASSERT_TRUE(out.ok());
      clean = out->db;
    }
    Result<ShardedSolveService::Entry> entry = service.Get("main");
    ASSERT_TRUE(entry.ok());
    ExpectVerdictParity(*entry->db, *clean);
  }
}

TEST(SnapshotRecoveryTest, BaseFactsAreIgnoredOnceASnapshotExists) {
  TempDir dir;
  {
    ShardedSolveService service(Opts(dir.path));
    ASSERT_TRUE(service.Attach("main", DbVal(kBase)).ok());
    ASSERT_TRUE(
        service.ApplyDelta("main", Delta("d1", {Ins("R", {"n", "m"})})).ok());
    ASSERT_TRUE(service.Snapshot("main").ok());
  }
  {
    // Recovery starts from the snapshot, so even a *different* base facts
    // argument attaches fine — the snapshot, not the caller, is the source
    // of truth once it exists.
    ShardedSolveService service(Opts(dir.path));
    Result<ShardedSolveService::Entry> attached =
        service.Attach("main", DbVal("R(zzz | qqq)"));
    ASSERT_TRUE(attached.ok()) << attached.error();
    Result<ServiceStats> stats = service.StatsFor("main");
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->epoch, 1u);
  }
}

TEST(SnapshotRecoveryTest, CorruptSnapshotRefusesAttach) {
  TempDir dir;
  {
    ShardedSolveService service(Opts(dir.path));
    ASSERT_TRUE(service.Attach("main", DbVal(kBase)).ok());
    ASSERT_TRUE(
        service.ApplyDelta("main", Delta("d1", {Ins("R", {"n", "m"})})).ok());
    ASSERT_TRUE(service.Snapshot("main").ok());
  }
  const std::string snap_path = dir.path + "/main.snapshot";
  std::string bytes = ReadFileBytes(snap_path);
  bytes[bytes.size() / 2] ^= 0x40;
  WriteFileBytes(snap_path, bytes);
  {
    ShardedSolveService service(Opts(dir.path));
    Result<ShardedSolveService::Entry> attached =
        service.Attach("main", DbVal(kBase));
    ASSERT_FALSE(attached.ok()) << "served from a corrupt snapshot";
    EXPECT_EQ(attached.code(), ErrorCode::kInternal);
  }
}

TEST(SnapshotRecoveryTest, SnapshotWithoutJournalDirIsUnsupported) {
  ShardedServiceOptions options;
  options.shard.workers = 1;
  ShardedSolveService service(options);
  ASSERT_TRUE(service.Attach("main", DbVal(kBase)).ok());
  Result<SnapshotOutcome> snap = service.Snapshot("main");
  ASSERT_FALSE(snap.ok());
  EXPECT_EQ(snap.code(), ErrorCode::kUnsupported);
}

TEST(SnapshotRecoveryTest, AutomaticSnapshotByDeltaCount) {
  TempDir dir;
  ShardedServiceOptions options = Opts(dir.path);
  options.snapshot.every_deltas = 3;
  ShardedSolveService service(options);
  ASSERT_TRUE(service.Attach("main", DbVal(kBase)).ok());
  std::vector<FactDelta> deltas = Stream(7);
  for (const FactDelta& d : deltas) {
    ASSERT_TRUE(service.ApplyDelta("main", d).ok());
  }
  Result<ServiceStats> stats = service.StatsFor("main");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->snapshots_taken, 2u) << "after deltas 3 and 6";
  EXPECT_EQ(stats->snapshot_epoch, 6u);
  // The journal holds only the tail written after the last auto-snapshot.
  Result<JournalReplay> tail =
      ReplayJournalFile(dir.path + "/main.journal", false);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(tail->records.size(), 1u);
}

TEST(SnapshotRecoveryTest, AutomaticSnapshotByJournalBytes) {
  TempDir dir;
  ShardedServiceOptions options = Opts(dir.path);
  options.snapshot.every_journal_bytes = 1;  // every delta crosses it
  ShardedSolveService service(options);
  ASSERT_TRUE(service.Attach("main", DbVal(kBase)).ok());
  ASSERT_TRUE(
      service.ApplyDelta("main", Delta("d1", {Ins("T", {"q", "r"})})).ok());
  Result<ServiceStats> stats = service.StatsFor("main");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->snapshots_taken, 1u);
  EXPECT_EQ(std::filesystem::file_size(dir.path + "/main.journal"), 0u);
}

// ---------------------------------------------------------------------------
// Crash-drill matrix: die at every stage boundary of the snapshot pipeline.

// Stage 1: torn temp-file write. The temp is garbage, the real snapshot
// path untouched — recovery replays the full journal as if no snapshot was
// ever attempted.
TEST(SnapshotCrashDrillTest, TornTempWriteLeavesOldStateRecoverable) {
  TempDir dir;
  std::vector<FactDelta> deltas = Stream(4);
  DbFingerprint acked_fp;
  {
    ShardedServiceOptions chaos = Opts(dir.path);
    chaos.snapshot.tear_temp_write = true;
    chaos.snapshot.tear_temp_keep_bytes = 10;
    ShardedSolveService service(chaos);
    ASSERT_TRUE(service.Attach("main", DbVal(kBase)).ok());
    for (const FactDelta& d : deltas) {
      Result<DeltaOutcome> out = service.ApplyDelta("main", d);
      ASSERT_TRUE(out.ok());
      acked_fp = out->fingerprint;
    }
    Result<SnapshotOutcome> snap = service.Snapshot("main");
    ASSERT_FALSE(snap.ok()) << "the drill injects a mid-write death";
    Result<ServiceStats> stats = service.StatsFor("main");
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->snapshots_failed, 1u);
    EXPECT_GT(stats->journal_bytes, 0u) << "journal not truncated";
  }
  EXPECT_FALSE(std::filesystem::exists(dir.path + "/main.snapshot"));
  {
    ShardedSolveService service(Opts(dir.path));
    Result<ShardedSolveService::Entry> attached =
        service.Attach("main", DbVal(kBase));
    ASSERT_TRUE(attached.ok()) << attached.error();
    EXPECT_EQ(attached->fingerprint, acked_fp);
  }
}

// Stage 2: complete temp write, death before rename. Same recovery story;
// additionally a later snapshot attempt must succeed over the stale temp.
TEST(SnapshotCrashDrillTest, DeathBeforeRenameKeepsThePreviousSnapshot) {
  TempDir dir;
  std::vector<FactDelta> deltas = Stream(4);
  DbFingerprint acked_fp;
  {
    ShardedSolveService service(Opts(dir.path));
    ASSERT_TRUE(service.Attach("main", DbVal(kBase)).ok());
    ASSERT_TRUE(service.ApplyDelta("main", deltas[0]).ok());
    ASSERT_TRUE(service.Snapshot("main").ok());  // snapshot at epoch 1
  }
  const std::string committed = ReadFileBytes(dir.path + "/main.snapshot");
  {
    ShardedServiceOptions chaos = Opts(dir.path);
    chaos.snapshot.fail_before_rename = true;
    ShardedSolveService service(chaos);
    ASSERT_TRUE(service.Attach("main", DbVal(kBase)).ok());
    for (size_t i = 1; i < deltas.size(); ++i) {
      Result<DeltaOutcome> out = service.ApplyDelta("main", deltas[i]);
      ASSERT_TRUE(out.ok());
      acked_fp = out->fingerprint;
    }
    ASSERT_FALSE(service.Snapshot("main").ok());
  }
  // The epoch-1 snapshot is still the committed one.
  EXPECT_EQ(ReadFileBytes(dir.path + "/main.snapshot"), committed);
  {
    ShardedSolveService service(Opts(dir.path));
    Result<ShardedSolveService::Entry> attached =
        service.Attach("main", DbVal(kBase));
    ASSERT_TRUE(attached.ok()) << attached.error();
    EXPECT_EQ(attached->fingerprint, acked_fp);
    // And a clean snapshot attempt now succeeds, overwriting the stale tmp.
    Result<SnapshotOutcome> snap = service.Snapshot("main");
    ASSERT_TRUE(snap.ok()) << snap.error();
    EXPECT_EQ(snap->epoch, deltas.size());
  }
}

// Stage 3: rename committed, death before the journal truncate — the
// double-apply hazard. The journal still holds records the snapshot
// already covers; epoch stamps make replay skip them instead of applying
// them twice on top of the snapshot.
TEST(SnapshotCrashDrillTest, LostTruncateDoesNotDoubleApply) {
  TempDir dir;
  std::vector<FactDelta> deltas = Stream(5);
  DbFingerprint acked_fp;
  {
    ShardedServiceOptions chaos = Opts(dir.path);
    chaos.snapshot.fail_before_truncate = true;
    ShardedSolveService service(chaos);
    ASSERT_TRUE(service.Attach("main", DbVal(kBase)).ok());
    for (size_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(service.ApplyDelta("main", deltas[i]).ok());
    }
    Result<SnapshotOutcome> snap = service.Snapshot("main");
    ASSERT_FALSE(snap.ok()) << "drill dies between rename and truncate";
    // Keep writing after the half-finished snapshot, like a daemon that
    // hit a transient truncate failure and carried on.
    for (size_t i = 3; i < deltas.size(); ++i) {
      Result<DeltaOutcome> out = service.ApplyDelta("main", deltas[i]);
      ASSERT_TRUE(out.ok());
      acked_fp = out->fingerprint;
    }
  }
  // The journal on disk still holds ALL records (nothing was truncated),
  // while the snapshot covers the first 3 — exactly the overlap replay
  // must skip.
  Result<JournalReplay> replay =
      ReplayJournalFile(dir.path + "/main.journal", false);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->records.size(), deltas.size());
  Result<SnapshotReadResult> snap_file =
      ReadSnapshotFile(dir.path + "/main.snapshot");
  ASSERT_TRUE(snap_file.ok());
  ASSERT_TRUE(snap_file->found);
  EXPECT_EQ(snap_file->data.epoch, 3u);
  {
    ShardedSolveService service(Opts(dir.path));
    Result<ShardedSolveService::Entry> attached =
        service.Attach("main", DbVal(kBase));
    ASSERT_TRUE(attached.ok()) << attached.error();
    EXPECT_EQ(attached->fingerprint, acked_fp)
        << "overlapping records were double-applied or dropped";
    Result<ServiceStats> stats = service.StatsFor("main");
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->epoch, deltas.size());

    auto clean = std::make_shared<const Database>(DbVal(kBase));
    for (const FactDelta& d : deltas) {
      Result<DeltaApplyOutcome> out = ApplyDeltaToDatabase(*clean, d);
      ASSERT_TRUE(out.ok());
      clean = out->db;
    }
    Result<ShardedSolveService::Entry> entry = service.Get("main");
    ASSERT_TRUE(entry.ok());
    ExpectVerdictParity(*entry->db, *clean);
  }
}

// ---------------------------------------------------------------------------
// Idempotency window across snapshots and restarts

TEST(SnapshotIdempotencyTest, InWindowDuplicateReAcksAcrossSnapshotRestart) {
  TempDir dir;
  std::vector<FactDelta> deltas = Stream(4);
  DbFingerprint acked_fp;
  {
    ShardedSolveService service(Opts(dir.path));
    ASSERT_TRUE(service.Attach("main", DbVal(kBase)).ok());
    for (const FactDelta& d : deltas) {
      Result<DeltaOutcome> out = service.ApplyDelta("main", d);
      ASSERT_TRUE(out.ok());
      acked_fp = out->fingerprint;
    }
    // Compaction removes the journal records carrying these ids; only the
    // snapshot's persisted window can remember them now.
    ASSERT_TRUE(service.Snapshot("main").ok());
  }
  {
    ShardedSolveService service(Opts(dir.path));
    ASSERT_TRUE(service.Attach("main", DbVal(kBase)).ok());
    // REGRESSION: a duplicate of a compacted-away delta must re-ack with
    // applied:false (epoch unchanged), not apply a second time.
    Result<DeltaOutcome> dup = service.ApplyDelta("main", deltas[1]);
    ASSERT_TRUE(dup.ok()) << dup.error();
    EXPECT_FALSE(dup->applied);
    EXPECT_EQ(dup->epoch, deltas.size());
    EXPECT_EQ(dup->fingerprint, acked_fp);
  }
}

TEST(SnapshotIdempotencyTest, WindowIsSlidingNotUnbounded) {
  TempDir dir;
  ShardedServiceOptions options = Opts(dir.path);
  options.delta_id_window = 4;
  ShardedSolveService service(options);
  ASSERT_TRUE(service.Attach("main", DbVal(kBase)).ok());
  std::vector<FactDelta> deltas = Stream(6);
  for (const FactDelta& d : deltas) {
    ASSERT_TRUE(service.ApplyDelta("main", d).ok());
  }
  // "s5" is within the 4-entry window: idempotent re-ack.
  Result<DeltaOutcome> recent = service.ApplyDelta("main", deltas[5]);
  ASSERT_TRUE(recent.ok());
  EXPECT_FALSE(recent->applied);
  // "s0" slid out of the window: the service no longer remembers it, so it
  // applies as a new delta. That is the documented retry horizon — exact
  // duplicate suppression within the last `delta_id_window` applications.
  Result<DeltaOutcome> ancient = service.ApplyDelta("main", deltas[0]);
  ASSERT_TRUE(ancient.ok());
  EXPECT_TRUE(ancient->applied);
  EXPECT_EQ(ancient->epoch, 7u);
}

TEST(SnapshotIdempotencyTest, WindowCapacityAppliesToSnapshotPersistence) {
  TempDir dir;
  ShardedServiceOptions options = Opts(dir.path);
  options.delta_id_window = 3;
  std::vector<FactDelta> deltas = Stream(5);
  {
    ShardedSolveService service(options);
    ASSERT_TRUE(service.Attach("main", DbVal(kBase)).ok());
    for (const FactDelta& d : deltas) {
      ASSERT_TRUE(service.ApplyDelta("main", d).ok());
    }
    ASSERT_TRUE(service.Snapshot("main").ok());
  }
  Result<SnapshotReadResult> snap =
      ReadSnapshotFile(dir.path + "/main.snapshot");
  ASSERT_TRUE(snap.ok());
  ASSERT_TRUE(snap->found);
  ASSERT_EQ(snap->data.delta_ids.size(), 3u) << "window cap persisted";
  EXPECT_EQ(snap->data.delta_ids.front().first, "s2");
  EXPECT_EQ(snap->data.delta_ids.back().first, "s4");
  {
    ShardedSolveService service(options);
    ASSERT_TRUE(service.Attach("main", DbVal(kBase)).ok());
    Result<DeltaOutcome> dup = service.ApplyDelta("main", deltas[4]);
    ASSERT_TRUE(dup.ok());
    EXPECT_FALSE(dup->applied) << "in-window id forgotten across restart";
  }
}

}  // namespace
}  // namespace cqa
