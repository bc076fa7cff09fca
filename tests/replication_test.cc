// Warm-standby replication and failover:
//
//  * service layer: the replication listener contract (bootstrap kAttach
//    before any delta, per-database total order), the follower apply entry
//    points (idempotent epoch skip, epoch-gap and fingerprint-divergence
//    refusal), read-only mode, and follower-side local persistence;
//  * wire layer: a follower daemon started with `follow_host` bootstraps
//    over real TCP, converges with the primary's delta stream, refuses
//    writes with the typed `read-only` error while serving solves, and
//    `promote` flips it into a writable primary — the failover drill
//    (primary dies, follower promoted, writes continue) must preserve
//    verdicts and fingerprints.

#include <gtest/gtest.h>

#include <stdlib.h>

#include <chrono>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cqa/cache/fingerprint.h"
#include "cqa/certainty/solver.h"
#include "cqa/db/database.h"
#include "cqa/delta/delta.h"
#include "cqa/query/parser.h"
#include "cqa/registry/sharded_service.h"
#include "cqa/serve/net/client.h"
#include "cqa/serve/net/daemon.h"
#include "cqa/serve/net/json.h"
#include "cqa/serve/net/protocol.h"

namespace cqa {
namespace {

using std::chrono::milliseconds;

constexpr milliseconds kIo{10'000};
constexpr char kBase[] = "R(a | b), R(a | c)\nS(b | a)";
constexpr char kQuery[] = "R(x | y), not S(y | x)";

Database DbVal(const char* text) {
  Result<Database> db = Database::FromText(text);
  EXPECT_TRUE(db.ok()) << (db.ok() ? "" : db.error());
  return std::move(db.value());
}

std::shared_ptr<const Database> Db(const char* text) {
  return std::make_shared<const Database>(DbVal(text));
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
    char buf[] = "/tmp/cqa_replication_test_XXXXXX";
    char* made = mkdtemp(buf);
    EXPECT_NE(made, nullptr);
    path = made != nullptr ? made : "/tmp";
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

bool WaitFor(const std::function<bool()>& pred,
             milliseconds budget = milliseconds(10'000)) {
  auto deadline = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(milliseconds(5));
  }
  return pred();
}

// ---------------------------------------------------------------------------
// Service layer: the listener contract

TEST(ReplicationServiceTest, ListenerGetsBootstrapBeforeAnyDelta) {
  ShardedServiceOptions options;
  options.shard.workers = 1;
  ShardedSolveService service(options);
  ASSERT_TRUE(service.Attach("main", DbVal(kBase)).ok());
  ASSERT_TRUE(
      service.ApplyDelta("main", Delta("pre", {Ins("R", {"p", "q"})})).ok());

  std::mutex mu;
  std::vector<ReplicationEvent> events;
  uint64_t token = service.AddReplicationListener(
      [&](const ReplicationEvent& event) {
        std::lock_guard<std::mutex> lock(mu);
        events.push_back(event);
      });
  // Subscribe is synchronous: the bootstrap for "main" is already there.
  {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].kind, ReplicationEvent::Kind::kAttach);
    EXPECT_EQ(events[0].db, "main");
    EXPECT_EQ(events[0].epoch, 1u) << "bootstrap carries the current state";
    ASSERT_EQ(events[0].delta_ids.size(), 1u);
    EXPECT_EQ(events[0].delta_ids[0].first, "pre");
    Result<Database> facts = Database::FromText(events[0].facts);
    ASSERT_TRUE(facts.ok());
    EXPECT_EQ(FingerprintDatabase(*facts), events[0].fingerprint);
  }

  ASSERT_TRUE(
      service.ApplyDelta("main", Delta("live", {Ins("R", {"r", "s"})})).ok());
  // A database attached after subscription bootstraps too.
  ASSERT_TRUE(service.Attach("other", DbVal("T(x | y)")).ok());
  ASSERT_TRUE(service.Detach("other").ok());
  {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events[1].kind, ReplicationEvent::Kind::kDelta);
    EXPECT_EQ(events[1].epoch, 2u);
    EXPECT_EQ(events[1].delta.id, "live");
    EXPECT_EQ(events[2].kind, ReplicationEvent::Kind::kAttach);
    EXPECT_EQ(events[2].db, "other");
    EXPECT_EQ(events[3].kind, ReplicationEvent::Kind::kDetach);
    EXPECT_EQ(events[3].db, "other");
  }

  service.RemoveReplicationListener(token);
  ASSERT_TRUE(
      service.ApplyDelta("main", Delta("after", {Ins("R", {"t", "u"})})).ok());
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(events.size(), 4u) << "removed listener still fed";
}

// In-process primary → follower pump: every primary event applied through
// the follower entry points must converge the follower to the primary's
// fingerprint, with verdict parity on every engine.
TEST(ReplicationServiceTest, FollowerConvergesThroughApplyEntryPoints) {
  ShardedServiceOptions options;
  options.shard.workers = 1;
  ShardedSolveService primary(options);
  ShardedSolveService follower(options);
  follower.SetReadOnly(true);

  std::mutex mu;
  std::vector<ReplicationEvent> queue;
  primary.AddReplicationListener([&](const ReplicationEvent& event) {
    std::lock_guard<std::mutex> lock(mu);
    queue.push_back(event);
  });

  ASSERT_TRUE(primary.Attach("main", DbVal(kBase)).ok());
  std::vector<FactDelta> deltas = {
      Delta("d1", {Ins("R", {"d", "e"})}),
      Delta("d2", {Del("S", {"b", "a"})}),
      Delta("d3", {Ins("S", {"e", "d"})}),
  };
  DbFingerprint primary_fp;
  for (const FactDelta& d : deltas) {
    Result<DeltaOutcome> out = primary.ApplyDelta("main", d);
    ASSERT_TRUE(out.ok()) << out.error();
    primary_fp = out->fingerprint;
  }

  // Pump the queue into the follower, exactly as the wire client does.
  std::vector<ReplicationEvent> drained;
  {
    std::lock_guard<std::mutex> lock(mu);
    drained = queue;
  }
  for (const ReplicationEvent& event : drained) {
    switch (event.kind) {
      case ReplicationEvent::Kind::kAttach: {
        Result<bool> applied = follower.ApplyReplicaSnapshot(
            event.db, event.facts, event.epoch, event.fingerprint,
            event.delta_ids);
        ASSERT_TRUE(applied.ok()) << applied.error();
        break;
      }
      case ReplicationEvent::Kind::kDelta: {
        Result<DeltaOutcome> applied = follower.ApplyReplicatedDelta(
            event.db, event.delta, event.epoch, event.fingerprint);
        ASSERT_TRUE(applied.ok()) << applied.error();
        EXPECT_TRUE(applied->applied);
        break;
      }
      case ReplicationEvent::Kind::kDetach:
        break;
    }
  }

  Result<ShardedSolveService::Entry> replica = follower.Get("main");
  ASSERT_TRUE(replica.ok());
  EXPECT_EQ(FingerprintDatabase(*replica->db), primary_fp);
  Result<ServiceStats> stats = follower.StatsFor("main");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->epoch, deltas.size());

  // Verdict parity against the primary on every engine.
  Result<ShardedSolveService::Entry> original = primary.Get("main");
  ASSERT_TRUE(original.ok());
  Result<Query> q = ParseQuery(kQuery);
  ASSERT_TRUE(q.ok());
  for (SolverMethod m : kSolverMethods) {
    Result<SolveReport> a = SolveCertainty(*q, *replica->db, m);
    Result<SolveReport> b = SolveCertainty(*q, *original->db, m);
    ASSERT_EQ(a.ok(), b.ok()) << "engine " << ToString(m);
    if (a.ok()) {
      EXPECT_EQ(a->verdict, b->verdict) << "engine " << ToString(m);
    }
  }

  // Replaying an already-covered event is an idempotent skip, not an error
  // (the overlap every bootstrap+stream resync produces).
  const ReplicationEvent& old_delta = drained[1];
  Result<DeltaOutcome> dup = follower.ApplyReplicatedDelta(
      old_delta.db, old_delta.delta, old_delta.epoch, old_delta.fingerprint);
  ASSERT_TRUE(dup.ok()) << dup.error();
  EXPECT_FALSE(dup->applied);

  // The follower's idempotency window was seeded by the stream: after
  // promotion, a client retry of a delta the PRIMARY acked still re-acks
  // instead of double-applying.
  follower.SetReadOnly(false);
  Result<DeltaOutcome> retry = follower.ApplyDelta("main", deltas[2]);
  ASSERT_TRUE(retry.ok()) << retry.error();
  EXPECT_FALSE(retry->applied);
  EXPECT_EQ(retry->fingerprint, primary_fp);
}

TEST(ReplicationServiceTest, EpochGapAndDivergenceAreRefused) {
  ShardedServiceOptions options;
  options.shard.workers = 1;
  ShardedSolveService follower(options);
  Database base = DbVal(kBase);
  DbFingerprint base_fp = FingerprintDatabase(base);
  ASSERT_TRUE(follower
                  .ApplyReplicaSnapshot("main", base.ToText(), /*epoch=*/3,
                                        base_fp, {})
                  .ok());

  // Epoch gap (local 3, stream sends 5): torn stream, must resync.
  Result<DeltaOutcome> gap = follower.ApplyReplicatedDelta(
      "main", Delta("g", {Ins("R", {"x", "z"})}), /*epoch=*/5, base_fp);
  ASSERT_FALSE(gap.ok());
  EXPECT_EQ(gap.code(), ErrorCode::kInternal);

  // Right epoch, wrong expected fingerprint: divergence, must refuse (the
  // shard state stays at epoch 3 — the failed apply did not publish).
  Result<DeltaOutcome> diverged = follower.ApplyReplicatedDelta(
      "main", Delta("d", {Ins("R", {"x", "z"})}), /*epoch=*/4, base_fp);
  ASSERT_FALSE(diverged.ok());
  EXPECT_EQ(diverged.code(), ErrorCode::kInternal);
  Result<ServiceStats> stats = follower.StatsFor("main");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->epoch, 3u);

  // A bootstrap whose facts do not hash to its stamp is corruption.
  Result<bool> bad = follower.ApplyReplicaSnapshot(
      "other", "R(a | b)", /*epoch=*/1, base_fp, {});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), ErrorCode::kInternal);
}

TEST(ReplicationServiceTest, ReadOnlyModeRefusesPrimaryWritesOnly) {
  ShardedServiceOptions options;
  options.shard.workers = 1;
  ShardedSolveService service(options);
  ASSERT_TRUE(service.Attach("main", DbVal(kBase)).ok());
  service.SetReadOnly(true);

  Result<DeltaOutcome> refused =
      service.ApplyDelta("main", Delta("w", {Ins("R", {"x", "z"})}));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), ErrorCode::kReadOnly);

  // The replication entry points bypass read-only (that is their job), and
  // promotion lifts the refusal.
  Result<ShardedSolveService::Entry> entry = service.Get("main");
  ASSERT_TRUE(entry.ok());
  Result<DeltaApplyOutcome> next =
      ApplyDeltaToDatabase(*entry->db, Delta("r1", {Ins("R", {"x", "z"})}));
  ASSERT_TRUE(next.ok());
  ASSERT_TRUE(service
                  .ApplyReplicatedDelta("main", Delta("r1", {Ins("R", {"x", "z"})}),
                                        /*epoch=*/1, next->fingerprint)
                  .ok());
  service.SetReadOnly(false);
  EXPECT_TRUE(
      service.ApplyDelta("main", Delta("w2", {Ins("R", {"q", "p"})})).ok());
}

// A journaling follower persists replicated state locally: after a crash
// it recovers to the replicated epoch without the primary's help.
TEST(ReplicationServiceTest, FollowerPersistsReplicatedStateLocally) {
  TempDir dir;
  ShardedServiceOptions options;
  options.shard.workers = 1;
  options.journal_dir = dir.path;
  options.journal.fsync = FsyncPolicy::kNever;
  Database base = DbVal(kBase);
  DbFingerprint base_fp = FingerprintDatabase(base);
  Result<DeltaApplyOutcome> next =
      ApplyDeltaToDatabase(base, Delta("r1", {Del("S", {"b", "a"})}));
  ASSERT_TRUE(next.ok());
  {
    ShardedSolveService follower(options);
    follower.SetReadOnly(true);
    ASSERT_TRUE(follower
                    .ApplyReplicaSnapshot("main", base.ToText(), /*epoch=*/7,
                                          base_fp, {{"old-id", 7}})
                    .ok());
    ASSERT_TRUE(follower
                    .ApplyReplicatedDelta("main",
                                          Delta("r1", {Del("S", {"b", "a"})}),
                                          /*epoch=*/8, next->fingerprint)
                    .ok());
    // Follower dies (no shutdown handshake).
  }
  {
    ShardedSolveService recovered(options);
    Result<ShardedSolveService::Entry> attached =
        recovered.Attach("main", DbVal(kBase));
    ASSERT_TRUE(attached.ok()) << attached.error();
    EXPECT_EQ(attached->fingerprint, next->fingerprint);
    Result<ServiceStats> stats = recovered.StatsFor("main");
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->epoch, 8u);
    // The bootstrap's idempotency window survived the crash too.
    Result<DeltaOutcome> dup = recovered.ApplyDelta(
        "main", Delta("old-id", {Ins("R", {"never", "applied"})}));
    ASSERT_TRUE(dup.ok());
    EXPECT_FALSE(dup->applied);
  }
}

// ---------------------------------------------------------------------------
// Wire layer: follower daemon over real TCP

struct ReplicationFixture {
  TempDir primary_dir;
  TempDir follower_dir;
  std::unique_ptr<SolveDaemon> primary;
  std::unique_ptr<SolveDaemon> follower;
  NetClient primary_client;
  NetClient follower_client;

  ReplicationFixture() {
    DaemonOptions popts;
    popts.host = "127.0.0.1";
    popts.journal_dir = primary_dir.path;
    popts.journal.fsync = FsyncPolicy::kNever;
    primary = std::make_unique<SolveDaemon>(Db(kBase), popts);
    Result<bool> pstarted = primary->Start();
    EXPECT_TRUE(pstarted.ok()) << (pstarted.ok() ? "" : pstarted.error());

    DaemonOptions fopts;
    fopts.host = "127.0.0.1";
    fopts.journal_dir = follower_dir.path;
    fopts.journal.fsync = FsyncPolicy::kNever;
    fopts.follow_host = "127.0.0.1";
    fopts.follow_port = primary->port();
    fopts.replication.retry_backoff = milliseconds(50);
    follower = std::make_unique<SolveDaemon>(fopts);
    Result<bool> fstarted = follower->Start();
    EXPECT_TRUE(fstarted.ok()) << (fstarted.ok() ? "" : fstarted.error());

    EXPECT_TRUE(
        primary_client.Connect("127.0.0.1", primary->port(), kIo).ok());
    EXPECT_TRUE(
        follower_client.Connect("127.0.0.1", follower->port(), kIo).ok());
  }

  bool FollowerAtEpoch(uint64_t epoch) {
    return WaitFor([&] {
      for (const auto& [name, stats] : follower->stats_per_db()) {
        if (name == SolveDaemon::kDefaultDbName && stats.epoch >= epoch) {
          return true;
        }
      }
      return false;
    });
  }
};

std::string SolveFrame(uint64_t id, const std::string& query) {
  return JsonObjectBuilder()
      .Set("type", "solve")
      .Set("id", id)
      .Set("query", query)
      .Build()
      .Serialize();
}

std::string DeltaFrame(uint64_t id, const std::string& delta_id,
                       const std::vector<DeltaOp>& ops) {
  JsonObjectBuilder b;
  b.Set("type", "apply_delta").Set("id", id).Set("delta_id", delta_id);
  b.Set("ops", EncodeDeltaOps(ops));
  return b.Build().Serialize();
}

TEST(ReplicationDaemonTest, FollowerBootstrapsConvergesAndRefusesWrites) {
  ReplicationFixture f;
  ASSERT_TRUE(f.FollowerAtEpoch(0)) << "bootstrap never arrived";

  // Health reports the follower role.
  ASSERT_TRUE(
      f.follower_client.SendFrame(R"({"type":"health","id":1})", kIo).ok());
  Result<WireResponse> health = f.follower_client.ReadResponse(kIo);
  ASSERT_TRUE(health.ok()) << health.error();
  ASSERT_NE(health->raw.Find("role"), nullptr);
  EXPECT_EQ(health->raw.Find("role")->AsString(), "follower");

  // A delta applied on the primary streams across.
  ASSERT_TRUE(f.primary_client
                  .SendFrame(DeltaFrame(2, "rd1", {Del("S", {"b", "a"})}), kIo)
                  .ok());
  Result<WireResponse> ack = f.primary_client.ReadResponse(kIo);
  ASSERT_TRUE(ack.ok()) << ack.error();
  ASSERT_EQ(ack->type, "delta_ack") << ack->raw.Serialize();
  ASSERT_TRUE(f.FollowerAtEpoch(1)) << "delta never replicated";

  // The follower serves reads from the replicated epoch: the deletion
  // flipped the query to certain.
  ASSERT_TRUE(f.follower_client.SendFrame(SolveFrame(3, kQuery), kIo).ok());
  Result<WireResponse> verdict = f.follower_client.WaitTerminal(3, kIo);
  ASSERT_TRUE(verdict.ok()) << verdict.error();
  EXPECT_EQ(verdict->verdict, "certain");

  // But refuses writes with the typed read-only error (non-fatal).
  ASSERT_TRUE(f.follower_client
                  .SendFrame(DeltaFrame(4, "wd1", {Ins("R", {"z", "w"})}), kIo)
                  .ok());
  Result<WireResponse> refused = f.follower_client.ReadResponse(kIo);
  ASSERT_TRUE(refused.ok()) << refused.error();
  EXPECT_EQ(refused->type, "error");
  EXPECT_EQ(refused->code, "read-only");
  EXPECT_FALSE(refused->fatal);

  // Replication accounting on both sides.
  ASSERT_TRUE(WaitFor([&] {
    return f.primary->daemon_stats().repl_acks_received >= 2;
  })) << "primary never saw the follower's acks";
  DaemonStats pstats = f.primary->daemon_stats();
  EXPECT_GE(pstats.repl_streams_opened, 1u);
  EXPECT_GE(pstats.repl_events_sent, 2u) << "bootstrap + delta";
  DaemonStats fstats = f.follower->daemon_stats();
  EXPECT_GE(fstats.follower_connects, 1u);
  EXPECT_GE(fstats.follower_snapshots_applied, 1u);
  EXPECT_GE(fstats.follower_deltas_applied, 1u);
  EXPECT_EQ(fstats.follower_apply_errors, 0u);
}

TEST(ReplicationDaemonTest, PromoteFlipsTheFollowerWritable) {
  ReplicationFixture f;
  ASSERT_TRUE(f.FollowerAtEpoch(0));

  // Promote on a primary is a no-op answer, not an error.
  ASSERT_TRUE(
      f.primary_client.SendFrame(R"({"type":"promote","id":1})", kIo).ok());
  Result<WireResponse> noop = f.primary_client.ReadResponse(kIo);
  ASSERT_TRUE(noop.ok()) << noop.error();
  ASSERT_EQ(noop->type, "promote_ack") << noop->raw.Serialize();
  EXPECT_FALSE(noop->raw.Find("was_follower")->AsBool());

  ASSERT_TRUE(
      f.follower_client.SendFrame(R"({"type":"promote","id":2})", kIo).ok());
  Result<WireResponse> promoted = f.follower_client.ReadResponse(kIo);
  ASSERT_TRUE(promoted.ok()) << promoted.error();
  ASSERT_EQ(promoted->type, "promote_ack") << promoted->raw.Serialize();
  EXPECT_TRUE(promoted->raw.Find("was_follower")->AsBool());
  EXPECT_FALSE(f.follower->follower());

  // Writable now, and health reports primary.
  ASSERT_TRUE(f.follower_client
                  .SendFrame(DeltaFrame(3, "pd1", {Ins("R", {"n", "m"})}), kIo)
                  .ok());
  Result<WireResponse> ack = f.follower_client.ReadResponse(kIo);
  ASSERT_TRUE(ack.ok()) << ack.error();
  EXPECT_EQ(ack->type, "delta_ack") << ack->raw.Serialize();
  ASSERT_TRUE(
      f.follower_client.SendFrame(R"({"type":"health","id":4})", kIo).ok());
  Result<WireResponse> health = f.follower_client.ReadResponse(kIo);
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->raw.Find("role")->AsString(), "primary");

  // Idempotent: promoting twice answers was_follower=false.
  ASSERT_TRUE(
      f.follower_client.SendFrame(R"({"type":"promote","id":5})", kIo).ok());
  Result<WireResponse> again = f.follower_client.ReadResponse(kIo);
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again->type, "promote_ack");
  EXPECT_FALSE(again->raw.Find("was_follower")->AsBool());
}

// The failover drill: stream deltas, kill the primary, promote the
// follower, keep writing — the promoted daemon must hold exactly the
// replicated history plus the new writes, with correct verdicts.
TEST(ReplicationDaemonTest, FailoverPreservesHistoryAndServesWrites) {
  ReplicationFixture f;
  // d1 flips the verdict to certain, d2/d3 leave it certain.
  std::vector<FactDelta> streamed = {
      Delta("f1", {Del("S", {"b", "a"})}),
      Delta("f2", {Ins("R", {"d", "e"})}),
      Delta("f3", {Ins("R", {"f", "g"})}),
  };
  std::string primary_fp;
  for (size_t i = 0; i < streamed.size(); ++i) {
    ASSERT_TRUE(
        f.primary_client
            .SendFrame(DeltaFrame(10 + i, streamed[i].id, streamed[i].ops),
                       kIo)
            .ok());
    Result<WireResponse> ack = f.primary_client.ReadResponse(kIo);
    ASSERT_TRUE(ack.ok()) << ack.error();
    ASSERT_EQ(ack->type, "delta_ack") << ack->raw.Serialize();
    primary_fp = ack->raw.Find("fingerprint")->AsString();
  }
  ASSERT_TRUE(f.FollowerAtEpoch(streamed.size()));

  // Primary dies.
  f.primary->Shutdown(milliseconds(2'000));
  f.primary.reset();

  // Promote the survivor and verify fingerprint parity with the dead
  // primary's last ack.
  ASSERT_TRUE(
      f.follower_client.SendFrame(R"({"type":"promote","id":20})", kIo).ok());
  Result<WireResponse> promoted = f.follower_client.ReadResponse(kIo);
  ASSERT_TRUE(promoted.ok()) << promoted.error();
  ASSERT_EQ(promoted->type, "promote_ack") << promoted->raw.Serialize();
  ServiceStats stats = f.follower->service_stats();
  EXPECT_EQ(stats.epoch, streamed.size());

  // A duplicate of a delta the PRIMARY acked re-acks idempotently on the
  // promoted daemon — no client retry double-applies across failover.
  ASSERT_TRUE(
      f.follower_client
          .SendFrame(DeltaFrame(21, streamed[2].id, streamed[2].ops), kIo)
          .ok());
  Result<WireResponse> dup = f.follower_client.ReadResponse(kIo);
  ASSERT_TRUE(dup.ok()) << dup.error();
  ASSERT_EQ(dup->type, "delta_ack") << dup->raw.Serialize();
  EXPECT_FALSE(dup->raw.Find("applied")->AsBool());
  EXPECT_EQ(dup->raw.Find("fingerprint")->AsString(), primary_fp);

  // New writes land, and reads see the full history.
  ASSERT_TRUE(f.follower_client
                  .SendFrame(DeltaFrame(22, "post-failover",
                                        {Ins("R", {"h", "i"})}),
                             kIo)
                  .ok());
  Result<WireResponse> fresh = f.follower_client.ReadResponse(kIo);
  ASSERT_TRUE(fresh.ok()) << fresh.error();
  ASSERT_EQ(fresh->type, "delta_ack") << fresh->raw.Serialize();
  EXPECT_TRUE(fresh->raw.Find("applied")->AsBool());
  EXPECT_EQ(fresh->raw.Find("epoch")->AsInt(),
            static_cast<int64_t>(streamed.size() + 1));

  ASSERT_TRUE(f.follower_client.SendFrame(SolveFrame(23, kQuery), kIo).ok());
  Result<WireResponse> verdict = f.follower_client.WaitTerminal(23, kIo);
  ASSERT_TRUE(verdict.ok()) << verdict.error();
  EXPECT_EQ(verdict->verdict, "certain");
}

// A follower that outlives a primary restart resyncs by itself: the
// reconnect triggers a fresh bootstrap, and overlapping epochs skip
// idempotently.
TEST(ReplicationDaemonTest, FollowerResyncsAfterPrimaryRestart) {
  ReplicationFixture f;
  ASSERT_TRUE(f.primary_client
                  .SendFrame(DeltaFrame(1, "rs1", {Del("S", {"b", "a"})}), kIo)
                  .ok());
  ASSERT_TRUE(f.primary_client.ReadResponse(kIo).ok());
  ASSERT_TRUE(f.FollowerAtEpoch(1));

  // Restart the primary on the SAME port, recovering from its journal.
  const uint16_t port = f.primary->port();
  f.primary->Shutdown(milliseconds(2'000));
  f.primary.reset();
  DaemonOptions popts;
  popts.host = "127.0.0.1";
  popts.port = port;
  popts.journal_dir = f.primary_dir.path;
  popts.journal.fsync = FsyncPolicy::kNever;
  auto restarted = std::make_unique<SolveDaemon>(Db(kBase), popts);
  Result<bool> started = restarted->Start();
  ASSERT_TRUE(started.ok()) << started.error();
  EXPECT_EQ(restarted->service_stats().epoch, 1u) << "journal recovery";

  // The follower reconnects and the restarted primary's stream flows.
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", port, kIo).ok());
  ASSERT_TRUE(
      client.SendFrame(DeltaFrame(2, "rs2", {Ins("R", {"v", "w"})}), kIo)
          .ok());
  Result<WireResponse> ack = client.ReadResponse(kIo);
  ASSERT_TRUE(ack.ok()) << ack.error();
  ASSERT_EQ(ack->type, "delta_ack") << ack->raw.Serialize();
  ASSERT_TRUE(f.FollowerAtEpoch(2)) << "follower never resynced";
  EXPECT_EQ(f.follower->daemon_stats().follower_apply_errors, 0u);
  restarted->Shutdown(milliseconds(2'000));
}

}  // namespace
}  // namespace cqa
