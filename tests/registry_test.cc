// Unit tests for the registry subsystem: the catalogue of attached
// databases (naming / ownership / default semantics, content
// fingerprints), and the ShardedSolveService routing, detach lifecycle,
// and per-shard stats. The centerpiece is the cross-database isolation
// differential: two attached databases that disagree on the same query
// text must never serve each other's verdict, cached or not. Adversarial
// attach/detach interleavings live in registry_chaos_test.cc.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cqa/gen/families.h"
#include "cqa/query/parser.h"
#include "cqa/registry/sharded_service.h"
#include "cqa/serve/service.h"

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

// The differential pair: on q = R(x | y), not S(y | x), database A answers
// not-certain (the repair keeping R(a | b) cannot avoid S(b | a)) while
// database B answers certain (its lone S-fact S(z | z) blocks nothing).
constexpr char kDbA[] = "R(a | b), R(a | c)\nS(b | a)";
constexpr char kDbB[] = "R(a | b), R(a | c)\nS(z | z)";
constexpr char kDifferentialQuery[] = "R(x | y), not S(y | x)";

// ---------------------------------------------------------------------------
// The catalogue of attached databases

// One worker per shard: these tests only attach, look up and detach.
ShardedServiceOptions CatalogueOptions() {
  ShardedServiceOptions options;
  options.shard.workers = 1;
  return options;
}

// The default instance's name; empty when none.
std::string DefaultName(const ShardedSolveService& service) {
  Result<ShardedSolveService::Entry> def = service.Get("");
  return def.ok() ? def->name : "";
}

TEST(DatabaseRegistryTest, NamesAreOperatorFacingIdentifiers) {
  EXPECT_TRUE(ShardedSolveService::ValidName("a"));
  EXPECT_TRUE(ShardedSolveService::ValidName("prod-2024.v1_copy"));
  EXPECT_TRUE(ShardedSolveService::ValidName(std::string(64, 'x')));
  EXPECT_FALSE(ShardedSolveService::ValidName(""));
  EXPECT_FALSE(ShardedSolveService::ValidName(std::string(65, 'x')));
  EXPECT_FALSE(ShardedSolveService::ValidName("no/slash"));
  EXPECT_FALSE(ShardedSolveService::ValidName("no space"));
  EXPECT_FALSE(ShardedSolveService::ValidName("no\nnewline"));
}

TEST(DatabaseRegistryTest, FirstAttachBecomesDefault) {
  ShardedSolveService service(CatalogueOptions());
  EXPECT_EQ(DefaultName(service), "");
  ASSERT_TRUE(service.Attach("a", Db(kDbA)).ok());
  ASSERT_TRUE(service.Attach("b", Db(kDbB)).ok());
  EXPECT_EQ(DefaultName(service), "a");
  EXPECT_EQ(service.List().size(), 2u);

  // Empty-name lookup resolves to the default.
  Result<ShardedSolveService::Entry> def = service.Get("");
  ASSERT_TRUE(def.ok()) << def.error();
  EXPECT_EQ(def->name, "a");
  EXPECT_TRUE(def->is_default);
  Result<ShardedSolveService::Entry> other = service.Get("b");
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(other->is_default);

  // List is sorted by name and flags the default.
  std::vector<ShardedSolveService::Entry> all = service.List();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].name, "a");
  EXPECT_TRUE(all[0].is_default);
  EXPECT_EQ(all[1].name, "b");
}

TEST(DatabaseRegistryTest, AttachRejectsInvalidAndDuplicateNames) {
  ShardedSolveService service(CatalogueOptions());
  ASSERT_TRUE(service.Attach("a", Db(kDbA)).ok());
  Result<ShardedSolveService::Entry> dup = service.Attach("a", Db(kDbB));
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.code(), ErrorCode::kUnsupported);
  Result<ShardedSolveService::Entry> bad = service.Attach("no/slash", Db(kDbB));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), ErrorCode::kUnsupported);
  EXPECT_EQ(service.List().size(), 1u) << "failed attaches leave no trace";
}

TEST(DatabaseRegistryTest, DetachReleasesAndVacatesTheDefault) {
  ShardedSolveService service(CatalogueOptions());
  ASSERT_TRUE(service.Attach("a", Db(kDbA)).ok());
  ASSERT_TRUE(service.Attach("b", Db(kDbB)).ok());

  // Detaching a non-default leaves the default alone.
  ASSERT_TRUE(service.Detach("b").ok());
  EXPECT_EQ(DefaultName(service), "a");

  // A snapshot taken before the detach keeps the instance alive.
  Result<ShardedSolveService::Entry> held = service.Get("a");
  ASSERT_TRUE(held.ok());
  Result<DetachOutcome> released = service.Detach("a");
  ASSERT_TRUE(released.ok());
  EXPECT_EQ(DefaultName(service), "") << "default vacated";
  EXPECT_EQ(held->db->NumFacts(), 3u) << "snapshot still valid post-detach";

  Result<ShardedSolveService::Entry> gone = service.Get("a");
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.code(), ErrorCode::kDetached);
  Result<ShardedSolveService::Entry> no_default = service.Get("");
  ASSERT_FALSE(no_default.ok());
  EXPECT_EQ(no_default.code(), ErrorCode::kDetached);
  Result<DetachOutcome> unknown = service.Detach("a");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.code(), ErrorCode::kUnsupported);

  // The next attach claims the vacancy.
  ASSERT_TRUE(service.Attach("c", Db(kDbB)).ok());
  EXPECT_EQ(DefaultName(service), "c");
}

TEST(DatabaseRegistryTest, FingerprintsAreContentAddressed) {
  ShardedSolveService service(CatalogueOptions());
  ASSERT_TRUE(service.Attach("a", Db(kDbA)).ok());
  ASSERT_TRUE(service.Attach("b", Db(kDbB)).ok());
  // Same content under another name and with another fact order: the
  // fingerprint is a function of content, not of spelling or identity.
  ASSERT_TRUE(service.Attach("a2", Db("S(b | a)\nR(a | c), R(a | b)")).ok());
  DbFingerprint a = service.Get("a")->fingerprint;
  DbFingerprint b = service.Get("b")->fingerprint;
  DbFingerprint a2 = service.Get("a2")->fingerprint;
  EXPECT_TRUE(a == a2);
  EXPECT_FALSE(a == b);
  EXPECT_EQ(a.ToHex().size(), 32u);
}

// ---------------------------------------------------------------------------
// ShardedSolveService

struct Outcome {
  ServeResponse response;
  bool delivered = false;
};

// Submits and waits for the terminal response.
Outcome SolveOn(ShardedSolveService& service, const std::string& db,
                const char* query_text,
                std::string* resolved = nullptr) {
  auto state = std::make_shared<std::pair<std::mutex, Outcome>>();
  ServeJob job(Q(query_text), nullptr);
  Result<uint64_t> id = service.Submit(
      db, std::move(job),
      [state](const ServeResponse& r) {
        std::lock_guard<std::mutex> lock(state->first);
        state->second.response = r;
        state->second.delivered = true;
      },
      resolved);
  if (!id.ok()) {
    Outcome out;
    out.response.result = Result<SolveReport>::Error(id.code(), id.error());
    return out;
  }
  for (int i = 0; i < 20'000; ++i) {
    {
      std::lock_guard<std::mutex> lock(state->first);
      if (state->second.delivered) return state->second;
    }
    std::this_thread::sleep_for(milliseconds(1));
  }
  ADD_FAILURE() << "terminal response never delivered";
  return Outcome{};
}

ShardedServiceOptions CachedOptions() {
  ShardedServiceOptions options;
  options.shard.workers = 2;
  options.shard.cache_entries = 256;
  options.shard.warm_state = true;
  return options;
}

TEST(ShardedServiceTest, CrossDatabaseIsolationDifferential) {
  ShardedSolveService service(CachedOptions());
  ASSERT_TRUE(service.Attach("a", Db(kDbA)).ok());
  ASSERT_TRUE(service.Attach("b", Db(kDbB)).ok());

  // Interleave the same query text across both shards, twice: the second
  // round is answered from each shard's cache, and a hit keyed on the
  // wrong database would surface here as the other shard's verdict.
  for (int round = 0; round < 2; ++round) {
    Outcome on_a = SolveOn(service, "a", kDifferentialQuery);
    ASSERT_TRUE(on_a.delivered);
    ASSERT_TRUE(on_a.response.result.ok()) << on_a.response.result.error();
    EXPECT_EQ(on_a.response.result->verdict, Verdict::kNotCertain)
        << "round " << round;
    Outcome on_b = SolveOn(service, "b", kDifferentialQuery);
    ASSERT_TRUE(on_b.delivered);
    ASSERT_TRUE(on_b.response.result.ok()) << on_b.response.result.error();
    EXPECT_EQ(on_b.response.result->verdict, Verdict::kCertain)
        << "round " << round;
  }
  // The differential exercised the caches (round two hit), not two fresh
  // solves per round.
  Result<ServiceStats> a_stats = service.StatsFor("a");
  Result<ServiceStats> b_stats = service.StatsFor("b");
  ASSERT_TRUE(a_stats.ok());
  ASSERT_TRUE(b_stats.ok());
  EXPECT_EQ(a_stats->cache_hits, 1u);
  EXPECT_EQ(b_stats->cache_hits, 1u);
  EXPECT_EQ(a_stats->cache_misses, 1u);
  EXPECT_EQ(b_stats->cache_misses, 1u);
}

TEST(ShardedServiceTest, EmptyNameResolvesToTheDefaultShard) {
  ShardedSolveService service(CachedOptions());
  ASSERT_TRUE(service.Attach("primary", Db(kDbA)).ok());
  ASSERT_TRUE(service.Attach("other", Db(kDbB)).ok());
  std::string resolved;
  Outcome out = SolveOn(service, "", kDifferentialQuery, &resolved);
  ASSERT_TRUE(out.delivered);
  EXPECT_EQ(resolved, "primary")
      << "submit must report which shard actually served the alias";
  ASSERT_TRUE(out.response.result.ok());
  EXPECT_EQ(out.response.result->verdict, Verdict::kNotCertain);
}

TEST(ShardedServiceTest, SubmitFailsTypedWithoutAnInstance) {
  ShardedSolveService service(CachedOptions());
  ServeJob job(Q(kDifferentialQuery), nullptr);
  Result<uint64_t> no_default =
      service.Submit("", std::move(job), [](const ServeResponse&) {});
  ASSERT_FALSE(no_default.ok());
  EXPECT_EQ(no_default.code(), ErrorCode::kDetached);

  ASSERT_TRUE(service.Attach("a", Db(kDbA)).ok());
  ServeJob job2(Q(kDifferentialQuery), nullptr);
  Result<uint64_t> unknown =
      service.Submit("ghost", std::move(job2), [](const ServeResponse&) {});
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.code(), ErrorCode::kDetached);
}

TEST(ShardedServiceTest, DetachShedsQueuedAndDrainsInflight) {
  ShardedServiceOptions options;
  options.shard.workers = 1;
  options.shard.queue_capacity = 16;
  options.detach_drain = milliseconds(60'000);
  ShardedSolveService service(options);
  ASSERT_TRUE(service.Attach("a", Db(kDbA)).ok());
  // The victim shard holds an adversarial instance: one compute-bound
  // solve occupies its single worker long enough for the detach to land
  // mid-flight (backtracking on pigeonhole-6 runs for >100ms).
  ASSERT_TRUE(
      service.Attach("victim",
                     std::make_shared<const Database>(PigeonholeDatabase(6)))
          .ok());

  std::mutex mu;
  std::vector<ServeResponse> responses;
  auto collect = [&](const ServeResponse& r) {
    std::lock_guard<std::mutex> lock(mu);
    responses.push_back(r);
  };
  ServeJob slow(PigeonholeCyclicQuery(), nullptr);
  slow.method = SolverMethod::kBacktracking;
  ASSERT_TRUE(service.Submit("victim", std::move(slow), collect).ok());
  // Wait until the worker has actually popped it, so the next four are
  // provably queued behind it.
  for (int i = 0; i < 20'000; ++i) {
    Result<ServiceStats> stats = service.StatsFor("victim");
    ASSERT_TRUE(stats.ok());
    if (stats->inflight == 1) break;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  for (int i = 0; i < 4; ++i) {
    ServeJob queued(Q(kDifferentialQuery), nullptr);
    ASSERT_TRUE(service.Submit("victim", std::move(queued), collect).ok());
  }

  Result<DetachOutcome> out = service.Detach("victim");
  ASSERT_TRUE(out.ok()) << out.error();
  EXPECT_EQ(out->shed, 4u) << "queued work is shed, not drained";
  EXPECT_TRUE(out->drained) << "the in-flight solve finishes in the window";

  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(responses.size(), 5u) << "every accepted request got a terminal";
  size_t completed_ok = 0, shed_detached = 0;
  for (const ServeResponse& r : responses) {
    if (r.result.ok()) {
      EXPECT_EQ(r.result->verdict, Verdict::kCertain)
          << "the in-flight solve ran to its real verdict";
      ++completed_ok;
    } else if (r.result.code() == ErrorCode::kDetached) {
      ++shed_detached;
    }
  }
  EXPECT_EQ(completed_ok, 1u) << "exactly the in-flight solve completed";
  EXPECT_EQ(shed_detached, 4u);

  // The shard is gone; its sibling is untouched; the name is reusable.
  ServeJob late(Q(kDifferentialQuery), nullptr);
  Result<uint64_t> gone = service.Submit("victim", std::move(late), collect);
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.code(), ErrorCode::kDetached);
  Outcome sibling = SolveOn(service, "a", kDifferentialQuery);
  ASSERT_TRUE(sibling.delivered);
  EXPECT_EQ(sibling.response.result->verdict, Verdict::kNotCertain);
  ASSERT_TRUE(service.Attach("victim", Db(kDbB)).ok());
  Outcome reborn = SolveOn(service, "victim", kDifferentialQuery);
  ASSERT_TRUE(reborn.delivered);
  EXPECT_EQ(reborn.response.result->verdict, Verdict::kCertain);

  // Detach of an unknown (or already detached) name is typed.
  Result<DetachOutcome> unknown = service.Detach("ghost");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.code(), ErrorCode::kUnsupported);
}

TEST(ShardedServiceTest, CancelRoutesThroughTheResolvedName) {
  ShardedServiceOptions options;
  options.shard.workers = 1;
  ShardedSolveService service(options);
  ASSERT_TRUE(service.Attach("a", Db(kDbA)).ok());

  std::atomic<bool> delivered{false};
  std::atomic<int> state{-1};
  ServeJob job(Q(kDifferentialQuery), nullptr);
  job.chaos_sleep = milliseconds(60'000);
  std::string resolved;
  Result<uint64_t> id = service.Submit(
      "", std::move(job),
      [&](const ServeResponse& r) {
        state.store(static_cast<int>(r.state));
        delivered.store(true);
      },
      &resolved);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(resolved, "a");
  EXPECT_FALSE(service.Cancel("ghost", *id)) << "unknown shard cancels nothing";
  EXPECT_TRUE(service.Cancel(resolved, *id));
  for (int i = 0; i < 20'000 && !delivered.load(); ++i) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  ASSERT_TRUE(delivered.load());
  EXPECT_EQ(state.load(), static_cast<int>(RequestState::kCancelled));
  EXPECT_TRUE(service.Shutdown(milliseconds(1'000)));
}

TEST(ShardedServiceTest, ShutdownStopsAttachesAndAggregatesStats) {
  ShardedSolveService service(CachedOptions());
  ASSERT_TRUE(service.Attach("a", Db(kDbA)).ok());
  ASSERT_TRUE(service.Attach("b", Db(kDbB)).ok());
  ASSERT_TRUE(SolveOn(service, "a", kDifferentialQuery).delivered);
  ASSERT_TRUE(SolveOn(service, "b", kDifferentialQuery).delivered);

  ServiceStats total = service.Stats();
  EXPECT_EQ(total.completed, 2u) << "counters sum across shards";
  std::vector<std::pair<std::string, ServiceStats>> per_db =
      service.StatsPerDb();
  ASSERT_EQ(per_db.size(), 2u);
  EXPECT_EQ(per_db[0].first, "a");
  EXPECT_EQ(per_db[1].first, "b");
  EXPECT_EQ(per_db[0].second.completed, 1u);
  EXPECT_EQ(per_db[1].second.completed, 1u);
  ASSERT_FALSE(service.StatsFor("ghost").ok());

  EXPECT_TRUE(service.Shutdown(milliseconds(1'000)));
  Result<ShardedSolveService::Entry> late = service.Attach("c", Db(kDbA));
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.code(), ErrorCode::kOverloaded);
  // Stats stay readable after shutdown (shards are kept, not destroyed).
  EXPECT_EQ(service.Stats().completed, 2u);
}

}  // namespace
}  // namespace cqa
