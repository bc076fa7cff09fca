// Chaos harness for the registry subsystem: attach/detach churn under
// concurrent solve load, exercised across shards. The invariants are the
// registry layer's contract:
//
//   1. Every accepted submission reaches EXACTLY one terminal state —
//      detach churn may shed it (typed `kDetached`) or cancel it, but can
//      never strand or double-complete it.
//   2. Cross-database isolation holds under churn: a solve accepted for
//      database X always reports X's verdict, even while X's shard is
//      being torn down and rebuilt and the sibling shard serves the same
//      query text with the opposite verdict from its own cache.
//   3. Synchronous submit failures are typed (`kDetached`/`kOverloaded`),
//      never crashes or silent drops.
//   4. Detach, shutdown, and submission may interleave arbitrarily and
//      everything still terminates.
//
// Run under the `tsan` preset (ctest -L concurrency) to check the same
// scenarios for data races.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cqa/base/rng.h"
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

// The differential pair (see registry_test.cc): on the same query text,
// "stable" answers not-certain and "flap" answers certain, so a routing or
// cache-keying race surfaces as a wrong verdict, not just a wrong counter.
constexpr char kStableFacts[] = "R(a | b), R(a | c)\nS(b | a)";
constexpr char kFlapFacts[] = "R(a | b), R(a | c)\nS(z | z)";
constexpr char kQueryText[] = "R(x | y), not S(y | x)";

// One submission's life, shared between the submitting thread and the
// terminal callback.
struct Submission {
  Verdict expected;
  std::atomic<int> terminals{0};
  std::atomic<bool> wrong_verdict{false};
  std::atomic<int> unexpected_code{-1};
};

void Terminal(const std::shared_ptr<Submission>& sub, const ServeResponse& r) {
  sub->terminals.fetch_add(1, std::memory_order_acq_rel);
  if (r.result.ok()) {
    if (r.result->verdict != sub->expected) sub->wrong_verdict.store(true);
    return;
  }
  switch (r.result.code()) {
    case ErrorCode::kDetached:    // shed from a detaching shard's queue
    case ErrorCode::kCancelled:   // drain deadline or explicit cancel
      break;
    default:
      sub->unexpected_code.store(static_cast<int>(r.result.code()));
  }
}

TEST(RegistryChaosTest, AttachDetachChurnUnderConcurrentLoad) {
  ShardedServiceOptions options;
  options.shard.workers = 2;
  options.shard.queue_capacity = 8;
  options.shard.cache_entries = 64;  // churn the per-shard caches too
  options.detach_drain = milliseconds(2'000);
  ShardedSolveService service(options);
  ASSERT_TRUE(service.Attach("stable", Db(kStableFacts)).ok());
  ASSERT_TRUE(service.Attach("flap", Db(kFlapFacts)).ok());

  Query query = Q(kQueryText);
  std::mutex subs_mu;
  std::vector<std::shared_ptr<Submission>> subs;
  std::atomic<uint64_t> accepted{0};
  std::atomic<uint64_t> refused{0};
  std::atomic<bool> bad_refusal{false};

  constexpr int kSubmitters = 3;
  constexpr int kPerThread = 150;
  std::atomic<bool> churn_done{false};

  std::vector<std::thread> threads;
  for (int t = 0; t < kSubmitters; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(0x5eed'0000u + static_cast<uint64_t>(t));
      for (int i = 0; i < kPerThread; ++i) {
        // "" resolves to "stable" (the first attach, never detached, so
        // the default never moves); "ghost" is never attached.
        const char* names[] = {"stable", "flap", "", "ghost"};
        const char* name = names[rng.Next() % 4];
        auto sub = std::make_shared<Submission>();
        sub->expected = (name[0] == 'f') ? Verdict::kCertain
                                         : Verdict::kNotCertain;
        ServeJob job(query, nullptr);
        Result<uint64_t> id = service.Submit(
            name, std::move(job),
            [sub](const ServeResponse& r) { Terminal(sub, r); });
        if (id.ok()) {
          accepted.fetch_add(1);
          std::lock_guard<std::mutex> lock(subs_mu);
          subs.push_back(sub);
        } else {
          refused.fetch_add(1);
          if (id.code() != ErrorCode::kDetached &&
              id.code() != ErrorCode::kOverloaded) {
            bad_refusal.store(true);
          }
        }
      }
    });
  }

  // Admin churn: tear the flap shard down and rebuild it, repeatedly,
  // while the submitters race it.
  threads.emplace_back([&] {
    for (int cycle = 0; cycle < 20; ++cycle) {
      Result<DetachOutcome> out = service.Detach("flap");
      if (!out.ok()) {
        EXPECT_EQ(out.code(), ErrorCode::kUnsupported) << out.error();
      }
      Result<ShardedSolveService::Entry> back =
          service.Attach("flap", Db(kFlapFacts));
      if (!back.ok()) {
        EXPECT_EQ(back.code(), ErrorCode::kUnsupported) << back.error();
      }
      std::this_thread::sleep_for(milliseconds(1));
    }
    churn_done.store(true);
  });

  // Cancellation noise: ids are per-shard and recycle across re-attaches;
  // Cancel must stay safe whatever (name, id) pair it is handed.
  threads.emplace_back([&] {
    Rng rng(0xca9ce1u);
    while (!churn_done.load()) {
      const char* names[] = {"stable", "flap", "ghost"};
      (void)service.Cancel(names[rng.Next() % 3], 1 + rng.Next() % 64);
      std::this_thread::sleep_for(milliseconds(1));
    }
  });

  for (auto& t : threads) t.join();
  EXPECT_TRUE(service.Shutdown(milliseconds(5'000)));

  EXPECT_FALSE(bad_refusal.load())
      << "synchronous refusals must be kDetached or kOverloaded";
  uint64_t delivered = 0;
  {
    std::lock_guard<std::mutex> lock(subs_mu);
    for (const auto& sub : subs) {
      int n = sub->terminals.load();
      EXPECT_EQ(n, 1) << "a submission terminated " << n << " times";
      delivered += static_cast<uint64_t>(n > 0);
      EXPECT_FALSE(sub->wrong_verdict.load())
          << "a shard served the other database's verdict";
      EXPECT_EQ(sub->unexpected_code.load(), -1);
    }
  }
  EXPECT_EQ(delivered, accepted.load())
      << "accepted and terminated must balance exactly";
  EXPECT_EQ(accepted.load() + refused.load(),
            static_cast<uint64_t>(kSubmitters) * kPerThread);
  // The stable shard survived the churn untouched.
  Result<ServiceStats> stable = service.StatsFor("stable");
  ASSERT_TRUE(stable.ok());
  EXPECT_GT(stable->completed, 0u);
}

TEST(RegistryChaosTest, DetachRacingShutdownTerminates) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ShardedServiceOptions options;
    options.shard.workers = 2;
    options.shard.queue_capacity = 8;
    options.detach_drain = milliseconds(1'000);
    auto service = std::make_unique<ShardedSolveService>(options);
    ASSERT_TRUE(service->Attach("a", Db(kStableFacts)).ok());
    ASSERT_TRUE(service->Attach("b", Db(kFlapFacts)).ok());

    Query query = Q(kQueryText);
    std::atomic<uint64_t> accepted{0};
    std::atomic<uint64_t> terminals{0};
    std::atomic<bool> stop{false};
    std::thread submitter([&] {
      Rng rng(seed);
      while (!stop.load()) {
        ServeJob job(query, nullptr);
        Result<uint64_t> id = service->Submit(
            rng.Next() % 2 == 0 ? "a" : "b", std::move(job),
            [&](const ServeResponse&) { terminals.fetch_add(1); });
        if (id.ok()) accepted.fetch_add(1);
      }
    });
    std::thread detacher([&] {
      std::this_thread::sleep_for(milliseconds(seed % 3));
      (void)service->Detach("b");
    });
    std::this_thread::sleep_for(milliseconds(2 * seed));
    EXPECT_TRUE(service->Shutdown(milliseconds(5'000)));
    stop.store(true);
    submitter.join();
    detacher.join();
    EXPECT_EQ(terminals.load(), accepted.load());
    // Post-shutdown: everything fails typed, nothing crashes.
    ServeJob late(query, nullptr);
    Result<uint64_t> rejected =
        service->Submit("a", std::move(late), [](const ServeResponse&) {});
    EXPECT_FALSE(rejected.ok());
    service.reset();  // second (destructor) shutdown must be a no-op
  }
}

}  // namespace
}  // namespace cqa
