// Chaos harness for the concurrent solve service. Rather than relying on
// wall-clock races, faults are injected deterministically through the
// budget's `fail_after_probes` hook and overload is forced with pigeonhole
// instances whose search space is effectively unbounded. The invariants
// checked here are the serving layer's contract:
//
//   1. Every accepted request reaches EXACTLY one terminal state
//      (completed / cancelled) — never zero, never two.
//   2. Requests refused at admission (shed) never get a callback.
//   3. Shedding kicks in deterministically when the queue is full.
//   4. Shutdown always terminates, even with unbounded work in flight.
//
// Run under the `tsan` preset (ctest -L concurrency) to check the same
// scenarios for data races.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "cqa/base/rng.h"
#include "cqa/gen/families.h"
#include "cqa/query/parser.h"
#include "cqa/serve/service.h"

namespace cqa {
namespace {

using std::chrono::milliseconds;

Query Q(const char* text) {
  Result<Query> q = ParseQuery(text);
  EXPECT_TRUE(q.ok()) << (q.ok() ? "" : q.error());
  return q.value();
}

// Thread-safe terminal-state ledger keyed by request id.
class Ledger {
 public:
  void Record(const ServeResponse& r) {
    std::lock_guard<std::mutex> lock(mu_);
    ++callbacks_[r.id];
    responses_[r.id] = r;
  }

  // Number of ids that received exactly one callback; EXPECTs on any id
  // that received more than one.
  size_t CheckExactlyOnce() {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [id, n] : callbacks_) {
      EXPECT_EQ(n, 1) << "request " << id << " completed " << n << " times";
    }
    return callbacks_.size();
  }

  std::map<uint64_t, ServeResponse> Responses() {
    std::lock_guard<std::mutex> lock(mu_);
    return responses_;
  }

 private:
  std::mutex mu_;
  std::map<uint64_t, int> callbacks_;
  std::map<uint64_t, ServeResponse> responses_;
};

// The core chaos scenario: a mixed workload of easy queries, hard-but-
// bounded pigeonhole searches, and fault-injected requests, with random
// cancellations fired from the submitting thread, followed by a draining
// shutdown. Deterministic for a fixed seed.
void RunMixedWorkload(uint64_t seed) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  auto easy_db = [] {
    Result<Database> db = Database::FromText("R(a | b), R(a | c)\nS(b | a)");
    EXPECT_TRUE(db.ok());
    return std::make_shared<const Database>(std::move(db.value()));
  }();
  auto hard_db =
      std::make_shared<const Database>(PigeonholeDatabase(9));
  Query certain_q = Q("R(x | y)");
  Query not_certain_q = Q("R(x | y), not S(y | x)");
  Query hard_q = PigeonholeBacktrackingQuery();

  ServiceOptions options;
  options.workers = 4;
  options.queue_capacity = 16;
  options.max_retries = 2;
  options.backoff.initial = milliseconds(1);
  options.backoff.max_delay = milliseconds(4);
  options.backoff_seed = seed;
  SolveService service(options);

  Ledger ledger;
  Rng rng(seed);
  uint64_t submitted = 0;
  uint64_t shed = 0;
  std::vector<uint64_t> accepted_ids;

  constexpr int kJobs = 120;
  for (int i = 0; i < kJobs; ++i) {
    ServeJob job = [&]() -> ServeJob {
      switch (rng.Next() % 4) {
        case 0:
          return ServeJob(certain_q, easy_db);
        case 1:
          return ServeJob(not_certain_q, easy_db);
        case 2: {
          // Hard but bounded: trips the step limit, degrades to sampling.
          ServeJob j(hard_q, hard_db);
          j.max_steps = 2'000;
          j.max_samples = 50;
          return j;
        }
        default: {
          // Fault-injected: first attempt trips instantly, retry succeeds.
          // Backtracking is forced so the probe (and hence the fault) is
          // guaranteed to fire — kAuto would route this q1-shaped query to
          // the ungoverned matching solver.
          ServeJob j(certain_q, easy_db);
          j.method = SolverMethod::kBacktracking;
          j.degrade_to_sampling = false;
          j.faults.fail_after_probes = 1;
          j.fault_attempts = 1;
          return j;
        }
      }
    }();
    ++submitted;
    Result<uint64_t> id = service.Submit(
        std::move(job), [&ledger](const ServeResponse& r) { ledger.Record(r); });
    if (!id.ok()) {
      EXPECT_EQ(id.code(), ErrorCode::kOverloaded);
      ++shed;
      continue;
    }
    accepted_ids.push_back(id.value());
    // Occasionally cancel a random previously-accepted request.
    if (rng.Next() % 8 == 0) {
      (void)service.Cancel(accepted_ids[rng.Next() % accepted_ids.size()]);
    }
  }

  EXPECT_TRUE(service.Shutdown(milliseconds(60'000)))
      << "mixed workload must drain";

  // Invariant 1+2: exactly the accepted ids have exactly one callback.
  EXPECT_EQ(ledger.CheckExactlyOnce(), accepted_ids.size());

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.submitted, submitted);
  EXPECT_EQ(stats.accepted + stats.shed, stats.submitted);
  EXPECT_EQ(stats.shed, shed);
  EXPECT_EQ(stats.completed + stats.failed + stats.cancelled, stats.accepted);
  EXPECT_EQ(stats.inflight, 0u);

  // Cross-check the ledger against the aggregate counters, and spot-check
  // that non-cancelled easy queries produced correct verdicts.
  uint64_t completed = 0, cancelled = 0, failed = 0;
  for (const auto& [id, r] : ledger.Responses()) {
    if (r.state == RequestState::kCancelled) {
      ++cancelled;
      EXPECT_FALSE(r.result.ok());
      EXPECT_EQ(r.result.code(), ErrorCode::kCancelled);
    } else if (r.result.ok()) {
      ++completed;
    } else {
      ++failed;
    }
  }
  EXPECT_EQ(completed, stats.completed);
  EXPECT_EQ(cancelled, stats.cancelled);
  EXPECT_EQ(failed, stats.failed);
}

TEST(ServeChaosTest, EveryRequestReachesExactlyOneTerminalState) {
  for (uint64_t seed : {1ull, 2ull, 3ull}) RunMixedWorkload(seed);
}

TEST(ServeChaosTest, SheddingKicksInUnderOverload) {
  // One worker, tiny queue. A blocker with an astronomically large search
  // space (k=13 pigeonhole, no degradation, no step limit — only
  // cancellable) pins the worker; the queue then fills deterministically
  // and further submissions must be shed with the typed kOverloaded error.
  auto hard_db =
      std::make_shared<const Database>(PigeonholeDatabase(13));
  auto easy_db = [] {
    Result<Database> db = Database::FromText("R(a | b)");
    EXPECT_TRUE(db.ok());
    return std::make_shared<const Database>(std::move(db.value()));
  }();

  ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = 2;
  SolveService service(options);

  Ledger ledger;
  auto cb = [&ledger](const ServeResponse& r) { ledger.Record(r); };

  ServeJob blocker(PigeonholeBacktrackingQuery(), hard_db);
  blocker.degrade_to_sampling = false;
  Result<uint64_t> blocker_id = service.Submit(std::move(blocker), cb);
  ASSERT_TRUE(blocker_id.ok());

  // Wait (bounded) until the blocker occupies the worker, so queue slots
  // are genuinely free for the filler jobs.
  for (int i = 0; i < 10'000 && service.Stats().inflight == 0; ++i) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  ASSERT_EQ(service.Stats().inflight, 1u) << "blocker never started running";

  // Fill the queue to capacity...
  std::vector<uint64_t> queued;
  for (size_t i = 0; i < options.queue_capacity; ++i) {
    Result<uint64_t> id = service.Submit(ServeJob(Q("R(x | y)"), easy_db), cb);
    ASSERT_TRUE(id.ok()) << "slot " << i << ": " << id.error();
    queued.push_back(id.value());
  }
  // ...and verify deterministic shedding beyond it.
  for (int i = 0; i < 5; ++i) {
    Result<uint64_t> id = service.Submit(ServeJob(Q("R(x | y)"), easy_db), cb);
    ASSERT_FALSE(id.ok()) << "queue full: submission must be shed";
    EXPECT_EQ(id.code(), ErrorCode::kOverloaded);
  }
  ServiceStats mid = service.Stats();
  EXPECT_EQ(mid.shed, 5u);
  EXPECT_EQ(mid.accepted, 1u + options.queue_capacity);

  // Unblock: cancel the unbounded search, then drain.
  EXPECT_TRUE(service.Cancel(blocker_id.value()));
  EXPECT_TRUE(service.Shutdown(milliseconds(60'000)));

  EXPECT_EQ(ledger.CheckExactlyOnce(), 1u + queued.size());
  std::map<uint64_t, ServeResponse> responses = ledger.Responses();
  EXPECT_EQ(responses[blocker_id.value()].state, RequestState::kCancelled);
  for (uint64_t id : queued) {
    ASSERT_TRUE(responses.count(id));
    EXPECT_EQ(responses[id].state, RequestState::kCompleted);
    ASSERT_TRUE(responses[id].result.ok()) << responses[id].result.error();
    EXPECT_EQ(responses[id].result->verdict, Verdict::kCertain);
  }
  EXPECT_EQ(service.Stats().inflight, 0u);
}

TEST(ServeChaosTest, ShutdownAlwaysTerminatesUnderLoad) {
  // Immediate shutdown with a tiny drain deadline while unbounded searches
  // are running: Shutdown must cancel the stragglers and return (reporting
  // the missed deadline), and every accepted request still terminates.
  auto hard_db =
      std::make_shared<const Database>(PigeonholeDatabase(13));
  auto easy_db = [] {
    Result<Database> db = Database::FromText("R(a | b)");
    EXPECT_TRUE(db.ok());
    return std::make_shared<const Database>(std::move(db.value()));
  }();

  ServiceOptions options;
  options.workers = 2;
  options.queue_capacity = 64;
  SolveService service(options);

  Ledger ledger;
  auto cb = [&ledger](const ServeResponse& r) { ledger.Record(r); };

  uint64_t accepted = 0;
  for (int i = 0; i < 40; ++i) {
    ServeJob job = [&]() -> ServeJob {
      if (i % 4 == 0) {
        ServeJob j(PigeonholeBacktrackingQuery(), hard_db);  // unbounded
        j.degrade_to_sampling = false;
        return j;
      }
      return ServeJob(Q("R(x | y)"), easy_db);
    }();
    Result<uint64_t> id = service.Submit(std::move(job), cb);
    if (id.ok()) ++accepted;
  }

  auto start = std::chrono::steady_clock::now();
  bool drained = service.Shutdown(milliseconds(50));
  auto elapsed = std::chrono::duration_cast<milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_FALSE(drained) << "unbounded searches cannot drain in 50ms";
  // Termination is the invariant; the bound is deliberately loose (budget
  // probes are amortized, so cancellation latency is stride-granular).
  EXPECT_LT(elapsed.count(), 30'000) << "shutdown took implausibly long";

  EXPECT_EQ(ledger.CheckExactlyOnce(), accepted);
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.completed + stats.failed + stats.cancelled, accepted);
  EXPECT_EQ(stats.inflight, 0u);
  EXPECT_GT(stats.cancelled, 0u) << "the unbounded jobs must be cancelled";
}

}  // namespace
}  // namespace cqa
