// Unit tests for the serve layer building blocks — BoundedQueue,
// BackoffPolicy, StatsCollector — and the SolveService happy paths:
// verdict correctness, budget inheritance, retry accounting, cancellation,
// shedding, and shutdown. The adversarial end of the spectrum lives in
// serve_chaos_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cqa/base/backoff.h"
#include "cqa/gen/families.h"
#include "cqa/query/parser.h"
#include "cqa/serve/bounded_queue.h"
#include "cqa/serve/service.h"
#include "cqa/serve/stats.h"

namespace cqa {
namespace {

using std::chrono::microseconds;
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

// ---------------------------------------------------------------------------
// BoundedQueue

TEST(BoundedQueueTest, FifoWithCapacityLimit) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3)) << "full queue must shed";
  int out = 0;
  EXPECT_TRUE(q.Pop(&out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(q.TryPush(3));
  EXPECT_TRUE(q.Pop(&out));
  EXPECT_EQ(out, 2);
  EXPECT_TRUE(q.Pop(&out));
  EXPECT_EQ(out, 3);
  EXPECT_EQ(q.size(), 0u);
}

TEST(BoundedQueueTest, CloseDrainsBacklogThenStopsConsumers) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  q.Close();
  EXPECT_FALSE(q.TryPush(3)) << "closed queue rejects producers";
  int out = 0;
  EXPECT_TRUE(q.Pop(&out));
  EXPECT_TRUE(q.Pop(&out));
  EXPECT_FALSE(q.Pop(&out)) << "closed and empty: consumers exit";
}

TEST(BoundedQueueTest, DrainNowRemovesEverythingAtOnce) {
  BoundedQueue<int> q(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.TryPush(i));
  std::vector<int> drained = q.DrainNow();
  EXPECT_EQ(drained.size(), 5u);
  EXPECT_EQ(q.size(), 0u);
}

TEST(BoundedQueueTest, ConcurrentProducersConsumersConserveItems) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 250;
  BoundedQueue<int> q(8);
  std::atomic<long long> sum{0};
  std::atomic<int> popped{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      int item = 0;
      while (q.Pop(&item)) {
        sum.fetch_add(item);
        popped.fetch_add(1);
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        int item = p * kPerProducer + i;
        while (!q.TryPush(item)) std::this_thread::yield();
      }
    });
  }
  for (std::thread& t : producers) t.join();
  q.Close();
  for (std::thread& t : threads) t.join();
  int total = kProducers * kPerProducer;
  EXPECT_EQ(popped.load(), total);
  EXPECT_EQ(sum.load(), static_cast<long long>(total) * (total - 1) / 2);
}

TEST(BoundedQueueTest, BeforePredicatePopsMinimumWithFifoTies) {
  // Priority order: pop the smallest `first`; ties must come out in push
  // order (the discipline the EDF queue relies on for equal deadlines).
  using Item = std::pair<int, int>;  // (key, push sequence)
  BoundedQueue<Item> q(8, [](const Item& a, const Item& b) {
    return a.first < b.first;
  });
  EXPECT_TRUE(q.TryPush({5, 0}));
  EXPECT_TRUE(q.TryPush({1, 1}));
  EXPECT_TRUE(q.TryPush({5, 2}));
  EXPECT_TRUE(q.TryPush({1, 3}));
  EXPECT_TRUE(q.TryPush({3, 4}));
  Item out;
  std::vector<Item> popped;
  while (q.TryPop(&out)) popped.push_back(out);
  std::vector<Item> expected = {{1, 1}, {1, 3}, {3, 4}, {5, 0}, {5, 2}};
  EXPECT_EQ(popped, expected);
}

TEST(BoundedQueueTest, AllEqualKeysDegradeToExactFifo) {
  BoundedQueue<std::pair<int, int>> q(
      8, [](const auto& a, const auto& b) { return a.first < b.first; });
  for (int i = 0; i < 6; ++i) EXPECT_TRUE(q.TryPush({7, i}));
  std::pair<int, int> out;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(q.TryPop(&out));
    EXPECT_EQ(out.second, i);
  }
}

// ---------------------------------------------------------------------------
// BackoffPolicy

TEST(BackoffTest, DeterministicLowerBoundWithoutRng) {
  BackoffPolicy policy;
  policy.initial = milliseconds(10);
  policy.multiplier = 2.0;
  policy.max_delay = milliseconds(80);
  policy.jitter = 0.5;
  // Without an rng the jitter term drops: delay = base * (1 - jitter).
  EXPECT_EQ(policy.DelayFor(1), milliseconds(5));
  EXPECT_EQ(policy.DelayFor(2), milliseconds(10));
  EXPECT_EQ(policy.DelayFor(3), milliseconds(20));
  EXPECT_EQ(policy.DelayFor(4), milliseconds(40));
  EXPECT_EQ(policy.DelayFor(5), milliseconds(40)) << "capped at max_delay";
  EXPECT_EQ(policy.DelayFor(50), milliseconds(40)) << "no overflow blowup";
  EXPECT_EQ(policy.DelayFor(0), policy.DelayFor(1)) << "attempts clamp to 1";
}

TEST(BackoffTest, JitterStaysWithinTheConfiguredBand) {
  BackoffPolicy policy;
  policy.initial = milliseconds(100);
  policy.multiplier = 2.0;
  policy.max_delay = milliseconds(1'000);
  policy.jitter = 0.5;
  Rng rng(99);
  for (int attempt = 1; attempt <= 4; ++attempt) {
    int64_t base = std::min<int64_t>(100 << (attempt - 1), 1'000);
    for (int i = 0; i < 100; ++i) {
      milliseconds d = policy.DelayFor(attempt, &rng);
      EXPECT_GE(d.count(), base / 2) << "attempt " << attempt;
      EXPECT_LT(d.count(), base) << "attempt " << attempt;
    }
  }
}

TEST(BackoffTest, ReproducibleFromSeed) {
  BackoffPolicy policy;
  Rng a(7), b(7);
  for (int attempt = 1; attempt <= 10; ++attempt) {
    EXPECT_EQ(policy.DelayFor(attempt, &a), policy.DelayFor(attempt, &b));
  }
}

// ---------------------------------------------------------------------------
// StatsCollector

TEST(StatsTest, CountersAndNearestRankPercentiles) {
  StatsCollector stats;
  for (int i = 0; i < 3; ++i) stats.RecordSubmitted();
  stats.RecordAccepted();
  stats.RecordAccepted();
  stats.RecordShed();
  ServiceStats snap = stats.Snapshot();
  EXPECT_EQ(snap.submitted, 3u);
  EXPECT_EQ(snap.submitted, snap.accepted + snap.shed);

  StatsCollector lat;
  for (uint64_t us = 1; us <= 100; ++us) {
    lat.RecordStarted();
    lat.RecordTerminal(/*started=*/true, /*cancelled=*/false, /*ok=*/true,
                       /*degraded=*/false, microseconds(us));
  }
  ServiceStats s = lat.Snapshot();
  EXPECT_EQ(s.completed, 100u);
  EXPECT_EQ(s.inflight, 0u);
  EXPECT_EQ(s.latency_count, 100u);
  EXPECT_EQ(s.latency_p50_us, 50u);
  EXPECT_EQ(s.latency_p90_us, 90u);
  EXPECT_EQ(s.latency_p99_us, 99u);
  EXPECT_EQ(s.latency_max_us, 100u);
  EXPECT_NE(s.ToString().find("completed 100"), std::string::npos);
}

TEST(StatsTest, TerminalKindsAreDisjoint) {
  StatsCollector stats;
  stats.RecordStarted();
  stats.RecordTerminal(true, /*cancelled=*/true, /*ok=*/false, false,
                       microseconds(5));
  stats.RecordStarted();
  stats.RecordTerminal(true, false, /*ok=*/false, false, microseconds(5));
  stats.RecordStarted();
  stats.RecordTerminal(true, false, /*ok=*/true, /*degraded=*/true,
                       microseconds(5));
  ServiceStats s = stats.Snapshot();
  EXPECT_EQ(s.cancelled, 1u);
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.degraded, 1u);
  EXPECT_EQ(s.inflight, 0u);
}

TEST(StatsTest, EmptyWindowReportsZeroPercentilesWithoutReadingSamples) {
  // Regression: percentiles over an empty latency window must report zeros
  // (and must not index into the empty sample buffer).
  StatsCollector stats;
  stats.RecordSubmitted();
  stats.RecordShed();  // shed requests record no latency sample
  ServiceStats s = stats.Snapshot();
  EXPECT_EQ(s.latency_count, 0u);
  EXPECT_EQ(s.latency_p50_us, 0u);
  EXPECT_EQ(s.latency_p90_us, 0u);
  EXPECT_EQ(s.latency_p99_us, 0u);
  EXPECT_EQ(s.latency_max_us, 0u);
  EXPECT_NE(s.ToString().find("p50 0"), std::string::npos);
}

TEST(StatsTest, SingleSampleWindowClampsEveryPercentile) {
  StatsCollector stats;
  stats.RecordStarted();
  stats.RecordTerminal(true, false, /*ok=*/true, false, microseconds(42));
  ServiceStats s = stats.Snapshot();
  EXPECT_EQ(s.latency_p50_us, 42u);
  EXPECT_EQ(s.latency_p99_us, 42u);
  EXPECT_EQ(s.latency_max_us, 42u);
}

// The declared error of a histogram read: exact below 1024 µs, within
// 1/256 of the sample above.
void ExpectWithinBucketError(uint64_t read, uint64_t sample) {
  if (sample < 1024) {
    EXPECT_EQ(read, sample);
  } else {
    uint64_t diff = read > sample ? read - sample : sample - read;
    EXPECT_LE(diff * 256, sample) << "read " << read << " for " << sample;
  }
}

TEST(StatsTest, LatencyHistogramIsExactBelow1024AndBoundedAbove) {
  for (uint64_t us = 0; us < (uint64_t{1} << 42); us = us * 5 / 4 + 1) {
    // A huge second sample keeps the max cap out of the p50 read.
    StatsCollector stats;
    stats.RecordTerminal(false, false, true, false, microseconds(us));
    stats.RecordTerminal(false, false, true, false,
                         microseconds(int64_t{1} << 45));
    ServiceStats s = stats.Snapshot();
    if (us < (uint64_t{1} << 40)) {
      ExpectWithinBucketError(s.latency_p50_us, us);
    }
    EXPECT_EQ(s.latency_max_us, uint64_t{1} << 45);
  }
}

TEST(StatsTest, MergedCollectorsReadPooledPercentiles) {
  // Two shards with disjoint latency ranges: the aggregate percentiles are
  // the pooled samples' nearest-rank percentiles, not any shard's.
  StatsCollector fast, slow;
  std::vector<uint64_t> pooled;
  for (uint64_t us = 1; us <= 100; ++us) {
    fast.RecordTerminal(false, false, true, false, microseconds(us));
    pooled.push_back(us);
  }
  for (uint64_t us = 5'000; us <= 6'000; ++us) {
    slow.RecordTerminal(false, false, true, false, microseconds(us));
    pooled.push_back(us);
  }
  ServiceStats merged =
      MergeStats({{"fast", fast.Snapshot()}, {"slow", slow.Snapshot()}});
  std::sort(pooled.begin(), pooled.end());
  auto nearest_rank = [&](double p) {
    return pooled[static_cast<size_t>(p * (pooled.size() - 1))];
  };
  EXPECT_EQ(merged.latency_count, pooled.size());
  ExpectWithinBucketError(merged.latency_p50_us, nearest_rank(0.50));
  ExpectWithinBucketError(merged.latency_p90_us, nearest_rank(0.90));
  ExpectWithinBucketError(merged.latency_p99_us, nearest_rank(0.99));
  EXPECT_EQ(merged.latency_max_us, 6'000u);
  EXPECT_EQ(merged.completed, pooled.size());
}

TEST(StatsTest, MergeRulesFollowFieldKinds) {
  for (const StatField<ServiceStats>& f : kServiceStatFields) {
    SCOPED_TRACE(f.name);
    if (f.kind == StatKind::kCounter) {
      EXPECT_EQ(f.merge, StatMerge::kSum);
    }
    if (f.kind == StatKind::kHighWater) {
      EXPECT_EQ(f.merge, StatMerge::kMax);
    }
    EXPECT_EQ(f.merge == StatMerge::kPooled,
              std::string(f.name).starts_with("latency_p"));
  }
}

TEST(StatsTest, CancelledWhileQueuedCountsInExactlyOneBucket) {
  // Regression: a request cancelled before any worker started it must land
  // in `cancelled` only — and must not decrement `inflight` below zero.
  StatsCollector stats;
  stats.RecordSubmitted();
  stats.RecordAccepted();
  stats.RecordTerminal(/*started=*/false, /*cancelled=*/true, /*ok=*/false,
                       /*degraded=*/false, microseconds(10));
  ServiceStats s = stats.Snapshot();
  EXPECT_EQ(s.cancelled, 1u);
  EXPECT_EQ(s.completed, 0u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.degraded, 0u);
  EXPECT_EQ(s.inflight, 0u) << "never-started terminal must not touch inflight";
  EXPECT_EQ(s.cancelled + s.completed + s.failed, 1u);
}

// ---------------------------------------------------------------------------
// SolveService

// Collects responses thread-safely and waits for an expected count.
struct ResponseSink {
  std::mutex mu;
  std::vector<ServeResponse> responses;

  SolveService::Callback Callback() {
    return [this](const ServeResponse& r) {
      std::lock_guard<std::mutex> lock(mu);
      responses.push_back(r);
    };
  }

  size_t Count() {
    std::lock_guard<std::mutex> lock(mu);
    return responses.size();
  }

  // Bounded wait for `n` responses (polling; tests fail loudly on timeout).
  bool WaitForCount(size_t n) {
    for (int i = 0; i < 20'000 && Count() < n; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return Count() >= n;
  }
};

TEST(SolveServiceTest, BatchCompletesWithCorrectVerdicts) {
  auto db = Db("R(a | b), R(a | c)\nS(b | a)");
  ServiceOptions options;
  options.workers = 4;
  SolveService service(options);
  ResponseSink sink;
  Result<uint64_t> certain =
      service.Submit(ServeJob(Q("R(x | y)"), db), sink.Callback());
  Result<uint64_t> not_certain = service.Submit(
      ServeJob(Q("R(x | y), not S(y | x)"), db), sink.Callback());
  ASSERT_TRUE(certain.ok());
  ASSERT_TRUE(not_certain.ok());
  EXPECT_NE(certain.value(), not_certain.value());
  EXPECT_TRUE(service.Shutdown(milliseconds(10'000))) << "batch must drain";
  ASSERT_EQ(sink.Count(), 2u);
  for (const ServeResponse& r : sink.responses) {
    EXPECT_EQ(r.state, RequestState::kCompleted);
    ASSERT_TRUE(r.result.ok()) << r.result.error();
    EXPECT_EQ(r.attempts, 1);
    if (r.id == certain.value()) {
      EXPECT_EQ(r.result->verdict, Verdict::kCertain);
    } else {
      EXPECT_EQ(r.result->verdict, Verdict::kNotCertain);
    }
  }
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.inflight, 0u);
  EXPECT_EQ(stats.latency_count, 2u);
}

TEST(SolveServiceTest, ServiceDeadlineIsInheritedByEveryRequest) {
  // An already-expired service deadline: each attempt's budget trips on its
  // first probe, and the kAuto path degrades to an (empty) sampling stage,
  // so requests complete with the honest kExhausted verdict. The
  // backtracking pigeonhole query forces the governed backtracking solver
  // (a query in the matching class would be answered by the ungoverned
  // poly-time matcher before the deadline could bite).
  Database db = PigeonholeDatabase(6);
  auto shared = std::make_shared<const Database>(std::move(db));
  ServiceOptions options;
  options.workers = 2;
  options.service_deadline = Budget::Clock::now() - milliseconds(1);
  SolveService service(options);
  ResponseSink sink;
  ASSERT_TRUE(service
                  .Submit(ServeJob(PigeonholeBacktrackingQuery(), shared),
                          sink.Callback())
                  .ok());
  EXPECT_TRUE(service.Shutdown(milliseconds(10'000)));
  ASSERT_EQ(sink.Count(), 1u);
  const ServeResponse& r = sink.responses[0];
  EXPECT_EQ(r.state, RequestState::kCompleted);
  ASSERT_TRUE(r.result.ok()) << r.result.error();
  EXPECT_EQ(r.result->verdict, Verdict::kExhausted);
  EXPECT_EQ(service.Stats().degraded, 1u);
}

TEST(SolveServiceTest, RetriesExhaustThenSurfaceTheTypedError) {
  auto db = Db("R(a | b), R(a | c)\nS(b | a)");
  ServiceOptions options;
  options.workers = 1;
  options.max_retries = 2;
  options.backoff.initial = milliseconds(1);
  options.backoff.jitter = 0.0;
  SolveService service(options);
  ResponseSink sink;
  ServeJob job(Q("R(x | y), not S(y | x)"), db);
  job.method = SolverMethod::kBacktracking;  // a governed, probing solver
  job.degrade_to_sampling = false;  // typed error instead of verdict
  job.faults.fail_after_probes = 1;        // every attempt trips instantly
  ASSERT_TRUE(service.Submit(std::move(job), sink.Callback()).ok());
  // Let the retries play out before shutting down: draining suppresses
  // retries (by design), which would truncate the attempt count.
  ASSERT_TRUE(sink.WaitForCount(1)) << "request never completed";
  EXPECT_TRUE(service.Shutdown(milliseconds(10'000)));
  ASSERT_EQ(sink.Count(), 1u);
  const ServeResponse& r = sink.responses[0];
  EXPECT_EQ(r.state, RequestState::kCompleted);
  ASSERT_FALSE(r.result.ok());
  EXPECT_EQ(r.result.code(), ErrorCode::kBudgetExhausted);
  EXPECT_EQ(r.attempts, 3) << "initial attempt + max_retries";
  EXPECT_EQ(service.Stats().retries, 2u);
  EXPECT_EQ(service.Stats().failed, 1u);
}

TEST(SolveServiceTest, RetrySucceedsAfterATransientFault) {
  auto db = Db("R(a | b), R(a | c)\nS(b | a)");
  ServiceOptions options;
  options.workers = 1;
  options.max_retries = 1;
  options.backoff.initial = milliseconds(1);
  SolveService service(options);
  ResponseSink sink;
  ServeJob job(Q("R(x | y)"), db);
  job.method = SolverMethod::kBacktracking;  // a governed, probing solver
  job.degrade_to_sampling = false;
  job.faults.fail_after_probes = 1;
  job.fault_attempts = 1;  // only the first attempt is faulted
  ASSERT_TRUE(service.Submit(std::move(job), sink.Callback()).ok());
  ASSERT_TRUE(sink.WaitForCount(1)) << "request never completed";
  EXPECT_TRUE(service.Shutdown(milliseconds(10'000)));
  ASSERT_EQ(sink.Count(), 1u);
  const ServeResponse& r = sink.responses[0];
  EXPECT_EQ(r.state, RequestState::kCompleted);
  ASSERT_TRUE(r.result.ok()) << r.result.error();
  EXPECT_EQ(r.result->verdict, Verdict::kCertain);
  EXPECT_EQ(r.attempts, 2);
  EXPECT_EQ(service.Stats().retries, 1u);
}

TEST(SolveServiceTest, WorkerCrashIsNeverRetried) {
  // Retry-policy boundary: the sandbox's terminal codes mean deterministic
  // re-failure (a crashing solve crashes again, a capped solve breaches
  // again), so they are excluded from the retry condition — unlike the
  // genuinely transient kOverloaded and the budget codes.
  EXPECT_FALSE(IsRetryable(ErrorCode::kWorkerCrashed));
  EXPECT_FALSE(IsRetryable(ErrorCode::kResourceExhausted));
  EXPECT_FALSE(IsResourceExhaustion(ErrorCode::kWorkerCrashed));
  EXPECT_FALSE(IsResourceExhaustion(ErrorCode::kResourceExhausted));
  EXPECT_TRUE(IsRetryable(ErrorCode::kOverloaded)) << "backoff unchanged";
  EXPECT_TRUE(IsRetryable(ErrorCode::kDeadlineExceeded));

  // End to end: a generous retry allowance must not resurrect a solve that
  // segfaults its sandbox child — exactly one attempt, one typed terminal.
  auto db = Db("R(a | b), R(a | c)\nS(b | a)");
  ServiceOptions options;
  options.workers = 1;
  options.max_retries = 3;
  options.backoff.initial = milliseconds(1);
  SolveService service(options);
  ResponseSink sink;
  ServeJob job(Q("R(x | y), not S(y | x)"), db);
  job.method = SolverMethod::kBacktracking;  // a governed, probing solver
  job.degrade_to_sampling = false;
  job.isolation = IsolationMode::kFork;  // contain the injected crash
  job.faults.crash_after_probes = 1;
  ASSERT_TRUE(service.Submit(std::move(job), sink.Callback()).ok());
  ASSERT_TRUE(sink.WaitForCount(1)) << "request never completed";
  EXPECT_TRUE(service.Shutdown(milliseconds(10'000)));
  ASSERT_EQ(sink.Count(), 1u);
  const ServeResponse& r = sink.responses[0];
  EXPECT_EQ(r.state, RequestState::kCompleted);
  ASSERT_FALSE(r.result.ok());
  EXPECT_EQ(r.result.code(), ErrorCode::kWorkerCrashed);
  EXPECT_EQ(r.attempts, 1) << "crashes are deterministic; never retried";
  EXPECT_EQ(service.Stats().retries, 0u);
  EXPECT_EQ(service.Stats().failed, 1u);
  EXPECT_EQ(service.Stats().sandbox_crashes, 1u);
}

TEST(SolveServiceTest, DegradedVerdictIsSurfacedNotRetried) {
  // With degradation on, an exhausted exact stage yields a qualified
  // sampling verdict — a completion, so the retry machinery must not run.
  Database db = PigeonholeDatabase(12);
  auto shared = std::make_shared<const Database>(std::move(db));
  ServiceOptions options;
  options.workers = 1;
  options.max_retries = 5;
  SolveService service(options);
  ResponseSink sink;
  ServeJob job(PigeonholeBacktrackingQuery(), shared);
  // Exhaust the exact stage by step budget, not wall-clock: a step limit
  // trips identically on a loaded or sanitized build, and the generous
  // timeout leaves sampling all the time it needs for its verdict.
  job.max_steps = 200;
  job.timeout = milliseconds(10'000);
  ASSERT_TRUE(service.Submit(std::move(job), sink.Callback()).ok());
  EXPECT_TRUE(service.Shutdown(milliseconds(20'000)));
  ASSERT_EQ(sink.Count(), 1u);
  const ServeResponse& r = sink.responses[0];
  EXPECT_EQ(r.state, RequestState::kCompleted);
  ASSERT_TRUE(r.result.ok()) << r.result.error();
  EXPECT_EQ(r.result->verdict, Verdict::kProbablyCertain);
  EXPECT_EQ(r.attempts, 1) << "degraded completions are not retried";
  EXPECT_EQ(service.Stats().retries, 0u);
  EXPECT_EQ(service.Stats().degraded, 1u);
}

TEST(SolveServiceTest, SubmitAfterShutdownIsShedAsOverloaded) {
  auto db = Db("R(a | b)");
  SolveService service(ServiceOptions{});
  EXPECT_TRUE(service.Shutdown(milliseconds(1'000)));
  ResponseSink sink;
  Result<uint64_t> id =
      service.Submit(ServeJob(Q("R(x | y)"), db), sink.Callback());
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.code(), ErrorCode::kOverloaded);
  EXPECT_EQ(sink.Count(), 0u) << "shed requests never get a callback";
  EXPECT_EQ(service.Stats().shed, 1u);
}

TEST(SolveServiceTest, ShutdownIsIdempotent) {
  SolveService service(ServiceOptions{});
  EXPECT_TRUE(service.Shutdown(milliseconds(100)));
  EXPECT_TRUE(service.Shutdown(milliseconds(100)));
  // Destructor after explicit shutdown is a no-op.
}

TEST(SolveServiceTest, CancelUnknownIdReturnsFalse) {
  SolveService service(ServiceOptions{});
  EXPECT_FALSE(service.Cancel(424242));
  (void)service.Shutdown(milliseconds(100));
}

TEST(SolveServiceTest, CancelledQueuedRequestNeverRuns) {
  // One worker pinned on an effectively endless search; a second request
  // sits in the queue, is cancelled, and must terminate with zero attempts.
  Database hard = PigeonholeDatabase(13);
  auto hard_db = std::make_shared<const Database>(std::move(hard));
  auto easy_db = Db("R(a | b)");
  ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = 4;
  SolveService service(options);
  ResponseSink sink;
  ServeJob blocker(PigeonholeBacktrackingQuery(), hard_db);
  blocker.degrade_to_sampling = false;
  Result<uint64_t> blocker_id =
      service.Submit(std::move(blocker), sink.Callback());
  ASSERT_TRUE(blocker_id.ok());
  // Wait until the blocker is actually running so the next job queues.
  for (int i = 0; i < 2'000 && service.Stats().inflight == 0; ++i) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  ASSERT_EQ(service.Stats().inflight, 1u) << "blocker never started";
  Result<uint64_t> queued_id =
      service.Submit(ServeJob(Q("R(x | y)"), easy_db), sink.Callback());
  ASSERT_TRUE(queued_id.ok());
  EXPECT_TRUE(service.Cancel(queued_id.value()));
  EXPECT_TRUE(service.Cancel(blocker_id.value()));
  EXPECT_TRUE(service.Shutdown(milliseconds(20'000)));
  ASSERT_EQ(sink.Count(), 2u);
  for (const ServeResponse& r : sink.responses) {
    EXPECT_EQ(r.state, RequestState::kCancelled);
    ASSERT_FALSE(r.result.ok());
    EXPECT_EQ(r.result.code(), ErrorCode::kCancelled);
    if (r.id == queued_id.value()) {
      EXPECT_EQ(r.attempts, 0) << "cancelled while queued: never attempted";
    }
  }
  EXPECT_EQ(service.Stats().cancelled, 2u);
}

// Mixed-deadline load on one worker: a blocker occupies the worker while
// three relaxed no-deadline sleepers and one urgent submit-anchored job sit
// in the queue. Returns the service stats and the urgent job's result.
struct MixedLoadOutcome {
  ServiceStats stats;
  Result<SolveReport> urgent = Result<SolveReport>::Error(ErrorCode::kInternal,
                                                          "no response");
};

MixedLoadOutcome RunMixedDeadlineLoad(QueueDiscipline discipline) {
  auto db = Db("R(a | b), R(a | c)\nS(b | a)");
  ServiceOptions options;
  options.workers = 1;
  options.discipline = discipline;
  SolveService service(options);
  ResponseSink sink;

  // Blocker: pins the single worker for 150ms.
  ServeJob blocker(Q("R(x | y)"), db);
  blocker.chaos_sleep = milliseconds(150);
  EXPECT_TRUE(service.Submit(std::move(blocker), sink.Callback()).ok());
  for (int i = 0; i < 2'000 && service.Stats().inflight == 0; ++i) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  EXPECT_EQ(service.Stats().inflight, 1u) << "blocker never started";

  // Three relaxed jobs (250ms each, no deadline) queued ahead of the
  // urgent one in FIFO order.
  for (int i = 0; i < 3; ++i) {
    ServeJob relaxed(Q("R(x | y)"), db);
    relaxed.chaos_sleep = milliseconds(250);
    EXPECT_TRUE(service.Submit(std::move(relaxed), sink.Callback()).ok());
  }
  // Urgent job: 500ms budget anchored at submit time. Under FIFO it waits
  // ~150 + 3*250 = 900ms in the queue and expires before it runs; under
  // EDF it is popped first (the others sort last, having no deadline) and
  // runs at ~150ms with most of its budget intact.
  ServeJob urgent(Q("R(x | y)"), db);
  urgent.timeout = milliseconds(500);
  urgent.deadline_from_submit = true;
  urgent.degrade_to_sampling = false;  // typed error instead of a verdict
  // The governed solver probes the budget; the poly-time matcher that would
  // otherwise answer this q1-shaped query ignores deadlines entirely.
  urgent.method = SolverMethod::kBacktracking;
  Result<uint64_t> urgent_id = service.Submit(std::move(urgent),
                                              sink.Callback());
  EXPECT_TRUE(urgent_id.ok());

  EXPECT_TRUE(sink.WaitForCount(5)) << "responses missing";
  EXPECT_TRUE(service.Shutdown(milliseconds(10'000)));
  MixedLoadOutcome out;
  out.stats = service.Stats();
  for (const ServeResponse& r : sink.responses) {
    if (r.id == urgent_id.value()) out.urgent = r.result;
  }
  return out;
}

TEST(SolveServiceTest, EdfServesUrgentJobsBeforeTheyExpireInTheQueue) {
  MixedLoadOutcome fifo = RunMixedDeadlineLoad(QueueDiscipline::kFifo);
  ASSERT_FALSE(fifo.urgent.ok())
      << "FIFO must let the urgent job expire while queued";
  EXPECT_EQ(fifo.urgent.code(), ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(fifo.stats.failed, 1u);
  EXPECT_EQ(fifo.stats.completed, 4u);

  MixedLoadOutcome edf = RunMixedDeadlineLoad(QueueDiscipline::kEdf);
  ASSERT_TRUE(edf.urgent.ok())
      << "EDF must run the urgent job first: " << edf.urgent.error();
  EXPECT_EQ(edf.urgent->verdict, Verdict::kCertain);
  EXPECT_EQ(edf.stats.failed, 0u);
  EXPECT_EQ(edf.stats.completed, 5u);
}

TEST(SolveServiceTest, DestructorShutsDownAnIdleService) {
  auto db = Db("R(a | b)");
  ResponseSink sink;
  {
    ServiceOptions options;
    options.workers = 2;
    SolveService service(options);
    ASSERT_TRUE(
        service.Submit(ServeJob(Q("R(x | y)"), db), sink.Callback()).ok());
    // Give the pool a moment; the destructor's zero drain deadline then
    // cancels anything still pending — either way the response arrives.
    for (int i = 0; i < 2'000 && sink.Count() == 0; ++i) {
      std::this_thread::sleep_for(milliseconds(1));
    }
  }
  EXPECT_EQ(sink.Count(), 1u);
}

}  // namespace
}  // namespace cqa
