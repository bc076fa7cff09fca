// Fork-isolated solver sandbox: codec round-trips, exit-path → error-code
// mapping, verdict parity between in-process and forked execution across
// every engine, hard preemption of wedged solves, RSS-cap breaches, crash
// containment, and the auto-escalation policy. The concurrency-heavy end
// (fork churn under load, shutdown races, zombie accounting) lives in
// sandbox_chaos_test.cc.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "cqa/gen/families.h"
#include "cqa/query/parser.h"
#include "cqa/serve/net/protocol.h"
#include "cqa/serve/sandbox/codec.h"
#include "cqa/serve/sandbox/sandbox.h"
#include "cqa/serve/service.h"

// The RSS-cap tests allocate until RLIMIT_AS makes `operator new` throw.
// Sanitizer runtimes reserve shadow address space far beyond any sane cap
// (and may abort instead of throwing), so those tests only run on plain
// builds.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CQA_SANDBOX_RSS_TESTABLE 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CQA_SANDBOX_RSS_TESTABLE 0
#else
#define CQA_SANDBOX_RSS_TESTABLE 1
#endif
#else
#define CQA_SANDBOX_RSS_TESTABLE 1
#endif

namespace cqa {
namespace {

using std::chrono::milliseconds;

Query Q(const char* text) {
  Result<Query> q = ParseQuery(text);
  EXPECT_TRUE(q.ok()) << (q.ok() ? "" : q.error());
  return q.value();
}

Database Db(const char* text) {
  Result<Database> db = Database::FromText(text);
  EXPECT_TRUE(db.ok()) << (db.ok() ? "" : db.error());
  return std::move(db.value());
}

// ---------------------------------------------------------------------------
// Pipe codec

TEST(SandboxCodecTest, OkReportRoundTripsEveryField) {
  SolveReport report;
  report.certain = true;
  report.verdict = Verdict::kCertain;
  report.confidence = 0.975;
  report.samples = 42;
  report.used = SolverMethod::kBacktracking;
  report.classification.cls = CertaintyClass::kNLHard;
  report.classification.weakly_guarded = true;
  report.classification.guarded = false;
  report.classification.attack_graph_acyclic = false;
  report.classification.two_cycle = {1, 3};
  report.classification.negated_in_cycle = 1;
  report.classification.explanation = "2-cycle with one negated atom";
  SolveStage exact;
  exact.method = SolverMethod::kBacktracking;
  exact.ok = false;
  exact.error = ErrorCode::kBudgetExhausted;
  exact.steps = 1'000;
  exact.elapsed = std::chrono::microseconds(2'500);
  SolveStage sampling;
  sampling.method = SolverMethod::kSampling;
  sampling.ok = true;
  sampling.steps = 42;
  sampling.elapsed = std::chrono::microseconds(777);
  report.stages = {exact, sampling};

  std::string frame = EncodeOutcome(Result<SolveReport>(report));
  Result<SolveReport> decoded =
      Result<SolveReport>::Error(ErrorCode::kInternal, "unset");
  ASSERT_TRUE(DecodeOutcome(frame, &decoded));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->certain, report.certain);
  EXPECT_EQ(decoded->verdict, report.verdict);
  EXPECT_EQ(decoded->confidence, report.confidence);
  EXPECT_EQ(decoded->samples, report.samples);
  EXPECT_EQ(decoded->used, report.used);
  EXPECT_EQ(decoded->classification.cls, report.classification.cls);
  EXPECT_EQ(decoded->classification.weakly_guarded, true);
  EXPECT_EQ(decoded->classification.guarded, false);
  EXPECT_EQ(decoded->classification.attack_graph_acyclic, false);
  ASSERT_TRUE(decoded->classification.two_cycle.has_value());
  EXPECT_EQ(decoded->classification.two_cycle->first, 1u);
  EXPECT_EQ(decoded->classification.two_cycle->second, 3u);
  EXPECT_EQ(decoded->classification.negated_in_cycle, 1);
  EXPECT_EQ(decoded->classification.explanation,
            report.classification.explanation);
  ASSERT_EQ(decoded->stages.size(), 2u);
  EXPECT_EQ(decoded->stages[0].method, SolverMethod::kBacktracking);
  EXPECT_FALSE(decoded->stages[0].ok);
  ASSERT_TRUE(decoded->stages[0].error.has_value());
  EXPECT_EQ(*decoded->stages[0].error, ErrorCode::kBudgetExhausted);
  EXPECT_EQ(decoded->stages[0].steps, 1'000u);
  EXPECT_EQ(decoded->stages[0].elapsed.count(), 2'500);
  EXPECT_TRUE(decoded->stages[1].ok);
  EXPECT_FALSE(decoded->stages[1].error.has_value());
}

TEST(SandboxCodecTest, TypedErrorRoundTrips) {
  std::string frame = EncodeOutcome(Result<SolveReport>::Error(
      ErrorCode::kDeadlineExceeded, "wall-clock deadline exceeded"));
  Result<SolveReport> decoded =
      Result<SolveReport>::Error(ErrorCode::kInternal, "unset");
  ASSERT_TRUE(DecodeOutcome(frame, &decoded));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.code(), ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(decoded.error(), "wall-clock deadline exceeded");
}

TEST(SandboxCodecTest, TruncatedFramesAreDetectedNotDecoded) {
  SolveReport report;
  report.verdict = Verdict::kNotCertain;
  std::string frame = EncodeOutcome(Result<SolveReport>(report));
  Result<SolveReport> decoded =
      Result<SolveReport>::Error(ErrorCode::kInternal, "unset");
  // Every strict prefix — the states a dying child's partial write leaves
  // behind — must be rejected, never misread as a verdict.
  for (size_t cut = 0; cut < frame.size(); ++cut) {
    std::string partial = frame.substr(0, cut);
    EXPECT_FALSE(OutcomeFrameComplete(partial, nullptr));
    EXPECT_FALSE(DecodeOutcome(partial, &decoded)) << "prefix " << cut;
  }
  size_t size = 0;
  ASSERT_TRUE(OutcomeFrameComplete(frame, &size));
  EXPECT_EQ(size, frame.size());
  EXPECT_TRUE(DecodeOutcome(frame, &decoded));
}

TEST(SandboxCodecTest, CorruptEnumValuesAreRejected) {
  SolveReport report;
  std::string frame = EncodeOutcome(Result<SolveReport>(report));
  Result<SolveReport> decoded =
      Result<SolveReport>::Error(ErrorCode::kInternal, "unset");
  std::string bad_version = frame;
  bad_version[4] = '\x7f';  // version byte, right after the length prefix
  EXPECT_FALSE(DecodeOutcome(bad_version, &decoded));
  std::string bad_verdict = frame;
  bad_verdict[6] = '\x7f';  // verdict byte of the ok arm
  EXPECT_FALSE(DecodeOutcome(bad_verdict, &decoded));

  // Method bytes are bounded by the engine table: one past the last
  // method is rejected, the last method decodes.
  report.stages.push_back(SolveStage{});
  frame = EncodeOutcome(Result<SolveReport>(report));
  const char past_end = static_cast<char>(std::size(kSolverMethods));
  const char last = static_cast<char>(std::size(kSolverMethods) - 1);
  const size_t used_at = 24;  // length, version, ok, verdict, certain,
                              // confidence, samples, then `used`
  const size_t stage_method_at = frame.size() - 20;  // the last stage
  std::string bad_used = frame;
  bad_used[used_at] = past_end;
  EXPECT_FALSE(DecodeOutcome(bad_used, &decoded));
  std::string bad_stage = frame;
  bad_stage[stage_method_at] = past_end;
  EXPECT_FALSE(DecodeOutcome(bad_stage, &decoded));
  std::string last_valid = frame;
  last_valid[used_at] = last;
  last_valid[stage_method_at] = last;
  ASSERT_TRUE(DecodeOutcome(last_valid, &decoded));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->used, kSolverMethods[std::size(kSolverMethods) - 1]);
  ASSERT_EQ(decoded->stages.size(), 1u);
  EXPECT_EQ(decoded->stages[0].method, decoded->used);
}

// ---------------------------------------------------------------------------
// Isolation mode & policy

TEST(SandboxPolicyTest, IsolationModeNamesRoundTrip) {
  for (IsolationMode m : {IsolationMode::kAuto, IsolationMode::kInproc,
                          IsolationMode::kFork}) {
    std::optional<IsolationMode> parsed = ParseIsolationMode(ToString(m));
    ASSERT_TRUE(parsed.has_value()) << ToString(m);
    EXPECT_EQ(*parsed, m);
  }
  EXPECT_FALSE(ParseIsolationMode("").has_value());
  EXPECT_FALSE(ParseIsolationMode("forked").has_value());
}

TEST(SandboxPolicyTest, ShouldIsolateTracksTheTractableIslands) {
  auto Isolate = [](const Query& q) { return ShouldIsolate(q, Classify(q)); };
  // FO island: poly-time rewriting, no sandbox needed.
  EXPECT_FALSE(Isolate(Q("R(x | y)")));
  EXPECT_FALSE(Isolate(ChainQuery(3)));
  // Matching island: q1 solves by matching in poly time (Lemma 5.2), and
  // so does q1 plus the self-covering ¬T(x | y), so auto policy keeps both
  // in-process.
  EXPECT_FALSE(Isolate(PigeonholeQuery()));
  EXPECT_FALSE(Isolate(PigeonholeCyclicQuery()));
  // Off-island: ¬T(y | x) is keyed by y, so the matching detector rejects
  // the query and the attack graph is cyclic — exact solvers may go
  // exponential.
  EXPECT_TRUE(Isolate(PigeonholeBacktrackingQuery()));
  EXPECT_TRUE(Isolate(CycleQuery(2)));
}

TEST(SandboxPolicyTest, WireFieldParsesAndRejectsUnknownModes) {
  Result<WireRequest> fork = DecodeRequest(
      R"js({"type":"solve","id":1,"query":"R(x | y)","isolation":"fork"})js");
  ASSERT_TRUE(fork.ok()) << fork.error();
  EXPECT_EQ(fork->spec.isolation, IsolationMode::kFork);
  Result<WireRequest> absent =
      DecodeRequest(R"js({"type":"solve","id":2,"query":"R(x | y)"})js");
  ASSERT_TRUE(absent.ok());
  EXPECT_EQ(absent->spec.isolation, IsolationMode::kAuto)
      << "absent field = auto";
  Result<WireRequest> bad = DecodeRequest(
      R"js({"type":"solve","id":3,"query":"R(x | y)","isolation":"jail"})js");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), ErrorCode::kUnsupported);
}

// ---------------------------------------------------------------------------
// Verdict parity: a forked solve must answer exactly like an in-process one

TEST(SandboxSolveTest, ForkedVerdictsMatchInprocAcrossEveryEngine) {
  Database db = Db("R(a | b), R(a | c)\nS(b | a)");
  // Per-engine fixtures: the FO-only engines get an FO query, the
  // q1-shape engine and the universal engines get the q1 instance
  // (kNotCertain on this database — the repair {R(a|b), S(b|a)} falsifies).
  for (SolverMethod method : kSolverMethods) {
    const Engine* engine = FindEngine(method);
    Query q = Q(engine != nullptr && engine->scope == EngineScope::kFoClass
                    ? "R(x | y)"
                    : "R(x | y), not S(y | x)");
    SolveOptions inproc_opts;
    inproc_opts.method = method;
    Result<SolveReport> inproc = SolveCertainty(q, db, inproc_opts);

    SolveOptions forked_opts;
    forked_opts.method = method;
    SandboxOutcome forked =
        RunSandboxedSolve(q, db, forked_opts, SandboxLimits{}, nullptr);

    ASSERT_EQ(inproc.ok(), forked.result.ok())
        << ToString(method) << ": "
        << (inproc.ok() ? forked.result.error() : inproc.error());
    ASSERT_TRUE(inproc.ok()) << ToString(method) << ": " << inproc.error();
    EXPECT_FALSE(forked.killed);
    EXPECT_FALSE(forked.crashed);
    EXPECT_EQ(forked.result->verdict, inproc->verdict) << ToString(method);
    EXPECT_EQ(forked.result->certain, inproc->certain) << ToString(method);
    EXPECT_EQ(forked.result->used, inproc->used) << ToString(method);
    // The sampling stage is seeded deterministically, so even approximate
    // verdicts agree exactly across the process boundary.
    EXPECT_EQ(forked.result->confidence, inproc->confidence)
        << ToString(method);
    EXPECT_EQ(forked.result->samples, inproc->samples) << ToString(method);
  }
}

TEST(SandboxSolveTest, CooperativeDeadlineCrossesThePipeAsItself) {
  // A child that *cooperatively* trips its deadline reports the same typed
  // error an in-process solve would — the sandbox adds containment, not a
  // new failure vocabulary — so retry policy is isolation-agnostic.
  Database db = PigeonholeDatabase(12);
  Budget budget;
  budget.deadline = Budget::Clock::now() + milliseconds(50);
  SolveOptions opts;
  opts.method = SolverMethod::kBacktracking;
  opts.degrade_to_sampling = false;
  opts.budget = &budget;
  SandboxLimits limits;
  limits.kill_grace = milliseconds(10'000);  // cooperation must win, not kill
  SandboxOutcome out =
      RunSandboxedSolve(PigeonholeCyclicQuery(), db, opts, limits, nullptr);
  ASSERT_FALSE(out.result.ok());
  EXPECT_EQ(out.result.code(), ErrorCode::kDeadlineExceeded);
  EXPECT_FALSE(out.killed) << "child unwound cooperatively, no SIGKILL";
  EXPECT_FALSE(out.crashed);
}

// ---------------------------------------------------------------------------
// Hard preemption

TEST(SandboxSolveTest, WedgedSolveIsReclaimedWithinTwiceTheKillGrace) {
  // The wedge blocks between budget probes — cooperative cancellation can
  // never reclaim it. The supervisor must SIGKILL at deadline + grace and
  // return within the acceptance bound of 2x the grace window.
  Database db = PigeonholeDatabase(8);
  Budget budget;
  budget.faults.wedge_after_probes = 1;
  const auto timeout = milliseconds(100);
  budget.deadline = Budget::Clock::now() + timeout;
  SolveOptions opts;
  opts.method = SolverMethod::kBacktracking;
  opts.budget = &budget;
  SandboxLimits limits;
  limits.kill_grace = milliseconds(250);
  const auto start = Budget::Clock::now();
  SandboxOutcome out =
      RunSandboxedSolve(PigeonholeCyclicQuery(), db, opts, limits, nullptr);
  const auto elapsed = Budget::Clock::now() - start;
  EXPECT_TRUE(out.killed) << "only SIGKILL reclaims a wedge";
  ASSERT_FALSE(out.result.ok());
  EXPECT_EQ(out.result.code(), ErrorCode::kDeadlineExceeded);
  EXPECT_LT(elapsed, timeout + 2 * limits.kill_grace)
      << "reclaim must land within twice the kill grace";
}

TEST(SandboxSolveTest, CancellationKillsAWedgedChildWithoutADeadline) {
  Database db = PigeonholeDatabase(8);
  Budget budget;
  // No deadline: only cancellation can end this.
  budget.faults.wedge_after_probes = 1;
  SolveOptions opts;
  opts.method = SolverMethod::kBacktracking;
  opts.budget = &budget;
  std::atomic<bool> cancel{false};
  std::thread canceller([&cancel] {
    std::this_thread::sleep_for(milliseconds(100));
    cancel.store(true, std::memory_order_release);
  });
  SandboxOutcome out = RunSandboxedSolve(PigeonholeCyclicQuery(), db, opts,
                                         SandboxLimits{}, &cancel);
  canceller.join();
  EXPECT_TRUE(out.killed);
  ASSERT_FALSE(out.result.ok());
  EXPECT_EQ(out.result.code(), ErrorCode::kCancelled);
}

// ---------------------------------------------------------------------------
// Crash containment

TEST(SandboxSolveTest, InjectedCrashMapsToWorkerCrashed) {
  Database db = Db("R(a | b), R(a | c)\nS(b | a)");
  Budget budget;
  budget.faults.crash_after_probes = 1;
  SolveOptions opts;
  opts.method = SolverMethod::kBacktracking;
  opts.budget = &budget;
  SandboxOutcome out = RunSandboxedSolve(Q("R(x | y), not S(y | x)"), db, opts,
                                         SandboxLimits{}, nullptr);
  EXPECT_TRUE(out.crashed);
  EXPECT_FALSE(out.killed);
  ASSERT_FALSE(out.result.ok());
  EXPECT_EQ(out.result.code(), ErrorCode::kWorkerCrashed);
}

TEST(SandboxSolveTest, CrashedChildLeavesTheServiceServing) {
  // The containment guarantee end to end: a segfaulting solve produces
  // exactly one typed terminal, and the *same* service keeps answering
  // subsequent solves correctly from the same worker pool.
  auto db = std::make_shared<const Database>(Db("R(a | b), R(a | c)\nS(b | a)"));
  ServiceOptions options;
  options.workers = 2;
  SolveService service(options);
  std::mutex mu;
  std::vector<ServeResponse> responses;
  auto callback = [&](const ServeResponse& r) {
    std::lock_guard<std::mutex> lock(mu);
    responses.push_back(r);
  };
  ServeJob crashing(Q("R(x | y), not S(y | x)"), db);
  crashing.method = SolverMethod::kBacktracking;
  crashing.isolation = IsolationMode::kFork;
  crashing.faults.crash_after_probes = 1;
  Result<uint64_t> crash_id = service.Submit(std::move(crashing), callback);
  ASSERT_TRUE(crash_id.ok());
  ServeJob healthy(Q("R(x | y)"), db);
  healthy.isolation = IsolationMode::kFork;
  Result<uint64_t> healthy_id = service.Submit(std::move(healthy), callback);
  ASSERT_TRUE(healthy_id.ok());
  EXPECT_TRUE(service.Shutdown(milliseconds(20'000)));
  ASSERT_EQ(responses.size(), 2u);
  for (const ServeResponse& r : responses) {
    if (r.id == crash_id.value()) {
      ASSERT_FALSE(r.result.ok());
      EXPECT_EQ(r.result.code(), ErrorCode::kWorkerCrashed);
    } else {
      ASSERT_TRUE(r.result.ok()) << r.result.error();
      EXPECT_EQ(r.result->verdict, Verdict::kCertain);
    }
  }
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.sandbox_forks, 2u);
  EXPECT_EQ(stats.sandbox_crashes, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 1u);
}

// ---------------------------------------------------------------------------
// RSS cap

#if CQA_SANDBOX_RSS_TESTABLE
TEST(SandboxSolveTest, RssBreachMapsToResourceExhausted) {
  // Every budget probe retains 16 touched MiB; under a 64 MiB headroom cap
  // the child's allocator fails within a handful of probes, long before
  // the generous deadline. The failure must surface as the typed
  // kResourceExhausted — not a crash, not a deadline.
  Database db = PigeonholeDatabase(10);
  Budget budget;
  budget.faults.hog_mb_per_probe = 16;
  budget.deadline = Budget::Clock::now() + milliseconds(30'000);
  SolveOptions opts;
  opts.method = SolverMethod::kBacktracking;
  opts.degrade_to_sampling = false;
  opts.budget = &budget;
  SandboxLimits limits;
  limits.kill_grace = milliseconds(1'000);
  limits.max_rss_mb = 64;
  SandboxOutcome out =
      RunSandboxedSolve(PigeonholeCyclicQuery(), db, opts, limits, nullptr);
  EXPECT_TRUE(out.rss_breach);
  EXPECT_FALSE(out.killed);
  ASSERT_FALSE(out.result.ok());
  EXPECT_EQ(out.result.code(), ErrorCode::kResourceExhausted);
}

TEST(SandboxSolveTest, RssBreachIsNotRetriedByTheService) {
  auto db = std::make_shared<const Database>(PigeonholeDatabase(10));
  ServiceOptions options;
  options.workers = 1;
  options.max_retries = 3;
  options.backoff.initial = milliseconds(1);
  options.sandbox.max_rss_mb = 64;
  SolveService service(options);
  std::mutex mu;
  std::vector<ServeResponse> responses;
  ServeJob job(PigeonholeCyclicQuery(), db);
  job.method = SolverMethod::kBacktracking;
  job.degrade_to_sampling = false;
  job.isolation = IsolationMode::kFork;
  job.faults.hog_mb_per_probe = 16;
  job.timeout = milliseconds(30'000);
  ASSERT_TRUE(service
                  .Submit(std::move(job),
                          [&](const ServeResponse& r) {
                            std::lock_guard<std::mutex> lock(mu);
                            responses.push_back(r);
                          })
                  .ok());
  EXPECT_TRUE(service.Shutdown(milliseconds(60'000)));
  ASSERT_EQ(responses.size(), 1u);
  ASSERT_FALSE(responses[0].result.ok());
  EXPECT_EQ(responses[0].result.code(), ErrorCode::kResourceExhausted);
  EXPECT_EQ(responses[0].attempts, 1) << "deterministic breach; no retry";
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.sandbox_rss_breaches, 1u);
  EXPECT_GT(stats.sandbox_peak_rss_kb, 0u) << "rusage high-water recorded";
}
#endif  // CQA_SANDBOX_RSS_TESTABLE

// ---------------------------------------------------------------------------
// Auto-escalation policy

TEST(SandboxSolveTest, AutoPolicyForksExactlyTheCoNpRiskQueries) {
  auto db = std::make_shared<const Database>(PigeonholeDatabase(4));
  ServiceOptions options;
  options.workers = 1;
  options.isolation = IsolationMode::kAuto;
  SolveService service(options);
  std::mutex mu;
  std::vector<ServeResponse> responses;
  auto callback = [&](const ServeResponse& r) {
    std::lock_guard<std::mutex> lock(mu);
    responses.push_back(r);
  };
  // FO query: stays in-process under auto policy.
  ASSERT_TRUE(service.Submit(ServeJob(Q("R(x | y)"), db), callback).ok());
  // q1-shaped: poly-time matching island, also in-process.
  ASSERT_TRUE(service.Submit(ServeJob(PigeonholeQuery(), db), callback).ok());
  // Off-island: must escalate to a fork.
  ASSERT_TRUE(
      service.Submit(ServeJob(PigeonholeBacktrackingQuery(), db), callback)
          .ok());
  EXPECT_TRUE(service.Shutdown(milliseconds(20'000)));
  ASSERT_EQ(responses.size(), 3u);
  for (const ServeResponse& r : responses) {
    ASSERT_TRUE(r.result.ok()) << r.result.error();
  }
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.sandbox_forks, 1u)
      << "exactly the off-island query forks under auto policy";
  EXPECT_EQ(stats.completed, 3u);
}

}  // namespace
}  // namespace cqa
