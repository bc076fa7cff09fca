// Sandbox chaos: fork churn under concurrent load, shutdown racing
// in-flight children, and zombie accounting. Runs under the tsan preset
// (label `concurrency`); the invariants here are the ones a data race or a
// missed reap would break:
//
//  * every accepted submission gets exactly one terminal callback, no
//    matter how its child died;
//  * after Shutdown returns, the test process has no children left —
//    every fork was reaped synchronously by its supervisor (zero
//    zombies), even for children SIGKILLed mid-solve.

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
#include "cqa/serve/sandbox/sandbox.h"
#include "cqa/serve/service.h"

namespace cqa {
namespace {

using std::chrono::milliseconds;

Query Q(const char* text) {
  Result<Query> q = ParseQuery(text);
  EXPECT_TRUE(q.ok()) << (q.ok() ? "" : q.error());
  return q.value();
}

// Sound because RunSandboxedSolve reaps its child synchronously (blocking
// wait4 after the kill) before returning: once every request is terminal
// and Shutdown has joined the workers, no supervisor is mid-reap.
void ExpectNoChildProcesses(const char* where) {
  int status = 0;
  pid_t pid = waitpid(-1, &status, WNOHANG);
  EXPECT_EQ(pid, -1) << where << ": unreaped child pid " << pid;
  if (pid == -1) {
    EXPECT_EQ(errno, ECHILD) << where;
  }
}

struct Sink {
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
};

TEST(SandboxChaosTest, ForkChurnUnderConcurrentLoadDeliversEveryTerminal) {
  auto small = std::make_shared<const Database>([] {
    Result<Database> db = Database::FromText("R(a | b), R(a | c)\nS(b | a)");
    EXPECT_TRUE(db.ok());
    return std::move(db.value());
  }());
  auto hard = std::make_shared<const Database>(PigeonholeDatabase(8));

  ServiceOptions options;
  options.workers = 4;
  options.queue_capacity = 256;
  options.isolation = IsolationMode::kFork;  // every solve forks
  options.sandbox.kill_grace = milliseconds(250);
  SolveService service(options);
  Sink sink;

  const int kRounds = 8;
  size_t accepted = 0, expected_crashes = 0, expected_kills = 0;
  for (int i = 0; i < kRounds; ++i) {
    // A fast clean solve, a crashing solve, and a wedged solve with a
    // short deadline — every exit path of the supervisor, interleaved
    // across four workers at once.
    ServeJob clean(Q("R(x | y)"), small);
    if (service.Submit(std::move(clean), sink.Callback()).ok()) ++accepted;

    ServeJob crashing(Q("R(x | y), not S(y | x)"), small);
    crashing.method = SolverMethod::kBacktracking;
    crashing.faults.crash_after_probes = 1;
    if (service.Submit(std::move(crashing), sink.Callback()).ok()) {
      ++accepted;
      ++expected_crashes;
    }

    ServeJob wedged(PigeonholeCyclicQuery(), hard);
    wedged.method = SolverMethod::kBacktracking;
    wedged.faults.wedge_after_probes = 1;
    wedged.timeout = milliseconds(50);
    if (service.Submit(std::move(wedged), sink.Callback()).ok()) {
      ++accepted;
      ++expected_kills;
    }
  }
  ASSERT_GT(accepted, 0u);
  EXPECT_TRUE(service.Shutdown(milliseconds(120'000)));

  EXPECT_EQ(sink.Count(), accepted) << "exactly one terminal per submission";
  size_t ok = 0, crashed = 0, deadline = 0;
  {
    std::lock_guard<std::mutex> lock(sink.mu);
    for (const ServeResponse& r : sink.responses) {
      if (r.result.ok()) {
        ++ok;
      } else if (r.result.code() == ErrorCode::kWorkerCrashed) {
        ++crashed;
      } else if (r.result.code() == ErrorCode::kDeadlineExceeded) {
        ++deadline;
      } else {
        ADD_FAILURE() << "unexpected terminal: " << r.result.error();
      }
    }
  }
  EXPECT_EQ(ok, accepted - expected_crashes - expected_kills);
  EXPECT_EQ(crashed, expected_crashes);
  EXPECT_EQ(deadline, expected_kills);

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.sandbox_forks, accepted);
  EXPECT_EQ(stats.sandbox_crashes, expected_crashes);
  EXPECT_GE(stats.sandbox_kills, expected_kills);
  ExpectNoChildProcesses("after churn shutdown");
}

TEST(SandboxChaosTest, ShutdownRacingInFlightChildrenKillsAndReapsAll) {
  auto hard = std::make_shared<const Database>(PigeonholeDatabase(8));
  ServiceOptions options;
  options.workers = 4;
  options.isolation = IsolationMode::kFork;
  options.sandbox.kill_grace = milliseconds(250);
  SolveService service(options);
  Sink sink;

  // Wedged children with no deadline: only the shutdown drain's forced
  // cancellation can end them, and only via SIGKILL.
  const int kWedged = 6;
  size_t accepted = 0;
  for (int i = 0; i < kWedged; ++i) {
    ServeJob wedged(PigeonholeCyclicQuery(), hard);
    wedged.method = SolverMethod::kBacktracking;
    wedged.faults.wedge_after_probes = 1;
    if (service.Submit(std::move(wedged), sink.Callback()).ok()) ++accepted;
  }
  ASSERT_GT(accepted, 0u);
  // Give workers a moment to pop and fork, then shut down with a drain
  // window far shorter than "forever": the drain must *force* the kills.
  std::this_thread::sleep_for(milliseconds(150));
  EXPECT_FALSE(service.Shutdown(milliseconds(100)))
      << "wedged children cannot drain cleanly";

  EXPECT_EQ(sink.Count(), accepted);
  {
    std::lock_guard<std::mutex> lock(sink.mu);
    for (const ServeResponse& r : sink.responses) {
      EXPECT_FALSE(r.result.ok());
      // In-flight children die as kCancelled; requests still queued when
      // the drain expired never forked and are cancelled too.
      EXPECT_EQ(r.state, RequestState::kCancelled)
          << ToString(r.state) << ": " << r.result.error();
    }
  }
  ExpectNoChildProcesses("after racing shutdown");
}

TEST(SandboxChaosTest, CancellationStormWhileForking) {
  // Cancel every request from a separate thread while workers are forking
  // and supervising: exercises the cancel -> SIGKILL -> reap path racing
  // normal completion. Terminal accounting must still be exact.
  auto small = std::make_shared<const Database>([] {
    Result<Database> db = Database::FromText("R(a | b), R(a | c)\nS(b | a)");
    EXPECT_TRUE(db.ok());
    return std::move(db.value());
  }());
  auto hard = std::make_shared<const Database>(PigeonholeDatabase(8));
  ServiceOptions options;
  options.workers = 4;
  options.queue_capacity = 256;
  options.isolation = IsolationMode::kFork;
  options.sandbox.kill_grace = milliseconds(250);
  SolveService service(options);
  Sink sink;

  std::vector<uint64_t> ids;
  for (int i = 0; i < 16; ++i) {
    ServeJob job(i % 2 == 0 ? Q("R(x | y)") : PigeonholeCyclicQuery(),
                 i % 2 == 0 ? small : hard);
    if (i % 2 == 1) {
      job.method = SolverMethod::kBacktracking;
      job.faults.wedge_after_probes = 1;  // cancellation is the only way out
    }
    Result<uint64_t> id = service.Submit(std::move(job), sink.Callback());
    if (id.ok()) ids.push_back(id.value());
  }
  std::thread storm([&] {
    std::this_thread::sleep_for(milliseconds(50));
    for (uint64_t id : ids) service.Cancel(id);
  });
  storm.join();
  EXPECT_TRUE(service.Shutdown(milliseconds(120'000)));

  EXPECT_EQ(sink.Count(), ids.size());
  {
    std::lock_guard<std::mutex> lock(sink.mu);
    for (const ServeResponse& r : sink.responses) {
      // Fast solves may beat the storm (completed), wedged ones cannot
      // (cancelled) — but each is terminal exactly once, and nothing
      // surfaces as a crash or an untyped error.
      if (!r.result.ok()) {
        EXPECT_EQ(r.result.code(), ErrorCode::kCancelled)
            << r.result.error();
      }
    }
  }
  ExpectNoChildProcesses("after cancellation storm");
}

}  // namespace
}  // namespace cqa
