#include "cqa/serve/sandbox/sandbox.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <new>

#include "cqa/base/interner.h"
#include "cqa/serve/sandbox/codec.h"

namespace cqa {
namespace {

// Child exit protocol. 0 = frame written; the distinguished codes let the
// parent type a failure even when the pipe carries nothing.
constexpr int kExitBadAlloc = 9;   // allocation failed (RSS cap breach)
constexpr int kExitException = 10; // any other exception escaped the solve

// Supervisor poll slice: bounds how stale the cancel/deadline checks can
// be, and therefore the reclaim latency beyond the grace window.
constexpr int kPollSliceMs = 10;

// Parent address-space size in bytes (VmSize), for RSS-cap headroom
// accounting. 0 when /proc is unavailable (the cap then falls back to an
// absolute limit).
uint64_t ParentAddressSpaceBytes() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long pages = 0;
  int n = std::fscanf(f, "%llu", &pages);
  std::fclose(f);
  if (n != 1) return 0;
  long page = sysconf(_SC_PAGESIZE);
  if (page <= 0) page = 4096;
  return static_cast<uint64_t>(pages) * static_cast<uint64_t>(page);
}

// Child side: applies the address-space cap. Headroom semantics — the cap
// is `parent_as + max_rss_mb` so "64 MiB" means 64 MiB *of solve growth*,
// independent of how large the warm parent already is. Falls back to an
// absolute cap when the parent size was unreadable.
void ApplyRssCap(uint64_t max_rss_mb, uint64_t parent_as_bytes) {
  if (max_rss_mb == 0) return;
  uint64_t cap = (max_rss_mb << 20) +
                 (parent_as_bytes != 0 ? parent_as_bytes : 0);
  struct rlimit rl;
  rl.rlim_cur = static_cast<rlim_t>(cap);
  rl.rlim_max = static_cast<rlim_t>(cap);
  setrlimit(RLIMIT_AS, &rl);  // best-effort; failure means no cap
}

// Child side: run the solve, write one frame, _exit. Never returns.
[[noreturn]] void ChildMain(int write_fd, const Query& q, const Database& db,
                            const SolveOptions& options, uint64_t max_rss_mb,
                            uint64_t parent_as_bytes) {
  ApplyRssCap(max_rss_mb, parent_as_bytes);
  std::string frame;
  try {
    // The parent's cancel token is never set in this address space: the
    // parent kills the child instead.
    Budget budget;
    SolveOptions opts = options;
    if (options.budget != nullptr) {
      budget = *options.budget;
      budget.cancel = nullptr;
      opts.budget = &budget;
    }
    Result<SolveReport> outcome = SolveCertainty(q, db, opts);
    frame = EncodeOutcome(outcome);
  } catch (const std::bad_alloc&) {
    _exit(kExitBadAlloc);
  } catch (...) {
    _exit(kExitException);
  }
  size_t off = 0;
  while (off < frame.size()) {
    ssize_t n = write(write_fd, frame.data() + off, frame.size() - off);
    if (n > 0) {
      off += static_cast<size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      _exit(kExitException);  // pipe gone: parent will see the truncation
    }
  }
  _exit(0);
}

}  // namespace

std::string ToString(IsolationMode m) {
  switch (m) {
    case IsolationMode::kAuto:
      return "auto";
    case IsolationMode::kInproc:
      return "inproc";
    case IsolationMode::kFork:
      return "fork";
  }
  return "?";
}

std::optional<IsolationMode> ParseIsolationMode(const std::string& s) {
  if (s == "auto") return IsolationMode::kAuto;
  if (s == "inproc") return IsolationMode::kInproc;
  if (s == "fork") return IsolationMode::kFork;
  return std::nullopt;
}

bool ShouldIsolate(const Query& q, const Classification& c) {
  for (const Engine& e : Engines()) {
    if (e.cost == EngineCost::kPolynomial &&
        e.answer == EngineAnswer::kExact && e.Accepts(q, c)) {
      return false;
    }
  }
  return true;
}

SandboxOutcome RunSandboxedSolve(const Query& q, const Database& db,
                                 const SolveOptions& options,
                                 const SandboxLimits& limits,
                                 const std::atomic<bool>* cancel) {
  SandboxOutcome out;

  uint64_t parent_as = ParentAddressSpaceBytes();

  int fds[2];
  if (pipe(fds) != 0) {
    out.result = Result<SolveReport>::Error(
        ErrorCode::kOverloaded,
        std::string("sandbox: pipe: ") + std::strerror(errno));
    return out;
  }

  // The one process-global lock a child's solve touches is the interner
  // (solvers intern fresh symbols). Hold it across fork so no other thread
  // owns it in the child's (single-threaded) copy; both sides release
  // immediately. glibc serializes malloc internally across fork.
  Interner::Global().LockForFork();
  pid_t pid = fork();
  if (pid == 0) {
    Interner::Global().UnlockAfterFork();
    close(fds[0]);
    ChildMain(fds[1], q, db, options, limits.max_rss_mb, parent_as);
  }
  Interner::Global().UnlockAfterFork();
  close(fds[1]);
  if (pid < 0) {
    close(fds[0]);
    out.result = Result<SolveReport>::Error(
        ErrorCode::kOverloaded,
        std::string("sandbox: fork: ") + std::strerror(errno));
    return out;
  }

  // Supervision loop: accumulate pipe bytes in poll slices; leave on a
  // complete frame, EOF, cancellation, or grace breach.
  const bool has_deadline =
      options.budget != nullptr && options.budget->has_deadline();
  const Budget::Clock::time_point kill_at =
      has_deadline ? options.budget->deadline + limits.kill_grace
                   : Budget::Clock::time_point::max();
  std::string buf;
  bool cancel_kill = false;
  bool grace_kill = false;
  bool eof = false;
  char chunk[4096];
  while (!eof && !OutcomeFrameComplete(buf, nullptr)) {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      cancel_kill = true;
      break;
    }
    if (has_deadline && Budget::Clock::now() >= kill_at) {
      grace_kill = true;
      break;
    }
    struct pollfd pfd;
    pfd.fd = fds[0];
    pfd.events = POLLIN;
    int pr = poll(&pfd, 1, kPollSliceMs);
    if (pr < 0) {
      if (errno == EINTR) continue;
      break;  // poll failure: fall through to kill+reap, type from status
    }
    if (pr == 0) continue;
    ssize_t n = read(fds[0], chunk, sizeof(chunk));
    if (n > 0) {
      buf.append(chunk, static_cast<size_t>(n));
    } else if (n == 0) {
      eof = true;
    } else if (errno != EINTR) {
      break;
    }
  }

  // Always kill-then-reap: SIGKILL on an already-exited child is discarded
  // (the zombie's pid cannot be recycled before it is reaped), and the
  // blocking wait guarantees this call never leaks a zombie.
  kill(pid, SIGKILL);
  int status = 0;
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  out.peak_rss_kb = static_cast<uint64_t>(ru.ru_maxrss);

  // Final drain: the child may have completed its write in the races
  // between our last read, the kill decision, and its own exit. A verdict
  // that made it through the pipe intact wins over how the child died.
  if (!OutcomeFrameComplete(buf, nullptr)) {
    int flags = fcntl(fds[0], F_GETFL, 0);
    if (flags >= 0) fcntl(fds[0], F_SETFL, flags | O_NONBLOCK);
    for (;;) {
      ssize_t n = read(fds[0], chunk, sizeof(chunk));
      if (n > 0) {
        buf.append(chunk, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      break;
    }
  }
  close(fds[0]);

  Result<SolveReport> decoded =
      Result<SolveReport>::Error(ErrorCode::kInternal, "");
  if (DecodeOutcome(buf, &decoded)) {
    out.result = std::move(decoded);
    return out;
  }

  if (cancel_kill) {
    out.killed = true;
    out.result = Result<SolveReport>::Error(
        ErrorCode::kCancelled, "sandbox: cancelled; child killed");
    return out;
  }
  if (grace_kill) {
    // Same code an inproc solve reports at its deadline, so retry policy
    // is isolation-agnostic; `killed` records that reclaim needed SIGKILL.
    out.killed = true;
    out.result = Result<SolveReport>::Error(
        ErrorCode::kDeadlineExceeded,
        "sandbox: deadline + kill grace exceeded; child killed");
    return out;
  }

  // The child died on its own without a decodable verdict.
  if (WIFEXITED(status)) {
    int code = WEXITSTATUS(status);
    if (code == kExitBadAlloc) {
      out.rss_breach = true;
      out.result = Result<SolveReport>::Error(
          ErrorCode::kResourceExhausted,
          "sandbox: child breached the RSS cap (allocation failed)");
      return out;
    }
    out.crashed = true;
    out.result = Result<SolveReport>::Error(
        ErrorCode::kWorkerCrashed,
        code == 0
            ? "sandbox: child exited cleanly with a truncated result pipe"
            : "sandbox: child exited with code " + std::to_string(code));
    return out;
  }
  out.crashed = true;
  int sig = WIFSIGNALED(status) ? WTERMSIG(status) : 0;
  out.result = Result<SolveReport>::Error(
      ErrorCode::kWorkerCrashed,
      "sandbox: child died on signal " + std::to_string(sig) +
          (sig == SIGSEGV ? " (SIGSEGV)" : ""));
  return out;
}

}  // namespace cqa
