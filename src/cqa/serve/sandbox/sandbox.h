#ifndef CQA_SERVE_SANDBOX_SANDBOX_H_
#define CQA_SERVE_SANDBOX_SANDBOX_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>

#include "cqa/base/budget.h"
#include "cqa/base/result.h"
#include "cqa/certainty/solver.h"
#include "cqa/db/database.h"
#include "cqa/query/query.h"

namespace cqa {

/// Fork-isolated solver sandbox.
///
/// CERTAINTY(q) is coNP-complete outside the tractable islands, and the
/// exact solvers are cooperative: they only notice a deadline at budget
/// probes. A solve wedged *between* probes — a pathological backtracking
/// region, a solver bug, runaway allocation — holds its worker thread (and
/// its memory) hostage forever. The sandbox restores hard guarantees by
/// running the solve in a forked child of the pre-warmed serving process:
///
///  - The child inherits the parsed database, its block index and content
///    digest, and the worker's warm memos by copy-on-write; a fork costs
///    page-table setup, not a re-parse.
///  - The parent supervises through a result pipe. A complete frame is the
///    verdict; past `deadline + kill_grace` (or on cancellation) the child
///    is SIGKILLed — preemption no longer depends on the solver's
///    cooperation.
///  - An RSS cap (via `RLIMIT_AS`) turns runaway allocation into a clean
///    `std::bad_alloc` inside the child, reported as `kResourceExhausted`.
///  - Every exit path — clean verdict, nonzero exit, signal death, limit
///    breach, truncated pipe — maps to exactly one typed terminal; a
///    crashing solver takes down its child, never the daemon.
///
/// Fork-safety: the supervisor holds the global interner lock across
/// `fork()` (the one process-global lock a child's solve touches) and
/// pre-warms the database's lazy indexes, so the single-threaded child
/// never blocks on a mutex another parent thread held at the fork moment.
/// The child calls only async-signal-tolerant machinery plus malloc (safe
/// post-fork under glibc), creates no threads, and leaves via `_exit`.

/// Where a solve runs.
enum class IsolationMode {
  /// Defer to policy: the service escalates to `kFork` when the query
  /// classifies outside the tractable islands (not FO and not in the
  /// matching class of `DetectQ1Shape`), i.e. exactly when the exact solver
  /// can go exponential.
  kAuto,
  /// In the worker thread, cooperative budget only (the historical mode).
  kInproc,
  /// In a forked, supervised, hard-limited child.
  kFork,
};

std::string ToString(IsolationMode m);

/// Parses "auto" | "inproc" | "fork" (as used on the wire and the CLI).
std::optional<IsolationMode> ParseIsolationMode(const std::string& s);

/// True when policy says `q` deserves fork isolation under `kAuto`: no
/// polynomial exact row of `CQA_ENGINES` accepts it (given `c`, the
/// caller's classification of `q`), so the exact solvers may take
/// exponential time and hard preemption is the only reclaim guarantee.
bool ShouldIsolate(const Query& q, const Classification& c);

/// Hard limits enforced by the supervisor on a forked solve.
struct SandboxLimits {
  /// Grace past the job deadline before the child is SIGKILLed. Also the
  /// poll granularity bound: reclaim latency is at most
  /// `deadline + kill_grace + one poll slice`.
  std::chrono::milliseconds kill_grace{500};
  /// Address-space headroom (MiB) granted to the child on top of the
  /// parent's size at fork, enforced with `RLIMIT_AS` (Linux has no
  /// enforceable RSS limit; address space is the deterministic proxy).
  /// 0 disables the cap. Incompatible with AddressSanitizer (its shadow
  /// reservations exceed any sane cap); callers skip the cap under ASan.
  uint64_t max_rss_mb = 0;
};

/// One supervised solve: the typed terminal plus what the supervisor saw.
struct SandboxOutcome {
  Result<SolveReport> result;
  /// The parent SIGKILLed the child (grace breach or cancellation).
  bool killed = false;
  /// The child died without a verdict (signal, bad exit, truncated pipe);
  /// `result` holds `kWorkerCrashed`.
  bool crashed = false;
  /// The child breached the RSS cap; `result` holds `kResourceExhausted`.
  bool rss_breach = false;
  /// Child peak RSS (KiB, from `wait4`'s rusage); 0 if unavailable.
  uint64_t peak_rss_kb = 0;

  SandboxOutcome() : result(Result<SolveReport>::Error(ErrorCode::kInternal,
                                                       "sandbox: unset")) {}
};

/// Runs one solve in a forked, supervised child and maps every exit path
/// to exactly one typed terminal. The child inherits `options` by fork and
/// runs `SolveCertainty` with them: a copy of `*options.budget` (deadline,
/// step limit, fault plan; may be null for none) governs it, with the
/// cancel token cleared, and `options.warm` is inherited copy-on-write
/// (its mutations die with the child). The child may spawn pool threads
/// for `options.parallelism > 1`: it forked single-threaded and owns its
/// whole address space. `cancel` (may be null) is the parent-side
/// cancellation token; the child is killed, not signalled cooperatively.
/// Blocks until the child is reaped — no zombies outlive this call.
SandboxOutcome RunSandboxedSolve(const Query& q, const Database& db,
                                 const SolveOptions& options,
                                 const SandboxLimits& limits,
                                 const std::atomic<bool>* cancel);

}  // namespace cqa

#endif  // CQA_SERVE_SANDBOX_SANDBOX_H_
