#ifndef CQA_BASE_BUDGET_H_
#define CQA_BASE_BUDGET_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cqa/base/error.h"

namespace cqa {

/// Test-only fault injection, armed per budget. Each knob is off at zero;
/// probes count every `CheckEvery` call, 1-based.
struct FaultPlan {
  /// The probe numbered `fail_after_probes` deterministically reports
  /// `kBudgetExhausted`. Lets tests and the fuzzer force exhaustion at
  /// every probe site in turn and prove each solver unwinds cleanly.
  uint64_t fail_after_probes = 0;
  /// The probe numbered `crash_after_probes` raises SIGSEGV, simulating a
  /// solver bug mid-search.
  uint64_t crash_after_probes = 0;
  /// Every probe allocates (and retains, touched) this many MiB,
  /// simulating runaway solver memory. Under a sandbox RSS cap the
  /// allocation eventually fails and the child exits with
  /// `kResourceExhausted`.
  uint64_t hog_mb_per_probe = 0;
  /// The probe numbered `wedge_after_probes` blocks forever, simulating a
  /// solver stuck *between* cooperative probes: the case only hard
  /// preemption (the sandbox's SIGKILL after the grace window) reclaims.
  uint64_t wedge_after_probes = 0;

  /// True when the plan can crash, wedge or starve the thread running it.
  /// Only a fork-isolated solve contains these; the serving layer refuses
  /// them in-process.
  bool HarmsHost() const {
    return crash_after_probes != 0 || hog_mb_per_probe != 0 ||
           wedge_after_probes != 0;
  }
};

/// Execution governor shared by every potentially-exponential code path.
///
/// A `Budget` carries three independent limits — a wall-clock deadline, a
/// step (search-node) limit, and an external cancellation token — plus the
/// mutable counters of the run it governs. Solvers charge one step per unit
/// of work via `CheckEvery(N)`; the step-limit and fault-injection checks
/// are plain integer compares on every call, while the clock and the
/// cancellation token are only consulted every N steps, so probes are cheap
/// enough for the innermost search loops.
///
/// A violation is *sticky*: after the first non-ok probe every later probe
/// returns the same code without rechecking, so deep recursions unwind
/// promptly and report one coherent cause.
///
/// Budgets are single-threaded run state (pass one per solver call); only
/// the `cancel` token may be touched from other threads.
struct Budget {
  using Clock = std::chrono::steady_clock;

  static constexpr uint64_t kNoStepLimit = UINT64_MAX;
  /// Default amortization stride for `CheckEvery`.
  static constexpr uint64_t kDefaultStride = 256;

  /// Absolute wall-clock deadline; `time_point::max()` means none.
  Clock::time_point deadline = Clock::time_point::max();
  /// Inclusive upper bound on charged steps; `kNoStepLimit` means none.
  uint64_t max_steps = kNoStepLimit;
  /// Optional external cancellation token (set by another thread).
  const std::atomic<bool>* cancel = nullptr;
  /// Test-only fault injection (see `FaultPlan`); all zero in production.
  FaultPlan faults;

  Budget() = default;

  /// A budget with only a relative wall-clock timeout.
  static Budget WithTimeout(std::chrono::milliseconds timeout);
  /// A budget with only a step limit.
  static Budget WithMaxSteps(uint64_t max_steps);

  /// Charges one step and probes the limits. Step limit and fault
  /// injection are checked on every call; the clock and the cancellation
  /// token every `stride` steps (and on the first). Returns the violated
  /// code, or nullopt while within budget.
  std::optional<ErrorCode> CheckEvery(uint64_t stride = kDefaultStride) {
    if (tripped_.has_value()) return tripped_;
    ++steps_;
    if (faults.fail_after_probes != 0 && steps_ >= faults.fail_after_probes) {
      return Trip(ErrorCode::kBudgetExhausted);
    }
    if (faults.crash_after_probes != 0 &&
        steps_ >= faults.crash_after_probes) {
      CrashNow();
    }
    if (faults.wedge_after_probes != 0 &&
        steps_ >= faults.wedge_after_probes) {
      WedgeNow();
    }
    if (faults.hog_mb_per_probe != 0) HogNow();
    if (steps_ > max_steps) return Trip(ErrorCode::kBudgetExhausted);
    if (stride == 0 || steps_ % stride == 1 || stride == 1) return CheckNow();
    return std::nullopt;
  }

  /// Unamortized probe: consults the cancellation token and the clock now
  /// (does not charge a step).
  std::optional<ErrorCode> CheckNow();

  /// Folds `n` steps performed elsewhere (the summed work of parallel
  /// component tasks, after their join) into this budget's counter,
  /// saturating instead of wrapping. Trips `kBudgetExhausted` when the
  /// folded total exceeds the step limit — later probes then fail sticky,
  /// but an answer already in hand stays valid: the work *was* done.
  std::optional<ErrorCode> ChargeSteps(uint64_t n) {
    if (tripped_.has_value()) return tripped_;
    steps_ = n > UINT64_MAX - steps_ ? UINT64_MAX : steps_ + n;
    if (steps_ > max_steps) return Trip(ErrorCode::kBudgetExhausted);
    return std::nullopt;
  }

  /// Steps charged so far.
  uint64_t steps() const { return steps_; }

  /// The sticky violation, if any probe failed.
  std::optional<ErrorCode> tripped() const { return tripped_; }

  bool has_deadline() const { return deadline != Clock::time_point::max(); }

  /// Time left until the deadline (zero if already past); nullopt if no
  /// deadline is set.
  std::optional<Clock::duration> TimeRemaining() const;

  /// Steps left before `max_steps` (zero if exhausted); nullopt if no
  /// step limit is set.
  std::optional<uint64_t> StepsRemaining() const;

  /// A human-readable message for a tripped code, e.g. for Result errors.
  static std::string Describe(ErrorCode code);

 private:
  std::optional<ErrorCode> Trip(ErrorCode code) {
    tripped_ = code;
    return tripped_;
  }

  // Out-of-line fault injectors (budget.cc) so the hot probe stays small.
  [[noreturn]] static void CrashNow();
  [[noreturn]] static void WedgeNow();
  void HogNow();

  uint64_t steps_ = 0;
  std::optional<ErrorCode> tripped_;
  /// Retained allocations of `faults.hog_mb_per_probe` (freed with the
  /// budget).
  std::vector<std::vector<char>> hogged_;
};

}  // namespace cqa

#endif  // CQA_BASE_BUDGET_H_
