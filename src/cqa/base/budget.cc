#include "cqa/base/budget.h"

#include <csignal>
#include <cstring>
#include <string>
#include <thread>

namespace cqa {

void Budget::CrashNow() {
  // A genuine asynchronous crash, as a buggy solver would produce it. The
  // process (or, under fork isolation, the sandbox child) dies by signal;
  // nothing unwinds.
  std::raise(SIGSEGV);
  // raise of an unblocked SIGSEGV with the default disposition never
  // returns; abort as a backstop if a test harness blocked it.
  std::abort();
}

void Budget::WedgeNow() {
  // Block forever *without* probing the budget again: from the governor's
  // point of view this thread has left the cooperative protocol entirely.
  // Sleeping (rather than spinning) keeps chaos tests with many wedged
  // children cheap; only SIGKILL reclaims the wedge either way.
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

void Budget::HogNow() {
  // Allocate and *touch* the chunk so it contributes real RSS, and retain
  // it so the footprint ratchets with every probe.
  hogged_.emplace_back();
  hogged_.back().resize(static_cast<size_t>(faults.hog_mb_per_probe) << 20);
  std::memset(hogged_.back().data(), 0xAB, hogged_.back().size());
}

Budget Budget::WithTimeout(std::chrono::milliseconds timeout) {
  Budget b;
  b.deadline = Clock::now() + timeout;
  return b;
}

Budget Budget::WithMaxSteps(uint64_t max_steps) {
  Budget b;
  b.max_steps = max_steps;
  return b;
}

std::optional<ErrorCode> Budget::CheckNow() {
  if (tripped_.has_value()) return tripped_;
  if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
    return Trip(ErrorCode::kCancelled);
  }
  if (has_deadline() && Clock::now() >= deadline) {
    return Trip(ErrorCode::kDeadlineExceeded);
  }
  return std::nullopt;
}

std::optional<Budget::Clock::duration> Budget::TimeRemaining() const {
  if (!has_deadline()) return std::nullopt;
  Clock::time_point now = Clock::now();
  if (now >= deadline) return Clock::duration::zero();
  return deadline - now;
}

std::optional<uint64_t> Budget::StepsRemaining() const {
  if (max_steps == kNoStepLimit) return std::nullopt;
  return steps_ >= max_steps ? 0 : max_steps - steps_;
}

std::string Budget::Describe(ErrorCode code) {
  switch (code) {
    case ErrorCode::kDeadlineExceeded:
      return "wall-clock deadline exceeded";
    case ErrorCode::kBudgetExhausted:
      return "step budget exhausted";
    case ErrorCode::kCancelled:
      return "cancelled by caller";
    default:
      return ToString(code);
  }
}

}  // namespace cqa
