// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded only in the benchmark's own code, around each call into
// a layer's public function: a span has a name (the layer and call, e.g.
// "net.decode"), a start and an end, the span that caused it (its parent),
// and the id of the request it belongs to. Spans are kept in memory and
// written out once, when the benchmark ends. A span's self time is its
// duration minus the time its child spans cover; children of one span never
// overlap because every traced call runs on one thread.
#ifndef DAEMONBENCH_SPANS_H_
#define DAEMONBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace daemonbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 for a root span
  uint64_t request = 0;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Work count attached by the caller (search nodes, tuples, delta ops).
  uint64_t work = 0;
};

class Tracer {
 public:
  /// Opens a span on the calling thread; its parent is the innermost span
  /// still open on that thread.
  uint64_t Begin(const char* name, uint64_t request) {
    Span span;
    span.name = name;
    span.request = request;
    span.parent = Stack().empty() ? 0 : Stack().back().id;
    {
      std::lock_guard<std::mutex> lock(mu_);
      span.id = ++next_id_;
    }
    Stack().push_back(span);
    Stack().back().start_ns = NowNs();
    return span.id;
  }

  /// Closes the innermost open span of the calling thread.
  void End(uint64_t work = 0) {
    Span span = Stack().back();
    span.end_ns = NowNs();
    span.work = work;
    Stack().pop_back();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  /// Self time of every span, in nanoseconds, keyed by span id.
  static std::map<uint64_t, int64_t> SelfTimes(const std::vector<Span>& spans) {
    std::map<uint64_t, int64_t> self;
    for (const Span& s : spans) self[s.id] += s.end_ns - s.start_ns;
    for (const Span& s : spans) {
      if (s.parent != 0) self[s.parent] -= s.end_ns - s.start_ns;
    }
    return self;
  }

 private:
  static std::vector<Span>& Stack() {
    thread_local std::vector<Span> stack;
    return stack;
  }

  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t next_id_ = 0;
};

/// RAII span; `set_work` attaches a work count before the span closes.
/// With a null tracer it records nothing (the untraced replay passes).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t request)
      : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->Begin(name, request);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(work_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_work(uint64_t work) { work_ = work; }

 private:
  Tracer* tracer_;
  uint64_t work_ = 0;
};

}  // namespace daemonbench

#endif  // DAEMONBENCH_SPANS_H_
