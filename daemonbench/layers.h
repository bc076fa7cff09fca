// The traced run's in-process half: replays a workload's generated
// operations through each layer's public functions, with a span around
// every call, and turns the spans into per-layer metrics.
#ifndef DAEMONBENCH_LAYERS_H_
#define DAEMONBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cqa/db/database.h"
#include "spans.h"
#include "workloads.h"

namespace daemonbench {

struct Metric {
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
};
using Metrics = std::map<std::string, Metric>;

struct ReplayOutcome {
  uint64_t checked = 0;     // operations whose output was compared
  uint64_t mismatches = 0;  // ... and did not match the reference
  std::vector<std::string> notes;
  /// Request id -> the request's label, for per-class span metrics.
  std::map<uint64_t, std::string> labels;
};

/// Replays the first connection's operation stream in-process, checking
/// every output, with spans named after the layer calls: db.load,
/// db.fingerprint, net.decode, query.parse, attack.classify, rewriting.alg1,
/// rewriting.build, fo.eval, matching.q1, certainty.bt, parallel.solve,
/// answers.chunk, delta.apply and net.encode.
class LayerReplay {
 public:
  /// Loads every database, with db.load and db.fingerprint spans.
  LayerReplay(const Workload& w, Tracer* tracer);

  struct Pass {
    uint64_t ops = 0;
    int64_t ns = 0;  // wall time of the pass's operations
  };
  /// One pass over the stream from its start, against the databases as
  /// loaded: `ops` operations, or, when `ops` is 0, until `budget_s` has
  /// passed (at least one operation; kernel_hard finishes its round). Spans
  /// go to `tracer`; a null tracer records none.
  Pass Run(Tracer* tracer, uint64_t ops, double budget_s);

  const ReplayOutcome& outcome() const { return outcome_; }
  /// Metrics that need the engines' own reports: parallel speedup, steals.
  void AddMetrics(Metrics* out) const;

 private:
  const Workload& w_;
  std::map<std::string, std::shared_ptr<const cqa::Database>> dbs_;
  uint64_t rid_;
  ReplayOutcome outcome_;
  std::vector<double> speedups_;
  uint64_t steals_ = 0;
};

/// Per span name: "<name>_us" is the median self time per call. Also adds
/// the work-derived rates of certainty.bt, answers.chunk and delta.apply,
/// and per-class engine times for spans whose request has a label.
void AddSpanMetrics(const std::vector<Span>& spans,
                    const std::map<uint64_t, std::string>& labels,
                    Metrics* out);

/// Nearest-rank percentile of unsorted samples (0 when empty).
double Percentile(std::vector<double> v, double p);

}  // namespace daemonbench

#endif  // DAEMONBENCH_LAYERS_H_
