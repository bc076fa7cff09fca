// Workload generation and reference outcomes for the closed-loop daemon
// benchmark. Every input is derived from the `--seed` through the library's
// own `Rng`; the daemon only ever sees the generated frames.
//
//   tenant_mix   8 small random-query tenants; a Zipf-skewed pool of more
//                distinct (db, query) keys than a shard's result cache holds,
//                built by constant substitution q[x->c]; every 16th request
//                is the pigeonhole k=4 solve. Per-request overhead dominates.
//   kernel_hard  a few large databases, every solve "cache":"bypass", one
//                request of each engine class per round in seeded order.
//                The engines dominate.
//   live_update  4 poll tenants (one per connection) mixing cached solves,
//                answer streams and apply_delta batches, journal on. Writes
//                beside reads: delta, answers and cache-invalidation paths.
//
// The reference outcome of every operation is computed before timing, with
// a different engine than the daemon's default dispatch where one exists.
#ifndef DAEMONBENCH_WORKLOADS_H_
#define DAEMONBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cqa/base/result.h"
#include "cqa/delta/delta.h"

namespace daemonbench {

enum class OpKind { kSolve, kAnswers, kDelta };

/// One distinct request the daemon can be sent.
struct Request {
  OpKind kind = OpKind::kSolve;
  std::string db;
  /// Wire spelling of the query (solve and answers).
  std::string query;
  bool bypass = false;   // "cache":"bypass"
  int parallelism = 0;   // "parallelism"; 0 leaves the daemon default
  std::vector<std::string> free_vars;  // answers
  uint64_t max_chunk = 0;              // answers
  std::vector<cqa::DeltaOp> ops;       // delta
  /// Engine class or query role, for per-class reporting.
  std::string label;
  /// Solve and answers frames are pre-serialized around their id:
  /// frame = frame_head + id + frame_tail.
  std::string frame_head;
  std::string frame_tail;
};

/// The reference outcome of one operation.
struct Expect {
  std::string verdict;      // solve: "certain" or "not-certain"
  uint64_t answers = 0;     // answers: number of certain answers
  std::string fingerprint;  // delta: 32-hex fingerprint of the new epoch
};

/// One operation a connection sends next.
struct Op {
  size_t request = 0;  // index into Workload::requests
  const Expect* expect = nullptr;
  std::string delta_id;  // delta only: unique idempotency token
};

/// A connection's deterministic operation stream.
class OpSource {
 public:
  virtual ~OpSource() = default;
  /// Stores the next operation in `op`; false ends the stream. `stop` says
  /// the timed phase is over (a source may finish its current round).
  virtual bool Next(bool stop, Op* op) = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  std::string name;
  /// Databases to attach, in order: registry name -> facts text.
  std::vector<std::pair<std::string, std::string>> dbs;
  std::vector<Request> requests;
  /// Closed-loop client connections, each with one request outstanding.
  int connections = 1;
  /// Run with the delta journal on (fsync never).
  bool journal = false;
  /// The tail percentile the `*_p99_us` metrics report. A workload with
  /// too few operations for ten samples beyond p99 sets a lower one, fixed
  /// so that runs of the parent and of a change read the same percentile.
  double tail = 0.99;

  /// Fills the reference outcomes, using up to `threads` threads.
  virtual void ComputeReferences(int threads) = 0;
  /// Reference outcome of a solve or answers request against the databases
  /// as attached (the warm-up pass checks these).
  virtual const Expect& Initial(size_t request) const = 0;
  /// One operation source per connection, fresh from the seed.
  virtual std::vector<std::shared_ptr<OpSource>> MakeSources() const = 0;
};

/// The wire frame of a solve or answers request; `bypass` forces
/// "cache":"bypass".
std::string EncodeRequestFrame(const Request& r, uint64_t id, bool bypass);

/// The wire frame of a delta request.
std::string EncodeDeltaFrame(const Request& r, uint64_t id,
                             const std::string& delta_id);

/// Generates the named workload's inputs from `seed` (no references yet).
cqa::Result<std::unique_ptr<Workload>> MakeWorkload(const std::string& name,
                                                    uint64_t seed);

}  // namespace daemonbench

#endif  // DAEMONBENCH_WORKLOADS_H_
