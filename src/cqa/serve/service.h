#ifndef CQA_SERVE_SERVICE_H_
#define CQA_SERVE_SERVICE_H_

#include <atomic>
#include <chrono>
#include <climits>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cqa/base/backoff.h"
#include "cqa/base/budget.h"
#include "cqa/base/result.h"
#include "cqa/cache/fingerprint.h"
#include "cqa/cache/result_cache.h"
#include "cqa/cache/single_flight.h"
#include "cqa/certainty/solver.h"
#include "cqa/db/database.h"
#include "cqa/query/query.h"
#include "cqa/serve/bounded_queue.h"
#include "cqa/serve/sandbox/sandbox.h"
#include "cqa/serve/stats.h"

namespace cqa {

/// Per-job cache participation.
enum class CachePolicy {
  /// Look up before admission, coalesce onto an identical in-flight solve,
  /// store exact verdicts.
  kDefault,
  /// Skip the cache entirely: no lookup, no coalescing, no store. For
  /// measurements (bench cold mode) and jobs whose chaos knobs make the
  /// outcome deliberately non-reusable.
  kBypass,
};

/// What a `ServeJob` asks for.
enum class JobKind {
  /// Decide CERTAINTY(q): one boolean verdict (the default).
  kCertainty,
  /// Enumerate one chunk of the certain answers to q with free variables:
  /// the report carries `SolveReport::answer_chunk` and the response a
  /// resume cursor. Answer jobs always run in-process (chunks do not cross
  /// the sandbox wire) and skip parallel decomposition.
  kAnswers,
};

/// The execution settings of one request, declared once: the wire decoder
/// (`WireRequest::spec`) fills it, and `ServeJob` inherits it, so a decoded
/// frame reaches the service without a field-by-field copy.
struct JobSpec {
  /// Per-attempt wall-clock budget; `nullopt` inherits the service's
  /// `default_timeout`, zero means no per-request deadline (the service
  /// deadline, if any, still applies).
  std::optional<std::chrono::milliseconds> timeout;
  /// When true, the deadline is anchored at submit time — queue wait,
  /// backoff, and earlier attempts all consume the same absolute budget
  /// `submitted + timeout` — instead of re-arming `now + timeout` per
  /// attempt. This is the semantics under which earliest-deadline-first
  /// queueing (ServiceOptions::discipline) actually reduces timeout rates.
  bool deadline_from_submit = false;
  /// Per-attempt step (search-node) budget.
  uint64_t max_steps = Budget::kNoStepLimit;
  SolverMethod method = SolverMethod::kAuto;
  /// See `SolveOptions`: on kAuto, an exhausted exact stage degrades to a
  /// qualified sampling verdict (which counts as completion — degraded
  /// verdicts are surfaced, never retried).
  bool degrade_to_sampling = true;
  uint64_t max_samples = 10'000;
  /// Pool width for component-decomposed solving of this request; 0 (the
  /// default) inherits `ServiceOptions::parallelism`, 1 forces the plain
  /// sequential path, >1 decomposes. Clamped to [1, 64] effective.
  int parallelism = 0;

  /// Where this solve runs. `kAuto` (the default) defers to the service:
  /// its own `ServiceOptions::isolation` policy decides, which for a
  /// service in `kAuto` means fork isolation exactly when the query
  /// classifies outside the tractable islands (coNP-risk traffic). An
  /// explicit `kInproc`/`kFork` here overrides the service policy.
  IsolationMode isolation = IsolationMode::kAuto;

  /// Result-cache participation; ignored when the service has no cache.
  CachePolicy cache = CachePolicy::kDefault;

  /// Test knobs: `faults` (base/budget.h) is armed in the attempt's
  /// `Budget` for the first `fault_attempts` attempts, so tests can force
  /// deterministic exhaustion and then a clean retry. A plan that can
  /// crash, wedge or hog (`FaultPlan::HarmsHost`) runs only under fork
  /// isolation, where the sandbox contains it; when the job resolves to
  /// in-process the service ends it as `kUnsupported` instead.
  FaultPlan faults;
  int fault_attempts = INT_MAX;
  /// Test knob: an interruptible sleep before each attempt's solve,
  /// giving tests a deterministic-duration "slow request". Cancellation
  /// and shutdown drain cut the sleep short (the request then terminates
  /// as cancelled).
  std::chrono::milliseconds chaos_sleep{0};
};

/// One unit of work for `SolveService`: decide CERTAINTY(q) on a database.
/// The database is shared (many jobs typically target the same instance)
/// and must stay immutable while the service holds a reference.
struct ServeJob : JobSpec {
  ServeJob(Query q, std::shared_ptr<const Database> database,
           JobSpec spec = {})
      : JobSpec(std::move(spec)),
        query(std::move(q)),
        db(std::move(database)) {}

  Query query;
  std::shared_ptr<const Database> db;

  /// Job kind; the fields below only apply to `kAnswers` jobs.
  JobKind kind = JobKind::kCertainty;
  /// Free variables of the answer query, in output-tuple order. Names must
  /// occur in the query; the enumerator rejects unknown variables.
  std::vector<std::string> free_vars;
  /// First flat candidate position of the requested chunk. Overwritten by
  /// the decoded `cursor` when one is supplied.
  uint64_t answer_start = 0;
  /// Maximum answers per chunk (clamped to at least 1).
  uint64_t answer_max_chunk = 64;
  /// Optional resume cursor (the `answer_cursor` of a previous response).
  /// Validated at `Submit`: malformed or mismatching the query fails with
  /// `kParse`; a fingerprint from another epoch fails with `kStaleCursor`.
  std::string cursor;
};

/// How a request left the service. Shed requests never enter the system:
/// `Submit` fails synchronously with `kOverloaded` and no response is
/// delivered for them.
enum class RequestState {
  /// The solve ran to a terminal result: an ok `SolveReport` (possibly
  /// with a degraded verdict) or a typed non-cancellation error.
  kCompleted,
  /// Cancelled — by `Cancel`/`CancelAll`, or by the shutdown drain
  /// deadline while still queued or running.
  kCancelled,
};

const char* ToString(RequestState state);

/// Terminal outcome of one accepted request, delivered exactly once via
/// the submit callback.
struct ServeResponse {
  uint64_t id = 0;
  RequestState state = RequestState::kCancelled;
  Result<SolveReport> result =
      Result<SolveReport>::Error(ErrorCode::kCancelled, "request never ran");
  /// Solve attempts made (0 when cancelled while still queued).
  int attempts = 0;
  /// Submit-to-terminal wall clock, queueing and backoff included.
  std::chrono::microseconds latency{0};
  /// For successful `kAnswers` jobs whose chunk did not finish the space:
  /// the opaque cursor that resumes the stream at the chunk's `next`
  /// position. Stamped at delivery time against the epoch the request was
  /// admitted under — cache hits and coalesced followers carry a cursor
  /// for the *current* fingerprint, never a stale stored one. Empty when
  /// the stream is done or the job was not an answers job.
  std::string answer_cursor;
};

/// Consumption order of the bounded work queue.
enum class QueueDiscipline {
  /// First in, first out.
  kFifo,
  /// Earliest-deadline-first: workers pop the queued request whose
  /// effective deadline — min(service deadline, submit time + timeout) —
  /// is nearest, ties broken FIFO. Requests with no deadline sort last.
  /// Under mixed timeouts this serves urgent requests before they expire
  /// in the queue, cutting timeout rates versus FIFO (see serve_test).
  kEdf,
};

struct ServiceOptions {
  /// Worker threads; clamped to at least 1.
  int workers = 4;
  /// Bounded queue capacity; a full queue sheds new submissions with
  /// `kOverloaded`. Clamped to at least 1.
  size_t queue_capacity = 64;
  /// Queue consumption order. EDF is the default: with homogeneous
  /// deadlines it degrades to exact FIFO behaviour.
  QueueDiscipline discipline = QueueDiscipline::kEdf;
  /// Default per-attempt timeout for jobs that do not set their own; zero
  /// means none.
  std::chrono::milliseconds default_timeout{0};
  /// Absolute deadline for the service as a whole: every attempt's budget
  /// deadline is clamped to it (`time_point::max()` = none). This is the
  /// top of the inheritance chain service → request → exact-stage split.
  Budget::Clock::time_point service_deadline = Budget::Clock::time_point::max();
  /// Extra attempts for requests that fail with resource exhaustion
  /// (deadline/step budget) *without* producing a degraded verdict. Each
  /// retry waits per `backoff` and re-arms a fresh per-attempt budget.
  int max_retries = 0;
  BackoffPolicy backoff;
  /// Seed for backoff jitter (each worker derives its own stream).
  uint64_t backoff_seed = 0xb0ff5eedu;

  /// Result-cache capacity in entries; 0 disables the cache (the default:
  /// existing deployments opt in via `cqa_cli serve`, which enables it).
  /// With a cache, identical (query, database, method) solves are answered
  /// before admission on a hit, and concurrent identical misses coalesce
  /// onto a single worker (single-flight).
  size_t cache_entries = 0;
  /// Shards of the cache's LRU map (clamped to [1, cache_entries]).
  size_t cache_shards = 8;
  /// Isolation policy for jobs that leave `ServeJob::isolation` at
  /// `kAuto`: `kInproc` (the default) runs every solve on the worker
  /// thread; `kFork` sandboxes every solve; `kAuto` escalates to a
  /// sandbox exactly when `ShouldIsolate` says the query is coNP-risk (no
  /// polynomial engine accepts it) — the traffic whose exact solvers can
  /// wedge.
  IsolationMode isolation = IsolationMode::kInproc;
  /// Hard limits for sandboxed solves (kill grace, RSS cap).
  SandboxLimits sandbox;
  /// Default pool width for component-decomposed solving, used by jobs
  /// that leave `ServeJob::parallelism` at 0. 1 (the default) keeps every
  /// solve on the plain sequential path.
  int parallelism = 1;
  /// Per-worker warm state: memoized classification, rewritings, and
  /// Algorithm-1 arenas reused across requests on the same database
  /// fingerprint. Off by default — warm memo hits change *work done*, not
  /// answers, but deterministic fault-injection tests count probes and
  /// must opt in deliberately.
  bool warm_state = false;
};

/// A multi-threaded CERTAINTY(q) solve service: a fixed worker pool behind
/// a bounded MPMC queue, with admission control (load shedding), budget
/// inheritance, retry with exponential backoff and jitter, cross-request
/// cancellation, and graceful shutdown.
///
/// Lifecycle guarantees (the chaos suite pins these down):
///  * Every call to `Submit` either fails synchronously (`kOverloaded`,
///    counted as shed) or delivers its callback exactly once with a
///    terminal `ServeResponse` (`kCompleted` or `kCancelled`).
///  * `Shutdown` always terminates: it drains in-flight and queued work
///    until the drain deadline, then cancels whatever remains.
///
/// Callbacks run on worker threads, on the `Shutdown` caller's thread for
/// requests cancelled while queued, or on the `Submit` caller's thread for
/// cache hits (delivered synchronously, before `Submit` returns); they
/// must be thread-safe and must not call `Shutdown`.
///
/// With `ServiceOptions::cache_entries > 0` the service front-loads a
/// result cache: a hit answers before admission (no queueing, no worker),
/// a miss opens a single-flight — concurrent identical submissions attach
/// to the in-flight leader and are settled by its terminal result. A
/// submission whose effective deadline is strictly tighter than the
/// leader's is not coalesced (parking it would silently drop its own
/// deadline); it runs independently and its result still fills the cache.
/// A cancelled or failed leader promotes its earliest-deadline follower
/// to re-run the solve, so coalesced requests are never stranded. See
/// docs/CACHING.md.
class SolveService {
 public:
  using Callback = std::function<void(const ServeResponse&)>;

  explicit SolveService(ServiceOptions options);
  ~SolveService();  // shuts down with a zero drain deadline if still running

  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;

  /// Admission control: enqueues the job and returns its request id, or
  /// fails with `kOverloaded` when the queue is full or the service is
  /// shutting down (the request is shed; the callback will never run).
  Result<uint64_t> Submit(ServeJob job, Callback callback);

  /// Requests cancellation of one in-flight or queued request. Safe from
  /// any thread. Returns false when the id is unknown or already terminal.
  /// The terminal callback still fires (state `kCancelled` if the
  /// cancellation won the race).
  bool Cancel(uint64_t id);

  /// Cancels every request currently known to the service.
  void CancelAll();

  /// Graceful shutdown: stops admissions immediately, lets workers drain
  /// queued and in-flight work for up to `drain_deadline`, then cancels
  /// the remainder and joins the pool. Returns true when everything
  /// drained without forced cancellation. Idempotent; concurrent callers
  /// serialize.
  bool Shutdown(std::chrono::milliseconds drain_deadline);

  /// Sheds every request still *queued* (not yet popped by a worker),
  /// delivering each a terminal `kCompleted` response carrying the given
  /// typed error; coalesced followers promoted by a shed flight leader are
  /// shed too (never stranded, never enqueued). In-flight requests are
  /// untouched. Returns the number of requests shed. Used by the registry
  /// layer's detach drain: queued work for a detaching database terminates
  /// with `kDetached` instead of occupying the drain window.
  size_t ShedQueued(ErrorCode code, const std::string& message);

  /// Migrates the result cache across a database delta (no-op without a
  /// cache): entries whose query footprint intersects `touched` are
  /// dropped, the rest are rekeyed to `new_fp` and keep serving hits.
  /// Returns {invalidated, rekeyed}. The caller (the registry layer)
  /// swaps in the new epoch only after this returns, so a lookup under
  /// the new fingerprint never races a stale entry.
  std::pair<uint64_t, uint64_t> OnDatabaseDelta(
      const DbFingerprint& old_fp, const DbFingerprint& new_fp,
      const std::vector<std::string>& touched);

  /// Aggregate accounting (cache counters folded in when a cache is
  /// configured); callable at any time, including after shutdown.
  ServiceStats Stats() const;

  /// The result cache, or null when disabled. Exposed for tests and stats.
  const ResultCache* cache() const { return cache_.get(); }

  const ServiceOptions& options() const { return options_; }

 private:
  struct Request {
    Request(uint64_t request_id, ServeJob j, Callback cb)
        : id(request_id), job(std::move(j)), callback(std::move(cb)) {}

    const uint64_t id;
    ServeJob job;
    Callback callback;
    Budget::Clock::time_point submitted;
    /// EDF sort key: min(service deadline, submitted + timeout);
    /// `time_point::max()` when the request has no deadline at all.
    Budget::Clock::time_point deadline_key = Budget::Clock::time_point::max();
    std::shared_ptr<std::atomic<bool>> cancel;
    /// Exactly-once terminal guard.
    std::atomic<bool> done{false};
    int attempts = 0;
    /// Cache key when the request participates in the cache (empty text
    /// otherwise), and whether it currently leads the key's flight. Both
    /// are written before the request is visible to workers (or, for a
    /// promotion, by the thread that already owns the request).
    CacheKey cache_key;
    bool flight_leader = false;
    /// Whether this request's own terminal result may be stored in the
    /// cache: true for flight leaders (promotion included) and for
    /// requests refused from a flight because their deadline was tighter
    /// than the leader's; false for settled followers (their leader
    /// already stored the shared result).
    bool cache_store = false;
    /// Answers jobs only: the epoch fingerprint and query hash captured at
    /// Submit, used by `Finish` to stamp `ServeResponse::answer_cursor`.
    DbFingerprint fp;
    uint64_t query_hash = 0;
  };
  using RequestPtr = std::shared_ptr<Request>;

  void WorkerLoop(int worker_index);
  /// Processes one popped request; returns the follower promoted to lead
  /// the same flight when this request's terminal could not settle it
  /// (the worker processes the promotion inline, see WorkerLoop).
  RequestPtr Process(const RequestPtr& req, Rng* rng, WarmState* warm);
  /// Delivers the terminal response exactly once, updates accounting, and
  /// settles the request's single-flight followers (leaders only): a
  /// cacheable result completes them, anything else promotes one — the
  /// returned request, which the caller must run or re-enqueue.
  RequestPtr Finish(const RequestPtr& req, bool started, RequestState state,
                    Result<SolveReport> result);
  /// Terminal delivery for a coalesced follower settled by its leader.
  void SettleFollower(const RequestPtr& follower, const SolveReport& report);
  /// Called when a flight leader is shed at admission: hands leadership to
  /// a follower that joined in the window (re-enqueueing it) or dissolves
  /// the flight.
  void AbandonLeadership(const RequestPtr& req);
  /// Sleeps for `delay`, interruptible by shutdown or the request's cancel
  /// token; true when the full delay elapsed (retry may proceed).
  bool WaitBackoff(std::chrono::milliseconds delay,
                   const std::atomic<bool>& cancel);

  ServiceOptions options_;
  BoundedQueue<RequestPtr> queue_;
  StatsCollector stats_;
  std::unique_ptr<ResultCache> cache_;
  SingleFlight<RequestPtr, Budget::Clock::time_point> flights_;

  std::atomic<uint64_t> next_id_{1};
  std::atomic<bool> accepting_{true};
  std::atomic<bool> draining_{false};

  /// Guards `registry_` and `outstanding_`; `drained_cv_` signals both
  /// "outstanding_ hit zero" and "a backoff sleep should re-check".
  mutable std::mutex mu_;
  std::condition_variable drained_cv_;
  std::unordered_map<uint64_t, std::shared_ptr<std::atomic<bool>>> registry_;
  uint64_t outstanding_ = 0;

  std::mutex shutdown_mu_;
  bool shutdown_done_ = false;
  bool drained_result_ = true;

  std::vector<std::thread> workers_;
};

}  // namespace cqa

#endif  // CQA_SERVE_SERVICE_H_
