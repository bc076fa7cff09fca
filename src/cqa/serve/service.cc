#include "cqa/serve/service.h"

#include <algorithm>
#include <cassert>

#include "cqa/answers/answer_chunk.h"
#include "cqa/answers/cursor.h"
#include "cqa/answers/enumerator.h"
#include "cqa/cache/query_key.h"
#include "cqa/cache/warm_state.h"

namespace cqa {

const char* ToString(RequestState state) {
  switch (state) {
    case RequestState::kCompleted:
      return "completed";
    case RequestState::kCancelled:
      return "cancelled";
  }
  return "?";
}

SolveService::SolveService(ServiceOptions options)
    : options_(std::move(options)),
      queue_(std::max<size_t>(options_.queue_capacity, 1),
             options_.discipline == QueueDiscipline::kEdf
                 ? [](const RequestPtr& a, const RequestPtr& b) {
                     return a->deadline_key < b->deadline_key;
                   }
                 : BoundedQueue<RequestPtr>::BeforeFn(nullptr)) {
  if (options_.cache_entries > 0) {
    cache_ = std::make_unique<ResultCache>(options_.cache_entries,
                                           options_.cache_shards);
  }
  int workers = std::max(options_.workers, 1);
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

SolveService::~SolveService() { Shutdown(std::chrono::milliseconds(0)); }

Result<uint64_t> SolveService::Submit(ServeJob job, Callback callback) {
  stats_.RecordSubmitted();
  if (!accepting_.load(std::memory_order_acquire)) {
    stats_.RecordShed();
    return Result<uint64_t>::Error(ErrorCode::kOverloaded,
                                   "service is shutting down");
  }
  auto req = std::make_shared<Request>(next_id_.fetch_add(1), std::move(job),
                                       std::move(callback));
  req->submitted = Budget::Clock::now();
  req->cancel = std::make_shared<std::atomic<bool>>(false);
  // EDF sort key (harmless under FIFO): the nearest deadline that can
  // terminate this request, anchored at submission.
  req->deadline_key = options_.service_deadline;
  std::chrono::milliseconds timeout =
      req->job.timeout.value_or(options_.default_timeout);
  if (timeout.count() > 0) {
    req->deadline_key = std::min(req->deadline_key, req->submitted + timeout);
  }
  if (req->job.kind == JobKind::kAnswers) {
    // Answers jobs need the epoch fingerprint regardless of caching: the
    // resume cursor is minted against it at delivery, and a supplied
    // cursor is validated here — at admission, against the epoch this
    // request will actually read — so a flipped epoch fails typed before
    // any work is scheduled. (`FingerprintDatabase` reads the database's
    // maintained digest in O(1).)
    req->fp = FingerprintDatabase(*req->job.db);
    req->query_hash = AnswerQueryHash(req->job.query, req->job.free_vars);
    if (!req->job.cursor.empty()) {
      Result<AnswerCursor> cursor = DecodeAnswerCursor(req->job.cursor);
      if (!cursor.ok()) {
        stats_.RecordShed();
        return Result<uint64_t>::Error(cursor);
      }
      if (cursor->query_hash != req->query_hash) {
        stats_.RecordShed();
        return Result<uint64_t>::Error(
            ErrorCode::kParse,
            "cursor belongs to a different query or free-variable list");
      }
      if (!(cursor->fingerprint == req->fp)) {
        stats_.RecordStaleCursor();
        stats_.RecordShed();
        return Result<uint64_t>::Error(
            ErrorCode::kStaleCursor,
            "cursor names database epoch " + cursor->fingerprint.ToHex() +
                " but the instance is serving " + req->fp.ToHex() +
                "; restart the stream from position zero");
      }
      req->job.answer_start = cursor->position;
    }
  }
  bool use_cache = cache_ != nullptr;
  if (use_cache && req->job.cache == CachePolicy::kBypass) {
    cache_->RecordBypass();
    use_cache = false;
  }
  if (use_cache) {
    // `FingerprintDatabase` reads the database's maintained digest: O(1).
    req->cache_key =
        req->job.kind == JobKind::kAnswers
            ? MakeAnswersCacheKey(req->fp, req->job.method, req->job.query,
                                  req->job.free_vars, req->job.answer_start,
                                  req->job.answer_max_chunk)
            : MakeCacheKey(FingerprintDatabase(*req->job.db), req->job.method,
                           req->job.query);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    registry_.emplace(req->id, req->cancel);
    ++outstanding_;
  }
  if (use_cache) {
    // Cache check before admission: a hit never touches the queue — its
    // terminal callback is delivered synchronously, right here.
    if (std::optional<SolveReport> hit = cache_->Lookup(req->cache_key)) {
      stats_.RecordAccepted();
      Finish(req, /*started=*/false, RequestState::kCompleted,
             Result<SolveReport>(std::move(*hit)));
      return req->id;
    }
    switch (flights_.JoinOrLead(req->cache_key.text, req, req->deadline_key)) {
      case FlightOutcome::kFollow:
        // Coalesced: an identical solve is already in flight with a
        // deadline at least as tight as ours; this request is settled by
        // the leader's terminal result (or promoted to re-run the solve
        // if the leader cannot settle it).
        cache_->RecordCoalesced();
        stats_.RecordAccepted();
        return req->id;
      case FlightOutcome::kLead:
        req->flight_leader = true;
        req->cache_store = true;
        break;
      case FlightOutcome::kRefuse:
        // The open flight's leader has a looser deadline than this
        // request; coalescing would silently drop its own deadline (EDF
        // key, timeout). Run it independently — its exact result still
        // fills the cache.
        req->cache_store = true;
        break;
    }
  }
  if (!queue_.TryPush(req)) {
    if (req->flight_leader) AbandonLeadership(req);
    {
      std::lock_guard<std::mutex> lock(mu_);
      registry_.erase(req->id);
      --outstanding_;
    }
    drained_cv_.notify_all();
    stats_.RecordShed();
    return Result<uint64_t>::Error(
        ErrorCode::kOverloaded,
        "work queue full (capacity " + std::to_string(queue_.capacity()) +
            "); request shed");
  }
  stats_.RecordAccepted();
  return req->id;
}

void SolveService::AbandonLeadership(const RequestPtr& req) {
  req->flight_leader = false;
  // Followers can join between JoinOrLead and the failed queue push; they
  // were accepted, so they must still reach a terminal. Promote one into
  // the queue if it has room again, else settle them as overloaded.
  for (;;) {
    std::optional<RequestPtr> next = flights_.PromoteOne(req->cache_key.text);
    if (!next.has_value()) return;  // flight dissolved
    (*next)->flight_leader = true;
    (*next)->cache_store = true;
    if (queue_.TryPush(*next)) return;  // new leader queued; flight lives on
    (*next)->flight_leader = false;
    Finish(*next, /*started=*/false, RequestState::kCompleted,
           Result<SolveReport>::Error(
               ErrorCode::kOverloaded,
               "coalesced solve shed: flight leader was shed and the work "
               "queue is full"));
  }
}

bool SolveService::Cancel(uint64_t id) {
  std::shared_ptr<std::atomic<bool>> token;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = registry_.find(id);
    if (it == registry_.end()) return false;
    token = it->second;
  }
  token->store(true, std::memory_order_release);
  drained_cv_.notify_all();  // interrupt a backoff sleep, if any
  return true;
}

void SolveService::CancelAll() {
  std::vector<std::shared_ptr<std::atomic<bool>>> tokens;
  {
    std::lock_guard<std::mutex> lock(mu_);
    tokens.reserve(registry_.size());
    for (auto& [id, token] : registry_) tokens.push_back(token);
  }
  for (auto& token : tokens) token->store(true, std::memory_order_release);
  drained_cv_.notify_all();
}

bool SolveService::Shutdown(std::chrono::milliseconds drain_deadline) {
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
  if (shutdown_done_) return drained_result_;
  accepting_.store(false, std::memory_order_release);
  draining_.store(true, std::memory_order_release);
  queue_.Close();          // workers finish the backlog, then exit
  drained_cv_.notify_all();  // abort backoff sleeps: no retries while draining

  bool drained;
  {
    std::unique_lock<std::mutex> lock(mu_);
    drained = drained_cv_.wait_for(lock, drain_deadline,
                                   [&] { return outstanding_ == 0; });
  }
  if (!drained) {
    // Drain deadline expired: cancel everything still known. Requests in
    // flight trip their budget's cancel token at the next probe; requests
    // still queued are completed as cancelled right here (the workers may
    // never reach them).
    CancelAll();
    for (RequestPtr& req : queue_.DrainNow()) {
      Finish(req, /*started=*/false, RequestState::kCancelled,
             Result<SolveReport>::Error(
                 ErrorCode::kCancelled,
                 "cancelled: shutdown drain deadline expired while queued"));
    }
    std::unique_lock<std::mutex> lock(mu_);
    drained_cv_.wait(lock, [&] { return outstanding_ == 0; });
  }
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  shutdown_done_ = true;
  drained_result_ = drained;
  return drained;
}

size_t SolveService::ShedQueued(ErrorCode code, const std::string& message) {
  size_t shed = 0;
  for (RequestPtr& req : queue_.DrainNow()) {
    // Shedding a flight leader promotes a follower (Finish returns it);
    // shed the promotion chain too instead of re-enqueueing into a queue
    // we are emptying on purpose.
    RequestPtr next = Finish(req, /*started=*/false, RequestState::kCompleted,
                             Result<SolveReport>::Error(code, message));
    ++shed;
    while (next != nullptr) {
      next = Finish(next, /*started=*/false, RequestState::kCompleted,
                    Result<SolveReport>::Error(code, message));
      ++shed;
    }
  }
  return shed;
}

void SolveService::WorkerLoop(int worker_index) {
  // Per-worker jitter stream: deterministic given the seed and the worker
  // index, independent across workers.
  Rng rng(options_.backoff_seed ^
          (0x9e3779b97f4a7c15ull * static_cast<uint64_t>(worker_index + 1)));
  // Per-worker warm state: classification/rewriting memo plus the
  // Algorithm-1 arena, reused across every request this worker runs.
  WarmState warm_storage;
  WarmState* warm = options_.warm_state ? &warm_storage : nullptr;
  RequestPtr req;
  while (queue_.Pop(&req)) {
    // A terminal that cannot settle its single-flight followers promotes
    // one of them; the promotion runs inline on this worker (it skipped
    // the queue when it coalesced, and the queue may be full or closed).
    while (req != nullptr) {
      req = Process(req, &rng, warm);
    }
  }
}

SolveService::RequestPtr SolveService::Process(const RequestPtr& req, Rng* rng,
                                               WarmState* warm) {
  stats_.RecordStarted();
  // Isolation is a property of the request, decided once: the job's
  // explicit choice wins; `kAuto` defers to the service policy, whose own
  // `kAuto` escalates to a sandbox for coNP-risk queries (classification
  // is polynomial, memoized per worker, and dwarfed by any solve it
  // gates). Answer chunks never cross the sandbox result pipe (its codec
  // carries verdicts, not tuple sets): answers jobs always run in-process,
  // and the per-chunk budget bounds the damage an expensive enumeration
  // can do.
  bool use_fork = false;
  if (req->job.kind == JobKind::kCertainty) {
    IsolationMode mode = req->job.isolation != IsolationMode::kAuto
                             ? req->job.isolation
                             : options_.isolation;
    if (mode == IsolationMode::kFork) {
      use_fork = true;
    } else if (mode == IsolationMode::kAuto) {
      const Query& q = req->job.query;
      use_fork = ShouldIsolate(
          q, warm != nullptr ? warm->ClassifyMemo(CanonicalQueryKey(q), q)
                             : Classify(q));
    }
  }
  // Containment: an injected crash, wedge or hog would take this worker
  // (and, for a crash, the whole process) with it. Only a sandboxed child
  // may run such a plan; in-process it is refused up front, never retried.
  if (!use_fork && req->job.fault_attempts > 0 &&
      req->job.faults.HarmsHost()) {
    return Finish(req, /*started=*/true, RequestState::kCompleted,
                  Result<SolveReport>::Error(
                      ErrorCode::kUnsupported,
                      "crash, wedge and hog fault injection require fork "
                      "isolation; this request runs in-process"));
  }
  for (;;) {
    if (req->cancel->load(std::memory_order_acquire)) {
      return Finish(
          req, /*started=*/true, RequestState::kCancelled,
          Result<SolveReport>::Error(ErrorCode::kCancelled,
                                     "cancelled before attempt " +
                                         std::to_string(req->attempts + 1)));
    }
    ++req->attempts;

    // Chaos knob: a deterministic-duration stall before the solve,
    // interruptible by cancellation and by shutdown drain.
    if (req->job.chaos_sleep.count() > 0 &&
        !WaitBackoff(req->job.chaos_sleep, *req->cancel)) {
      return Finish(req, /*started=*/true, RequestState::kCancelled,
                    Result<SolveReport>::Error(ErrorCode::kCancelled,
                                               "cancelled during chaos sleep"));
    }

    // Budget inheritance: the attempt deadline is the tighter of the
    // service-wide deadline and this request's own timeout — re-armed per
    // attempt by default, or fixed at submit + timeout when the job opts
    // into submit-anchored deadlines; the solver's kAuto path further
    // splits it 80/20 between the exact stage and the sampling fallback.
    Budget budget;
    budget.cancel = req->cancel.get();
    budget.max_steps = req->job.max_steps;
    if (req->attempts <= req->job.fault_attempts) {
      budget.faults = req->job.faults;
    }
    std::chrono::milliseconds timeout =
        req->job.timeout.value_or(options_.default_timeout);
    budget.deadline = options_.service_deadline;
    if (timeout.count() > 0) {
      Budget::Clock::time_point anchor = req->job.deadline_from_submit
                                             ? req->submitted
                                             : Budget::Clock::now();
      budget.deadline = std::min(budget.deadline, anchor + timeout);
    }

    if (warm != nullptr) {
      warm->BindDatabase(FingerprintDatabase(*req->job.db));
    }
    Result<SolveReport> result =
        Result<SolveReport>::Error(ErrorCode::kInternal, "attempt never ran");
    if (req->job.kind == JobKind::kAnswers) {
      // One chunk of certain answers, wrapped into a SolveReport whose
      // verdict encodes cacheability: kCertain for a clean chunk (exact,
      // position-complete, reusable), kExhausted for a budget-truncated
      // partial one — which `IsCacheableReport` rejects, so a retry or a
      // later identical submission re-runs instead of reusing a stub.
      std::vector<Symbol> frees;
      frees.reserve(req->job.free_vars.size());
      for (const std::string& name : req->job.free_vars) {
        frees.push_back(InternSymbol(name));
      }
      EnumerateOptions eopts;
      eopts.start = req->job.answer_start;
      eopts.max_chunk = req->job.answer_max_chunk;
      eopts.method = req->job.method;
      Result<AnswerChunk> enumerated = EnumerateAnswerChunk(
          req->job.query, frees, *req->job.db, eopts, &budget);
      if (enumerated.ok()) {
        AnswerChunk chunk = std::move(enumerated.value());
        stats_.RecordAnswerChunk(chunk.answers.size());
        SolveReport report;
        report.used = req->job.method;
        report.verdict =
            chunk.exhausted ? Verdict::kExhausted : Verdict::kCertain;
        report.confidence = chunk.exhausted ? 0.0 : 1.0;
        report.answer_chunk =
            std::make_shared<const AnswerChunk>(std::move(chunk));
        result = Result<SolveReport>(std::move(report));
      } else {
        result = Result<SolveReport>::Error(enumerated);
      }
    } else {
      SolveOptions sopts;
      sopts.method = req->job.method;
      sopts.budget = &budget;
      sopts.degrade_to_sampling = req->job.degrade_to_sampling;
      sopts.max_samples = req->job.max_samples;
      // Pool width: the job's explicit choice wins, 0 inherits the service
      // default; clamp to a sane band so a hostile wire value cannot spawn
      // thousands of threads.
      sopts.parallelism = std::clamp(
          req->job.parallelism > 0 ? req->job.parallelism
                                   : options_.parallelism,
          1, 64);
      sopts.warm = warm;
      if (use_fork) {
        // Sandbox path: the attempt runs in a forked child under hard
        // limits; the child inherits these options and the budget by
        // fork, and the cancel token stays parent-side — cancellation
        // SIGKILLs the child instead of waiting for a cooperative probe.
        SandboxOutcome outcome =
            RunSandboxedSolve(req->job.query, *req->job.db, sopts,
                              options_.sandbox, req->cancel.get());
        stats_.RecordSandbox(outcome.killed, outcome.crashed,
                             outcome.rss_breach, outcome.peak_rss_kb);
        result = std::move(outcome.result);
      } else {
        result = SolveCertainty(req->job.query, *req->job.db, sopts);
      }
    }
    if (result.ok() && result->components > 0) {
      stats_.RecordParallel(static_cast<uint64_t>(result->components),
                            result->steals);
    }

    if (result.ok()) {
      return Finish(req, /*started=*/true, RequestState::kCompleted,
                    std::move(result));
    }
    if (result.code() == ErrorCode::kCancelled) {
      return Finish(req, /*started=*/true, RequestState::kCancelled,
                    std::move(result));
    }
    // Retry only genuine resource exhaustion, within the retry allowance,
    // and never once shutdown has begun (drain fast instead).
    bool retry = IsResourceExhaustion(result.code()) &&
                 req->attempts <= options_.max_retries &&
                 !draining_.load(std::memory_order_acquire);
    if (!retry) {
      return Finish(req, /*started=*/true, RequestState::kCompleted,
                    std::move(result));
    }
    stats_.RecordRetry();
    std::chrono::milliseconds delay =
        options_.backoff.DelayFor(req->attempts, rng);
    if (!WaitBackoff(delay, *req->cancel)) {
      // Interrupted: surface the cancellation, or the last error when the
      // interruption was shutdown.
      if (req->cancel->load(std::memory_order_acquire)) {
        return Finish(
            req, /*started=*/true, RequestState::kCancelled,
            Result<SolveReport>::Error(ErrorCode::kCancelled,
                                       "cancelled during retry backoff"));
      }
      return Finish(req, /*started=*/true, RequestState::kCompleted,
                    std::move(result));
    }
  }
}

bool SolveService::WaitBackoff(std::chrono::milliseconds delay,
                               const std::atomic<bool>& cancel) {
  std::unique_lock<std::mutex> lock(mu_);
  return !drained_cv_.wait_for(lock, delay, [&] {
    return draining_.load(std::memory_order_acquire) ||
           cancel.load(std::memory_order_acquire);
  });
}

SolveService::RequestPtr SolveService::Finish(const RequestPtr& req,
                                              bool started, RequestState state,
                                              Result<SolveReport> result) {
  if (req->done.exchange(true, std::memory_order_acq_rel)) return nullptr;
  ServeResponse response;
  response.id = req->id;
  response.state = state;
  response.result = std::move(result);
  response.attempts = req->attempts;
  response.latency = std::chrono::duration_cast<std::chrono::microseconds>(
      Budget::Clock::now() - req->submitted);
  bool ok = response.result.ok();
  if (ok && req->job.kind == JobKind::kAnswers &&
      response.result->answer_chunk != nullptr &&
      !response.result->answer_chunk->done) {
    // Mint the resume cursor at delivery time against the epoch captured
    // at admission. Deliberately not stored with the cached chunk: a
    // footprint-disjoint delta rekeys cache entries to the new epoch, and
    // a stored cursor would still name the old one.
    AnswerCursor cursor;
    cursor.position = response.result->answer_chunk->next;
    cursor.query_hash = req->query_hash;
    cursor.fingerprint = req->fp;
    response.answer_cursor = EncodeAnswerCursor(cursor);
  }
  bool degraded = ok && (response.result->verdict == Verdict::kProbablyCertain ||
                         response.result->verdict == Verdict::kExhausted);
  stats_.RecordTerminal(started, state == RequestState::kCancelled, ok,
                        degraded, response.latency);
  const bool leader = req->flight_leader;
  const bool cacheable = ok && IsCacheableReport(*response.result);
  if (req->cache_store && cacheable) {
    // Store *before* delivering the terminal callback: a caller that has
    // observed this result must hit the cache on its next identical
    // submission (read-your-writes), and the store-then-take-followers
    // order below closes the window where a new submission could miss the
    // cache yet find no flight to join. Deadline-refused independent runs
    // store too (cache_store without leadership): their verdict is just
    // as exact, and they typically finish before the looser leader.
    cache_->Insert(req->cache_key, *response.result);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    registry_.erase(req->id);
    assert(outstanding_ > 0);
    --outstanding_;
  }
  if (req->callback) req->callback(response);
  drained_cv_.notify_all();

  // Single-flight settlement (flight leaders only; the done-guard above
  // makes this run exactly once per leader). A cacheable result was stored
  // above and completes every coalesced follower; otherwise —
  // cancellation, error, or a degraded verdict that must not be reused —
  // one follower is promoted to re-run the solve so nobody waits on a
  // dead leader.
  RequestPtr promoted;
  if (leader) {
    const std::string& key = req->cache_key.text;
    if (cacheable) {
      for (RequestPtr& follower : flights_.TakeFollowers(key)) {
        SettleFollower(follower, *response.result);
      }
    } else if (draining_.load(std::memory_order_acquire)) {
      // No promotion during shutdown: workers may never pop again. Every
      // follower terminates as cancelled, like drained queue entries.
      for (RequestPtr& follower : flights_.TakeFollowers(key)) {
        Finish(follower, /*started=*/false, RequestState::kCancelled,
               Result<SolveReport>::Error(
                   ErrorCode::kCancelled,
                   "cancelled: coalesced solve's leader terminated during "
                   "shutdown drain"));
      }
    } else {
      std::optional<RequestPtr> next = flights_.PromoteOne(key);
      if (next.has_value()) {
        (*next)->flight_leader = true;
        (*next)->cache_store = true;
        promoted = std::move(*next);
      }
    }
  }
  return promoted;
}

void SolveService::SettleFollower(const RequestPtr& follower,
                                  const SolveReport& report) {
  if (follower->cancel->load(std::memory_order_acquire)) {
    Finish(follower, /*started=*/false, RequestState::kCancelled,
           Result<SolveReport>::Error(
               ErrorCode::kCancelled,
               "cancelled while coalesced on an identical in-flight solve"));
    return;
  }
  Finish(follower, /*started=*/false, RequestState::kCompleted,
         Result<SolveReport>(report));
}

std::pair<uint64_t, uint64_t> SolveService::OnDatabaseDelta(
    const DbFingerprint& old_fp, const DbFingerprint& new_fp,
    const std::vector<std::string>& touched) {
  if (cache_ == nullptr) return {0, 0};
  return cache_->OnDatabaseDelta(old_fp, new_fp, touched);
}

ServiceStats SolveService::Stats() const {
  ServiceStats s = stats_.Snapshot();
  if (cache_ != nullptr) {
    const CacheStats c = cache_->Stats();
#define CQA_FOLD_CACHE_STAT(name, kind, merge, ...) \
  __VA_OPT__(s.name = c.__VA_ARGS__;)
    CQA_SERVICE_STATS(CQA_FOLD_CACHE_STAT)
#undef CQA_FOLD_CACHE_STAT
  }
  return s;
}

}  // namespace cqa
