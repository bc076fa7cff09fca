#include "cqa/serve/net/connection.h"

#include <chrono>
#include <utility>
#include <vector>

#include "cqa/query/parser.h"
#include "cqa/serve/net/daemon_stats.h"

namespace cqa {

void DaemonStatsCollector::OnConnectionClosed(CloseReason reason) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stats_.connections_active > 0) --stats_.connections_active;
  switch (reason) {
    case CloseReason::kGarbage:
      ++stats_.connections_closed_garbage;
      break;
    case CloseReason::kOversize:
      ++stats_.connections_closed_oversize;
      break;
    case CloseReason::kIdle:
      ++stats_.connections_closed_idle;
      break;
    case CloseReason::kError:
      ++stats_.connections_closed_error;
      break;
    case CloseReason::kOpen:
    case CloseReason::kClientEof:
    case CloseReason::kDrain:
      break;
  }
}

Connection::Connection(Socket socket, ShardedSolveService* service,
                       ConnectionOptions options, DaemonStatsCollector* stats)
    : socket_(std::move(socket)),
      service_(service),
      options_(options),
      stats_(stats),
      decoder_(options.max_frame_bytes) {}

Connection::~Connection() { Join(); }

void Connection::Start() {
  stats_->Add(&DaemonStats::connections_opened);
  stats_->Add(&DaemonStats::connections_active);
  auto self = shared_from_this();
  reader_ = std::thread([self] {
    self->ReaderLoop();
    self->threads_exited_.fetch_add(1);
  });
  writer_ = std::thread([self] {
    self->WriterLoop();
    self->threads_exited_.fetch_add(1);
  });
}

void Connection::BeginDrain() { draining_.store(true); }

void Connection::FinishAfterFlush() { CloseAfterFlush(CloseReason::kDrain); }

void Connection::ForceClose() { Abort(CloseReason::kDrain); }

void Connection::Join() {
  // Reader first: `admin_` is only ever assigned on the reader thread, so
  // joining the reader makes the handle safely visible here.
  if (reader_.joinable()) reader_.join();
  if (admin_.joinable()) admin_.join();
  if (writer_.joinable()) writer_.join();
}

bool Connection::RecordCloseReason(CloseReason reason) {
  std::lock_guard<std::mutex> lock(close_mu_);
  if (close_reason_ != CloseReason::kOpen) return false;
  close_reason_ = reason;
  return true;
}

void Connection::CloseAfterFlush(CloseReason reason) {
  if (RecordCloseReason(reason)) stats_->OnConnectionClosed(reason);
  draining_.store(true);
  closing_.store(true);
  {
    std::lock_guard<std::mutex> lock(out_mu_);
    out_finishing_ = true;
  }
  out_ready_cv_.notify_all();
  out_space_cv_.notify_all();
  admin_cv_.notify_all();
}

void Connection::Abort(CloseReason reason) {
  if (RecordCloseReason(reason)) stats_->OnConnectionClosed(reason);
  draining_.store(true);
  closing_.store(true);
  {
    std::lock_guard<std::mutex> lock(out_mu_);
    out_closed_ = true;
    outbound_.clear();
  }
  out_ready_cv_.notify_all();
  out_space_cv_.notify_all();
  admin_cv_.notify_all();
  // Wakes a reader blocked in poll/read and a writer blocked in send.
  socket_.ShutdownBoth();
}

void Connection::CancelOutstanding() {
  std::vector<InflightSolve> solves;
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    solves.reserve(inflight_.size());
    for (const auto& [client_id, solve] : inflight_) solves.push_back(solve);
  }
  for (const InflightSolve& solve : solves) {
    service_->Cancel(solve.db, solve.service_id);
  }
  // Answer streams: a chunk in flight is cancelled at the service (its
  // terminal flushes if the writer survives); an idle stream is simply
  // dropped — the socket is gone, no terminal could be delivered, and
  // nothing of it is queued or running anywhere.
  std::vector<InflightSolve> chunk_jobs;
  {
    std::lock_guard<std::mutex> lock(streams_mu_);
    for (auto it = streams_.begin(); it != streams_.end();) {
      it->second.cancelled = true;
      if (it->second.service_id != 0 || it->second.in_submit) {
        if (it->second.service_id != 0) {
          chunk_jobs.push_back({it->second.db, it->second.service_id});
        }
        ++it;
      } else {
        if (it->second.parked) parked_streams_.fetch_sub(1);
        it = streams_.erase(it);
      }
    }
  }
  for (const InflightSolve& job : chunk_jobs) {
    service_->Cancel(job.db, job.service_id);
  }
}

void Connection::ReaderLoop() {
  using Clock = std::chrono::steady_clock;
  char buf[4096];
  Clock::time_point last_activity = Clock::now();
  std::optional<Clock::time_point> partial_since;
  std::vector<std::string> frames;

  while (!closing_.load()) {
    Result<size_t> r = ReadSome(socket_, buf, sizeof(buf), options_.poll_slice);
    if (closing_.load()) break;  // woken by shutdown, not by the client
    if (!r.ok()) {
      if (r.code() == ErrorCode::kDeadlineExceeded) {
        // Just a poll slice; enforce the connection-level deadlines.
        Clock::time_point now = Clock::now();
        if (now - last_activity >= options_.idle_timeout) {
          EnqueueFromReader(EncodeErrorFrame(std::nullopt,
                                             ErrorCode::kDeadlineExceeded,
                                             "idle timeout", /*fatal=*/true));
          CloseAfterFlush(CloseReason::kIdle);
          break;
        }
        if (partial_since && now - *partial_since >= options_.read_deadline) {
          EnqueueFromReader(EncodeErrorFrame(
              std::nullopt, ErrorCode::kDeadlineExceeded,
              "read deadline: frame not completed in time", /*fatal=*/true));
          CloseAfterFlush(CloseReason::kIdle);
          break;
        }
        continue;
      }
      Abort(CloseReason::kError);
      break;
    }
    if (*r == 0) {
      // Orderly client disconnect; outstanding solves are cancelled below.
      Abort(CloseReason::kClientEof);
      break;
    }
    last_activity = Clock::now();
    frames.clear();
    bool stream_ok = decoder_.Feed(buf, *r, &frames);
    for (const std::string& frame : frames) {
      if (closing_.load()) break;
      HandleFrame(frame);
    }
    if (!stream_ok) {
      // Oversized frame: the stream cannot be resynchronized; send a fatal
      // typed error and close.
      EnqueueFromReader(EncodeErrorFrame(
          std::nullopt, ErrorCode::kParse,
          "frame exceeds max_frame_bytes (" +
              std::to_string(options_.max_frame_bytes) + ")",
          /*fatal=*/true));
      CloseAfterFlush(CloseReason::kOversize);
      break;
    }
    if (decoder_.pending_bytes() > 0) {
      if (!partial_since) partial_since = Clock::now();
    } else {
      partial_since.reset();
    }
  }
  // Whatever ended the read loop — disconnect, deadline, garbage limit,
  // drain — this connection can never receive a cancel or produce new work,
  // so every solve still in flight is cancelled. Their terminal "cancelled"
  // frames are flushed if the write side is still alive.
  CancelOutstanding();
  // Unsubscribe the replication stream, if one was opened: after this no
  // event can enqueue, so the connection is safe to reap.
  uint64_t repl_token = 0;
  {
    std::lock_guard<std::mutex> lock(repl_state_mu_);
    repl_token = repl_token_;
    repl_token_ = 0;
  }
  if (repl_token != 0) {
    service_->RemoveReplicationListener(repl_token);
    stats_->OnReplStreamClosed();
  }
}

void Connection::HandleFrame(const std::string& frame) {
  Result<WireRequest> decoded = DecodeRequest(frame);
  stats_->Add(&DaemonStats::frames_received);
  if (!decoded.ok()) {
    stats_->Add(&DaemonStats::frames_garbage);
    ++consecutive_garbage_;
    bool fatal = consecutive_garbage_ >= options_.max_consecutive_garbage;
    // A malformed frame fails the *frame*, never the connection — unless
    // the client keeps sending garbage, which marks it hostile.
    EnqueueFromReader(
        EncodeErrorFrame(std::nullopt, decoded.code(), decoded.error(), fatal));
    if (fatal) CloseAfterFlush(CloseReason::kGarbage);
    return;
  }
  consecutive_garbage_ = 0;

  switch (decoded->type) {
    case WireRequestType::kHealth:
      EnqueueFromReader(EncodeHealthFrame(decoded->id, draining_.load(),
                                          service_->read_only()));
      return;
    case WireRequestType::kStats: {
      // One snapshot per shard feeds both the per-db objects and the
      // aggregate, so the frame describes a single instant per shard.
      const auto per_db = service_->StatsPerDb();
      EnqueueFromReader(EncodeStatsFrame(decoded->id, MergeStats(per_db),
                                         stats_->Snapshot(), per_db));
      return;
    }
    case WireRequestType::kCancel: {
      InflightSolve solve;
      bool found = false;
      {
        std::lock_guard<std::mutex> lock(inflight_mu_);
        auto it = inflight_.find(decoded->target);
        if (it != inflight_.end()) {
          found = true;
          solve = it->second;
        }
      }
      if (found) found = service_->Cancel(solve.db, solve.service_id);
      if (!found) {
        // Not a plain solve: maybe an answer stream. Mark it cancelled; a
        // chunk in flight is cancelled at the service (its terminal
        // arrives as cancelled), an idle stream (parked, or between
        // chunks with no submit loop running) terminates right here —
        // no callback is ever coming for it.
        std::string db;
        uint64_t service_id = 0;
        bool terminate_now = false;
        {
          std::lock_guard<std::mutex> lock(streams_mu_);
          auto it = streams_.find(decoded->target);
          if (it != streams_.end()) {
            found = true;
            it->second.cancelled = true;
            if (it->second.service_id != 0) {
              db = it->second.db;
              service_id = it->second.service_id;
            } else if (!it->second.in_submit) {
              if (it->second.parked) parked_streams_.fetch_sub(1);
              streams_.erase(it);
              terminate_now = true;
            }
          }
        }
        if (service_id != 0) service_->Cancel(db, service_id);
        if (terminate_now) {
          EnqueueFromReader(EncodeCancelledFrame(
              decoded->target, "cancelled between answer chunks"));
        }
      }
      EnqueueFromReader(
          EncodeCancelAckFrame(decoded->id, decoded->target, found));
      return;
    }
    case WireRequestType::kSolve:
      HandleSolve(std::move(*decoded));
      return;
    case WireRequestType::kAnswers:
      HandleAnswers(std::move(*decoded));
      return;
    case WireRequestType::kAttach:
    case WireRequestType::kDetach:
    case WireRequestType::kApplyDelta:
    case WireRequestType::kSnapshot:
      // Mutating admin frames are refused on a warm standby: the
      // replication stream is the only writer until promotion.
      if (service_->read_only()) {
        EnqueueFromReader(EncodeErrorFrame(
            decoded->id, ErrorCode::kReadOnly,
            "this daemon is a read-only follower; send writes to the "
            "primary or promote it first"));
        return;
      }
      // Heavy admin work (index builds, shard drains, journal fsyncs) runs
      // on the admin thread so it cannot stall unrelated frames arriving
      // on this connection; the reader just hands the request off.
      EnqueueAdmin(std::move(*decoded));
      return;
    case WireRequestType::kPromote:
      // Promote must work precisely when the daemon is read-only; it joins
      // the replication client, so it runs off the reader too.
      EnqueueAdmin(std::move(*decoded));
      return;
    case WireRequestType::kList:
      HandleList(*decoded);
      return;
    case WireRequestType::kReplicate:
      HandleReplicate(*decoded);
      return;
    case WireRequestType::kReplicaAck:
      HandleReplicaAck(*decoded);
      return;
  }
}

void Connection::EnqueueAdmin(WireRequest request) {
  const uint64_t id = request.id;
  bool start = false;
  bool full = false;
  {
    std::lock_guard<std::mutex> lock(admin_mu_);
    if (admin_queue_.size() >= options_.max_admin_queue) {
      full = true;
    } else {
      admin_queue_.push_back(std::move(request));
      if (!admin_started_) {
        admin_started_ = true;
        start = true;
      }
    }
  }
  if (full) {
    EnqueueFromReader(EncodeErrorFrame(
        id, ErrorCode::kOverloaded,
        "admin queue full (" + std::to_string(options_.max_admin_queue) +
            " frames pending on this connection)"));
    return;
  }
  if (start) {
    // Bump the expectation before the spawn: the reader is still alive
    // here, so `finished()` cannot momentarily see exited == expected.
    expected_threads_.fetch_add(1);
    auto self = shared_from_this();
    admin_ = std::thread([self] {
      self->AdminLoop();
      self->threads_exited_.fetch_add(1);
    });
  }
  admin_cv_.notify_one();
}

void Connection::AdminLoop() {
  for (;;) {
    WireRequest request;
    {
      std::unique_lock<std::mutex> lock(admin_mu_);
      admin_cv_.wait(lock,
                     [&] { return closing_.load() || !admin_queue_.empty(); });
      // Closing drops whatever is still queued: the socket is going away,
      // so no ack could reach the client anyway.
      if (closing_.load()) break;
      request = std::move(admin_queue_.front());
      admin_queue_.pop_front();
    }
    switch (request.type) {
      case WireRequestType::kAttach:
        HandleAttach(request);
        break;
      case WireRequestType::kDetach:
        HandleDetach(request);
        break;
      case WireRequestType::kApplyDelta:
        HandleApplyDelta(request);
        break;
      case WireRequestType::kSnapshot:
        HandleSnapshot(request);
        break;
      case WireRequestType::kPromote:
        HandlePromote(request);
        break;
      default:
        break;  // unreachable: only admin frames are enqueued
    }
  }
}

namespace {

WireDbEntry ToWireEntry(const ShardedSolveService::Entry& entry) {
  WireDbEntry e;
  e.name = entry.name;
  e.fingerprint = entry.fingerprint.ToHex();
  e.facts = entry.db->NumFacts();
  e.blocks = entry.db->NumBlocks();
  e.is_default = entry.is_default;
  return e;
}

}  // namespace

void Connection::HandleAttach(const WireRequest& request) {
  if (draining_.load()) {
    EnqueueFromReader(EncodeErrorFrame(
        request.id, ErrorCode::kOverloaded,
        "daemon is draining; not accepting admin frames"));
    return;
  }
  Result<Database> db = Database::FromText(request.facts);
  if (!db.ok()) {
    // Like an unparsable query: a request-level failure of a well-formed
    // frame, answered with a typed error, no garbage strike.
    EnqueueFromReader(EncodeErrorFrame(request.id, db.code(),
                                       "facts: " + db.error()));
    return;
  }
  Result<ShardedSolveService::Entry> attached =
      service_->Attach(request.name, std::move(*db));
  if (!attached.ok()) {
    EnqueueFromReader(
        EncodeErrorFrame(request.id, attached.code(), attached.error()));
    return;
  }
  stats_->Add(&DaemonStats::databases_attached);
  EnqueueFromReader(EncodeAttachAckFrame(request.id, ToWireEntry(*attached)));
}

void Connection::HandleDetach(const WireRequest& request) {
  if (draining_.load()) {
    EnqueueFromReader(EncodeErrorFrame(
        request.id, ErrorCode::kOverloaded,
        "daemon is draining; not accepting admin frames"));
    return;
  }
  // Blocks the admin thread through the shard's drain; the ack reports
  // what the drain did. Solve terminals never wait on an admin thread, so
  // this cannot deadlock — and this connection keeps reading meanwhile.
  Result<DetachOutcome> out = service_->Detach(request.name);
  if (!out.ok()) {
    EnqueueFromReader(EncodeErrorFrame(request.id, out.code(), out.error()));
    return;
  }
  stats_->Add(&DaemonStats::databases_detached);
  EnqueueFromReader(EncodeDetachAckFrame(request.id, request.name, out->shed,
                                         out->drained));
}

void Connection::HandleApplyDelta(const WireRequest& request) {
  if (draining_.load()) {
    EnqueueFromReader(EncodeErrorFrame(
        request.id, ErrorCode::kOverloaded,
        "daemon is draining; not accepting admin frames"));
    return;
  }
  FactDelta delta;
  delta.id = request.delta_id;
  delta.ops = request.ops;
  // Write-ahead contract lives in the service: by the time this ack is
  // enqueued the delta is journaled (when durability is on) and the new
  // epoch published — a client that sees the ack can rely on the mutation
  // surviving a crash.
  Result<DeltaOutcome> out = service_->ApplyDelta(request.db, delta);
  if (!out.ok()) {
    stats_->Add(&DaemonStats::deltas_rejected);
    EnqueueFromReader(EncodeErrorFrame(request.id, out.code(), out.error()));
    return;
  }
  stats_->Add(&DaemonStats::deltas_applied);
  EnqueueFromReader(EncodeDeltaAckFrame(request.id, *out));
}

void Connection::HandleSnapshot(const WireRequest& request) {
  if (draining_.load()) {
    EnqueueFromReader(EncodeErrorFrame(
        request.id, ErrorCode::kOverloaded,
        "daemon is draining; not accepting admin frames"));
    return;
  }
  // Flushes pending group acks, dumps the epoch's facts atomically, then
  // truncates the journal — bounded-time recovery for the next attach.
  Result<SnapshotOutcome> out = service_->Snapshot(request.db);
  if (!out.ok()) {
    EnqueueFromReader(EncodeErrorFrame(request.id, out.code(), out.error()));
    return;
  }
  EnqueueFromReader(EncodeSnapshotAckFrame(request.id, *out));
}

void Connection::HandlePromote(const WireRequest& request) {
  if (!options_.promote_hook) {
    EnqueueFromReader(EncodeErrorFrame(
        request.id, ErrorCode::kUnsupported,
        "this daemon has no failover hook; promote is only meaningful on "
        "a daemon started with --follow"));
    return;
  }
  Result<bool> was_follower = options_.promote_hook();
  if (!was_follower.ok()) {
    EnqueueFromReader(EncodeErrorFrame(request.id, was_follower.code(),
                                       was_follower.error()));
    return;
  }
  EnqueueFromReader(EncodePromoteAckFrame(request.id, *was_follower));
}

void Connection::HandleReplicate(const WireRequest& request) {
  {
    std::lock_guard<std::mutex> lock(repl_state_mu_);
    if (repl_token_ != 0) {
      EnqueueFromReader(EncodeErrorFrame(
          request.id, ErrorCode::kUnsupported,
          "a replication stream is already open on this connection"));
      return;
    }
  }
  stats_->Add(&DaemonStats::repl_streams_opened);
  // AddReplicationListener synchronously feeds the bootstrap snapshot of
  // every attached database through OnReplicationEvent before returning,
  // so by the time the token is published the follower's resync is already
  // queued — and every later delta frame follows its bootstrap.
  auto self = shared_from_this();
  uint64_t token = service_->AddReplicationListener(
      [self](const ReplicationEvent& event) {
        self->OnReplicationEvent(event);
      });
  std::lock_guard<std::mutex> lock(repl_state_mu_);
  repl_token_ = token;
}

void Connection::HandleReplicaAck(const WireRequest& request) {
  uint64_t outstanding = 0;
  bool active;
  {
    std::lock_guard<std::mutex> lock(repl_state_mu_);
    active = repl_token_ != 0;
    if (request.seq > repl_acked_seq_) {
      // Cumulative, and never past what was actually sent.
      repl_acked_seq_ = std::min(request.seq, repl_next_seq_);
    }
    outstanding = repl_next_seq_ - repl_acked_seq_;
  }
  if (active) {
    stats_->Add(&DaemonStats::repl_acks_received);
    stats_->Set(&DaemonStats::repl_lag, outstanding);
  }
}

void Connection::OnReplicationEvent(const ReplicationEvent& event) {
  uint64_t seq;
  uint64_t outstanding;
  {
    std::lock_guard<std::mutex> lock(repl_state_mu_);
    seq = ++repl_next_seq_;
    outstanding = repl_next_seq_ - repl_acked_seq_;
  }
  stats_->Add(&DaemonStats::repl_events_sent);
  stats_->Set(&DaemonStats::repl_lag, outstanding);
  // Worker-path enqueue: never blocks the applier holding the delta lock.
  // A follower that stops reading is bounded by the write deadline, which
  // aborts this connection and thereby unsubscribes the stream.
  EnqueueFromWorker(EncodeReplicationEventFrame(seq, event));
}

void Connection::HandleList(const WireRequest& request) {
  std::vector<WireDbEntry> entries;
  for (const ShardedSolveService::Entry& entry : service_->List()) {
    entries.push_back(ToWireEntry(entry));
  }
  EnqueueFromReader(EncodeDbListFrame(request.id, entries));
}

void Connection::HandleSolve(WireRequest request) {
  const uint64_t id = request.id;
  if (draining_.load()) {
    stats_->Add(&DaemonStats::solves_rejected_overloaded);
    EnqueueFromReader(EncodeErrorFrame(
        id, ErrorCode::kOverloaded, "daemon is draining; not accepting work"));
    return;
  }
  enum class Reject { kNone, kDuplicate, kInflightCap };
  Reject reject;
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    if (inflight_.count(id) > 0) {
      reject = Reject::kDuplicate;
    } else if (inflight_.size() >= options_.max_inflight) {
      reject = Reject::kInflightCap;
    } else {
      reject = Reject::kNone;
      // Pre-insert before Submit so the terminal callback — which can fire
      // on a worker thread before Submit even returns — always finds the
      // entry to erase. The placeholder shard/service id is fixed up
      // below; only this reader thread reads the map until then.
      inflight_.emplace(id, InflightSolve{});
    }
  }
  if (reject == Reject::kDuplicate) {
    // Reusing an in-flight id would make "exactly one terminal frame per
    // id" ambiguous; reject the new frame, keep the old request.
    EnqueueFromReader(EncodeErrorFrame(
        id, ErrorCode::kParse,
        "duplicate id: a solve with this id is already in flight"));
    return;
  }
  if (reject == Reject::kInflightCap) {
    stats_->Add(&DaemonStats::solves_rejected_inflight_cap);
    EnqueueFromReader(
        EncodeErrorFrame(id, ErrorCode::kOverloaded,
                         "per-connection in-flight cap (" +
                             std::to_string(options_.max_inflight) +
                             ") reached"));
    return;
  }

  Result<Query> query = ParseQuery(request.query);
  if (!query.ok()) {
    // A well-formed frame carrying an unparsable query is a request-level
    // failure: it gets its terminal error frame and does not count toward
    // the consecutive-garbage limit.
    {
      std::lock_guard<std::mutex> lock(inflight_mu_);
      inflight_.erase(id);
    }
    EnqueueFromReader(EncodeErrorFrame(id, query.code(), query.error()));
    return;
  }

  // The shard's database is filled in by the sharded service when the
  // frame's "db" name (empty ⇒ default instance) resolves.
  ServeJob job(std::move(*query), nullptr, std::move(request.spec));

  auto self = shared_from_this();
  std::string resolved_db;
  Result<uint64_t> submitted = service_->Submit(
      request.db, std::move(job),
      [self, id](const ServeResponse& response) {
        self->SolveCallback(id, response);
      },
      &resolved_db);
  if (!submitted.ok()) {
    {
      std::lock_guard<std::mutex> lock(inflight_mu_);
      inflight_.erase(id);
    }
    if (submitted.code() == ErrorCode::kDetached) {
      stats_->Add(&DaemonStats::solves_rejected_detached);
    } else {
      stats_->Add(&DaemonStats::solves_rejected_overloaded);
    }
    EnqueueFromReader(EncodeErrorFrame(id, submitted.code(), submitted.error()));
    return;
  }
  stats_->Add(&DaemonStats::solves_admitted);
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    auto it = inflight_.find(id);
    // Absent means the terminal callback already fired and erased the
    // pre-inserted entry; do not resurrect it.
    if (it != inflight_.end()) {
      it->second.db = resolved_db;
      it->second.service_id = *submitted;
    }
  }
}

void Connection::SolveCallback(uint64_t client_id,
                               const ServeResponse& response) {
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    inflight_.erase(client_id);
  }
  std::string frame;
  if (response.state == RequestState::kCancelled) {
    frame = EncodeCancelledFrame(
        client_id,
        response.result.ok() ? "cancelled" : response.result.error());
  } else if (response.result.ok()) {
    frame = EncodeResultFrame(client_id, *response.result, response.attempts,
                              response.latency);
  } else {
    frame = EncodeErrorFrame(client_id, response.result.code(),
                             response.result.error());
  }
  EnqueueFromWorker(std::move(frame));
}

void Connection::HandleAnswers(WireRequest request) {
  const uint64_t id = request.id;
  if (draining_.load()) {
    stats_->Add(&DaemonStats::solves_rejected_overloaded);
    EnqueueFromReader(EncodeErrorFrame(
        id, ErrorCode::kOverloaded, "daemon is draining; not accepting work"));
    return;
  }
  Result<Query> query = ParseQuery(request.query);
  if (!query.ok()) {
    EnqueueFromReader(EncodeErrorFrame(id, query.code(), query.error()));
    return;
  }
  // Admission: one client id addresses one request — solve or stream —
  // and streams share the per-connection in-flight cap with solves (a
  // stream occupies a slot for its whole life, chunk in flight or not).
  // Only this reader thread inserts into either map, so the two-map check
  // cannot race another admission.
  enum class Reject { kNone, kDuplicate, kInflightCap };
  Reject reject = Reject::kNone;
  const bool resumed = !request.cursor.empty();
  size_t solves_inflight;
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    solves_inflight = inflight_.size();
    if (inflight_.count(id) > 0) reject = Reject::kDuplicate;
  }
  if (reject == Reject::kNone) {
    std::lock_guard<std::mutex> lock(streams_mu_);
    if (streams_.count(id) > 0) {
      reject = Reject::kDuplicate;
    } else if (solves_inflight + streams_.size() >= options_.max_inflight) {
      reject = Reject::kInflightCap;
    } else {
      AnswerStream stream(
          ServeJob(std::move(*query), nullptr, std::move(request.spec)));
      stream.db = request.db;
      stream.job.kind = JobKind::kAnswers;
      stream.job.free_vars = std::move(request.free_vars);
      stream.job.answer_max_chunk =
          request.max_chunk == 0 ? 64
                                 : std::min<uint64_t>(request.max_chunk, 8192);
      stream.job.cursor = std::move(request.cursor);
      stream.started = std::chrono::steady_clock::now();
      streams_.emplace(id, std::move(stream));
    }
  }
  if (reject == Reject::kDuplicate) {
    EnqueueFromReader(EncodeErrorFrame(
        id, ErrorCode::kParse,
        "duplicate id: a request with this id is already in flight"));
    return;
  }
  if (reject == Reject::kInflightCap) {
    stats_->Add(&DaemonStats::solves_rejected_inflight_cap);
    EnqueueFromReader(
        EncodeErrorFrame(id, ErrorCode::kOverloaded,
                         "per-connection in-flight cap (" +
                             std::to_string(options_.max_inflight) +
                             ") reached"));
    return;
  }
  stats_->Add(&DaemonStats::answers_streams);
  if (resumed) stats_->Add(&DaemonStats::answers_resumed);
  SubmitAnswerChunk(id);
}

void Connection::SubmitAnswerChunk(uint64_t client_id) {
  auto self = shared_from_this();
  for (;;) {
    std::optional<ServeJob> job;
    std::string db_name;
    bool cancelled_idle = false;
    bool drained = false;
    {
      std::lock_guard<std::mutex> lock(streams_mu_);
      auto it = streams_.find(client_id);
      if (it == streams_.end()) return;
      AnswerStream& s = it->second;
      if (s.in_submit) return;  // another thread owns the trampoline
      if (s.cancelled || draining_.load()) {
        cancelled_idle = s.cancelled;
        drained = !s.cancelled;
        if (s.parked) parked_streams_.fetch_sub(1);
        streams_.erase(it);
      } else {
        s.in_submit = true;
        s.has_pending = false;
        db_name = s.db;
        job.emplace(s.job);
      }
    }
    if (cancelled_idle) {
      EnqueueFromWorker(
          EncodeCancelledFrame(client_id, "cancelled between answer chunks"));
      return;
    }
    if (drained) {
      EnqueueFromWorker(EncodeErrorFrame(
          client_id, ErrorCode::kOverloaded,
          "daemon is draining; answer stream ended mid-way (resume with the "
          "last cursor elsewhere)"));
      return;
    }
    std::string resolved_db;
    Result<uint64_t> submitted = service_->Submit(
        db_name, std::move(*job),
        [self, client_id](const ServeResponse& response) {
          self->AnswersCallback(client_id, response);
        },
        &resolved_db);
    if (!submitted.ok()) {
      // Typed refusal at admission: stale cursor (the epoch flipped under
      // the stream), overload, or a detached database. This is the
      // stream's terminal.
      if (submitted.code() == ErrorCode::kStaleCursor) {
        stats_->Add(&DaemonStats::answers_stale_cursors);
      }
      {
        std::lock_guard<std::mutex> lock(streams_mu_);
        auto it = streams_.find(client_id);
        if (it != streams_.end()) streams_.erase(it);
      }
      EnqueueFromWorker(
          EncodeErrorFrame(client_id, submitted.code(), submitted.error()));
      return;
    }
    bool cancel_race = false;
    ServeResponse pending;
    bool process_inline = false;
    {
      std::lock_guard<std::mutex> lock(streams_mu_);
      auto it = streams_.find(client_id);
      if (it == streams_.end()) return;  // unreachable: in_submit pins it
      AnswerStream& s = it->second;
      s.db = resolved_db;
      s.in_submit = false;
      if (s.has_pending) {
        // The chunk completed synchronously (warm cache) inside Submit;
        // process it here and keep looping instead of recursing.
        pending = std::move(s.pending);
        s.has_pending = false;
        process_inline = true;
      } else {
        s.service_id = *submitted;
        cancel_race = s.cancelled;
      }
    }
    if (cancel_race) {
      // A cancel slipped in while the job was being submitted; chase it.
      service_->Cancel(resolved_db, *submitted);
      return;
    }
    if (!process_inline) return;  // the worker callback drives from here
    if (!ProcessAnswerResponse(client_id, pending)) return;
  }
}

void Connection::AnswersCallback(uint64_t client_id,
                                 const ServeResponse& response) {
  {
    std::lock_guard<std::mutex> lock(streams_mu_);
    auto it = streams_.find(client_id);
    if (it == streams_.end()) return;
    if (it->second.in_submit) {
      // Synchronous delivery inside service_->Submit: stash for the
      // SubmitAnswerChunk loop (recursing here would stack one frame per
      // warm chunk).
      it->second.pending = response;
      it->second.has_pending = true;
      return;
    }
  }
  if (ProcessAnswerResponse(client_id, response)) {
    SubmitAnswerChunk(client_id);
  }
}

bool Connection::ProcessAnswerResponse(uint64_t client_id,
                                       const ServeResponse& response) {
  std::vector<std::string> frames;
  bool submit_next = false;
  {
    std::lock_guard<std::mutex> lock(streams_mu_);
    auto it = streams_.find(client_id);
    if (it == streams_.end()) return false;
    AnswerStream& s = it->second;
    s.service_id = 0;
    if (response.state == RequestState::kCancelled) {
      frames.push_back(EncodeCancelledFrame(
          client_id,
          response.result.ok() ? "cancelled" : response.result.error()));
      streams_.erase(it);
    } else if (!response.result.ok()) {
      if (response.result.code() == ErrorCode::kStaleCursor) {
        stats_->Add(&DaemonStats::answers_stale_cursors);
      }
      frames.push_back(EncodeErrorFrame(client_id, response.result.code(),
                                        response.result.error()));
      streams_.erase(it);
    } else if (s.cancelled) {
      // The chunk won a race against a cancel; honor the cancel (the
      // stream's terminal must be "cancelled", and the client asked to
      // stop reading anyway).
      frames.push_back(EncodeCancelledFrame(client_id, "cancelled"));
      streams_.erase(it);
    } else if (response.result->answer_chunk == nullptr) {
      frames.push_back(EncodeErrorFrame(client_id, ErrorCode::kInternal,
                                        "answers job returned no chunk"));
      streams_.erase(it);
    } else {
      const AnswerChunk& chunk = *response.result->answer_chunk;
      frames.push_back(
          EncodeAnswerChunkFrame(client_id, chunk, response.answer_cursor));
      stats_->Add(&DaemonStats::answer_chunks_sent);
      stats_->Add(&DaemonStats::answer_tuples_sent, chunk.answers.size());
      s.answers += chunk.answers.size();
      ++s.chunks;
      if (chunk.done) {
        auto latency = std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - s.started);
        frames.push_back(EncodeAnswerDoneFrame(client_id, s.answers,
                                               chunk.total, s.chunks,
                                               latency));
        streams_.erase(it);
      } else if (response.answer_cursor.empty()) {
        frames.push_back(
            EncodeErrorFrame(client_id, ErrorCode::kInternal,
                             "unfinished chunk carried no resume cursor"));
        streams_.erase(it);
      } else {
        s.job.cursor = response.answer_cursor;
        // Write-deadline backpressure, stream-shaped: past the outbound
        // soft cap the stream parks — nothing queued, nothing running,
        // no worker pinned — until the writer drains below the cap. A
        // consumer that never reads is bounded by the write deadline,
        // which aborts the connection and drops the parked stream.
        size_t queued;
        {
          std::lock_guard<std::mutex> out_lock(out_mu_);
          queued = outbound_.size();
        }
        if (queued >= options_.outbound_soft_cap) {
          s.parked = true;
          parked_streams_.fetch_add(1);
        } else {
          submit_next = true;
        }
      }
    }
  }
  for (std::string& frame : frames) EnqueueFromWorker(std::move(frame));
  return submit_next;
}

void Connection::ResumeParkedStreams() {
  if (parked_streams_.load() == 0) return;
  std::vector<uint64_t> resume;
  {
    std::lock_guard<std::mutex> lock(streams_mu_);
    for (auto& [id, s] : streams_) {
      if (s.parked && !s.in_submit) {
        s.parked = false;
        parked_streams_.fetch_sub(1);
        resume.push_back(id);
      }
    }
  }
  for (uint64_t id : resume) SubmitAnswerChunk(id);
}

void Connection::EnqueueFromWorker(std::string payload) {
  std::string frame = EncodeFrame(payload);
  {
    std::lock_guard<std::mutex> lock(out_mu_);
    if (out_closed_) return;  // client is gone; nothing to deliver to
    outbound_.push_back(std::move(frame));
  }
  out_ready_cv_.notify_one();
}

void Connection::EnqueueFromReader(std::string payload) {
  std::string frame = EncodeFrame(payload);
  std::unique_lock<std::mutex> lock(out_mu_);
  // Backpressure: the reader stalls (stopping further reads → the TCP
  // window fills → the client's sends block) until the writer catches up
  // or the connection dies. The writer's own write deadline bounds this.
  out_space_cv_.wait(lock, [&] {
    return out_closed_ || out_finishing_ ||
           outbound_.size() < options_.outbound_soft_cap;
  });
  if (out_closed_) return;
  outbound_.push_back(std::move(frame));
  lock.unlock();
  out_ready_cv_.notify_one();
}

void Connection::WriterLoop() {
  for (;;) {
    std::string frame;
    {
      std::unique_lock<std::mutex> lock(out_mu_);
      out_ready_cv_.wait(lock, [&] {
        return !outbound_.empty() || out_closed_ || out_finishing_;
      });
      if (out_closed_) break;
      if (outbound_.empty()) break;  // finishing and fully flushed
      frame = std::move(outbound_.front());
      outbound_.pop_front();
    }
    out_space_cv_.notify_all();
    if (parked_streams_.load() > 0) {
      bool room;
      {
        std::lock_guard<std::mutex> lock(out_mu_);
        room = outbound_.size() < options_.outbound_soft_cap;
      }
      if (room) ResumeParkedStreams();
    }
    Result<size_t> w =
        WriteAll(socket_, frame.data(), frame.size(), options_.write_deadline);
    if (!w.ok()) {
      // Slow or dead reader past the write deadline: the stream is no
      // longer frame-aligned; drop the connection.
      Abort(CloseReason::kError);
      break;
    }
  }
  // Nothing more will ever be written: fail fast any producer still
  // enqueueing and let the peer see EOF.
  {
    std::lock_guard<std::mutex> lock(out_mu_);
    out_closed_ = true;
    outbound_.clear();
  }
  out_space_cv_.notify_all();
  socket_.ShutdownBoth();
}

}  // namespace cqa
