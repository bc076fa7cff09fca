#ifndef CQA_SERVE_NET_CONNECTION_H_
#define CQA_SERVE_NET_CONNECTION_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>

#include "cqa/base/net.h"
#include "cqa/registry/sharded_service.h"
#include "cqa/serve/net/framing.h"
#include "cqa/serve/net/protocol.h"
#include "cqa/serve/service.h"

namespace cqa {

/// Fault-handling knobs of one daemon connection. Every limit exists to
/// keep a single misbehaving client from wedging the daemon: slowloris
/// writers hit the partial-frame read deadline, silent clients the idle
/// timeout, stalled readers the write deadline, and floods the per-
/// connection in-flight cap.
struct ConnectionOptions {
  /// Hard cap on one frame; exceeding it is unrecoverable (the stream can
  /// no longer be resynchronized) and closes the connection.
  size_t max_frame_bytes = 1 << 20;
  /// Consecutive undecodable frames tolerated before the connection is
  /// closed as hostile. A single garbage frame only fails that frame.
  int max_consecutive_garbage = 3;
  /// Cap on solve requests in flight per connection; beyond it new solves
  /// are answered with a typed `overloaded` error frame.
  size_t max_inflight = 16;
  /// Connection with no traffic at all for this long is closed.
  std::chrono::milliseconds idle_timeout{300'000};
  /// A started-but-unterminated frame older than this closes the
  /// connection (read deadline).
  std::chrono::milliseconds read_deadline{30'000};
  /// Total time allowed to write one response frame to a slow reader.
  std::chrono::milliseconds write_deadline{30'000};
  /// Reader-generated frames (errors, health, stats) buffered before the
  /// reader blocks — slow readers backpressure the connection's own
  /// reader, never the service workers.
  size_t outbound_soft_cap = 64;
  /// Admin frames (attach / detach / apply_delta) queued for the admin
  /// thread before new ones are rejected with a typed `overloaded` error.
  /// Bounds the memory a client can park in inline fact payloads.
  size_t max_admin_queue = 8;
  /// Poll slice for the reader loop; bounds shutdown latency.
  std::chrono::milliseconds poll_slice{50};
  /// Failover hook behind the `promote` admin frame: flips the daemon from
  /// read-only follower to writable primary (stopping its replication
  /// client) and returns whether it actually was a follower. Unset (the
  /// default) answers promote frames with `kUnsupported`.
  std::function<Result<bool>()> promote_hook;
};

/// Why a connection ended (recorded in `DaemonStats`).
enum class CloseReason {
  kOpen,      // not closed yet
  kClientEof, // orderly client disconnect
  kGarbage,   // too many consecutive undecodable frames
  kOversize,  // a frame exceeded max_frame_bytes
  kIdle,      // idle timeout or partial-frame read deadline
  kError,     // socket error or write deadline
  kDrain,     // daemon shutdown
};

class DaemonStatsCollector;

/// One accepted client connection: a reader thread that decodes frames and
/// bridges solve requests into the sharded solve service (routing by the
/// frame's `"db"` field), and a writer thread that owns all socket writes.
/// Worker callbacks only enqueue response frames (never block, never touch
/// the socket), so a slow or dead client cannot stall the solve workers.
/// The connection guarantees exactly one terminal frame (result / typed
/// error / cancellation notice) per decoded solve frame for as long as the
/// socket lives, and cancels every outstanding request the moment the
/// client disconnects.
///
/// Heavy admin frames (`attach`, `detach`, `apply_delta`) run on a
/// lazily-started per-connection admin thread: an attach pays for parsing
/// the facts and for the journal recovery, and a detach blocks through its
/// shard's drain before the ack is enqueued, but neither stalls unrelated
/// frames (solves, health, cancel) arriving on the same connection — the
/// reader only enqueues the admin request and keeps decoding. Ordering is
/// therefore ack-based, not read-your-writes: a client that attaches and
/// immediately solves against the new name must wait for the attach ack
/// first. Admin frames on one connection still execute one at a time in
/// arrival order, and the queue is bounded (`max_admin_queue`) so one
/// client cannot flood the registry. `list` is cheap and stays inline on
/// the reader.
class Connection : public std::enable_shared_from_this<Connection> {
 public:
  Connection(Socket socket, ShardedSolveService* service,
             ConnectionOptions options, DaemonStatsCollector* stats);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Spawns the reader and writer threads. Call once, on a shared_ptr-owned
  /// instance (callbacks keep the connection alive via shared_from_this).
  void Start();

  /// Daemon drain: stop admitting new solves (they get a typed overloaded
  /// error frame); reads and writes continue so in-flight results flush.
  void BeginDrain();

  /// Asks the connection to finish: the writer flushes what is queued and
  /// then closes the socket; the reader stops at its next poll slice.
  void FinishAfterFlush();

  /// Hard stop: shuts the socket down both ways (waking any blocked
  /// reader/writer) and abandons unflushed output.
  void ForceClose();

  /// True once every spawned thread has exited (reader, writer, and the
  /// admin thread if one was ever started) — the connection can be joined
  /// without blocking.
  bool finished() const {
    return threads_exited_.load() == expected_threads_.load();
  }

  /// Joins all threads; call after `finished()` or after ForceClose.
  void Join();

 private:
  void ReaderLoop();
  void WriterLoop();
  void AdminLoop();
  void HandleFrame(const std::string& frame);
  void HandleSolve(WireRequest request);
  /// Opens an answer stream: admission checks, query parse, stream-state
  /// insert, then the first chunk submission.
  void HandleAnswers(WireRequest request);
  /// Submits the stream's next chunk job to the service, looping on
  /// synchronous (warm-cache) completions instead of recursing: a chain of
  /// cache-hit chunks is a while loop here, not a call stack.
  void SubmitAnswerChunk(uint64_t client_id);
  /// Terminal callback of one chunk job. Runs on a worker thread, or
  /// synchronously inside Submit on a cache hit — in which case it only
  /// stashes the response for the SubmitAnswerChunk loop to process.
  void AnswersCallback(uint64_t client_id, const ServeResponse& response);
  /// Applies one chunk terminal to the stream: emits the chunk frame and
  /// either the stream terminal (done / error / cancelled) or parks the
  /// stream behind the outbound buffer. True iff the caller should submit
  /// the next chunk.
  bool ProcessAnswerResponse(uint64_t client_id,
                             const ServeResponse& response);
  /// Writer-side resume of streams parked behind the outbound soft cap.
  void ResumeParkedStreams();
  void HandleAttach(const WireRequest& request);
  void HandleDetach(const WireRequest& request);
  void HandleApplyDelta(const WireRequest& request);
  void HandleSnapshot(const WireRequest& request);
  void HandlePromote(const WireRequest& request);
  void HandleList(const WireRequest& request);
  /// Subscribes this connection to the replication stream: every event is
  /// pushed as one frame through the non-blocking worker enqueue path (a
  /// stalled follower is bounded by the write deadline, which drops the
  /// stream — never the daemon).
  void HandleReplicate(const WireRequest& request);
  void HandleReplicaAck(const WireRequest& request);
  /// Replication listener body: assigns the stream seq and enqueues the
  /// frame. Called under the emitting shard's delta lock; must not block.
  void OnReplicationEvent(const ReplicationEvent& event);
  void SolveCallback(uint64_t client_id, const ServeResponse& response);
  /// Reader-side handoff of an admin frame to the admin thread (started on
  /// first use). Full queue ⇒ typed `overloaded` error frame instead.
  void EnqueueAdmin(WireRequest request);

  /// Worker-side enqueue of a response payload (framed here): never
  /// blocks; drops the frame only if the connection is already closed
  /// (the client is gone).
  void EnqueueFromWorker(std::string payload);
  /// Reader- or admin-side enqueue: blocks (bounded by the writer's own
  /// deadline, and released by any close) when the outbound buffer is past
  /// the soft cap — this is the backpressure path for slow readers.
  void EnqueueFromReader(std::string payload);

  /// Records the close reason once (first cause wins); true on the first
  /// call, which also updates the daemon stats.
  bool RecordCloseReason(CloseReason reason);
  /// Stops the reader and new output, lets the writer flush what is queued
  /// (the path that delivers fatal error frames), then closes the socket.
  void CloseAfterFlush(CloseReason reason);
  /// Hard stop: drops unflushed output and shuts the socket down both
  /// ways, waking any blocked reader/writer.
  void Abort(CloseReason reason);
  /// Cancels every outstanding request of this connection.
  void CancelOutstanding();

  Socket socket_;
  ShardedSolveService* const service_;
  const ConnectionOptions options_;
  DaemonStatsCollector* const stats_;

  std::atomic<bool> draining_{false};
  std::atomic<bool> closing_{false};
  std::atomic<int> threads_exited_{0};
  /// 2 (reader + writer), bumped to 3 by the reader before it spawns the
  /// admin thread; `finished()` compares against this.
  std::atomic<int> expected_threads_{2};

  // Outbound frame buffer, owned by the writer.
  std::mutex out_mu_;
  std::condition_variable out_ready_cv_;  // writer waits for work
  std::condition_variable out_space_cv_;  // reader waits for room
  std::deque<std::string> outbound_;
  bool out_closed_ = false;     // socket dead: drop further frames
  bool out_finishing_ = false;  // flush what is queued, then exit

  // Where an admitted, unterminated solve lives: request ids are per
  // shard, so a solve is addressed by (resolved registry name, service
  // id) — both fixed up after Submit returns (the placeholder {., 0} can
  // never cancel anything: shard ids start at 1).
  struct InflightSolve {
    std::string db;
    uint64_t service_id = 0;
  };
  std::mutex inflight_mu_;
  std::unordered_map<uint64_t, InflightSolve> inflight_;

  // One live answer stream per client id. A stream is a chain of per-chunk
  // service jobs: between chunks nothing is queued or running anywhere —
  // a slow consumer parks the stream (parked=true) and pins only this
  // struct, never a worker. Streams count against `max_inflight` together
  // with plain solves.
  struct AnswerStream {
    explicit AnswerStream(ServeJob chunk_job) : job(std::move(chunk_job)) {}

    std::string db;  // resolved registry name (fixed after first submit)
    /// Template of every chunk job: query, free variables, chunk size and
    /// the frame's execution spec. `job.cursor` resumes the next chunk
    /// (empty = start of the stream); each chunk submits a copy.
    ServeJob job;
    /// Service id of the chunk job in flight (0 between chunks).
    uint64_t service_id = 0;
    uint64_t answers = 0;  // tuples delivered so far
    uint64_t chunks = 0;   // chunk frames delivered so far
    std::chrono::steady_clock::time_point started;
    /// Trampoline state: `in_submit` marks a SubmitAnswerChunk loop in
    /// progress on some thread; a synchronous callback stashes its
    /// response in `pending` instead of recursing.
    bool in_submit = false;
    bool has_pending = false;
    ServeResponse pending;
    /// Parked behind the outbound soft cap; resumed by the writer.
    bool parked = false;
    /// Cancel observed; the stream terminates at the next safe point.
    bool cancelled = false;
  };
  std::mutex streams_mu_;
  std::unordered_map<uint64_t, AnswerStream> streams_;
  /// Cheap writer-side check: > 0 iff some stream is parked.
  std::atomic<size_t> parked_streams_{0};

  // Reader-only state.
  FrameDecoder decoder_;
  int consecutive_garbage_ = 0;

  std::mutex close_mu_;
  CloseReason close_reason_ = CloseReason::kOpen;

  // Replication stream state (at most one stream per connection). The
  // token is cleared and the listener removed by the reader on its way
  // out, so no event can be enqueued after the connection is reaped.
  std::mutex repl_state_mu_;
  uint64_t repl_token_ = 0;     // 0 = no stream subscribed
  uint64_t repl_next_seq_ = 0;  // last seq assigned to an event
  uint64_t repl_acked_seq_ = 0; // highest cumulative ack received

  // Admin executor: attach / detach / apply_delta frames queue here and
  // run on `admin_` in arrival order, off the reader thread. The thread is
  // spawned by the reader on the first admin frame and exits when
  // `closing_` is set (pending frames are dropped — the socket is going
  // away, no ack could be delivered).
  std::mutex admin_mu_;
  std::condition_variable admin_cv_;
  std::deque<WireRequest> admin_queue_;
  bool admin_started_ = false;

  std::thread reader_;
  std::thread writer_;
  std::thread admin_;
};

}  // namespace cqa

#endif  // CQA_SERVE_NET_CONNECTION_H_
