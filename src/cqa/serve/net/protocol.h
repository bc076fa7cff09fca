#ifndef CQA_SERVE_NET_PROTOCOL_H_
#define CQA_SERVE_NET_PROTOCOL_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cqa/answers/answer_chunk.h"
#include "cqa/base/result.h"
#include "cqa/certainty/solver.h"
#include "cqa/delta/delta.h"
#include "cqa/registry/sharded_service.h"
#include "cqa/serve/net/json.h"
#include "cqa/serve/service.h"
#include "cqa/serve/stats.h"

namespace cqa {

/// Wire protocol of the solve daemon (see docs/SERVING.md for the spec).
/// One JSON object per newline-delimited frame, in both directions.
///
/// Requests: {"type":"solve","id":N,"query":"...",...}, plus "health",
/// "stats" and "cancel", and the registry admin frames "attach", "detach",
/// "list" and "apply_delta". Responses echo the client-chosen id; every
/// accepted solve receives exactly one terminal frame ("result", "error"
/// or "cancelled").

enum class WireRequestType {
  kSolve,
  kAnswers,
  kHealth,
  kStats,
  kCancel,
  kAttach,
  kDetach,
  kList,
  kApplyDelta,
  kSnapshot,
  kPromote,
  kReplicate,
  kReplicaAck,
};

struct WireRequest {
  WireRequestType type = WireRequestType::kHealth;
  /// Client-chosen correlation id; required for solve, cancel, attach and
  /// detach.
  uint64_t id = 0;

  // --- solve fields ---
  std::string query;
  /// Registry name of the database to solve against; empty (the field
  /// absent) routes to the daemon's default instance — the pre-registry
  /// protocol unchanged.
  std::string db;
  /// Execution settings, decoded straight into the job spec the service
  /// runs ("timeout_ms", "max_steps", "method", "degrade_to_sampling",
  /// "max_samples", "deadline_from_submit", "parallelism", "isolation",
  /// "cache", and the test knobs "fail_after_probes", "crash_after_probes",
  /// "hog_mb_per_probe", "wedge_after_probes", "fault_attempts",
  /// "chaos_sleep_ms"). Solve and answers frames both honour it. See
  /// docs/SERVING.md.
  JobSpec spec;

  // --- answers fields ---
  /// Free variables of the answer query, in output-tuple order (required,
  /// non-empty, for "answers" frames).
  std::vector<std::string> free_vars;
  /// "max_chunk": answers per answer_chunk frame; 0 (or absent) takes the
  /// daemon default. The daemon clamps hostile values.
  uint64_t max_chunk = 0;
  /// "cursor": opaque resume cursor from a previous answer_chunk frame;
  /// empty starts the stream at position zero.
  std::string cursor;

  // --- cancel fields ---
  /// The id of the in-flight solve to cancel.
  uint64_t target = 0;

  // --- attach / detach fields ---
  /// Database name to attach or detach (see ShardedSolveService::ValidName).
  std::string name;
  /// Inline fact text in the `ParseFacts` grammar; the attached database
  /// is built from it (the daemon never reads files on behalf of clients).
  std::string facts;

  // --- apply_delta fields ---
  /// Client-chosen idempotency token (1-128 bytes): retrying the same
  /// delta after a lost ack is safe — the daemon acknowledges without
  /// re-applying. Routed by `db` like solve frames (empty ⇒ default).
  std::string delta_id;
  std::vector<DeltaOp> ops;

  // --- replica_ack fields ---
  /// Stream sequence number of the replication event being acknowledged
  /// (cumulative: acking N acks everything up to N).
  uint64_t seq = 0;
};

/// Decodes one request frame. Failures are typed: `kParse` for malformed
/// JSON or missing/mistyped fields, `kUnsupported` for an unknown request
/// type or solver method. Either way the *frame* failed, not the
/// connection — the daemon answers with an error frame and keeps reading
/// (up to its consecutive-garbage limit).
Result<WireRequest> DecodeRequest(const std::string& frame);

/// The `DaemonStats` fields, one row each: X(name, kind). Like
/// `CQA_SERVICE_STATS`, the rows drive the struct's members,
/// `kDaemonStatFields` and the stats frame's `daemon` object; adding a
/// counter means one row here plus its increment site.
///
/// Connections close on N consecutive bad frames (garbage), a frame over
/// the cap (oversize), an idle or read-deadline timeout (idle), or a write
/// timeout or socket error (error). `solves_rejected_overloaded` counts
/// service queue sheds and draining refusals; `solves_rejected_detached`
/// solves naming an unknown or detaching "db".
///
/// Answer streams: `answers_streams` counts streams opened, resumed ones
/// included (`answers_resumed` is the sub-count that started from a
/// client-supplied cursor); chunks/tuples count answer_chunk frames
/// actually enqueued to clients; stale counts streams refused or ended
/// with a stale-cursor error.
///
/// Live updates: applied counts acked mutations (idempotent replays of an
/// already-applied delta id included — the ack is the contract), rejected
/// counts validation/journal failures.
///
/// Replication, primary side: one stream per `replicate` frame accepted.
/// `repl_lag` is events sent minus cumulative acks received, set by the
/// latest event or ack (last writer wins: exact for a single steady
/// follower, approximate across stream restarts) and reset once no stream
/// is live. Follower side (all zero on a primary): connects, disconnects,
/// snapshots and deltas applied, apply errors.
///
/// The stats frame's `daemon` object also repeats the aggregate service's
/// `sandbox_*` fields: they are owned by the service layer but read as
/// daemon-level operational signals.
#define CQA_DAEMON_STATS(X)                 \
  X(connections_opened, kCounter)           \
  X(connections_active, kGauge)             \
  X(connections_closed_garbage, kCounter)   \
  X(connections_closed_oversize, kCounter)  \
  X(connections_closed_idle, kCounter)      \
  X(connections_closed_error, kCounter)     \
  X(frames_received, kCounter)              \
  X(frames_garbage, kCounter)               \
  X(solves_admitted, kCounter)              \
  X(solves_rejected_inflight_cap, kCounter) \
  X(solves_rejected_overloaded, kCounter)   \
  X(answers_streams, kCounter)              \
  X(answers_resumed, kCounter)              \
  X(answer_chunks_sent, kCounter)           \
  X(answer_tuples_sent, kCounter)           \
  X(answers_stale_cursors, kCounter)        \
  X(databases_attached, kCounter)           \
  X(databases_detached, kCounter)           \
  X(solves_rejected_detached, kCounter)     \
  X(deltas_applied, kCounter)               \
  X(deltas_rejected, kCounter)              \
  X(repl_streams_opened, kCounter)          \
  X(repl_streams_closed, kCounter)          \
  X(repl_events_sent, kCounter)             \
  X(repl_acks_received, kCounter)           \
  X(repl_lag, kGauge)                       \
  X(follower_connects, kCounter)            \
  X(follower_disconnects, kCounter)         \
  X(follower_snapshots_applied, kCounter)   \
  X(follower_deltas_applied, kCounter)      \
  X(follower_apply_errors, kCounter)

/// Daemon-level counters, exposed through "stats" frames next to the
/// embedded `ServiceStats`; see `CQA_DAEMON_STATS` for the fields.
struct DaemonStats {
  CQA_DAEMON_STATS(CQA_STAT_MEMBER)
};

#define CQA_DAEMON_STAT_FIELD(name, kind) \
  {#name, &DaemonStats::name, StatKind::kind},
inline constexpr StatField<DaemonStats> kDaemonStatFields[] = {
    CQA_DAEMON_STATS(CQA_DAEMON_STAT_FIELD)};
#undef CQA_DAEMON_STAT_FIELD

/// One attached instance as reported by db_list frames and attach acks.
struct WireDbEntry {
  std::string name;
  std::string fingerprint;  // 32 hex chars (DbFingerprint::ToHex)
  uint64_t facts = 0;
  uint64_t blocks = 0;
  bool is_default = false;
};

// --- response encoders (daemon side) ---

std::string EncodeResultFrame(uint64_t id, const SolveReport& report,
                              int attempts, std::chrono::microseconds latency);
/// One chunk of an answer stream: the tuples (array of arrays of value
/// names, in canonical order), the chunk's span ([start, next) of total
/// flat positions) and, when the stream has more to read, the opaque
/// resume `cursor`. Not a terminal frame.
std::string EncodeAnswerChunkFrame(uint64_t id, const AnswerChunk& chunk,
                                   const std::string& cursor);
/// The stream's terminal: totals over every chunk delivered on this
/// stream. Exactly one of answer_done / error / cancelled ends a stream.
std::string EncodeAnswerDoneFrame(uint64_t id, uint64_t answers,
                                  uint64_t candidates, uint64_t chunks,
                                  std::chrono::microseconds latency);
std::string EncodeErrorFrame(std::optional<uint64_t> id, ErrorCode code,
                             const std::string& message, bool fatal = false);
std::string EncodeCancelledFrame(uint64_t id, const std::string& message);
/// `follower` reports the daemon's role ("role":"follower" vs "primary") so
/// health probes can tell a warm standby from a writable primary.
std::string EncodeHealthFrame(uint64_t id, bool draining,
                              bool follower = false);
/// `per_db` breaks the service counters out per attached database (keyed
/// by registry name) under a "databases" object, so operators can see
/// which instance is cold; `service` stays the cross-shard aggregate.
std::string EncodeStatsFrame(
    uint64_t id, const ServiceStats& service, const DaemonStats& daemon,
    const std::vector<std::pair<std::string, ServiceStats>>& per_db = {});
std::string EncodeCancelAckFrame(uint64_t id, uint64_t target, bool found);
std::string EncodeAttachAckFrame(uint64_t id, const WireDbEntry& entry);
std::string EncodeDetachAckFrame(uint64_t id, const std::string& name,
                                 uint64_t shed, bool drained);
std::string EncodeDbListFrame(uint64_t id,
                              const std::vector<WireDbEntry>& entries);
/// Ack for an accepted apply_delta (rejections use error frames). Carries
/// the post-delta epoch and fingerprint so clients can chain optimistic
/// checks; `applied:false` flags an idempotent replay.
std::string EncodeDeltaAckFrame(uint64_t id, const DeltaOutcome& outcome);
/// Ack for `admin snapshot`: the epoch captured and the journal bytes the
/// compaction reclaimed.
std::string EncodeSnapshotAckFrame(uint64_t id,
                                   const SnapshotOutcome& outcome);
/// Ack for `admin promote`; `was_follower` is false when the daemon was
/// already writable (promote is idempotent).
std::string EncodePromoteAckFrame(uint64_t id, bool was_follower);

// --- replication stream frames (primary -> follower) ---
//
// A follower opens a normal client connection and sends
// {"type":"replicate","id":N}; from then on the primary pushes one frame
// per replication event, each carrying a connection-scoped monotonically
// increasing "seq" the follower acknowledges with
// {"type":"replica_ack","seq":N} (cumulative). Frame types: "repl_snapshot"
// (the kAttach bootstrap: full facts + epoch + fingerprint + idempotency
// window), "repl_delta" (one delta with its post-apply epoch/fingerprint)
// and "repl_detach".

/// Encodes `event` as its stream frame. `seq` is the stream sequence.
std::string EncodeReplicationEventFrame(uint64_t seq,
                                        const ReplicationEvent& event);

/// A decoded replication stream frame (follower side).
struct ReplFrame {
  uint64_t seq = 0;
  ReplicationEvent event;
};

/// Decodes one "repl_*" frame; `kParse` on anything malformed and
/// `kUnsupported` for a non-replication frame type.
Result<ReplFrame> DecodeReplicationFrame(const std::string& frame);

// --- response decoding (client side) ---

struct WireResponse {
  std::string type;  // "result" | "error" | "cancelled" | "health" |
                     // "stats" | "cancel_ack"
  uint64_t id = 0;
  // result
  std::string verdict;
  double confidence = 0.0;
  uint64_t samples = 0;
  int64_t attempts = 0;
  uint64_t latency_us = 0;
  // error
  std::string code;
  std::string message;
  bool fatal = false;
  // health
  std::string status;
  // cancel_ack
  uint64_t target = 0;
  bool found = false;
  // answer_chunk / answer_done
  std::vector<std::vector<std::string>> tuples;
  std::string cursor;    // empty on the stream's last chunk
  uint64_t start = 0;    // first flat position of this chunk
  uint64_t next = 0;     // resume position (== start of the next chunk)
  uint64_t total = 0;    // flat candidate-space size
  uint64_t answers = 0;  // answer_done: tuples across the whole stream
  uint64_t chunks = 0;   // answer_done: chunk frames delivered
  /// The full parsed payload (stats frames are read through this).
  Json raw;
};

Result<WireResponse> DecodeResponse(const std::string& frame);

/// True iff the response type is a terminal answer to a solve or answers
/// request ("answer_chunk" is deliberately absent: chunks are mid-stream).
inline bool IsTerminalResponseType(const std::string& type) {
  return type == "result" || type == "error" || type == "cancelled" ||
         type == "answer_done";
}

}  // namespace cqa

#endif  // CQA_SERVE_NET_PROTOCOL_H_
