#include "cqa/serve/net/replication.h"

#include <sys/socket.h>

#include <utility>
#include <vector>

#include "cqa/serve/net/framing.h"
#include "cqa/serve/net/json.h"
#include "cqa/serve/net/protocol.h"

namespace cqa {

ReplicationClient::ReplicationClient(ShardedSolveService* service,
                                     DaemonStatsCollector* stats,
                                     ReplicationClientOptions options)
    : service_(service), stats_(stats), options_(std::move(options)) {}

ReplicationClient::~ReplicationClient() { Stop(); }

void ReplicationClient::Start() {
  thread_ = std::thread([this] { Loop(); });
}

void ReplicationClient::Stop() {
  stop_.store(true, std::memory_order_release);
  // Wake a read blocked inside the live session, if any. The fd is only
  // shut down, never closed, from here — the session thread owns the
  // close, so the descriptor cannot be recycled under it.
  int fd = session_fd_.load(std::memory_order_acquire);
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
}

void ReplicationClient::Loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    RunSession();
    if (stop_.load(std::memory_order_acquire)) break;
    SleepBackoff();
  }
}

void ReplicationClient::SleepBackoff() {
  // Sliced so a Stop during the primary's downtime returns promptly.
  auto deadline = std::chrono::steady_clock::now() + options_.retry_backoff;
  while (!stop_.load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

Result<bool> ReplicationClient::SendPayload(const Socket& socket,
                                            const std::string& payload) {
  std::string frame = EncodeFrame(payload);
  Result<size_t> w =
      WriteAll(socket, frame.data(), frame.size(), options_.write_timeout);
  if (!w.ok()) return Result<bool>::Error(w);
  return true;
}

bool ReplicationClient::ApplyEvent(const ReplicationEvent& event) {
  switch (event.kind) {
    case ReplicationEvent::Kind::kAttach: {
      Result<bool> applied = service_->ApplyReplicaSnapshot(
          event.db, event.facts, event.epoch, event.fingerprint,
          event.delta_ids);
      if (!applied.ok()) {
        stats_->Add(&DaemonStats::follower_apply_errors);
        return false;
      }
      stats_->Add(&DaemonStats::follower_snapshots_applied);
      return true;
    }
    case ReplicationEvent::Kind::kDelta: {
      Result<DeltaOutcome> applied = service_->ApplyReplicatedDelta(
          event.db, event.delta, event.epoch, event.fingerprint);
      if (!applied.ok()) {
        // Epoch gap or fingerprint divergence: the stream is torn; tear
        // the session down and resync from a fresh bootstrap.
        stats_->Add(&DaemonStats::follower_apply_errors);
        return false;
      }
      stats_->Add(&DaemonStats::follower_deltas_applied);
      return true;
    }
    case ReplicationEvent::Kind::kDetach: {
      // Idempotent: the database may never have reached us, or a resync
      // already dropped it.
      Result<DetachOutcome> detached = service_->Detach(event.db);
      (void)detached;
      return true;
    }
  }
  return true;
}

void ReplicationClient::RunSession() {
  Result<Socket> connected =
      ConnectTcp(options_.host, options_.port, options_.connect_timeout);
  if (!connected.ok()) return;
  Socket socket = std::move(connected.value());
  session_fd_.store(socket.fd(), std::memory_order_release);
  if (stop_.load(std::memory_order_acquire)) {
    session_fd_.store(-1, std::memory_order_release);
    return;
  }

  Result<bool> sent = SendPayload(socket, JsonObjectBuilder()
                                              .Set("type", "replicate")
                                              .Set("id", uint64_t{1})
                                              .Build()
                                              .Serialize());
  if (!sent.ok()) {
    session_fd_.store(-1, std::memory_order_release);
    return;
  }
  stats_->Add(&DaemonStats::follower_connects);
  connected_.store(true, std::memory_order_release);

  FrameDecoder decoder(options_.max_frame_bytes);
  std::vector<std::string> frames;
  char buf[1 << 16];
  bool session_ok = true;
  while (session_ok && !stop_.load(std::memory_order_acquire)) {
    Result<size_t> r =
        ReadSome(socket, buf, sizeof(buf), options_.poll_slice);
    if (!r.ok()) {
      if (r.code() == ErrorCode::kDeadlineExceeded) continue;  // poll slice
      break;  // socket error
    }
    if (*r == 0) break;  // primary hung up (crash, drain, detach of us)
    frames.clear();
    if (!decoder.Feed(buf, *r, &frames)) break;  // oversized frame
    for (const std::string& frame : frames) {
      Result<ReplFrame> decoded = DecodeReplicationFrame(frame);
      if (!decoded.ok()) {
        // Non-replication chatter (an error frame for the replicate
        // request, say) is skipped; actual garbage tears the session.
        if (decoded.code() == ErrorCode::kUnsupported) continue;
        session_ok = false;
        break;
      }
      if (!ApplyEvent(decoded->event)) {
        session_ok = false;
        break;
      }
      Result<bool> acked =
          SendPayload(socket, JsonObjectBuilder()
                                  .Set("type", "replica_ack")
                                  .Set("seq", decoded->seq)
                                  .Build()
                                  .Serialize());
      if (!acked.ok()) {
        session_ok = false;
        break;
      }
    }
  }
  connected_.store(false, std::memory_order_release);
  session_fd_.store(-1, std::memory_order_release);
  stats_->Add(&DaemonStats::follower_disconnects);
}

}  // namespace cqa
