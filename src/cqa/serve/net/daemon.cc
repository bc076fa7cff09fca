#include "cqa/serve/net/daemon.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "cqa/serve/net/framing.h"
#include "cqa/serve/net/protocol.h"

namespace cqa {

namespace {

ShardedServiceOptions ShardedOptionsFor(const DaemonOptions& options) {
  ShardedServiceOptions sharded;
  sharded.shard = options.service;
  sharded.detach_drain = options.detach_drain;
  sharded.journal_dir = options.journal_dir;
  sharded.journal = options.journal;
  sharded.snapshot = options.snapshot;
  sharded.delta_id_window = options.delta_id_window;
  return sharded;
}

}  // namespace

SolveDaemon::SolveDaemon(DaemonOptions options)
    : options_(std::move(options)),
      service_(
          std::make_unique<ShardedSolveService>(ShardedOptionsFor(options_))),
      conn_options_(options_.connection) {
  conn_options_.promote_hook = [this] { return Promote(); };
}

SolveDaemon::SolveDaemon(std::shared_ptr<const Database> db,
                         DaemonOptions options)
    : SolveDaemon(std::move(options)) {
  // First attach: this database becomes the default, so solve frames
  // without a "db" field keep their single-database semantics.
  Result<ShardedSolveService::Entry> attached =
      service_->Attach(kDefaultDbName, std::move(db));
  assert(attached.ok());
  (void)attached;
}

Result<ShardedSolveService::Entry> SolveDaemon::Attach(
    const std::string& name, std::shared_ptr<const Database> db) {
  return service_->Attach(name, std::move(db));
}

SolveDaemon::~SolveDaemon() { Shutdown(std::chrono::milliseconds(0)); }

Result<bool> SolveDaemon::Start() {
  Result<Socket> listener = ListenTcp(options_.host, options_.port, &port_);
  if (!listener.ok()) {
    return Result<bool>::Error(listener.code(), listener.error());
  }
  listener_ = std::move(listener.value());
  if (!options_.follow_host.empty()) {
    // Warm standby: read-only until promoted, with the replication client
    // pulling the primary's stream in the background. Ordered before the
    // accept loop so no client ever sees a writable follower.
    service_->SetReadOnly(true);
    ReplicationClientOptions repl = options_.replication;
    repl.host = options_.follow_host;
    repl.port = options_.follow_port;
    std::lock_guard<std::mutex> lock(promote_mu_);
    repl_client_ = std::make_unique<ReplicationClient>(service_.get(), &stats_,
                                                       std::move(repl));
    repl_client_->Start();
  }
  accepting_.store(true);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return true;
}

Result<bool> SolveDaemon::Promote() {
  std::lock_guard<std::mutex> lock(promote_mu_);
  bool was_follower = repl_client_ != nullptr || service_->read_only();
  if (repl_client_) {
    // After Stop returns the follower thread has joined: no replicated
    // state can land after the flip to writable below.
    repl_client_->Stop();
    repl_client_.reset();
  }
  service_->SetReadOnly(false);
  return was_follower;
}

void SolveDaemon::AcceptLoop() {
  while (accepting_.load()) {
    Result<PollStatus> p =
        PollReadable(listener_.fd(), std::chrono::milliseconds(100));
    ReapFinished();
    if (!p.ok()) {
      // The listener died (e.g. shut down during Shutdown); stop accepting.
      break;
    }
    if (*p == PollStatus::kTimeout) continue;
    if (!accepting_.load()) break;
    Result<Socket> accepted = AcceptConnection(listener_);
    if (!accepted.ok()) {
      // Transient (EAGAIN, ECONNABORTED, fd pressure): keep serving the
      // clients we have.
      continue;
    }
    bool at_capacity;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      at_capacity = conns_.size() >= options_.max_connections;
    }
    if (at_capacity) {
      // Best-effort typed rejection; the write is bounded and the socket
      // closes either way.
      std::string frame = EncodeFrame(EncodeErrorFrame(
          std::nullopt, ErrorCode::kOverloaded,
          "connection limit (" + std::to_string(options_.max_connections) +
              ") reached",
          /*fatal=*/true));
      WriteAll(*accepted, frame.data(), frame.size(),
               std::chrono::milliseconds(100));
      continue;  // Socket closes via RAII.
    }
    auto conn = std::make_shared<Connection>(std::move(accepted.value()),
                                             service_.get(), conn_options_,
                                             &stats_);
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.push_back(conn);
    }
    conn->Start();
  }
}

void SolveDaemon::ReapFinished() {
  std::vector<std::shared_ptr<Connection>> dead;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    auto alive_end = std::stable_partition(
        conns_.begin(), conns_.end(),
        [](const std::shared_ptr<Connection>& c) { return !c->finished(); });
    dead.assign(std::make_move_iterator(alive_end),
                std::make_move_iterator(conns_.end()));
    conns_.erase(alive_end, conns_.end());
  }
  // Join outside the lock; both threads have already exited.
  for (auto& c : dead) c->Join();
}

bool SolveDaemon::Shutdown(std::chrono::milliseconds drain_deadline) {
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
  if (shutdown_done_) return drained_result_;
  shutdown_done_ = true;

  // 0. Stop following: the replication client holds a long-lived client
  // connection and would otherwise race replicated applies into the
  // draining service.
  {
    std::lock_guard<std::mutex> lock(promote_mu_);
    if (repl_client_) {
      repl_client_->Stop();
      repl_client_.reset();
    }
  }

  // 1. Stop accepting new connections. Shutting the listener down wakes
  // the accept loop's poll immediately.
  accepting_.store(false);
  listener_.ShutdownBoth();
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();

  // 2. Existing connections stop admitting solves (new solve frames get a
  // typed `overloaded` error) but keep reading and writing, so clients can
  // still receive in-flight results and issue cancels during the drain.
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns = conns_;
  }
  for (auto& c : conns) c->BeginDrain();
  // Published only after every connection rejects new solves, so observers
  // of draining() never race a solve into the closing service.
  draining_.store(true);

  // 3. Drain every shard, concurrently. On return every accepted request
  // has delivered its terminal callback, i.e. every response frame is
  // queued on its connection's writer.
  bool drained = service_ ? service_->Shutdown(drain_deadline) : true;

  // 4. Let writers flush, bounded by the flush deadline, then force-close.
  for (auto& c : conns) c->FinishAfterFlush();
  auto flush_end =
      std::chrono::steady_clock::now() + options_.flush_deadline;
  for (auto& c : conns) {
    while (!c->finished() && std::chrono::steady_clock::now() < flush_end) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    c->ForceClose();
    c->Join();
  }
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.clear();
  }
  drained_result_ = drained;
  return drained;
}

}  // namespace cqa
