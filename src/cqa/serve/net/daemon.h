#ifndef CQA_SERVE_NET_DAEMON_H_
#define CQA_SERVE_NET_DAEMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cqa/base/net.h"
#include "cqa/base/result.h"
#include "cqa/db/database.h"
#include "cqa/registry/sharded_service.h"
#include "cqa/serve/net/connection.h"
#include "cqa/serve/net/daemon_stats.h"
#include "cqa/serve/net/replication.h"
#include "cqa/serve/service.h"

namespace cqa {

struct DaemonOptions {
  /// Listen address; IPv4 dotted quad or "localhost". Port 0 binds an
  /// ephemeral port (reported by `SolveDaemon::port()`).
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// Hard cap on simultaneously open connections; excess clients get a
  /// fatal `overloaded` error frame and an immediate close.
  size_t max_connections = 256;
  /// Per-shard worker pool, queue discipline, timeouts, retries (see
  /// service.h): every attached database gets its own `SolveService`
  /// built from these options.
  ServiceOptions service;
  /// Per-connection fault handling (see connection.h).
  ConnectionOptions connection;
  /// During `Shutdown`, the budget for writers to flush already-queued
  /// response frames after the service itself has drained.
  std::chrono::milliseconds flush_deadline{2'000};
  /// In-flight drain budget of a `detach` admin frame (see
  /// ShardedServiceOptions::detach_drain).
  std::chrono::milliseconds detach_drain{5'000};
  /// When non-empty, enables the per-database write-ahead delta journal at
  /// `<journal_dir>/<name>.journal`: apply_delta frames are durable before
  /// they are acked, and attaching a name replays its existing journal
  /// over the base snapshot (see ShardedServiceOptions::journal_dir).
  std::string journal_dir;
  /// Journal durability knobs (fsync policy; chaos injection in tests).
  JournalOptions journal;
  /// Automatic snapshot/compaction policy (see SnapshotPolicy). The
  /// `admin snapshot` frame works regardless; these knobs only control
  /// when the daemon compacts on its own.
  SnapshotPolicy snapshot;
  /// Per-database sliding idempotency window capacity (see
  /// ShardedServiceOptions::delta_id_window).
  uint64_t delta_id_window = DeltaIdWindow::kDefaultCapacity;
  /// When non-empty, this daemon starts as a warm-standby follower of the
  /// primary at `follow_host:follow_port`: the service is read-only
  /// (writes answered with `kReadOnly`), a replication client streams the
  /// primary's state in, and an `admin promote` frame (or `Promote()`)
  /// flips it into a writable primary.
  std::string follow_host;
  uint16_t follow_port = 0;
  /// Tuning for the follower's replication client; `host`/`port` are
  /// overwritten from `follow_host`/`follow_port`.
  ReplicationClientOptions replication;
};

/// TCP front-end for the sharded solve service: accepts connections,
/// speaks the newline-delimited JSON protocol (protocol.h), routes solve
/// frames to per-database worker shards by their `"db"` field, serves the
/// registry admin frames (`attach`/`detach`/`list`/`apply_delta`), and
/// mirrors the
/// service's lifecycle guarantees on the wire — exactly one terminal frame
/// per accepted solve frame, typed error frames for overload and malformed
/// input, cancellation of everything a disconnected client left behind,
/// and graceful drain of every shard on shutdown.
class SolveDaemon {
 public:
  /// The registry name the single-database constructor attaches its
  /// database under (solve frames without `"db"` reach it as the default).
  static constexpr const char* kDefaultDbName = "default";

  /// Starts with one attached database (named `kDefaultDbName`, the
  /// registry default) — the single-database protocol unchanged. The
  /// database must stay immutable for the daemon's lifetime.
  SolveDaemon(std::shared_ptr<const Database> db, DaemonOptions options);
  /// Starts with an empty registry; call `Attach` (or let clients send
  /// attach frames) to add instances. Solve frames without `"db"` fail
  /// with `kDetached` until a first database is attached.
  explicit SolveDaemon(DaemonOptions options);
  ~SolveDaemon();  // Shutdown with a zero drain deadline if still running

  SolveDaemon(const SolveDaemon&) = delete;
  SolveDaemon& operator=(const SolveDaemon&) = delete;

  /// Binds, listens and starts the accept loop. Fails with a typed error
  /// (e.g. address in use) without leaving threads behind.
  Result<bool> Start();

  /// The bound port (valid after a successful Start).
  uint16_t port() const { return port_; }

  /// Graceful shutdown, mirroring `SolveService::Shutdown`:
  ///  1. stop accepting connections and new solve frames (clients get
  ///     typed `overloaded` errors while draining),
  ///  2. let in-flight solves finish within `drain_deadline`, then
  ///     force-cancel the rest (each still gets its terminal frame),
  ///  3. flush connection writers within `flush_deadline`, then close.
  /// Returns true when everything drained without forced cancellation.
  /// Idempotent; concurrent callers serialize.
  bool Shutdown(std::chrono::milliseconds drain_deadline);

  bool draining() const { return draining_.load(); }

  /// Attaches a database from the daemon side (CLI startup flags); the
  /// first attach becomes the default.
  Result<ShardedSolveService::Entry> Attach(
      const std::string& name, std::shared_ptr<const Database> db);

  /// Failover: stops the replication client (after this returns, no
  /// further replicated state can arrive) and makes the service writable.
  /// Returns whether the daemon actually was a follower — promoting a
  /// primary is an idempotent no-op. Also behind the `promote` frame.
  Result<bool> Promote();

  /// True while this daemon is a read-only warm standby.
  bool follower() const { return service_->read_only(); }

  /// Cross-shard aggregate (each field by its declared merge rule; latency
  /// percentiles read from the pooled per-shard histograms).
  ServiceStats service_stats() const { return service_->Stats(); }
  /// Per-database accounting, keyed by registry name.
  std::vector<std::pair<std::string, ServiceStats>> stats_per_db() const {
    return service_->StatsPerDb();
  }
  DaemonStats daemon_stats() const { return stats_.Snapshot(); }

 private:
  void AcceptLoop();
  /// Joins and drops connections whose threads have exited.
  void ReapFinished();

  const DaemonOptions options_;
  DaemonStatsCollector stats_;
  std::unique_ptr<ShardedSolveService> service_;
  /// `options_.connection` plus the daemon-bound hooks (promote).
  ConnectionOptions conn_options_;

  /// Live only while following; guarded by `promote_mu_` (Promote and
  /// Shutdown race on it).
  std::mutex promote_mu_;
  std::unique_ptr<ReplicationClient> repl_client_;

  Socket listener_;
  uint16_t port_ = 0;
  std::atomic<bool> accepting_{false};
  std::atomic<bool> draining_{false};
  std::thread accept_thread_;

  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_;

  std::mutex shutdown_mu_;
  bool shutdown_done_ = false;
  bool drained_result_ = true;
};

}  // namespace cqa

#endif  // CQA_SERVE_NET_DAEMON_H_
