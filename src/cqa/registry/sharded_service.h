#ifndef CQA_REGISTRY_SHARDED_SERVICE_H_
#define CQA_REGISTRY_SHARDED_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cqa/base/result.h"
#include "cqa/cache/fingerprint.h"
#include "cqa/db/database.h"
#include "cqa/delta/delta.h"
#include "cqa/delta/journal.h"
#include "cqa/delta/snapshot.h"
#include "cqa/serve/service.h"
#include "cqa/serve/stats.h"

namespace cqa {

struct ShardedServiceOptions {
  /// Options applied to every shard's `SolveService` — in particular
  /// `shard.workers` is the per-database worker count (`--shard-workers`)
  /// and `shard.cache_entries` sizes each shard's own result cache.
  /// Queue, EDF discipline, retries, backoff, and coalescing are all
  /// per-shard: a saturated shard sheds and backlogs alone.
  ServiceOptions shard;
  /// How long `Detach` lets the shard's in-flight solves finish before
  /// force-cancelling them (queued requests are always shed immediately
  /// with `kDetached`, never drained).
  std::chrono::milliseconds detach_drain{5000};
  /// When non-empty, every attached database gets a write-ahead delta
  /// journal at `<journal_dir>/<name>.journal`: accepted deltas are
  /// appended (and fsynced per `journal.fsync`) before they are
  /// acknowledged, and `Attach` recovers from `<journal_dir>/
  /// <name>.snapshot` + the journal tail (or a full replay over the base
  /// snapshot when no snapshot file exists), truncating a torn tail — so a
  /// restarted daemon resumes at exactly the acknowledged prefix in time
  /// bounded by snapshot size + tail length. Empty (the default) disables
  /// durability: deltas still apply, but die with the process.
  std::string journal_dir;
  JournalOptions journal;
  /// Automatic snapshot/compaction policy plus the snapshotter's
  /// crash-drill fault knobs. Disabled by default; `Snapshot()` (the
  /// `admin snapshot` frame) works regardless.
  SnapshotPolicy snapshot;
  /// Capacity of the per-shard sliding idempotency window over applied
  /// delta ids (persisted across snapshots). Duplicate detection is exact
  /// within the last `delta_id_window` applications — PR 7 kept every id
  /// forever, which is unbounded in a long-running daemon.
  uint64_t delta_id_window = DeltaIdWindow::kDefaultCapacity;
};

/// What `Detach` did: how many queued requests were shed with `kDetached`,
/// and whether every in-flight solve finished inside the drain window
/// (false means the stragglers were force-cancelled).
struct DetachOutcome {
  size_t shed = 0;
  bool drained = true;
};

/// What `ApplyDelta` did. `applied == false` means the delta id was seen
/// before (idempotent replay — the ack repeats the current epoch state,
/// nothing changed). The counters describe this application only.
struct DeltaOutcome {
  std::string name;      // resolved database name
  std::string delta_id;
  bool applied = true;
  uint64_t epoch = 0;    // after this delta
  DbFingerprint fingerprint;  // after this delta
  uint64_t inserted = 0;
  uint64_t deleted = 0;
  uint64_t cache_invalidated = 0;
  uint64_t cache_rekeyed = 0;
};

/// What `Snapshot` did: the epoch it captured and how much journal the
/// compaction reclaimed.
struct SnapshotOutcome {
  std::string name;
  uint64_t epoch = 0;
  DbFingerprint fingerprint;
  uint64_t snapshot_bytes = 0;
  uint64_t journal_bytes_before = 0;
  uint64_t journal_bytes_after = 0;
};

/// One event on the replication stream. Listeners receive, per database, a
/// `kAttach` bootstrap (the full current state: facts, epoch, fingerprint,
/// idempotency window) followed by every `kDelta` in epoch order, and
/// `kDetach` when the database goes away. Events for one database are
/// totally ordered (emitted under its delta lock); a listener may see a
/// delta whose epoch its bootstrap already covered — appliers must treat
/// `epoch <= local` as an idempotent skip.
struct ReplicationEvent {
  enum class Kind { kAttach, kDelta, kDetach };
  Kind kind = Kind::kDelta;
  std::string db;
  uint64_t epoch = 0;          // after this event applies
  DbFingerprint fingerprint;   // after this event applies
  // kAttach only:
  std::string facts;           // Database::ToText()
  std::vector<std::pair<std::string, uint64_t>> delta_ids;
  // kDelta only:
  FactDelta delta;
};

/// MUST NOT block: called under the emitting shard's delta lock, on the
/// applier's thread. Wire fan-out enqueues to a non-blocking outbound
/// queue and drops the stream (never the daemon) when the peer stalls.
using ReplicationListener = std::function<void(const ReplicationEvent&)>;

/// The catalogue of attached databases, one `SolveService` worker shard
/// per name: the catalogue names the instances, the shards isolate them.
/// Each attach spins up a dedicated bounded queue + worker set, so a
/// pathological (NL-hard) workload against one database saturates only its
/// own shard — admission control, EDF ordering, retry/backoff,
/// cancellation, and single-flight coalescing are all per-shard, and FO
/// traffic on a sibling shard keeps its latency.
///
/// Request ids are **per shard** (each `SolveService` numbers its own);
/// callers address work as (database name, id). The first attached
/// instance becomes the *default*: an empty database name resolves to it,
/// preserving the single-database protocol. Detaching the default leaves
/// the service default-less (empty-name lookups fail with `kDetached`)
/// until the next attach, which claims the vacancy.
///
/// Lifecycle: `Detach` fail-fasts new submissions with `kDetached`, sheds
/// the shard's queued backlog with the same code, drains in-flight solves
/// for up to `detach_drain` (then force-cancels), and only then drops the
/// name from the catalogue — in-flight work never observes the database
/// disappearing, because every request holds its own reference to the
/// epoch it pinned. `Shutdown` drains every shard concurrently, so the
/// slow shard bounds the wall clock instead of summing.
class ShardedSolveService {
 public:
  using Callback = SolveService::Callback;

  /// One catalogue row, as a value snapshot (safe to hold across a detach
  /// or a later epoch: `db` keeps the instance it names alive).
  struct Entry {
    std::string name;
    std::shared_ptr<const Database> db;  // the current epoch's instance
    DbFingerprint fingerprint;           // of `db`
    bool is_default = false;
  };

  /// Instance names are operator-facing identifiers, not free text:
  /// 1–64 characters from [A-Za-z0-9_.-]. (Empty is reserved for "the
  /// default" in lookups and therefore not attachable.)
  static bool ValidName(const std::string& name);

  explicit ShardedSolveService(ShardedServiceOptions options);
  ~ShardedSolveService();  // shuts down with a zero drain deadline

  ShardedSolveService(const ShardedSolveService&) = delete;
  ShardedSolveService& operator=(const ShardedSolveService&) = delete;

  /// Attaches a database under `name` (see `ValidName`) and starts its
  /// worker shard. The name is claimed before any snapshot or journal file
  /// of that name is read: an invalid name, a name that is attached,
  /// attaching or still detaching fails with `kUnsupported`, and after
  /// shutdown began with `kOverloaded` — each without touching the files.
  /// A failed recovery (see `journal_dir`) releases the claim.
  Result<Entry> Attach(const std::string& name,
                       std::shared_ptr<const Database> db);
  Result<Entry> Attach(const std::string& name, Database db);

  /// Detaches `name`: shed queued, drain in-flight, drop the name.
  /// Fails with `kUnsupported` when the name is unknown or a detach of it
  /// is already in progress. Blocks for up to `detach_drain`.
  Result<DetachOutcome> Detach(const std::string& name);

  /// Applies `delta` to the shard of `db_name` (empty ⇒ default),
  /// producing and publishing a new database epoch. Write-ahead contract
  /// when a journal is configured: the record is on disk *before* the swap
  /// — a journal append failure rejects the delta with the database
  /// unchanged — and the ack returns only after the record is covered by
  /// an fsync per policy (`kGroup` batches the wait across concurrent
  /// appliers: the epoch publishes immediately, the ack rides the next
  /// shared fsync). In-flight solves keep the epoch they pinned at submit;
  /// new submissions see the new one. Cache entries whose query footprint
  /// intersects the delta are dropped, the rest are rekeyed and keep
  /// serving hits. Duplicate delta ids within the idempotency window
  /// (journal/snapshot-recovered ids included) are acknowledged
  /// idempotently with `applied == false`. May take an automatic snapshot
  /// afterwards per `options().snapshot`. Fails with `kDetached`
  /// (unknown/detaching), `kUnsupported` (validation), `kReadOnly`
  /// (follower), `kInternal` (journal I/O — including a failed group
  /// fsync, in which case the delta MUST be treated as not acknowledged).
  Result<DeltaOutcome> ApplyDelta(const std::string& db_name,
                                  const FactDelta& delta);

  /// Takes an epoch snapshot of `db_name` now and truncates its journal
  /// (bounded-time recovery for the next attach). Requires a configured
  /// `journal_dir` (`kUnsupported` otherwise). A failed snapshot write
  /// leaves the previous snapshot and the journal intact.
  Result<SnapshotOutcome> Snapshot(const std::string& db_name);

  /// Read-only mode (warm-standby follower): `ApplyDelta` refuses with
  /// `kReadOnly`; solves, stats, and the replication-apply entry points
  /// below are unaffected. Flipped off by failover promotion.
  void SetReadOnly(bool read_only) {
    read_only_.store(read_only, std::memory_order_release);
  }
  bool read_only() const {
    return read_only_.load(std::memory_order_acquire);
  }

  /// Follower entry point: installs a replicated bootstrap snapshot for
  /// `name` — attaching the database if it is new, wholesale-replacing its
  /// state if the stream restarted. Verifies `facts` reproduce
  /// `fingerprint` (refusing divergence loudly), seeds the idempotency
  /// window from `delta_ids`, and (when journaling) persists a local
  /// snapshot so the follower's own crash recovery starts from here.
  /// Bypasses read-only mode. `epoch <= ` the local epoch is an idempotent
  /// no-op.
  Result<bool> ApplyReplicaSnapshot(
      const std::string& name, const std::string& facts, uint64_t epoch,
      const DbFingerprint& fingerprint,
      const std::vector<std::pair<std::string, uint64_t>>& delta_ids);

  /// Follower entry point: applies one replicated delta that must produce
  /// exactly `epoch` with `fingerprint`. `epoch <=` local is an idempotent
  /// skip (`applied == false`); an epoch gap or a fingerprint mismatch is
  /// `kInternal` — the stream is torn or diverged and the caller must
  /// resync from a bootstrap. Bypasses read-only mode; journals locally
  /// like a primary apply.
  Result<DeltaOutcome> ApplyReplicatedDelta(const std::string& name,
                                            const FactDelta& delta,
                                            uint64_t epoch,
                                            const DbFingerprint& fingerprint);

  /// Subscribes `listener` to the replication stream: it is synchronously
  /// fed a `kAttach` bootstrap for every currently attached database, then
  /// every subsequent delta/attach/detach, until removed. Returns the
  /// token for `RemoveReplicationListener`.
  uint64_t AddReplicationListener(ReplicationListener listener);
  void RemoveReplicationListener(uint64_t token);

  /// Routes `job` to the shard of `db_name` (empty ⇒ default instance) and
  /// submits it there; `job.db` is overwritten with the attached instance.
  /// On success `*resolved_name` (when non-null) receives the shard's
  /// database name — callers must cancel against that name, not the alias
  /// they submitted with. Fails with `kDetached` for unknown/detaching
  /// names, `kOverloaded` when the shard's queue sheds.
  Result<uint64_t> Submit(const std::string& db_name, ServeJob job,
                          Callback callback,
                          std::string* resolved_name = nullptr);

  /// Cancels request `id` on the shard of `db_name` (empty ⇒ default).
  /// False when the shard or the id is unknown or already terminal.
  bool Cancel(const std::string& db_name, uint64_t id);

  /// Cancels every request on every shard.
  void CancelAll();

  /// Stops admissions on every shard, then drains them all concurrently
  /// within `drain_deadline`. True when every shard drained cleanly.
  /// Idempotent.
  bool Shutdown(std::chrono::milliseconds drain_deadline);

  /// Aggregate accounting across shards: `MergeStats` over one
  /// `StatsPerDb` snapshot (each field by its declared merge rule, latency
  /// percentiles read from the pooled histograms).
  ServiceStats Stats() const;

  /// Per-database accounting, keyed by database name, sorted by name.
  /// This is where operators see which instance is cold: each shard owns
  /// its cache, so hits/misses/coalesced are inherently per-database.
  std::vector<std::pair<std::string, ServiceStats>> StatsPerDb() const;

  /// One shard's accounting; fails with `kDetached` for unknown names.
  Result<ServiceStats> StatsFor(const std::string& db_name) const;

  /// Looks up an attached instance at its current epoch; the empty name
  /// resolves to the default. Fails with `kDetached` for unknown names and
  /// for an empty name when no default exists. A detaching instance stays
  /// visible until its drain is over.
  Result<Entry> Get(const std::string& name) const;

  /// All attached instances at their current epochs, sorted by name.
  std::vector<Entry> List() const;

  const ShardedServiceOptions& options() const { return options_; }

 private:
  struct Shard {
    std::string name;
    /// Current epoch's instance; guarded by `db_mu`. `Submit` copies it
    /// into the job under the lock — that copy is the request's epoch pin,
    /// and `Get`/`List` read it the same way.
    std::shared_ptr<const Database> db;
    std::unique_ptr<SolveService> service;
    /// Set at the start of `Detach`; submissions fail-fast from then on.
    std::atomic<bool> detaching{false};

    /// Guards `db` and all delta state below; also serialises delta
    /// application (journal append + epoch swap are atomic under it).
    std::mutex db_mu;
    uint64_t epoch = 0;           // deltas ever applied, replay included
    uint64_t deltas_applied = 0;  // applied by this process (not replay)
    DbFingerprint fingerprint;    // of the current epoch
    DeltaIdWindow applied_delta_ids{DeltaIdWindow::kDefaultCapacity};
    std::unique_ptr<DeltaJournal> journal;  // null without journal_dir

    // Snapshot accounting (guarded by db_mu, overlaid into ShardStats).
    uint64_t deltas_since_snapshot = 0;
    uint64_t snapshots_taken = 0;
    uint64_t snapshots_failed = 0;
    uint64_t last_snapshot_bytes = 0;
    uint64_t last_snapshot_epoch = 0;

    /// Replication fan-out for THIS shard, guarded by db_mu. A listener
    /// appears here only after its bootstrap `kAttach` was emitted under
    /// the same lock hold — so per shard it can never see a delta before
    /// its bootstrap.
    std::unordered_map<uint64_t, ReplicationListener> repl_listeners;
  };
  using ShardPtr = std::shared_ptr<Shard>;

  /// The one resolver: maps `db_name` (empty ⇒ the default, read under
  /// the same `mu_` hold) to its published shard, or fails with
  /// `kDetached`. A detaching shard still resolves; `*is_default` (when
  /// non-null) reports whether it is the default.
  Result<ShardPtr> Lookup(const std::string& db_name,
                          bool* is_default = nullptr) const;
  /// `Lookup` for new work: a detaching shard fails with `kDetached`.
  Result<ShardPtr> ResolveShard(const std::string& db_name) const;
  /// Every published shard, sorted by name; `*default_name` (when
  /// non-null) receives the default's name from the same `mu_` hold.
  std::vector<ShardPtr> Shards(std::string* default_name = nullptr) const;
  /// The catalogue row of `shard`, its epoch read under `db_mu`.
  static Entry EntryOf(const ShardPtr& shard, bool is_default);

  /// The one attach path behind `Attach` and a replicated bootstrap of a
  /// new database. Claims `name` in the catalogue (validity, duplicates,
  /// attach or detach in progress, shutdown) before anything touches a
  /// file of that name; then `recover` fills the fresh shard's state (db,
  /// fingerprint, epoch, idempotency window, journal) from the caller's
  /// base and those files. A failed `recover` releases the claim. Then the
  /// shard gets its workers, is published (claiming a vacant default) and
  /// bootstraps the replication listeners.
  Result<Entry> AttachShard(
      const std::string& name,
      const std::function<Result<bool>(const ShardPtr&)>& recover);
  /// Crash recovery for `Attach` (`shard->db` holds the caller's base):
  /// snapshot first, then the journal records newer than it, then opens
  /// the journal for appends.
  Result<bool> RecoverFromFiles(const ShardPtr& shard);

  /// The shared apply path behind `ApplyDelta` and `ApplyReplicatedDelta`:
  /// the whole locked critical section (idempotency check, apply, journal
  /// append, cache migration, epoch swap, replication emit, auto-snapshot)
  /// plus the post-lock group-fsync ack gate. When `replicated`, the
  /// delta must land exactly on `repl_epoch` and reproduce `*repl_fp`.
  Result<DeltaOutcome> ApplyToShard(const ShardPtr& shard,
                                    const FactDelta& delta, bool replicated,
                                    uint64_t repl_epoch,
                                    const DbFingerprint* repl_fp);

  /// One shard's service stats with the delta/journal counters overlaid.
  ServiceStats ShardStats(const ShardPtr& shard) const;

  std::string JournalPath(const std::string& name) const {
    return options_.journal_dir + "/" + name + ".journal";
  }
  std::string SnapshotFilePath(const std::string& name) const {
    return options_.journal_dir + "/" + name + ".snapshot";
  }

  /// The snapshot pipeline (requires `shard->db_mu` held): flush pending
  /// group acks, write the snapshot file atomically, then truncate the
  /// journal. Updates the shard's snapshot accounting either way.
  Result<SnapshotOutcome> TakeSnapshotLocked(const ShardPtr& shard);
  /// Policy check after an applied delta (requires `shard->db_mu` held).
  void MaybeSnapshotLocked(const ShardPtr& shard);

  /// Emits `event` to the shard's listeners (requires `shard->db_mu`).
  void EmitLocked(const ShardPtr& shard, const ReplicationEvent& event);
  /// Builds the bootstrap event from current state (requires db_mu).
  ReplicationEvent BootstrapEventLocked(const ShardPtr& shard) const;
  /// Bootstraps every globally registered listener onto a shard that is
  /// not yet receiving deltas (a fresh attach).
  void BootstrapListenersOnAttach(const ShardPtr& shard);

  ShardedServiceOptions options_;

  std::atomic<bool> accepting_{true};
  std::atomic<bool> read_only_{false};

  /// The catalogue. Guards `shards_` and `default_name_`. A null shard is
  /// a name claimed by an attach that is still recovering: it blocks a
  /// second claim of the name and is invisible to every reader.
  mutable std::mutex mu_;
  std::unordered_map<std::string, ShardPtr> shards_;
  std::string default_name_;  // empty when no default is attached

  /// Global listener registry (for shards attached after subscription).
  /// Lock order: a shard's db_mu may be held when taking repl_mu_, never
  /// the reverse.
  mutable std::mutex repl_mu_;
  std::unordered_map<uint64_t, ReplicationListener> repl_listeners_;
  uint64_t repl_next_token_ = 1;

  std::mutex shutdown_mu_;
  bool shutdown_done_ = false;
  bool drained_result_ = true;
};

}  // namespace cqa

#endif  // CQA_REGISTRY_SHARDED_SERVICE_H_
