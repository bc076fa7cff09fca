#include "cqa/registry/sharded_service.h"

#include <algorithm>
#include <thread>

namespace cqa {

ShardedSolveService::ShardedSolveService(ShardedServiceOptions options)
    : options_(std::move(options)) {}

ShardedSolveService::~ShardedSolveService() {
  Shutdown(std::chrono::milliseconds(0));
}

bool ShardedSolveService::ValidName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

Result<ShardedSolveService::Entry> ShardedSolveService::Attach(
    const std::string& name, std::shared_ptr<const Database> db) {
  if (db == nullptr) {
    return Result<Entry>::Error(ErrorCode::kInternal,
                                "attach of a null database");
  }
  return AttachShard(name, [&](const ShardPtr& shard) {
    shard->db = std::move(db);
    return RecoverFromFiles(shard);
  });
}

Result<ShardedSolveService::Entry> ShardedSolveService::Attach(
    const std::string& name, Database db) {
  return Attach(name, std::make_shared<const Database>(std::move(db)));
}

Result<ShardedSolveService::Entry> ShardedSolveService::AttachShard(
    const std::string& name,
    const std::function<Result<bool>(const ShardPtr&)>& recover) {
  using R = Result<Entry>;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!accepting_.load(std::memory_order_acquire)) {
      return R::Error(ErrorCode::kOverloaded,
                      "registry is shutting down; attach refused");
    }
    if (!ValidName(name)) {
      return R::Error(ErrorCode::kUnsupported,
                      "invalid database name '" + name +
                          "' (1-64 chars from [A-Za-z0-9_.-])");
    }
    auto [it, claimed] = shards_.emplace(name, nullptr);
    if (!claimed) {
      const char* why = it->second == nullptr ? "is already being attached"
                        : it->second->detaching.load(std::memory_order_acquire)
                            ? "is still detaching"
                            : "is already attached";
      return R::Error(ErrorCode::kUnsupported,
                      "database '" + name + "' " + why);
    }
  }
  auto shard = std::make_shared<Shard>();
  shard->name = name;
  shard->applied_delta_ids = DeltaIdWindow(options_.delta_id_window);
  Result<bool> recovered = recover(shard);
  if (recovered.ok()) {
    shard->service = std::make_unique<SolveService>(options_.shard);
  }
  bool published = false;
  bool is_default = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Checked again under the lock `Shutdown` takes to list the shards:
    // a shard published here is either in that list or never published.
    published = recovered.ok() && accepting_.load(std::memory_order_acquire);
    if (published) {
      shards_[name] = shard;
      if (default_name_.empty()) default_name_ = name;
      is_default = default_name_ == name;
    } else {
      shards_.erase(name);  // release the claim
    }
  }
  if (!recovered.ok()) return R::Error(recovered);
  if (!published) {
    return R::Error(ErrorCode::kOverloaded,
                    "registry is shutting down; attach refused");
  }
  BootstrapListenersOnAttach(shard);
  return EntryOf(shard, is_default);
}

Result<bool> ShardedSolveService::RecoverFromFiles(const ShardPtr& shard) {
  using R = Result<bool>;
  // The shard is not published yet, so its fields need no lock. Recovery
  // is snapshot-first: load `<name>.snapshot` (verifying that its facts
  // hash to the fingerprint it was stamped with), then replay only the
  // journal records newer than its epoch — records at or below it are
  // leftovers of a compaction whose truncate was lost to a crash, skipped
  // by their epoch stamp. Without a snapshot the whole journal replays
  // over the caller's base. Each replayed record's fingerprint must match
  // the one journaled at append time: a mismatch means the base is not
  // what the journal was written against (or the journal lies), and
  // serving from it would silently resurrect pre-crash state.
  const std::string& name = shard->name;
  if (!options_.journal_dir.empty()) {
    Result<SnapshotReadResult> snap =
        ReadSnapshotFile(SnapshotFilePath(name));
    if (!snap.ok()) return R::Error(snap);
    if (snap->found) {
      Result<Database> restored = Database::FromText(snap->data.facts);
      if (!restored.ok()) {
        return R::Error(ErrorCode::kInternal,
                        "snapshot of '" + name +
                            "' holds unparseable facts: " + restored.error());
      }
      auto snapshot_db =
          std::make_shared<const Database>(std::move(restored.value()));
      DbFingerprint actual = FingerprintDatabase(*snapshot_db);
      if (actual != snap->data.fingerprint) {
        return R::Error(ErrorCode::kInternal,
                        "snapshot of '" + name +
                            "' does not reproduce its own fingerprint (" +
                            actual.ToHex() + " != stamped " +
                            snap->data.fingerprint.ToHex() +
                            ") — refusing to serve from it");
      }
      // The snapshot supersedes the caller's base facts.
      shard->db = snapshot_db;
      shard->epoch = snap->data.epoch;
      shard->last_snapshot_epoch = snap->data.epoch;
      shard->last_snapshot_bytes = snap->file_bytes;
      for (const auto& [id, ep] : snap->data.delta_ids) {
        shard->applied_delta_ids.Insert(id, ep);
      }
    }

    const std::string path = JournalPath(name);
    Result<JournalReplay> replay =
        ReplayJournalFile(path, /*truncate_torn_tail=*/true);
    if (!replay.ok()) return R::Error(replay);
    // Records apply in place to one private copy of the recovered base:
    // one epoch object for the whole replay, not one per record.
    std::shared_ptr<Database> replayed;
    uint64_t ordinal = 0;
    for (const JournalRecord& rec : replay->records) {
      ++ordinal;
      // Pre-epoch records (epoch 0) replay positionally, exactly as
      // before epochs existed; stamped records can be skipped when the
      // snapshot already covers them.
      uint64_t rec_epoch = rec.epoch != 0 ? rec.epoch : shard->epoch + 1;
      if (rec_epoch <= shard->epoch) continue;
      if (rec_epoch != shard->epoch + 1) {
        return R::Error(ErrorCode::kInternal,
                        "journal replay of '" + name +
                            "' has an epoch gap at record " +
                            std::to_string(ordinal) + ": have epoch " +
                            std::to_string(shard->epoch) +
                            ", record claims " + std::to_string(rec_epoch));
      }
      if (replayed == nullptr) {
        replayed = std::make_shared<Database>(*shard->db);
      }
      Result<DeltaApplyOutcome> applied =
          ApplyDeltaInPlace(replayed.get(), rec.delta);
      if (!applied.ok()) {
        return R::Error(ErrorCode::kInternal,
                        "journal replay of '" + name + "' failed at record " +
                            std::to_string(ordinal) + " (delta '" +
                            rec.delta.id + "'): " + applied.error());
      }
      if (applied->fingerprint != rec.fp_after) {
        return R::Error(
            ErrorCode::kInternal,
            "journal replay of '" + name + "' diverged at record " +
                std::to_string(ordinal) + " (delta '" + rec.delta.id +
                "'): replayed fingerprint " + applied->fingerprint.ToHex() +
                " != journaled " + rec.fp_after.ToHex() +
                " — wrong base snapshot for this journal?");
      }
      shard->epoch = rec_epoch;
      shard->applied_delta_ids.Insert(rec.delta.id, rec_epoch);
    }
    if (replayed != nullptr) shard->db = std::move(replayed);
    Result<std::unique_ptr<DeltaJournal>> opened =
        DeltaJournal::Open(path, options_.journal);
    if (!opened.ok()) return R::Error(opened);
    shard->journal = std::move(opened.value());
  }
  shard->fingerprint = FingerprintDatabase(*shard->db);
  return true;
}

Result<DetachOutcome> ShardedSolveService::Detach(const std::string& name) {
  using R = Result<DetachOutcome>;
  ShardPtr shard;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = shards_.find(name);
    if (it == shards_.end() || it->second == nullptr) {
      return R::Error(ErrorCode::kUnsupported,
                      "database '" + name + "' is not attached");
    }
    shard = it->second;
  }
  if (shard->detaching.exchange(true, std::memory_order_acq_rel)) {
    return R::Error(ErrorCode::kUnsupported,
                    "detach of '" + name + "' is already in progress");
  }
  // From here on new submissions fail-fast with kDetached. Order matters:
  // shed the queued backlog first (typed kDetached, not a silent drop),
  // then let the in-flight solves finish inside the drain window. The
  // shard stays in the catalogue throughout, so Cancel keeps working on
  // the survivors and a second attach of the name is refused until the
  // drain is over.
  DetachOutcome out;
  out.shed = shard->service->ShedQueued(
      ErrorCode::kDetached,
      "database '" + name + "' detached while the request was queued");
  out.drained = shard->service->Shutdown(options_.detach_drain);
  {
    std::lock_guard<std::mutex> lock(shard->db_mu);
    if (!shard->repl_listeners.empty()) {
      ReplicationEvent ev;
      ev.kind = ReplicationEvent::Kind::kDetach;
      ev.db = name;
      ev.epoch = shard->epoch;
      ev.fingerprint = shard->fingerprint;
      EmitLocked(shard, ev);
      shard->repl_listeners.clear();
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    shards_.erase(name);
    if (default_name_ == name) default_name_.clear();
  }
  return out;
}

Result<ShardedSolveService::ShardPtr> ShardedSolveService::Lookup(
    const std::string& db_name, bool* is_default) const {
  using R = Result<ShardPtr>;
  std::lock_guard<std::mutex> lock(mu_);
  const std::string& name = db_name.empty() ? default_name_ : db_name;
  if (name.empty()) {
    return R::Error(ErrorCode::kDetached, "no default database attached");
  }
  auto it = shards_.find(name);
  if (it == shards_.end() || it->second == nullptr) {
    return R::Error(ErrorCode::kDetached,
                    "database '" + name + "' is not attached");
  }
  if (is_default != nullptr) *is_default = name == default_name_;
  return it->second;
}

Result<ShardedSolveService::ShardPtr> ShardedSolveService::ResolveShard(
    const std::string& db_name) const {
  Result<ShardPtr> shard = Lookup(db_name);
  if (shard.ok() && (*shard)->detaching.load(std::memory_order_acquire)) {
    return Result<ShardPtr>::Error(
        ErrorCode::kDetached, "database '" + (*shard)->name + "' is detaching");
  }
  return shard;
}

std::vector<ShardedSolveService::ShardPtr> ShardedSolveService::Shards(
    std::string* default_name) const {
  std::vector<ShardPtr> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(shards_.size());
    for (const auto& [name, shard] : shards_) {
      if (shard != nullptr) out.push_back(shard);
    }
    if (default_name != nullptr) *default_name = default_name_;
  }
  std::sort(out.begin(), out.end(), [](const ShardPtr& a, const ShardPtr& b) {
    return a->name < b->name;
  });
  return out;
}

ShardedSolveService::Entry ShardedSolveService::EntryOf(const ShardPtr& shard,
                                                        bool is_default) {
  Entry e;
  e.name = shard->name;
  e.is_default = is_default;
  std::lock_guard<std::mutex> lock(shard->db_mu);
  e.db = shard->db;
  e.fingerprint = shard->fingerprint;
  return e;
}

Result<ShardedSolveService::Entry> ShardedSolveService::Get(
    const std::string& name) const {
  bool is_default = false;
  Result<ShardPtr> shard = Lookup(name, &is_default);
  if (!shard.ok()) return Result<Entry>::Error(shard);
  return EntryOf(*shard, is_default);
}

std::vector<ShardedSolveService::Entry> ShardedSolveService::List() const {
  std::string default_name;
  std::vector<Entry> out;
  for (const ShardPtr& shard : Shards(&default_name)) {
    out.push_back(EntryOf(shard, shard->name == default_name));
  }
  return out;
}

Result<DeltaOutcome> ShardedSolveService::ApplyDelta(
    const std::string& db_name, const FactDelta& delta) {
  using R = Result<DeltaOutcome>;
  if (read_only()) {
    return R::Error(ErrorCode::kReadOnly,
                    "this instance is a read-only warm standby; deltas must "
                    "go to the primary (or promote this follower)");
  }
  if (delta.id.empty() || delta.id.size() > kMaxDeltaIdBytes) {
    return R::Error(ErrorCode::kUnsupported,
                    "delta id must be 1-" +
                        std::to_string(kMaxDeltaIdBytes) + " bytes");
  }
  Result<ShardPtr> resolved = ResolveShard(db_name);
  if (!resolved.ok()) return R::Error(resolved);
  return ApplyToShard(*resolved, delta, /*replicated=*/false, 0, nullptr);
}

Result<DeltaOutcome> ShardedSolveService::ApplyReplicatedDelta(
    const std::string& name, const FactDelta& delta, uint64_t epoch,
    const DbFingerprint& fingerprint) {
  using R = Result<DeltaOutcome>;
  if (delta.id.empty() || delta.id.size() > kMaxDeltaIdBytes) {
    return R::Error(ErrorCode::kUnsupported,
                    "delta id must be 1-" +
                        std::to_string(kMaxDeltaIdBytes) + " bytes");
  }
  Result<ShardPtr> resolved = ResolveShard(name);
  if (!resolved.ok()) return R::Error(resolved);
  return ApplyToShard(*resolved, delta, /*replicated=*/true, epoch,
                      &fingerprint);
}

Result<DeltaOutcome> ShardedSolveService::ApplyToShard(
    const ShardPtr& shard, const FactDelta& delta, bool replicated,
    uint64_t repl_epoch, const DbFingerprint* repl_fp) {
  using R = Result<DeltaOutcome>;
  DeltaOutcome out;
  out.name = shard->name;
  out.delta_id = delta.id;
  uint64_t ack_seq = 0;
  {
    // One delta at a time per shard: validation, journal append, cache
    // migration, the epoch swap, and replication fan-out are a single
    // critical section, so a concurrent Submit pins either the epoch
    // before this delta or the one after — never a half-applied state.
    std::lock_guard<std::mutex> lock(shard->db_mu);
    if (replicated) {
      // Stream idempotence is by epoch, not id: a reconnect replays from
      // the bootstrap, and everything at or below the local epoch is
      // already applied.
      if (repl_epoch <= shard->epoch) {
        out.applied = false;
        out.epoch = shard->epoch;
        out.fingerprint = shard->fingerprint;
        return out;
      }
      if (repl_epoch != shard->epoch + 1) {
        return R::Error(ErrorCode::kInternal,
                        "replication gap on '" + shard->name +
                            "': local epoch " + std::to_string(shard->epoch) +
                            ", stream sent " + std::to_string(repl_epoch) +
                            " — bootstrap resync required");
      }
    } else if (shard->applied_delta_ids.Find(delta.id) != nullptr) {
      // Idempotent replay of an acknowledged delta (client retry after a
      // lost ack): acknowledge again with the current state, change
      // nothing.
      out.applied = false;
      out.epoch = shard->epoch;
      out.fingerprint = shard->fingerprint;
      return out;
    }

    Result<DeltaApplyOutcome> applied =
        ApplyDeltaToDatabase(*shard->db, delta);
    if (!applied.ok()) return R::Error(applied);
    if (replicated && applied->fingerprint != *repl_fp) {
      return R::Error(ErrorCode::kInternal,
                      "replicated delta '" + delta.id + "' diverged on '" +
                          shard->name + "': local fingerprint " +
                          applied->fingerprint.ToHex() + " != primary's " +
                          repl_fp->ToHex() + " — bootstrap resync required");
    }
    const uint64_t next_epoch = shard->epoch + 1;

    // Write-ahead: the record must be written before anything observable
    // changes. An append failure (ENOSPC, fault injection, torn write)
    // rejects the delta outright — the database, cache, and epoch counter
    // are untouched, and the client must not treat the delta as applied.
    // Under group fsync the DURABILITY wait happens after the lock is
    // released (see below), which is what lets acks share one fsync.
    if (shard->journal != nullptr) {
      Result<bool> appended =
          shard->journal->Append(delta, applied->fingerprint, next_epoch);
      if (!appended.ok()) return R::Error(appended);
      ack_seq = shard->journal->appends();
    }

    // Cache migration happens before the new epoch is published: after
    // the swap, every lookup uses the new fingerprint, and entries under
    // the old prefix would never be found again (rekeying would be
    // pointless and stale-serving impossible either way — the prefix *is*
    // the epoch).
    std::pair<uint64_t, uint64_t> counts = shard->service->OnDatabaseDelta(
        shard->fingerprint, applied->fingerprint, applied->touched);

    shard->db = applied->db;
    shard->fingerprint = applied->fingerprint;
    shard->epoch = next_epoch;
    ++shard->deltas_applied;
    ++shard->deltas_since_snapshot;
    shard->applied_delta_ids.Insert(delta.id, next_epoch);

    out.applied = true;
    out.epoch = next_epoch;
    out.fingerprint = applied->fingerprint;
    out.inserted = applied->inserted;
    out.deleted = applied->deleted;
    out.cache_invalidated = counts.first;
    out.cache_rekeyed = counts.second;

    if (!shard->repl_listeners.empty()) {
      ReplicationEvent ev;
      ev.kind = ReplicationEvent::Kind::kDelta;
      ev.db = shard->name;
      ev.epoch = next_epoch;
      ev.fingerprint = applied->fingerprint;
      ev.delta = delta;
      EmitLocked(shard, ev);
    }
    MaybeSnapshotLocked(shard);
  }

  // Group-fsync ack gate, outside the delta lock: the epoch is published,
  // but the caller's ack is owed only after a covering fsync. A failed
  // batch fsync means this delta was applied in memory yet is NOT durable
  // and NOT acknowledged — the journal is poisoned (no further appends),
  // and a restart recovers to the durable prefix.
  if (ack_seq != 0 && shard->journal != nullptr) {
    Result<bool> durable = shard->journal->WaitDurable(ack_seq);
    if (!durable.ok()) {
      return R::Error(ErrorCode::kInternal,
                      "delta '" + delta.id +
                          "' was applied in memory but its group fsync "
                          "failed; it is NOT acknowledged and will not "
                          "survive a restart");
    }
  }
  return out;
}

Result<SnapshotOutcome> ShardedSolveService::Snapshot(
    const std::string& db_name) {
  using R = Result<SnapshotOutcome>;
  Result<ShardPtr> resolved = ResolveShard(db_name);
  if (!resolved.ok()) return R::Error(resolved);
  std::lock_guard<std::mutex> lock((*resolved)->db_mu);
  return TakeSnapshotLocked(*resolved);
}

Result<SnapshotOutcome> ShardedSolveService::TakeSnapshotLocked(
    const ShardPtr& shard) {
  using R = Result<SnapshotOutcome>;
  if (shard->journal == nullptr) {
    return R::Error(ErrorCode::kUnsupported,
                    "snapshotting requires a journal_dir (database '" +
                        shard->name + "' is not journaled)");
  }
  SnapshotOutcome out;
  out.name = shard->name;
  out.epoch = shard->epoch;
  out.fingerprint = shard->fingerprint;
  out.journal_bytes_before = shard->journal->bytes_written();

  // Ack barrier: every record the truncate will discard must have cleared
  // its group fsync first — compaction must never outrun an ack in flight.
  Result<bool> flushed = shard->journal->FlushDurable();
  if (!flushed.ok()) {
    ++shard->snapshots_failed;
    return R::Error(flushed);
  }

  SnapshotData data;
  data.epoch = shard->epoch;
  data.fingerprint = shard->fingerprint;
  data.facts = shard->db->ToText();
  data.delta_ids = shard->applied_delta_ids.Items();
  Result<uint64_t> written = WriteSnapshotFile(
      SnapshotFilePath(shard->name), data, options_.snapshot);
  if (!written.ok()) {
    // Non-fatal to serving: the previous snapshot (or full replay) still
    // recovers everything; the journal keeps growing until a write lands.
    ++shard->snapshots_failed;
    return R::Error(written);
  }
  out.snapshot_bytes = *written;
  shard->last_snapshot_bytes = *written;
  shard->last_snapshot_epoch = shard->epoch;

  if (options_.snapshot.fail_before_truncate) {
    // Crash drill: the snapshot committed but the process dies before the
    // compacting truncate. Recovery must skip the journal records the
    // snapshot covers (their epoch stamps are ≤ the snapshot's).
    ++shard->snapshots_failed;
    return R::Error(ErrorCode::kInternal,
                    "snapshot fault injection: died before journal truncate");
  }

  Result<bool> reset = shard->journal->Reset();
  if (!reset.ok()) {
    // The snapshot itself is committed; recovery stays correct (epoch
    // stamps skip the stale records) — only the compaction was lost.
    ++shard->snapshots_failed;
    return R::Error(reset);
  }
  ++shard->snapshots_taken;
  shard->deltas_since_snapshot = 0;
  out.journal_bytes_after = shard->journal->bytes_written();
  return out;
}

void ShardedSolveService::MaybeSnapshotLocked(const ShardPtr& shard) {
  if (shard->journal == nullptr) return;
  const SnapshotPolicy& policy = options_.snapshot;
  bool due = (policy.every_deltas != 0 &&
              shard->deltas_since_snapshot >= policy.every_deltas) ||
             (policy.every_journal_bytes != 0 &&
              shard->journal->bytes_written() >= policy.every_journal_bytes);
  if (!due) return;
  // A failed automatic snapshot is counted and retried on a later delta;
  // the delta that triggered it is already journaled and unaffected.
  (void)TakeSnapshotLocked(shard);
}

Result<bool> ShardedSolveService::ApplyReplicaSnapshot(
    const std::string& name, const std::string& facts, uint64_t epoch,
    const DbFingerprint& fingerprint,
    const std::vector<std::pair<std::string, uint64_t>>& delta_ids) {
  using R = Result<bool>;
  Result<Database> parsed = Database::FromText(facts);
  if (!parsed.ok()) {
    return R::Error(ErrorCode::kInternal,
                    "replica snapshot for '" + name +
                        "' holds unparseable facts: " + parsed.error());
  }
  auto db = std::make_shared<const Database>(std::move(parsed.value()));
  DbFingerprint actual = FingerprintDatabase(*db);
  if (actual != fingerprint) {
    return R::Error(ErrorCode::kInternal,
                    "replica snapshot for '" + name +
                        "' does not reproduce the primary's fingerprint (" +
                        actual.ToHex() + " != " + fingerprint.ToHex() + ")");
  }

  // Checked before the lookup, which would resolve an empty name to the
  // default.
  if (!ValidName(name)) {
    return R::Error(ErrorCode::kUnsupported,
                    "invalid replicated database name '" + name + "'");
  }
  Result<ShardPtr> existing = Lookup(name);
  if (!existing.ok()) {
    // New database on the stream: attach it directly from the bootstrap —
    // the stream, not any local journal, is the source of truth here.
    Result<Entry> attached = AttachShard(name, [&](const ShardPtr& shard) -> R {
      shard->db = db;
      shard->fingerprint = fingerprint;
      shard->epoch = epoch;
      for (const auto& [id, ep] : delta_ids) {
        shard->applied_delta_ids.Insert(id, ep);
      }
      if (options_.journal_dir.empty()) return true;
      Result<std::unique_ptr<DeltaJournal>> opened =
          DeltaJournal::Open(JournalPath(name), options_.journal);
      if (!opened.ok()) return R::Error(opened);
      shard->journal = std::move(opened.value());
      // Persist the bootstrap locally (snapshot + empty journal) so this
      // follower's own crash recovery — and its post-promote durability —
      // start from the replicated state, not from stale pre-follow files.
      std::lock_guard<std::mutex> lock(shard->db_mu);
      (void)TakeSnapshotLocked(shard);
      return true;
    });
    if (!attached.ok()) return R::Error(attached);
    return true;
  }

  // Existing shard: the stream restarted (reconnect) — wholesale-replace
  // unless we are already at or past the bootstrap epoch.
  const ShardPtr& shard = *existing;
  std::lock_guard<std::mutex> lock(shard->db_mu);
  if (epoch <= shard->epoch) return true;  // idempotent
  shard->db = db;
  shard->fingerprint = fingerprint;
  shard->epoch = epoch;
  DeltaIdWindow window(options_.delta_id_window);
  for (const auto& [id, ep] : delta_ids) window.Insert(id, ep);
  shard->applied_delta_ids = std::move(window);
  // Result-cache entries keyed under older fingerprints simply become
  // unreachable (keys embed the fingerprint) and age out by LRU.
  if (shard->journal != nullptr) (void)TakeSnapshotLocked(shard);
  if (!shard->repl_listeners.empty()) {
    EmitLocked(shard, BootstrapEventLocked(shard));
  }
  return true;
}

uint64_t ShardedSolveService::AddReplicationListener(
    ReplicationListener listener) {
  uint64_t token;
  {
    std::lock_guard<std::mutex> lock(repl_mu_);
    token = repl_next_token_++;
    repl_listeners_.emplace(token, listener);
  }
  // Bootstrap onto every existing shard. Per shard, the bootstrap emit and
  // the activation happen under one db_mu hold, so the listener can never
  // see a delta before its bootstrap — and every delta after activation
  // has an epoch the bootstrap's state already counts from.
  for (const ShardPtr& shard : Shards()) {
    std::lock_guard<std::mutex> lock(shard->db_mu);
    {
      // A concurrent Remove may have raced us: never resurrect a token.
      std::lock_guard<std::mutex> rlock(repl_mu_);
      if (repl_listeners_.count(token) == 0) return token;
    }
    if (shard->repl_listeners.count(token) != 0) continue;
    listener(BootstrapEventLocked(shard));
    shard->repl_listeners.emplace(token, listener);
  }
  return token;
}

void ShardedSolveService::RemoveReplicationListener(uint64_t token) {
  {
    std::lock_guard<std::mutex> lock(repl_mu_);
    repl_listeners_.erase(token);
  }
  for (const ShardPtr& shard : Shards()) {
    std::lock_guard<std::mutex> lock(shard->db_mu);
    shard->repl_listeners.erase(token);
  }
}

void ShardedSolveService::BootstrapListenersOnAttach(const ShardPtr& shard) {
  std::lock_guard<std::mutex> lock(shard->db_mu);
  std::vector<std::pair<uint64_t, ReplicationListener>> listeners;
  {
    std::lock_guard<std::mutex> rlock(repl_mu_);
    listeners.reserve(repl_listeners_.size());
    for (const auto& kv : repl_listeners_) listeners.push_back(kv);
  }
  for (auto& [token, fn] : listeners) {
    if (shard->repl_listeners.count(token) != 0) continue;
    fn(BootstrapEventLocked(shard));
    shard->repl_listeners.emplace(token, fn);
  }
}

ReplicationEvent ShardedSolveService::BootstrapEventLocked(
    const ShardPtr& shard) const {
  ReplicationEvent ev;
  ev.kind = ReplicationEvent::Kind::kAttach;
  ev.db = shard->name;
  ev.epoch = shard->epoch;
  ev.fingerprint = shard->fingerprint;
  ev.facts = shard->db->ToText();
  ev.delta_ids = shard->applied_delta_ids.Items();
  return ev;
}

void ShardedSolveService::EmitLocked(const ShardPtr& shard,
                                     const ReplicationEvent& event) {
  for (auto& [token, fn] : shard->repl_listeners) fn(event);
}

Result<uint64_t> ShardedSolveService::Submit(const std::string& db_name,
                                             ServeJob job, Callback callback,
                                             std::string* resolved_name) {
  Result<ShardPtr> shard = ResolveShard(db_name);
  if (!shard.ok()) return Result<uint64_t>::Error(shard);
  {
    // Epoch pin: the copy taken here keeps this request (and any sandbox
    // child forked from it) on a consistent snapshot even if a delta swaps
    // the shard's instance while the request is queued or running.
    std::lock_guard<std::mutex> lock((*shard)->db_mu);
    job.db = (*shard)->db;
  }
  if (resolved_name != nullptr) *resolved_name = (*shard)->name;
  Result<uint64_t> id =
      (*shard)->service->Submit(std::move(job), std::move(callback));
  if (!id.ok() && id.code() == ErrorCode::kOverloaded &&
      (*shard)->detaching.load(std::memory_order_acquire)) {
    // Raced with Detach: the shard refused admission because its service
    // began shutting down. Surface the cause, not the mechanism.
    return Result<uint64_t>::Error(
        ErrorCode::kDetached,
        "database '" + (*shard)->name + "' is detaching");
  }
  return id;
}

bool ShardedSolveService::Cancel(const std::string& db_name, uint64_t id) {
  // Deliberately no detaching check: cancelling a survivor of a detaching
  // shard shortens the drain.
  Result<ShardPtr> shard = Lookup(db_name);
  return shard.ok() && (*shard)->service->Cancel(id);
}

void ShardedSolveService::CancelAll() {
  for (const ShardPtr& shard : Shards()) shard->service->CancelAll();
}

bool ShardedSolveService::Shutdown(std::chrono::milliseconds drain_deadline) {
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
  if (shutdown_done_) return drained_result_;
  accepting_.store(false, std::memory_order_release);
  std::vector<ShardPtr> shards = Shards();
  // Drain shards concurrently: the slowest shard bounds the wall clock.
  // Shards stay in the map (their services answer Stats after shutdown);
  // a concurrent Detach simply finds an already-shut service and drains
  // nothing.
  std::atomic<bool> all_drained{true};
  std::vector<std::thread> drains;
  drains.reserve(shards.size());
  for (ShardPtr& shard : shards) {
    drains.emplace_back([&all_drained, shard, drain_deadline] {
      if (!shard->service->Shutdown(drain_deadline)) {
        all_drained.store(false, std::memory_order_release);
      }
    });
  }
  for (std::thread& t : drains) t.join();
  shutdown_done_ = true;
  drained_result_ = all_drained.load(std::memory_order_acquire);
  return drained_result_;
}

ServiceStats ShardedSolveService::Stats() const {
  return MergeStats(StatsPerDb());
}

ServiceStats ShardedSolveService::ShardStats(const ShardPtr& shard) const {
  ServiceStats s = shard->service->Stats();
  std::lock_guard<std::mutex> lock(shard->db_mu);
  s.epoch = shard->epoch;
  s.deltas_applied = shard->deltas_applied;
  s.snapshots_taken = shard->snapshots_taken;
  s.snapshots_failed = shard->snapshots_failed;
  s.snapshot_bytes = shard->last_snapshot_bytes;
  s.snapshot_epoch = shard->last_snapshot_epoch;
  if (shard->journal != nullptr) {
    s.journal_bytes = shard->journal->bytes_written();
    s.journal_fsyncs = shard->journal->fsyncs();
  }
  return s;
}

std::vector<std::pair<std::string, ServiceStats>>
ShardedSolveService::StatsPerDb() const {
  std::vector<std::pair<std::string, ServiceStats>> out;
  for (const ShardPtr& shard : Shards()) {
    out.emplace_back(shard->name, ShardStats(shard));
  }
  return out;
}

Result<ServiceStats> ShardedSolveService::StatsFor(
    const std::string& db_name) const {
  Result<ShardPtr> shard = Lookup(db_name);
  if (!shard.ok()) return Result<ServiceStats>::Error(shard);
  return ShardStats(*shard);
}

}  // namespace cqa
