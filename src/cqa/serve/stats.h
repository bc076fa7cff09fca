#ifndef CQA_SERVE_STATS_H_
#define CQA_SERVE_STATS_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace cqa {

/// What a stats field measures.
enum class StatKind : uint8_t {
  kCounter,    // monotone count over the process's lifetime
  kGauge,      // current level; can go down
  kHighWater,  // the largest value ever observed
};

/// How the cross-shard aggregate combines a field's per-shard values.
enum class StatMerge : uint8_t {
  kSum,
  kMax,
  kPooled,  // a latency percentile, re-read from the pooled histogram
};

/// One row of a stats table: the field's wire key (also its member name),
/// its member, kind and merge rule. DaemonStats rows leave `merge` at its
/// default: there is one daemon collector per process.
template <class Stats>
struct StatField {
  const char* name;
  uint64_t Stats::*member;
  StatKind kind;
  StatMerge merge = StatMerge::kSum;
};

/// Declares a table row as a zero-initialised `uint64_t` member.
#define CQA_STAT_MEMBER(name, ...) uint64_t name = 0;

/// The `ServiceStats` fields, one row each: X(name, kind, merge), plus, on
/// the result-cache rows, the `CacheStats` member that
/// `SolveService::Stats` folds into the field. The rows drive the struct's
/// members, `kServiceStatFields`, the cross-shard merge (`MergeStats`), the
/// stats frame's `service`/`databases` objects and `ToString`. Adding a
/// counter means one row here plus its increment site.
///
/// Request lifecycle: submitted == accepted + shed; accepted == completed +
/// failed + cancelled + (still queued/running). `completed` ends with a
/// solve report, `failed` with a typed error, `cancelled` via cancellation
/// or shutdown. `retries` counts extra attempts, not requests; `degraded`
/// counts completions whose verdict was qualified (probably-certain /
/// exhausted) rather than exact; `inflight` counts requests popped by a
/// worker and not yet terminal.
///
/// Result cache (all zero without a cache): hits complete before
/// admission; `cache_misses` counts lookups that did not hit, of which
/// `cache_coalesced` piggybacked on an in-flight identical solve (so
/// solves executed = misses − coalesced); `cache_bypass` counts jobs that
/// opted out via `CachePolicy::kBypass`. Identity: hits + misses + bypass
/// == cache-eligible submissions. `cache_invalidated` counts entries a
/// delta dropped because it touched a relation their query mentions,
/// `cache_rekeyed` entries carried to the new epoch because it did not.
///
/// Live updates and snapshots, overlaid per database by the sharded
/// registry (zero for a standalone `SolveService`): `epoch` counts deltas
/// ever applied, journal replay included; `journal_bytes` is the journal's
/// on-disk size; `snapshot_bytes`/`snapshot_epoch` describe the last
/// committed snapshot (0 before the first); the rest count this process's
/// attempts.
///
/// Sandbox (zero when no solve ran under fork isolation): children
/// spawned, SIGKILLed by the supervisor (grace breach or cancellation),
/// dead without a verdict (`kWorkerCrashed`), over the RSS cap
/// (`kResourceExhausted`), and the high-water child peak RSS.
///
/// Component-parallel (zero when every solve ran the sequential path):
/// solves that went through the decomposer, the component tasks they
/// produced, and work-stealing pool steals; sandboxed solves contribute
/// through their reports.
///
/// Answer streams: chunks produced by workers (cache hits excluded — those
/// show up as `cache_hits`), the certain answers they carried, and resume
/// cursors refused at admission for naming a flipped epoch.
///
/// Latency: submit-to-terminal over every terminal request, in
/// microseconds. The percentiles are read from a lifetime
/// `LatencyHistogram` and pool across shards.
#define CQA_SERVICE_STATS(X)                        \
  X(submitted, kCounter, kSum)                      \
  X(accepted, kCounter, kSum)                       \
  X(shed, kCounter, kSum)                           \
  X(completed, kCounter, kSum)                      \
  X(failed, kCounter, kSum)                         \
  X(cancelled, kCounter, kSum)                      \
  X(retries, kCounter, kSum)                        \
  X(degraded, kCounter, kSum)                       \
  X(inflight, kGauge, kSum)                         \
  X(cache_hits, kCounter, kSum, hits)               \
  X(cache_misses, kCounter, kSum, misses)           \
  X(cache_coalesced, kCounter, kSum, coalesced)     \
  X(cache_bypass, kCounter, kSum, bypassed)         \
  X(cache_entries, kGauge, kSum, entries)           \
  X(cache_evictions, kCounter, kSum, evictions)     \
  X(cache_invalidated, kCounter, kSum, invalidated) \
  X(cache_rekeyed, kCounter, kSum, rekeyed)         \
  X(epoch, kGauge, kSum)                            \
  X(deltas_applied, kCounter, kSum)                 \
  X(journal_bytes, kGauge, kSum)                    \
  X(journal_fsyncs, kCounter, kSum)                 \
  X(snapshots_taken, kCounter, kSum)                \
  X(snapshots_failed, kCounter, kSum)               \
  X(snapshot_bytes, kGauge, kSum)                   \
  X(snapshot_epoch, kGauge, kMax)                   \
  X(sandbox_forks, kCounter, kSum)                  \
  X(sandbox_kills, kCounter, kSum)                  \
  X(sandbox_crashes, kCounter, kSum)                \
  X(sandbox_rss_breaches, kCounter, kSum)           \
  X(sandbox_peak_rss_kb, kHighWater, kMax)          \
  X(parallel_solves, kCounter, kSum)                \
  X(components_found, kCounter, kSum)               \
  X(parallel_steals, kCounter, kSum)                \
  X(answer_chunks, kCounter, kSum)                  \
  X(answer_tuples, kCounter, kSum)                  \
  X(answers_stale_cursors, kCounter, kSum)          \
  X(latency_count, kCounter, kSum)                  \
  X(latency_p50_us, kGauge, kPooled)                \
  X(latency_p90_us, kGauge, kPooled)                \
  X(latency_p99_us, kGauge, kPooled)                \
  X(latency_max_us, kHighWater, kMax)

/// Fixed-bucket latency histogram in microseconds: one bucket per value
/// below 1024 µs (exact there), then 128 buckets per octave up to 2^40 µs,
/// so a reported value is within 0.4% of the sample it stands for; larger
/// values share the last bucket. Histograms merge exactly by adding
/// counts, so a percentile of merged histograms is the percentile of the
/// pooled samples, within that error. Storage (38 KiB) is allocated at the
/// first sample.
class LatencyHistogram {
 public:
  void Add(uint64_t us);
  void Merge(const LatencyHistogram& other);

  /// p in [0,1]: the sample of zero-based rank floor(p·(n−1)) in ascending
  /// order (nearest rank), read as its bucket's midpoint and capped at
  /// `cap`. 0 when empty.
  uint64_t Percentile(double p, uint64_t cap) const;

 private:
  std::vector<uint64_t> counts_;  // empty until the first sample
  uint64_t total_ = 0;
};

/// A point-in-time snapshot of `SolveService` accounting; see
/// `CQA_SERVICE_STATS` for the fields.
struct ServiceStats {
  CQA_SERVICE_STATS(CQA_STAT_MEMBER)

  /// The samples behind the percentile fields (not on the wire).
  LatencyHistogram latency;

  std::string ToString() const;
};

#define CQA_SERVICE_STAT_FIELD(name, kind, merge, ...) \
  {#name, &ServiceStats::name, StatKind::kind, StatMerge::merge},
inline constexpr StatField<ServiceStats> kServiceStatFields[] = {
    CQA_SERVICE_STATS(CQA_SERVICE_STAT_FIELD)};
#undef CQA_SERVICE_STAT_FIELD

/// The cross-shard aggregate of per-database snapshots: each field merged
/// by its declared rule, the latency histograms pooled and the percentile
/// fields re-read from the pool.
ServiceStats MergeStats(
    const std::vector<std::pair<std::string, ServiceStats>>& per_db);

/// Thread-safe collector behind `ServiceStats`. Counters are plain
/// increments under one mutex (contention is dwarfed by the solves
/// themselves), so a snapshot sees every recorded event or none of it.
class StatsCollector {
 public:
  void RecordSubmitted();
  void RecordAccepted();
  void RecordShed();
  void RecordRetry();
  void RecordStarted();
  /// Terminal accounting for one request. `cancelled` wins over the other
  /// two; otherwise `ok` picks completed vs failed. `started` says whether
  /// the request was ever popped by a worker (balances the inflight gauge).
  void RecordTerminal(bool started, bool cancelled, bool ok, bool degraded,
                      std::chrono::microseconds latency);
  /// Sandbox accounting for one forked solve (see the ServiceStats fields).
  void RecordSandbox(bool killed, bool crashed, bool rss_breach,
                     uint64_t peak_rss_kb);
  /// Accounting for one solve that went through the component decomposer.
  void RecordParallel(uint64_t components, uint64_t steals);
  /// Accounting for one answer chunk a worker produced.
  void RecordAnswerChunk(uint64_t tuples);
  /// A resume cursor refused at admission for naming a flipped epoch.
  void RecordStaleCursor();

  ServiceStats Snapshot() const;

 private:
  mutable std::mutex mu_;
  ServiceStats counters_;
};

}  // namespace cqa

#endif  // CQA_SERVE_STATS_H_
