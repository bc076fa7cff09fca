#include "cqa/serve/stats.h"

#include <algorithm>
#include <bit>
#include <string_view>

namespace cqa {

namespace {

// Bucket layout (see LatencyHistogram): values below kExact get a bucket
// each; octave k >= 10, i.e. [2^k, 2^(k+1)), is split into kSub buckets of
// width 2^(k-kSubBits).
constexpr uint64_t kExact = 1024;
constexpr int kExactBits = 10;
constexpr int kSubBits = 7;
constexpr uint64_t kSub = uint64_t{1} << kSubBits;
constexpr int kTopOctave = 40;
constexpr size_t kBuckets = kExact + (kTopOctave - kExactBits) * kSub;

size_t Bucket(uint64_t us) {
  if (us < kExact) return static_cast<size_t>(us);
  const int octave = std::bit_width(us) - 1;
  if (octave >= kTopOctave) return kBuckets - 1;
  return static_cast<size_t>(kExact + (octave - kExactBits) * kSub +
                             (us >> (octave - kSubBits)) - kSub);
}

// The bucket's midpoint: exact for the unit buckets below kExact.
uint64_t Midpoint(size_t bucket) {
  if (bucket < kExact) return bucket;
  const uint64_t j = bucket - kExact;
  const int shift = static_cast<int>(j / kSub) + kExactBits - kSubBits;
  const uint64_t low = (kSub + j % kSub) << shift;
  return low + ((uint64_t{1} << shift) - 1) / 2;
}

void ReadPercentiles(ServiceStats* s) {
  s->latency_p50_us = s->latency.Percentile(0.50, s->latency_max_us);
  s->latency_p90_us = s->latency.Percentile(0.90, s->latency_max_us);
  s->latency_p99_us = s->latency.Percentile(0.99, s->latency_max_us);
}

}  // namespace

void LatencyHistogram::Add(uint64_t us) {
  if (counts_.empty()) counts_.assign(kBuckets, 0);
  ++counts_[Bucket(us)];
  ++total_;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  if (other.total_ == 0) return;
  if (counts_.empty()) counts_.assign(kBuckets, 0);
  for (size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
}

uint64_t LatencyHistogram::Percentile(double p, uint64_t cap) const {
  if (total_ == 0) return 0;
  // The rank is clamped so no rounding of `p * (n-1)` can run past the
  // last sample.
  const uint64_t rank = std::min(
      static_cast<uint64_t>(p * static_cast<double>(total_ - 1)), total_ - 1);
  uint64_t seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    seen += counts_[i];
    if (seen > rank) return std::min(Midpoint(i), cap);
  }
  return cap;  // unreachable: the counts sum to total_
}

ServiceStats MergeStats(
    const std::vector<std::pair<std::string, ServiceStats>>& per_db) {
  ServiceStats total;
  for (const auto& [name, part] : per_db) {
    for (const StatField<ServiceStats>& f : kServiceStatFields) {
      uint64_t& into = total.*f.member;
      if (f.merge == StatMerge::kSum) into += part.*f.member;
      if (f.merge == StatMerge::kMax) into = std::max(into, part.*f.member);
    }
    total.latency.Merge(part.latency);
  }
  ReadPercentiles(&total);
  return total;
}

void StatsCollector::RecordSubmitted() {
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.submitted;
}

void StatsCollector::RecordAccepted() {
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.accepted;
}

void StatsCollector::RecordShed() {
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.shed;
}

void StatsCollector::RecordRetry() {
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.retries;
}

void StatsCollector::RecordStarted() {
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.inflight;
}

void StatsCollector::RecordTerminal(bool started, bool cancelled, bool ok,
                                    bool degraded,
                                    std::chrono::microseconds latency) {
  std::lock_guard<std::mutex> lock(mu_);
  if (started) --counters_.inflight;
  if (cancelled) {
    ++counters_.cancelled;
  } else if (ok) {
    ++counters_.completed;
    if (degraded) ++counters_.degraded;
  } else {
    ++counters_.failed;
  }
  uint64_t us = static_cast<uint64_t>(std::max<int64_t>(latency.count(), 0));
  counters_.latency.Add(us);
  ++counters_.latency_count;
  counters_.latency_max_us = std::max(counters_.latency_max_us, us);
}

void StatsCollector::RecordSandbox(bool killed, bool crashed, bool rss_breach,
                                   uint64_t peak_rss_kb) {
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.sandbox_forks;
  if (killed) ++counters_.sandbox_kills;
  if (crashed) ++counters_.sandbox_crashes;
  if (rss_breach) ++counters_.sandbox_rss_breaches;
  counters_.sandbox_peak_rss_kb =
      std::max(counters_.sandbox_peak_rss_kb, peak_rss_kb);
}

void StatsCollector::RecordParallel(uint64_t components, uint64_t steals) {
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.parallel_solves;
  counters_.components_found += components;
  counters_.parallel_steals += steals;
}

void StatsCollector::RecordAnswerChunk(uint64_t tuples) {
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.answer_chunks;
  counters_.answer_tuples += tuples;
}

void StatsCollector::RecordStaleCursor() {
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.answers_stale_cursors;
}

ServiceStats StatsCollector::Snapshot() const {
  ServiceStats out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = counters_;
  }
  ReadPercentiles(&out);
  return out;
}

std::string ServiceStats::ToString() const {
  // "<wire name, hyphenated> <value>" per field; a microsecond field moves
  // its "_us" suffix onto the value.
  std::string s;
  for (const StatField<ServiceStats>& f : kServiceStatFields) {
    std::string_view name = f.name;
    const bool us = name.ends_with("_us");
    if (us) name.remove_suffix(3);
    if (!s.empty()) s += ", ";
    for (char c : name) s += c == '_' ? '-' : c;
    s += ' ' + std::to_string(this->*f.member) + (us ? "us" : "");
  }
  return s;
}

}  // namespace cqa
