// Fixed-size latency histogram for the closed loop's per-request samples.
//
// Every request adds its latency; a percentile is read from the pooled
// counts. Buckets are exact below 1024 ns and 1/512 of an octave wide above
// (0.2% resolution) up to 2^37 ns; larger values land in the last bucket.
// The storage is allocated, and zero-filled, at construction, so recording
// never allocates and the benchmark's memory does not grow with throughput.
#ifndef DAEMONBENCH_HISTOGRAM_H_
#define DAEMONBENCH_HISTOGRAM_H_

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace daemonbench {

class Histogram {
 public:
  Histogram() : counts_(kBuckets, 0) {}

  void Add(int64_t ns) {
    ++counts_[Bucket(static_cast<uint64_t>(std::max<int64_t>(0, ns)))];
    ++count_;
  }

  void Merge(const Histogram& other) {
    for (size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
  }

  uint64_t count() const { return count_; }

  /// Nearest-rank percentile in microseconds: the midpoint of the bucket
  /// that holds the sample of rank ceil(p * count). 0 when empty.
  double PercentileUs(double p) const {
    if (count_ == 0) return 0;
    const uint64_t rank = std::max<uint64_t>(
        1, static_cast<uint64_t>(std::ceil(p * static_cast<double>(count_))));
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      seen += counts_[i];
      if (seen >= rank) {
        const uint64_t width = Width(i);
        return (static_cast<double>(Low(i)) +
                static_cast<double>(width - 1) / 2.0) / 1e3;
      }
    }
    return static_cast<double>(Low(kBuckets - 1)) / 1e3;
  }

 private:
  static constexpr int kSubBits = 10;
  static constexpr uint64_t kHalf = uint64_t{1} << (kSubBits - 1);  // 512
  static constexpr int kMaxShift = 37 - kSubBits;
  static constexpr size_t kBuckets = (kMaxShift + 2) * kHalf;

  static size_t Bucket(uint64_t v) {
    if (v < 2 * kHalf) return static_cast<size_t>(v);
    const int shift = std::bit_width(v) - kSubBits;  // v >> shift in [512, 1024)
    return std::min(static_cast<size_t>(shift * kHalf + (v >> shift)),
                    kBuckets - 1);
  }
  static uint64_t Low(size_t i) {
    if (i < 2 * kHalf) return i;
    const uint64_t shift = i / kHalf - 1;
    return (i - shift * kHalf) << shift;
  }
  static uint64_t Width(size_t i) {
    return i < 2 * kHalf ? 1 : uint64_t{1} << (i / kHalf - 1);
  }

  std::vector<uint32_t> counts_;
  uint64_t count_ = 0;
};

}  // namespace daemonbench

#endif  // DAEMONBENCH_HISTOGRAM_H_
