#ifndef CQA_SERVE_NET_DAEMON_STATS_H_
#define CQA_SERVE_NET_DAEMON_STATS_H_

#include <cstdint>
#include <mutex>

#include "cqa/serve/net/protocol.h"

namespace cqa {

enum class CloseReason;

/// Thread-safe accumulator for `DaemonStats`, shared by the daemon and all
/// of its connections (connections outlive neither the collector nor the
/// daemon that owns both).
class DaemonStatsCollector {
 public:
  /// Adds `n` to one field, e.g. `Add(&DaemonStats::frames_received)`.
  void Add(uint64_t DaemonStats::*field, uint64_t n = 1) {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.*field += n;
  }

  /// Sets a gauge (`repl_lag`: the calling stream's sent-minus-acked).
  void Set(uint64_t DaemonStats::*field, uint64_t value) {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.*field = value;
  }

  /// Counts the close reason and releases the `connections_active` slot.
  void OnConnectionClosed(CloseReason reason);

  void OnReplStreamClosed() {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.repl_streams_closed;
    if (stats_.repl_streams_closed >= stats_.repl_streams_opened) {
      stats_.repl_lag = 0;  // no live stream left to lag
    }
  }

  DaemonStats Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

 private:
  mutable std::mutex mu_;
  DaemonStats stats_;
};

}  // namespace cqa

#endif  // CQA_SERVE_NET_DAEMON_STATS_H_
