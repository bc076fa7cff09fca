// Network-daemon experiments:
//
//   D1. Round-trip latency: one client, solves submitted one at a time over
//       a real loopback socket. Measures the full wire path — encode, TCP,
//       frame decode, service dispatch, response frame — as percentiles,
//       next to the in-process service dispatch from bench_serve as the
//       implied transport overhead.
//   D2. Pipelined throughput and shed rate under overload: clients pipeline
//       batches far past the service queue capacity; reports accepted vs
//       shed (typed `overloaded` frames) and terminal-frame accounting —
//       every pipelined solve must still get exactly one terminal frame.
//   D3. Result cache over the wire: the same solve frame submitted
//       repeatedly with `"cache":"default"` (hot: served from the result
//       cache after the first) vs `"cache":"bypass"` (cold: full solve each
//       time). The remaining hot-path cost is the wire round trip itself.
//   D4. Shard isolation: one daemon, identical pigeonhole database content
//       behind every name. An adversary connection saturates one shard
//       with pigeonhole backtracking solves (coNP-hard instances, ~5ms
//       each) while a victim client runs FO solves — either on its own
//       shard (sharded, this codebase) or on the adversary's (shared, the
//       single-pool architecture the registry replaces). Reports the
//       victim's latency percentiles against a solo baseline.
//   D6. Live updates: apply_delta cost as the batch and the database grow
//       (epochs share untouched relations copy-on-write, facts and block
//       index alike, so cost tracks the touched relations, not the whole
//       database), footprint-scoped cache invalidation
//       (warm hits on untouched queries survive a delta to a disjoint
//       relation), and crash-recovery time as the replayed journal grows.
//   D7. Durability and replication: recovery time with and without epoch
//       snapshots (bounded tail replay vs full-history replay), acked-delta
//       throughput under each journal fsync policy (per-ack fsync vs the
//       group-commit batcher vs none), and primary-ack-to-follower-epoch
//       replication lag over a real loopback stream.
//   D5. Fork-isolation cost and reclaim: the same solve on the same wire
//       path with `"isolation":"inproc"` vs `"fork"` (the fork/pipe/reap
//       overhead a sandboxed solve pays), then the time to get a worker
//       back from a stuck coNP solve — a cooperative budget deadline vs
//       the supervisor's SIGKILL on a wedged child that never reaches its
//       next probe.
//   D8. Component-parallel speedup vs component count: one adversarial
//       database made of C value-disjoint components — C-1 "chaff"
//       components whose every repair falsifies the query (each multiplies
//       the sequential backtracking search) plus one certain pigeonhole
//       core — solved over the wire at `"parallelism":1` vs `8`. The
//       decomposed solve runs components concurrently and the certain
//       core's TRUE short-circuits the disjunction, so the parallel side
//       pays ~one core proof while the sequential side pays the full
//       product search. Verdicts are parity-checked on every row.
//   D9. Streaming answers: the chunk-size sweep for one answer stream over
//       the wire (per-chunk admission overhead vs per-tuple framing cost:
//       tiny chunks pay a service round trip per tuple, huge chunks
//       approach the one-shot enumeration), the warm re-stream served from
//       the chunk cache, time-to-first-tuple as the streaming latency win
//       over any batch API, and resume-from-cursor vs restart-from-zero
//       for a consumer that died halfway. Tuple counts are parity-checked
//       against the one-shot expectation on every row.
//
// The micro-benchmark times a single socket round trip through the daemon.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <cstdlib>

#include "bench_util.h"
#include "cqa/delta/delta.h"
#include "cqa/gen/families.h"
#include "cqa/gen/poll.h"
#include "cqa/registry/sharded_service.h"
#include "cqa/serve/net/client.h"
#include "cqa/serve/net/daemon.h"
#include "cqa/serve/net/json.h"
#include "cqa/serve/net/protocol.h"

namespace cqa {
namespace {

using std::chrono::milliseconds;

constexpr milliseconds kIo{30'000};

std::shared_ptr<const Database> PollDb(int persons, uint64_t seed) {
  Rng rng(seed);
  PollDbOptions opts;
  opts.num_persons = persons;
  opts.num_towns = std::max(2, persons / 5);
  return std::make_shared<const Database>(GeneratePollDatabase(opts, &rng));
}

std::string SolveFrame(uint64_t id, const std::string& query) {
  JsonObjectBuilder b;
  b.Set("type", "solve").Set("id", id).Set("query", query);
  return b.Build().Serialize();
}

uint64_t Percentile(std::vector<double>* us, double p) {
  std::sort(us->begin(), us->end());
  size_t rank = static_cast<size_t>(p * static_cast<double>(us->size() - 1));
  return static_cast<uint64_t>((*us)[std::min(rank, us->size() - 1)]);
}

void TableRoundTrip() {
  benchutil::Header("DAEMON", "framed TCP front-end for SolveService");
  std::printf("D1. loopback round-trip latency, 500 sequential solves:\n");
  std::printf("%-10s %-10s %-10s %-10s %-10s\n", "p50_us", "p90_us", "p99_us",
              "max_us", "solve_us(p50, service-side)");
  DaemonOptions options;
  options.service.workers = 2;
  SolveDaemon daemon(PollDb(40, 17), options);
  if (!daemon.Start().ok()) return;
  NetClient client;
  if (!client.Connect("127.0.0.1", daemon.port(), kIo).ok()) return;
  std::string query = "Mayor(t | p), not Lives(p | t)";  // PollQ1, wire spelling
  std::vector<double> rtt_us;
  constexpr int kRounds = 500;
  for (uint64_t id = 1; id <= kRounds; ++id) {
    double us = benchutil::TimeUs([&] {
      (void)client.SendFrame(SolveFrame(id, query), kIo);
      (void)client.WaitTerminal(id, kIo);
    });
    rtt_us.push_back(us);
  }
  ServiceStats service = daemon.service_stats();
  std::printf("%-10llu %-10llu %-10llu %-10llu %llu\n",
              static_cast<unsigned long long>(Percentile(&rtt_us, 0.50)),
              static_cast<unsigned long long>(Percentile(&rtt_us, 0.90)),
              static_cast<unsigned long long>(Percentile(&rtt_us, 0.99)),
              static_cast<unsigned long long>(Percentile(&rtt_us, 1.0)),
              static_cast<unsigned long long>(service.latency_p50_us));
  (void)daemon.Shutdown(milliseconds(5'000));
  std::printf("\n");
}

void TableOverloadShedRate() {
  std::printf(
      "D2. pipelined overload: 1 worker, queue cap 8, per-conn inflight cap "
      "256,\n    batches pipelined before reading; shed answers are typed "
      "`overloaded` frames:\n");
  std::printf("%-10s %-10s %-10s %-12s %-12s %-10s\n", "offered", "results",
              "shed", "shed_rate", "terminal", "t_ms");
  for (int offered : {8, 64, 256}) {
    DaemonOptions options;
    options.service.workers = 1;
    options.service.queue_capacity = 8;
    options.connection.max_inflight = 256;
    SolveDaemon daemon(PollDb(40, 19), options);
    if (!daemon.Start().ok()) return;
    NetClient client;
    if (!client.Connect("127.0.0.1", daemon.port(), kIo).ok()) return;
    std::string query = "Mayor(t | p), not Lives(p | t)";  // PollQ1, wire spelling
    uint64_t results = 0, shed = 0, terminal = 0;
    double t_us = benchutil::TimeUs([&] {
      for (uint64_t id = 1; id <= static_cast<uint64_t>(offered); ++id) {
        (void)client.SendFrame(SolveFrame(id, query), kIo);
      }
      for (int i = 0; i < offered; ++i) {
        Result<WireResponse> r = client.ReadResponse(kIo);
        if (!r.ok()) break;
        ++terminal;
        if (r->type == "result") ++results;
        if (r->type == "error" && r->code == "overloaded") ++shed;
      }
    });
    std::printf("%-10d %-10llu %-10llu %-12.2f %-12llu %.1f\n", offered,
                static_cast<unsigned long long>(results),
                static_cast<unsigned long long>(shed),
                offered > 0 ? static_cast<double>(shed) / offered : 0.0,
                static_cast<unsigned long long>(terminal), t_us / 1000.0);
    (void)daemon.Shutdown(milliseconds(5'000));
  }
  std::printf("\n");
}

std::string SolveFrameCached(uint64_t id, const std::string& query,
                             const char* policy) {
  JsonObjectBuilder b;
  b.Set("type", "solve").Set("id", id).Set("query", query).Set("cache",
                                                               policy);
  return b.Build().Serialize();
}

void TableCacheHotCold() {
  std::printf("D3. result cache over the wire, 300 identical solves each "
              "mode:\n");
  std::printf("%-8s %-10s %-10s %-10s %-10s\n", "mode", "p50_us", "p99_us",
              "hits", "speedup");
  double cold_p50 = 0;
  for (bool hot : {false, true}) {
    DaemonOptions options;
    options.service.workers = 2;
    options.service.cache_entries = 1024;
    options.service.warm_state = hot;
    SolveDaemon daemon(PollDb(200, 29), options);
    if (!daemon.Start().ok()) return;
    NetClient client;
    if (!client.Connect("127.0.0.1", daemon.port(), kIo).ok()) return;
    std::string query = "Mayor(t | p), not Lives(p | t)";  // PollQ1
    const char* policy = hot ? "default" : "bypass";
    std::vector<double> rtt_us;
    constexpr int kRounds = 300;
    for (uint64_t id = 1; id <= kRounds; ++id) {
      double us = benchutil::TimeUs([&] {
        (void)client.SendFrame(SolveFrameCached(id, query, policy), kIo);
        (void)client.WaitTerminal(id, kIo);
      });
      rtt_us.push_back(us);
    }
    ServiceStats service = daemon.service_stats();
    (void)daemon.Shutdown(milliseconds(5'000));
    double p50 = static_cast<double>(Percentile(&rtt_us, 0.50));
    double p99 = static_cast<double>(Percentile(&rtt_us, 0.99));
    if (!hot) cold_p50 = p50;
    std::printf("%-8s %-10.0f %-10.0f %-10llu %.1fx\n", hot ? "hot" : "cold",
                p50, p99, static_cast<unsigned long long>(service.cache_hits),
                hot && p50 > 0 ? cold_p50 / p50 : 1.0);
  }
  std::printf("\n");
}

std::string SolveFrameOn(uint64_t id, const std::string& query,
                         const char* db, const char* method) {
  JsonObjectBuilder b;
  b.Set("type", "solve").Set("id", id).Set("query", query).Set("db", db);
  if (method != nullptr) b.Set("method", method);
  return b.Build().Serialize();
}

// D4 placement modes. The database content and the victim workload are
// identical in all three; the only variable is where the adversary's hard
// solves land. (Not cqa::IsolationMode — that is the sandbox's in-process
// vs forked execution axis, measured separately in D5.)
enum class PlacementMode { kSolo, kSharded, kShared };

void TableShardIsolation() {
  std::printf(
      "D4. shard isolation: the victim runs FO solves on shard 'a' while an "
      "adversary\n    pipelines pigeonhole backtracking solves — on its own "
      "shard 'b' (sharded,\n    this codebase) or on the victim's shard "
      "(shared, the single-pool\n    architecture this subsystem replaces). "
      "Identical database content\n    everywhere; only placement varies:\n");
  std::printf("%-9s %-10s %-10s %-10s %-10s %-10s\n", "mode", "p50_us",
              "p90_us", "p99_us", "ratio_p99", "hard_done");
  // Both queries run against PigeonholeDatabase(5). The victim's is the FO
  // differential query (rewriting answers it in microseconds); the
  // adversary's is PigeonholeCyclicQuery (wire spelling) forced through
  // kBacktracking, which holds a worker for ~5 ms per solve.
  std::string victim_query = "R(x | y), not S(y | x)";
  std::string pigeon_query = "R(x | y), not S(y | x), not T(x | y)";
  auto mk_db = [] {
    return std::make_shared<const Database>(PigeonholeDatabase(5));
  };
  constexpr int kRounds = 300;
  double solo_p99 = 0;
  for (PlacementMode mode : {PlacementMode::kSolo, PlacementMode::kSharded,
                             PlacementMode::kShared}) {
    DaemonOptions options;
    options.service.workers = 1;
    SolveDaemon daemon(options);
    if (!daemon.Attach("a", mk_db()).ok()) return;
    if (mode == PlacementMode::kSharded && !daemon.Attach("b", mk_db()).ok()) {
      return;
    }
    if (!daemon.Start().ok()) return;
    const char* adversary_db =
        mode == PlacementMode::kSharded ? "b" : "a";

    // The adversary keeps 4 hard solves pipelined on its own connection
    // for the whole measurement window, so its target shard's queue and
    // worker stay saturated throughout. (One worker per shard: the shards
    // are the isolation boundary under test, and a single compute-bound
    // thread keeps the numbers meaningful on a single-core host too.)
    std::atomic<bool> stop{false};
    std::thread adversary;
    if (mode != PlacementMode::kSolo) {
      adversary = std::thread([&, adversary_db] {
        NetClient attacker;
        if (!attacker.Connect("127.0.0.1", daemon.port(), kIo).ok()) return;
        uint64_t id = 0;
        size_t inflight = 0;
        while (true) {
          while (inflight < 4) {
            std::string frame = SolveFrameOn(++id, pigeon_query, adversary_db,
                                             "backtracking");
            if (!attacker.SendFrame(frame, kIo).ok()) return;
            ++inflight;
          }
          Result<WireResponse> r = attacker.ReadResponse(kIo);
          if (!r.ok()) return;
          if (IsTerminalResponseType(r->type)) --inflight;
          if (stop.load()) return;
        }
      });
      // Let the flood reach steady state before measuring.
      std::this_thread::sleep_for(milliseconds(50));
    }

    NetClient victim;
    if (!victim.Connect("127.0.0.1", daemon.port(), kIo).ok()) return;
    std::vector<double> rtt_us;
    for (uint64_t id = 1; id <= kRounds; ++id) {
      double us = benchutil::TimeUs([&] {
        (void)victim.SendFrame(SolveFrameOn(id, victim_query, "a", nullptr),
                               kIo);
        (void)victim.WaitTerminal(id, kIo);
      });
      rtt_us.push_back(us);
    }

    uint64_t hard_done = 0;
    for (const auto& [name, stats] : daemon.stats_per_db()) {
      if (name == adversary_db && mode != PlacementMode::kSolo) {
        // Shared mode counts victim solves too; subtract them out.
        hard_done = stats.completed -
                    (mode == PlacementMode::kShared ? rtt_us.size() : 0);
      }
    }
    stop.store(true);
    if (adversary.joinable()) adversary.join();
    (void)daemon.Shutdown(milliseconds(30'000));

    double p50 = static_cast<double>(Percentile(&rtt_us, 0.50));
    double p90 = static_cast<double>(Percentile(&rtt_us, 0.90));
    double p99 = static_cast<double>(Percentile(&rtt_us, 0.99));
    if (mode == PlacementMode::kSolo) solo_p99 = p99;
    const char* label = mode == PlacementMode::kSolo      ? "solo"
                        : mode == PlacementMode::kSharded ? "sharded"
                                                          : "shared";
    std::printf("%-9s %-10.0f %-10.0f %-10.0f %-10.2f %llu\n", label, p50,
                p90, p99, solo_p99 > 0 ? p99 / solo_p99 : 1.0,
                static_cast<unsigned long long>(hard_done));
  }
  std::printf("\n");
}

std::string SolveFrameSandbox(uint64_t id, const std::string& query,
                              const char* isolation, const char* method,
                              uint64_t timeout_ms, uint64_t wedge_after) {
  JsonObjectBuilder b;
  b.Set("type", "solve")
      .Set("id", id)
      .Set("query", query)
      .Set("cache", "bypass")
      .Set("isolation", isolation);
  if (method != nullptr) b.Set("method", method);
  if (timeout_ms > 0) b.Set("timeout_ms", timeout_ms);
  if (wedge_after > 0) b.Set("wedge_after_probes", wedge_after);
  return b.Build().Serialize();
}

void TableSandboxOverhead() {
  std::printf(
      "D5. fork isolation: sandbox cost on the identical wire path (cache "
      "bypassed,\n    same query, same single worker) — what a solve pays "
      "for crash containment\n    — then time to reclaim a stuck coNP "
      "solve. A cooperative deadline needs\n    the child to reach its "
      "next budget probe; a wedged child never does, and\n    only the "
      "supervisor's SIGKILL at deadline + grace gets the worker back:\n");
  std::printf("%-8s %-10s %-10s %-10s\n", "mode", "p50_us", "p99_us",
              "overhead_us(p50)");
  double inproc_p50 = 0;
  for (const char* mode : {"inproc", "fork"}) {
    DaemonOptions options;
    options.service.workers = 1;
    SolveDaemon daemon(PollDb(40, 31), options);
    if (!daemon.Start().ok()) return;
    NetClient client;
    if (!client.Connect("127.0.0.1", daemon.port(), kIo).ok()) return;
    std::string query = "Mayor(t | p), not Lives(p | t)";  // PollQ1
    std::vector<double> rtt_us;
    constexpr int kRounds = 200;
    for (uint64_t id = 1; id <= kRounds; ++id) {
      double us = benchutil::TimeUs([&] {
        (void)client.SendFrame(SolveFrameSandbox(id, query, mode, nullptr,
                                                 0, 0),
                               kIo);
        (void)client.WaitTerminal(id, kIo);
      });
      rtt_us.push_back(us);
    }
    (void)daemon.Shutdown(milliseconds(5'000));
    double p50 = static_cast<double>(Percentile(&rtt_us, 0.50));
    double p99 = static_cast<double>(Percentile(&rtt_us, 0.99));
    bool is_inproc = std::string(mode) == "inproc";
    if (is_inproc) inproc_p50 = p50;
    std::printf("%-8s %-10.0f %-10.0f %.0f\n", mode, p50, p99,
                is_inproc ? 0.0 : p50 - inproc_p50);
  }
  std::printf("%-13s %-12s %-10s %-10s\n", "stuck_mode", "timeout_ms",
              "grace_ms", "reclaim_ms");
  for (bool wedged : {false, true}) {
    DaemonOptions options;
    options.service.workers = 1;
    options.service.sandbox.kill_grace = milliseconds(300);
    SolveDaemon daemon(
        std::make_shared<const Database>(PigeonholeDatabase(12)), options);
    if (!daemon.Start().ok()) return;
    NetClient client;
    if (!client.Connect("127.0.0.1", daemon.port(), kIo).ok()) return;
    // PigeonholeCyclicQuery, wire spelling: exponential backtracking that
    // blows through the 100ms deadline either cooperatively (trips its
    // budget at the next probe) or wedged (blocks between probes forever).
    std::string query = "R(x | y), not S(y | x), not T(x | y)";
    double us = benchutil::TimeUs([&] {
      (void)client.SendFrame(
          SolveFrameSandbox(1, query, "fork", "backtracking", 100,
                            wedged ? 1 : 0),
          kIo);
      (void)client.WaitTerminal(1, kIo);
    });
    (void)daemon.Shutdown(milliseconds(30'000));
    std::printf("%-13s %-12d %-10d %.1f\n",
                wedged ? "wedged" : "cooperative", 100, 300, us / 1000.0);
  }
  std::printf("\n");
}

std::string ApplyDeltaFrame(uint64_t id, const std::string& delta_id,
                            const std::vector<DeltaOp>& ops) {
  return JsonObjectBuilder()
      .Set("type", "apply_delta")
      .Set("id", id)
      .Set("delta_id", delta_id)
      .Set("ops", EncodeDeltaOps(ops))
      .Build()
      .Serialize();
}

void TableLiveUpdate() {
  // (a) apply latency vs delta size and database size: fresh Lives facts,
  // each a new key, so every op extends the block index. Two measurements
  // per row: the apply_delta wire round trip, and in process the two costs
  // a delta holds the shard lock for — ApplyDeltaToDatabase, and freeing
  // the epoch it replaces. Epochs share every relation a delta leaves
  // alone, so both track the touched relation (Lives), not the database.
  std::printf("D6. live updates over the wire:\n");
  std::printf("(a) apply_delta cost vs batch size and database size, 20 "
              "applies each:\n");
  std::printf("%-8s %-6s %-8s %-10s %-10s %-14s %-10s %-10s\n", "persons",
              "ops", "facts", "p50_us", "p99_us", "us_per_op(p50)",
              "apply_us", "free_us");
  auto delta_ops = [](int batch, int* seq) {
    std::vector<DeltaOp> ops;
    ops.reserve(static_cast<size_t>(batch));
    for (int k = 0; k < batch; ++k) {
      DeltaOp op;
      op.insert = true;
      op.relation = "Lives";
      op.values = {"bench_p" + std::to_string(++*seq),
                   "bench_t" + std::to_string(*seq % 7)};
      ops.push_back(std::move(op));
    }
    return ops;
  };
  for (int persons : {40, 2000, 16000}) {
    const std::shared_ptr<const Database> base = PollDb(persons, 17);
    const std::vector<int> batches = persons == 40
                                         ? std::vector<int>{1, 8, 16, 256, 4096}
                                         : std::vector<int>{1, 8, 16};
    for (int batch : batches) {
      DaemonOptions options;
      options.service.workers = 2;
      SolveDaemon daemon(base, options);
      if (!daemon.Start().ok()) return;
      NetClient client;
      if (!client.Connect("127.0.0.1", daemon.port(), kIo).ok()) return;
      std::vector<double> us;
      uint64_t id = 0;
      int seq = 0;
      for (int round = 0; round < 20; ++round) {
        std::string frame = ApplyDeltaFrame(
            ++id, "bench-" + std::to_string(round), delta_ops(batch, &seq));
        us.push_back(benchutil::TimeUs([&] {
          (void)client.SendFrame(frame, kIo);
          (void)client.ReadResponse(kIo);
        }));
      }
      (void)daemon.Shutdown(milliseconds(5'000));

      std::vector<double> apply_us;
      std::vector<double> free_us;
      std::shared_ptr<const Database> epoch =
          std::make_shared<const Database>(*base);
      seq = 0;
      for (int round = 0; round < 20; ++round) {
        FactDelta delta;
        delta.id = "local-" + std::to_string(round);
        delta.ops = delta_ops(batch, &seq);
        std::shared_ptr<const Database> next;
        apply_us.push_back(benchutil::TimeUs([&] {
          Result<DeltaApplyOutcome> out = ApplyDeltaToDatabase(*epoch, delta);
          if (out.ok()) next = out->db;
        }));
        if (next == nullptr) return;
        // The only reference to the old epoch drops here.
        free_us.push_back(
            benchutil::TimeUs([&] { epoch = std::move(next); }));
      }
      uint64_t p50 = Percentile(&us, 0.50);
      std::printf("%-8d %-6d %-8zu %-10llu %-10llu %-14.2f %-10llu %-10llu\n",
                  persons, batch, base->NumFacts(),
                  static_cast<unsigned long long>(p50),
                  static_cast<unsigned long long>(Percentile(&us, 0.99)),
                  static_cast<double>(p50) / batch,
                  static_cast<unsigned long long>(Percentile(&apply_us, 0.50)),
                  static_cast<unsigned long long>(Percentile(&free_us, 0.50)));
    }
  }
  std::printf("\n");

  // (b) invalidation precision: two cached queries with disjoint
  // footprints; a delta to S must drop only the R/S entry. The untouched
  // query's warm hits keep serving at the pre-delta price because its
  // entry is rekeyed to the new epoch, not recomputed.
  {
    std::printf("(b) footprint-scoped invalidation, warm hits on an "
                "untouched query:\n");
    std::printf("%-22s %-14s %-14s %-12s %-10s\n", "phase", "p50_us(hit)",
                "invalidated", "rekeyed", "hits");
    Result<Database> base = Database::FromText(
        "R(a | b), R(a | c)\nS(b | a)\nT(k1 | v1), T(k2 | v2)");
    if (!base.ok()) return;
    DaemonOptions options;
    options.service.workers = 2;
    options.service.cache_entries = 128;
    SolveDaemon daemon(
        std::make_shared<const Database>(std::move(base.value())), options);
    if (!daemon.Start().ok()) return;
    NetClient client;
    if (!client.Connect("127.0.0.1", daemon.port(), kIo).ok()) return;
    uint64_t id = 0;
    auto solve = [&](const std::string& q) {
      (void)client.SendFrame(SolveFrame(++id, q), kIo);
      (void)client.WaitTerminal(id, kIo);
    };
    auto warm_p50 = [&](const std::string& q, int rounds) {
      std::vector<double> us;
      for (int i = 0; i < rounds; ++i) {
        us.push_back(benchutil::TimeUs([&] { solve(q); }));
      }
      return Percentile(&us, 0.50);
    };
    const std::string touched_q = "R(x | y), not S(y | x)";
    const std::string untouched_q = "T(x | y)";
    solve(touched_q);  // both now cached
    solve(untouched_q);
    uint64_t pre = warm_p50(untouched_q, 200);
    std::vector<DeltaOp> ops(1);
    ops[0].insert = false;
    ops[0].relation = "S";
    ops[0].values = {"b", "a"};
    (void)client.SendFrame(ApplyDeltaFrame(++id, "bench-inv", ops), kIo);
    (void)client.ReadResponse(kIo);
    uint64_t post = warm_p50(untouched_q, 200);
    ServiceStats stats = daemon.service_stats();
    std::printf("%-22s %-14llu %-14s %-12s %llu\n", "pre-delta",
                static_cast<unsigned long long>(pre), "-", "-",
                static_cast<unsigned long long>(stats.cache_hits));
    std::printf("%-22s %-14llu %-14llu %-12llu %s\n", "post-delta(S only)",
                static_cast<unsigned long long>(post),
                static_cast<unsigned long long>(stats.cache_invalidated),
                static_cast<unsigned long long>(stats.cache_rekeyed),
                post <= pre + pre / 5 ? "(within 1.2x)" : "(SLOWER)");
    (void)daemon.Shutdown(milliseconds(5'000));
  }
  std::printf("\n");

  // (c) recovery time vs journal length: a service journals N single-op
  // deltas, crashes (destructor without detach), and a fresh service
  // re-attaches the base snapshot — replaying and verifying the whole
  // journal before serving.
  {
    std::printf("(c) attach-with-replay time vs journal length:\n");
    std::printf("%-10s %-14s %-14s\n", "records", "replay_ms", "records/s");
    for (int records : {16, 256, 2048}) {
      char tmpl[] = "/tmp/cqa_bench_journal_XXXXXX";
      char* dir = ::mkdtemp(tmpl);
      if (dir == nullptr) return;
      Result<Database> base =
          Database::FromText("R(a | b), R(a | c)\nS(b | a)\nT(k0 | v0)");
      if (!base.ok()) return;
      auto shared =
          std::make_shared<const Database>(std::move(base.value()));
      ShardedServiceOptions opts;
      opts.shard.workers = 1;
      opts.journal_dir = dir;
      opts.journal.fsync = FsyncPolicy::kNever;  // time replay, not fsync
      {
        ShardedSolveService writer(opts);
        if (!writer.Attach("bench", shared).ok()) return;
        for (int i = 0; i < records; ++i) {
          FactDelta delta;
          delta.id = "rec-" + std::to_string(i);
          DeltaOp op;
          op.insert = true;
          op.relation = "T";
          op.values = {"k" + std::to_string(i + 1),
                       "v" + std::to_string(i + 1)};
          delta.ops.push_back(std::move(op));
          if (!writer.ApplyDelta("bench", delta).ok()) return;
        }
      }  // dropped without detach: the journal is the only survivor
      double ms = 0;
      {
        ShardedSolveService reader(opts);
        ms = benchutil::TimeUs([&] {
               (void)reader.Attach("bench", shared);
             }) /
             1000.0;
      }
      std::printf("%-10d %-14.2f %-14.0f\n", records, ms,
                  ms > 0 ? records / (ms / 1000.0) : 0.0);
      std::string cleanup = std::string("rm -rf ") + dir;
      (void)std::system(cleanup.c_str());
    }
  }
  std::printf("\n");
}

void TableDurability() {
  // (a) bounded recovery: the same attach-with-replay experiment as D6(c),
  // with and without epoch snapshots. With a snapshot every 64 deltas the
  // replay is snapshot-load + a bounded tail, so recovery stops scaling
  // with history length.
  std::printf("D7. durability and replication:\n");
  std::printf("(a) recovery time vs journal length, with/without "
              "snapshots (every 64 deltas):\n");
  std::printf("%-10s %-16s %-16s %-10s\n", "records", "replay_ms",
              "snapshot_ms", "speedup");
  for (int records : {16, 256, 2048}) {
    double ms[2] = {0, 0};
    for (int snap = 0; snap < 2; ++snap) {
      char tmpl[] = "/tmp/cqa_bench_snap_XXXXXX";
      char* dir = ::mkdtemp(tmpl);
      if (dir == nullptr) return;
      Result<Database> base =
          Database::FromText("R(a | b), R(a | c)\nS(b | a)\nT(k0 | v0)");
      if (!base.ok()) return;
      auto shared = std::make_shared<const Database>(std::move(base.value()));
      ShardedServiceOptions opts;
      opts.shard.workers = 1;
      opts.journal_dir = dir;
      opts.journal.fsync = FsyncPolicy::kNever;  // time replay, not fsync
      if (snap == 1) opts.snapshot.every_deltas = 64;
      {
        ShardedSolveService writer(opts);
        if (!writer.Attach("bench", shared).ok()) return;
        for (int i = 0; i < records; ++i) {
          FactDelta delta;
          delta.id = "rec-" + std::to_string(i);
          DeltaOp op;
          op.insert = true;
          op.relation = "T";
          op.values = {"k" + std::to_string(i + 1),
                       "v" + std::to_string(i + 1)};
          delta.ops.push_back(std::move(op));
          if (!writer.ApplyDelta("bench", delta).ok()) return;
        }
      }  // dropped without detach: snapshot + journal are the survivors
      {
        ShardedSolveService reader(opts);
        ms[snap] = benchutil::TimeUs([&] {
                     (void)reader.Attach("bench", shared);
                   }) /
                   1000.0;
      }
      std::string cleanup = std::string("rm -rf ") + dir;
      (void)std::system(cleanup.c_str());
    }
    std::printf("%-10d %-16.2f %-16.2f %.1fx\n", records, ms[0], ms[1],
                ms[1] > 0 ? ms[0] / ms[1] : 0.0);
  }
  std::printf("\n");

  // (b) group fsync: acked-delta throughput under concurrent writers for
  // each fsync policy. kAlways pays one fsync per ack; kGroup amortises
  // one fsync over every delta that arrived during the flush window;
  // kNever is the no-durability ceiling.
  {
    std::printf("(b) acked deltas/s vs fsync policy, 16 writers x 64 "
                "single-op deltas:\n");
    std::printf("%-10s %-12s %-12s %-10s\n", "policy", "acks/s", "wall_ms",
                "fsyncs");
    struct Row {
      const char* name;
      FsyncPolicy policy;
    };
    const Row rows[] = {{"always", FsyncPolicy::kAlways},
                        {"group", FsyncPolicy::kGroup},
                        {"never", FsyncPolicy::kNever}};
    for (const Row& row : rows) {
      char tmpl[] = "/tmp/cqa_bench_fsync_XXXXXX";
      char* dir = ::mkdtemp(tmpl);
      if (dir == nullptr) return;
      Result<Database> base = Database::FromText("T(k0 | v0)");
      if (!base.ok()) return;
      ShardedServiceOptions opts;
      opts.shard.workers = 1;
      opts.journal_dir = dir;
      opts.journal.fsync = row.policy;
      ShardedSolveService service(opts);
      if (!service.Attach("bench", std::move(base.value())).ok()) return;
      constexpr int kWriters = 16;
      constexpr int kPerWriter = 64;
      std::atomic<uint64_t> acked{0};
      double wall_us = benchutil::TimeUs([&] {
        std::vector<std::thread> writers;
        for (int w = 0; w < kWriters; ++w) {
          writers.emplace_back([&, w] {
            for (int i = 0; i < kPerWriter; ++i) {
              FactDelta delta;
              delta.id = "w" + std::to_string(w) + "-" + std::to_string(i);
              DeltaOp op;
              op.insert = true;
              op.relation = "T";
              op.values = {delta.id, "v"};
              delta.ops.push_back(std::move(op));
              if (service.ApplyDelta("bench", delta).ok()) {
                acked.fetch_add(1, std::memory_order_relaxed);
              }
            }
          });
        }
        for (auto& t : writers) t.join();
      });
      ServiceStats stats = service.Stats();
      std::printf("%-10s %-12.0f %-12.2f %llu\n", row.name,
                  acked.load() / (wall_us / 1e6), wall_us / 1000.0,
                  static_cast<unsigned long long>(stats.journal_fsyncs));
      std::string cleanup = std::string("rm -rf ") + dir;
      (void)std::system(cleanup.c_str());
    }
  }
  std::printf("\n");

  // (c) replication lag: a follower daemon tails a primary over loopback
  // TCP; after each primary ack, the time until the follower's epoch
  // catches up is the write-to-replica visibility lag.
  {
    std::printf("(c) replication lag, primary ack -> follower epoch, 50 "
                "deltas:\n");
    std::printf("%-14s %-14s %-14s\n", "p50_us", "p99_us", "max_us");
    DaemonOptions popts;
    popts.service.workers = 2;
    SolveDaemon primary(PollDb(40, 17), popts);
    if (!primary.Start().ok()) return;
    DaemonOptions fopts;
    fopts.service.workers = 2;
    fopts.follow_host = "127.0.0.1";
    fopts.follow_port = primary.port();
    SolveDaemon follower(fopts);
    if (!follower.Start().ok()) return;
    auto follower_epoch = [&]() -> uint64_t {
      for (const auto& [name, stats] : follower.stats_per_db()) {
        if (name == SolveDaemon::kDefaultDbName) return stats.epoch;
      }
      return 0;
    };
    auto bootstrap_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (follower.stats_per_db().empty() &&
           std::chrono::steady_clock::now() < bootstrap_deadline) {
      std::this_thread::sleep_for(milliseconds(1));
    }
    NetClient client;
    if (!client.Connect("127.0.0.1", primary.port(), kIo).ok()) return;
    std::vector<double> lag_us;
    uint64_t id = 0;
    for (int i = 0; i < 50; ++i) {
      std::vector<DeltaOp> ops(1);
      ops[0].insert = true;
      ops[0].relation = "Lives";
      ops[0].values = {"repl_p" + std::to_string(i), "repl_t"};
      (void)client.SendFrame(ApplyDeltaFrame(++id, "lag-" + std::to_string(i),
                                             ops),
                             kIo);
      (void)client.ReadResponse(kIo);
      const uint64_t target = static_cast<uint64_t>(i) + 1;
      lag_us.push_back(benchutil::TimeUs([&] {
        while (follower_epoch() < target) {
          std::this_thread::yield();
        }
      }));
    }
    std::printf("%-14llu %-14llu %-14.0f\n",
                static_cast<unsigned long long>(Percentile(&lag_us, 0.50)),
                static_cast<unsigned long long>(Percentile(&lag_us, 0.99)),
                *std::max_element(lag_us.begin(), lag_us.end()));
    (void)follower.Shutdown(milliseconds(5'000));
    (void)primary.Shutdown(milliseconds(5'000));
  }
  std::printf("\n");
}

// The D8 instance: C value-disjoint components under
// PigeonholeBacktrackingQuery "R(x | y), not S(y | x), not T(y | x)" (T keyed
// by y keeps it off the matching engine). Components c = 0..C-2 are chaff —
// an R-block {R(ca|cb1), R(ca|cb2)} whose S mirrors are present, so *every*
// repair of the component falsifies the query, two ways; each chaff component
// multiplies the falsifying combinations a sequential backtracking proof must
// exhaust. The last component is a certain pigeonhole core: the whole
// database is CERTAINTY-true via that one component, which a decomposed solve
// discovers after ~one core proof. Values get a per-C prefix and the chaff is
// added (interned) before the core: the backtracking engine's key-major block
// order follows interner ids, so this pins the chaff blocks ahead of the core
// in the sequential search — the adversarial ordering — independent of what
// earlier tables happened to intern.
Database AdversarialComponents(int copies, int core_k) {
  std::string p = "d8c" + std::to_string(copies) + "_";
  Schema schema;
  schema.AddRelationOrDie("R", 2, 1);
  schema.AddRelationOrDie("S", 2, 1);
  schema.AddRelationOrDie("T", 2, 1);
  Database db(std::move(schema));
  for (int c = 0; c + 1 < copies; ++c) {
    Value a = Value::Of(p + "ca" + std::to_string(c));
    for (int j = 1; j <= 2; ++j) {
      Value b =
          Value::Of(p + "cb" + std::to_string(j) + "x" + std::to_string(c));
      db.AddFactOrDie("R", {a, b});
      db.AddFactOrDie("S", {b, a});
    }
  }
  for (int i = 1; i <= core_k; ++i) {
    Value a = Value::Of(p + "a" + std::to_string(i));
    for (int j = 1; j < core_k; ++j) {
      Value b = Value::Of(p + "b" + std::to_string(j));
      db.AddFactOrDie("R", {a, b});
      db.AddFactOrDie("S", {b, a});
    }
  }
  return db;
}

void TableComponentParallel() {
  std::printf(
      "D8. component-parallel speedup vs component count: C-1 chaff "
      "components + one\n    certain pigeonhole core (k=6), "
      "backtracking over the wire, parallelism 1 vs 8.\n    Verdicts "
      "parity-checked per row; sequential cost grows with the chaff\n"
      "    product, parallel cost stays ~one core proof:\n");
  std::printf("%-6s %-12s %-12s %-9s %-12s %-8s %-8s\n", "C", "seq_ms",
              "par8_ms(p50)", "speedup", "verdicts", "comps", "steals");
  const std::string query = "R(x | y), not S(y | x), not T(y | x)";
  const milliseconds kSlowIo{180'000};  // the C=8 sequential proof is slow
  DaemonOptions options;
  options.service.workers = 2;
  SolveDaemon daemon(options);
  if (!daemon.Start().ok()) return;
  for (int copies : {1, 2, 4, 8}) {
    std::string name = "c" + std::to_string(copies);
    if (!daemon
             .Attach(name, std::make_shared<const Database>(
                               AdversarialComponents(copies, 6)))
             .ok()) {
      break;
    }
  }
  NetClient client;
  if (!client.Connect("127.0.0.1", daemon.port(), kIo).ok()) return;
  uint64_t id = 0;
  auto solve_ms = [&](const char* db, int parallelism, std::string* verdict,
                      uint64_t* comps, uint64_t* steals) -> double {
    JsonObjectBuilder b;
    b.Set("type", "solve").Set("id", ++id).Set("query", query).Set("db", db)
        .Set("method", "backtracking")
        .Set("parallelism", static_cast<int64_t>(parallelism));
    Result<WireResponse> r = Result<WireResponse>::Error(ErrorCode::kInternal, "");
    double ms = benchutil::TimeUs([&] {
                  if (!client.SendFrame(b.Build().Serialize(), kIo).ok()) return;
                  r = client.WaitTerminal(id, kSlowIo);
                }) /
                1e3;
    if (!r.ok() || r->type != "result") return -1;
    *verdict = r->verdict;
    if (const Json* v = r->raw.Find("components")) {
      *comps = static_cast<uint64_t>(v->AsDouble());
    }
    if (const Json* v = r->raw.Find("steals")) {
      *steals = static_cast<uint64_t>(v->AsDouble());
    }
    return ms;
  };
  for (int copies : {1, 2, 4, 8}) {
    std::string name = "c" + std::to_string(copies);
    std::string seq_verdict, par_verdict;
    uint64_t comps = 0, steals = 0, ignored = 0;
    double seq_ms =
        solve_ms(name.c_str(), 1, &seq_verdict, &ignored, &ignored);
    std::vector<double> par_runs;
    for (int rep = 0; rep < 3; ++rep) {
      par_runs.push_back(
          solve_ms(name.c_str(), 8, &par_verdict, &comps, &steals));
    }
    std::sort(par_runs.begin(), par_runs.end());
    double par_ms = par_runs[par_runs.size() / 2];
    if (seq_ms < 0 || par_ms < 0) break;
    bool parity = seq_verdict == par_verdict;
    std::printf("%-6d %-12.1f %-12.1f %-9.1f %-12s %-8llu %-8llu\n", copies,
                seq_ms, par_ms, par_ms > 0 ? seq_ms / par_ms : 0.0,
                parity ? seq_verdict.c_str() : "MISMATCH",
                static_cast<unsigned long long>(comps),
                static_cast<unsigned long long>(steals));
  }
  (void)daemon.Shutdown(milliseconds(5'000));
  std::printf("\n");
}

// The D9 database: `keys` single-fact R-blocks, every 4th key also
// carrying the S mirror that blocks it, under the stream query
// "R(x | y), not S(x | y)" with free {x}: the certain answers are exactly
// the unblocked keys, in spelling order.
Database StreamDb(int keys) {
  Schema schema;
  schema.AddRelationOrDie("R", 2, 1);
  schema.AddRelationOrDie("S", 2, 1);
  Database db(std::move(schema));
  for (int i = 0; i < keys; ++i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "r%04d", i);
    Value k = Value::Of(buf);
    db.AddFactOrDie("R", {k, k});
    if (i % 4 == 0) db.AddFactOrDie("S", {k, k});
  }
  return db;
}

std::string AnswersStreamFrame(uint64_t id, uint64_t max_chunk,
                               const std::string& cursor, const char* cache) {
  JsonObjectBuilder b;
  b.Set("type", "answers").Set("id", id).Set("query",
                                             "R(x | y), not S(x | y)");
  Json::Array vars;
  vars.push_back(Json::MakeString("x"));
  b.Set("free", Json::MakeArray(std::move(vars)));
  if (max_chunk > 0) b.Set("max_chunk", max_chunk);
  if (!cursor.empty()) b.Set("cursor", cursor);
  b.Set("cache", cache);
  return b.Build().Serialize();
}

struct StreamRun {
  double ms = -1;
  double ttfb_us = 0;
  uint64_t tuples = 0;
  uint64_t chunks = 0;
  std::string mid_cursor;  // first cursor at or past `mid_at` tuples
};

StreamRun DriveStream(NetClient* client, uint64_t id, uint64_t max_chunk,
                      const std::string& cursor, const char* cache,
                      uint64_t mid_at) {
  StreamRun run;
  const auto t0 = std::chrono::steady_clock::now();
  auto since_t0_us = [&t0] {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };
  if (!client->SendFrame(AnswersStreamFrame(id, max_chunk, cursor, cache), kIo)
           .ok()) {
    return run;
  }
  for (;;) {
    Result<WireResponse> r = client->ReadResponse(kIo);
    if (!r.ok()) return run;
    if (r->type == "answer_chunk") {
      if (run.chunks == 0) run.ttfb_us = since_t0_us();
      run.tuples += r->tuples.size();
      ++run.chunks;
      if (mid_at > 0 && run.mid_cursor.empty() && run.tuples >= mid_at &&
          !r->cursor.empty()) {
        run.mid_cursor = r->cursor;
      }
      continue;
    }
    if (r->type == "answer_done") run.ms = since_t0_us() / 1e3;
    return run;
  }
}

void TableAnswerStream() {
  constexpr int kKeys = 800;
  constexpr uint64_t kExpected = kKeys - kKeys / 4;  // unblocked keys
  std::printf(
      "D9. streaming answers over the wire: %llu certain answers out of %d\n"
      "    candidates (\"R(x | y), not S(x | y)\", free x), chunk-per-job\n"
      "    scheduling. Cold stream, then the identical warm stream served\n"
      "    from the chunk cache:\n",
      static_cast<unsigned long long>(kExpected), kKeys);
  std::printf("%-8s %-8s %-10s %-10s %-10s %s\n", "chunk", "chunks", "cold_ms",
              "warm_ms", "ttfb_us", "ktup/s(cold)");
  DaemonOptions options;
  options.service.workers = 2;
  SolveDaemon daemon(std::make_shared<const Database>(StreamDb(kKeys)),
                     options);
  if (!daemon.Start().ok()) return;
  NetClient client;
  if (!client.Connect("127.0.0.1", daemon.port(), kIo).ok()) return;
  uint64_t id = 0;
  std::string resume_cursor;
  for (uint64_t chunk : {uint64_t{1}, uint64_t{16}, uint64_t{64},
                         uint64_t{256}}) {
    StreamRun cold =
        DriveStream(&client, ++id, chunk, "", "default", kExpected / 2);
    StreamRun warm = DriveStream(&client, ++id, chunk, "", "default", 0);
    if (cold.ms < 0 || warm.ms < 0 || cold.tuples != kExpected ||
        warm.tuples != kExpected) {
      std::printf("stream failed (tuples %llu/%llu)\n",
                  static_cast<unsigned long long>(cold.tuples),
                  static_cast<unsigned long long>(kExpected));
      break;
    }
    if (chunk == 64) resume_cursor = cold.mid_cursor;
    std::printf("%-8llu %-8llu %-10.1f %-10.1f %-10.0f %.0f\n",
                static_cast<unsigned long long>(chunk),
                static_cast<unsigned long long>(cold.chunks), cold.ms, warm.ms,
                cold.ttfb_us,
                static_cast<double>(cold.tuples) / cold.ms);
  }
  if (!resume_cursor.empty()) {
    // A consumer that died after half the stream: resume from its last
    // cursor vs restart from zero. Cache bypassed so both sides pay real
    // enumeration — the resume saving is the half it does not re-scan.
    StreamRun restart = DriveStream(&client, ++id, 64, "", "bypass", 0);
    StreamRun resume =
        DriveStream(&client, ++id, 64, resume_cursor, "bypass", 0);
    std::printf(
        "    resume-vs-restart at max_chunk=64 after consuming ~half "
        "(cache bypassed):\n"
        "    restart_ms=%.1f (%llu tuples)  resume_ms=%.1f (%llu tuples)\n",
        restart.ms, static_cast<unsigned long long>(restart.tuples),
        resume.ms, static_cast<unsigned long long>(resume.tuples));
  }
  (void)daemon.Shutdown(milliseconds(5'000));
  std::printf("\n");
}

void Tables() {
  TableRoundTrip();
  TableOverloadShedRate();
  TableCacheHotCold();
  TableShardIsolation();
  TableSandboxOverhead();
  TableLiveUpdate();
  TableDurability();
  TableComponentParallel();
  TableAnswerStream();
}

void BM_DaemonRoundTrip(benchmark::State& state) {
  DaemonOptions options;
  options.service.workers = 1;
  SolveDaemon daemon(PollDb(20, 23), options);
  if (!daemon.Start().ok()) {
    state.SkipWithError("daemon failed to start");
    return;
  }
  NetClient client;
  if (!client.Connect("127.0.0.1", daemon.port(), kIo).ok()) {
    state.SkipWithError("client failed to connect");
    return;
  }
  std::string query = "Mayor(t | p), not Lives(p | t)";  // PollQ1, wire spelling
  uint64_t id = 0;
  for (auto _ : state) {
    ++id;
    benchmark::DoNotOptimize(client.SendFrame(SolveFrame(id, query), kIo));
    benchmark::DoNotOptimize(client.WaitTerminal(id, kIo));
  }
  (void)daemon.Shutdown(milliseconds(5'000));
}
BENCHMARK(BM_DaemonRoundTrip);

}  // namespace
}  // namespace cqa

CQA_BENCH_MAIN(cqa::Tables)
