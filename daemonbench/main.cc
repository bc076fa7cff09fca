// Closed-loop benchmark of the solve daemon.
//
//   daemonbench --workload=NAME --seed=N --seconds=S --trace=0|1
//               [--out-dir=DIR] [--result-file=FILE]
//
// Starts an in-process SolveDaemon configured like `cqa_cli serve`'s
// defaults (4 shard workers, a 4096-entry result cache, warm state on,
// inproc isolation, parallelism 1, max-inflight 16), attaches the
// workload's databases over loopback TCP, and drives it closed loop: a fixed
// number of client connections, each with one request outstanding, for
// `--seconds`. Every output is checked against a reference computed before
// timing.
//
// --trace=0 measures the end-to-end metrics. --trace=1 is the separate
// traced run: the same generated requests through the daemon, then an
// in-process replay through each layer's public functions, in passes with
// the tracer off and on (the difference is the tracing overhead). The traced
// passes put a span around every call; the spans give the per-layer metrics
// and are written to DIR/spans-<workload>-s<seed>.jsonl.
//
// Prints a human-readable report and writes every metric, with its unit and
// sample count, to --result-file as JSON. Exit code: 0 when every operation
// succeeded and matched its reference, 1 otherwise, 2 on usage or set-up
// errors.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cqa/certainty/solver.h"
#include "cqa/db/database.h"
#include "cqa/query/parser.h"
#include "cqa/serve/net/client.h"
#include "cqa/serve/net/daemon.h"
#include "cqa/serve/net/json.h"
#include "cqa/serve/net/protocol.h"
#include "histogram.h"
#include "layers.h"
#include "spans.h"
#include "workloads.h"

namespace daemonbench {
namespace {

using namespace cqa;
using std::chrono::milliseconds;

constexpr milliseconds kIo{60'000};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build/daemonbench/out";
  std::string result_file;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    const std::string key = arg.substr(2, eq - 2);
    const std::string v = arg.substr(eq + 1);
    if (key == "workload") {
      a->workload = v;
    } else if (key == "seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (key == "seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (key == "trace") {
      a->trace = v == "1";
    } else if (key == "out-dir") {
      a->out_dir = v;
    } else if (key == "result-file") {
      a->result_file = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// `cqa_cli serve`'s defaults. The one deviation is the frame cap: attach
/// frames carry their facts inline, and the 16k-person poll database of
/// kernel_hard is 2 MB of fact text.
DaemonOptions ServeDefaults(const Workload& w, const std::string& journal_dir) {
  DaemonOptions d;
  d.service.workers = 4;
  d.service.queue_capacity = 64;
  d.service.cache_entries = 4096;
  d.service.warm_state = true;
  d.service.isolation = IsolationMode::kInproc;
  d.service.parallelism = 1;
  d.connection.max_inflight = 16;
  d.connection.max_frame_bytes = 8u << 20;
  if (w.journal) {
    d.journal_dir = journal_dir;
    d.journal.fsync = FsyncPolicy::kNever;  // sandbox fsync timing means nothing
  }
  return d;
}

// ------------------------------------------------------------ one exchange

enum class Outcome { kOk, kMismatch, kError, kLost };

struct Sample {
  int64_t client_ns = 0;
  int64_t frame_us = -1;  // the terminal frame's service latency, if any
};

/// Sends one operation and reads to its terminal frame, checking the output.
Outcome Exchange(NetClient* client, const Workload& w, const Op& op,
                 uint64_t id, Sample* sample, std::string* why) {
  const Request& r = w.requests[op.request];
  const std::string frame = r.kind == OpKind::kDelta
                                ? EncodeDeltaFrame(r, id, op.delta_id)
                                : r.frame_head + std::to_string(id) + r.frame_tail;
  const int64_t t0 = NowNs();
  if (!client->SendFrame(frame, kIo).ok()) {
    *why = "send failed";
    return Outcome::kLost;
  }
  uint64_t tuples = 0;
  for (;;) {
    Result<WireResponse> resp = client->ReadResponse(kIo);
    if (!resp.ok()) {
      *why = "no terminal frame: " + resp.error();
      return Outcome::kLost;
    }
    if (resp->id != id) continue;
    if (resp->type == "answer_chunk") {
      tuples += resp->tuples.size();
      continue;
    }
    sample->client_ns = NowNs() - t0;
    if (resp->type == "error" || resp->type == "cancelled") {
      *why = r.label + ": " + resp->type + " " + resp->code + " " + resp->message;
      return Outcome::kError;
    }
    std::string got, want;
    if (r.kind == OpKind::kSolve && resp->type == "result") {
      sample->frame_us = static_cast<int64_t>(resp->latency_us);
      got = resp->verdict;
      want = op.expect->verdict;
    } else if (r.kind == OpKind::kAnswers && resp->type == "answer_done") {
      sample->frame_us = static_cast<int64_t>(resp->latency_us);
      got = std::to_string(resp->answers) + "/" + std::to_string(tuples);
      want = std::to_string(op.expect->answers) + "/" +
             std::to_string(op.expect->answers);
    } else if (r.kind == OpKind::kDelta && resp->type == "delta_ack") {
      const Json* fp = resp->raw.Find("fingerprint");
      const Json* applied = resp->raw.Find("applied");
      got = (fp != nullptr ? fp->AsString() : "?") +
            (applied != nullptr && applied->AsBool() ? "" : " (not applied)");
      want = op.expect->fingerprint;
    } else {
      *why = r.label + ": unexpected " + resp->type + " frame";
      return Outcome::kError;
    }
    if (got == want) return Outcome::kOk;
    *why = r.label + " [" + r.query + "]: got " + got + ", want " + want;
    return Outcome::kMismatch;
  }
}

struct Tally {
  uint64_t attempted = 0;
  uint64_t mismatches = 0;
  uint64_t errors = 0;
  uint64_t lost = 0;
  std::vector<std::string> notes;

  uint64_t failed() const { return mismatches + errors + lost; }
  void Count(Outcome o, const std::string& why) {
    ++attempted;
    switch (o) {
      case Outcome::kOk: return;
      case Outcome::kMismatch: ++mismatches; break;
      case Outcome::kError: ++errors; break;
      case Outcome::kLost: ++lost; break;
    }
    if (notes.size() < 5) notes.push_back(why);
  }
  void Add(const Tally& t) {
    attempted += t.attempted;
    mismatches += t.mismatches;
    errors += t.errors;
    lost += t.lost;
    for (const std::string& n : t.notes) {
      if (notes.size() < 5) notes.push_back(n);
    }
  }
};

// ------------------------------------------------------------------ set-up

/// Sends an admin frame and waits for the frame that answers it.
Result<WireResponse> AdminCall(NetClient* client, const std::string& frame,
                               uint64_t id) {
  if (!client->SendFrame(frame, kIo).ok()) {
    return Result<WireResponse>::Error("send failed");
  }
  for (;;) {
    Result<WireResponse> resp = client->ReadResponse(kIo);
    if (!resp.ok() || resp->id == id) return resp;
  }
}

struct Server {
  std::unique_ptr<SolveDaemon> daemon;
  std::string journal_dir;
  uint16_t port = 0;
};

/// Daemon start, attaching every database over the wire, and one warm-up
/// pass over each distinct solve and answers request (checked against the
/// initial references). Returns the wall time in seconds.
Result<double> SetUp(const Workload& w, const std::string& journal_dir,
                     Tracer* tracer, Server* server, Tally* warm) {
  const int64_t t0 = NowNs();
  if (w.journal) std::filesystem::create_directories(journal_dir);
  server->journal_dir = journal_dir;
  server->daemon =
      std::make_unique<SolveDaemon>(ServeDefaults(w, journal_dir));
  Result<bool> started = server->daemon->Start();
  if (!started.ok()) return Result<double>::Error(started);
  server->port = server->daemon->port();

  NetClient admin;
  if (!admin.Connect("127.0.0.1", server->port, kIo).ok()) {
    return Result<double>::Error("admin connect failed");
  }
  uint64_t id = 0;
  for (const auto& [name, facts] : w.dbs) {
    ++id;
    const std::string frame = JsonObjectBuilder()
                                  .Set("type", "attach")
                                  .Set("id", id)
                                  .Set("name", name)
                                  .Set("facts", facts)
                                  .Build()
                                  .Serialize();
    if (tracer != nullptr) tracer->Begin("registry.attach", id);
    Result<WireResponse> ack = AdminCall(&admin, frame, id);
    if (tracer != nullptr) tracer->End(facts.size());
    if (!ack.ok() || ack->type != "attach_ack") {
      return Result<double>::Error(
          "attach " + name + ": " + (ack.ok() ? ack->message : ack.error()));
    }
  }
  admin.Close();

  std::vector<size_t> distinct;
  for (size_t i = 0; i < w.requests.size(); ++i) {
    if (w.requests[i].kind != OpKind::kDelta) distinct.push_back(i);
  }
  std::vector<Tally> tallies(w.connections);
  std::vector<std::thread> threads;
  for (int c = 0; c < w.connections; ++c) {
    threads.emplace_back([&, c] {
      NetClient client;
      if (!client.Connect("127.0.0.1", server->port, kIo).ok()) {
        tallies[c].Count(Outcome::kLost, "warm-up connect failed");
        return;
      }
      uint64_t next_id = static_cast<uint64_t>(c + 1) << 40;
      for (size_t k = c; k < distinct.size(); k += w.connections) {
        Op op;
        op.request = distinct[k];
        op.expect = &w.Initial(distinct[k]);
        Sample sample;
        std::string why;
        Outcome o = Exchange(&client, w, op, ++next_id, &sample, &why);
        tallies[c].Count(o, "warm-up: " + why);
        if (o == Outcome::kLost) return;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Tally& t : tallies) warm->Add(t);
  return static_cast<double>(NowNs() - t0) / 1e9;
}

void TearDown(Server* server) {
  if (server->daemon != nullptr) (void)server->daemon->Shutdown(milliseconds(10'000));
  server->daemon.reset();
  if (!server->journal_dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(server->journal_dir, ec);
  }
  // Hand the torn-down daemon's heap back, so repeated set-ups do not stack
  // up in per-thread malloc arenas and peak RSS reflects one daemon.
  malloc_trim(0);
}

/// The daemon's counters (service aggregate and daemon level), by name.
std::map<std::string, double> StatsCounters(uint16_t port) {
  std::map<std::string, double> out;
  NetClient client;
  if (!client.Connect("127.0.0.1", port, kIo).ok()) return out;
  Result<WireResponse> r =
      AdminCall(&client, "{\"id\":1,\"type\":\"stats\"}", 1);
  if (!r.ok() || r->type != "stats") return out;
  for (const char* section : {"service", "daemon"}) {
    const Json* s = r->raw.Find(section);
    if (s == nullptr || !s->is_object()) continue;
    for (const auto& [key, value] : s->AsObject()) {
      if (value.is_number()) out[std::string(section) + "." + key] = value.AsDouble();
    }
  }
  return out;
}

// -------------------------------------------------------------- timed loop

/// The distinct request labels, for per-class solve latency.
struct Classes {
  explicit Classes(const Workload& w) {
    for (const Request& r : w.requests) {
      auto it = std::find(names.begin(), names.end(), r.label);
      of.push_back(static_cast<size_t>(it - names.begin()));
      if (it == names.end()) names.push_back(r.label);
    }
  }
  std::vector<std::string> names;
  std::vector<size_t> of;  // request -> index into names
};

/// One connection's record of the timed loop. Its histograms are allocated
/// before the daemon starts and never grow, so the benchmark's per-request
/// bookkeeping does not rise with throughput and peak_rss_mb follows the
/// daemon.
struct Recorder {
  explicit Recorder(size_t classes) : solve_by_class(classes) {}

  Histogram solve, answers, write;        // client latency, by operation kind
  Histogram frame;                        // solves: the frame's latency_us
  Histogram wire;                         // solves: client minus frame latency
  std::vector<Histogram> solve_by_class;  // solves: client latency, by label
  uint64_t completed = 0;
  Tally tally;

  void Add(const Request& r, size_t cls, const Sample& s) {
    ++completed;
    switch (r.kind) {
      case OpKind::kSolve:
        solve.Add(s.client_ns);
        solve_by_class[cls].Add(s.client_ns);
        if (s.frame_us >= 0) {
          frame.Add(s.frame_us * 1000);
          wire.Add(s.client_ns - s.frame_us * 1000);
        }
        break;
      case OpKind::kAnswers: answers.Add(s.client_ns); break;
      case OpKind::kDelta: write.Add(s.client_ns); break;
    }
  }

  void Merge(const Recorder& o) {
    solve.Merge(o.solve);
    answers.Merge(o.answers);
    write.Merge(o.write);
    frame.Merge(o.frame);
    wire.Merge(o.wire);
    for (size_t i = 0; i < solve_by_class.size(); ++i) {
      solve_by_class[i].Merge(o.solve_by_class[i]);
    }
    completed += o.completed;
    tally.Add(o.tally);
  }
};

/// Closed loop: one thread per connection, each with one request
/// outstanding, until `seconds` have passed. Returns the elapsed seconds.
double RunLoop(const Workload& w, const Classes& classes, uint16_t port,
               double seconds, std::vector<Recorder>* recs) {
  std::vector<std::shared_ptr<OpSource>> sources = w.MakeSources();
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  const int64_t t0 = NowNs();
  for (int c = 0; c < w.connections; ++c) {
    threads.emplace_back([&, c] {
      Recorder& rec = (*recs)[c];
      NetClient client;
      if (!client.Connect("127.0.0.1", port, kIo).ok()) {
        rec.tally.Count(Outcome::kLost, "connect failed");
        return;
      }
      uint64_t next_id = static_cast<uint64_t>(c + 1) << 40;
      Op op;
      while (sources[c]->Next(stop.load(), &op)) {
        Sample sample;
        std::string why;
        const Outcome o = Exchange(&client, w, op, ++next_id, &sample, &why);
        rec.tally.Count(o, why);
        if (o == Outcome::kOk) {
          rec.Add(w.requests[op.request], classes.of[op.request], sample);
        }
        if (o == Outcome::kLost) return;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (std::thread& t : threads) t.join();
  return static_cast<double>(NowNs() - t0) / 1e9;
}

// ----------------------------------------------------------------- metrics

/// `<prefix>_p50_us`, and `<prefix>_p99_us` read at the workload's tail
/// percentile (see Workload::tail).
void AddLatency(Metrics* m, const std::string& prefix, const Histogram& h,
                double tail) {
  if (h.count() == 0) return;
  (*m)[prefix + "_p50_us"] = {h.PercentileUs(0.50), "us", h.count()};
  (*m)[prefix + "_p99_us"] = {h.PercentileUs(tail), "us", h.count()};
  const double beyond = static_cast<double>(h.count()) * (1 - tail);
  if (beyond < 10) {
    std::printf("note: %s_p99_us (p%g) has only %.0f samples beyond it\n",
                prefix.c_str(), 100 * tail, beyond);
  }
}

/// Serve-layer and cache metrics from the loop's record and the daemon's
/// counters before and after it.
void AddServeMetrics(const Workload& w, const Recorder& rec,
                     const std::map<std::string, double>& before,
                     const std::map<std::string, double>& after, Metrics* m) {
  auto delta = [&](const std::string& key) {
    auto a = after.find(key);
    auto b = before.find(key);
    return (a == after.end() ? 0 : a->second) - (b == before.end() ? 0 : b->second);
  };
  AddLatency(m, "serve.latency", rec.frame, w.tail);
  if (rec.wire.count() > 0) {
    (*m)["net.wire_us"] = {rec.wire.PercentileUs(0.5), "us", rec.wire.count()};
  }
  const uint64_t ops = rec.completed;
  (*m)["serve.shed"] = {delta("service.shed") +
                            delta("daemon.solves_rejected_overloaded") +
                            delta("daemon.solves_rejected_inflight_cap"),
                        "count", ops};
  (*m)["serve.failed"] = {delta("service.failed"), "count", ops};
  const double hits = delta("service.cache_hits");
  const double misses = delta("service.cache_misses");
  if (hits + misses > 0) {
    (*m)["cache.hit_ratio"] = {hits / (hits + misses), "ratio",
                               static_cast<uint64_t>(hits + misses)};
    for (const char* c : {"coalesced", "evictions", "invalidated", "rekeyed"}) {
      (*m)[std::string("cache.") + c] = {delta(std::string("service.cache_") + c),
                                         "count", static_cast<uint64_t>(hits + misses)};
    }
  }
  if (w.journal) {
    auto it = after.find("service.journal_bytes");
    (*m)["delta.journal_bytes"] = {it == after.end() ? 0 : it->second, "bytes", 1};
  }
}

/// serve.overhead_us: a solve's frame latency minus the in-process engine
/// time of the same solve, median over the first solve requests, each sent
/// once with "cache":"bypass". Uses the databases as attached.
void AddOverheadMetric(const Workload& w, uint16_t port, Metrics* m,
                       Tally* tally) {
  std::map<std::string, std::shared_ptr<Database>> dbs;
  for (const auto& [name, text] : w.dbs) {
    Result<Database> parsed = Database::FromText(text);
    if (!parsed.ok()) return;
    dbs[name] = std::make_shared<Database>(std::move(parsed.value()));
    dbs[name]->NumBlocks();
  }
  NetClient client;
  if (!client.Connect("127.0.0.1", port, kIo).ok()) return;
  std::vector<double> overhead;
  uint64_t id = uint64_t{99} << 40;
  for (size_t i = 0; i < w.requests.size() && overhead.size() < 64; ++i) {
    const Request& r = w.requests[i];
    if (r.kind != OpKind::kSolve) continue;
    ++id;
    Result<WireResponse> resp = AdminCall(&client, EncodeRequestFrame(r, id, true), id);
    if (!resp.ok() || resp->type != "result") {
      tally->Count(Outcome::kError, "overhead calibration: " + r.label);
      continue;
    }
    Result<Query> q = ParseQuery(r.query);
    if (!q.ok()) continue;
    SolveOptions opts;
    opts.parallelism = std::max(1, r.parallelism);
    double engine_us = 1e18;
    for (int rep = 0; rep < 3; ++rep) {
      const int64_t t0 = NowNs();
      (void)SolveCertainty(*q, *dbs[r.db], opts);
      engine_us = std::min(engine_us, static_cast<double>(NowNs() - t0) / 1e3);
    }
    overhead.push_back(static_cast<double>(resp->latency_us) - engine_us);
  }
  if (!overhead.empty()) {
    (*m)["serve.overhead_us"] = {Percentile(overhead, 0.5), "us", overhead.size()};
  }
}

// ------------------------------------------------------------------ output

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream f(path, std::ios::trunc);
  for (const Span& s : spans) {
    f << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"request\":"
      << s.request << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
      << ",\"dur_ns\":" << (s.end_ns - s.start_ns) << ",\"work\":" << s.work
      << "}\n";
  }
}

/// Every per-layer metric of the traced run (see README.md); the ones a
/// workload never produces are reported as absent, with the reason.
const char* const kLayerTable[] = {
    "net.decode_us", "net.encode_us", "net.wire_us",
    "serve.latency_p50_us", "serve.latency_p99_us", "serve.overhead_us",
    "serve.shed", "serve.failed", "cache.hit_ratio", "cache.coalesced",
    "cache.evictions", "cache.invalidated", "cache.rekeyed",
    "registry.attach_us", "db.load_us", "db.fingerprint_us",
    "query.parse_us", "attack.classify_us", "rewriting.alg1_us",
    "rewriting.build_us", "matching.q1_us", "certainty.bt_us",
    "certainty.bt_nodes", "certainty.bt_nodes_per_s", "parallel.solve_us",
    "parallel.speedup", "parallel.components", "parallel.steals",
    "fo.eval_us", "answers.chunk_us", "answers.tuples_per_s",
    "delta.apply_us", "delta.us_per_op", "delta.journal_bytes",
};

std::string AbsentReason(const std::string& metric) {
  if (metric.rfind("cache.", 0) == 0) return "every solve bypasses the cache";
  if (metric.rfind("matching.", 0) == 0) return "no q1-shaped query in the workload";
  if (metric.rfind("certainty.", 0) == 0) {
    return "no query needs backtracking (all FO or q1-shaped)";
  }
  if (metric.rfind("parallel.", 0) == 0) return "no request runs at parallelism > 1";
  if (metric.rfind("answers.", 0) == 0) return "no answer streams in the workload";
  if (metric.rfind("delta.", 0) == 0) return "no deltas in the workload";
  if (metric.rfind("rewriting.", 0) == 0 || metric.rfind("fo.", 0) == 0) {
    return "no FO query in the replayed operations";
  }
  return "not measured";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Run(const Args& args) {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  std::printf("daemonbench workload=%s seed=%llu seconds=%g trace=%d nproc=%u\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, nproc);
  std::filesystem::create_directories(args.out_dir);

  int64_t t0 = NowNs();
  Result<std::unique_ptr<Workload>> made = MakeWorkload(args.workload, args.seed);
  if (!made.ok()) {
    std::fprintf(stderr, "%s\n", made.error().c_str());
    return 2;
  }
  std::unique_ptr<Workload> w = std::move(made.value());
  const double gen_s = static_cast<double>(NowNs() - t0) / 1e9;
  t0 = NowNs();
  w->ComputeReferences(static_cast<int>(nproc));
  const double ref_s = static_cast<double>(NowNs() - t0) / 1e9;
  std::printf("inputs: %zu distinct requests over %zu databases, %d connections;"
              " generated in %.2f s, references in %.2f s (not timed)\n",
              w->requests.size(), w->dbs.size(), w->connections, gen_s, ref_s);
  const Classes classes(*w);
  // Allocated before the daemon starts: see Recorder.
  std::vector<Recorder> recs(w->connections, Recorder(classes.names.size()));
  const double rss_before_mb = PeakRssMb();

  Tracer tracer;
  Tracer* traced = args.trace ? &tracer : nullptr;
  // setup_s is the median of several set-ups; the traced run needs one.
  const int setups = args.trace ? 1 : 3;
  std::vector<double> setup_s;
  Tally warm;
  Server server;
  const std::string journal_base = args.out_dir + "/journal-" +
                                   std::to_string(::getpid()) + "-";
  for (int s = 0; s < setups; ++s) {
    if (s > 0) TearDown(&server);
    Result<double> took = SetUp(*w, journal_base + std::to_string(s), traced,
                                &server, &warm);
    if (!took.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", took.error().c_str());
      TearDown(&server);
      return 2;
    }
    setup_s.push_back(*took);
  }

  Metrics m;
  Tally calibration;
  if (args.trace) AddOverheadMetric(*w, server.port, &m, &calibration);
  const std::map<std::string, double> before = StatsCounters(server.port);
  const double elapsed_s = RunLoop(*w, classes, server.port, args.seconds, &recs);
  const std::map<std::string, double> after = StatsCounters(server.port);
  TearDown(&server);
  m["peak_rss_mb"] = {PeakRssMb(), "MB", 1};
  m["rss_before_daemon_mb"] = {rss_before_mb, "MB", 1};

  // End-to-end metrics (also computed on the traced run).
  Recorder& all = recs[0];
  for (size_t c = 1; c < recs.size(); ++c) all.Merge(recs[c]);
  m["throughput_rps"] = {static_cast<double>(all.completed) / elapsed_s, "1/s",
                         all.completed};
  AddLatency(&m, "solve", all.solve, w->tail);
  AddLatency(&m, "answers", all.answers, w->tail);
  AddLatency(&m, "write", all.write, w->tail);
  m["tail_pct"] = {100 * w->tail, "%", 1};
  m["setup_s"] = {Percentile(setup_s, 0.5), "s", setup_s.size()};
  Tally total = all.tally;
  total.Add(warm);
  total.Add(calibration);
  m["fail_ratio"] = {static_cast<double>(total.failed()) /
                         static_cast<double>(std::max<uint64_t>(1, total.attempted)),
                     "ratio", total.attempted};
  AddServeMetrics(*w, all, before, after, &m);
  for (size_t i = 0; i < classes.names.size(); ++i) {
    const Histogram& h = all.solve_by_class[i];
    if (h.count() == 0) continue;
    m["solve_p50_us[" + classes.names[i] + "]"] = {h.PercentileUs(0.5), "us",
                                                    h.count()};
  }

  if (args.trace) {
    // Tracing overhead: the same replayed operations with the tracer off
    // and on. A first untraced pass warms up and fixes the number of
    // operations; the timed passes then run on, off, off, on, so that a
    // steady drift of the host's speed cancels.
    LayerReplay replay(*w, &tracer);
    const uint64_t ops = replay.Run(nullptr, 0, std::max(0.5, args.seconds / 10)).ops;
    int64_t off_ns = 0, on_ns = 0;
    for (bool on : {true, false, false, true}) {
      (on ? on_ns : off_ns) += replay.Run(on ? &tracer : nullptr, ops, 0).ns;
    }
    if (off_ns > 0) {
      m["trace.overhead_pct"] = {
          100.0 * static_cast<double>(on_ns - off_ns) / static_cast<double>(off_ns),
          "%", 4 * ops};
    }
    replay.AddMetrics(&m);
    const ReplayOutcome& out = replay.outcome();
    total.attempted += out.checked;
    total.mismatches += out.mismatches;
    for (const std::string& n : out.notes) {
      if (total.notes.size() < 5) total.notes.push_back(n);
    }
    const std::vector<Span> spans = tracer.spans();
    AddSpanMetrics(spans, out.labels, &m);
    const std::string path = args.out_dir + "/spans-" + args.workload + "-s" +
                             std::to_string(args.seed) + ".jsonl";
    WriteSpans(path, spans);
    std::printf("traced run: %zu spans written to %s\n", spans.size(), path.c_str());
  }

  // Report.
  std::printf("setup_s samples:");
  for (double s : setup_s) std::printf(" %.3f", s);
  std::printf("\ntimed: %.2f s closed loop, %llu operations ok, %llu failed "
              "(%llu mismatches, %llu errors, %llu lost)\n",
              elapsed_s, static_cast<unsigned long long>(all.completed),
              static_cast<unsigned long long>(total.failed()),
              static_cast<unsigned long long>(total.mismatches),
              static_cast<unsigned long long>(total.errors),
              static_cast<unsigned long long>(total.lost));
  for (const std::string& n : total.notes) std::printf("  failure: %s\n", n.c_str());
  for (const auto& [name, metric] : m) {
    std::printf("  %-34s %14.4f %-6s (n=%llu)\n", name.c_str(), metric.value,
                metric.unit.c_str(), static_cast<unsigned long long>(metric.samples));
  }
  std::vector<std::string> absent;
  if (args.trace) {
    for (const char* name : kLayerTable) {
      if (m.count(name) == 0) {
        absent.push_back(name);
        std::printf("  %-34s absent: %s\n", name, AbsentReason(name).c_str());
      }
    }
  }

  if (!args.result_file.empty()) {
    std::ofstream f(args.result_file, std::ios::trunc);
    f << "{\"workload\":\"" << w->name << "\",\"seed\":" << args.seed
      << ",\"seconds\":" << JsonNumber(args.seconds) << ",\"trace\":" << (args.trace ? 1 : 0)
      << ",\"nproc\":" << nproc << ",\"connections\":" << w->connections
      << ",\"attempted\":" << total.attempted << ",\"failed\":" << total.failed()
      << ",\"mismatches\":" << total.mismatches << ",\"metrics\":{";
    bool first = true;
    for (const auto& [name, metric] : m) {
      f << (first ? "" : ",") << "\"" << name << "\":{\"value\":"
        << JsonNumber(metric.value) << ",\"unit\":\"" << metric.unit
        << "\",\"samples\":" << metric.samples << "}";
      first = false;
    }
    f << "},\"absent\":{";
    first = true;
    for (const std::string& name : absent) {
      f << (first ? "" : ",") << "\"" << name << "\":\"" << AbsentReason(name) << "\"";
      first = false;
    }
    f << "}}\n";
  }
  return total.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace daemonbench

int main(int argc, char** argv) {
  daemonbench::Args args;
  if (!daemonbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: daemonbench --workload=NAME --seed=N --seconds=S "
                 "--trace=0|1 [--out-dir=DIR] [--result-file=FILE]\n");
    return 2;
  }
  return daemonbench::Run(args);
}
