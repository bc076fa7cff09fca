// Deterministic trace generation for the open-loop replay harness
// (bench_trace.cc) and the CI parity smoke.
//
// A trace is a self-contained text file: the tenant databases (inline, in
// the `ParseFacts` grammar) followed by a timestamped open-loop request
// schedule. Everything is derived from one seed through the repo's own
// `Rng`, so the same seed always produces the byte-identical trace file —
// `tools/ci.sh` records twice and `cmp`s — and a recorded trace replays
// identically regardless of who generated it.
//
// Workload shape:
//  * mixed tenants: `tenants` databases, each with its own schema and its
//    own pool of random sjfBCQ¬ queries (schema-compatible by retry);
//  * Zipf-skewed query popularity: requests draw (tenant, query) pairs
//    with weight 1/rank^s over the global pool, so a few queries dominate
//    — the regime where the result cache and warm state matter;
//  * bursty open-loop arrivals: bursts of geometric size with small
//    within-burst gaps, separated by exponential idle gaps calibrated to
//    `rate_rps`. Arrival times are absolute; replay fires requests at
//    their timestamps regardless of completions (open loop), which is
//    what makes overload and shed behaviour reachable;
//  * adversarial salt: every `pigeonhole_every`-th request targets a
//    dedicated pigeonhole tenant with `PigeonholeBacktrackingQuery` (a
//    cyclic query outside the matching engine's class) over
//    `PigeonholeDatabase(pigeonhole_k)` — exponential backtracking mixed
//    into otherwise light traffic.
//
// Format (version tag first line; `--` comments are not allowed — the file
// is machine-written):
//
//   # cqa-trace v2 seed=<seed>
//   db <name>
//   <fact lines...>
//   enddb
//   req <arrival_us> <db> <query text>
//   ans <arrival_us> <db> <max_chunk> <free-csv> <query text>
//
// `ans` lines (v2 only; the parser accepts v1 and v2 headers, and `req`
// semantics are unchanged) open a chunked answer stream: `free-csv` is the
// comma-joined free-variable list and `max_chunk` the answers-per-chunk
// knob. The replayer drives each stream to its `answer_done` terminal, so
// answer traffic shares admission, cache, and backpressure with solves.
//
#ifndef CQA_BENCH_TRACE_GEN_H_
#define CQA_BENCH_TRACE_GEN_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cqa/base/interner.h"
#include "cqa/base/result.h"
#include "cqa/base/rng.h"
#include "cqa/base/symbol_set.h"
#include "cqa/db/database.h"
#include "cqa/gen/families.h"
#include "cqa/gen/random_db.h"
#include "cqa/gen/random_query.h"
#include "cqa/query/query.h"
#include "cqa/query/schema.h"

namespace cqa {
namespace tracegen {

struct TraceRequest {
  uint64_t arrival_us = 0;
  std::string db;
  std::string query;
  /// Chunked answer-enumeration request (an `ans` line) instead of a
  /// boolean certainty solve. `free_csv` holds the comma-joined free
  /// variables; `max_chunk` the answers-per-chunk knob.
  bool answers = false;
  std::string free_csv;
  uint64_t max_chunk = 0;
};

struct Trace {
  uint64_t seed = 0;
  /// name -> facts text (ParseFacts grammar), in attach order.
  std::vector<std::pair<std::string, std::string>> dbs;
  std::vector<TraceRequest> requests;
};

struct TraceGenOptions {
  uint64_t seed = 42;
  int tenants = 3;
  int queries_per_tenant = 4;
  int requests = 200;
  /// Zipf exponent over the global (tenant, query) pool.
  double zipf_s = 1.1;
  /// Open-loop offered rate (requests per second) used to calibrate the
  /// inter-burst gaps.
  double rate_rps = 2'000.0;
  /// Mean burst size (geometric); 1 disables burstiness.
  double mean_burst = 8.0;
  /// Every Nth request is the adversarial pigeonhole solve (0 = never).
  int pigeonhole_every = 16;
  int pigeonhole_k = 4;
  /// Every Nth request becomes a chunked answer stream over its query's
  /// positive variables (0 = never; pigeonhole slots keep priority).
  int answers_every = 0;
};

/// Wire spelling of a query: comma-joined literals/diseqs, no braces (the
/// grammar `ParseQuery` accepts, identical to what tests hand-write).
inline std::string WireQueryText(const Query& q) {
  std::string out;
  for (size_t i = 0; i < q.literals().size(); ++i) {
    if (i > 0) out += ", ";
    out += q.literals()[i].ToString();
  }
  for (const Diseq& d : q.diseqs()) out += ", " + d.ToString();
  return out;
}

/// Generates the deterministic trace for `options`. Every random draw goes
/// through one `Rng(seed)` stream, so equal options produce equal traces.
inline Trace GenerateTrace(const TraceGenOptions& options) {
  Rng rng(options.seed);
  Trace trace;
  trace.seed = options.seed;

  struct PoolEntry {
    std::string db;
    std::string query;
    std::string free_csv;  // up to two positive vars; empty when none
  };
  std::vector<PoolEntry> pool;

  // Tenant databases: each tenant accumulates queries into one schema
  // (regenerating on a relation-signature clash, bounded and deterministic)
  // and draws one random database covering all of them.
  RandomQueryOptions qopts;
  RandomDbOptions dbopts;
  dbopts.blocks_per_relation = 6;
  dbopts.domain_size = 8;
  const int tenants = std::max(1, options.tenants);
  const int per_tenant = std::max(1, options.queries_per_tenant);
  for (int t = 0; t < tenants; ++t) {
    Schema schema;
    std::vector<Query> queries;
    while (static_cast<int>(queries.size()) < per_tenant) {
      Query q = GenerateRandomQuery(qopts, &rng);
      Schema probe = schema;
      if (!q.RegisterInto(&probe).ok()) continue;  // signature clash: redraw
      schema = std::move(probe);
      queries.push_back(std::move(q));
    }
    std::vector<Value> constants;
    for (const Query& q : queries) {
      for (const Literal& l : q.literals()) {
        for (const Term& term : l.atom.terms()) {
          if (term.is_constant()) constants.push_back(term.constant());
        }
      }
    }
    Database db = GenerateRandomDatabase(schema, dbopts, &rng, constants);
    std::string name = "tenant" + std::to_string(t);
    trace.dbs.emplace_back(name, db.ToText());
    for (const Query& q : queries) {
      const SymbolSet positive_vars = q.PositiveVars();
      const std::vector<Symbol> vars = positive_vars.items();
      std::string free_csv;
      for (size_t v = 0; v < vars.size() && v < 2; ++v) {
        if (v > 0) free_csv += ',';
        free_csv += SymbolName(vars[v]);
      }
      pool.push_back(PoolEntry{name, WireQueryText(q), std::move(free_csv)});
    }
  }
  if (options.pigeonhole_every > 0) {
    trace.dbs.emplace_back(
        "pigeon", PigeonholeDatabase(std::max(2, options.pigeonhole_k))
                      .ToText());
  }
  const std::string pigeon_query =
      WireQueryText(PigeonholeBacktrackingQuery());

  // Zipf cumulative weights over the pool, rank = pool order (already a
  // random permutation of tenants/queries by construction).
  std::vector<double> cumulative(pool.size());
  double total = 0;
  for (size_t i = 0; i < pool.size(); ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), options.zipf_s);
    cumulative[i] = total;
  }

  // Bursty open-loop arrivals: geometric burst sizes, ~100us in-burst
  // gaps, exponential inter-burst gaps sized so the long-run offered rate
  // matches rate_rps.
  const double mean_burst = std::max(1.0, options.mean_burst);
  const double per_req_us =
      1e6 / std::max(1.0, options.rate_rps);  // long-run mean gap
  const double inter_burst_us = per_req_us * mean_burst;
  uint64_t now_us = 0;
  int burst_left = 0;
  for (int i = 0; i < std::max(1, options.requests); ++i) {
    if (burst_left <= 0) {
      // Geometric burst size with mean `mean_burst`.
      burst_left = 1;
      while (rng.Chance(1.0 - 1.0 / mean_burst)) ++burst_left;
      // Exponential inter-burst gap (inverse CDF on a uniform draw).
      double u = std::min(rng.NextDouble(), 0.999999);
      now_us += static_cast<uint64_t>(-std::log(1.0 - u) * inter_burst_us);
    } else {
      now_us += rng.Below(200);  // within-burst jitter
    }
    --burst_left;

    TraceRequest req;
    req.arrival_us = now_us;
    if (options.pigeonhole_every > 0 &&
        (i + 1) % options.pigeonhole_every == 0) {
      req.db = "pigeon";
      req.query = pigeon_query;
    } else {
      double pick = rng.NextDouble() * total;
      size_t idx = static_cast<size_t>(
          std::lower_bound(cumulative.begin(), cumulative.end(), pick) -
          cumulative.begin());
      idx = std::min(idx, pool.size() - 1);
      req.db = pool[idx].db;
      req.query = pool[idx].query;
      if (options.answers_every > 0 &&
          (i + 1) % options.answers_every == 0 &&
          !pool[idx].free_csv.empty()) {
        req.answers = true;
        req.free_csv = pool[idx].free_csv;
        static constexpr uint64_t kChunks[] = {1, 4, 16, 64};
        req.max_chunk = kChunks[rng.Below(4)];
      }
    }
    trace.requests.push_back(std::move(req));
  }
  return trace;
}

inline std::string SerializeTrace(const Trace& trace) {
  std::string out = "# cqa-trace v2 seed=" + std::to_string(trace.seed) + "\n";
  for (const auto& [name, facts] : trace.dbs) {
    out += "db " + name + "\n";
    out += facts;
    if (!facts.empty() && facts.back() != '\n') out += "\n";
    out += "enddb\n";
  }
  for (const TraceRequest& req : trace.requests) {
    if (req.answers) {
      out += "ans " + std::to_string(req.arrival_us) + " " + req.db + " " +
             std::to_string(req.max_chunk) + " " + req.free_csv + " " +
             req.query + "\n";
    } else {
      out += "req " + std::to_string(req.arrival_us) + " " + req.db + " " +
             req.query + "\n";
    }
  }
  return out;
}

inline Result<Trace> ParseTrace(const std::string& text) {
  using Out = Result<Trace>;
  Trace trace;
  size_t pos = 0;
  int line_no = 0;
  std::string pending_db;     // name of the db block being read
  std::string pending_facts;  // its accumulated fact lines
  bool saw_header = false;
  int version = 0;
  while (pos <= text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (line.empty() && pos > text.size()) break;
    const std::string where = "trace line " + std::to_string(line_no);
    if (!saw_header) {
      if (line.rfind("# cqa-trace v1 seed=", 0) == 0) {
        version = 1;
      } else if (line.rfind("# cqa-trace v2 seed=", 0) == 0) {
        version = 2;
      } else {
        return Out::Error(ErrorCode::kParse,
                          where + ": expected '# cqa-trace v1|v2 seed=<n>'");
      }
      trace.seed = std::strtoull(line.c_str() + 20, nullptr, 10);
      saw_header = true;
      continue;
    }
    if (!pending_db.empty()) {
      if (line == "enddb") {
        trace.dbs.emplace_back(std::move(pending_db),
                               std::move(pending_facts));
        pending_db.clear();
        pending_facts.clear();
      } else {
        pending_facts += line;
        pending_facts += '\n';
      }
      continue;
    }
    if (line.empty()) continue;
    if (line.rfind("db ", 0) == 0) {
      pending_db = line.substr(3);
      if (pending_db.empty()) {
        return Out::Error(ErrorCode::kParse, where + ": empty db name");
      }
      continue;
    }
    if (line.rfind("req ", 0) == 0) {
      // req <arrival_us> <db> <query...>
      size_t a = line.find(' ', 4);
      if (a == std::string::npos) {
        return Out::Error(ErrorCode::kParse, where + ": malformed req");
      }
      size_t b = line.find(' ', a + 1);
      if (b == std::string::npos) {
        return Out::Error(ErrorCode::kParse, where + ": malformed req");
      }
      TraceRequest req;
      req.arrival_us =
          std::strtoull(line.substr(4, a - 4).c_str(), nullptr, 10);
      req.db = line.substr(a + 1, b - a - 1);
      req.query = line.substr(b + 1);
      if (req.db.empty() || req.query.empty()) {
        return Out::Error(ErrorCode::kParse, where + ": malformed req");
      }
      trace.requests.push_back(std::move(req));
      continue;
    }
    if (line.rfind("ans ", 0) == 0) {
      // ans <arrival_us> <db> <max_chunk> <free-csv> <query...>
      if (version < 2) {
        return Out::Error(ErrorCode::kParse,
                          where + ": 'ans' requires a v2 trace");
      }
      size_t a = line.find(' ', 4);
      size_t b = a == std::string::npos ? a : line.find(' ', a + 1);
      size_t c = b == std::string::npos ? b : line.find(' ', b + 1);
      size_t d = c == std::string::npos ? c : line.find(' ', c + 1);
      if (d == std::string::npos) {
        return Out::Error(ErrorCode::kParse, where + ": malformed ans");
      }
      TraceRequest req;
      req.answers = true;
      req.arrival_us =
          std::strtoull(line.substr(4, a - 4).c_str(), nullptr, 10);
      req.db = line.substr(a + 1, b - a - 1);
      req.max_chunk =
          std::strtoull(line.substr(b + 1, c - b - 1).c_str(), nullptr, 10);
      req.free_csv = line.substr(c + 1, d - c - 1);
      req.query = line.substr(d + 1);
      if (req.db.empty() || req.free_csv.empty() || req.query.empty() ||
          req.max_chunk == 0) {
        return Out::Error(ErrorCode::kParse, where + ": malformed ans");
      }
      trace.requests.push_back(std::move(req));
      continue;
    }
    return Out::Error(ErrorCode::kParse,
                      where + ": unknown directive '" + line + "'");
  }
  if (!pending_db.empty()) {
    return Out::Error(ErrorCode::kParse, "unterminated db block '" +
                                             pending_db + "' (missing enddb)");
  }
  if (!saw_header) {
    return Out::Error(ErrorCode::kParse, "empty trace (missing header)");
  }
  return trace;
}

}  // namespace tracegen
}  // namespace cqa

#endif  // CQA_BENCH_TRACE_GEN_H_
