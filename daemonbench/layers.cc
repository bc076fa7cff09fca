#include "layers.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>

#include "cqa/answers/enumerator.h"
#include "cqa/attack/classification.h"
#include "cqa/base/interner.h"
#include "cqa/cache/fingerprint.h"
#include "cqa/certainty/backtracking.h"
#include "cqa/certainty/matching_q1.h"
#include "cqa/db/database.h"
#include "cqa/delta/delta.h"
#include "cqa/fo/eval.h"
#include "cqa/parallel/parallel_solver.h"
#include "cqa/query/parser.h"
#include "cqa/rewriting/algorithm1.h"
#include "cqa/rewriting/rewriter.h"
#include "cqa/serve/net/protocol.h"

namespace daemonbench {

using namespace cqa;

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

namespace {

/// Request ids of the replay, clear of the wire ids of the daemon phase.
constexpr uint64_t kReplayIdBase = uint64_t{1} << 60;

using DbMap = std::map<std::string, std::shared_ptr<const Database>>;

/// Runs one solve the way the daemon's default dispatch does (Algorithm 1
/// for FO, matching for q1-shaped, backtracking otherwise) and, for FO
/// queries, also the rewriting path. Returns the verdict or an error note.
std::string ReplaySolve(const Request& r, const WireRequest& decoded,
                        const Database& db, uint64_t rid, Tracer* tracer,
                        std::vector<double>* speedups, uint64_t* steals) {
  Result<Query> q = Result<Query>::Error("unparsed");
  {
    ScopedSpan s(tracer, "query.parse", rid);
    q = ParseQuery(decoded.query);
  }
  if (!q.ok()) return "error:" + q.error();
  Classification c;
  {
    ScopedSpan s(tracer, "attack.classify", rid);
    c = Classify(*q);
  }
  bool certain = false;
  if (c.cls == CertaintyClass::kFO) {
    Result<bool> a = Result<bool>::Error("unrun");
    {
      ScopedSpan s(tracer, "rewriting.alg1", rid);
      a = IsCertainAlgorithm1(*q, db);
    }
    if (!a.ok()) return "error:" + a.error();
    certain = *a;
    Result<Rewriting> rw = Result<Rewriting>::Error("unrun");
    {
      ScopedSpan s(tracer, "rewriting.build", rid);
      rw = RewriteCertain(*q);
    }
    if (!rw.ok()) return "error:" + rw.error();
    bool by_rewriting = false;
    {
      ScopedSpan s(tracer, "fo.eval", rid);
      by_rewriting = EvalFo(rw->formula, db);
    }
    if (by_rewriting != certain) return "error:alg1-vs-rewriting";
  } else if (DetectQ1Shape(*q).has_value()) {
    std::optional<bool> m;
    {
      ScopedSpan s(tracer, "matching.q1", rid);
      m = IsCertainQ1ByMatching(*q, db);
    }
    if (!m.has_value()) return "error:not-q1";
    certain = *m;
  } else {
    Result<BacktrackingReport> bt = Result<BacktrackingReport>::Error("unrun");
    const int64_t t0 = NowNs();
    {
      ScopedSpan s(tracer, "certainty.bt", rid);
      bt = SolveCertainBacktracking(*q, db);
      if (bt.ok()) s.set_work(bt->nodes);
    }
    const int64_t bt_ns = NowNs() - t0;
    if (!bt.ok()) return "error:" + bt.error();
    certain = bt->certain;
    if (r.parallelism > 1) {
      ParallelOptions po;
      po.parallelism = r.parallelism;
      Result<ParallelReport> pr = Result<ParallelReport>::Error("unrun");
      const int64_t p0 = NowNs();
      {
        ScopedSpan s(tracer, "parallel.solve", rid);
        pr = SolveCertainParallel(*q, db, po);
        if (pr.ok()) s.set_work(static_cast<uint64_t>(pr->components));
      }
      const int64_t par_ns = NowNs() - p0;
      if (!pr.ok()) return "error:" + pr.error();
      if (pr->certain != certain) return "error:parallel-vs-sequential";
      speedups->push_back(static_cast<double>(bt_ns) /
                          static_cast<double>(std::max<int64_t>(1, par_ns)));
      *steals += pr->steals;
    }
  }
  SolveReport report;
  report.certain = certain;
  report.verdict = certain ? Verdict::kCertain : Verdict::kNotCertain;
  {
    ScopedSpan s(tracer, "net.encode", rid);
    (void)EncodeResultFrame(rid, report, 1, std::chrono::microseconds(0));
  }
  return ToString(report.verdict);
}

/// Streams every chunk of an answers request; returns the answer count.
Result<uint64_t> ReplayAnswers(const WireRequest& decoded, const Database& db,
                               uint64_t rid, Tracer* tracer) {
  Result<Query> q = Result<Query>::Error("unparsed");
  {
    ScopedSpan s(tracer, "query.parse", rid);
    q = ParseQuery(decoded.query);
  }
  if (!q.ok()) return Result<uint64_t>::Error(q);
  std::vector<Symbol> free;
  for (const std::string& v : decoded.free_vars) free.push_back(InternSymbol(v));
  EnumerateOptions eo;
  eo.max_chunk = decoded.max_chunk;
  uint64_t answers = 0;
  for (;;) {
    Result<AnswerChunk> chunk = Result<AnswerChunk>::Error("unrun");
    {
      ScopedSpan s(tracer, "answers.chunk", rid);
      chunk = EnumerateAnswerChunk(*q, free, db, eo);
      if (chunk.ok()) s.set_work(chunk->answers.size());
    }
    if (!chunk.ok()) return Result<uint64_t>::Error(chunk);
    {
      ScopedSpan s(tracer, "net.encode", rid);
      (void)EncodeAnswerChunkFrame(rid, *chunk, "");
    }
    answers += chunk->answers.size();
    if (chunk->done) return answers;
    eo.start = chunk->next;
  }
}

}  // namespace

LayerReplay::LayerReplay(const Workload& w, Tracer* tracer)
    : w_(w), rid_(kReplayIdBase) {
  for (const auto& [name, text] : w.dbs) {
    ++rid_;
    std::shared_ptr<Database> db;
    {
      ScopedSpan s(tracer, "db.load", rid_);
      Result<Database> parsed = Database::FromText(text);
      if (!parsed.ok()) {
        outcome_.notes.push_back("db.load " + name + ": " + parsed.error());
        ++outcome_.mismatches;
        continue;
      }
      db = std::make_shared<Database>(std::move(parsed.value()));
      db->NumBlocks();
      s.set_work(db->NumFacts());
    }
    {
      ScopedSpan s(tracer, "db.fingerprint", rid_);
      (void)FingerprintDatabase(*db);
    }
    dbs_[name] = db;
  }
}

LayerReplay::Pass LayerReplay::Run(Tracer* tracer, uint64_t ops,
                                   double budget_s) {
  Pass pass;
  if (dbs_.size() != w_.dbs.size()) return pass;  // a database failed to load
  ReplayOutcome& res = outcome_;
  DbMap dbs = dbs_;  // deltas replace entries; every pass starts as loaded
  std::vector<std::shared_ptr<OpSource>> sources = w_.MakeSources();
  const int64_t t0 = NowNs();
  const int64_t deadline = t0 + static_cast<int64_t>(budget_s * 1e9);
  Op op;
  auto stop = [&] {
    return ops > 0 ? pass.ops >= ops : pass.ops > 0 && NowNs() >= deadline;
  };
  while (sources[0]->Next(stop(), &op)) {
    ++pass.ops;
    const Request& r = w_.requests[op.request];
    const uint64_t rid = ++rid_;
    if (tracer != nullptr) res.labels[rid] = r.label;
    ScopedSpan root(tracer, "request", rid);
    const std::string frame =
        r.kind == OpKind::kDelta
            ? EncodeDeltaFrame(r, rid, op.delta_id)
            : r.frame_head + std::to_string(rid) + r.frame_tail;
    Result<WireRequest> decoded = Result<WireRequest>::Error("unrun");
    {
      ScopedSpan s(tracer, "net.decode", rid);
      decoded = DecodeRequest(frame);
    }
    std::string got, want;
    if (!decoded.ok()) {
      got = "error:" + decoded.error();
    } else if (r.kind == OpKind::kSolve) {
      got = ReplaySolve(r, *decoded, *dbs[r.db], rid, tracer, &speedups_, &steals_);
      want = op.expect->verdict;
    } else if (r.kind == OpKind::kAnswers) {
      Result<uint64_t> n = ReplayAnswers(*decoded, *dbs[r.db], rid, tracer);
      got = n.ok() ? std::to_string(*n) : "error:" + n.error();
      want = std::to_string(op.expect->answers);
    } else {
      FactDelta delta;
      delta.id = op.delta_id;
      delta.ops = decoded->ops;
      Result<DeltaApplyOutcome> applied =
          Result<DeltaApplyOutcome>::Error("unrun");
      {
        ScopedSpan s(tracer, "delta.apply", rid);
        applied = ApplyDeltaToDatabase(*dbs[r.db], delta);
        s.set_work(delta.ops.size());
      }
      if (applied.ok()) {
        dbs[r.db] = applied->db;
        got = applied->fingerprint.ToHex();
      } else {
        got = "error:" + applied.error();
      }
      want = op.expect->fingerprint;
    }
    ++res.checked;
    if (got != want) {
      ++res.mismatches;
      if (res.notes.size() < 5) {
        res.notes.push_back("replay " + r.label + ": got " + got + ", want " + want);
      }
    }
  }
  pass.ns = NowNs() - t0;
  return pass;
}

void LayerReplay::AddMetrics(Metrics* out) const {
  if (speedups_.empty()) return;
  (*out)["parallel.speedup"] = {Percentile(speedups_, 0.5), "x", speedups_.size()};
  (*out)["parallel.steals"] = {static_cast<double>(steals_), "count",
                               speedups_.size()};
}

void AddSpanMetrics(const std::vector<Span>& spans,
                    const std::map<uint64_t, std::string>& labels,
                    Metrics* out) {
  const std::map<uint64_t, int64_t> self = Tracer::SelfTimes(spans);
  struct Group {
    std::vector<double> self_us;
    std::vector<double> work;
    double total_s = 0;
    double total_work = 0;
  };
  std::map<std::string, Group> groups;
  for (const Span& s : spans) {
    const std::string name = s.name;
    if (name == "request") continue;
    std::vector<std::string> keys = {name};
    const bool engine = name.rfind("rewriting.", 0) == 0 ||
                        name == "fo.eval" || name == "matching.q1" ||
                        name == "certainty.bt" || name == "parallel.solve";
    auto label = labels.find(s.request);
    if (engine && label != labels.end() && !label->second.empty()) {
      keys.push_back(name + "[" + label->second + "]");
    }
    for (const std::string& key : keys) {
      Group& g = groups[key];
      g.self_us.push_back(static_cast<double>(self.at(s.id)) / 1e3);
      g.work.push_back(static_cast<double>(s.work));
      g.total_s += static_cast<double>(s.end_ns - s.start_ns) / 1e9;
      g.total_work += static_cast<double>(s.work);
    }
  }
  for (const auto& [key, g] : groups) {
    const size_t n = g.self_us.size();
    const size_t bracket = key.find('[');
    const std::string base = key.substr(0, bracket);
    const std::string suffix = bracket == std::string::npos ? "" : key.substr(bracket);
    (*out)[base + "_us" + suffix] = {Percentile(g.self_us, 0.5), "us", n};
    if (base == "certainty.bt") {
      (*out)["certainty.bt_nodes" + suffix] = {Percentile(g.work, 0.5), "count", n};
      (*out)["certainty.bt_nodes_per_s" + suffix] = {
          g.total_work / std::max(1e-9, g.total_s), "1/s", n};
    } else if (base == "parallel.solve") {
      (*out)["parallel.components" + suffix] = {Percentile(g.work, 0.5), "count", n};
    } else if (base == "answers.chunk") {
      (*out)["answers.tuples_per_s" + suffix] = {
          g.total_work / std::max(1e-9, g.total_s), "1/s", n};
    } else if (base == "delta.apply") {
      (*out)["delta.us_per_op" + suffix] = {
          g.total_s * 1e6 / std::max(1.0, g.total_work), "us", n};
    }
  }
}

}  // namespace daemonbench
