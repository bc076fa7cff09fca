#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_set>

#include "cqa/attack/classification.h"
#include "cqa/base/interner.h"
#include "cqa/base/rng.h"
#include "cqa/cache/fingerprint.h"
#include "cqa/certainty/certain_answers.h"
#include "cqa/certainty/solver.h"
#include "cqa/db/database.h"
#include "cqa/db/eval.h"
#include "cqa/gen/families.h"
#include "cqa/gen/poll.h"
#include "cqa/gen/random_db.h"
#include "cqa/gen/random_query.h"
#include "cqa/query/parser.h"
#include "cqa/query/query.h"
#include "cqa/serve/net/json.h"

namespace daemonbench {

using namespace cqa;

std::string EncodeRequestFrame(const Request& r, uint64_t id, bool bypass) {
  JsonObjectBuilder b;
  b.Set("type", r.kind == OpKind::kSolve ? "solve" : "answers")
      .Set("id", id)
      .Set("query", r.query)
      .Set("db", r.db);
  if (r.bypass || bypass) b.Set("cache", "bypass");
  if (r.parallelism > 0) {
    b.Set("parallelism", static_cast<int64_t>(r.parallelism));
  }
  if (r.kind == OpKind::kAnswers) {
    Json::Array free;
    for (const std::string& v : r.free_vars) {
      free.push_back(Json::MakeString(v));
    }
    b.Set("free", Json::MakeArray(std::move(free)))
        .Set("max_chunk", r.max_chunk);
  }
  return b.Build().Serialize();
}

std::string EncodeDeltaFrame(const Request& r, uint64_t id,
                             const std::string& delta_id) {
  return JsonObjectBuilder()
      .Set("type", "apply_delta")
      .Set("id", id)
      .Set("db", r.db)
      .Set("delta_id", delta_id)
      .Set("ops", EncodeDeltaOps(r.ops))
      .Build()
      .Serialize();
}

namespace {

/// Comma-joined literals and disequalities: the grammar `ParseQuery` reads.
std::string WireQueryText(const Query& q) {
  std::string out;
  for (size_t i = 0; i < q.literals().size(); ++i) {
    if (i > 0) out += ", ";
    out += q.literals()[i].ToString();
  }
  for (const Diseq& d : q.diseqs()) out += ", " + d.ToString();
  return out;
}

/// Pre-serializes a solve or answers frame around its id.
void SetFrame(Request* r) {
  const std::string frame = EncodeRequestFrame(*r, 0, false);
  const std::string marker = "\"id\":0";
  const size_t at = frame.find(marker);
  if (at == std::string::npos) std::abort();  // codec changed its spelling
  r->frame_head = frame.substr(0, at + marker.size() - 1);
  r->frame_tail = frame.substr(at + marker.size());
}

/// Lemma 6.1's rewriting for FO queries (the daemon's default dispatch runs
/// Algorithm 1 on those), backtracking for every other query.
std::string ReferenceVerdict(const Query& q, const Database& db) {
  const SolverMethod method = Classify(q).cls == CertaintyClass::kFO
                                  ? SolverMethod::kRewriting
                                  : SolverMethod::kBacktracking;
  Result<SolveReport> r = SolveCertainty(q, db, method);
  return r.ok() ? ToString(r->verdict) : "error:" + r.error();
}

std::string ReferenceVerdict(const std::string& text, const Database& db) {
  Result<Query> q = ParseQuery(text);
  return q.ok() ? ReferenceVerdict(*q, db) : "error:" + q.error();
}

/// Runs fn(0..n-1) on up to `threads` threads.
template <typename Fn>
void ParallelFor(size_t n, int threads, Fn fn) {
  std::atomic<size_t> next{0};
  auto loop = [&] {
    for (size_t i = next++; i < n; i = next++) fn(i);
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < std::max(1, threads); ++t) pool.emplace_back(loop);
  loop();
  for (std::thread& t : pool) t.join();
}

template <typename T>
void Shuffle(std::vector<T>* v, Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->Below(i)]);
  }
}

// ---------------------------------------------------------------- tenant_mix

constexpr int kTenants = 8;
constexpr int kQueriesPerTenant = 24;
/// Distinct keys per tenant: 1.5x the 4096-entry result cache of its shard,
/// so misses and evictions come from the workload, not from warm-up.
constexpr size_t kKeysPerTenant = 6144;
constexpr double kZipfS = 1.1;
constexpr uint64_t kPigeonEvery = 16;
/// A closed-loop connection keeps one thread of the daemon's request chain
/// (client, reader, shard worker, writer) runnable at a time. Two leave
/// half of a 4-core host idle; at four, the chains fill every core and
/// runs of the same code differed by 25% in throughput, as the scheduler's
/// placement of the 16 threads went.
constexpr int kMixConnections = 2;

class TenantMix : public Workload {
 public:
  explicit TenantMix(uint64_t seed) : seed_(seed) {
    name = "tenant_mix";
    connections = std::min<int>(
        kMixConnections,
        std::max<int>(1, static_cast<int>(std::thread::hardware_concurrency())));
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
    RandomQueryOptions qopts;
    RandomDbOptions dbopts;
    dbopts.blocks_per_relation = 6;
    dbopts.domain_size = 16;
    std::vector<Request> keys;
    for (int t = 0; t < kTenants; ++t) {
      Schema schema;
      std::vector<Query> queries;
      while (static_cast<int>(queries.size()) < kQueriesPerTenant) {
        Query q = GenerateRandomQuery(qopts, &rng);
        Schema probe = schema;
        if (!q.RegisterInto(&probe).ok()) continue;  // signature clash
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
      auto db = std::make_shared<const Database>(
          GenerateRandomDatabase(schema, dbopts, &rng, constants));
      const std::string db_name = "tenant" + std::to_string(t);
      dbs.emplace_back(db_name, db->ToText());
      dbs_.push_back(db);

      // Constant substitution q[x1->c1]...[xk->ck], k <= 3, over the active
      // domain turns each base query into thousands of distinct keys; the
      // base queries take turns drawing them.
      std::vector<Value> domain = db->ActiveDomain();
      std::sort(domain.begin(), domain.end(),
                [](Value a, Value b) { return a.name() < b.name(); });
      std::vector<std::string> texts;
      std::unordered_set<std::string> seen;
      for (size_t draw = 0;
           texts.size() < kKeysPerTenant && draw < 50 * kKeysPerTenant; ++draw) {
        Query q = queries[draw % queries.size()];
        std::vector<Symbol> vars = q.Vars().items();
        Shuffle(&vars, &rng);
        const size_t k = rng.Below(std::min<size_t>(3, vars.size()) + 1);
        for (size_t i = 0; i < k; ++i) {
          q = q.Substituted(vars[i], domain[rng.Below(domain.size())]);
        }
        std::string text = WireQueryText(q);
        if (seen.insert(text).second) texts.push_back(std::move(text));
      }
      for (std::string& text : texts) {
        Request r;
        r.db = db_name;
        r.query = std::move(text);
        r.label = db_name;
        keys.push_back(std::move(r));
        key_db_.push_back(dbs_.size() - 1);
      }
    }
    // Zipf popularity over a seeded permutation of every tenant's keys.
    std::vector<size_t> order(keys.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    Shuffle(&order, &rng);
    std::vector<size_t> key_db(order.size());
    for (size_t rank = 0; rank < order.size(); ++rank) {
      requests.push_back(std::move(keys[order[rank]]));
      key_db[rank] = key_db_[order[rank]];
    }
    key_db_ = std::move(key_db);
    double total = 0;
    for (size_t rank = 0; rank < requests.size(); ++rank) {
      total += 1.0 / std::pow(static_cast<double>(rank + 1), kZipfS);
      cumulative_.push_back(total);
    }
    // Every 16th request: the coNP-hard cyclic query on pigeonhole k=4.
    dbs.emplace_back("pigeon4", PigeonholeDatabase(4).ToText());
    Request pigeon;
    pigeon.db = "pigeon4";
    pigeon.query = WireQueryText(PigeonholeCyclicQuery());
    pigeon.label = "pigeon4";
    pigeon_ = requests.size();
    requests.push_back(std::move(pigeon));
    for (Request& r : requests) SetFrame(&r);
    expect_.resize(requests.size());
  }

  void ComputeReferences(int threads) override {
    for (const auto& db : dbs_) db->NumBlocks();  // index built up front
    ParallelFor(pigeon_, threads, [&](size_t i) {
      expect_[i].verdict = ReferenceVerdict(requests[i].query, *dbs_[key_db_[i]]);
    });
    expect_[pigeon_].verdict = "certain";  // pigeonhole: certain by construction
  }

  const Expect& Initial(size_t i) const override { return expect_[i]; }

  std::vector<std::shared_ptr<OpSource>> MakeSources() const override {
    std::vector<std::shared_ptr<OpSource>> out;
    for (int c = 0; c < connections; ++c) {
      out.push_back(std::make_shared<Source>(this, seed_ * 1000003 + c));
    }
    return out;
  }

 private:
  class Source : public OpSource {
   public:
    Source(const TenantMix* w, uint64_t seed) : w_(w), rng_(seed) {}
    bool Next(bool stop, Op* op) override {
      if (stop) return false;
      size_t idx = w_->pigeon_;
      if (++sent_ % kPigeonEvery != 0) {
        const double pick = rng_.NextDouble() * w_->cumulative_.back();
        idx = static_cast<size_t>(std::lower_bound(w_->cumulative_.begin(),
                                                   w_->cumulative_.end(),
                                                   pick) -
                                  w_->cumulative_.begin());
        idx = std::min(idx, w_->pigeon_ - 1);
      }
      op->request = idx;
      op->expect = &w_->expect_[idx];
      return true;
    }

   private:
    const TenantMix* w_;
    Rng rng_;
    uint64_t sent_ = 0;
  };

  uint64_t seed_;
  std::vector<std::shared_ptr<const Database>> dbs_;
  std::vector<size_t> key_db_;  // request -> index into dbs_
  std::vector<double> cumulative_;
  size_t pigeon_ = 0;
  std::vector<Expect> expect_;
};

// --------------------------------------------------------------- kernel_hard

/// A consistent database of `pairs` R facts, each with its S mirror: the
/// one repair falsifies R(x | y), not S(y | x), not T(x | y).
Database ConsistentMirrors(int pairs) {
  Schema schema;
  schema.AddRelationOrDie("R", 2, 1);
  schema.AddRelationOrDie("S", 2, 1);
  schema.AddRelationOrDie("T", 2, 1);
  Database db(std::move(schema));
  for (int i = 0; i < pairs; ++i) {
    Value a = Value::Of("ca" + std::to_string(i));
    Value b = Value::Of("cb" + std::to_string(i));
    db.AddFactOrDie("R", {a, b});
    db.AddFactOrDie("S", {b, a});
  }
  return db;
}

/// The D8 instance of EXPERIMENTS.md: `copies - 1` value-disjoint chaff
/// components (an R-block whose S mirrors are present) interned before one
/// certain pigeonhole core of size `core_k`, so a sequential search exhausts
/// the chaff first. Certain by construction (the core is).
Database AdversarialComponents(int copies, int core_k) {
  const std::string p = "d8c" + std::to_string(copies) + "_";
  Schema schema;
  schema.AddRelationOrDie("R", 2, 1);
  schema.AddRelationOrDie("S", 2, 1);
  schema.AddRelationOrDie("T", 2, 1);
  Database db(std::move(schema));
  for (int c = 0; c + 1 < copies; ++c) {
    Value a = Value::Of(p + "ca" + std::to_string(c));
    for (int j = 1; j <= 2; ++j) {
      Value b = Value::Of(p + "cb" + std::to_string(j) + "x" + std::to_string(c));
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

class KernelHard : public Workload {
 public:
  explicit KernelHard(uint64_t seed) : seed_(seed) {
    name = "kernel_hard";
    connections = 2;
    // 500-700 solves per 20 s run: 25-35 samples beyond p95, 5-7 beyond p99.
    tail = 0.95;
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 2);
    PollDbOptions popts;
    popts.num_persons = 16'000;
    popts.num_towns = popts.num_persons / 5;
    add_db("cons1k", ConsistentMirrors(500));
    add_db("cons2k", ConsistentMirrors(1000));
    add_db("pigeon6", PigeonholeDatabase(6));
    add_db("d8", AdversarialComponents(2, 6));
    add_db("poll16k", GeneratePollDatabase(popts, &rng));
    const std::string cyclic = WireQueryText(PigeonholeCyclicQuery());
    add_request("cons1k", "cons1k", cyclic, 1);
    add_request("cons2k", "cons2k", cyclic, 1);
    add_request("pigeon6", "pigeon6", cyclic, 1);
    add_request("d8", "d8", cyclic, 2);
    add_request("pollQa", "poll16k", WireQueryText(PollQa()), 1);
    add_request("pollQb", "poll16k", WireQueryText(PollQb()), 1);
    add_request("pollQ1", "poll16k", WireQueryText(PollQ1()), 1);
    expect_.resize(requests.size());
  }

  void ComputeReferences(int threads) override {
    for (const auto& db : dbs_) db->NumBlocks();
    ParallelFor(requests.size(), threads, [&](size_t i) {
      const Request& r = requests[i];
      const Database& db = *dbs_[request_db_[i]];
      if (r.label == "pigeon6" || r.label == "d8") {
        expect_[i].verdict = "certain";  // pigeonhole cores: by construction
      } else if (r.label.rfind("cons", 0) == 0) {
        // A consistent database is its own single repair.
        Result<Query> q = ParseQuery(r.query);
        const bool consistent = db.NumBlocks() == db.NumFacts();
        expect_[i].verdict = !q.ok() || !consistent ? "error:setup"
                             : Satisfies(*q, db)    ? "certain"
                                                    : "not-certain";
      } else {
        expect_[i].verdict = ReferenceVerdict(r.query, db);
      }
    });
  }

  const Expect& Initial(size_t i) const override { return expect_[i]; }

  std::vector<std::shared_ptr<OpSource>> MakeSources() const override {
    auto shared = std::make_shared<Rounds>(this, seed_);
    return std::vector<std::shared_ptr<OpSource>>(connections, shared);
  }

 private:
  /// One request of each class per round, in seeded order, shared by the
  /// connections; once stopped, the current round still completes so every
  /// class is measured equally often.
  class Rounds : public OpSource {
   public:
    Rounds(const KernelHard* w, uint64_t seed) : w_(w), rng_(seed * 31 + 7) {}
    bool Next(bool stop, Op* op) override {
      std::lock_guard<std::mutex> lock(mu_);
      if (pos_ == round_.size()) {
        if (stop) return false;
        round_.clear();
        for (size_t i = 0; i < w_->requests.size(); ++i) round_.push_back(i);
        Shuffle(&round_, &rng_);
        pos_ = 0;
      }
      op->request = round_[pos_++];
      op->expect = &w_->expect_[op->request];
      return true;
    }

   private:
    const KernelHard* w_;
    std::mutex mu_;
    Rng rng_;
    std::vector<size_t> round_;
    size_t pos_ = 0;
  };

  void add_db(const std::string& name, Database db) {
    dbs.emplace_back(name, db.ToText());
    dbs_.push_back(std::make_shared<const Database>(std::move(db)));
  }

  void add_request(const std::string& label, const std::string& db,
                   const std::string& query, int parallelism) {
    Request r;
    r.db = db;
    r.query = query;
    r.bypass = true;
    r.parallelism = parallelism;
    r.label = label;
    SetFrame(&r);
    for (size_t i = 0; i < dbs.size(); ++i) {
      if (dbs[i].first == db) request_db_.push_back(i);
    }
    requests.push_back(std::move(r));
  }

  uint64_t seed_;
  std::vector<std::shared_ptr<const Database>> dbs_;
  std::vector<size_t> request_db_;
  std::vector<Expect> expect_;
};

// --------------------------------------------------------------- live_update

constexpr int kPollTenants = 4;
/// Each connection carries kPollTenants / kLiveConnections tenants and
/// alternates between them. Two connections keep at most two of the four
/// shard workers busy, so the host's other load does not set the tail.
constexpr int kLiveConnections = 2;
constexpr int kPollPersons = 2'000;
/// Each tenant toggles this many disjoint change sets, so it moves through
/// 2^kChangeSets database states whose references are all computed up front.
constexpr int kChangeSets = 3;
constexpr int kTownKeys = 4;  // answer-stream queries per tenant
constexpr double kSolveShare = 0.70;
constexpr double kAnswersShare = 0.15;  // the remaining 15% are deltas

class LiveUpdate : public Workload {
 public:
  explicit LiveUpdate(uint64_t seed) : seed_(seed) {
    name = "live_update";
    connections = kLiveConnections;
    journal = true;
    const char* kRelations[3] = {"Lives", "Born", "Likes"};
    for (int t = 0; t < kPollTenants; ++t) {
      Rng rng(seed * 0x9e3779b97f4a7c15ull + 100 + t);
      PollDbOptions popts;
      popts.num_persons = kPollPersons;
      popts.num_towns = kPollPersons / 5;
      auto db = std::make_shared<const Database>(GeneratePollDatabase(popts, &rng));
      const std::string db_name = "poll" + std::to_string(t);
      dbs.emplace_back(db_name, db->ToText());
      bases_.push_back(db);

      auto add = [&](OpKind kind, const std::string& label, std::string query) {
        Request r;
        r.kind = kind;
        r.db = db_name;
        r.query = std::move(query);
        r.label = label;
        if (kind == OpKind::kAnswers) {
          r.free_vars = {"p"};
          r.max_chunk = 64;
        }
        if (kind != OpKind::kDelta) SetFrame(&r);
        requests.push_back(std::move(r));
      };
      add(OpKind::kSolve, "pollQa", WireQueryText(PollQa()));
      add(OpKind::kSolve, "pollQb", WireQueryText(PollQb()));
      add(OpKind::kSolve, "pollQ1", WireQueryText(PollQ1()));
      // "Who certainly lives in town K and was not born there": one chunk
      // per stream, a full scan of the Lives candidates per miss.
      for (int k = 0; k < kTownKeys; ++k) {
        const std::string town =
            "town" + std::to_string(rng.Below(static_cast<uint64_t>(popts.num_towns)));
        add(OpKind::kAnswers, "residents",
            "Lives(p | '" + town + "'), not Born(p | '" + town + "')");
      }
      // Disjoint change sets of 1-16 ops, each on one relation: inserts of
      // new facts (new keys' blocks or key violations) and deletions of
      // existing ones. Each is sent forward and, later, reverted.
      std::set<std::pair<std::string, std::string>> used[3];
      for (int j = 0; j < kChangeSets; ++j) {
        const int rel = j % 3;
        const Symbol rel_sym = InternSymbol(kRelations[rel]);
        const std::vector<Tuple>& existing = db->FactsOf(rel_sym);
        std::vector<DeltaOp> ops;
        const int size = static_cast<int>(rng.Range(1, 16));
        while (static_cast<int>(ops.size()) < size) {
          DeltaOp op;
          op.relation = kRelations[rel];
          if (rng.Chance(0.3)) {
            const Tuple& fact = existing[rng.Below(existing.size())];
            op.insert = false;
            op.values = {fact[0].name(), fact[1].name()};
          } else {
            op.values = {
                "person" + std::to_string(rng.Below(static_cast<uint64_t>(popts.num_persons))),
                "town" + std::to_string(rng.Below(static_cast<uint64_t>(popts.num_towns)))};
            if (db->Contains(rel_sym, {Value::Of(op.values[0]),
                                       Value::Of(op.values[1])})) {
              continue;
            }
          }
          if (!used[rel].insert({op.values[0], op.values[1]}).second) continue;
          ops.push_back(std::move(op));
        }
        std::vector<DeltaOp> revert = ops;
        for (DeltaOp& op : revert) op.insert = !op.insert;
        const std::string label = std::string("delta.") + kRelations[rel];
        add(OpKind::kDelta, label, "");
        requests.back().ops = std::move(ops);
        add(OpKind::kDelta, label, "");
        requests.back().ops = std::move(revert);
      }
    }
    per_tenant_ = requests.size() / kPollTenants;
    expect_.assign(kPollTenants,
                   std::vector<std::vector<Expect>>(
                       1u << kChangeSets, std::vector<Expect>(per_tenant_)));
  }

  void ComputeReferences(int threads) override {
    const size_t states = size_t{1} << kChangeSets;
    ParallelFor(kPollTenants * states, threads, [&](size_t job) {
      const size_t t = job / states;
      const size_t mask = job % states;
      std::shared_ptr<const Database> db = bases_[t];
      for (int j = 0; j < kChangeSets; ++j) {
        if ((mask & (size_t{1} << j)) == 0) continue;
        FactDelta delta;
        delta.ops = requests[t * per_tenant_ + Local(j, false)].ops;
        Result<DeltaApplyOutcome> out = ApplyDeltaToDatabase(*db, delta);
        if (!out.ok()) return;  // leaves empty expectations: every op fails
        db = out->db;
      }
      const std::string fp = FingerprintDatabase(*db).ToHex();
      for (size_t local = 0; local < per_tenant_; ++local) {
        const Request& r = requests[t * per_tenant_ + local];
        Expect& e = expect_[t][mask][local];
        if (r.kind == OpKind::kSolve) {
          e.verdict = ReferenceVerdict(r.query, *db);
        } else if (r.kind == OpKind::kAnswers) {
          Result<Query> q = ParseQuery(r.query);
          if (!q.ok()) continue;
          Result<CertainAnswers> ca =
              ComputeCertainAnswers(*q, {InternSymbol("p")}, *db);
          e.answers = ca.ok() ? ca->answers.size() : ~uint64_t{0};
        } else {
          e.fingerprint = fp;
        }
      }
    });
  }

  const Expect& Initial(size_t i) const override {
    return expect_[i / per_tenant_][0][i % per_tenant_];
  }

  std::vector<std::shared_ptr<OpSource>> MakeSources() const override {
    std::vector<std::shared_ptr<OpSource>> out;
    for (int c = 0; c < kLiveConnections; ++c) {
      auto source = std::make_shared<Source>(this);
      for (int t = c; t < kPollTenants; t += kLiveConnections) {
        source->AddTenant(t, seed_ * 7919 + t);
      }
      out.push_back(std::move(source));
    }
    return out;
  }

 private:
  /// Local request index of change set j's forward or revert delta.
  static size_t Local(int j, bool revert) {
    return 3 + kTownKeys + 2 * static_cast<size_t>(j) + (revert ? 1 : 0);
  }

  /// One connection's operations: its tenants' seeded streams, taken in
  /// turn. Each stream tracks which change sets are applied; a tenant on
  /// one connection, with one request outstanding, keeps the order exact.
  class Source : public OpSource {
   public:
    explicit Source(const LiveUpdate* w) : w_(w) {}
    void AddTenant(int tenant, uint64_t seed) {
      tenants_.push_back({tenant, Rng(seed)});
    }
    bool Next(bool stop, Op* op) override {
      if (stop) return false;
      Tenant& t = tenants_[turn_++ % tenants_.size()];
      const double r = t.rng.NextDouble();
      size_t local;
      op->delta_id.clear();
      if (r < kSolveShare) {
        local = t.rng.Below(3);
      } else if (r < kSolveShare + kAnswersShare) {
        local = 3 + t.rng.Below(kTownKeys);
      } else {
        const int j = static_cast<int>(t.rng.Below(kChangeSets));
        const bool applied = (t.mask & (size_t{1} << j)) != 0;
        local = Local(j, applied);
        t.mask ^= size_t{1} << j;
        op->delta_id = "t" + std::to_string(t.id) + "-" + std::to_string(++t.deltas);
      }
      op->request = static_cast<size_t>(t.id) * w_->per_tenant_ + local;
      op->expect = &w_->expect_[t.id][t.mask][local];
      return true;
    }

   private:
    struct Tenant {
      int id;
      Rng rng;
      size_t mask = 0;
      uint64_t deltas = 0;
    };
    const LiveUpdate* w_;
    std::vector<Tenant> tenants_;
    size_t turn_ = 0;
  };

  uint64_t seed_;
  std::vector<std::shared_ptr<const Database>> bases_;
  size_t per_tenant_ = 0;
  /// [tenant][applied change-set mask][local request]
  std::vector<std::vector<std::vector<Expect>>> expect_;
};

}  // namespace

Result<std::unique_ptr<Workload>> MakeWorkload(const std::string& name,
                                               uint64_t seed) {
  using Out = Result<std::unique_ptr<Workload>>;
  if (name == "tenant_mix") return Out(std::make_unique<TenantMix>(seed));
  if (name == "kernel_hard") return Out(std::make_unique<KernelHard>(seed));
  if (name == "live_update") return Out(std::make_unique<LiveUpdate>(seed));
  return Out::Error(ErrorCode::kUnsupported, "unknown workload '" + name + "'");
}

}  // namespace daemonbench
