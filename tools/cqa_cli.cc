// cqa_cli — command-line front end for the library.
//
//   cqa_cli classify "R(x | y), not S(y | x)"
//   cqa_cli rewrite  "P(x | y), not N('c' | y)" [--raw]
//   cqa_cli sql      "P(x | y), not N('c' | y)"
//   cqa_cli dot      "R(x | y), not S(y | x)"
//   cqa_cli solve    "<query>" db.facts [--witness]
//                    [--method=auto|fo-rewriting|rewriting|algorithm1|
//                     matching-q1|backtracking|naive|sampling]
//                    [--timeout-ms=N] [--max-nodes=N] [--parallelism=N]
//   cqa_cli answers  "<query>" db.facts --free=x,y [--max-chunk=N]
//                    [--timeout-ms=N] [--max-nodes=N]
//   cqa_cli repairs  db.facts [--limit=N]
//   cqa_cli stats    db.facts
//   cqa_cli asp      "<query>" db.facts
//   cqa_cli evalfo   "<fo formula>" db.facts [--timeout-ms=N] [--max-nodes=N]
//   cqa_cli serve    db.facts [--jobs=FILE] [--workers=N] [--queue-cap=M]
//                    [--timeout-ms=T] [--retries=R] [--deadline-ms=S]
//                    [--drain-ms=D] [--max-nodes=K] [--method=...]
//                    [--cache-entries=E] [--no-cache] [--parallelism=N]
//   cqa_cli serve    [db.facts] --listen=HOST:PORT [--db=NAME=PATH ...]
//                    [--shard-workers=N | --workers=N] [--queue-cap=M]
//                    [--timeout-ms=T] [--retries=R]
//                    [--drain-ms=D] [--detach-drain-ms=D]
//                    [--max-connections=C] [--max-inflight=I]
//                    [--cache-entries=E] [--no-cache]
//                    [--isolation=auto|inproc|fork] [--max-rss-mb=M]
//                    [--kill-grace-ms=G] [--parallelism=N]
//                    [--journal-dir=PATH]
//                    [--journal-fsync=always|group|never]
//                    [--group-fsync-delay-ms=D] [--group-fsync-batch=B]
//                    [--snapshot-every-deltas=K] [--snapshot-every-bytes=J]
//                    [--delta-id-window=W] [--follow=HOST:PORT]
//   cqa_cli client   HOST:PORT [--jobs=FILE] [--db=NAME] [--timeout-ms=T]
//                    [--max-nodes=K] [--method=...] [--cache=default|bypass]
//                    [--isolation=auto|inproc|fork] [--wedge-after=N]
//                    [--crash-after=N] [--parallelism=N]
//                    [--health] [--stats]
//   cqa_cli client   HOST:PORT --answers=QUERY --free=x,y [--max-chunk=N]
//                    [--chunks=N] [--cursor-file=PATH] [--resume]
//                    [--db=NAME] [--timeout-ms=T] [--max-nodes=K]
//                    [--method=...] [--cache=default|bypass]
//   cqa_cli admin    HOST:PORT attach NAME FACTS_PATH
//   cqa_cli admin    HOST:PORT detach NAME
//   cqa_cli admin    HOST:PORT list
//   cqa_cli admin    HOST:PORT apply NAME DELTA_PATH [--delta-id=ID]
//   cqa_cli admin    HOST:PORT snapshot [NAME]
//   cqa_cli admin    HOST:PORT promote
//
// Exit codes: 0 certain / probably certain / success; 1 parse or input
// error; 2 usage; 3 resource budget exhausted; 4 cancelled; 5 not certain
// (resp. false, for evalfo).
//
// `--timeout-ms` and `--max-nodes` attach an execution governor: on `solve
// --method=auto` an exhausted exact solver degrades to Monte-Carlo sampling
// and reports a qualified verdict instead of failing.
//
// `--parallelism=N` (solve, both serve modes, client) runs exponential
// solves component-decomposed on a work-stealing pool of N threads (see
// docs/THEORY.md for the decomposition and its soundness conditions); the
// verdict is always identical to the sequential one, N=1 (the default) is
// the plain sequential path. On the daemon it sets the default; a client
// request overrides per frame.
//
// `serve --listen=HOST:PORT` runs the network daemon (src/cqa/serve/net/)
// instead of the batch driver: it prints `listening on HOST:PORT`, serves
// the framed JSON protocol documented in docs/SERVING.md, and drains
// gracefully on SIGINT/SIGTERM (exit 0 when everything drained, 4 when the
// drain deadline forced cancellations). `client` submits jobs to a running
// daemon — one query per line, as in batch serve mode — and exits with the
// same severity ranking; `--health` / `--stats` print one status frame.
// `client --answers=QUERY --free=x,y` opens an answer stream instead: the
// daemon replies with `answer_chunk` frames (at most `--max-chunk` tuples
// each, daemon default 64) and one `answer_done` terminal, and the chunks
// concatenate to exactly the one-shot `answers` output. `--cursor-file`
// saves the latest resume cursor after every chunk; `--chunks=N` hangs up
// after N chunks, and a later run with `--resume` continues from the saved
// cursor — against the same database epoch only: after an `admin apply`
// the stale cursor fails with a typed `stale-cursor` error and the stream
// must restart from position zero.
//
// `--isolation` picks where the daemon runs solves that leave the choice to
// it: `inproc` (default) on the worker thread, `fork` in a supervised child
// process with hard preemption, `auto` forking exactly the coNP-risk
// queries. `--max-rss-mb` caps a sandboxed child's memory growth and
// `--kill-grace-ms` bounds how long past its deadline a child may live
// before SIGKILL. The client-side `--isolation` pins the mode per request;
// `--wedge-after=N` / `--crash-after=N` inject a wedge or crash into the
// solve after N budget probes (containment drills against a live daemon).
//
// `serve --listen` with `--journal-dir=PATH` makes every attached database
// live-updatable with durability: `admin apply` deltas are journaled (and
// fsynced, unless `--journal-fsync=never`; `group` batches concurrent
// appends into one fsync, bounded by `--group-fsync-delay-ms` /
// `--group-fsync-batch`) before they are acknowledged, and a restarted
// daemon replays `<journal-dir>/<name>.journal` over the base facts file —
// recovering exactly the acknowledged deltas, truncating any torn tail a
// crash left behind. `--snapshot-every-deltas` / `--snapshot-every-bytes`
// compact automatically (`admin snapshot [NAME]` does it on demand):
// recovery then loads `<journal-dir>/<name>.snapshot` and replays only the
// journal tail, making restart time proportional to the tail, not history.
// `--follow=HOST:PORT` runs the daemon as a read-only warm standby of the
// primary at that address (writes get a typed `read-only` error); `admin
// promote` stops the replication stream and makes it writable. The delta file of `admin apply` holds
// one op per line: `+R(a, b)` inserts, `-R(a, b)` deletes (`|` also
// separates values; `--` comments and blank lines are skipped). Retrying
// the same delta id is safe — the daemon acks idempotently.
//
// `serve` runs the concurrent solve service (src/cqa/serve/) over a batch
// of newline-delimited solve jobs — one query per line, read from stdin or
// `--jobs=FILE` — against one database. `--timeout-ms` becomes the
// per-request budget, `--deadline-ms` a deadline for the whole service,
// `--retries` the per-request retry allowance (exponential backoff with
// jitter), and `--drain-ms` the graceful-shutdown drain deadline. A full
// queue applies backpressure to the reader (the driver resubmits with
// backoff rather than dropping jobs). Both serve modes keep a result cache
// keyed by (query, database fingerprint) — 4096 entries by default; size it
// with `--cache-entries=E` or turn it (and the workers' warm memo state)
// off with `--no-cache`. One result line `[i] <verdict>` is
// printed per job in completion order; aggregate `ServiceStats` go to
// stderr. Exit code: 1 if any job failed (parse/unsupported/internal),
// else 4 if any was cancelled, else 3 if any exhausted its budget without
// a verdict, else 0.
//
// Database files use the fact grammar of ParseFacts:
//   R(alice | bob), R(alice | george)
//   S(bob | alice)   -- comments allowed
// A database path of `-` reads from stdin (requires --jobs=FILE in serve
// mode, so the two streams do not collide).

#include <sys/stat.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cqa/answers/enumerator.h"
#include "cqa/attack/attack_graph.h"
#include "cqa/attack/classification.h"
#include "cqa/attack/dot.h"
#include "cqa/base/backoff.h"
#include "cqa/certainty/backtracking.h"
#include "cqa/certainty/certain_answers.h"
#include "cqa/certainty/solver.h"
#include "cqa/db/repairs.h"
#include "cqa/delta/delta.h"
#include "cqa/db/stats.h"
#include "cqa/export/asp.h"
#include "cqa/fo/eval.h"
#include "cqa/fo/fo_parser.h"
#include "cqa/fo/sql.h"
#include "cqa/base/signals.h"
#include "cqa/query/parser.h"
#include "cqa/rewriting/rewriter.h"
#include "cqa/serve/net/client.h"
#include "cqa/serve/net/daemon.h"
#include "cqa/serve/net/json.h"
#include "cqa/serve/net/protocol.h"
#include "cqa/serve/service.h"

namespace {

using namespace cqa;

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

// Maps a typed error to the documented exit code: 3 for resource
// exhaustion, 4 for cancellation, 1 for everything else.
int ExitCodeFor(ErrorCode code) {
  if (IsResourceExhaustion(code)) return 3;
  if (code == ErrorCode::kCancelled) return 4;
  return 1;
}

template <typename T>
int Fail(const Result<T>& r) {
  std::fprintf(stderr, "error: %s\n", r.error().c_str());
  return ExitCodeFor(r.code());
}

int Usage() {
  std::fprintf(stderr,
               "usage: cqa_cli <classify|rewrite|sql|dot|solve|answers|"
               "repairs|stats|asp|evalfo|serve|client|admin> ...\n"
               "(see the header of tools/cqa_cli.cc)\n");
  return 2;
}

Result<Query> LoadQuery(const char* text) { return ParseQuery(text); }

// Loads a fact database from a file, or from stdin when `path` is "-".
// Failures are typed: I/O problems (missing file, read error) are
// `kInternal` with the errno detail, malformed content is `kParse`; both
// name the offending path (and, for parse errors, the line).
Result<Database> LoadDatabase(const char* path) {
  std::string text;
  if (std::strcmp(path, "-") == 0) {
    std::stringstream buffer;
    buffer << std::cin.rdbuf();
    text = buffer.str();
  } else {
    std::ifstream in(path);
    if (!in) {
      return Result<Database>::Error(
          ErrorCode::kInternal, std::string("cannot open '") + path +
                                    "': " + std::strerror(errno));
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    if (in.bad()) {
      return Result<Database>::Error(
          ErrorCode::kInternal,
          std::string("I/O error reading '") + path + "'");
    }
    text = buffer.str();
  }
  Result<Database> db = Database::FromText(text);
  if (!db.ok()) {
    return Result<Database>::Error(
        db.code(), (std::strcmp(path, "-") == 0 ? "<stdin>" : path) +
                       (": " + db.error()));
  }
  return db;
}

std::string FlagValue(int argc, char** argv, const char* name) {
  std::string prefix = std::string(name) + "=";
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return "";
}

// Distinguishes "--flag=" (given, empty value) from an absent flag, which
// FlagValue alone cannot.
bool FlagGiven(int argc, char** argv, const char* name) {
  std::string prefix = std::string(name) + "=";
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return true;
    }
  }
  return false;
}

bool HasFlag(int argc, char** argv, const char* name) {
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

bool ParseU64(const std::string& s, uint64_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end == s.c_str() || *end != '\0') return false;
  *out = v;
  return true;
}

// Builds an execution governor from --timeout-ms / --max-nodes. Returns
// false on a malformed value; `*used` says whether any limit was given.
bool ParseBudgetFlags(int argc, char** argv, Budget* budget, bool* used) {
  *used = false;
  if (FlagGiven(argc, argv, "--timeout-ms")) {
    uint64_t ms = 0;
    if (!ParseU64(FlagValue(argc, argv, "--timeout-ms"), &ms)) return false;
    budget->deadline =
        Budget::Clock::now() + std::chrono::milliseconds(ms);
    *used = true;
  }
  if (FlagGiven(argc, argv, "--max-nodes")) {
    uint64_t n = 0;
    if (!ParseU64(FlagValue(argc, argv, "--max-nodes"), &n)) return false;
    budget->max_steps = n;
    *used = true;
  }
  return true;
}

int CmdClassify(const Query& q) {
  AttackGraph graph(q);
  Classification c = Classify(q);
  std::printf("query:           %s\n", q.ToString().c_str());
  std::printf("weakly guarded:  %s\n", c.weakly_guarded ? "yes" : "no");
  std::printf("guarded:         %s\n", c.guarded ? "yes" : "no");
  std::printf("attack graph:    %s\n", graph.ToString().c_str());
  std::printf("acyclic:         %s\n", c.attack_graph_acyclic ? "yes" : "no");
  std::printf("CERTAINTY(q):    %s\n", ToString(c.cls).c_str());
  std::printf("why:             %s\n", c.explanation.c_str());
  return 0;
}

int CmdRewrite(const Query& q, bool raw) {
  Result<Rewriting> rw = RewriteCertain(q, {.simplify = !raw});
  if (!rw.ok()) return Fail(rw.error());
  std::printf("%s\n", rw->formula->ToString().c_str());
  std::fprintf(stderr, "-- size %zu (raw %zu), %d elimination levels\n",
               rw->simplified_size, rw->raw_size, rw->levels);
  return 0;
}

int CmdSql(const Query& q) {
  Result<Rewriting> rw = RewriteCertain(q);
  if (!rw.ok()) return Fail(rw.error());
  Schema schema;
  Result<bool> reg = q.RegisterInto(&schema);
  if (!reg.ok()) return Fail(reg.error());
  std::printf("%s\n%s\n%s\n", SchemaDdl(schema).c_str(),
              AdomViewDdl(schema).c_str(), ToSqlQuery(rw->formula).c_str());
  return 0;
}

int CmdDot(const Query& q) {
  AttackGraph graph(q);
  std::printf("%s", AttackGraphToDot(graph).c_str());
  return 0;
}

int CmdSolve(const Query& q, const Database& db, const std::string& method,
             bool want_witness, Budget* budget, int parallelism) {
  Result<SolverMethod> m = ParseSolverMethod(method);
  if (!m.ok()) return Fail(m);
  SolveOptions options;
  options.method = *m;
  options.budget = budget;
  options.parallelism = parallelism;
  Result<SolveReport> report = SolveCertainty(q, db, options);
  if (!report.ok()) return Fail(report);
  switch (report->verdict) {
    case Verdict::kCertain:
      std::printf("certain\n");
      break;
    case Verdict::kNotCertain:
      std::printf("not certain\n");
      break;
    case Verdict::kProbablyCertain:
      std::printf("probably certain (confidence %.4f after %llu samples)\n",
                  report->confidence,
                  static_cast<unsigned long long>(report->samples));
      break;
    case Verdict::kExhausted:
      std::printf("exhausted (budget ran out before any evidence)\n");
      break;
  }
  if (want_witness && report->verdict == Verdict::kNotCertain) {
    Result<std::optional<Database>> witness = FindFalsifyingRepair(q, db);
    if (witness.ok() && witness->has_value()) {
      std::printf("-- a falsifying repair:\n%s", (*witness)->ToText().c_str());
    }
  }
  std::fprintf(stderr, "-- solved with %s; classification: %s\n",
               ToString(report->used).c_str(),
               ToString(report->classification.cls).c_str());
  if (report->components > 0) {
    std::fprintf(stderr,
                 "-- parallel: %d components on %d workers, %llu steals\n",
                 report->components, report->parallelism,
                 static_cast<unsigned long long>(report->steals));
  }
  for (const SolveStage& stage : report->stages) {
    std::fprintf(stderr, "-- stage %s: %s, %llu steps, %lld us%s%s\n",
                 ToString(stage.method).c_str(), stage.ok ? "ok" : "failed",
                 static_cast<unsigned long long>(stage.steps),
                 static_cast<long long>(stage.elapsed.count()),
                 stage.error.has_value() ? ", " : "",
                 stage.error.has_value() ? ToString(*stage.error) : "");
  }
  switch (report->verdict) {
    case Verdict::kCertain:
    case Verdict::kProbablyCertain:
      return 0;
    case Verdict::kExhausted:
      return 3;
    case Verdict::kNotCertain:
      break;
  }
  return 5;
}

int CmdAnswers(const Query& q, const Database& db, const std::string& free,
               uint64_t max_chunk, Budget* budget) {
  std::vector<Symbol> vars;
  std::string current;
  for (char c : free + ",") {
    if (c == ',') {
      if (!current.empty()) vars.push_back(InternSymbol(current));
      current.clear();
    } else if (!std::isspace(static_cast<unsigned char>(c))) {
      current += c;
    }
  }
  if (vars.empty()) return Fail("--free= lists no variables");
  if (max_chunk == 0) {
    Result<CertainAnswers> answers =
        ComputeCertainAnswers(q, vars, db, budget);
    if (!answers.ok()) return Fail(answers);
    for (const Tuple& t : answers->answers) {
      std::printf("%s\n", TupleToString(t).c_str());
    }
    std::fprintf(stderr, "-- %zu certain answers out of %zu candidates\n",
                 answers->answers.size(), answers->candidates);
    return 0;
  }
  // Chunked path: drive the resumable enumerator max_chunk answers at a
  // time, exactly as the daemon's answers streams do. The concatenation of
  // the chunks is the one-shot output above, byte for byte.
  EnumerateOptions opts;
  opts.max_chunk = max_chunk;
  uint64_t printed = 0, chunks = 0, candidates = 0;
  for (;;) {
    Result<AnswerChunk> chunk =
        EnumerateAnswerChunk(q, vars, db, opts, budget);
    if (!chunk.ok()) return Fail(chunk);
    for (const Tuple& t : chunk->answers) {
      std::printf("%s\n", TupleToString(t).c_str());
    }
    printed += chunk->answers.size();
    ++chunks;
    candidates = chunk->total;
    if (chunk->exhausted) {
      std::fprintf(stderr,
                   "-- budget exhausted at candidate %llu of %llu after "
                   "%llu answers\n",
                   static_cast<unsigned long long>(chunk->next),
                   static_cast<unsigned long long>(candidates),
                   static_cast<unsigned long long>(printed));
      return 3;
    }
    if (chunk->done) break;
    opts.start = chunk->next;
  }
  std::fprintf(stderr,
               "-- %llu certain answers out of %llu candidates in %llu "
               "chunks\n",
               static_cast<unsigned long long>(printed),
               static_cast<unsigned long long>(candidates),
               static_cast<unsigned long long>(chunks));
  return 0;
}

int CmdStats(const Database& db) {
  std::printf("total: %s\n", ComputeStats(db).ToString().c_str());
  for (const auto& [relation, stats] : ComputeStatsPerRelation(db)) {
    std::printf("%-12s %s\n", relation.c_str(), stats.ToString().c_str());
  }
  Database core = CertainFacts(db);
  std::printf("facts in every repair: %zu\n", core.NumFacts());
  return 0;
}

int CmdAsp(const Query& q, const Database& db) {
  Result<std::string> program = ToAspProgram(q, db);
  if (!program.ok()) return Fail(program.error());
  std::printf("%s", program->c_str());
  return 0;
}

int CmdEvalFo(const char* text, const Database& db, Budget* budget) {
  Result<FoPtr> f = ParseFo(text);
  if (!f.ok()) return Fail(f);
  if (!(*f)->FreeVars().empty()) {
    return Fail("formula has free variables: " +
                (*f)->FreeVars().ToString());
  }
  Result<bool> fits = CheckFoAgainst(f.value(), db.schema());
  if (!fits.ok()) return Fail(fits);
  Result<bool> holds = EvalFoGoverned(f.value(), db, budget);
  if (!holds.ok()) return Fail(holds);
  std::printf("%s\n", holds.value() ? "true" : "false");
  return holds.value() ? 0 : 5;
}

int CmdRepairs(const Database& db, uint64_t limit) {
  std::printf("facts: %zu, blocks: %zu, consistent: %s, repairs: %llu%s\n",
              db.NumFacts(), db.NumBlocks(),
              db.IsConsistent() ? "yes" : "no",
              static_cast<unsigned long long>(db.CountRepairs(1u << 30)),
              db.CountRepairs(1u << 30) >= (1u << 30) ? "+" : "");
  uint64_t shown = 0;
  ForEachRepair(db, [&](const Repair& r) {
    std::printf("--- repair %llu\n%s",
                static_cast<unsigned long long>(++shown),
                r.ToString().c_str());
    return shown < limit;
  });
  return 0;
}

int ServeSeverityRank(int exit_code);
std::string TrimCopy(const std::string& s);

// Splits "HOST:PORT" (or a bare "PORT", defaulting the host) and parses
// the port. False on malformed input.
bool ParseHostPort(const std::string& addr, std::string* host,
                   uint16_t* port) {
  std::string port_text = addr;
  size_t colon = addr.rfind(':');
  if (colon != std::string::npos) {
    *host = addr.substr(0, colon);
    port_text = addr.substr(colon + 1);
  } else {
    *host = "127.0.0.1";
  }
  if (host->empty()) *host = "127.0.0.1";
  uint64_t p = 0;
  if (!ParseU64(port_text, &p) || p > 65'535) return false;
  *port = static_cast<uint16_t>(p);
  return true;
}

// serve --listen: run the network daemon until SIGINT/SIGTERM, then drain.
// Databases come from the positional path (attached under the registry
// name "default") and/or repeatable --db=NAME=PATH flags; the first
// attached database is the registry default for solve frames without a
// "db" field.
int CmdServeDaemon(int argc, char** argv, const char* db_path) {
  std::string listen = FlagValue(argc, argv, "--listen");
  DaemonOptions dopts;
  if (!ParseHostPort(listen, &dopts.host, &dopts.port)) {
    return Fail("malformed --listen address '" + listen + "'");
  }

  // The positional database path is optional once --db flags name the
  // instances (main passes the first non-command argv either way).
  const bool have_positional =
      db_path != nullptr && std::strncmp(db_path, "--", 2) != 0;
  std::vector<std::pair<std::string, std::string>> db_specs;  // name, path
  if (have_positional) {
    db_specs.emplace_back(SolveDaemon::kDefaultDbName, db_path);
  }
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--db=", 5) != 0) continue;
    std::string spec = argv[i] + 5;
    size_t eq = spec.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
      return Fail("malformed --db spec '" + spec + "' (want --db=NAME=PATH)");
    }
    db_specs.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
  }
  // A follower may start empty: its databases arrive from the primary's
  // replication stream.
  if (db_specs.empty() && !FlagGiven(argc, argv, "--follow")) {
    return Fail(
        "serve --listen needs a database: a positional path or --db=NAME=PATH");
  }

  struct {
    const char* name;
    uint64_t value;
  } flags[] = {
      {"--workers", 4},          {"--queue-cap", 64},
      {"--timeout-ms", 0},       {"--retries", 0},
      {"--drain-ms", 5'000},     {"--max-connections", 256},
      {"--max-inflight", 16},    {"--idle-timeout-ms", 300'000},
      {"--cache-entries", 4'096}, {"--shard-workers", 4},
      {"--detach-drain-ms", 5'000}, {"--max-rss-mb", 0},
      {"--kill-grace-ms", 500},     {"--snapshot-every-deltas", 0},
      {"--snapshot-every-bytes", 0}, {"--delta-id-window", 4'096},
      {"--group-fsync-delay-ms", 5}, {"--group-fsync-batch", 64},
      {"--parallelism", 1},
  };
  for (auto& flag : flags) {
    if (FlagGiven(argc, argv, flag.name) &&
        !ParseU64(FlagValue(argc, argv, flag.name), &flag.value)) {
      return Fail(std::string("malformed ") + flag.name + " value");
    }
  }
  dopts.service.workers = static_cast<int>(flags[0].value);
  // --shard-workers is the multi-database spelling of the same knob (every
  // attached database gets its own worker pool of this size); when both
  // are given the shard spelling wins.
  if (FlagGiven(argc, argv, "--shard-workers")) {
    dopts.service.workers = static_cast<int>(flags[9].value);
  }
  dopts.service.queue_capacity = flags[1].value;
  dopts.service.default_timeout = std::chrono::milliseconds(flags[2].value);
  dopts.service.max_retries = static_cast<int>(flags[3].value);
  dopts.max_connections = flags[5].value;
  dopts.connection.max_inflight = flags[6].value;
  dopts.connection.idle_timeout = std::chrono::milliseconds(flags[7].value);
  dopts.detach_drain = std::chrono::milliseconds(flags[10].value);
  // Sandbox policy: --isolation=inproc|fork|auto picks where solves run
  // when the request leaves it to the daemon ("auto" escalates coNP-risk
  // queries to a fork); --max-rss-mb and --kill-grace-ms are the hard
  // limits every sandboxed solve runs under.
  if (FlagGiven(argc, argv, "--isolation")) {
    std::optional<IsolationMode> mode =
        ParseIsolationMode(FlagValue(argc, argv, "--isolation"));
    if (!mode.has_value()) {
      return Fail("malformed --isolation value (want auto|inproc|fork)");
    }
    dopts.service.isolation = *mode;
  }
  dopts.service.sandbox.max_rss_mb = flags[11].value;
  dopts.service.sandbox.kill_grace = std::chrono::milliseconds(flags[12].value);
  // Default pool width for component-decomposed solving; requests override
  // per frame with "parallelism": N.
  dopts.service.parallelism =
      static_cast<int>(std::min<uint64_t>(std::max<uint64_t>(flags[18].value,
                                                             1),
                                          64));
  // Caching is on by default for the daemon (the library default is off);
  // --no-cache disables both the result cache and worker warm state.
  const bool no_cache = HasFlag(argc, argv, "--no-cache");
  dopts.service.cache_entries = no_cache ? 0 : flags[8].value;
  dopts.service.warm_state = !no_cache;
  // Durability: --journal-dir enables the per-database write-ahead delta
  // journal (replayed on attach); --journal-fsync trades crash safety for
  // apply latency.
  dopts.journal_dir = FlagValue(argc, argv, "--journal-dir");
  if (!dopts.journal_dir.empty()) {
    if (::mkdir(dopts.journal_dir.c_str(), 0755) != 0 && errno != EEXIST) {
      return Fail("cannot create --journal-dir '" + dopts.journal_dir +
                  "': " + std::strerror(errno));
    }
  }
  std::string journal_fsync = FlagValue(argc, argv, "--journal-fsync");
  if (!journal_fsync.empty()) {
    if (journal_fsync == "always") {
      dopts.journal.fsync = FsyncPolicy::kAlways;
    } else if (journal_fsync == "group") {
      dopts.journal.fsync = FsyncPolicy::kGroup;
    } else if (journal_fsync == "never") {
      dopts.journal.fsync = FsyncPolicy::kNever;
    } else {
      return Fail("--journal-fsync must be 'always', 'group' or 'never'");
    }
  }
  dopts.journal.group_max_delay = std::chrono::milliseconds(flags[16].value);
  dopts.journal.group_max_batch = flags[17].value;
  // Compaction: snapshot every N acked deltas / J journal bytes (0 = only
  // on `admin snapshot`); the idempotency window rides along in snapshots.
  dopts.snapshot.every_deltas = flags[13].value;
  dopts.snapshot.every_journal_bytes = flags[14].value;
  dopts.delta_id_window = flags[15].value;
  // Warm standby: --follow=HOST:PORT starts this daemon read-only,
  // streaming the primary's databases; `admin promote` flips it writable.
  std::string follow = FlagValue(argc, argv, "--follow");
  if (!follow.empty() &&
      !ParseHostPort(follow, &dopts.follow_host, &dopts.follow_port)) {
    return Fail("malformed --follow address '" + follow + "'");
  }

  // Install the latch before accepting work so a signal arriving during
  // startup still drains instead of killing the process.
  SignalDrainLatch latch;
  SolveDaemon daemon(dopts);
  for (const auto& [name, path] : db_specs) {
    Result<Database> db = LoadDatabase(path.c_str());
    if (!db.ok()) return Fail(db);
    Result<ShardedSolveService::Entry> attached = daemon.Attach(
        name, std::make_shared<const Database>(std::move(db.value())));
    if (!attached.ok()) return Fail(attached);
    std::fprintf(stderr, "-- attached '%s'%s: %zu facts, %zu blocks\n",
                 attached->name.c_str(),
                 attached->is_default ? " (default)" : "",
                 attached->db->NumFacts(), attached->db->NumBlocks());
  }
  Result<bool> started = daemon.Start();
  if (!started.ok()) return Fail(started);
  std::printf("listening on %s:%u\n", dopts.host.c_str(),
              static_cast<unsigned>(daemon.port()));
  std::fflush(stdout);

  while (!latch.Wait(std::chrono::milliseconds(250))) {
  }
  std::fprintf(stderr, "-- signal %d received: draining\n",
               latch.signal_number());
  bool drained = daemon.Shutdown(std::chrono::milliseconds(flags[4].value));
  std::fprintf(stderr, "-- serve: %s\n",
               daemon.service_stats().ToString().c_str());
  return drained ? 0 : 4;
}

// Exit code for one terminal wire response, using the same severity
// classes as batch serve mode.
int ClientExitCodeFor(const WireResponse& response) {
  if (response.type == "cancelled") return 4;
  if (response.type == "error") {
    if (response.code == "deadline-exceeded" ||
        response.code == "budget-exhausted") {
      return 3;
    }
    return response.code == "cancelled" ? 4 : 1;
  }
  return response.verdict == "exhausted" ? 3 : 0;
}

// client: submit newline-delimited queries to a running daemon.
int CmdClient(int argc, char** argv, const char* addr) {
  std::string host;
  uint16_t port = 0;
  if (!ParseHostPort(addr, &host, &port)) {
    return Fail(std::string("malformed address '") + addr + "'");
  }
  const auto io_timeout = std::chrono::milliseconds(10'000);
  NetClient client;
  Result<bool> connected = client.Connect(host, port, io_timeout);
  if (!connected.ok()) return Fail(connected);

  if (HasFlag(argc, argv, "--health") || HasFlag(argc, argv, "--stats")) {
    const bool health = HasFlag(argc, argv, "--health");
    JsonObjectBuilder req;
    req.Set("type", health ? "health" : "stats").Set("id", uint64_t{1});
    Result<bool> sent = client.SendFrame(req.Build().Serialize(), io_timeout);
    if (!sent.ok()) return Fail(sent);
    Result<WireResponse> resp = client.ReadResponse(io_timeout);
    if (!resp.ok()) return Fail(resp);
    std::printf("%s\n", resp->raw.Serialize().c_str());
    return health && resp->status != "serving" ? 4 : 0;
  }

  std::string jobs_path = FlagValue(argc, argv, "--jobs");
  std::ifstream jobs_file;
  std::istream* jobs = &std::cin;
  if (!jobs_path.empty()) {
    jobs_file.open(jobs_path);
    if (!jobs_file) {
      return Fail("cannot open jobs file '" + jobs_path + "': " +
                  std::strerror(errno));
    }
    jobs = &jobs_file;
  }
  uint64_t timeout_ms = 0, max_nodes = Budget::kNoStepLimit;
  if (FlagGiven(argc, argv, "--timeout-ms") &&
      !ParseU64(FlagValue(argc, argv, "--timeout-ms"), &timeout_ms)) {
    return Fail("malformed --timeout-ms value");
  }
  if (FlagGiven(argc, argv, "--max-nodes") &&
      !ParseU64(FlagValue(argc, argv, "--max-nodes"), &max_nodes)) {
    return Fail("malformed --max-nodes value");
  }
  std::string method = FlagValue(argc, argv, "--method");
  if (!ParseSolverMethod(method).ok()) {
    return Fail("unknown method '" + method + "'");
  }
  std::string cache = FlagValue(argc, argv, "--cache");
  if (!cache.empty() && cache != "default" && cache != "bypass") {
    return Fail("--cache must be 'default' or 'bypass'");
  }
  std::string isolation = FlagValue(argc, argv, "--isolation");
  if (!isolation.empty() && !ParseIsolationMode(isolation).has_value()) {
    return Fail("--isolation must be 'auto', 'inproc' or 'fork'");
  }
  // Fault injection over the wire (CI sandbox smoke, manual containment
  // drills): forwarded verbatim as the solve frame's fault knobs. A wedged
  // or crashing solve under --isolation=fork demonstrates the daemon's
  // containment; a solve that resolves to in-process is refused as
  // unsupported.
  uint64_t wedge_after = 0, crash_after = 0;
  if (FlagGiven(argc, argv, "--wedge-after") &&
      !ParseU64(FlagValue(argc, argv, "--wedge-after"), &wedge_after)) {
    return Fail("malformed --wedge-after value");
  }
  if (FlagGiven(argc, argv, "--crash-after") &&
      !ParseU64(FlagValue(argc, argv, "--crash-after"), &crash_after)) {
    return Fail("malformed --crash-after value");
  }
  // Per-request pool width for component-decomposed solving (0 = daemon
  // default), forwarded as the frame's "parallelism" field.
  uint64_t parallelism = 0;
  if (FlagGiven(argc, argv, "--parallelism") &&
      (!ParseU64(FlagValue(argc, argv, "--parallelism"), &parallelism) ||
       parallelism > 64)) {
    return Fail("malformed --parallelism value (want 1..64)");
  }
  // Route every solve frame of this run to a named attached database;
  // without it the daemon's registry default answers.
  std::string db_name = FlagValue(argc, argv, "--db");

  // Streaming answers mode: one answers frame out, then answer_chunk
  // frames in until a terminal. `--cursor-file` persists the latest
  // resume cursor after every chunk, so `--chunks=N` (stop reading and
  // hang up after N chunks) plus a later `--resume` run continues the
  // stream where this one left it.
  if (FlagGiven(argc, argv, "--answers")) {
    std::string query = FlagValue(argc, argv, "--answers");
    std::string free = FlagValue(argc, argv, "--free");
    if (query.empty()) return Fail("--answers= needs a query");
    if (free.empty()) return Fail("--answers needs --free=x,y");
    uint64_t max_chunk = 0, chunk_limit = 0;
    if (FlagGiven(argc, argv, "--max-chunk") &&
        !ParseU64(FlagValue(argc, argv, "--max-chunk"), &max_chunk)) {
      return Fail("malformed --max-chunk value");
    }
    if (FlagGiven(argc, argv, "--chunks") &&
        !ParseU64(FlagValue(argc, argv, "--chunks"), &chunk_limit)) {
      return Fail("malformed --chunks value");
    }
    std::string cursor_file = FlagValue(argc, argv, "--cursor-file");
    std::string cursor;
    if (HasFlag(argc, argv, "--resume")) {
      if (cursor_file.empty()) return Fail("--resume needs --cursor-file=PATH");
      std::ifstream in(cursor_file);
      if (!in) {
        return Fail("cannot open cursor file '" + cursor_file + "': " +
                    std::strerror(errno));
      }
      std::getline(in, cursor);
      cursor = TrimCopy(cursor);
      if (cursor.empty()) {
        return Fail("cursor file '" + cursor_file + "' is empty");
      }
    }
    Json::Array free_json;
    std::string name;
    for (char c : free + ",") {
      if (c == ',') {
        if (!name.empty()) free_json.push_back(Json::MakeString(name));
        name.clear();
      } else if (!std::isspace(static_cast<unsigned char>(c))) {
        name += c;
      }
    }
    if (free_json.empty()) return Fail("--free= lists no variables");
    JsonObjectBuilder req;
    req.Set("type", "answers").Set("id", uint64_t{1}).Set("query", query);
    req.Set("free", Json::MakeArray(std::move(free_json)));
    if (max_chunk > 0) req.Set("max_chunk", max_chunk);
    if (!cursor.empty()) req.Set("cursor", cursor);
    if (timeout_ms > 0) req.Set("timeout_ms", timeout_ms);
    if (max_nodes != Budget::kNoStepLimit) req.Set("max_steps", max_nodes);
    if (!method.empty()) req.Set("method", method);
    if (!cache.empty()) req.Set("cache", cache);
    if (!db_name.empty()) req.Set("db", db_name);
    Result<bool> sent = client.SendFrame(req.Build().Serialize(), io_timeout);
    if (!sent.ok()) return Fail(sent);
    uint64_t chunks_read = 0, tuples_read = 0;
    for (;;) {
      Result<WireResponse> resp = client.ReadResponse(io_timeout);
      if (!resp.ok()) return Fail(resp);
      if (resp->type == "answer_chunk") {
        for (const auto& tuple : resp->tuples) {
          std::string row;
          for (size_t i = 0; i < tuple.size(); ++i) {
            if (i > 0) row += ", ";
            row += tuple[i];
          }
          std::printf("(%s)\n", row.c_str());
        }
        tuples_read += resp->tuples.size();
        ++chunks_read;
        if (!cursor_file.empty() && !resp->cursor.empty()) {
          std::ofstream out(cursor_file, std::ios::trunc);
          out << resp->cursor << "\n";
          if (!out) {
            return Fail("cannot write cursor file '" + cursor_file + "'");
          }
        }
        if (chunk_limit > 0 && chunks_read >= chunk_limit) {
          // Hang up mid-stream: the daemon drops the stream with the
          // connection, and the cursor file carries the resume point.
          std::fprintf(
              stderr,
              "-- stopped after %llu chunks (%llu tuples); resume with "
              "--resume --cursor-file=%s\n",
              static_cast<unsigned long long>(chunks_read),
              static_cast<unsigned long long>(tuples_read),
              cursor_file.empty() ? "PATH" : cursor_file.c_str());
          return 0;
        }
        continue;
      }
      if (resp->type == "answer_done") {
        std::fprintf(stderr,
                     "-- %llu answers in %llu chunks (%llu us)\n",
                     static_cast<unsigned long long>(resp->answers),
                     static_cast<unsigned long long>(resp->chunks),
                     static_cast<unsigned long long>(resp->latency_us));
        return 0;
      }
      if (resp->type == "cancelled") {
        std::fprintf(stderr, "-- cancelled: %s\n", resp->message.c_str());
        return 4;
      }
      if (resp->type == "error") {
        std::fprintf(stderr, "-- error: %s (%s)\n", resp->message.c_str(),
                     resp->code.c_str());
        return ClientExitCodeFor(*resp);
      }
      return Fail("unexpected frame type '" + resp->type + "' mid-stream");
    }
  }

  // Pipeline all jobs, then collect a terminal frame for each; the daemon
  // answers in completion order, ids tie responses back to input lines.
  std::string line;
  uint64_t line_no = 0;
  size_t outstanding = 0;
  int worst = 0;
  auto record_outcome = [&](int exit_code) {
    if (ServeSeverityRank(exit_code) > ServeSeverityRank(worst)) {
      worst = exit_code;
    }
  };
  while (std::getline(*jobs, line)) {
    ++line_no;
    size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line.compare(first, 2, "--") == 0) {
      continue;
    }
    JsonObjectBuilder req;
    req.Set("type", "solve").Set("id", line_no).Set("query", line);
    if (timeout_ms > 0) req.Set("timeout_ms", timeout_ms);
    if (max_nodes != Budget::kNoStepLimit) req.Set("max_steps", max_nodes);
    if (!method.empty()) req.Set("method", method);
    if (!cache.empty()) req.Set("cache", cache);
    if (!isolation.empty()) req.Set("isolation", isolation);
    if (wedge_after > 0) req.Set("wedge_after_probes", wedge_after);
    if (crash_after > 0) req.Set("crash_after_probes", crash_after);
    if (parallelism > 0) req.Set("parallelism", parallelism);
    if (!db_name.empty()) req.Set("db", db_name);
    Result<bool> sent = client.SendFrame(req.Build().Serialize(), io_timeout);
    if (!sent.ok()) return Fail(sent);
    ++outstanding;
  }
  while (outstanding > 0) {
    Result<WireResponse> resp = client.ReadResponse(io_timeout);
    if (!resp.ok()) return Fail(resp);
    if (!IsTerminalResponseType(resp->type)) continue;
    --outstanding;
    unsigned long long n = resp->id;
    if (resp->type == "cancelled") {
      std::printf("[%llu] cancelled\n", n);
    } else if (resp->type == "error") {
      std::printf("[%llu] error: %s (%s)\n", n, resp->message.c_str(),
                  resp->code.c_str());
    } else if (resp->verdict == "probably-certain") {
      std::printf("[%llu] %s (confidence %.4f after %llu samples)\n", n,
                  resp->verdict.c_str(), resp->confidence,
                  static_cast<unsigned long long>(resp->samples));
    } else {
      std::printf("[%llu] %s\n", n, resp->verdict.c_str());
    }
    record_outcome(ClientExitCodeFor(*resp));
  }
  return worst;
}

// admin: registry management against a running daemon. The attach verb
// reads the facts file client-side and ships its text inline — the daemon
// never opens files on a client's behalf. Prints the daemon's ack (or
// error) frame verbatim.
std::string TrimCopy(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

// Parses the delta grammar: one op per line, `+R(a, b)` inserts and
// `-R(a | b)` deletes (`,` and `|` both separate values — a delta names
// whole facts, so the key bar carries no meaning here). `--` comments and
// blank lines are skipped; values may be wrapped in single quotes.
Result<std::vector<DeltaOp>> ParseDeltaLines(const std::string& text) {
  using Out = Result<std::vector<DeltaOp>>;
  std::vector<DeltaOp> ops;
  std::istringstream in(text);
  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    std::string line = raw;
    size_t comment = line.find("--");
    if (comment != std::string::npos) line.erase(comment);
    line = TrimCopy(line);
    if (line.empty()) continue;
    const std::string where = "delta line " + std::to_string(line_no);
    if (line[0] != '+' && line[0] != '-') {
      return Out::Error(ErrorCode::kParse,
                        where + ": ops start with '+' (insert) or '-' "
                                "(delete), got '" + line + "'");
    }
    DeltaOp op;
    op.insert = line[0] == '+';
    size_t open = line.find('(');
    if (open == std::string::npos || line.back() != ')') {
      return Out::Error(ErrorCode::kParse,
                        where + ": expected +Relation(v1, v2) or "
                                "-Relation(v1, v2)");
    }
    op.relation = TrimCopy(line.substr(1, open - 1));
    if (op.relation.empty()) {
      return Out::Error(ErrorCode::kParse, where + ": missing relation name");
    }
    std::string body = line.substr(open + 1, line.size() - open - 2);
    std::string value;
    for (char c : body + ",") {
      if (c != ',' && c != '|') {
        value += c;
        continue;
      }
      std::string v = TrimCopy(value);
      value.clear();
      if (v.size() >= 2 && v.front() == '\'' && v.back() == '\'') {
        v = v.substr(1, v.size() - 2);
      }
      if (v.empty()) {
        return Out::Error(ErrorCode::kParse, where + ": empty value");
      }
      op.values.push_back(std::move(v));
    }
    ops.push_back(std::move(op));
  }
  if (ops.empty()) {
    return Out::Error(ErrorCode::kParse, "delta has no ops");
  }
  return ops;
}

int CmdAdmin(int argc, char** argv) {
  if (argc < 4) {
    return Fail(
        "admin needs HOST:PORT and a verb "
        "(attach|detach|apply|list|snapshot|promote)");
  }
  std::string host;
  uint16_t port = 0;
  if (!ParseHostPort(argv[2], &host, &port)) {
    return Fail(std::string("malformed address '") + argv[2] + "'");
  }
  const std::string verb = argv[3];
  JsonObjectBuilder req;
  req.Set("id", uint64_t{1});
  if (verb == "attach") {
    if (argc < 6) return Fail("admin attach needs NAME and FACTS_PATH");
    std::string text;
    if (std::strcmp(argv[5], "-") == 0) {
      std::stringstream buffer;
      buffer << std::cin.rdbuf();
      text = buffer.str();
    } else {
      std::ifstream in(argv[5]);
      if (!in) {
        return Fail(std::string("cannot open '") + argv[5] +
                    "': " + std::strerror(errno));
      }
      std::stringstream buffer;
      buffer << in.rdbuf();
      if (in.bad()) {
        return Fail(std::string("I/O error reading '") + argv[5] + "'");
      }
      text = buffer.str();
    }
    req.Set("type", "attach").Set("name", argv[4]).Set("facts", text);
  } else if (verb == "detach") {
    if (argc < 5) return Fail("admin detach needs NAME");
    req.Set("type", "detach").Set("name", argv[4]);
  } else if (verb == "apply") {
    if (argc < 6) return Fail("admin apply needs NAME and DELTA_PATH");
    std::string text;
    if (std::strcmp(argv[5], "-") == 0) {
      std::stringstream buffer;
      buffer << std::cin.rdbuf();
      text = buffer.str();
    } else {
      std::ifstream in(argv[5]);
      if (!in) {
        return Fail(std::string("cannot open '") + argv[5] +
                    "': " + std::strerror(errno));
      }
      std::stringstream buffer;
      buffer << in.rdbuf();
      if (in.bad()) {
        return Fail(std::string("I/O error reading '") + argv[5] + "'");
      }
      text = buffer.str();
    }
    Result<std::vector<DeltaOp>> ops = ParseDeltaLines(text);
    if (!ops.ok()) return Fail(ops);
    std::string delta_id = FlagValue(argc, argv, "--delta-id");
    if (delta_id.empty()) {
      // Content-derived default: re-running the same file is an idempotent
      // re-ack at the daemon, not a double application.
      char buf[32];
      std::snprintf(buf, sizeof(buf), "cli-%016llx",
                    static_cast<unsigned long long>(
                        std::hash<std::string>{}(text)));
      delta_id = buf;
    }
    req.Set("type", "apply_delta").Set("db", argv[4]);
    req.Set("delta_id", delta_id).Set("ops", EncodeDeltaOps(ops.value()));
  } else if (verb == "list") {
    req.Set("type", "list");
  } else if (verb == "snapshot") {
    // Snapshot + compact one database (NAME given) or the default one.
    req.Set("type", "snapshot");
    if (argc >= 5 && std::strncmp(argv[4], "--", 2) != 0) {
      req.Set("db", argv[4]);
    }
  } else if (verb == "promote") {
    // Failover: flip a --follow standby into a writable primary.
    req.Set("type", "promote");
  } else {
    return Fail("unknown admin verb '" + verb +
                "' (want attach|detach|apply|list|snapshot|promote)");
  }

  // A detach ack only arrives after its shard drained, so the read budget
  // must cover the daemon's detach drain, not one round trip.
  const auto io_timeout = std::chrono::milliseconds(30'000);
  NetClient client;
  Result<bool> connected = client.Connect(host, port, io_timeout);
  if (!connected.ok()) return Fail(connected);
  Result<bool> sent = client.SendFrame(req.Build().Serialize(), io_timeout);
  if (!sent.ok()) return Fail(sent);
  Result<WireResponse> resp = client.ReadResponse(io_timeout);
  if (!resp.ok()) return Fail(resp);
  std::printf("%s\n", resp->raw.Serialize().c_str());
  return resp->type == "error" ? 1 : 0;
}

// Exit-severity ranks for serve mode, worst wins: ok < exhausted(3) <
// cancelled(4) < failed(1).
int ServeSeverityRank(int exit_code) {
  switch (exit_code) {
    case 0:
      return 0;
    case 3:
      return 1;
    case 4:
      return 2;
    default:
      return 3;
  }
}

int CmdServe(int argc, char** argv, const char* db_path) {
  if (FlagGiven(argc, argv, "--listen")) {
    return CmdServeDaemon(argc, argv, db_path);
  }
  std::string jobs_path = FlagValue(argc, argv, "--jobs");
  if (std::strcmp(db_path, "-") == 0 && jobs_path.empty()) {
    return Fail("serve: a database from stdin ('-') requires --jobs=FILE");
  }
  Result<Database> db = LoadDatabase(db_path);
  if (!db.ok()) return Fail(db);
  auto shared_db = std::make_shared<const Database>(std::move(db.value()));

  // Numeric flags (all optional).
  struct {
    const char* name;
    uint64_t value;
  } flags[] = {
      {"--workers", 4},         {"--queue-cap", 64}, {"--timeout-ms", 0},
      {"--retries", 0},         {"--deadline-ms", 0}, {"--drain-ms", 3'600'000},
      {"--max-nodes", Budget::kNoStepLimit},
      {"--cache-entries", 4'096}, {"--parallelism", 1},
  };
  for (auto& flag : flags) {
    if (FlagGiven(argc, argv, flag.name) &&
        !ParseU64(FlagValue(argc, argv, flag.name), &flag.value)) {
      return Fail(std::string("malformed ") + flag.name + " value");
    }
  }
  Result<SolverMethod> method =
      ParseSolverMethod(FlagValue(argc, argv, "--method"));
  if (!method.ok()) return Fail(method);

  ServiceOptions options;
  options.workers = static_cast<int>(flags[0].value);
  options.queue_capacity = flags[1].value;
  options.default_timeout = std::chrono::milliseconds(flags[2].value);
  options.max_retries = static_cast<int>(flags[3].value);
  if (flags[4].value > 0) {
    options.service_deadline =
        Budget::Clock::now() + std::chrono::milliseconds(flags[4].value);
  }
  // Batch serve defaults the cache on too: a jobs file with repeated or
  // alpha-equivalent queries collapses to one solve per equivalence class.
  const bool no_cache = HasFlag(argc, argv, "--no-cache");
  options.cache_entries = no_cache ? 0 : flags[7].value;
  options.warm_state = !no_cache;
  options.parallelism = static_cast<int>(
      std::min<uint64_t>(std::max<uint64_t>(flags[8].value, 1), 64));

  std::ifstream jobs_file;
  std::istream* jobs = &std::cin;
  if (!jobs_path.empty()) {
    jobs_file.open(jobs_path);
    if (!jobs_file) {
      return Fail("cannot open jobs file '" + jobs_path + "': " +
                  std::strerror(errno));
    }
    jobs = &jobs_file;
  }

  SolveService service(options);
  std::mutex out_mu;
  int worst = 0;  // guarded by out_mu
  auto record_outcome = [&](int exit_code) {
    if (ServeSeverityRank(exit_code) > ServeSeverityRank(worst)) {
      worst = exit_code;
    }
  };

  BackoffPolicy admission_backoff;
  Rng admission_rng(1);
  std::string line;
  uint64_t line_no = 0;
  while (std::getline(*jobs, line)) {
    ++line_no;
    // Skip blanks and comment lines (same `--` convention as fact files).
    size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line.compare(first, 2, "--") == 0) {
      continue;
    }
    Result<Query> q = ParseQuery(line);
    if (!q.ok()) {
      std::lock_guard<std::mutex> lock(out_mu);
      std::printf("[%llu] error: %s (parse)\n",
                  static_cast<unsigned long long>(line_no),
                  q.error().c_str());
      record_outcome(1);
      continue;
    }
    ServeJob job(std::move(q.value()), shared_db);
    job.method = *method;
    job.max_steps = flags[6].value;
    uint64_t job_line = line_no;
    auto callback = [&, job_line](const ServeResponse& response) {
      std::lock_guard<std::mutex> lock(out_mu);
      unsigned long long n = job_line;
      if (response.state == RequestState::kCancelled) {
        std::printf("[%llu] cancelled\n", n);
        record_outcome(4);
      } else if (!response.result.ok()) {
        std::printf("[%llu] error: %s (%s)\n", n,
                    response.result.error().c_str(),
                    ToString(response.result.code()));
        record_outcome(ExitCodeFor(response.result.code()));
      } else {
        const SolveReport& report = *response.result;
        switch (report.verdict) {
          case Verdict::kCertain:
            std::printf("[%llu] certain\n", n);
            break;
          case Verdict::kNotCertain:
            std::printf("[%llu] not certain\n", n);
            break;
          case Verdict::kProbablyCertain:
            std::printf("[%llu] probably certain (confidence %.4f after "
                        "%llu samples)\n",
                        n, report.confidence,
                        static_cast<unsigned long long>(report.samples));
            break;
          case Verdict::kExhausted:
            std::printf("[%llu] exhausted\n", n);
            record_outcome(3);
            break;
        }
      }
    };
    // Admission control with backpressure: a full queue makes the reader
    // wait (backoff with jitter) and resubmit instead of dropping the job.
    for (int attempt = 1;; ++attempt) {
      Result<uint64_t> id = service.Submit(job, callback);
      if (id.ok()) break;
      if (id.code() != ErrorCode::kOverloaded || attempt >= 10'000) {
        std::lock_guard<std::mutex> lock(out_mu);
        std::printf("[%llu] error: %s (%s)\n",
                    static_cast<unsigned long long>(job_line),
                    id.error().c_str(), ToString(id.code()));
        record_outcome(ExitCodeFor(id.code()));
        break;
      }
      std::this_thread::sleep_for(
          admission_backoff.DelayFor(std::min(attempt, 8), &admission_rng));
    }
  }

  service.Shutdown(std::chrono::milliseconds(flags[5].value));
  std::fflush(stdout);
  std::fprintf(stderr, "-- serve: %s\n",
               service.Stats().ToString().c_str());
  std::lock_guard<std::mutex> lock(out_mu);
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string cmd = argv[1];

  Budget budget_storage;
  bool governed = false;
  if (!ParseBudgetFlags(argc, argv, &budget_storage, &governed)) {
    return Fail("malformed --timeout-ms or --max-nodes value");
  }
  Budget* budget = governed ? &budget_storage : nullptr;

  if (cmd == "serve") {
    if (argc < 3) return Usage();
    return CmdServe(argc, argv, argv[2]);
  }
  if (cmd == "client") {
    if (argc < 3) return Usage();
    return CmdClient(argc, argv, argv[2]);
  }
  if (cmd == "admin") {
    return CmdAdmin(argc, argv);
  }

  if (cmd == "repairs" || cmd == "stats") {
    if (argc < 3) return Usage();
    Result<Database> db = LoadDatabase(argv[2]);
    if (!db.ok()) return Fail(db.error());
    if (cmd == "stats") return CmdStats(db.value());
    std::string limit = FlagValue(argc, argv, "--limit");
    return CmdRepairs(db.value(),
                      limit.empty() ? 8 : std::stoull(limit));
  }

  if (cmd == "evalfo") {
    if (argc < 4) return Usage();
    Result<Database> db = LoadDatabase(argv[3]);
    if (!db.ok()) return Fail(db.error());
    return CmdEvalFo(argv[2], db.value(), budget);
  }

  if (argc < 3) return Usage();
  Result<Query> q = LoadQuery(argv[2]);
  if (!q.ok()) return Fail(q.error());

  if (cmd == "classify") return CmdClassify(q.value());
  if (cmd == "rewrite") {
    return CmdRewrite(q.value(), HasFlag(argc, argv, "--raw"));
  }
  if (cmd == "sql") return CmdSql(q.value());
  if (cmd == "dot") return CmdDot(q.value());

  if (argc < 4) return Usage();
  Result<Database> db = LoadDatabase(argv[3]);
  if (!db.ok()) return Fail(db.error());

  if (cmd == "solve") {
    uint64_t parallelism = 1;
    if (FlagGiven(argc, argv, "--parallelism") &&
        (!ParseU64(FlagValue(argc, argv, "--parallelism"), &parallelism) ||
         parallelism == 0 || parallelism > 64)) {
      return Fail("malformed --parallelism value (want 1..64)");
    }
    return CmdSolve(q.value(), db.value(), FlagValue(argc, argv, "--method"),
                    HasFlag(argc, argv, "--witness"), budget,
                    static_cast<int>(parallelism));
  }
  if (cmd == "answers") {
    uint64_t max_chunk = 0;
    if (FlagGiven(argc, argv, "--max-chunk") &&
        !ParseU64(FlagValue(argc, argv, "--max-chunk"), &max_chunk)) {
      return Fail("malformed --max-chunk value");
    }
    return CmdAnswers(q.value(), db.value(), FlagValue(argc, argv, "--free"),
                      max_chunk, budget);
  }
  if (cmd == "asp") return CmdAsp(q.value(), db.value());
  return Usage();
}
