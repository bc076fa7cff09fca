// cqa_fuzz — randomized differential tester. Runs forever-ish (bounded by
// --rounds), generating random weakly-guarded queries and random databases
// and cross-checking every exact engine whose scope accepts the query (the
// `CQA_ENGINES` table) against the repair-enumeration oracle, plus the two
// FO evaluation engines against each other. Also fuzzes the fact/query/FO
// parsers with mutated, garbage and deeply nested inputs (--parse-rounds)
// and evaluates whatever parses under a tight execution budget, asserting
// that only typed errors ever escape (kParse from the parsers; resource
// codes from governed evaluation). A third phase (--wire-rounds) throws
// random, mutated, truncated and oversized byte streams at the daemon's
// wire stack — FrameDecoder, Json::Parse, DecodeRequest, DecodeResponse —
// asserting frames fail with typed kParse/kUnsupported errors and the
// decoder's overflow latch engages exactly at its cap. A fourth phase
// (--cache-rounds) fuzzes the result-cache key scheme and a deliberately
// tiny ResultCache: alpha-renamed random queries must collide on one cache
// slot, constant-perturbed ones must not, and under constant eviction
// pressure a lookup may only ever return a report previously inserted
// under exactly that key. A fifth phase (--journal-rounds) feeds random
// concatenations of intact, CRC-corrupted, bit-flipped, truncated and
// garbage delta-journal records to ParseJournalBytes, asserting the
// decoder always yields a clean valid prefix and never crashes. A cursor
// phase (--cursor-rounds) attacks the opaque answer-stream resume cursor:
// random round trips must be lossless, and mutated, truncated, case-
// flipped or garbage cursor bytes must either fail with a typed kParse or
// decode to exactly the bytes that re-encode to the same spelling — a
// hostile cursor can be refused, never crash the decoder or silently
// resume at a different position. A sixth
// phase (--parallel-rounds) chains random fact deltas into fresh epochs
// (ApplyDeltaToDatabase) and, on every epoch, (a) cross-checks the
// decompose-then-solve parallel path against the direct sequential solve
// — verdicts must be identical — and (b) asserts the epoch's memoized
// value-connected component partition and its whole block index (every
// block's key, members, and key and fact lookups) equal those of a
// from-scratch reparse of the same facts, so an incremental mutation can
// never leave stale index or component metadata behind. A matching phase (--matching-rounds)
// draws random queries of the matching engine's class — q1 plus random
// self-covering negated atoms, literals shuffled — and random databases:
// the detector must accept each query, reject a near-miss that keys one
// extra atom by y, and the matching verdict must equal backtracking's (and
// auto dispatch must pick matching). Exits non-zero and prints a
// reproducer on the first violation.
//
//   cqa_fuzz [--seed=N] [--rounds=N] [--dbs-per-query=N] [--parse-rounds=N]
//            [--wire-rounds=N] [--cache-rounds=N] [--journal-rounds=N]
//            [--cursor-rounds=N] [--parallel-rounds=N] [--matching-rounds=N]

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "cqa/answers/answer_chunk.h"
#include "cqa/answers/cursor.h"
#include "cqa/base/crc32c.h"
#include "cqa/cqa.h"
#include "cqa/delta/delta.h"
#include "cqa/delta/journal.h"
#include "cqa/parallel/decompose.h"
#include "cqa/parallel/parallel_solver.h"
#include "cqa/serve/net/framing.h"
#include "cqa/serve/net/json.h"
#include "cqa/serve/net/protocol.h"

namespace {

using namespace cqa;

uint64_t FlagOr(int argc, char** argv, const char* name, uint64_t fallback) {
  std::string prefix = std::string(name) + "=";
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::stoull(argv[i] + prefix.size());
    }
  }
  return fallback;
}

int Reproducer(const Query& q, const Database& db, const char* what) {
  std::printf("DISAGREEMENT (%s)\nquery: %s\ndatabase:\n%s\n", what,
              q.ToString().c_str(), db.ToString().c_str());
  return 1;
}

int BadInput(const std::string& input, const char* what) {
  std::printf("PARSER VIOLATION (%s)\ninput: %s\n", what, input.c_str());
  return 1;
}

// Seed corpus for the parser fuzz: valid spellings whose mutations stay
// near the interesting parts of the grammars.
const char* const kFactCorpus[] = {
    "R(a | b), R(a | c)\nS(b | a)",
    "R('quo''ted' | b)",
    "Edge(1, 2 | 3)  -- comment\nEdge(2, 3 | 4)",
};
const char* const kQueryCorpus[] = {
    "R(x | y), not S(y | x)",
    "P(x | y), not N('c' | y), x != y",
    "C0(x0 | x1), C1(x1 | x0)",
};
const char* const kFoCorpus[] = {
    "exists x y. R(x | y) & !S(y | x)",
    "forall x. (R(x | x) -> exists y. S(x | y))",
    "exists x. R(x | x) | 'a' != 'b'",
};

std::string Mutate(const std::string& base, Rng* rng) {
  std::string s = base;
  int edits = static_cast<int>(rng->Below(4)) + 1;
  const char kGrammarChars[] = "(),|!&'.= \nRSxy123notexistsforall";
  for (int e = 0; e < edits && !s.empty(); ++e) {
    size_t pos = rng->Below(s.size());
    switch (rng->Below(3)) {
      case 0:  // flip
        s[pos] = kGrammarChars[rng->Below(sizeof(kGrammarChars) - 1)];
        break;
      case 1:  // insert
        s.insert(pos, 1, kGrammarChars[rng->Below(sizeof(kGrammarChars) - 1)]);
        break;
      default:  // truncate
        s.resize(pos);
        break;
    }
  }
  return s;
}

std::string Garbage(Rng* rng) {
  std::string s;
  size_t len = rng->Below(64);
  for (size_t i = 0; i < len; ++i) {
    s += static_cast<char>(rng->Below(96) + 32);
  }
  return s;
}

// True iff `code` is one the governed evaluator is allowed to produce.
bool IsResourceCode(ErrorCode code) {
  return IsResourceExhaustion(code) || code == ErrorCode::kCancelled;
}

// One parser-fuzz input: the parsers must either accept or fail with
// kParse (never hang, never return another code); formulas that do parse
// are evaluated under a tight step budget, whose failures must be typed
// resource errors.
int CheckParsers(const std::string& input, const Database& db) {
  Result<std::vector<ParsedFact>> facts = ParseFacts(input);
  if (!facts.ok() && facts.code() != ErrorCode::kParse) {
    return BadInput(input, "ParseFacts returned a non-parse error");
  }
  Result<Query> q = ParseQuery(input);
  if (!q.ok() && q.code() != ErrorCode::kParse) {
    return BadInput(input, "ParseQuery returned a non-parse error");
  }
  Result<FoPtr> f = ParseFo(input);
  if (!f.ok()) {
    if (f.code() != ErrorCode::kParse) {
      return BadInput(input, "ParseFo returned a non-parse error");
    }
    return 0;
  }
  if (!(*f)->FreeVars().empty()) return 0;
  if (!CheckFoAgainst(f.value(), db.schema()).ok()) return 0;
  Budget tight = Budget::WithMaxSteps(64);
  Result<bool> holds = EvalFoGoverned(f.value(), db, &tight);
  if (!holds.ok() && !IsResourceCode(holds.code())) {
    return BadInput(input, "governed eval escaped with a non-resource error");
  }
  return 0;
}

// Seed corpus for the wire fuzz: one valid spelling of every request type
// plus daemon-encoded responses, so mutations explore the near-valid
// neighborhood of both directions of the protocol.
std::vector<std::string> WireCorpus() {
  std::vector<std::string> corpus = {
      R"js({"type":"solve","id":1,"query":"R(x | y), not S(y | x)"})js",
      R"js({"type":"solve","id":2,"query":"R(x | y)","timeout_ms":50,)js"
      R"js("max_steps":100,"method":"backtracking","max_samples":10,)js"
      R"js("degrade_to_sampling":false,"deadline_from_submit":true,)js"
      R"js("cache":"default"})js",
      R"js({"type":"solve","id":11,"query":"R(x | y)","cache":"bypass"})js",
      R"js({"type":"solve","id":20,"query":"R(x | y), not S(y | x)",)js"
      R"js("isolation":"fork","timeout_ms":100})js",
      R"js({"type":"solve","id":21,"query":"R(x | y)","isolation":"inproc",)js"
      R"js("crash_after_probes":5,"hog_mb_per_probe":1,)js"
      R"js("wedge_after_probes":7})js",
      R"js({"type":"solve","id":22,"query":"R(x | y)","isolation":"auto"})js",
      R"js({"type":"health","id":3})js",
      R"js({"type":"stats","id":4})js",
      R"js({"type":"cancel","id":5,"target":1})js",
      R"js({"type":"solve","id":12,"query":"R(x | y)","db":"replica"})js",
      R"js({"type":"cancel","id":13,"target":2,"db":"replica"})js",
      R"js({"type":"attach","id":14,"name":"replica",)js"
      R"js("facts":"R(a | b)\nS(b | a)"})js",
      R"js({"type":"detach","id":15,"name":"replica"})js",
      R"js({"type":"list","id":16})js",
      // apply_delta: a valid frame, a duplicate-id retry of it, an unknown
      // relation, an arity mismatch, and malformed ops shapes. All must
      // decode (validation against a schema is the service's job, not the
      // codec's) or fail with typed kParse — mutation explores the rest.
      R"js({"type":"apply_delta","id":23,"db":"replica","delta_id":"d1",)js"
      R"js("ops":[{"op":"insert","relation":"R","values":["a","b"]},)js"
      R"js({"op":"delete","relation":"S","values":["b","a"]}]})js",
      R"js({"type":"apply_delta","id":24,"db":"replica","delta_id":"d1",)js"
      R"js("ops":[{"op":"insert","relation":"R","values":["a","b"]}]})js",
      R"js({"type":"apply_delta","id":25,"delta_id":"d2",)js"
      R"js("ops":[{"op":"insert","relation":"Ghost","values":["x","y"]}]})js",
      R"js({"type":"apply_delta","id":26,"delta_id":"d3",)js"
      R"js("ops":[{"op":"delete","relation":"R","values":["only-one"]}]})js",
      R"js({"type":"apply_delta","id":27,"delta_id":"d4","ops":[{}]})js",
      R"js({"type":"apply_delta","id":28,"delta_id":"","ops":[]})js",
      // answers: a plain stream open, one with every knob, resumes with a
      // well-formed and a hostile cursor, and shapes the codec must refuse
      // (missing/empty/mistyped 'free'). Mutation explores the rest.
      R"js({"type":"answers","id":30,"query":"R(x | y), not S(y | x)",)js"
      R"js("free":["x"]})js",
      R"js({"type":"answers","id":31,"query":"R(x | y)","free":["x","y"],)js"
      R"js("max_chunk":7,"db":"replica","timeout_ms":50,"max_steps":100,)js"
      R"js("method":"rewriting","cache":"bypass"})js",
      R"js({"type":"answers","id":33,"query":"R(x | y)","free":["x"],)js"
      R"js("cursor":"cqa2zzzz-not-a-cursor"})js",
      R"js({"type":"answers","id":34,"query":"R(x | y)"})js",
      R"js({"type":"answers","id":35,"query":"R(x | y)","free":[]})js",
      R"js({"type":"answers","id":36,"query":"R(x | y)","free":[42]})js",
  };
  corpus.push_back(EncodeErrorFrame(7, ErrorCode::kOverloaded, "busy", true));
  corpus.push_back(EncodeCancelledFrame(8, "cancelled"));
  corpus.push_back(EncodeHealthFrame(9, /*draining=*/false));
  corpus.push_back(EncodeCancelAckFrame(10, 1, true));
  {
    Result<Database> db = Database::FromText("R(a | b), R(a | c)\nS(b | a)");
    WireDbEntry entry;
    entry.name = "replica";
    entry.fingerprint = FingerprintDatabase(db.value()).ToHex();
    entry.facts = db->NumFacts();
    entry.blocks = db->NumBlocks();
    entry.is_default = false;
    corpus.push_back(EncodeAttachAckFrame(17, entry));
    corpus.push_back(EncodeDetachAckFrame(18, "replica", /*shed=*/3,
                                          /*drained=*/true));
    corpus.push_back(EncodeDbListFrame(19, {entry}));
    DeltaOutcome outcome;
    outcome.name = "replica";
    outcome.delta_id = "d1";
    outcome.applied = true;
    outcome.epoch = 1;
    outcome.fingerprint = FingerprintDatabase(db.value());
    outcome.inserted = 1;
    outcome.deleted = 1;
    corpus.push_back(EncodeDeltaAckFrame(29, outcome));

    // Answer-stream responses: a mid-stream chunk carrying a real cursor,
    // the final chunk of a stream, and the done terminal.
    AnswerChunk chunk;
    chunk.free_vars = {"x"};
    chunk.answers = {{Value::Of("a")}, {Value::Of("b")}};
    chunk.start = 0;
    chunk.next = 3;
    chunk.total = 5;
    chunk.scanned = 3;
    AnswerCursor cursor;
    cursor.position = chunk.next;
    cursor.query_hash = 0x1234abcdu;
    cursor.fingerprint = FingerprintDatabase(db.value());
    corpus.push_back(
        EncodeAnswerChunkFrame(37, chunk, EncodeAnswerCursor(cursor)));
    chunk.start = 3;
    chunk.next = 5;
    chunk.scanned = 2;
    chunk.done = true;
    corpus.push_back(EncodeAnswerChunkFrame(37, chunk, ""));
    corpus.push_back(EncodeAnswerDoneFrame(37, /*answers=*/4, /*candidates=*/5,
                                           /*chunks=*/2,
                                           std::chrono::microseconds(1'234)));
  }
  return corpus;
}

// ---------------------------------------------------------------------------
// Cursor-bytes fuzz

// Any byte string handed to DecodeAnswerCursor must either fail kParse or
// decode to a cursor whose re-encoding is byte-identical to the input —
// the "verifiable" half of opaque-but-verifiable: accepting hostile bytes
// that spell a *different* stream position is the one unforgivable
// outcome (a silent mis-resume).
int CheckCursorBytes(const std::string& bytes) {
  Result<AnswerCursor> decoded = DecodeAnswerCursor(bytes);
  if (!decoded.ok()) {
    if (decoded.code() != ErrorCode::kParse) {
      return BadInput(bytes, "cursor decode returned a non-parse error");
    }
    return 0;
  }
  if (EncodeAnswerCursor(*decoded) != bytes) {
    return BadInput(bytes, "accepted cursor does not re-encode to itself");
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Journal-bytes fuzz

// Serializes one well-formed journal record ([len][crc32c][payload]) so the
// fuzz stream's mutations explore the near-valid neighborhood: bit flips in
// the length, the CRC, and the payload all land one edit away from records
// the decoder accepts.
std::string JournalRecordBytes(const std::string& delta_id,
                               const std::string& fp_hex, bool valid_crc) {
  Json ops = Json::Parse(
                 R"js([{"op":"insert","relation":"R","values":["a","b"]}])js")
                 .value();
  std::string payload = JsonObjectBuilder()
                            .Set("delta_id", delta_id)
                            .Set("fp", fp_hex)
                            .Set("ops", std::move(ops))
                            .Build()
                            .Serialize();
  uint32_t len = static_cast<uint32_t>(payload.size());
  uint32_t crc = Crc32c(payload);
  if (!valid_crc) crc ^= 0xdeadbeefu;  // the corrupt-CRC corpus entry
  std::string out;
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((len >> (8 * i)) & 0xff));
  }
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((crc >> (8 * i)) & 0xff));
  }
  out += payload;
  return out;
}

// Any byte string must yield a valid-prefix decode: no crash, valid_bytes
// at a record boundary within the input, records consistent with the
// boundary, and decoding the valid prefix alone must reproduce exactly the
// same records with no torn tail.
int CheckJournalBytes(const std::string& bytes) {
  JournalReplay replay = ParseJournalBytes(bytes);
  if (replay.valid_bytes > bytes.size()) {
    return BadInput(bytes, "journal valid_bytes beyond the input");
  }
  if (replay.truncated_tail != (replay.valid_bytes < bytes.size())) {
    return BadInput(bytes, "journal truncated_tail flag inconsistent");
  }
  JournalReplay again =
      ParseJournalBytes(std::string_view(bytes).substr(0, replay.valid_bytes));
  if (again.records.size() != replay.records.size() || again.truncated_tail ||
      again.valid_bytes != replay.valid_bytes) {
    return BadInput(bytes, "journal valid prefix did not re-decode cleanly");
  }
  for (size_t i = 0; i < replay.records.size(); ++i) {
    if (replay.records[i].delta.id != again.records[i].delta.id) {
      return BadInput(bytes, "journal re-decode changed a record");
    }
  }
  return 0;
}

// Alpha-renames every variable of `q` (salted so different rounds use
// different spellings). The renamed query must produce the identical
// canonical cache key.
Query RenameVariables(const Query& q, uint64_t salt) {
  auto rename = [salt](const Term& t) {
    if (!t.is_variable()) return t;
    return Term::Var("w" + std::to_string(salt) + SymbolName(t.var()));
  };
  std::vector<Literal> literals;
  for (const Literal& l : q.literals()) {
    std::vector<Term> terms;
    for (const Term& t : l.atom.terms()) terms.push_back(rename(t));
    Atom atom(l.atom.relation(), l.atom.key_len(), std::move(terms));
    literals.push_back(l.negated ? Neg(atom) : Pos(atom));
  }
  std::vector<Diseq> diseqs;
  for (const Diseq& d : q.diseqs()) {
    Diseq nd;
    for (const Term& t : d.lhs) nd.lhs.push_back(rename(t));
    for (const Term& t : d.rhs) nd.rhs.push_back(rename(t));
    diseqs.push_back(std::move(nd));
  }
  return Query::MakeOrDie(std::move(literals), std::move(diseqs));
}

// The first way `db`'s block index disagrees with `ref`'s, a load of the
// same facts from scratch, or null. Block ids and member order may differ
// (deletes compact swap-with-last), so blocks compare by key and content:
// every member of a block carries its key and maps back to it through
// BlockOf, the key maps to it through BlockWithKey, and the members are
// exactly the facts `ref` files under that key.
const char* BlockIndexMismatch(const Database& db, const Database& ref) {
  if (db.NumBlocks() != ref.NumBlocks()) return "block count differs";
  if (db.NumFacts() != ref.NumFacts()) return "fact count differs";
  for (int b = 0; b < static_cast<int>(db.NumBlocks()); ++b) {
    const Symbol rel = db.block(b).relation;
    const std::span<const Value> key = db.BlockKey(b);
    if (db.BlockWithKey(rel, key) != b) return "key lookup misses its block";
    std::vector<Tuple> mine;
    for (size_t m = 0; m < db.block(b).size(); ++m) {
      const Tuple& fact = db.BlockFact(b, m);
      if (!std::equal(key.begin(), key.end(), fact.begin())) {
        return "member does not carry its block's key";
      }
      if (!db.Contains(rel, fact) || db.BlockOf(rel, fact) != b) {
        return "fact lookup misses its block";
      }
      mine.push_back(fact);
    }
    std::vector<Tuple> theirs;
    for (const Tuple* fact : ref.FactsWithKey(rel, key)) {
      theirs.push_back(*fact);
    }
    std::sort(mine.begin(), mine.end());
    std::sort(theirs.begin(), theirs.end());
    if (mine != theirs) return "block members differ";
  }
  return nullptr;
}

// Canonical signature of a database's value-connected component partition:
// every block rendered "Rel(key)", blocks grouped by component id, each
// group sorted, groups sorted. Independent of block enumeration order, so
// an epoch produced by incremental mutation must match a from-scratch
// reparse of the same facts byte-for-byte.
std::string ComponentSignature(const Database& db) {
  const Database::ComponentIndex& ci = db.BlockComponents();
  std::vector<std::vector<std::string>> groups(ci.num_components);
  for (size_t b = 0; b < db.NumBlocks(); ++b) {
    const std::span<const Value> key = db.BlockKey(static_cast<int>(b));
    groups[ci.component_of_block[b]].push_back(
        SymbolName(db.block(static_cast<int>(b)).relation) +
        TupleToString(Tuple(key.begin(), key.end())));
  }
  for (std::vector<std::string>& g : groups) std::sort(g.begin(), g.end());
  std::sort(groups.begin(), groups.end());
  std::string sig;
  for (const std::vector<std::string>& g : groups) {
    for (const std::string& s : g) {
      sig += s;
      sig += ' ';
    }
    sig += '|';
  }
  return sig;
}

int CacheViolation(const Query& q, const char* what) {
  std::printf("CACHE VIOLATION (%s)\nquery: %s\n", what,
              q.ToString().c_str());
  return 1;
}

// One wire-fuzz input: the byte stream is fed to a FrameDecoder in random
// chunk sizes; every completed frame must decode as a request or fail with
// kParse/kUnsupported, and likewise for responses. Nothing may crash or
// return an untyped error, and the overflow latch must respect the cap.
int CheckWireStack(const std::string& stream, size_t max_frame_bytes,
                   Rng* rng) {
  FrameDecoder decoder(max_frame_bytes);
  std::vector<std::string> frames;
  size_t offset = 0;
  while (offset < stream.size()) {
    size_t chunk = rng->Below(7) + 1;
    chunk = std::min(chunk, stream.size() - offset);
    decoder.Feed(stream.data() + offset, chunk, &frames);
    offset += chunk;
  }
  if (decoder.pending_bytes() > max_frame_bytes && !decoder.overflowed()) {
    return BadInput(stream, "decoder exceeded its cap without latching");
  }
  for (const std::string& frame : frames) {
    if (frame.size() > max_frame_bytes) {
      return BadInput(frame, "decoder emitted a frame beyond its cap");
    }
    Result<Json> json = Json::Parse(frame);
    if (!json.ok() && json.code() != ErrorCode::kParse) {
      return BadInput(frame, "Json::Parse returned a non-parse error");
    }
    Result<WireRequest> req = DecodeRequest(frame);
    if (!req.ok() && req.code() != ErrorCode::kParse &&
        req.code() != ErrorCode::kUnsupported) {
      return BadInput(frame, "DecodeRequest returned an untyped error");
    }
    Result<WireResponse> resp = DecodeResponse(frame);
    if (!resp.ok() && resp.code() != ErrorCode::kParse &&
        resp.code() != ErrorCode::kUnsupported) {
      return BadInput(frame, "DecodeResponse returned an untyped error");
    }
  }
  return 0;
}

}  // namespace

// The query text of q1 = R(x | y), ¬S(y | x) plus 0–2 negated atoms keyed
// by x over random {x, y} terms, literals in random order. With
// `near_miss`, the last extra atom (one is forced) is keyed by y instead,
// which takes the query out of the matching class.
std::string MatchingClassQueryText(Rng* rng, bool near_miss) {
  std::vector<std::string> literals = {"R(x | y)", "not S(y | x)"};
  int extra = static_cast<int>(rng->Below(3));
  if (near_miss && extra == 0) extra = 1;
  for (int i = 0; i < extra; ++i) {
    bool keyed_by_y = near_miss && i + 1 == extra;
    std::string atom = "not N" + std::to_string(i) + "(";
    atom += keyed_by_y ? "y" : "x";
    int rest = static_cast<int>(rng->Below(3));  // arity 1..3
    for (int t = 0; t < rest; ++t) {
      atom += t == 0 ? " | " : ", ";
      atom += rng->Chance(0.5) ? "x" : "y";
    }
    literals.push_back(atom + ")");
  }
  for (size_t i = literals.size(); i > 1; --i) {
    std::swap(literals[i - 1], literals[rng->Below(i)]);
  }
  std::string text;
  for (const std::string& l : literals) {
    if (!text.empty()) text += ", ";
    text += l;
  }
  return text;
}

int main(int argc, char** argv) {
  uint64_t seed = FlagOr(argc, argv, "--seed", 1);
  uint64_t rounds = FlagOr(argc, argv, "--rounds", 200);
  uint64_t dbs_per_query = FlagOr(argc, argv, "--dbs-per-query", 10);
  uint64_t parse_rounds = FlagOr(argc, argv, "--parse-rounds", 300);
  uint64_t wire_rounds = FlagOr(argc, argv, "--wire-rounds", 300);
  uint64_t cache_rounds = FlagOr(argc, argv, "--cache-rounds", 200);
  uint64_t journal_rounds = FlagOr(argc, argv, "--journal-rounds", 300);
  uint64_t cursor_rounds = FlagOr(argc, argv, "--cursor-rounds", 300);
  uint64_t parallel_rounds = FlagOr(argc, argv, "--parallel-rounds", 120);
  uint64_t matching_rounds = FlagOr(argc, argv, "--matching-rounds", 200);

  // Phase 1: parser robustness under mutation and garbage.
  {
    Rng prng(seed ^ 0xf0220u);
    Result<Database> pdb = Database::FromText(kFactCorpus[0]);
    if (!pdb.ok()) {
      std::printf("corpus database failed to parse: %s\n",
                  pdb.error().c_str());
      return 1;
    }
    std::vector<std::string> corpus;
    for (const char* s : kFactCorpus) corpus.push_back(s);
    for (const char* s : kQueryCorpus) corpus.push_back(s);
    for (const char* s : kFoCorpus) corpus.push_back(s);
    for (uint64_t round = 0; round < parse_rounds; ++round) {
      std::string input =
          prng.Chance(0.2) ? Garbage(&prng)
                           : Mutate(corpus[prng.Below(corpus.size())], &prng);
      int rc = CheckParsers(input, pdb.value());
      if (rc != 0) return rc;
    }
    // Nesting far past the FO parser's cap must fail typed, not overflow
    // the stack.
    const std::string core = "exists x y. R(x | y)";
    for (const std::string& deep :
         {std::string(60'000, '(') + core + std::string(60'000, ')'),
          std::string(120'000, '!') + core}) {
      if (ParseFo(deep).ok()) return BadInput(core, "deep nesting parsed");
      int rc = CheckParsers(deep, pdb.value());
      if (rc != 0) return rc;
    }
  }

  // Phase 2: wire-protocol robustness — random frame streams through the
  // daemon's decoder and codecs, delivered in adversarial chunk sizes.
  {
    Rng wrng(seed ^ 0x3142u);
    std::vector<std::string> corpus = WireCorpus();
    for (uint64_t round = 0; round < wire_rounds; ++round) {
      // A small cap every few rounds exercises the overflow latch; the
      // big cap exercises ordinary reassembly.
      size_t cap = wrng.Chance(0.3) ? 48 : 4096;
      std::string stream;
      int pieces = static_cast<int>(wrng.Below(4)) + 1;
      for (int p = 0; p < pieces; ++p) {
        switch (wrng.Below(4)) {
          case 0:  // intact corpus frame
            stream += corpus[wrng.Below(corpus.size())];
            break;
          case 1:  // mutated corpus frame (may contain stray newlines)
            stream += Mutate(corpus[wrng.Below(corpus.size())], &wrng);
            break;
          case 2:  // raw garbage
            stream += Garbage(&wrng);
            break;
          default: {  // oversized filler
            stream += std::string(cap + wrng.Below(64) + 1, '{');
            break;
          }
        }
        if (!wrng.Chance(0.2)) stream += wrng.Chance(0.1) ? "\r\n" : "\n";
      }
      if (wrng.Chance(0.3) && !stream.empty()) {
        stream.resize(wrng.Below(stream.size()));  // truncated delivery
      }
      int rc = CheckWireStack(stream, cap, &wrng);
      if (rc != 0) return rc;
    }
  }

  // Phase 2b: journal robustness — random record soup (valid, corrupt-CRC,
  // mutated, truncated, garbage) through the pure journal decoder.
  {
    Rng jrng(seed ^ 0x70a17u);
    const std::string fp_hex = "0123456789abcdef0123456789abcdef";
    for (uint64_t round = 0; round < journal_rounds; ++round) {
      std::string bytes;
      int pieces = static_cast<int>(jrng.Below(5)) + 1;
      for (int p = 0; p < pieces; ++p) {
        switch (jrng.Below(5)) {
          case 0:  // intact record
            bytes += JournalRecordBytes("d" + std::to_string(p), fp_hex,
                                        /*valid_crc=*/true);
            break;
          case 1:  // record whose CRC does not match its payload
            bytes += JournalRecordBytes("d" + std::to_string(p), fp_hex,
                                        /*valid_crc=*/false);
            break;
          case 2:  // intact record with one mutated byte
            bytes += Mutate(JournalRecordBytes("d", fp_hex, true), &jrng);
            break;
          case 3:  // raw garbage, including hostile length prefixes
            bytes += Garbage(&jrng);
            break;
          default: {  // a torn record: an intact one cut mid-payload
            std::string whole = JournalRecordBytes("torn", fp_hex, true);
            bytes += whole.substr(0, jrng.Below(whole.size()) + 1);
            break;
          }
        }
      }
      if (jrng.Chance(0.3) && !bytes.empty()) {
        bytes.resize(jrng.Below(bytes.size()));
      }
      int rc = CheckJournalBytes(bytes);
      if (rc != 0) return rc;
    }
  }

  // Phase 2c: cursor-bytes robustness — round trips, single-byte damage
  // across every position, and structured hostility (truncation, padding,
  // case flips, magic swaps, pure garbage).
  {
    Rng crng(seed ^ 0xc52503u);
    for (uint64_t round = 0; round < cursor_rounds; ++round) {
      AnswerCursor cursor;
      cursor.position = crng.Next();
      cursor.query_hash = crng.Next();
      cursor.fingerprint = DbFingerprint{crng.Next(), crng.Next()};
      std::string wire = EncodeAnswerCursor(cursor);
      Result<AnswerCursor> back = DecodeAnswerCursor(wire);
      if (!back.ok() || back->position != cursor.position ||
          back->query_hash != cursor.query_hash ||
          !(back->fingerprint == cursor.fingerprint)) {
        return BadInput(wire, "cursor round trip lost a field");
      }

      std::string hostile = wire;
      switch (crng.Below(6)) {
        case 0:  // flip one payload character
          hostile[crng.Below(hostile.size())] =
              static_cast<char>(crng.Below(96) + 32);
          break;
        case 1:  // truncate
          hostile.resize(crng.Below(hostile.size()));
          break;
        case 2:  // pad with trailing bytes
          hostile += Garbage(&crng);
          break;
        case 3: {  // uppercase a hex digit (spelling is lowercase-only)
          size_t pos = 4 + crng.Below(hostile.size() - 4);
          hostile[pos] = static_cast<char>(std::toupper(hostile[pos]));
          break;
        }
        case 4:  // wrong magic, right payload
          hostile[crng.Below(4)] = 'x';
          break;
        default:  // pure garbage, sometimes magic-prefixed
          hostile = (crng.Chance(0.5) ? "cqa2" : "") + Garbage(&crng);
          break;
      }
      int rc = CheckCursorBytes(hostile);
      if (rc != 0) return rc;
    }
  }

  // Phase 3: result-cache invariants. A 4-entry cache under random query/
  // database traffic evicts on almost every insert, so any aliasing bug in
  // the key scheme (two distinct instances mapping to one slot, or an
  // alpha-variant mapping to two) surfaces as a verdict mismatch against
  // the reference map of everything ever inserted.
  {
    Rng crng(seed ^ 0xCAC4Eu);
    RandomQueryOptions cqopts;
    RandomDbOptions cdopts;
    cdopts.blocks_per_relation = 2;
    cdopts.max_block_size = 2;
    cdopts.domain_size = 4;
    ResultCache cache(/*max_entries=*/4, /*shards=*/2);
    std::unordered_map<std::string, Verdict> reference;
    for (uint64_t round = 0; round < cache_rounds; ++round) {
      Query q = GenerateRandomQuery(cqopts, &crng);
      Query renamed = RenameVariables(q, round % 9);
      if (CanonicalQueryKey(q) != CanonicalQueryKey(renamed)) {
        return CacheViolation(q, "alpha-variant got a different query key");
      }
      std::vector<Symbol> vars = q.Vars().items();
      if (!vars.empty()) {
        Query subst = q.Substituted(vars[crng.Below(vars.size())],
                                    Value::Of("zz"));
        if (CanonicalQueryKey(subst) == CanonicalQueryKey(q)) {
          return CacheViolation(q, "constant-perturbed query kept the key");
        }
      }
      Database db = GenerateRandomDatabaseFor(q, cdopts, &crng);
      DbFingerprint fp = FingerprintDatabase(db);
      CacheKey key = MakeCacheKey(fp, SolverMethod::kAuto, q);
      CacheKey alias = MakeCacheKey(fp, SolverMethod::kAuto, renamed);
      if (key.text != alias.text || key.hash != alias.hash) {
        return CacheViolation(q, "alpha-variant got a different cache key");
      }
      if (std::optional<SolveReport> pre = cache.Lookup(key)) {
        auto it = reference.find(key.text);
        if (it == reference.end() || pre->verdict != it->second) {
          return CacheViolation(q, "lookup returned a foreign report");
        }
      }
      Result<SolveReport> solved = SolveCertainty(q, db, SolverMethod::kAuto);
      if (solved.ok() && IsCacheableReport(*solved)) {
        cache.Insert(key, *solved);
        reference[key.text] = solved->verdict;
        std::optional<SolveReport> back = cache.Lookup(key);
        if (!back.has_value() || back->verdict != solved->verdict) {
          return CacheViolation(q, "insert/lookup round trip failed");
        }
      }
    }
    CacheStats cs = cache.Stats();
    if (cs.entries > cache.max_entries()) {
      std::printf("CACHE VIOLATION (size bound): %llu entries, cap %llu\n",
                  static_cast<unsigned long long>(cs.entries),
                  static_cast<unsigned long long>(cache.max_entries()));
      return 1;
    }
  }

  // Phase 4: parallel decomposition parity on delta-mutated epochs. Each
  // round chains random inserts and deletes through ApplyDeltaToDatabase;
  // every epoch's block index and component metadata must match a
  // from-scratch reparse,
  // and the decompose-then-solve verdict must equal the direct one.
  {
    Rng prng(seed ^ 0xdec0u);
    RandomQueryOptions pqopts;
    RandomDbOptions pdopts;
    pdopts.blocks_per_relation = 3;
    pdopts.max_block_size = 2;
    pdopts.domain_size = 6;
    for (uint64_t round = 0; round < parallel_rounds; ++round) {
      Query q = GenerateRandomQuery(pqopts, &prng);
      Database base = GenerateRandomDatabaseFor(q, pdopts, &prng);

      // Per-relation arities of q (delta ops must be schema-valid), and a
      // value pool mixing the base database's own spellings (inserts that
      // merge components) with fresh ones (inserts that mint components).
      std::vector<std::pair<std::string, size_t>> relations;
      for (const Literal& l : q.literals()) {
        relations.emplace_back(SymbolName(l.atom.relation()),
                               l.atom.terms().size());
      }
      std::vector<std::string> pool;
      for (const RelationSchema& rs : base.schema().relations()) {
        const int first = base.FirstBlockId(rs.name);
        const int n = static_cast<int>(base.BlocksOf(rs.name).size());
        for (int b = first; b < first + n; ++b) {
          for (Value v : base.BlockKey(b)) pool.push_back(v.name());
        }
      }
      for (int f = 0; f < 4; ++f) {
        pool.push_back("fz" + std::to_string(round) + "_" + std::to_string(f));
      }

      auto random_op = [&](bool insert) {
        const auto& [rel, arity] = relations[prng.Below(relations.size())];
        DeltaOp op;
        op.insert = insert;
        op.relation = rel;
        for (size_t a = 0; a < arity; ++a) {
          op.values.push_back(pool[prng.Below(pool.size())]);
        }
        return op;
      };

      std::shared_ptr<const Database> epoch =
          std::make_shared<const Database>(std::move(base));
      std::vector<DeltaOp> inserted;
      for (int step = 0; step < 3; ++step) {
        FactDelta delta;
        delta.id = "fz" + std::to_string(round) + "." + std::to_string(step);
        int ops = static_cast<int>(prng.Below(5)) + 1;
        for (int o = 0; o < ops; ++o) {
          // Deletes target previously-inserted facts when possible so they
          // actually remove something; a miss is a legal no-op either way.
          if (!inserted.empty() && prng.Chance(0.4)) {
            DeltaOp del = inserted[prng.Below(inserted.size())];
            del.insert = false;
            delta.ops.push_back(std::move(del));
          } else {
            DeltaOp op = random_op(/*insert=*/true);
            inserted.push_back(op);
            delta.ops.push_back(std::move(op));
          }
        }
        Result<DeltaApplyOutcome> out = ApplyDeltaToDatabase(*epoch, delta);
        if (!out.ok()) {
          return Reproducer(q, *epoch, "schema-valid delta was rejected");
        }
        epoch = out->db;

        // (b) Epoch component metadata vs a from-scratch reparse.
        Result<Database> reparsed = Database::FromText(epoch->ToText());
        if (!reparsed.ok()) {
          return Reproducer(q, *epoch, "epoch failed to round-trip as text");
        }
        if (ComponentSignature(*epoch) != ComponentSignature(*reparsed)) {
          return Reproducer(q, *epoch,
                            "epoch carries stale component metadata");
        }
        if (const char* diff = BlockIndexMismatch(*epoch, *reparsed)) {
          return Reproducer(q, *epoch, diff);
        }

        // (a) Decompose-then-solve vs the direct sequential engine.
        Result<bool> direct = IsCertainBacktracking(q, *epoch);
        if (!direct.ok()) continue;
        ParallelOptions popts;
        popts.parallelism = 2 + static_cast<int>(prng.Below(3)) * 3;
        Result<ParallelReport> par = SolveCertainParallel(q, *epoch, popts);
        if (!par.ok() || par->certain != direct.value()) {
          return Reproducer(q, *epoch, "parallel vs direct on delta epoch");
        }
      }
    }
  }

  // Phase 5: matching-engine parity on its widened class. Each round's
  // query must be detected, its near-miss must not, and on a random
  // database the matching verdict must equal backtracking's.
  {
    Rng mrng(seed ^ 0x3a7c1u);
    RandomDbOptions mdopts;
    mdopts.blocks_per_relation = 3;
    mdopts.max_block_size = 3;
    mdopts.domain_size = 4;
    for (uint64_t round = 0; round < matching_rounds; ++round) {
      Result<Query> q = ParseQuery(MatchingClassQueryText(&mrng, false));
      Result<Query> near = ParseQuery(MatchingClassQueryText(&mrng, true));
      if (!q.ok() || !near.ok()) {
        std::printf("matching-class query failed to parse: %s\n",
                    (q.ok() ? near : q).error().c_str());
        return 1;
      }
      Database db = GenerateRandomDatabaseFor(*q, mdopts, &mrng);
      if (DetectQ1Shape(*near).has_value()) {
        return Reproducer(*near, db, "detector accepted a near-miss");
      }
      std::optional<bool> matched = IsCertainQ1ByMatching(*q, db);
      if (!matched.has_value()) {
        return Reproducer(*q, db, "detector rejected the matching class");
      }
      Result<bool> bt = IsCertainBacktracking(*q, db);
      if (!bt.ok() || bt.value() != *matched) {
        return Reproducer(*q, db, "matching vs backtracking");
      }
      Result<SolveReport> facade = SolveCertainty(*q, db);
      if (!facade.ok() || facade->used != SolverMethod::kMatchingQ1 ||
          facade->certain != *matched) {
        return Reproducer(*q, db, "auto dispatch vs matching");
      }
    }
  }

  Rng rng(seed);
  RandomQueryOptions qopts;
  RandomDbOptions dopts;
  dopts.blocks_per_relation = 2;
  dopts.max_block_size = 2;
  dopts.domain_size = 4;

  uint64_t fo_count = 0, hard_count = 0, checks = 0;
  for (uint64_t round = 0; round < rounds; ++round) {
    Query q = GenerateRandomQuery(qopts, &rng);
    Classification cls = Classify(q);
    std::optional<RewritingSolver> rewriting;
    if (cls.cls == CertaintyClass::kFO) {
      ++fo_count;
      Result<RewritingSolver> rs = RewritingSolver::Create(q);
      if (!rs.ok()) {
        std::printf("rewriter refused an FO query: %s\n%s\n",
                    q.ToString().c_str(), rs.error().c_str());
        return 1;
      }
      rewriting = std::move(rs.value());
    } else {
      ++hard_count;
    }

    for (uint64_t i = 0; i < dbs_per_query; ++i) {
      Database db = GenerateRandomDatabaseFor(q, dopts, &rng);
      Result<bool> oracle = IsCertainNaive(q, db);
      if (!oracle.ok()) continue;
      ++checks;

      // Every exact row of the engine table whose scope accepts q.
      for (const Engine& e : Engines()) {
        if (e.answer != EngineAnswer::kExact || !e.Accepts(q, cls)) continue;
        Result<SolveReport> r = SolveCertainty(q, db, e.method);
        if (!r.ok() || r->certain != oracle.value()) {
          return Reproducer(q, db, (std::string(e.name) + " vs naive").c_str());
        }
      }
      if (rewriting.has_value()) {
        // Algebra evaluation of the rewriting.
        Result<bool> algebra =
            EvalFoAlgebraBool(rewriting->rewriting().formula, db);
        if (!algebra.ok() || algebra.value() != oracle.value()) {
          return Reproducer(q, db, "algebra engine vs naive");
        }
      }
      // Sampling may only refute when the oracle refutes.
      Rng srng(round * 1000 + i);
      SampleEstimate est = EstimateCertainty(q, db, 16, &srng);
      if (est.refuted && oracle.value()) {
        return Reproducer(q, db, "sampling refuted a certain instance");
      }
    }
  }
  std::printf(
      "fuzz clean: %llu parse rounds, %llu wire rounds, %llu journal "
      "rounds, %llu cursor rounds, %llu cache rounds, %llu parallel rounds, "
      "%llu matching rounds, %llu rounds (%llu FO, %llu hard), %llu "
      "database checks\n",
      static_cast<unsigned long long>(parse_rounds),
      static_cast<unsigned long long>(wire_rounds),
      static_cast<unsigned long long>(journal_rounds),
      static_cast<unsigned long long>(cursor_rounds),
      static_cast<unsigned long long>(cache_rounds),
      static_cast<unsigned long long>(parallel_rounds),
      static_cast<unsigned long long>(matching_rounds),
      static_cast<unsigned long long>(rounds),
      static_cast<unsigned long long>(fo_count),
      static_cast<unsigned long long>(hard_count),
      static_cast<unsigned long long>(checks));
  return 0;
}
