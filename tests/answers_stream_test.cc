// Streaming certain-answer enumeration through the serve layer: chunked
// `kAnswers` jobs at the SolveService level (cursor mint/validate, warm
// chunk caching, budget-partial chunks staying out of the cache), full
// wire streams over TCP (answer_chunk* + answer_done framing, resume
// across connections, epoch-flip staleness, mid-stream cancellation),
// and the chaos property the chunk-per-job design exists for: a slow or
// long stream never pins a worker between chunks.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cqa/answers/cursor.h"
#include "cqa/base/interner.h"
#include "cqa/cache/fingerprint.h"
#include "cqa/certainty/certain_answers.h"
#include "cqa/delta/delta.h"
#include "cqa/query/parser.h"
#include "cqa/serve/net/client.h"
#include "cqa/serve/net/daemon.h"
#include "cqa/serve/net/json.h"
#include "cqa/serve/net/protocol.h"
#include "cqa/serve/service.h"

namespace cqa {
namespace {

using std::chrono::milliseconds;

constexpr milliseconds kIo{10'000};

Query Q(const char* text) {
  Result<Query> q = ParseQuery(text);
  EXPECT_TRUE(q.ok()) << (q.ok() ? "" : q.error());
  return q.value();
}

std::shared_ptr<const Database> Db(const std::string& text) {
  Result<Database> db = Database::FromText(text);
  EXPECT_TRUE(db.ok()) << (db.ok() ? "" : db.error());
  return std::make_shared<const Database>(std::move(db.value()));
}

// `keys` single-fact R blocks k00..kNN plus an S witness on every
// `blocked_every`-th key. Under kStreamQuery the certain answers are
// exactly the unblocked keys, in spelling order — a stream whose length
// and chunking the tests control precisely.
constexpr const char* kStreamQuery = "R(x | y), not S(x | y)";

std::string StreamFacts(int keys, int blocked_every) {
  std::string text;
  for (int i = 0; i < keys; ++i) {
    char key[8];
    std::snprintf(key, sizeof key, "k%02d", i);
    text += std::string("R(") + key + " | " + key + ")\n";
    if (blocked_every > 0 && i % blocked_every == 0) {
      text += std::string("S(") + key + " | " + key + ")\n";
    }
  }
  return text;
}

// Ground truth: the one-shot sorted answer list, as wire-shaped rows.
std::vector<std::vector<std::string>> OneShotRows(
    const Query& q, const std::vector<std::string>& frees,
    const Database& db) {
  std::vector<Symbol> syms;
  for (const std::string& name : frees) syms.push_back(InternSymbol(name));
  Result<CertainAnswers> all = ComputeCertainAnswers(q, syms, db);
  EXPECT_TRUE(all.ok()) << (all.ok() ? "" : all.error());
  std::vector<std::vector<std::string>> rows;
  if (!all.ok()) return rows;
  for (const Tuple& tuple : all->answers) {
    std::vector<std::string> row;
    for (const Value& value : tuple) row.push_back(std::string(value.name()));
    rows.push_back(std::move(row));
  }
  return rows;
}

// ---------------------------------------------------------------------------
// Service-level: kAnswers jobs through SolveService

ServeJob AnswersJob(const Query& q, std::shared_ptr<const Database> db,
                    uint64_t max_chunk, const std::string& cursor = "") {
  ServeJob job(q, std::move(db));
  job.kind = JobKind::kAnswers;
  job.free_vars = {"x"};
  job.answer_max_chunk = max_chunk;
  job.cursor = cursor;
  return job;
}

ServeResponse SubmitAndWait(SolveService& service, ServeJob job) {
  auto state = std::make_shared<std::promise<ServeResponse>>();
  std::future<ServeResponse> done = state->get_future();
  Result<uint64_t> id = service.Submit(
      std::move(job),
      [state](const ServeResponse& response) { state->set_value(response); });
  EXPECT_TRUE(id.ok()) << (id.ok() ? "" : id.error());
  return done.get();
}

TEST(AnswersServiceTest, ChunkJobsTileTheStreamAndMintResumeCursors) {
  ServiceOptions options;
  options.workers = 2;
  SolveService service(options);
  const Query q = Q(kStreamQuery);
  auto db = Db(StreamFacts(11, 3));
  const auto expected = OneShotRows(q, {"x"}, *db);
  ASSERT_FALSE(expected.empty());

  std::vector<std::vector<std::string>> streamed;
  std::string cursor;
  uint64_t next_start = 0;
  int chunks = 0;
  for (;; ++chunks) {
    ASSERT_LT(chunks, 100) << "stream did not terminate";
    ServeResponse response =
        SubmitAndWait(service, AnswersJob(q, db, 3, cursor));
    ASSERT_EQ(response.state, RequestState::kCompleted);
    ASSERT_TRUE(response.result.ok()) << response.result.error();
    ASSERT_NE(response.result->answer_chunk, nullptr);
    const AnswerChunk& chunk = *response.result->answer_chunk;
    EXPECT_EQ(chunk.start, next_start) << "chunks must tile with no gaps";
    EXPECT_FALSE(chunk.exhausted);
    EXPECT_LE(chunk.answers.size(), 3u);
    next_start = chunk.next;
    for (const Tuple& tuple : chunk.answers) {
      std::vector<std::string> row;
      for (const Value& value : tuple) {
        row.push_back(std::string(value.name()));
      }
      streamed.push_back(std::move(row));
    }
    if (chunk.done) {
      EXPECT_TRUE(response.answer_cursor.empty())
          << "a finished stream must not mint a resume cursor";
      break;
    }
    ASSERT_FALSE(response.answer_cursor.empty())
        << "an unfinished chunk must carry a resume cursor";
    cursor = response.answer_cursor;
    // The cursor is verifiable: it decodes, and it names this stream.
    Result<AnswerCursor> decoded = DecodeAnswerCursor(cursor);
    ASSERT_TRUE(decoded.ok()) << decoded.error();
    EXPECT_EQ(decoded->position, chunk.next);
    EXPECT_EQ(decoded->query_hash, AnswerQueryHash(q, {"x"}));
    EXPECT_TRUE(decoded->fingerprint == FingerprintDatabase(*db));
  }
  EXPECT_EQ(streamed, expected);
  EXPECT_GE(chunks, 2) << "fixture must span multiple chunks";
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.answer_chunks, static_cast<uint64_t>(chunks) + 1);
  EXPECT_EQ(stats.answer_tuples, expected.size());
  service.Shutdown(milliseconds(2'000));
}

TEST(AnswersServiceTest, WarmChunkIsServedFromTheCacheWithAFreshCursor) {
  ServiceOptions options;
  options.workers = 2;
  options.cache_entries = 64;
  SolveService service(options);
  const Query q = Q(kStreamQuery);
  auto db = Db(StreamFacts(9, 4));

  ServeResponse cold = SubmitAndWait(service, AnswersJob(q, db, 2));
  ASSERT_TRUE(cold.result.ok()) << cold.result.error();
  ASSERT_NE(cold.result->answer_chunk, nullptr);
  ASSERT_FALSE(cold.answer_cursor.empty());

  ServeResponse warm = SubmitAndWait(service, AnswersJob(q, db, 2));
  ASSERT_TRUE(warm.result.ok()) << warm.result.error();
  ASSERT_NE(warm.result->answer_chunk, nullptr);
  EXPECT_EQ(service.Stats().cache_hits, 1u);
  EXPECT_EQ(warm.result->answer_chunk->answers.size(),
            cold.result->answer_chunk->answers.size());
  EXPECT_EQ(warm.result->answer_chunk->next, cold.result->answer_chunk->next);
  // The hit's cursor is minted at delivery against the current epoch —
  // identical here, but stamped fresh rather than replayed from storage.
  EXPECT_EQ(warm.answer_cursor, cold.answer_cursor);

  // A different chunk geometry is a different cache key, not a false hit.
  ServeResponse other = SubmitAndWait(service, AnswersJob(q, db, 3));
  ASSERT_TRUE(other.result.ok()) << other.result.error();
  EXPECT_EQ(service.Stats().cache_hits, 1u);
  service.Shutdown(milliseconds(2'000));
}

TEST(AnswersServiceTest, BudgetPartialChunkIsNeverCached) {
  const Query q = Q(kStreamQuery);
  auto db = Db(StreamFacts(10, 0));
  bool saw_partial = false;
  for (uint64_t trip = 1; trip < 48 && !saw_partial; ++trip) {
    ServiceOptions options;
    options.workers = 1;
    options.cache_entries = 16;
    SolveService service(options);
    ServeJob faulty = AnswersJob(q, db, 64);
    faulty.faults.fail_after_probes = trip;
    ServeResponse first = SubmitAndWait(service, std::move(faulty));
    if (!first.result.ok() || !first.result->answer_chunk->exhausted) {
      service.Shutdown(milliseconds(1'000));
      continue;  // tripped before the first candidate, or never tripped
    }
    saw_partial = true;
    EXPECT_EQ(first.result->verdict, Verdict::kExhausted);
    EXPECT_FALSE(first.result->answer_chunk->done);
    ASSERT_FALSE(first.answer_cursor.empty())
        << "a partial chunk must still be resumable";

    // The identical request re-runs: the partial result was not cached.
    ServeResponse second = SubmitAndWait(service, AnswersJob(q, db, 64));
    ASSERT_TRUE(second.result.ok()) << second.result.error();
    EXPECT_EQ(service.Stats().cache_hits, 0u)
        << "an exhausted chunk must not satisfy a later identical request";
    EXPECT_EQ(second.result->verdict, Verdict::kCertain);
    EXPECT_TRUE(second.result->answer_chunk->done);

    // The clean re-run, by contrast, is cacheable.
    SubmitAndWait(service, AnswersJob(q, db, 64));
    EXPECT_EQ(service.Stats().cache_hits, 1u);
    service.Shutdown(milliseconds(1'000));
  }
  EXPECT_TRUE(saw_partial)
      << "no fail_after_probes value produced a partial chunk";
}

TEST(AnswersServiceTest, CursorFromAnotherEpochFailsTypedAtAdmission) {
  ServiceOptions options;
  options.workers = 1;
  SolveService service(options);
  const Query q = Q(kStreamQuery);
  auto db = Db(StreamFacts(6, 2));

  AnswerCursor stale;
  stale.position = 2;
  stale.query_hash = AnswerQueryHash(q, {"x"});
  stale.fingerprint = DbFingerprint{0xdeadbeefull, 0xfeedfaceull};
  Result<uint64_t> id = service.Submit(
      AnswersJob(q, db, 4, EncodeAnswerCursor(stale)),
      [](const ServeResponse&) { ADD_FAILURE() << "must fail at Submit"; });
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.code(), ErrorCode::kStaleCursor);
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.answers_stale_cursors, 1u);
  EXPECT_EQ(stats.shed, 1u);
  service.Shutdown(milliseconds(1'000));
}

TEST(AnswersServiceTest, CursorForAnotherQueryOrGarbageFailsParse) {
  ServiceOptions options;
  options.workers = 1;
  SolveService service(options);
  const Query q = Q(kStreamQuery);
  auto db = Db(StreamFacts(6, 2));

  // Intact cursor, right epoch, wrong query binding.
  AnswerCursor foreign;
  foreign.position = 1;
  foreign.query_hash = AnswerQueryHash(Q("R(x | y)"), {"x"});
  foreign.fingerprint = FingerprintDatabase(*db);
  Result<uint64_t> wrong_query = service.Submit(
      AnswersJob(q, db, 4, EncodeAnswerCursor(foreign)),
      [](const ServeResponse&) { ADD_FAILURE() << "must fail at Submit"; });
  ASSERT_FALSE(wrong_query.ok());
  EXPECT_EQ(wrong_query.code(), ErrorCode::kParse);

  // Hostile bytes.
  Result<uint64_t> garbage = service.Submit(
      AnswersJob(q, db, 4, "cqa2not-a-cursor"),
      [](const ServeResponse&) { ADD_FAILURE() << "must fail at Submit"; });
  ASSERT_FALSE(garbage.ok());
  EXPECT_EQ(garbage.code(), ErrorCode::kParse);
  EXPECT_EQ(service.Stats().answers_stale_cursors, 0u)
      << "parse failures are not staleness";
  service.Shutdown(milliseconds(1'000));
}

// ---------------------------------------------------------------------------
// Wire-level: streams over TCP

struct DaemonFixture {
  std::unique_ptr<SolveDaemon> daemon;
  NetClient client;

  explicit DaemonFixture(DaemonOptions options, const std::string& facts) {
    options.host = "127.0.0.1";
    options.port = 0;
    daemon = std::make_unique<SolveDaemon>(Db(facts), options);
    Result<bool> started = daemon->Start();
    EXPECT_TRUE(started.ok()) << (started.ok() ? "" : started.error());
    Result<bool> connected = client.Connect("127.0.0.1", daemon->port(), kIo);
    EXPECT_TRUE(connected.ok()) << (connected.ok() ? "" : connected.error());
  }

  Result<bool> Send(const std::string& payload) {
    return client.SendFrame(payload, kIo);
  }
};

std::string AnswersFrame(uint64_t id, const std::string& query,
                         const std::vector<std::string>& free_vars,
                         uint64_t max_chunk = 0,
                         const std::string& cursor = "",
                         uint64_t chaos_sleep_ms = 0) {
  JsonObjectBuilder b;
  b.Set("type", "answers").Set("id", id).Set("query", query);
  Json::Array vars;
  for (const std::string& v : free_vars) vars.push_back(Json::MakeString(v));
  b.Set("free", Json::MakeArray(std::move(vars)));
  if (max_chunk > 0) b.Set("max_chunk", max_chunk);
  if (!cursor.empty()) b.Set("cursor", cursor);
  if (chaos_sleep_ms > 0) b.Set("chaos_sleep_ms", chaos_sleep_ms);
  return b.Build().Serialize();
}

// Reads client frames for `id` until its terminal, appending tuples and
// remembering the last mid-stream cursor seen. Returns the terminal.
WireResponse DrainStream(NetClient& client, uint64_t id,
                         std::vector<std::vector<std::string>>* rows,
                         std::string* last_cursor = nullptr,
                         int* chunk_frames = nullptr) {
  for (int guard = 0; guard < 10'000; ++guard) {
    Result<WireResponse> r = client.ReadResponse(kIo);
    EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.error());
    if (!r.ok()) break;
    if (r->id != id) continue;
    if (r->type == "answer_chunk") {
      if (chunk_frames != nullptr) ++*chunk_frames;
      for (auto& row : r->tuples) rows->push_back(std::move(row));
      if (last_cursor != nullptr && !r->cursor.empty()) {
        *last_cursor = r->cursor;
      }
      continue;
    }
    return *r;
  }
  WireResponse dead;
  dead.type = "error";
  dead.message = "stream never terminated";
  return dead;
}

TEST(AnswersDaemonTest, StreamRoundTripOverTcp) {
  const std::string facts = StreamFacts(12, 3);
  DaemonFixture f(DaemonOptions{}, facts);
  const Query q = Q(kStreamQuery);
  const auto expected = OneShotRows(q, {"x"}, *Db(facts));
  ASSERT_FALSE(expected.empty());

  ASSERT_TRUE(f.Send(AnswersFrame(1, kStreamQuery, {"x"}, 3)).ok());
  std::vector<std::vector<std::string>> rows;
  int chunk_frames = 0;
  WireResponse done = DrainStream(f.client, 1, &rows, nullptr, &chunk_frames);
  ASSERT_EQ(done.type, "answer_done") << done.message;
  EXPECT_EQ(rows, expected);
  EXPECT_EQ(done.answers, expected.size());
  ASSERT_NE(done.raw.Find("candidates"), nullptr);
  EXPECT_EQ(done.raw.Find("candidates")->AsInt(), 12);
  EXPECT_EQ(done.chunks, static_cast<uint64_t>(chunk_frames));
  EXPECT_GE(chunk_frames, 2);

  EXPECT_TRUE(f.daemon->Shutdown(milliseconds(5'000)));
  DaemonStats stats = f.daemon->daemon_stats();
  EXPECT_EQ(stats.answers_streams, 1u);
  EXPECT_EQ(stats.answers_resumed, 0u);
  EXPECT_EQ(stats.answer_chunks_sent, static_cast<uint64_t>(chunk_frames));
  EXPECT_EQ(stats.answer_tuples_sent, expected.size());
}

TEST(AnswersDaemonTest, ResumeOnAFreshConnectionCompletesTheStream) {
  const std::string facts = StreamFacts(13, 4);
  DaemonFixture f(DaemonOptions{}, facts);
  const auto expected = OneShotRows(Q(kStreamQuery), {"x"}, *Db(facts));

  // Take the whole stream once to harvest a mid-stream cursor.
  ASSERT_TRUE(f.Send(AnswersFrame(1, kStreamQuery, {"x"}, 2)).ok());
  std::vector<std::vector<std::string>> head;
  Result<WireResponse> first = f.client.ReadResponse(kIo);
  ASSERT_TRUE(first.ok()) << first.error();
  ASSERT_EQ(first->type, "answer_chunk");
  for (auto& row : first->tuples) head.push_back(std::move(row));
  ASSERT_FALSE(first->cursor.empty());
  const std::string cursor = first->cursor;

  // Hang up mid-stream: the daemon drops the rest of stream 1 with the
  // connection. The cursor survives client-side.
  f.client.Close();

  NetClient resumed;
  ASSERT_TRUE(resumed.Connect("127.0.0.1", f.daemon->port(), kIo).ok());
  ASSERT_TRUE(resumed
                  .SendFrame(AnswersFrame(2, kStreamQuery, {"x"}, 2, cursor),
                             kIo)
                  .ok());
  std::vector<std::vector<std::string>> tail;
  WireResponse done = DrainStream(resumed, 2, &tail);
  ASSERT_EQ(done.type, "answer_done") << done.message;

  // Concatenated head + tail is the one-shot list: same multiset, same
  // order, no duplicates and no holes across the disconnect.
  std::vector<std::vector<std::string>> joined = head;
  joined.insert(joined.end(), tail.begin(), tail.end());
  EXPECT_EQ(joined, expected);

  EXPECT_TRUE(f.daemon->Shutdown(milliseconds(5'000)));
  DaemonStats stats = f.daemon->daemon_stats();
  EXPECT_EQ(stats.answers_streams, 2u);
  EXPECT_EQ(stats.answers_resumed, 1u);
}

std::string DeltaFrame(uint64_t id, const std::string& delta_id,
                       const std::vector<DeltaOp>& ops) {
  JsonObjectBuilder b;
  b.Set("type", "apply_delta").Set("id", id).Set("delta_id", delta_id);
  b.Set("ops", EncodeDeltaOps(ops));
  return b.Build().Serialize();
}

TEST(AnswersDaemonTest, EpochFlipMakesOldCursorsStaleWithATypedError) {
  const std::string facts = StreamFacts(10, 3);
  DaemonFixture f(DaemonOptions{}, facts);

  ASSERT_TRUE(f.Send(AnswersFrame(1, kStreamQuery, {"x"}, 2)).ok());
  std::vector<std::vector<std::string>> rows;
  std::string cursor;
  WireResponse done = DrainStream(f.client, 1, &rows, &cursor);
  ASSERT_EQ(done.type, "answer_done") << done.message;
  ASSERT_FALSE(cursor.empty()) << "fixture must produce a mid-stream cursor";

  // Flip the epoch: any applied delta re-fingerprints the database.
  DeltaOp insert;
  insert.insert = true;
  insert.relation = "R";
  insert.values = {"zz", "zz"};
  ASSERT_TRUE(f.Send(DeltaFrame(2, "answers-d1", {insert})).ok());
  Result<WireResponse> ack = f.client.ReadResponse(kIo);
  ASSERT_TRUE(ack.ok()) << ack.error();
  ASSERT_EQ(ack->type, "delta_ack") << ack->raw.Serialize();

  // The pre-delta cursor names the dead epoch: typed refusal, no stream.
  ASSERT_TRUE(f.Send(AnswersFrame(3, kStreamQuery, {"x"}, 2, cursor)).ok());
  Result<WireResponse> stale = f.client.ReadResponse(kIo);
  ASSERT_TRUE(stale.ok()) << stale.error();
  EXPECT_EQ(stale->type, "error");
  EXPECT_EQ(stale->code, "stale-cursor");
  EXPECT_FALSE(stale->fatal);

  // Restarting from zero works and reflects the delta (one more R key).
  ASSERT_TRUE(f.Send(AnswersFrame(4, kStreamQuery, {"x"}, 4)).ok());
  std::vector<std::vector<std::string>> fresh;
  WireResponse fresh_done = DrainStream(f.client, 4, &fresh);
  ASSERT_EQ(fresh_done.type, "answer_done") << fresh_done.message;
  ASSERT_NE(fresh_done.raw.Find("candidates"), nullptr);
  EXPECT_EQ(fresh_done.raw.Find("candidates")->AsInt(), 11);
  ASSERT_FALSE(fresh.empty());
  EXPECT_EQ(fresh.back(), std::vector<std::string>{"zz"});

  EXPECT_TRUE(f.daemon->Shutdown(milliseconds(5'000)));
  EXPECT_EQ(f.daemon->daemon_stats().answers_stale_cursors, 1u);
}

TEST(AnswersDaemonTest, CancelMidStreamEmitsExactlyOneTerminal) {
  DaemonOptions options;
  options.service.workers = 1;
  DaemonFixture f(options, StreamFacts(40, 0));

  // One answer per chunk with a per-chunk chaos sleep: a 40-chunk stream
  // that takes seconds end to end, leaving a wide cancellation window.
  ASSERT_TRUE(
      f.Send(AnswersFrame(1, kStreamQuery, {"x"}, 1, "", /*chaos=*/100))
          .ok());
  Result<WireResponse> first = f.client.ReadResponse(kIo);
  ASSERT_TRUE(first.ok()) << first.error();
  ASSERT_EQ(first->type, "answer_chunk");
  ASSERT_TRUE(f.Send(R"({"type":"cancel","id":2,"target":1})").ok());

  bool saw_ack = false;
  int terminals = 0;
  std::string terminal_type;
  for (int guard = 0; guard < 100 && (!saw_ack || terminals == 0); ++guard) {
    Result<WireResponse> r = f.client.ReadResponse(kIo);
    ASSERT_TRUE(r.ok()) << r.error();
    if (r->type == "cancel_ack") {
      saw_ack = true;
      EXPECT_TRUE(r->found);
      continue;
    }
    if (r->id != 1) continue;
    if (r->type == "answer_chunk") continue;  // frames already in flight
    ++terminals;
    terminal_type = r->type;
  }
  EXPECT_EQ(terminals, 1);
  EXPECT_EQ(terminal_type, "cancelled");

  // Exactly once: after the terminal, the stream is gone. A health probe
  // must be the very next frame — no stray chunk or second terminal.
  ASSERT_TRUE(f.Send(R"({"type":"health","id":3})").ok());
  Result<WireResponse> probe = f.client.ReadResponse(kIo);
  ASSERT_TRUE(probe.ok()) << probe.error();
  EXPECT_EQ(probe->type, "health");
  EXPECT_TRUE(f.daemon->Shutdown(milliseconds(5'000)));
}

// The chaos property the chunk-per-job design buys: between chunks the
// stream holds no worker, so with a single worker a deliberately slow
// 30-chunk stream (100 ms per chunk ≈ 3 s total) cannot starve a solve
// submitted mid-stream. If the stream pinned the worker, the solve's
// terminal would wait out the whole stream and trip the bound below.
TEST(AnswersChaosTest, SlowStreamNeverPinsTheOnlyWorker) {
  DaemonOptions options;
  options.service.workers = 1;
  DaemonFixture f(options, StreamFacts(30, 0));

  ASSERT_TRUE(
      f.Send(AnswersFrame(1, kStreamQuery, {"x"}, 1, "", /*chaos=*/100))
          .ok());
  Result<WireResponse> first = f.client.ReadResponse(kIo);
  ASSERT_TRUE(first.ok()) << first.error();
  ASSERT_EQ(first->type, "answer_chunk");

  // A second client's solve lands while the stream has ~29 slow chunks
  // left. It must complete well before the stream does.
  NetClient prober;
  ASSERT_TRUE(prober.Connect("127.0.0.1", f.daemon->port(), kIo).ok());
  const auto solve_start = std::chrono::steady_clock::now();
  JsonObjectBuilder solve;
  solve.Set("type", "solve").Set("id", uint64_t{7}).Set("query", "R(k01 | y)");
  ASSERT_TRUE(prober.SendFrame(solve.Build().Serialize(), kIo).ok());
  Result<WireResponse> verdict = prober.WaitTerminal(7, kIo);
  ASSERT_TRUE(verdict.ok()) << verdict.error();
  EXPECT_EQ(verdict->type, "result");
  EXPECT_EQ(verdict->verdict, "certain");
  const auto solve_latency = std::chrono::steady_clock::now() - solve_start;
  EXPECT_LT(solve_latency, milliseconds(1'500))
      << "the solve waited on the slow stream: a stream is pinning workers";

  // The slow consumer still gets its complete stream afterwards (the
  // first chunk was already read above to anchor the race).
  std::vector<std::vector<std::string>> rows = first->tuples;
  WireResponse done = DrainStream(f.client, 1, &rows);
  ASSERT_EQ(done.type, "answer_done") << done.message;
  EXPECT_EQ(rows.size(), 30u);
  EXPECT_TRUE(f.daemon->Shutdown(milliseconds(5'000)));
}

}  // namespace
}  // namespace cqa
