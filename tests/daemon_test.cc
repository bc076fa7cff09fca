// Unit tests for the network daemon stack: the JSON codec, the newline
// framing, the wire protocol, and SolveDaemon round trips over real TCP
// sockets on an ephemeral loopback port. Adversarial multi-client runs
// live in daemon_chaos_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <climits>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cqa/base/signals.h"
#include "cqa/delta/delta.h"
#include "cqa/query/parser.h"
#include "cqa/serve/net/client.h"
#include "cqa/serve/net/daemon.h"
#include "cqa/serve/net/framing.h"
#include "cqa/serve/net/json.h"
#include "cqa/serve/net/protocol.h"

namespace cqa {
namespace {

using std::chrono::milliseconds;

constexpr milliseconds kIo{10'000};

// ---------------------------------------------------------------------------
// Json

TEST(JsonTest, ParsesScalarsObjectsAndArrays) {
  Result<Json> v = Json::Parse(
      R"({"a":1,"b":-2.5,"c":"x\n\"y\"","d":[true,false,null],"e":{}})");
  ASSERT_TRUE(v.ok()) << v.error();
  EXPECT_EQ(v->Find("a")->AsInt(), 1);
  EXPECT_DOUBLE_EQ(v->Find("b")->AsDouble(), -2.5);
  EXPECT_EQ(v->Find("c")->AsString(), "x\n\"y\"");
  ASSERT_TRUE(v->Find("d")->is_array());
  EXPECT_EQ(v->Find("d")->AsArray().size(), 3u);
  EXPECT_TRUE(v->Find("d")->AsArray()[2].is_null());
  EXPECT_TRUE(v->Find("e")->is_object());
  EXPECT_EQ(v->Find("missing"), nullptr);
}

TEST(JsonTest, SerializationIsDeterministicAndRoundTrips) {
  Json obj = JsonObjectBuilder()
                 .Set("zeta", uint64_t{7})
                 .Set("alpha", "s")
                 .Set("mid", true)
                 .Build();
  std::string text = obj.Serialize();
  // Keys sorted, compact.
  EXPECT_EQ(text, R"({"alpha":"s","mid":true,"zeta":7})");
  Result<Json> back = Json::Parse(text);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->Serialize(), text);
}

TEST(JsonTest, EscapesControlCharactersAndUnicode) {
  Json s = Json::MakeString(std::string("a\x01") + "\t\"\\");
  std::string text = s.Serialize();
  Result<Json> back = Json::Parse(text);
  ASSERT_TRUE(back.ok()) << text;
  EXPECT_EQ(back->AsString(), s.AsString());
  // \uXXXX escapes decode to UTF-8.
  Result<Json> uni = Json::Parse(R"("\u00e9\u0041")");
  ASSERT_TRUE(uni.ok());
  EXPECT_EQ(uni->AsString(), "\xc3\xa9"
                             "A");
}

TEST(JsonTest, MalformedInputsFailWithTypedParseErrors) {
  const char* bad[] = {
      "",     "{",        "}",        "{\"a\":}", "[1,]",  "tru",
      "nul",  "\"unterminated", "{\"a\" 1}",  "1 2",   "{\"a\":1}x",
      "\x01", "-",        "1e",       "\"\\q\"",
  };
  for (const char* text : bad) {
    Result<Json> r = Json::Parse(text);
    ASSERT_FALSE(r.ok()) << "accepted: " << text;
    EXPECT_EQ(r.code(), ErrorCode::kParse) << text;
  }
}

TEST(JsonTest, DepthLimitStopsRecursion) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  Result<Json> r = Json::Parse(deep, /*max_depth=*/64);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), ErrorCode::kParse);
  // Within the limit it parses fine.
  EXPECT_TRUE(Json::Parse(std::string(10, '[') + std::string(10, ']')).ok());
}

TEST(JsonTest, IntegersSurviveExactlyDoublesWhenNot) {
  Result<Json> i = Json::Parse("9007199254740993");  // not double-exact
  ASSERT_TRUE(i.ok());
  ASSERT_TRUE(i->is_int());
  EXPECT_EQ(i->AsInt(), 9007199254740993ll);
  Result<Json> d = Json::Parse("1.25");
  ASSERT_TRUE(d.ok());
  EXPECT_FALSE(d->is_int());
  EXPECT_DOUBLE_EQ(d->AsDouble(), 1.25);
}

// ---------------------------------------------------------------------------
// Framing

TEST(FramingTest, ReassemblesFramesAcrossArbitrarySplits) {
  const std::string stream = "alpha\nbeta\r\n\n\ngamma\n";
  // Feed one byte at a time: framing must not depend on chunk boundaries.
  FrameDecoder decoder(64);
  std::vector<std::string> frames;
  for (char c : stream) {
    ASSERT_TRUE(decoder.Feed(&c, 1, &frames));
  }
  ASSERT_EQ(frames.size(), 3u) << "empty lines are skipped";
  EXPECT_EQ(frames[0], "alpha");
  EXPECT_EQ(frames[1], "beta") << "CR of CRLF is stripped";
  EXPECT_EQ(frames[2], "gamma");
  EXPECT_EQ(decoder.pending_bytes(), 0u);
}

TEST(FramingTest, OversizedFrameLatchesOverflow) {
  FrameDecoder decoder(8);
  std::vector<std::string> frames;
  EXPECT_TRUE(decoder.Feed("ok\n", 3, &frames));
  std::string big = "0123456789abcdef";
  EXPECT_FALSE(decoder.Feed(big.data(), big.size(), &frames));
  EXPECT_TRUE(decoder.overflowed());
  // Latched: even a newline cannot resynchronize.
  EXPECT_FALSE(decoder.Feed("\nx\n", 3, &frames));
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0], "ok");
}

TEST(FramingTest, EncodeFrameNeutralizesEmbeddedNewlines) {
  EXPECT_EQ(EncodeFrame("a"), "a\n");
  EXPECT_EQ(EncodeFrame("a\nb"), "a b\n");
}

// ---------------------------------------------------------------------------
// Protocol

TEST(ProtocolTest, DecodesSolveWithAllOptions) {
  Result<WireRequest> r = DecodeRequest(
      R"js({"type":"solve","id":42,"query":"R(x | y)","timeout_ms":250,)js"
      R"js("max_steps":1000,"method":"backtracking","degrade_to_sampling":false,)js"
      R"js("max_samples":99,"deadline_from_submit":true,"chaos_sleep_ms":5})js");
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r->type, WireRequestType::kSolve);
  EXPECT_EQ(r->id, 42u);
  EXPECT_EQ(r->query, "R(x | y)");
  ASSERT_TRUE(r->spec.timeout.has_value());
  EXPECT_EQ(r->spec.timeout->count(), 250);
  EXPECT_EQ(r->spec.max_steps, 1000u);
  EXPECT_EQ(r->spec.method, SolverMethod::kBacktracking);
  EXPECT_FALSE(r->spec.degrade_to_sampling);
  EXPECT_EQ(r->spec.max_samples, 99u);
  EXPECT_TRUE(r->spec.deadline_from_submit);
  EXPECT_EQ(r->spec.chaos_sleep.count(), 5);
}

// Every execution field of a job spec, compared one by one.
void ExpectSameSpec(const JobSpec& got, const JobSpec& want,
                    const std::string& where) {
  EXPECT_EQ(got.timeout.has_value(), want.timeout.has_value()) << where;
  if (got.timeout.has_value() && want.timeout.has_value()) {
    EXPECT_EQ(got.timeout->count(), want.timeout->count()) << where;
  }
  EXPECT_EQ(got.deadline_from_submit, want.deadline_from_submit) << where;
  EXPECT_EQ(got.max_steps, want.max_steps) << where;
  EXPECT_EQ(got.method, want.method) << where;
  EXPECT_EQ(got.degrade_to_sampling, want.degrade_to_sampling) << where;
  EXPECT_EQ(got.max_samples, want.max_samples) << where;
  EXPECT_EQ(got.parallelism, want.parallelism) << where;
  EXPECT_EQ(got.isolation, want.isolation) << where;
  EXPECT_EQ(got.cache, want.cache) << where;
  EXPECT_EQ(got.faults.fail_after_probes, want.faults.fail_after_probes)
      << where;
  EXPECT_EQ(got.faults.crash_after_probes, want.faults.crash_after_probes)
      << where;
  EXPECT_EQ(got.faults.hog_mb_per_probe, want.faults.hog_mb_per_probe)
      << where;
  EXPECT_EQ(got.faults.wedge_after_probes, want.faults.wedge_after_probes)
      << where;
  EXPECT_EQ(got.fault_attempts, want.fault_attempts) << where;
  EXPECT_EQ(got.chaos_sleep.count(), want.chaos_sleep.count()) << where;
}

TEST(ProtocolTest, ExecutionFieldsReachTheJob) {
  // Each wire key alone, then all of them at once, on both frame types:
  // the decoded spec, carried into a ServeJob, must hold exactly what the
  // daemon has always set on the job for that key (clamps included).
  struct Case {
    std::string keys;  // JSON members appended to the frame
    void (*expect)(JobSpec*);
  };
  const Case cases[] = {
      {"", [](JobSpec*) {}},
      {R"("timeout_ms":250)",
       [](JobSpec* s) { s->timeout = milliseconds(250); }},
      {R"("timeout_ms":0)", [](JobSpec* s) { s->timeout = milliseconds(0); }},
      {R"("deadline_from_submit":true)",
       [](JobSpec* s) { s->deadline_from_submit = true; }},
      {R"("max_steps":1000)", [](JobSpec* s) { s->max_steps = 1000; }},
      {R"("method":"backtracking")",
       [](JobSpec* s) { s->method = SolverMethod::kBacktracking; }},
      {R"("degrade_to_sampling":false)",
       [](JobSpec* s) { s->degrade_to_sampling = false; }},
      {R"("max_samples":99)", [](JobSpec* s) { s->max_samples = 99; }},
      {R"("parallelism":8)", [](JobSpec* s) { s->parallelism = 8; }},
      {R"("parallelism":1000)", [](JobSpec* s) { s->parallelism = 64; }},
      {R"("isolation":"fork")",
       [](JobSpec* s) { s->isolation = IsolationMode::kFork; }},
      {R"("isolation":"inproc")",
       [](JobSpec* s) { s->isolation = IsolationMode::kInproc; }},
      {R"("cache":"bypass")",
       [](JobSpec* s) { s->cache = CachePolicy::kBypass; }},
      {R"("cache":"default")", [](JobSpec*) {}},
      {R"("fail_after_probes":3)",
       [](JobSpec* s) { s->faults.fail_after_probes = 3; }},
      {R"("crash_after_probes":5)",
       [](JobSpec* s) { s->faults.crash_after_probes = 5; }},
      {R"("hog_mb_per_probe":2)",
       [](JobSpec* s) { s->faults.hog_mb_per_probe = 2; }},
      {R"("wedge_after_probes":7)",
       [](JobSpec* s) { s->faults.wedge_after_probes = 7; }},
      {R"("fault_attempts":2)", [](JobSpec* s) { s->fault_attempts = 2; }},
      {R"("fault_attempts":5000000000)",
       [](JobSpec* s) { s->fault_attempts = INT_MAX; }},
      {R"("chaos_sleep_ms":5)",
       [](JobSpec* s) { s->chaos_sleep = milliseconds(5); }},
      {R"("timeout_ms":40,"deadline_from_submit":true,"max_steps":9,)"
       R"("method":"naive","degrade_to_sampling":false,"max_samples":7,)"
       R"("parallelism":65,"isolation":"fork","cache":"bypass",)"
       R"("fail_after_probes":1,"crash_after_probes":2,)"
       R"("hog_mb_per_probe":3,"wedge_after_probes":4,)"
       R"("fault_attempts":6,"chaos_sleep_ms":8)",
       [](JobSpec* s) {
         s->timeout = milliseconds(40);
         s->deadline_from_submit = true;
         s->max_steps = 9;
         s->method = SolverMethod::kNaive;
         s->degrade_to_sampling = false;
         s->max_samples = 7;
         s->parallelism = 64;
         s->isolation = IsolationMode::kFork;
         s->cache = CachePolicy::kBypass;
         s->faults = FaultPlan{1, 2, 3, 4};
         s->fault_attempts = 6;
         s->chaos_sleep = milliseconds(8);
       }},
  };
  for (const char* head :
       {R"js({"type":"solve","id":1,"query":"R(x | y)")js",
        R"js({"type":"answers","id":1,"query":"R(x | y)","free":["x"])js"}) {
    for (const Case& c : cases) {
      const std::string frame =
          std::string(head) + (c.keys.empty() ? "" : ",") + c.keys + "}";
      Result<WireRequest> r = DecodeRequest(frame);
      ASSERT_TRUE(r.ok()) << frame << ": " << r.error();
      JobSpec want;
      c.expect(&want);
      ServeJob job(ParseQuery("R(x | y)").value(), nullptr, r->spec);
      ExpectSameSpec(job, want, frame);
    }
  }
}

TEST(ProtocolTest, TypedErrorsDistinguishMalformedFromUnsupported) {
  struct Case {
    const char* frame;
    ErrorCode code;
  } cases[] = {
      {"not json at all", ErrorCode::kParse},
      {"[1,2,3]", ErrorCode::kParse},
      {R"({"id":1})", ErrorCode::kParse},                       // no type
      {R"({"type":"solve","id":1})", ErrorCode::kParse},        // no query
      {R"js({"type":"solve","query":"R(x | y)"})js", ErrorCode::kParse},  // no id
      {R"({"type":"cancel","id":1})", ErrorCode::kParse},       // no target
      {R"({"type":"teleport","id":1})", ErrorCode::kUnsupported},
      {R"({"type":"solve","id":1,"query":"q","method":"quantum"})",
       ErrorCode::kUnsupported},
  };
  for (const Case& c : cases) {
    Result<WireRequest> r = DecodeRequest(c.frame);
    ASSERT_FALSE(r.ok()) << c.frame;
    EXPECT_EQ(r.code(), c.code) << c.frame;
  }
}

TEST(ProtocolTest, ResponseFramesRoundTripThroughTheClientDecoder) {
  Result<WireResponse> err = DecodeResponse(EncodeErrorFrame(
      7, ErrorCode::kOverloaded, "queue full", /*fatal=*/false));
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->type, "error");
  EXPECT_EQ(err->id, 7u);
  EXPECT_EQ(err->code, "overloaded");
  EXPECT_FALSE(err->fatal);
  EXPECT_TRUE(IsTerminalResponseType(err->type));

  Result<WireResponse> cancelled =
      DecodeResponse(EncodeCancelledFrame(8, "cancelled"));
  ASSERT_TRUE(cancelled.ok());
  EXPECT_EQ(cancelled->type, "cancelled");
  EXPECT_EQ(cancelled->id, 8u);

  Result<WireResponse> health = DecodeResponse(EncodeHealthFrame(9, true));
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->status, "draining");
  EXPECT_FALSE(IsTerminalResponseType(health->type));

  Result<WireResponse> ack = DecodeResponse(EncodeCancelAckFrame(1, 5, true));
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack->type, "cancel_ack");
  EXPECT_EQ(ack->target, 5u);
  EXPECT_TRUE(ack->found);
}

TEST(ProtocolTest, SolverMethodNamesMatchTheCliSpellings) {
  EXPECT_EQ(*ParseSolverMethod(""), SolverMethod::kAuto);
  EXPECT_EQ(*ParseSolverMethod("auto"), SolverMethod::kAuto);
  EXPECT_EQ(*ParseSolverMethod("rewriting"), SolverMethod::kRewriting);
  EXPECT_EQ(*ParseSolverMethod("fo-rewriting"), SolverMethod::kRewriting);
  EXPECT_EQ(*ParseSolverMethod("algorithm1"), SolverMethod::kAlgorithm1);
  EXPECT_EQ(*ParseSolverMethod("backtracking"), SolverMethod::kBacktracking);
  EXPECT_EQ(*ParseSolverMethod("naive"), SolverMethod::kNaive);
  EXPECT_EQ(*ParseSolverMethod("matching-q1"), SolverMethod::kMatchingQ1);
  EXPECT_EQ(*ParseSolverMethod("sampling"), SolverMethod::kSampling);
  Result<SolverMethod> unknown = ParseSolverMethod("quantum");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.code(), ErrorCode::kUnsupported);
}

// ---------------------------------------------------------------------------
// SolveDaemon round trips

std::shared_ptr<const Database> Db(const char* text) {
  Result<Database> db = Database::FromText(text);
  EXPECT_TRUE(db.ok()) << (db.ok() ? "" : db.error());
  return std::make_shared<const Database>(std::move(db.value()));
}

// A daemon bound to an ephemeral loopback port, plus a connected client.
struct DaemonFixture {
  std::unique_ptr<SolveDaemon> daemon;
  NetClient client;

  explicit DaemonFixture(DaemonOptions options = {},
                         const char* facts = "R(a | b), R(a | c)\nS(b | a)") {
    options.host = "127.0.0.1";
    options.port = 0;
    daemon = std::make_unique<SolveDaemon>(Db(facts), options);
    Result<bool> started = daemon->Start();
    EXPECT_TRUE(started.ok()) << (started.ok() ? "" : started.error());
    Result<bool> connected =
        client.Connect("127.0.0.1", daemon->port(), kIo);
    EXPECT_TRUE(connected.ok()) << (connected.ok() ? "" : connected.error());
  }

  Result<bool> Send(const std::string& payload) {
    return client.SendFrame(payload, kIo);
  }
};

std::string SolveFrame(uint64_t id, const std::string& query,
                       uint64_t chaos_sleep_ms = 0) {
  JsonObjectBuilder b;
  b.Set("type", "solve").Set("id", id).Set("query", query);
  if (chaos_sleep_ms > 0) b.Set("chaos_sleep_ms", chaos_sleep_ms);
  return b.Build().Serialize();
}

TEST(DaemonTest, SolveRoundTripOverTcp) {
  DaemonFixture f;
  ASSERT_TRUE(f.Send(SolveFrame(1, "R(x | y)")).ok());
  ASSERT_TRUE(f.Send(SolveFrame(2, "R(x | y), not S(y | x)")).ok());
  Result<WireResponse> first = f.client.WaitTerminal(1, kIo);
  ASSERT_TRUE(first.ok()) << first.error();
  EXPECT_EQ(first->type, "result");
  EXPECT_EQ(first->verdict, "certain");
  Result<WireResponse> second = f.client.WaitTerminal(2, kIo);
  ASSERT_TRUE(second.ok()) << second.error();
  EXPECT_EQ(second->verdict, "not-certain");
  EXPECT_TRUE(f.daemon->Shutdown(milliseconds(5'000)));
  DaemonStats stats = f.daemon->daemon_stats();
  EXPECT_EQ(stats.connections_opened, 1u);
  EXPECT_EQ(stats.frames_received, 2u);
  EXPECT_EQ(stats.solves_admitted, 2u);
  EXPECT_EQ(stats.frames_garbage, 0u);
}

TEST(DaemonTest, HealthAndStatsFrames) {
  DaemonFixture f;
  ASSERT_TRUE(
      f.Send(R"({"type":"health","id":1})").ok());
  Result<WireResponse> health = f.client.ReadResponse(kIo);
  ASSERT_TRUE(health.ok()) << health.error();
  EXPECT_EQ(health->type, "health");
  EXPECT_EQ(health->status, "serving");

  ASSERT_TRUE(f.Send(SolveFrame(2, "R(x | y)")).ok());
  ASSERT_TRUE(f.client.WaitTerminal(2, kIo).ok());
  ASSERT_TRUE(f.Send(R"({"type":"stats","id":3})").ok());
  Result<WireResponse> stats = f.client.ReadResponse(kIo);
  ASSERT_TRUE(stats.ok()) << stats.error();
  EXPECT_EQ(stats->type, "stats");
  const Json* service = stats->raw.Find("service");
  ASSERT_NE(service, nullptr);
  EXPECT_EQ(service->Find("completed")->AsInt(), 1);
  const Json* daemon = stats->raw.Find("daemon");
  ASSERT_NE(daemon, nullptr);
  EXPECT_EQ(daemon->Find("connections_active")->AsInt(), 1);
  EXPECT_GE(daemon->Find("frames_received")->AsInt(), 3);
}

TEST(DaemonTest, InprocCrashWedgeAndHogAreRefusedAndTheDaemonServes) {
  // Regression: one client frame asking for an injected crash in-process
  // used to segfault the whole daemon. A fault plan that can crash, wedge
  // or hog its thread runs only under fork isolation; in-process (an
  // explicit "inproc", or any answers frame) it ends as a typed
  // unsupported error and the daemon keeps serving.
  DaemonFixture f;
  const std::string frames[] = {
      R"js({"type":"solve","id":1,"query":"R(x | y), not S(y | x)",)js"
      R"js("crash_after_probes":1,"isolation":"inproc",)js"
      R"js("method":"backtracking","cache":"bypass"})js",
      R"js({"type":"solve","id":2,"query":"R(x | y), not S(y | x)",)js"
      R"js("wedge_after_probes":1,"isolation":"inproc",)js"
      R"js("method":"backtracking","cache":"bypass"})js",
      R"js({"type":"solve","id":3,"query":"R(x | y), not S(y | x)",)js"
      R"js("hog_mb_per_probe":1,"method":"backtracking"})js",
      R"js({"type":"answers","id":4,"query":"R(x | y)","free":["x"],)js"
      R"js("crash_after_probes":1,"isolation":"fork"})js",
  };
  uint64_t id = 0;
  for (const std::string& frame : frames) {
    ++id;
    ASSERT_TRUE(f.Send(frame).ok());
    Result<WireResponse> err = f.client.WaitTerminal(id, kIo);
    ASSERT_TRUE(err.ok()) << frame << ": " << err.error();
    EXPECT_EQ(err->type, "error") << frame;
    EXPECT_EQ(err->code, "unsupported") << frame;
    EXPECT_NE(err->message.find("fork isolation"), std::string::npos)
        << err->message;
    ASSERT_TRUE(f.Send(R"({"type":"health","id":100})").ok());
    Result<WireResponse> health = f.client.ReadResponse(kIo);
    ASSERT_TRUE(health.ok()) << health.error();
    EXPECT_EQ(health->type, "health");
    EXPECT_EQ(health->status, "serving");
  }
  // The same worker pool still answers a clean solve.
  ASSERT_TRUE(f.Send(SolveFrame(5, "R(x | y)")).ok());
  Result<WireResponse> ok = f.client.WaitTerminal(5, kIo);
  ASSERT_TRUE(ok.ok()) << ok.error();
  EXPECT_EQ(ok->verdict, "certain");
  EXPECT_EQ(f.daemon->service_stats().failed, 4u);
  EXPECT_EQ(f.daemon->service_stats().retries, 0u);
}

TEST(DaemonTest, MalformedFrameFailsTheFrameNotTheConnection) {
  DaemonFixture f;
  ASSERT_TRUE(f.Send("{this is not json").ok());
  Result<WireResponse> err = f.client.ReadResponse(kIo);
  ASSERT_TRUE(err.ok()) << err.error();
  EXPECT_EQ(err->type, "error");
  EXPECT_EQ(err->code, "parse");
  EXPECT_FALSE(err->fatal);
  // The connection survives: a valid request still gets served.
  ASSERT_TRUE(f.Send(SolveFrame(5, "R(x | y)")).ok());
  Result<WireResponse> ok = f.client.WaitTerminal(5, kIo);
  ASSERT_TRUE(ok.ok()) << ok.error();
  EXPECT_EQ(ok->verdict, "certain");
  EXPECT_EQ(f.daemon->daemon_stats().frames_garbage, 1u);
}

TEST(DaemonTest, ConsecutiveGarbageClosesTheConnection) {
  DaemonOptions options;
  options.connection.max_consecutive_garbage = 3;
  DaemonFixture f(options);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(f.Send("{garbage").ok());
  // Two non-fatal errors, then a fatal one, then EOF.
  for (int i = 0; i < 3; ++i) {
    Result<WireResponse> err = f.client.ReadResponse(kIo);
    ASSERT_TRUE(err.ok()) << err.error();
    EXPECT_EQ(err->type, "error");
    EXPECT_EQ(err->fatal, i == 2) << "only the last garbage frame is fatal";
  }
  Result<WireResponse> eof = f.client.ReadResponse(kIo);
  ASSERT_FALSE(eof.ok()) << "connection must be closed after the limit";
  // Daemon accounted the close.
  for (int i = 0; i < 1000 &&
                  f.daemon->daemon_stats().connections_closed_garbage == 0;
       ++i) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  EXPECT_EQ(f.daemon->daemon_stats().connections_closed_garbage, 1u);
}

TEST(DaemonTest, OversizedFrameGetsFatalErrorAndClose) {
  DaemonOptions options;
  options.connection.max_frame_bytes = 128;
  DaemonFixture f(options);
  std::string big(1024, 'x');
  ASSERT_TRUE(f.client.SendRaw(big, kIo).ok());  // no newline: one huge frame
  Result<WireResponse> err = f.client.ReadResponse(kIo);
  ASSERT_TRUE(err.ok()) << err.error();
  EXPECT_EQ(err->type, "error");
  EXPECT_EQ(err->code, "parse");
  EXPECT_TRUE(err->fatal);
  Result<WireResponse> eof = f.client.ReadResponse(kIo);
  EXPECT_FALSE(eof.ok());
}

TEST(DaemonTest, PerConnectionInflightCapSendsTypedOverload) {
  DaemonOptions options;
  options.connection.max_inflight = 2;
  options.service.workers = 1;
  DaemonFixture f(options);
  // Two slow solves fill the cap; the third is rejected immediately.
  ASSERT_TRUE(f.Send(SolveFrame(1, "R(x | y)", /*chaos_sleep_ms=*/300)).ok());
  ASSERT_TRUE(f.Send(SolveFrame(2, "R(x | y)", /*chaos_sleep_ms=*/300)).ok());
  ASSERT_TRUE(f.Send(SolveFrame(3, "R(x | y)")).ok());
  Result<WireResponse> rejected = f.client.WaitTerminal(3, kIo);
  ASSERT_TRUE(rejected.ok()) << rejected.error();
  EXPECT_EQ(rejected->type, "error");
  EXPECT_EQ(rejected->code, "overloaded");
  // The two admitted solves still complete.
  EXPECT_TRUE(f.client.WaitTerminal(1, kIo).ok());
  EXPECT_TRUE(f.client.WaitTerminal(2, kIo).ok());
  EXPECT_EQ(f.daemon->daemon_stats().solves_rejected_inflight_cap, 1u);
}

TEST(DaemonTest, CancelFrameCancelsAndAcks) {
  DaemonOptions options;
  options.service.workers = 1;
  DaemonFixture f(options);
  ASSERT_TRUE(
      f.Send(SolveFrame(1, "R(x | y)", /*chaos_sleep_ms=*/60'000)).ok());
  ASSERT_TRUE(f.Send(R"({"type":"cancel","id":2,"target":1})").ok());
  // Responses: cancel_ack (id 2) and the terminal cancelled frame (id 1),
  // in either order.
  bool saw_ack = false, saw_cancelled = false;
  for (int i = 0; i < 2; ++i) {
    Result<WireResponse> r = f.client.ReadResponse(kIo);
    ASSERT_TRUE(r.ok()) << r.error();
    if (r->type == "cancel_ack") {
      EXPECT_EQ(r->id, 2u);
      EXPECT_EQ(r->target, 1u);
      EXPECT_TRUE(r->found);
      saw_ack = true;
    } else {
      EXPECT_EQ(r->type, "cancelled");
      EXPECT_EQ(r->id, 1u);
      saw_cancelled = true;
    }
  }
  EXPECT_TRUE(saw_ack);
  EXPECT_TRUE(saw_cancelled);
  // Cancelling a finished id acks found=false.
  ASSERT_TRUE(f.Send(R"({"type":"cancel","id":3,"target":1})").ok());
  Result<WireResponse> ack = f.client.ReadResponse(kIo);
  ASSERT_TRUE(ack.ok());
  EXPECT_FALSE(ack->found);
}

TEST(DaemonTest, DuplicateInflightIdIsRejected) {
  DaemonOptions options;
  options.service.workers = 1;
  DaemonFixture f(options);
  ASSERT_TRUE(
      f.Send(SolveFrame(1, "R(x | y)", /*chaos_sleep_ms=*/60'000)).ok());
  ASSERT_TRUE(f.Send(SolveFrame(1, "R(x | y)")).ok());
  Result<WireResponse> dup = f.client.ReadResponse(kIo);
  ASSERT_TRUE(dup.ok()) << dup.error();
  EXPECT_EQ(dup->type, "error");
  EXPECT_EQ(dup->code, "parse");
  ASSERT_TRUE(f.Send(R"({"type":"cancel","id":2,"target":1})").ok());
  EXPECT_TRUE(f.client.WaitTerminal(1, kIo).ok());
}

TEST(DaemonTest, UnparsableQueryIsARequestLevelErrorNotGarbage) {
  DaemonFixture f;
  ASSERT_TRUE(f.Send(SolveFrame(1, "this is not a query ((")).ok());
  Result<WireResponse> err = f.client.WaitTerminal(1, kIo);
  ASSERT_TRUE(err.ok()) << err.error();
  EXPECT_EQ(err->type, "error");
  EXPECT_EQ(err->code, "parse");
  EXPECT_EQ(f.daemon->daemon_stats().frames_garbage, 0u)
      << "a well-formed frame with a bad query is not wire garbage";
}

TEST(DaemonTest, DrainingDaemonRejectsNewSolvesButAnswersHealth) {
  DaemonOptions options;
  options.service.workers = 1;
  DaemonFixture f(options);
  // Make the daemon enter drain through the same latch path the CLI uses.
  SignalDrainLatch latch;
  latch.TripForTesting(15);
  EXPECT_TRUE(latch.signalled());
  EXPECT_EQ(latch.signal_number(), 15);
  // Shutdown in a second thread so this test can observe the drain window
  // is not needed — BeginDrain semantics are covered by shutdown-under-load
  // in daemon_chaos_test; here just verify a full stop still answers EOF.
  EXPECT_TRUE(f.daemon->Shutdown(milliseconds(2'000)));
  Result<WireResponse> r = f.client.ReadResponse(milliseconds(2'000));
  EXPECT_FALSE(r.ok()) << "daemon closed the connection on shutdown";
}

// ---------------------------------------------------------------------------
// Multi-database registry over the wire

// Two databases that disagree on the same query: with
//   q = R(x | y), not S(y | x)
// database A (the fixture default) answers not-certain — the repair that
// keeps R(a | b) must avoid S(b | a), but S(b | a) is A's only S-block, so
// it survives every repair. Database B's lone S-fact S(z | z) never blocks
// an R-match, so B answers certain.
constexpr char kDbBFacts[] = "R(a | b), R(a | c)\nS(z | z)";
constexpr char kDifferentialQuery[] = "R(x | y), not S(y | x)";

std::string SolveFrameFor(uint64_t id, const std::string& query,
                          const std::string& db) {
  JsonObjectBuilder b;
  b.Set("type", "solve").Set("id", id).Set("query", query);
  if (!db.empty()) b.Set("db", db);
  return b.Build().Serialize();
}

TEST(DaemonMultiDbTest, SolvesRouteByDbField) {
  DaemonFixture f;
  ASSERT_TRUE(f.daemon->Attach("b", Db(kDbBFacts)).ok());

  // No "db" field: exactly the single-database behavior.
  ASSERT_TRUE(f.Send(SolveFrameFor(1, kDifferentialQuery, "")).ok());
  // Explicitly the default instance's name.
  ASSERT_TRUE(
      f.Send(SolveFrameFor(2, kDifferentialQuery,
                           SolveDaemon::kDefaultDbName)).ok());
  // The second instance, which disagrees.
  ASSERT_TRUE(f.Send(SolveFrameFor(3, kDifferentialQuery, "b")).ok());
  // An instance that was never attached.
  ASSERT_TRUE(f.Send(SolveFrameFor(4, kDifferentialQuery, "ghost")).ok());

  Result<WireResponse> none = f.client.WaitTerminal(1, kIo);
  ASSERT_TRUE(none.ok()) << none.error();
  EXPECT_EQ(none->verdict, "not-certain");
  Result<WireResponse> def = f.client.WaitTerminal(2, kIo);
  ASSERT_TRUE(def.ok()) << def.error();
  EXPECT_EQ(def->verdict, "not-certain");
  Result<WireResponse> other = f.client.WaitTerminal(3, kIo);
  ASSERT_TRUE(other.ok()) << other.error();
  EXPECT_EQ(other->verdict, "certain")
      << "solve must run against the named instance, not the default";
  Result<WireResponse> ghost = f.client.WaitTerminal(4, kIo);
  ASSERT_TRUE(ghost.ok()) << ghost.error();
  EXPECT_EQ(ghost->type, "error");
  EXPECT_EQ(ghost->code, "detached");
}

TEST(DaemonMultiDbTest, AttachListDetachOverTheWire) {
  DaemonFixture f;

  // The fixture database is attached under "default" and is the default.
  ASSERT_TRUE(f.Send(R"({"type":"list","id":1})").ok());
  Result<WireResponse> before = f.client.ReadResponse(kIo);
  ASSERT_TRUE(before.ok()) << before.error();
  EXPECT_EQ(before->type, "db_list");
  EXPECT_EQ(before->raw.Find("default")->AsString(), "default");
  ASSERT_EQ(before->raw.Find("databases")->AsArray().size(), 1u);

  // Attach ships the facts inline; the ack reports the precomputed shape.
  JsonObjectBuilder attach;
  attach.Set("type", "attach").Set("id", uint64_t{2}).Set("name", "b");
  attach.Set("facts", kDbBFacts);
  ASSERT_TRUE(f.Send(attach.Build().Serialize()).ok());
  Result<WireResponse> ack = f.client.ReadResponse(kIo);
  ASSERT_TRUE(ack.ok()) << ack.error();
  ASSERT_EQ(ack->type, "attach_ack") << ack->raw.Serialize();
  EXPECT_EQ(ack->raw.Find("name")->AsString(), "b");
  EXPECT_EQ(ack->raw.Find("facts")->AsInt(), 3);
  EXPECT_EQ(ack->raw.Find("blocks")->AsInt(), 2);
  EXPECT_FALSE(ack->raw.Find("default")->AsBool());
  EXPECT_EQ(ack->raw.Find("fingerprint")->AsString().size(), 32u);

  ASSERT_TRUE(f.Send(R"({"type":"list","id":3})").ok());
  Result<WireResponse> after = f.client.ReadResponse(kIo);
  ASSERT_TRUE(after.ok()) << after.error();
  ASSERT_EQ(after->raw.Find("databases")->AsArray().size(), 2u);

  // The attached instance serves immediately.
  ASSERT_TRUE(f.Send(SolveFrameFor(4, kDifferentialQuery, "b")).ok());
  Result<WireResponse> solved = f.client.WaitTerminal(4, kIo);
  ASSERT_TRUE(solved.ok()) << solved.error();
  EXPECT_EQ(solved->verdict, "certain");

  // Detach acks only after its shard drained; nothing was queued.
  ASSERT_TRUE(f.Send(R"({"type":"detach","id":5,"name":"b"})").ok());
  Result<WireResponse> detached = f.client.ReadResponse(kIo);
  ASSERT_TRUE(detached.ok()) << detached.error();
  ASSERT_EQ(detached->type, "detach_ack") << detached->raw.Serialize();
  EXPECT_EQ(detached->raw.Find("name")->AsString(), "b");
  EXPECT_EQ(detached->raw.Find("shed")->AsInt(), 0);
  EXPECT_TRUE(detached->raw.Find("drained")->AsBool());

  // Solves against it now fail typed; the default keeps serving.
  ASSERT_TRUE(f.Send(SolveFrameFor(6, kDifferentialQuery, "b")).ok());
  Result<WireResponse> gone = f.client.WaitTerminal(6, kIo);
  ASSERT_TRUE(gone.ok()) << gone.error();
  EXPECT_EQ(gone->type, "error");
  EXPECT_EQ(gone->code, "detached");
  ASSERT_TRUE(f.Send(SolveFrameFor(7, "R(x | y)", "")).ok());
  Result<WireResponse> still = f.client.WaitTerminal(7, kIo);
  ASSERT_TRUE(still.ok()) << still.error();
  EXPECT_EQ(still->verdict, "certain");
}

TEST(DaemonMultiDbTest, AdminFramesFailTyped) {
  DaemonFixture f;
  struct Case {
    const char* frame;
    const char* code;
  } cases[] = {
      // Unknown instance.
      {R"({"type":"detach","id":1,"name":"ghost"})", "unsupported"},
      // Duplicate name.
      {R"js({"type":"attach","id":2,"name":"default","facts":"R(a | b)"})js",
       "unsupported"},
      // Invalid name (slash is outside the operator-facing alphabet).
      {R"js({"type":"attach","id":3,"name":"no/slash","facts":"R(a | b)"})js",
       "unsupported"},
      // Facts that do not parse reject the attach, not the connection.
      {R"js({"type":"attach","id":4,"name":"bad","facts":"R(a |"})js",
       "parse"},
  };
  for (const Case& c : cases) {
    ASSERT_TRUE(f.Send(c.frame).ok());
    Result<WireResponse> err = f.client.ReadResponse(kIo);
    ASSERT_TRUE(err.ok()) << c.frame << ": " << err.error();
    EXPECT_EQ(err->type, "error") << c.frame;
    EXPECT_EQ(err->code, c.code) << c.frame;
    EXPECT_FALSE(err->fatal) << c.frame;
  }
  // A failed attach leaves no trace; the registry still has one instance.
  ASSERT_TRUE(f.Send(R"({"type":"list","id":9})").ok());
  Result<WireResponse> list = f.client.ReadResponse(kIo);
  ASSERT_TRUE(list.ok()) << list.error();
  EXPECT_EQ(list->raw.Find("databases")->AsArray().size(), 1u);
  EXPECT_EQ(f.daemon->daemon_stats().frames_garbage, 0u)
      << "typed admin failures of well-formed frames are not wire garbage";
  // Admin frames missing their required fields fail wire decode, though —
  // same rules as any other malformed frame.
  ASSERT_TRUE(f.Send(R"({"type":"attach","id":5})").ok());
  Result<WireResponse> malformed = f.client.ReadResponse(kIo);
  ASSERT_TRUE(malformed.ok()) << malformed.error();
  EXPECT_EQ(malformed->type, "error");
  EXPECT_EQ(malformed->code, "parse");
  EXPECT_EQ(f.daemon->daemon_stats().frames_garbage, 1u);
}

TEST(DaemonMultiDbTest, StatsBreakOutPerDatabase) {
  DaemonOptions options;
  options.service.cache_entries = 128;  // library default is cache-off
  DaemonFixture f(options);
  ASSERT_TRUE(f.daemon->Attach("b", Db(kDbBFacts)).ok());
  // Same query twice on the default shard (second is a cache hit), once on
  // the other shard (its own cache, so a miss there).
  ASSERT_TRUE(f.Send(SolveFrameFor(1, "R(x | y)", "")).ok());
  ASSERT_TRUE(f.client.WaitTerminal(1, kIo).ok());
  ASSERT_TRUE(f.Send(SolveFrameFor(2, "R(x | y)", "")).ok());
  ASSERT_TRUE(f.client.WaitTerminal(2, kIo).ok());
  ASSERT_TRUE(f.Send(SolveFrameFor(3, "R(x | y)", "b")).ok());
  ASSERT_TRUE(f.client.WaitTerminal(3, kIo).ok());

  ASSERT_TRUE(f.Send(R"({"type":"stats","id":4})").ok());
  Result<WireResponse> stats = f.client.ReadResponse(kIo);
  ASSERT_TRUE(stats.ok()) << stats.error();
  const Json* dbs = stats->raw.Find("databases");
  ASSERT_NE(dbs, nullptr) << stats->raw.Serialize();
  const Json* def = dbs->Find(SolveDaemon::kDefaultDbName);
  const Json* other = dbs->Find("b");
  ASSERT_NE(def, nullptr);
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(def->Find("completed")->AsInt(), 2);
  EXPECT_EQ(def->Find("cache_hits")->AsInt(), 1);
  EXPECT_EQ(def->Find("cache_misses")->AsInt(), 1);
  EXPECT_EQ(other->Find("completed")->AsInt(), 1);
  EXPECT_EQ(other->Find("cache_hits")->AsInt(), 0)
      << "shards must not share cache entries";
  EXPECT_EQ(other->Find("cache_misses")->AsInt(), 1);
  // The aggregate view still carries the summed counters.
  const Json* service = stats->raw.Find("service");
  ASSERT_NE(service, nullptr);
  EXPECT_EQ(service->Find("completed")->AsInt(), 3);
  EXPECT_EQ(service->Find("cache_hits")->AsInt(), 1)
      << stats->raw.Serialize();
}

// ---------------------------------------------------------------------------
// Live updates over the wire

std::string DeltaFrame(uint64_t id, const std::string& delta_id,
                       const std::vector<DeltaOp>& ops,
                       const std::string& db = "") {
  JsonObjectBuilder b;
  b.Set("type", "apply_delta").Set("id", id).Set("delta_id", delta_id);
  if (!db.empty()) b.Set("db", db);
  b.Set("ops", EncodeDeltaOps(ops));
  return b.Build().Serialize();
}

TEST(DaemonDeltaTest, ApplyDeltaRoundTripOverTcp) {
  DaemonFixture f;  // fixture facts: R(a | b), R(a | c)  S(b | a)
  ASSERT_TRUE(f.Send(SolveFrame(1, kDifferentialQuery)).ok());
  Result<WireResponse> before = f.client.WaitTerminal(1, kIo);
  ASSERT_TRUE(before.ok()) << before.error();
  EXPECT_EQ(before->verdict, "not-certain");

  // Deleting the negated atom's only witness flips the verdict.
  DeltaOp del;
  del.insert = false;
  del.relation = "S";
  del.values = {"b", "a"};
  ASSERT_TRUE(f.Send(DeltaFrame(2, "wire-d1", {del})).ok());
  Result<WireResponse> ack = f.client.ReadResponse(kIo);
  ASSERT_TRUE(ack.ok()) << ack.error();
  ASSERT_EQ(ack->type, "delta_ack") << ack->raw.Serialize();
  EXPECT_TRUE(ack->raw.Find("applied")->AsBool());
  EXPECT_EQ(ack->raw.Find("epoch")->AsInt(), 1);  // attach is epoch 0
  EXPECT_EQ(ack->raw.Find("deleted")->AsInt(), 1);
  EXPECT_EQ(ack->raw.Find("fingerprint")->AsString().size(), 32u);

  // The ack is the publication point: the next solve sees the new epoch.
  ASSERT_TRUE(f.Send(SolveFrame(3, kDifferentialQuery)).ok());
  Result<WireResponse> after = f.client.WaitTerminal(3, kIo);
  ASSERT_TRUE(after.ok()) << after.error();
  EXPECT_EQ(after->verdict, "certain");

  // Re-sending the same delta id acks idempotently without reapplying.
  ASSERT_TRUE(f.Send(DeltaFrame(4, "wire-d1", {del})).ok());
  Result<WireResponse> dup = f.client.ReadResponse(kIo);
  ASSERT_TRUE(dup.ok()) << dup.error();
  ASSERT_EQ(dup->type, "delta_ack") << dup->raw.Serialize();
  EXPECT_FALSE(dup->raw.Find("applied")->AsBool());
  EXPECT_EQ(dup->raw.Find("epoch")->AsInt(), 1);
  EXPECT_EQ(dup->raw.Find("fingerprint")->AsString(),
            ack->raw.Find("fingerprint")->AsString());

  // Validation failures are typed rejections, not wire garbage.
  DeltaOp ghost;
  ghost.insert = true;
  ghost.relation = "Ghost";
  ghost.values = {"x", "y"};
  ASSERT_TRUE(f.Send(DeltaFrame(5, "wire-d2", {ghost})).ok());
  Result<WireResponse> rejected = f.client.ReadResponse(kIo);
  ASSERT_TRUE(rejected.ok()) << rejected.error();
  EXPECT_EQ(rejected->type, "error");
  EXPECT_EQ(rejected->code, "unsupported");
  EXPECT_FALSE(rejected->fatal);

  ASSERT_TRUE(f.Send(R"({"type":"stats","id":6})").ok());
  Result<WireResponse> stats = f.client.ReadResponse(kIo);
  ASSERT_TRUE(stats.ok()) << stats.error();
  const Json* daemon = stats->raw.Find("daemon");
  ASSERT_NE(daemon, nullptr);
  // Idempotent re-acks count as applied at the daemon layer; the service
  // epoch shows only one mutation actually landed.
  EXPECT_EQ(daemon->Find("deltas_applied")->AsInt(), 2);
  EXPECT_EQ(daemon->Find("deltas_rejected")->AsInt(), 1);
  const Json* service = stats->raw.Find("service");
  ASSERT_NE(service, nullptr);
  EXPECT_EQ(service->Find("deltas_applied")->AsInt(), 1);
  EXPECT_EQ(service->Find("epoch")->AsInt(), 1);
  EXPECT_EQ(f.daemon->daemon_stats().frames_garbage, 0u);
}

TEST(DaemonDeltaTest, AdminFramesDoNotStallTheReader) {
  DaemonFixture f;
  // A deliberately large attach: tens of thousands of facts to parse and
  // index. When the build ran inline on the reader thread, the health frame
  // queued behind it waited out the whole build.
  std::string facts;
  facts.reserve(1u << 20);
  for (int i = 0; i < 20000; ++i) {
    facts += "Big(k" + std::to_string(i / 2) + " | v" + std::to_string(i) +
             ")\n";
  }
  JsonObjectBuilder attach;
  attach.Set("type", "attach").Set("id", uint64_t{1}).Set("name", "big");
  attach.Set("facts", facts);
  ASSERT_TRUE(f.Send(attach.Build().Serialize()).ok());
  ASSERT_TRUE(f.Send(R"({"type":"health","id":2})").ok());

  // The health ack overtakes the attach ack: admin work happens off the
  // reader thread and acks when ready.
  Result<WireResponse> first = f.client.ReadResponse(kIo);
  ASSERT_TRUE(first.ok()) << first.error();
  EXPECT_EQ(first->type, "health")
      << "a parked attach must not block unrelated frames; got "
      << first->raw.Serialize();
  // The ordering above is the property; the ack itself just needs to land
  // eventually. Sanitizer builds slow the 20k-fact parse well past the
  // usual IO window, so give it a generous one.
  Result<WireResponse> second = f.client.ReadResponse(milliseconds(120'000));
  ASSERT_TRUE(second.ok()) << second.error();
  ASSERT_EQ(second->type, "attach_ack") << second->raw.Serialize();
  EXPECT_EQ(second->raw.Find("name")->AsString(), "big");
  EXPECT_EQ(second->raw.Find("facts")->AsInt(), 20000);

  // The attach ack is still read-your-writes: the instance serves once
  // acked.
  ASSERT_TRUE(f.Send(SolveFrameFor(3, "Big(x | y)", "big")).ok());
  Result<WireResponse> solved = f.client.WaitTerminal(3, kIo);
  ASSERT_TRUE(solved.ok()) << solved.error();
  EXPECT_EQ(solved->verdict, "certain");
}

// ---------------------------------------------------------------------------
// Stats frame

std::vector<std::string> Keys(const Json* object) {
  std::vector<std::string> keys;
  if (object == nullptr || !object->is_object()) return keys;
  for (const auto& [key, value] : object->AsObject()) keys.push_back(key);
  return keys;
}

std::string AnswersFrame(uint64_t id, const std::string& query,
                         uint64_t max_chunk, const std::string& cursor = "") {
  JsonObjectBuilder b;
  b.Set("type", "answers").Set("id", id).Set("query", query);
  b.Set("free", Json::MakeArray({Json::MakeString("x")}));
  b.Set("max_chunk", max_chunk);
  if (!cursor.empty()) b.Set("cursor", cursor);
  return b.Build().Serialize();
}

TEST(DaemonStatsTest, AggregateIsTheDeclaredMergeOfThePerDbObjects) {
  // The default database serves 12 single-fact R blocks, 4 of them blocked
  // by an S witness, so the answers stream below spans several chunks.
  std::string facts = "R(a | b), R(a | c)\nS(b | a)\n";
  for (int i = 10; i < 22; ++i) {
    const std::string key = "k" + std::to_string(i);
    facts += "R(" + key + " | " + key + ")\n";
    if (i % 3 == 0) facts += "S(" + key + " | " + key + ")\n";
  }
  const std::string answers_query = "R(x | y), not S(x | y)";
  DaemonOptions options;
  options.service.cache_entries = 128;
  DaemonFixture f(options, facts.c_str());
  ASSERT_TRUE(f.daemon->Attach("b", Db(kDbBFacts)).ok());

  uint64_t id = 1;
  for (const char* db : {"", "b", "", "b"}) {
    ASSERT_TRUE(f.Send(SolveFrameFor(id, kDifferentialQuery, db)).ok());
    ASSERT_TRUE(f.client.WaitTerminal(id++, kIo).ok());
  }
  ASSERT_TRUE(f.Send(SolveFrameFor(id, "R(x | y)", "b")).ok());
  ASSERT_TRUE(f.client.WaitTerminal(id++, kIo).ok());

  // A multi-chunk stream; keep its first mid-stream cursor.
  const uint64_t stream = id++;
  ASSERT_TRUE(f.Send(AnswersFrame(stream, answers_query, 2)).ok());
  std::string cursor;
  int chunks = 0;
  for (;;) {
    Result<WireResponse> r = f.client.ReadResponse(kIo);
    ASSERT_TRUE(r.ok()) << r.error();
    if (r->type != "answer_chunk") {
      ASSERT_EQ(r->type, "answer_done") << r->raw.Serialize();
      break;
    }
    ++chunks;
    if (cursor.empty()) cursor = r->cursor;
  }
  ASSERT_GE(chunks, 2);
  ASSERT_FALSE(cursor.empty());

  // A delta flips the default database's epoch, staling the cursor.
  DeltaOp insert;
  insert.insert = true;
  insert.relation = "R";
  insert.values = {"zz", "zz"};
  ASSERT_TRUE(f.Send(DeltaFrame(id++, "stats-d1", {insert})).ok());
  Result<WireResponse> ack = f.client.ReadResponse(kIo);
  ASSERT_TRUE(ack.ok()) << ack.error();
  ASSERT_EQ(ack->type, "delta_ack") << ack->raw.Serialize();
  ASSERT_TRUE(f.Send(AnswersFrame(id++, answers_query, 2, cursor)).ok());
  Result<WireResponse> stale = f.client.ReadResponse(kIo);
  ASSERT_TRUE(stale.ok()) << stale.error();
  ASSERT_EQ(stale->code, "stale-cursor") << stale->raw.Serialize();

  ASSERT_TRUE(f.Send(R"({"type":"stats","id":99})").ok());
  Result<WireResponse> frame = f.client.ReadResponse(kIo);
  ASSERT_TRUE(frame.ok()) << frame.error();
  const Json* service = frame->raw.Find("service");
  const Json* dbs = frame->raw.Find("databases");
  ASSERT_NE(service, nullptr);
  ASSERT_NE(dbs, nullptr);
  ASSERT_EQ(dbs->AsObject().size(), 2u);
  // The percentile fields are re-read from the pooled histograms, which the
  // frame does not carry; the daemon is idle, so its shards still hold them.
  const ServiceStats pooled = MergeStats(f.daemon->stats_per_db());

  int checked = 0;
  for (const auto& [key, value] : service->AsObject()) {
    SCOPED_TRACE(key);
    ASSERT_TRUE(value.is_number());
    const StatField<ServiceStats>* field = nullptr;
    for (const StatField<ServiceStats>& row : kServiceStatFields) {
      if (key == row.name) field = &row;
    }
    ASSERT_NE(field, nullptr) << "undeclared service key";
    int64_t expected = 0;
    for (const auto& [name, db] : dbs->AsObject()) {
      const int64_t part = db.Find(key)->AsInt();
      expected = field->merge == StatMerge::kMax ? std::max(expected, part)
                                                 : expected + part;
    }
    if (field->merge == StatMerge::kPooled) {
      expected = static_cast<int64_t>(pooled.*field->member);
    }
    EXPECT_EQ(value.AsInt(), expected);
    ++checked;
  }
  EXPECT_EQ(checked, static_cast<int>(std::size(kServiceStatFields)));
  EXPECT_GE(service->Find("answer_chunks")->AsInt(), chunks);
  EXPECT_GT(service->Find("answer_tuples")->AsInt(), 0);
  EXPECT_EQ(service->Find("answers_stale_cursors")->AsInt(), 1);
}

TEST(DaemonStatsTest, WireKeysArePinned) {
  // The exact key set, in wire (sorted) order, of each stats frame object.
  // Operators' scripts, tools/ci.sh and daemonbench read these by name.
  const std::vector<std::string> service_keys = {
      "accepted", "answer_chunks", "answer_tuples", "answers_stale_cursors",
      "cache_bypass", "cache_coalesced", "cache_entries", "cache_evictions",
      "cache_hits", "cache_invalidated", "cache_misses", "cache_rekeyed",
      "cancelled", "completed", "components_found", "degraded",
      "deltas_applied", "epoch", "failed", "inflight", "journal_bytes",
      "journal_fsyncs", "latency_count", "latency_max_us", "latency_p50_us",
      "latency_p90_us", "latency_p99_us", "parallel_solves",
      "parallel_steals", "retries", "sandbox_crashes", "sandbox_forks",
      "sandbox_kills", "sandbox_peak_rss_kb", "sandbox_rss_breaches", "shed",
      "snapshot_bytes", "snapshot_epoch", "snapshots_failed",
      "snapshots_taken", "submitted"};
  const std::vector<std::string> daemon_keys = {
      "answer_chunks_sent", "answer_tuples_sent", "answers_resumed",
      "answers_stale_cursors", "answers_streams", "connections_active",
      "connections_closed_error", "connections_closed_garbage",
      "connections_closed_idle", "connections_closed_oversize",
      "connections_opened", "databases_attached", "databases_detached",
      "deltas_applied", "deltas_rejected", "follower_apply_errors",
      "follower_connects", "follower_deltas_applied", "follower_disconnects",
      "follower_snapshots_applied", "frames_garbage", "frames_received",
      "repl_acks_received", "repl_events_sent", "repl_lag",
      "repl_streams_closed", "repl_streams_opened", "sandbox_crashes",
      "sandbox_forks", "sandbox_kills", "sandbox_peak_rss_kb",
      "sandbox_rss_breaches", "solves_admitted", "solves_rejected_detached",
      "solves_rejected_inflight_cap", "solves_rejected_overloaded"};

  DaemonFixture f;
  ASSERT_TRUE(f.daemon->Attach("b", Db(kDbBFacts)).ok());
  ASSERT_TRUE(f.Send(R"({"type":"stats","id":1})").ok());
  Result<WireResponse> frame = f.client.ReadResponse(kIo);
  ASSERT_TRUE(frame.ok()) << frame.error();
  EXPECT_EQ(Keys(&frame->raw),
            (std::vector<std::string>{"daemon", "databases", "id", "service",
                                      "type"}));
  EXPECT_EQ(Keys(frame->raw.Find("service")), service_keys);
  EXPECT_EQ(Keys(frame->raw.Find("daemon")), daemon_keys);
  const Json* dbs = frame->raw.Find("databases");
  EXPECT_EQ(Keys(dbs), (std::vector<std::string>{"b", "default"}));
  EXPECT_EQ(Keys(dbs->Find("b")), service_keys);
  EXPECT_EQ(Keys(dbs->Find("default")), service_keys);
}

TEST(DaemonTest, StartFailsCleanlyOnAddressInUse) {
  DaemonOptions options;
  DaemonFixture f(options);
  DaemonOptions clash;
  clash.host = "127.0.0.1";
  clash.port = f.daemon->port();
  SolveDaemon second(Db("R(a | b)"), clash);
  Result<bool> started = second.Start();
  ASSERT_FALSE(started.ok()) << "binding a taken port must fail";
  EXPECT_EQ(started.code(), ErrorCode::kInternal);
  EXPECT_TRUE(second.Shutdown(milliseconds(0)));
}

}  // namespace
}  // namespace cqa
