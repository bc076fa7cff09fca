#include "cqa/serve/net/protocol.h"

#include <algorithm>
#include <climits>
#include <string_view>

namespace cqa {

namespace {

// Reads an optional non-negative integer field; false on type errors.
bool ReadU64(const Json& object, const std::string& key, uint64_t* out,
             std::string* error) {
  const Json* field = object.Find(key);
  if (field == nullptr) return true;
  if (!field->is_int() || field->AsInt() < 0) {
    *error = "field '" + key + "' must be a non-negative integer";
    return false;
  }
  *out = static_cast<uint64_t>(field->AsInt());
  return true;
}

bool ReadBool(const Json& object, const std::string& key, bool* out,
              std::string* error) {
  const Json* field = object.Find(key);
  if (field == nullptr) return true;
  if (!field->is_bool()) {
    *error = "field '" + key + "' must be a boolean";
    return false;
  }
  *out = field->AsBool();
  return true;
}

Result<WireRequest> ParseError(const std::string& message) {
  return Result<WireRequest>::Error(ErrorCode::kParse, message);
}

}  // namespace

Result<WireRequest> DecodeRequest(const std::string& frame) {
  Result<Json> parsed = Json::Parse(frame);
  if (!parsed.ok()) return Result<WireRequest>::Error(parsed);
  const Json& object = parsed.value();
  if (!object.is_object()) return ParseError("request must be a JSON object");

  const Json* type = object.Find("type");
  if (type == nullptr || !type->is_string()) {
    return ParseError("missing string field 'type'");
  }

  WireRequest request;
  std::string error;
  if (!ReadU64(object, "id", &request.id, &error)) return ParseError(error);

  const std::string& type_name = type->AsString();
  if (type_name == "health") {
    request.type = WireRequestType::kHealth;
    return request;
  }
  if (type_name == "stats") {
    request.type = WireRequestType::kStats;
    return request;
  }
  if (type_name == "cancel") {
    request.type = WireRequestType::kCancel;
    if (object.Find("id") == nullptr) {
      return ParseError("cancel requires an 'id'");
    }
    const Json* target = object.Find("target");
    if (target == nullptr || !target->is_int() || target->AsInt() < 0) {
      return ParseError("cancel requires a non-negative integer 'target'");
    }
    request.target = static_cast<uint64_t>(target->AsInt());
    const Json* db = object.Find("db");
    if (db != nullptr) {
      if (!db->is_string()) return ParseError("field 'db' must be a string");
      request.db = db->AsString();
    }
    return request;
  }
  if (type_name == "list") {
    request.type = WireRequestType::kList;
    return request;
  }
  if (type_name == "snapshot") {
    request.type = WireRequestType::kSnapshot;
    if (object.Find("id") == nullptr) {
      return ParseError("snapshot requires an 'id'");
    }
    const Json* db = object.Find("db");
    if (db != nullptr) {
      if (!db->is_string()) return ParseError("field 'db' must be a string");
      request.db = db->AsString();
    }
    return request;
  }
  if (type_name == "promote") {
    request.type = WireRequestType::kPromote;
    if (object.Find("id") == nullptr) {
      return ParseError("promote requires an 'id'");
    }
    return request;
  }
  if (type_name == "replicate") {
    request.type = WireRequestType::kReplicate;
    if (object.Find("id") == nullptr) {
      return ParseError("replicate requires an 'id'");
    }
    return request;
  }
  if (type_name == "replica_ack") {
    request.type = WireRequestType::kReplicaAck;
    const Json* seq = object.Find("seq");
    if (seq == nullptr || !seq->is_int() || seq->AsInt() < 0) {
      return ParseError("replica_ack requires a non-negative integer 'seq'");
    }
    request.seq = static_cast<uint64_t>(seq->AsInt());
    return request;
  }
  if (type_name == "apply_delta") {
    request.type = WireRequestType::kApplyDelta;
    if (object.Find("id") == nullptr) {
      return ParseError("apply_delta requires an 'id'");
    }
    const Json* db = object.Find("db");
    if (db != nullptr) {
      if (!db->is_string()) return ParseError("field 'db' must be a string");
      request.db = db->AsString();
    }
    const Json* delta_id = object.Find("delta_id");
    if (delta_id == nullptr || !delta_id->is_string() ||
        delta_id->AsString().empty() ||
        delta_id->AsString().size() > kMaxDeltaIdBytes) {
      return ParseError("apply_delta requires a string 'delta_id' of 1-" +
                        std::to_string(kMaxDeltaIdBytes) + " bytes");
    }
    request.delta_id = delta_id->AsString();
    const Json* ops = object.Find("ops");
    if (ops == nullptr) {
      return ParseError("apply_delta requires an 'ops' array");
    }
    Result<std::vector<DeltaOp>> decoded = DecodeDeltaOps(*ops);
    if (!decoded.ok()) return Result<WireRequest>::Error(decoded);
    request.ops = std::move(decoded.value());
    return request;
  }
  if (type_name == "attach" || type_name == "detach") {
    request.type = type_name == "attach" ? WireRequestType::kAttach
                                         : WireRequestType::kDetach;
    if (object.Find("id") == nullptr) {
      return ParseError(type_name + " requires an 'id'");
    }
    const Json* name = object.Find("name");
    if (name == nullptr || !name->is_string()) {
      return ParseError(type_name + " requires a string 'name'");
    }
    request.name = name->AsString();
    if (request.type == WireRequestType::kAttach) {
      const Json* facts = object.Find("facts");
      if (facts == nullptr || !facts->is_string()) {
        return ParseError("attach requires a string 'facts'");
      }
      request.facts = facts->AsString();
    }
    return request;
  }
  if (type_name != "solve" && type_name != "answers") {
    return Result<WireRequest>::Error(
        ErrorCode::kUnsupported, "unknown request type '" + type_name + "'");
  }

  request.type = type_name == "answers" ? WireRequestType::kAnswers
                                        : WireRequestType::kSolve;
  if (object.Find("id") == nullptr) {
    return ParseError(type_name + " requires an 'id'");
  }
  const Json* query = object.Find("query");
  if (query == nullptr || !query->is_string()) {
    return ParseError(type_name + " requires a string 'query'");
  }
  request.query = query->AsString();

  if (request.type == WireRequestType::kAnswers) {
    const Json* free = object.Find("free");
    if (free == nullptr || !free->is_array() || free->AsArray().empty()) {
      return ParseError(
          "answers requires a non-empty 'free' array of variable names");
    }
    for (const Json& name : free->AsArray()) {
      if (!name.is_string() || name.AsString().empty()) {
        return ParseError("'free' entries must be non-empty strings");
      }
      request.free_vars.push_back(name.AsString());
    }
    if (!ReadU64(object, "max_chunk", &request.max_chunk, &error)) {
      return ParseError(error);
    }
    const Json* cursor = object.Find("cursor");
    if (cursor != nullptr) {
      if (!cursor->is_string()) {
        return ParseError("field 'cursor' must be a string");
      }
      request.cursor = cursor->AsString();
    }
  }

  const Json* db = object.Find("db");
  if (db != nullptr) {
    if (!db->is_string()) return ParseError("field 'db' must be a string");
    request.db = db->AsString();
  }

  // Execution settings go straight into the job spec, with the clamps the
  // service relies on: parallelism at most 64, fault_attempts at most
  // INT_MAX.
  JobSpec& spec = request.spec;
  uint64_t timeout_ms = 0;
  if (object.Find("timeout_ms") != nullptr) {
    if (!ReadU64(object, "timeout_ms", &timeout_ms, &error)) {
      return ParseError(error);
    }
    spec.timeout = std::chrono::milliseconds(timeout_ms);
  }
  uint64_t chaos_sleep_ms = 0;
  uint64_t parallelism = 0;
  uint64_t fault_attempts = static_cast<uint64_t>(spec.fault_attempts);
  if (!ReadU64(object, "max_steps", &spec.max_steps, &error) ||
      !ReadU64(object, "max_samples", &spec.max_samples, &error) ||
      !ReadU64(object, "chaos_sleep_ms", &chaos_sleep_ms, &error) ||
      !ReadU64(object, "fail_after_probes", &spec.faults.fail_after_probes,
               &error) ||
      !ReadU64(object, "crash_after_probes", &spec.faults.crash_after_probes,
               &error) ||
      !ReadU64(object, "hog_mb_per_probe", &spec.faults.hog_mb_per_probe,
               &error) ||
      !ReadU64(object, "wedge_after_probes", &spec.faults.wedge_after_probes,
               &error) ||
      !ReadU64(object, "parallelism", &parallelism, &error) ||
      !ReadBool(object, "degrade_to_sampling", &spec.degrade_to_sampling,
                &error) ||
      !ReadBool(object, "deadline_from_submit", &spec.deadline_from_submit,
                &error) ||
      !ReadU64(object, "fault_attempts", &fault_attempts, &error)) {
    return ParseError(error);
  }
  spec.chaos_sleep = std::chrono::milliseconds(chaos_sleep_ms);
  spec.parallelism = static_cast<int>(std::min<uint64_t>(parallelism, 64));
  spec.fault_attempts =
      static_cast<int>(std::min<uint64_t>(fault_attempts, INT_MAX));

  const Json* method = object.Find("method");
  if (method != nullptr) {
    if (!method->is_string()) {
      return ParseError("field 'method' must be a string");
    }
    Result<SolverMethod> m = ParseSolverMethod(method->AsString());
    if (!m.ok()) return Result<WireRequest>::Error(m);
    spec.method = m.value();
  }

  const Json* isolation = object.Find("isolation");
  if (isolation != nullptr) {
    if (!isolation->is_string()) {
      return ParseError("field 'isolation' must be a string");
    }
    std::optional<IsolationMode> mode =
        ParseIsolationMode(isolation->AsString());
    if (!mode.has_value()) {
      return Result<WireRequest>::Error(
          ErrorCode::kUnsupported,
          "field 'isolation' must be 'auto', 'inproc' or 'fork'");
    }
    spec.isolation = *mode;
  }

  const Json* cache = object.Find("cache");
  if (cache != nullptr) {
    if (!cache->is_string()) {
      return ParseError("field 'cache' must be a string");
    }
    const std::string& policy = cache->AsString();
    if (policy == "bypass") {
      spec.cache = CachePolicy::kBypass;
    } else if (policy != "default") {
      return ParseError("field 'cache' must be 'default' or 'bypass'");
    }
  }
  return request;
}

std::string EncodeResultFrame(uint64_t id, const SolveReport& report,
                              int attempts,
                              std::chrono::microseconds latency) {
  JsonObjectBuilder b;
  b.Set("type", "result")
      .Set("id", id)
      .Set("verdict", ToString(report.verdict))
      .Set("attempts", static_cast<int64_t>(attempts))
      .Set("latency_us", static_cast<uint64_t>(latency.count()));
  if (report.verdict == Verdict::kProbablyCertain) {
    b.Set("confidence", report.confidence).Set("samples", report.samples);
  }
  if (report.components > 0) {
    // Component-parallel accounting, present only when the decomposer ran
    // (keeps sequential result frames byte-identical to the old wire).
    b.Set("parallelism", static_cast<int64_t>(report.parallelism))
        .Set("components", static_cast<int64_t>(report.components))
        .Set("steals", report.steals);
  }
  return b.Build().Serialize();
}

std::string EncodeAnswerChunkFrame(uint64_t id, const AnswerChunk& chunk,
                                   const std::string& cursor) {
  Json::Array vars;
  vars.reserve(chunk.free_vars.size());
  for (const std::string& v : chunk.free_vars) {
    vars.push_back(Json::MakeString(v));
  }
  Json::Array tuples;
  tuples.reserve(chunk.answers.size());
  for (const Tuple& tuple : chunk.answers) {
    Json::Array row;
    row.reserve(tuple.size());
    for (const Value& value : tuple) {
      row.push_back(Json::MakeString(value.name()));
    }
    tuples.push_back(Json::MakeArray(std::move(row)));
  }
  JsonObjectBuilder b;
  b.Set("type", "answer_chunk")
      .Set("id", id)
      .Set("free", Json::MakeArray(std::move(vars)))
      .Set("tuples", Json::MakeArray(std::move(tuples)))
      .Set("start", chunk.start)
      .Set("next", chunk.next)
      .Set("total", chunk.total);
  if (chunk.exhausted) b.Set("exhausted", true);
  if (!cursor.empty()) b.Set("cursor", cursor);
  return b.Build().Serialize();
}

std::string EncodeAnswerDoneFrame(uint64_t id, uint64_t answers,
                                  uint64_t candidates, uint64_t chunks,
                                  std::chrono::microseconds latency) {
  return JsonObjectBuilder()
      .Set("type", "answer_done")
      .Set("id", id)
      .Set("answers", answers)
      .Set("candidates", candidates)
      .Set("chunks", chunks)
      .Set("latency_us", static_cast<uint64_t>(latency.count()))
      .Build()
      .Serialize();
}

std::string EncodeErrorFrame(std::optional<uint64_t> id, ErrorCode code,
                             const std::string& message, bool fatal) {
  JsonObjectBuilder b;
  b.Set("type", "error").Set("code", ToString(code)).Set("message", message);
  if (id.has_value()) b.Set("id", *id);
  if (fatal) b.Set("fatal", true);
  return b.Build().Serialize();
}

std::string EncodeCancelledFrame(uint64_t id, const std::string& message) {
  return JsonObjectBuilder()
      .Set("type", "cancelled")
      .Set("id", id)
      .Set("message", message)
      .Build()
      .Serialize();
}

std::string EncodeHealthFrame(uint64_t id, bool draining, bool follower) {
  return JsonObjectBuilder()
      .Set("type", "health")
      .Set("id", id)
      .Set("status", draining ? "draining" : "serving")
      .Set("role", follower ? "follower" : "primary")
      .Build()
      .Serialize();
}

namespace {

template <class Stats, size_t N>
void SetStatFields(JsonObjectBuilder* b, const Stats& stats,
                   const StatField<Stats> (&fields)[N]) {
  for (const StatField<Stats>& f : fields) b->Set(f.name, stats.*f.member);
}

Json ServiceStatsJson(const ServiceStats& service) {
  JsonObjectBuilder b;
  SetStatFields(&b, service, kServiceStatFields);
  return b.Build();
}

Json DbEntryJson(const WireDbEntry& entry) {
  return JsonObjectBuilder()
      .Set("name", entry.name)
      .Set("fingerprint", entry.fingerprint)
      .Set("facts", entry.facts)
      .Set("blocks", entry.blocks)
      .Set("default", entry.is_default)
      .Build();
}

}  // namespace

std::string EncodeStatsFrame(
    uint64_t id, const ServiceStats& service, const DaemonStats& daemon,
    const std::vector<std::pair<std::string, ServiceStats>>& per_db) {
  JsonObjectBuilder daemon_json;
  SetStatFields(&daemon_json, daemon, kDaemonStatFields);
  // The daemon object repeats the aggregate's sandbox counters.
  for (const StatField<ServiceStats>& f : kServiceStatFields) {
    if (std::string_view(f.name).starts_with("sandbox_")) {
      daemon_json.Set(f.name, service.*f.member);
    }
  }
  JsonObjectBuilder frame;
  frame.Set("type", "stats")
      .Set("id", id)
      .Set("service", ServiceStatsJson(service))
      .Set("daemon", daemon_json.Build());
  if (!per_db.empty()) {
    // Per-instance breakdown, keyed by registry name: each shard owns its
    // cache, so an operator reads cold instances straight off this map.
    JsonObjectBuilder databases;
    for (const auto& [name, stats] : per_db) {
      databases.Set(name, ServiceStatsJson(stats));
    }
    frame.Set("databases", databases.Build());
  }
  return frame.Build().Serialize();
}

std::string EncodeAttachAckFrame(uint64_t id, const WireDbEntry& entry) {
  return JsonObjectBuilder()
      .Set("type", "attach_ack")
      .Set("id", id)
      .Set("name", entry.name)
      .Set("fingerprint", entry.fingerprint)
      .Set("facts", entry.facts)
      .Set("blocks", entry.blocks)
      .Set("default", entry.is_default)
      .Build()
      .Serialize();
}

std::string EncodeDetachAckFrame(uint64_t id, const std::string& name,
                                 uint64_t shed, bool drained) {
  return JsonObjectBuilder()
      .Set("type", "detach_ack")
      .Set("id", id)
      .Set("name", name)
      .Set("shed", shed)
      .Set("drained", drained)
      .Build()
      .Serialize();
}

std::string EncodeDbListFrame(uint64_t id,
                              const std::vector<WireDbEntry>& entries) {
  Json::Array list;
  list.reserve(entries.size());
  std::string default_name;
  for (const WireDbEntry& entry : entries) {
    if (entry.is_default) default_name = entry.name;
    list.push_back(DbEntryJson(entry));
  }
  return JsonObjectBuilder()
      .Set("type", "db_list")
      .Set("id", id)
      .Set("default", default_name)
      .Set("databases", Json::MakeArray(std::move(list)))
      .Build()
      .Serialize();
}

std::string EncodeDeltaAckFrame(uint64_t id, const DeltaOutcome& outcome) {
  return JsonObjectBuilder()
      .Set("type", "delta_ack")
      .Set("id", id)
      .Set("db", outcome.name)
      .Set("delta_id", outcome.delta_id)
      .Set("applied", outcome.applied)
      .Set("epoch", outcome.epoch)
      .Set("fingerprint", outcome.fingerprint.ToHex())
      .Set("inserted", outcome.inserted)
      .Set("deleted", outcome.deleted)
      .Set("cache_invalidated", outcome.cache_invalidated)
      .Set("cache_rekeyed", outcome.cache_rekeyed)
      .Build()
      .Serialize();
}

std::string EncodeSnapshotAckFrame(uint64_t id,
                                   const SnapshotOutcome& outcome) {
  return JsonObjectBuilder()
      .Set("type", "snapshot_ack")
      .Set("id", id)
      .Set("db", outcome.name)
      .Set("epoch", outcome.epoch)
      .Set("fingerprint", outcome.fingerprint.ToHex())
      .Set("snapshot_bytes", outcome.snapshot_bytes)
      .Set("journal_bytes_before", outcome.journal_bytes_before)
      .Set("journal_bytes_after", outcome.journal_bytes_after)
      .Build()
      .Serialize();
}

std::string EncodePromoteAckFrame(uint64_t id, bool was_follower) {
  return JsonObjectBuilder()
      .Set("type", "promote_ack")
      .Set("id", id)
      .Set("was_follower", was_follower)
      .Set("role", "primary")
      .Build()
      .Serialize();
}

std::string EncodeReplicationEventFrame(uint64_t seq,
                                        const ReplicationEvent& event) {
  JsonObjectBuilder b;
  switch (event.kind) {
    case ReplicationEvent::Kind::kAttach:
      b.Set("type", "repl_snapshot")
          .Set("seq", seq)
          .Set("db", event.db)
          .Set("epoch", event.epoch)
          .Set("fingerprint", event.fingerprint.ToHex())
          .Set("facts", event.facts)
          .Set("delta_ids", EncodeDeltaIdPairs(event.delta_ids));
      break;
    case ReplicationEvent::Kind::kDelta:
      b.Set("type", "repl_delta")
          .Set("seq", seq)
          .Set("db", event.db)
          .Set("epoch", event.epoch)
          .Set("fingerprint", event.fingerprint.ToHex())
          .Set("delta_id", event.delta.id)
          .Set("ops", EncodeDeltaOps(event.delta.ops));
      break;
    case ReplicationEvent::Kind::kDetach:
      b.Set("type", "repl_detach").Set("seq", seq).Set("db", event.db);
      break;
  }
  return b.Build().Serialize();
}

Result<ReplFrame> DecodeReplicationFrame(const std::string& frame) {
  using R = Result<ReplFrame>;
  Result<Json> parsed = Json::Parse(frame);
  if (!parsed.ok()) return R::Error(parsed);
  const Json& object = parsed.value();
  if (!object.is_object()) {
    return R::Error(ErrorCode::kParse,
                    "replication frame must be a JSON object");
  }
  const Json* type = object.Find("type");
  if (type == nullptr || !type->is_string()) {
    return R::Error(ErrorCode::kParse,
                    "replication frame missing string 'type'");
  }
  const std::string& type_name = type->AsString();
  ReplFrame out;
  if (type_name == "repl_snapshot") {
    out.event.kind = ReplicationEvent::Kind::kAttach;
  } else if (type_name == "repl_delta") {
    out.event.kind = ReplicationEvent::Kind::kDelta;
  } else if (type_name == "repl_detach") {
    out.event.kind = ReplicationEvent::Kind::kDetach;
  } else {
    return R::Error(ErrorCode::kUnsupported,
                    "not a replication frame: '" + type_name + "'");
  }
  const Json* seq = object.Find("seq");
  if (seq == nullptr || !seq->is_int() || seq->AsInt() < 0) {
    return R::Error(ErrorCode::kParse,
                    "replication frame missing integer 'seq'");
  }
  out.seq = static_cast<uint64_t>(seq->AsInt());
  const Json* db = object.Find("db");
  if (db == nullptr || !db->is_string() || db->AsString().empty()) {
    return R::Error(ErrorCode::kParse,
                    "replication frame missing string 'db'");
  }
  out.event.db = db->AsString();
  if (out.event.kind == ReplicationEvent::Kind::kDetach) return out;

  const Json* epoch = object.Find("epoch");
  if (epoch == nullptr || !epoch->is_int() || epoch->AsInt() < 0) {
    return R::Error(ErrorCode::kParse,
                    "replication frame missing integer 'epoch'");
  }
  out.event.epoch = static_cast<uint64_t>(epoch->AsInt());
  const Json* fp = object.Find("fingerprint");
  if (fp == nullptr || !fp->is_string() ||
      !DbFingerprint::FromHex(fp->AsString(), &out.event.fingerprint)) {
    return R::Error(ErrorCode::kParse,
                    "replication frame missing 32-hex 'fingerprint'");
  }
  if (out.event.kind == ReplicationEvent::Kind::kAttach) {
    const Json* facts = object.Find("facts");
    if (facts == nullptr || !facts->is_string()) {
      return R::Error(ErrorCode::kParse,
                      "repl_snapshot missing string 'facts'");
    }
    out.event.facts = facts->AsString();
    const Json* ids = object.Find("delta_ids");
    if (ids != nullptr) {
      Result<std::vector<std::pair<std::string, uint64_t>>> decoded =
          DecodeDeltaIdPairs(*ids);
      if (!decoded.ok()) return R::Error(decoded);
      out.event.delta_ids = std::move(decoded.value());
    }
    return out;
  }
  const Json* delta_id = object.Find("delta_id");
  if (delta_id == nullptr || !delta_id->is_string() ||
      delta_id->AsString().empty() ||
      delta_id->AsString().size() > kMaxDeltaIdBytes) {
    return R::Error(ErrorCode::kParse,
                    "repl_delta missing a valid 'delta_id'");
  }
  out.event.delta.id = delta_id->AsString();
  const Json* ops = object.Find("ops");
  if (ops == nullptr) {
    return R::Error(ErrorCode::kParse, "repl_delta missing 'ops'");
  }
  Result<std::vector<DeltaOp>> decoded = DecodeDeltaOps(*ops);
  if (!decoded.ok()) return R::Error(decoded);
  out.event.delta.ops = std::move(decoded.value());
  return out;
}

std::string EncodeCancelAckFrame(uint64_t id, uint64_t target, bool found) {
  return JsonObjectBuilder()
      .Set("type", "cancel_ack")
      .Set("id", id)
      .Set("target", target)
      .Set("found", found)
      .Build()
      .Serialize();
}

Result<WireResponse> DecodeResponse(const std::string& frame) {
  Result<Json> parsed = Json::Parse(frame);
  if (!parsed.ok()) return Result<WireResponse>::Error(parsed);
  const Json& object = parsed.value();
  if (!object.is_object()) {
    return Result<WireResponse>::Error(ErrorCode::kParse,
                                       "response must be a JSON object");
  }
  const Json* type = object.Find("type");
  if (type == nullptr || !type->is_string()) {
    return Result<WireResponse>::Error(ErrorCode::kParse,
                                       "response missing string 'type'");
  }
  WireResponse r;
  r.type = type->AsString();
  r.raw = object;
  auto u64 = [&object](const char* key, uint64_t fallback) -> uint64_t {
    const Json* f = object.Find(key);
    if (f != nullptr && f->is_int() && f->AsInt() >= 0) {
      return static_cast<uint64_t>(f->AsInt());
    }
    return fallback;
  };
  auto str = [&object](const char* key) -> std::string {
    const Json* f = object.Find(key);
    return f != nullptr && f->is_string() ? f->AsString() : std::string();
  };
  r.id = u64("id", 0);
  r.verdict = str("verdict");
  r.code = str("code");
  r.message = str("message");
  r.status = str("status");
  r.samples = u64("samples", 0);
  r.attempts = static_cast<int64_t>(u64("attempts", 0));
  r.latency_us = u64("latency_us", 0);
  r.target = u64("target", 0);
  r.cursor = str("cursor");
  r.start = u64("start", 0);
  r.next = u64("next", 0);
  r.total = u64("total", 0);
  r.answers = u64("answers", 0);
  r.chunks = u64("chunks", 0);
  const Json* tuples = object.Find("tuples");
  if (tuples != nullptr && tuples->is_array()) {
    for (const Json& row : tuples->AsArray()) {
      if (!row.is_array()) {
        return Result<WireResponse>::Error(
            ErrorCode::kParse, "'tuples' entries must be arrays");
      }
      std::vector<std::string> out_row;
      out_row.reserve(row.AsArray().size());
      for (const Json& value : row.AsArray()) {
        if (!value.is_string()) {
          return Result<WireResponse>::Error(
              ErrorCode::kParse, "tuple values must be strings");
        }
        out_row.push_back(value.AsString());
      }
      r.tuples.push_back(std::move(out_row));
    }
  }
  const Json* confidence = object.Find("confidence");
  if (confidence != nullptr && confidence->is_number()) {
    r.confidence = confidence->AsDouble();
  }
  const Json* fatal = object.Find("fatal");
  r.fatal = fatal != nullptr && fatal->is_bool() && fatal->AsBool();
  const Json* found = object.Find("found");
  r.found = found != nullptr && found->is_bool() && found->AsBool();
  return r;
}

}  // namespace cqa
