#include "cqa/serve/sandbox/codec.h"

#include <cstdint>
#include <cstring>

namespace cqa {
namespace {

// Payload format version; bumped on any layout change so a parent never
// misreads a frame from a stale child binary.
constexpr uint8_t kCodecVersion = 2;  // v2: parallel accounting fields

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

// Bounds-checked little-endian reader over one payload. Every getter
// returns false on underrun; decoding aborts (→ kWorkerCrashed upstream)
// rather than reading past the frame.
struct Reader {
  const uint8_t* p;
  size_t len;
  size_t pos = 0;

  bool GetU8(uint8_t* v) {
    if (pos + 1 > len) return false;
    *v = p[pos++];
    return true;
  }

  bool GetU32(uint32_t* v) {
    if (pos + 4 > len) return false;
    uint32_t r = 0;
    for (int i = 0; i < 4; ++i) r |= static_cast<uint32_t>(p[pos + i]) << (8 * i);
    pos += 4;
    *v = r;
    return true;
  }

  bool GetU64(uint64_t* v) {
    if (pos + 8 > len) return false;
    uint64_t r = 0;
    for (int i = 0; i < 8; ++i) r |= static_cast<uint64_t>(p[pos + i]) << (8 * i);
    pos += 8;
    *v = r;
    return true;
  }

  bool GetString(std::string* v) {
    uint32_t n = 0;
    if (!GetU32(&n)) return false;
    if (pos + n > len) return false;
    v->assign(reinterpret_cast<const char*>(p + pos), n);
    pos += n;
    return true;
  }
};

void EncodeClassification(std::string* out, const Classification& c) {
  PutU8(out, static_cast<uint8_t>(c.cls));
  PutU8(out, c.weakly_guarded ? 1 : 0);
  PutU8(out, c.guarded ? 1 : 0);
  PutU8(out, c.attack_graph_acyclic ? 1 : 0);
  PutU32(out, static_cast<uint32_t>(c.negated_in_cycle));
  PutU8(out, c.two_cycle.has_value() ? 1 : 0);
  if (c.two_cycle.has_value()) {
    PutU64(out, static_cast<uint64_t>(c.two_cycle->first));
    PutU64(out, static_cast<uint64_t>(c.two_cycle->second));
  }
  PutString(out, c.explanation);
}

bool DecodeClassification(Reader* r, Classification* c) {
  uint8_t cls = 0, wg = 0, g = 0, acyc = 0, has_cycle = 0;
  uint32_t neg = 0;
  if (!r->GetU8(&cls) || !r->GetU8(&wg) || !r->GetU8(&g) ||
      !r->GetU8(&acyc) || !r->GetU32(&neg) || !r->GetU8(&has_cycle)) {
    return false;
  }
  if (cls > static_cast<uint8_t>(CertaintyClass::kUnknown)) return false;
  c->cls = static_cast<CertaintyClass>(cls);
  c->weakly_guarded = wg != 0;
  c->guarded = g != 0;
  c->attack_graph_acyclic = acyc != 0;
  c->negated_in_cycle = static_cast<int>(neg);
  c->two_cycle.reset();
  if (has_cycle != 0) {
    uint64_t a = 0, b = 0;
    if (!r->GetU64(&a) || !r->GetU64(&b)) return false;
    c->two_cycle = {static_cast<size_t>(a), static_cast<size_t>(b)};
  }
  return r->GetString(&c->explanation);
}

}  // namespace

std::string EncodeOutcome(const Result<SolveReport>& outcome) {
  std::string payload;
  PutU8(&payload, kCodecVersion);
  PutU8(&payload, outcome.ok() ? 1 : 0);
  if (!outcome.ok()) {
    PutU8(&payload, static_cast<uint8_t>(outcome.code()));
    PutString(&payload, outcome.error());
  } else {
    const SolveReport& rep = *outcome;
    PutU8(&payload, static_cast<uint8_t>(rep.verdict));
    PutU8(&payload, rep.certain ? 1 : 0);
    uint64_t conf_bits = 0;
    static_assert(sizeof(conf_bits) == sizeof(rep.confidence));
    std::memcpy(&conf_bits, &rep.confidence, sizeof(conf_bits));
    PutU64(&payload, conf_bits);
    PutU64(&payload, rep.samples);
    PutU8(&payload, static_cast<uint8_t>(rep.used));
    PutU32(&payload, static_cast<uint32_t>(rep.parallelism));
    PutU32(&payload, static_cast<uint32_t>(rep.components));
    PutU64(&payload, rep.steals);
    EncodeClassification(&payload, rep.classification);
    PutU32(&payload, static_cast<uint32_t>(rep.stages.size()));
    for (const SolveStage& st : rep.stages) {
      PutU8(&payload, static_cast<uint8_t>(st.method));
      PutU8(&payload, st.ok ? 1 : 0);
      PutU8(&payload, st.error.has_value() ? 1 : 0);
      PutU8(&payload,
            st.error.has_value() ? static_cast<uint8_t>(*st.error) : 0);
      PutU64(&payload, st.steps);
      PutU64(&payload, static_cast<uint64_t>(st.elapsed.count()));
    }
  }
  std::string frame;
  frame.reserve(4 + payload.size());
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  frame.append(payload);
  return frame;
}

bool OutcomeFrameComplete(const std::string& data, size_t* frame_size) {
  if (data.size() < 4) return false;
  Reader r{reinterpret_cast<const uint8_t*>(data.data()), data.size()};
  uint32_t n = 0;
  if (!r.GetU32(&n)) return false;
  if (data.size() < 4u + n) return false;
  if (frame_size != nullptr) *frame_size = 4u + n;
  return true;
}

bool DecodeOutcome(const std::string& data, Result<SolveReport>* out) {
  size_t frame_size = 0;
  if (!OutcomeFrameComplete(data, &frame_size)) return false;
  Reader r{reinterpret_cast<const uint8_t*>(data.data() + 4),
           frame_size - 4};
  uint8_t version = 0, ok = 0;
  if (!r.GetU8(&version) || version != kCodecVersion) return false;
  if (!r.GetU8(&ok)) return false;
  if (ok == 0) {
    uint8_t code = 0;
    std::string message;
    if (!r.GetU8(&code) || !r.GetString(&message)) return false;
    if (code > static_cast<uint8_t>(ErrorCode::kInternal)) return false;
    *out = Result<SolveReport>::Error(static_cast<ErrorCode>(code),
                                      std::move(message));
    return true;
  }
  SolveReport rep;
  uint8_t verdict = 0, certain = 0, used = 0;
  uint64_t conf_bits = 0;
  if (!r.GetU8(&verdict) || !r.GetU8(&certain) || !r.GetU64(&conf_bits) ||
      !r.GetU64(&rep.samples) || !r.GetU8(&used)) {
    return false;
  }
  if (verdict > static_cast<uint8_t>(Verdict::kExhausted)) return false;
  if (used >= std::size(kSolverMethods)) return false;
  rep.verdict = static_cast<Verdict>(verdict);
  rep.certain = certain != 0;
  std::memcpy(&rep.confidence, &conf_bits, sizeof(rep.confidence));
  rep.used = static_cast<SolverMethod>(used);
  uint32_t parallelism = 0, components = 0;
  if (!r.GetU32(&parallelism) || !r.GetU32(&components) ||
      !r.GetU64(&rep.steals)) {
    return false;
  }
  // Pool width is bounded by the wire/CLI clamp (and a fresh report says
  // 1); a value outside sanity means a corrupt frame, not a huge pool.
  if (parallelism > 4096 || components > (1u << 24)) return false;
  rep.parallelism = static_cast<int>(parallelism);
  rep.components = static_cast<int>(components);
  if (!DecodeClassification(&r, &rep.classification)) return false;
  uint32_t n_stages = 0;
  if (!r.GetU32(&n_stages)) return false;
  // A stage occupies at least 20 bytes; reject counts the remaining
  // payload cannot possibly hold instead of reserving from a corrupt value.
  if (n_stages > (r.len - r.pos) / 20 + 1) return false;
  rep.stages.reserve(n_stages);
  for (uint32_t i = 0; i < n_stages; ++i) {
    SolveStage st;
    uint8_t method = 0, st_ok = 0, has_err = 0, err = 0;
    uint64_t steps = 0, elapsed = 0;
    if (!r.GetU8(&method) || !r.GetU8(&st_ok) || !r.GetU8(&has_err) ||
        !r.GetU8(&err) || !r.GetU64(&steps) || !r.GetU64(&elapsed)) {
      return false;
    }
    if (method >= std::size(kSolverMethods)) return false;
    st.method = static_cast<SolverMethod>(method);
    st.ok = st_ok != 0;
    if (has_err != 0) {
      if (err > static_cast<uint8_t>(ErrorCode::kInternal)) return false;
      st.error = static_cast<ErrorCode>(err);
    }
    st.steps = steps;
    st.elapsed = std::chrono::microseconds(static_cast<int64_t>(elapsed));
    rep.stages.push_back(st);
  }
  *out = Result<SolveReport>(std::move(rep));
  return true;
}

}  // namespace cqa
