#include "cqa/answers/cursor.h"

#include "cqa/base/crc32c.h"
#include "cqa/cache/query_key.h"

namespace cqa {

namespace {

constexpr char kMagic[] = "cqa2";
constexpr size_t kMagicLen = 4;
constexpr size_t kPayloadHex = 64;  // 4 x u64 as 16 hex digits each
constexpr size_t kCrcHex = 8;
constexpr size_t kCursorLen = kMagicLen + kPayloadHex + kCrcHex;

void AppendHex64(uint64_t v, std::string* out) {
  static const char kDigits[] = "0123456789abcdef";
  for (int shift = 60; shift >= 0; shift -= 4) {
    out->push_back(kDigits[(v >> shift) & 0xf]);
  }
}

bool ParseHex64(const std::string& s, size_t offset, uint64_t* out) {
  uint64_t v = 0;
  for (size_t i = 0; i < 16; ++i) {
    char c = s[offset + i];
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
  }
  *out = v;
  return true;
}

}  // namespace

uint64_t AnswerQueryHash(const Query& q,
                         const std::vector<std::string>& free_vars) {
  std::string text = CanonicalQueryKey(q);
  for (const std::string& v : free_vars) {
    text.push_back('\x1f');  // unit separator: never in a variable name
    text += v;
  }
  // FNV-1a 64: deterministic across processes, unlike std::hash.
  uint64_t h = 1469598103934665603ull;
  for (char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string EncodeAnswerCursor(const AnswerCursor& cursor) {
  std::string out = kMagic;
  out.reserve(kCursorLen);
  AppendHex64(cursor.position, &out);
  AppendHex64(cursor.query_hash, &out);
  AppendHex64(cursor.fingerprint.hi, &out);
  AppendHex64(cursor.fingerprint.lo, &out);
  uint32_t crc = Crc32c(out.data(), out.size());
  static const char kDigits[] = "0123456789abcdef";
  for (int shift = 28; shift >= 0; shift -= 4) {
    out.push_back(kDigits[(crc >> shift) & 0xf]);
  }
  return out;
}

Result<AnswerCursor> DecodeAnswerCursor(const std::string& text) {
  using Out = Result<AnswerCursor>;
  if (text.size() != kCursorLen) {
    return Out::Error(ErrorCode::kParse,
                      "cursor must be " + std::to_string(kCursorLen) +
                          " characters, got " + std::to_string(text.size()));
  }
  if (text.compare(0, kMagicLen, kMagic) != 0) {
    return Out::Error(ErrorCode::kParse, "cursor has a bad magic prefix");
  }
  uint64_t crc_claimed = 0;
  // The CRC field is 8 hex digits; reuse the 16-digit parser on a
  // zero-padded copy would complicate things, so parse it directly.
  {
    uint64_t v = 0;
    for (size_t i = 0; i < kCrcHex; ++i) {
      char c = text[kMagicLen + kPayloadHex + i];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<uint64_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<uint64_t>(c - 'a' + 10);
      } else {
        return Out::Error(ErrorCode::kParse, "cursor checksum is not hex");
      }
    }
    crc_claimed = v;
  }
  uint32_t crc_actual = Crc32c(text.data(), kMagicLen + kPayloadHex);
  if (crc_claimed != crc_actual) {
    return Out::Error(ErrorCode::kParse, "cursor checksum mismatch");
  }
  AnswerCursor cursor;
  if (!ParseHex64(text, kMagicLen, &cursor.position) ||
      !ParseHex64(text, kMagicLen + 16, &cursor.query_hash) ||
      !ParseHex64(text, kMagicLen + 32, &cursor.fingerprint.hi) ||
      !ParseHex64(text, kMagicLen + 48, &cursor.fingerprint.lo)) {
    return Out::Error(ErrorCode::kParse, "cursor payload is not hex");
  }
  return cursor;
}

}  // namespace cqa
