#ifndef CQA_ANSWERS_CURSOR_H_
#define CQA_ANSWERS_CURSOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cqa/base/result.h"
#include "cqa/cache/fingerprint.h"
#include "cqa/query/query.h"

namespace cqa {

/// A resumable answer-stream position, opaque to clients but verifiable
/// by the server. The cursor binds three things: *where* the stream is
/// (an index into the sorted candidate list), *what* it is enumerating (a
/// hash of the alpha-canonical query plus the free-variable tuple
/// order), and *which database epoch* the positions are meaningful for
/// (the 128-bit content fingerprint — candidate lists are derived from
/// the database, so positions silently shift across epochs). A CRC32C
/// over the payload rejects corrupted or truncated cursors before any
/// field is interpreted.
///
/// Wire spelling: `cqa2` + 64 lowercase hex digits (position, query
/// hash, fingerprint hi/lo — 16 each) + 8 hex digits of CRC32C over the
/// preceding 68 characters. Fixed width, no separators: 76 bytes total.
/// The version digit changes whenever positions come to index a
/// different list: `cqa1` cursors indexed the product of per-variable
/// columns, and fail to decode rather than resume at the wrong place.
struct AnswerCursor {
  uint64_t position = 0;
  uint64_t query_hash = 0;
  DbFingerprint fingerprint;
};

/// Stable 64-bit hash binding a cursor to (canonical query, free-variable
/// order). FNV-1a over a deterministic serialization — identical across
/// processes and runs of the same build, unlike `std::hash`.
uint64_t AnswerQueryHash(const Query& q,
                         const std::vector<std::string>& free_vars);

std::string EncodeAnswerCursor(const AnswerCursor& cursor);

/// Parses and checksum-verifies a cursor. Any malformed spelling — wrong
/// length, bad magic, non-hex digits, CRC mismatch — fails with a typed
/// `kParse`; hostile bytes can never crash or mis-resume. Staleness
/// (fingerprint vs. the serving epoch) is the caller's check: this
/// function only proves the cursor is intact.
Result<AnswerCursor> DecodeAnswerCursor(const std::string& text);

}  // namespace cqa

#endif  // CQA_ANSWERS_CURSOR_H_
