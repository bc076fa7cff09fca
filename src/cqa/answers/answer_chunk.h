#ifndef CQA_ANSWERS_ANSWER_CHUNK_H_
#define CQA_ANSWERS_ANSWER_CHUNK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cqa/base/value.h"

namespace cqa {

/// One bounded span of a certain-answer enumeration. The enumeration
/// space is the candidate list of `CertainAnswerCandidates` (the projected
/// join of the query's positive atoms, sorted by value spelling); a
/// *position* in `[0, total]` indexes that list. A chunk covers positions
/// `[start, next)` and carries exactly the certain answers found there,
/// in the canonical (lexicographic) order — so concatenating chunks over
/// adjacent spans reproduces the one-shot answer list byte for byte,
/// regardless of where the span boundaries fall.
struct AnswerChunk {
  /// The free variables, in answer-tuple column order.
  std::vector<std::string> free_vars;
  /// Certain answers among candidates `[start, next)`, canonical order.
  std::vector<Tuple> answers;
  /// First candidate position this chunk scanned.
  uint64_t start = 0;
  /// Resume point: the first position *not* scanned. `next == total`
  /// iff the enumeration is complete.
  uint64_t next = 0;
  /// Total candidate positions (the length of the candidate list).
  uint64_t total = 0;
  /// Candidates actually decided by this chunk (== next - start).
  uint64_t scanned = 0;
  /// True iff this chunk finished the enumeration (`next == total`).
  bool done = false;
  /// True iff the chunk stopped early because its budget tripped. A
  /// partial chunk is still *correct* for its span, but it reflects one
  /// request's budget rather than a property of (query, database), so
  /// the serving layer must not cache it.
  bool exhausted = false;
};

}  // namespace cqa

#endif  // CQA_ANSWERS_ANSWER_CHUNK_H_
