#include "cqa/cache/fingerprint.h"

namespace cqa {

DbFingerprint FingerprintDatabase(const Database& db) {
  // The canonical hashing (per-fact digests folded through the
  // order-independent multiset combine) lives in `Database`, which keeps
  // the accumulator current on every insert and delete — reading it never
  // rehashes the facts.
  auto [hi, lo] = db.ContentDigest();
  DbFingerprint fp;
  fp.hi = hi;
  fp.lo = lo;
  return fp;
}

}  // namespace cqa
