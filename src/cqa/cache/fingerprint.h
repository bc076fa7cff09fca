#ifndef CQA_CACHE_FINGERPRINT_H_
#define CQA_CACHE_FINGERPRINT_H_

#include <cstdint>
#include <functional>
#include <string>

#include "cqa/base/hash.h"
#include "cqa/db/database.h"

namespace cqa {

/// A stable 128-bit identity for a database instance, computed once at load
/// and used as half of every result-cache key. Two databases with the same
/// facts (same relation names, signatures, and value spellings) fingerprint
/// equally regardless of insertion order, interner state, or process — the
/// hash is taken over a canonical serialisation, never over interned ids.
struct DbFingerprint {
  uint64_t hi = 0;
  uint64_t lo = 0;

  bool valid() const { return hi != 0 || lo != 0; }

  std::string ToHex() const {
    Hash128::Digest d;
    d.hi = hi;
    d.lo = lo;
    return d.ToHex();
  }

  /// Parses the 32-lowercase-hex form `ToHex` emits. Returns false (and
  /// leaves `out` untouched) on any other input. Shared by the journal,
  /// snapshot, and replication decoders, which all carry fingerprints as
  /// hex strings on the wire / on disk.
  static bool FromHex(const std::string& hex, DbFingerprint* out) {
    if (hex.size() != 32) return false;
    uint64_t words[2] = {0, 0};
    for (int p = 0; p < 2; ++p) {
      for (int i = 0; i < 16; ++i) {
        char c = hex[static_cast<size_t>(p * 16 + i)];
        uint64_t nibble;
        if (c >= '0' && c <= '9') {
          nibble = static_cast<uint64_t>(c - '0');
        } else if (c >= 'a' && c <= 'f') {
          nibble = static_cast<uint64_t>(c - 'a' + 10);
        } else {
          return false;
        }
        words[p] = (words[p] << 4) | nibble;
      }
    }
    out->hi = words[0];
    out->lo = words[1];
    return true;
  }

  friend bool operator==(const DbFingerprint& a, const DbFingerprint& b) {
    return a.hi == b.hi && a.lo == b.lo;
  }
  friend bool operator!=(const DbFingerprint& a, const DbFingerprint& b) {
    return !(a == b);
  }
};

/// Fingerprints `db` over its fact multiset: each fact hashes independently
/// (salted with its relation's name/arity/key length) and the digests fold
/// through the order-independent `SetHash128` combine. Insertion order,
/// interner state, and process never matter — and each insert or delete
/// updates the digest in O(1) (see `Database::ContentDigest`), which is
/// what keeps live-updated epochs cheap to re-fingerprint. O(1).
DbFingerprint FingerprintDatabase(const Database& db);

struct DbFingerprintHash {
  size_t operator()(const DbFingerprint& fp) const {
    return static_cast<size_t>(fp.hi ^ (fp.lo * 0x9e3779b97f4a7c15ull));
  }
};

}  // namespace cqa

#endif  // CQA_CACHE_FINGERPRINT_H_
