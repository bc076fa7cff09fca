#ifndef CQA_DELTA_DELTA_H_
#define CQA_DELTA_DELTA_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cqa/base/result.h"
#include "cqa/cache/fingerprint.h"
#include "cqa/db/database.h"
#include "cqa/serve/net/json.h"

namespace cqa {

/// One mutation: insert or delete a single fact, values by spelling (the
/// wire and journal forms are both text; interning happens at apply time).
struct DeltaOp {
  bool insert = true;
  std::string relation;
  std::vector<std::string> values;
};

/// A batch of mutations applied atomically under one idempotency id. Ops
/// apply in order within the batch (so insert-then-delete of the same fact
/// is a no-op batch, and delete-then-insert reasserts the fact).
struct FactDelta {
  std::string id;
  std::vector<DeltaOp> ops;
};

/// Limits enforced on any delta accepted from the wire or the journal.
inline constexpr size_t kMaxDeltaOps = 100000;
inline constexpr size_t kMaxDeltaIdBytes = 128;

/// Result of applying a delta: the next epoch plus everything the serving
/// layer needs to journal the change and invalidate caches.
struct DeltaApplyOutcome {
  std::shared_ptr<const Database> db;  // null after an in-place apply
  uint64_t inserted = 0;  // facts actually added (duplicates don't count)
  uint64_t deleted = 0;   // facts actually removed (absent ones don't count)
  /// Sorted unique names of relations named by any op — the delta's
  /// *footprint*, intersected against cached queries' footprints to decide
  /// which entries must die. Includes relations where every op was a no-op:
  /// a no-op still asserts facts about that relation's content.
  std::vector<std::string> touched;
  DbFingerprint fingerprint;  // of the new epoch
};

/// Validates and applies `delta` to `*db` in place (the returned outcome's
/// `db` stays null). Validation is all-or-nothing and happens before any
/// mutation: every op must name a known relation with matching arity, else
/// the whole delta is rejected (`kUnsupported`) and `*db` is untouched.
/// Cost: O(delta), plus one deep copy of each touched relation whose
/// storage `*db` still shares with another copy.
Result<DeltaApplyOutcome> ApplyDeltaInPlace(Database* db,
                                            const FactDelta& delta);

/// Validates and applies `delta` to a copy of `base`, producing a new
/// immutable epoch; `base` is never mutated. The epoch shares every
/// relation the delta does not touch — facts and block index — with
/// `base`, so cost is O(relations + touched relations + delta), and
/// readers holding the old epoch (in-flight solves, forked sandbox
/// children) keep a consistent pre-delta view until their shared_ptr
/// drops.
Result<DeltaApplyOutcome> ApplyDeltaToDatabase(const Database& base,
                                               const FactDelta& delta);

/// Serialises ops as the JSON array both the wire frame and the journal
/// payload embed: `[{"op":"insert","relation":"R","values":["a","b"]},...]`.
Json EncodeDeltaOps(const std::vector<DeltaOp>& ops);

/// Strict inverse of `EncodeDeltaOps`. Structural validation only ("op" is
/// "insert"/"delete", fields present and typed, size caps respected) —
/// schema validation (relation exists, arity) is `ApplyDeltaToDatabase`'s
/// job, because it needs a database. Never crashes on hostile input.
Result<std::vector<DeltaOp>> DecodeDeltaOps(const Json& ops);

}  // namespace cqa

#endif  // CQA_DELTA_DELTA_H_
