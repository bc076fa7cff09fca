#ifndef CQA_DB_DATABASE_H_
#define CQA_DB_DATABASE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cqa/base/hash.h"
#include "cqa/base/result.h"
#include "cqa/base/value.h"
#include "cqa/db/fact.h"
#include "cqa/db/id_table.h"
#include "cqa/query/schema.h"

namespace cqa {

/// Read-only view over a set of facts. Implemented by `Database` (all facts)
/// and `Repair` (one fact per block). Query and first-order evaluation run
/// against this interface so the same evaluator serves both.
class FactView {
 public:
  virtual ~FactView() = default;

  virtual const Schema& schema() const = 0;

  /// Calls `fn` for every fact of `relation`; stops early if `fn` returns
  /// false. Unknown relations yield no facts.
  virtual void ForEachFact(
      Symbol relation,
      const std::function<bool(const Tuple&)>& fn) const = 0;

  /// Calls `fn` for every fact of `relation` whose key prefix equals `key`
  /// (i.e. one block). The default filters `ForEachFact`; implementations
  /// with a block index override this with an O(block) lookup.
  virtual void ForEachFactWithKey(
      Symbol relation, const Tuple& key,
      const std::function<bool(const Tuple&)>& fn) const;

  /// Membership test.
  virtual bool Contains(Symbol relation, const Tuple& values) const = 0;

  /// All constants occurring in any fact.
  virtual std::vector<Value> ActiveDomain() const = 0;
};

/// A (possibly inconsistent) database: a finite set of facts over a schema
/// with one primary key per relation. Maintains a block index — a *block* is
/// a maximal set of key-equal facts of one relation; repairs pick one fact
/// per block.
///
/// Storage is per relation and shared copy-on-write: a copy shares every
/// relation's facts *and* block index with its source until one side
/// mutates that relation, so copying costs O(relations) and a mutation
/// deep-copies only the relation it touches. A relation's index is a few
/// flat arrays of ints (hash tables, block records, a block member pool),
/// so that deep copy allocates one buffer per fact and O(1) more. Every
/// index (facts, blocks, content digest) is maintained eagerly by
/// `AddFact`/`RemoveFact`; there is no lazily rebuilt per-relation state,
/// so sibling copies may be read from any number of threads while one of
/// them is mutated. Const access is thread-safe; mutating one instance
/// concurrently with any other access to *that instance* is a data race,
/// as usual.
class Database : public FactView {
 public:
  /// One block: all facts of `relation` sharing one key. A plain record
  /// that owns no memory: its members are a slice of the relation's member
  /// pool, and its key is the key prefix of any member. Read them through
  /// `BlockKey` and `BlockFact`.
  struct Block {
    Symbol relation = kNoSymbol;
    int32_t begin = 0;     // first pool slot of the member slice
    int32_t count = 0;     // members, in insertion order
    int32_t capacity = 0;  // pool slots the slice owns

    size_t size() const { return static_cast<size_t>(count); }
  };

  explicit Database(Schema schema) : schema_(std::move(schema)) {
    SyncLayout();
  }

  /// Parses facts (see `ParseFacts` grammar) into a database, inferring the
  /// schema from the first occurrence of each relation.
  static Result<Database> FromText(std::string_view text);

  /// Inserts a fact (set semantics: duplicates are ignored). Returns an
  /// error if the relation is unknown or the arity mismatches. Returns true
  /// if the fact was new. O(1) amortized, plus a copy of the relation if
  /// its storage is shared with another copy.
  Result<bool> AddFact(Symbol relation, Tuple values);
  Result<bool> AddFact(std::string_view relation, Tuple values);
  void AddFactOrDie(std::string_view relation, Tuple values);

  /// Registers `relation` into the schema if absent, then inserts.
  Result<bool> AddFactAutoSchema(std::string_view relation, int key_len,
                                 Tuple values);

  /// Inserts every fact of `other` (schemas must agree on shared relations).
  Result<bool> AddAll(const Database& other);

  /// Removes a fact if present; returns true if removed. O(block): the
  /// relation's fact array compacts swap-with-last and, when a block
  /// empties, so does its block list — block ids may be renumbered.
  bool RemoveFact(Symbol relation, const Tuple& values);

  // FactView:
  const Schema& schema() const override { return schema_; }
  void ForEachFact(Symbol relation,
                   const std::function<bool(const Tuple&)>& fn) const override;
  void ForEachFactWithKey(
      Symbol relation, const Tuple& key,
      const std::function<bool(const Tuple&)>& fn) const override;
  bool Contains(Symbol relation, const Tuple& values) const override;
  std::vector<Value> ActiveDomain() const override;

  /// All facts of one relation (empty for unknown relations).
  const std::vector<Tuple>& FactsOf(Symbol relation) const;

  size_t NumFacts() const;
  size_t NumFacts(Symbol relation) const { return FactsOf(relation).size(); }

  /// Global block ids number the blocks of all relations consecutively:
  /// relation by relation in schema order, each relation's blocks in its
  /// own (local) order. Ids are stable until the next mutation.
  size_t NumBlocks() const {
    return block_offset_.empty() ? 0 : block_offset_.back();
  }

  /// The block with global id `b` (< NumBlocks()). O(log relations).
  const Block& block(int b) const;

  /// The key of block `b`: the key prefix of its first member fact, valid
  /// until the next mutation.
  std::span<const Value> BlockKey(int b) const;

  /// Member `member` (< block(b).size()) of block `b`. Members keep their
  /// insertion order; removing one shifts the later ones down.
  const Tuple& BlockFact(int b, size_t member) const;

  /// The blocks of one relation in local order: local block i has global
  /// id `FirstBlockId(relation) + i`. Empty for unknown or empty relations.
  const std::vector<Block>& BlocksOf(Symbol relation) const;
  int FirstBlockId(Symbol relation) const;

  /// Global id of the block containing the given fact, if present.
  std::optional<int> BlockOf(Symbol relation, const Tuple& values) const;

  /// Global id of the block with the given key, if any fact has that key.
  std::optional<int> BlockWithKey(Symbol relation,
                                  std::span<const Value> key) const;

  /// The facts whose key prefix equals `key` (one block), resolved through
  /// the block index — O(1) plus the block size, instead of a relation scan.
  /// Empty if no such block. `ForEachFactWithKey` walks the same facts
  /// without building the vector.
  std::vector<const Tuple*> FactsWithKey(Symbol relation,
                                         std::span<const Value> key) const;

  /// Query-independent partition of the blocks into value-connected
  /// components: two blocks land in one component iff some facts of theirs
  /// share a constant, transitively closed. Any query whose positive atoms
  /// are variable-connected can only join facts along shared constants, so
  /// blocks in different components never interact through such a query —
  /// the soundness basis of the parallel component solver (see
  /// cqa/parallel/decompose.h and docs/THEORY.md). This partition is
  /// deliberately coarser than any per-query conflict graph: coarsening
  /// only merges components, which is always sound.
  struct ComponentIndex {
    /// For each global block id, its component id. Component ids are
    /// dense, 0-based, and numbered in order of first appearance over the
    /// global block ids — deterministic for a given block order.
    std::vector<int> component_of_block;
    int num_components = 0;
  };

  /// The component index, built on first use (O(facts); only the parallel
  /// exponential path asks for it) and memoized on this instance —
  /// thread-safe for const access. A copy starts without it and any
  /// mutation drops it: an insert may bridge components, a delete may
  /// split one and renumber block ids.
  const ComponentIndex& BlockComponents() const;

  /// True iff every block is a singleton.
  bool IsConsistent() const;

  /// 128-bit content digest over the fact *multiset*: every fact hashes
  /// independently (salted with its relation's name/arity/key length) and
  /// the per-fact digests fold through the order-independent `SetHash128`
  /// combine — so two loads that discovered the same facts in any order
  /// digest equally. The accumulator is updated by every insert and delete
  /// and travels with every copy, so this is O(1). The value
  /// `FingerprintDatabase` wraps.
  std::pair<uint64_t, uint64_t> ContentDigest() const;

  /// The digest of one fact as it enters the multiset combine. Exposed so
  /// the delta journal can reason about fingerprints without a database.
  static Hash128::Digest FactContentDigest(const RelationSchema& rs,
                                           const Tuple& fact);

  /// Number of repairs = product of block sizes, capped at `cap`.
  uint64_t CountRepairs(uint64_t cap = UINT64_MAX) const;

  std::string ToString() const;

  /// Serialises in the `ParseFacts` grammar (quoted values, "|" key
  /// separator), so that `Database::FromText(db.ToText())` round-trips.
  std::string ToText() const;

 private:
  /// One relation's facts with its block index. Shared between copies and
  /// never mutated while shared (see MutableRelation). Everything but
  /// `facts` is trivially copyable: the hash tables hash and compare
  /// through `facts`, and a block's members are a slice
  /// [begin, begin + count) of `members`, owning `capacity` slots. A full
  /// slice moves to the pool's end with twice the room, a quarter-full one
  /// gives up half its room in place, and the pool compacts once most of
  /// it is unowned — amortized O(1) per member insert or delete.
  struct RelationData {
    IdTable fact_index;    // fact id, keyed by the whole fact
    IdTable block_by_key;  // local block id, keyed by the key prefix
    std::vector<Block> blocks;
    std::vector<int32_t> members;        // block member pool (fact ids)
    std::vector<int32_t> fact_to_block;  // local block id of each fact
    int32_t unowned_members = 0;         // pool slots no block owns
    // Declared last so a copy allocates the facts last and their values
    // land in contiguous memory, which relation scans (the hottest read)
    // depend on.
    std::vector<Tuple> facts;

    /// Appends fact `idx` to local block `lb`'s member slice.
    void AppendMember(int lb, int32_t idx);
    /// Removes fact `idx` from local block `lb`'s slice, keeping the other
    /// members in order. An emptied block's room counts as unowned; the
    /// caller drops the block record.
    void RemoveMember(int lb, int32_t idx);
    /// Rewrites the pool without its unowned slots once they are most of
    /// it.
    void CompactMembersIfSparse();
  };

  /// The memoized component partition. Copying yields an empty memo: the
  /// partition is cheap to rebuild relative to the engines that want it,
  /// and most copies are about to be mutated.
  struct ComponentsMemo {
    ComponentsMemo() = default;
    ComponentsMemo(const ComponentsMemo&) {}
    ComponentsMemo& operator=(const ComponentsMemo&) {
      valid.store(false, std::memory_order_release);
      return *this;
    }
    std::mutex mu;
    std::atomic<bool> valid{false};
    ComponentIndex index;
  };

  /// Grows `relations_` and `block_offset_` to the schema's size.
  void SyncLayout();

  /// The relation at schema position `pos`, or null if it has no storage.
  const RelationData* RelationAt(int pos) const {
    return pos < 0 ? nullptr : relations_[static_cast<size_t>(pos)].get();
  }

  /// The relation's data, cloned first if it is shared with another
  /// Database copy (copy-on-write) — a mutation must never be visible
  /// through a sibling epoch. Creates the storage when absent.
  RelationData& MutableRelation(int pos);

  /// Enters fact `idx` of the relation at `pos`, the highest-numbered fact
  /// not yet indexed, into its block index and the content digest.
  void IndexFact(int pos, RelationData* rd, int idx);

  /// The local id of the fact `values` (of the relation at `pos`), or -1.
  int32_t FindFact(int pos, const RelationData& rd,
                   std::span<const Value> values) const;

  /// The local id of the block with key `key` (of the relation at `pos`),
  /// or -1.
  int32_t FindBlock(int pos, const RelationData& rd,
                    std::span<const Value> key) const;

  /// The schema position of the relation holding global block `b`.
  size_t PositionOfBlock(int b) const;

  /// Adds `delta` to the global offset of every relation after `pos`.
  void ShiftBlockOffsets(int pos, int delta);

  Schema schema_;
  // Indexed by schema position; null until the relation's first fact.
  std::vector<std::shared_ptr<RelationData>> relations_;
  // block_offset_[p] = global id of relation p's first block;
  // block_offset_.back() = NumBlocks().
  std::vector<int> block_offset_;
  SetHash128 digest_acc_;
  mutable ComponentsMemo components_;
};

}  // namespace cqa

#endif  // CQA_DB_DATABASE_H_
