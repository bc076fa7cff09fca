#include "cqa/db/database.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <unordered_map>

#include "cqa/base/hash.h"
#include "cqa/base/union_find.h"
#include "cqa/query/parser.h"

namespace cqa {

namespace {

// The in-memory hash of a value sequence (a whole fact or a key prefix)
// for the relation index tables. Interned ids are per process, so this
// never leaves the process; nothing iterates the tables, so it cannot
// reach an observable order either.
uint32_t HashValues(std::span<const Value> values) {
  uint64_t h = values.size();
  for (Value v : values) {
    h = (h ^ static_cast<uint32_t>(v.id())) * 0x9e3779b97f4a7c15ull;
    h ^= h >> 29;
  }
  return static_cast<uint32_t>(Hash128::Avalanche(h));
}

bool SameValues(std::span<const Value> a, const Tuple& fact) {
  return std::equal(a.begin(), a.end(), fact.begin());
}

}  // namespace

Result<Database> Database::FromText(std::string_view text) {
  Result<std::vector<ParsedFact>> facts = ParseFacts(text);
  if (!facts.ok()) return Result<Database>::Error(facts);
  Database db{Schema()};
  std::vector<int> positions;  // schema position of each parsed fact
  positions.reserve(facts->size());
  for (const ParsedFact& f : *facts) {
    Result<Symbol> r = db.schema_.AddRelation(
        f.relation, static_cast<int>(f.values.size()), f.key_len);
    // Schema conflicts in a fact file are still malformed input.
    if (!r.ok()) return Result<Database>::Error(ErrorCode::kParse, r.error());
    positions.push_back(db.schema_.PositionOf(r.value()));
  }
  db.SyncLayout();
  // Bulk load: all facts first, then each relation's block index in one
  // pass. Allocating the index after the facts, not interleaved with them,
  // keeps each relation's fact values contiguous in memory, which relation
  // scans (the hottest read) depend on.
  for (size_t i = 0; i < positions.size(); ++i) {
    RelationData& rd = db.MutableRelation(positions[i]);
    Tuple& values = facts.value()[i].values;
    if (db.FindFact(positions[i], rd, values) < 0) {
      rd.fact_index.Insert(HashValues(values),
                           static_cast<int32_t>(rd.facts.size()));
      rd.facts.push_back(std::move(values));
    }
  }
  for (size_t pos = 0; pos < db.relations_.size(); ++pos) {
    RelationData* rd = db.relations_[pos].get();
    if (rd == nullptr) continue;
    for (size_t i = 0; i < rd->facts.size(); ++i) {
      db.IndexFact(static_cast<int>(pos), rd, static_cast<int>(i));
    }
  }
  return db;
}

void Database::SyncLayout() {
  const size_t n = schema_.relations().size();
  relations_.resize(n);
  block_offset_.resize(n + 1,
                       block_offset_.empty() ? 0 : block_offset_.back());
}

Database::RelationData& Database::MutableRelation(int pos) {
  std::shared_ptr<RelationData>& rd = relations_[static_cast<size_t>(pos)];
  if (rd == nullptr) {
    rd = std::make_shared<RelationData>();
  } else if (rd.use_count() > 1) {
    // Shared with a sibling copy (another epoch): deep-copy this relation,
    // block index included, before mutating so the sibling keeps its
    // snapshot untouched.
    rd = std::make_shared<RelationData>(*rd);
  }
  return *rd;
}

void Database::ShiftBlockOffsets(int pos, int delta) {
  for (size_t p = static_cast<size_t>(pos) + 1; p < block_offset_.size();
       ++p) {
    block_offset_[p] += delta;
  }
}

Result<bool> Database::AddFact(Symbol relation, Tuple values) {
  const int pos = schema_.PositionOf(relation);
  if (pos < 0) {
    return Result<bool>::Error("unknown relation '" + SymbolName(relation) +
                               "'");
  }
  const RelationSchema& rs = schema_.relations()[static_cast<size_t>(pos)];
  if (static_cast<int>(values.size()) != rs.arity) {
    return Result<bool>::Error(
        "arity mismatch for '" + SymbolName(relation) + "': got " +
        std::to_string(values.size()) + ", expected " +
        std::to_string(rs.arity));
  }
  // Membership check before MutableRelation: a duplicate insert must not
  // trigger a copy-on-write clone.
  const RelationData* existing = RelationAt(pos);
  if (existing != nullptr && FindFact(pos, *existing, values) >= 0) {
    return false;
  }
  RelationData& rd = MutableRelation(pos);
  const int idx = static_cast<int>(rd.facts.size());
  rd.fact_index.Insert(HashValues(values), idx);
  rd.facts.push_back(std::move(values));
  IndexFact(pos, &rd, idx);
  components_.valid.store(false, std::memory_order_release);
  return true;
}

void Database::IndexFact(int pos, RelationData* rd, int idx) {
  const RelationSchema& rs = schema_.relations()[static_cast<size_t>(pos)];
  const Tuple& fact = rd->facts[static_cast<size_t>(idx)];
  digest_acc_.Add(FactContentDigest(rs, fact));
  const std::span<const Value> key(fact.data(),
                                   static_cast<size_t>(rs.key_len));
  int lb = FindBlock(pos, *rd, key);
  if (lb < 0) {
    lb = static_cast<int>(rd->blocks.size());
    rd->blocks.push_back(Block{rs.name, 0, 0, 0});
    rd->block_by_key.Insert(HashValues(key), lb);
    ShiftBlockOffsets(pos, 1);
  }
  rd->AppendMember(lb, idx);
  rd->fact_to_block.push_back(lb);
  rd->CompactMembersIfSparse();
}

void Database::RelationData::AppendMember(int lb, int32_t idx) {
  Block& blk = blocks[static_cast<size_t>(lb)];
  if (blk.count == blk.capacity) {
    const int32_t room = blk.capacity == 0 ? 1 : 2 * blk.capacity;
    const auto end = static_cast<int32_t>(members.size());
    if (blk.capacity > 0 && blk.begin + blk.capacity == end) {
      // The slice ends the pool: grow it in place.
      members.resize(static_cast<size_t>(blk.begin + room), -1);
    } else {
      members.resize(static_cast<size_t>(end + room), -1);
      std::copy_n(members.begin() + blk.begin, blk.count,
                  members.begin() + end);
      unowned_members += blk.capacity;
      blk.begin = end;
    }
    blk.capacity = room;
  }
  members[static_cast<size_t>(blk.begin + blk.count++)] = idx;
}

void Database::RelationData::RemoveMember(int lb, int32_t idx) {
  Block& blk = blocks[static_cast<size_t>(lb)];
  int32_t* first = members.data() + blk.begin;
  int32_t* at = std::find(first, first + blk.count, idx);
  std::copy(at + 1, first + blk.count, at);
  --blk.count;
  if (blk.count == 0) {
    unowned_members += blk.capacity;  // the caller drops the block
  } else if (blk.count * 4 <= blk.capacity) {
    unowned_members += blk.capacity - blk.capacity / 2;
    blk.capacity /= 2;
  }
}

void Database::RelationData::CompactMembersIfSparse() {
  if (unowned_members <= 32 ||
      static_cast<size_t>(unowned_members) * 2 <= members.size()) {
    return;
  }
  // Rewrite the pool slice by slice in block order; every slice keeps its
  // room, so the compaction costs O(pool) once per O(pool) freed slots.
  std::vector<int32_t> pool;
  pool.reserve(members.size() - static_cast<size_t>(unowned_members));
  for (Block& blk : blocks) {
    const auto begin = static_cast<int32_t>(pool.size());
    pool.insert(pool.end(), members.begin() + blk.begin,
                members.begin() + blk.begin + blk.count);
    pool.resize(static_cast<size_t>(begin + blk.capacity), -1);
    blk.begin = begin;
  }
  members.swap(pool);
  unowned_members = 0;
}

int32_t Database::FindFact(int pos, const RelationData& rd,
                           std::span<const Value> values) const {
  if (static_cast<int>(values.size()) !=
      schema_.relations()[static_cast<size_t>(pos)].arity) {
    return -1;
  }
  return rd.fact_index.Find(HashValues(values), [&](int32_t f) {
    return SameValues(values, rd.facts[static_cast<size_t>(f)]);
  });
}

int32_t Database::FindBlock(int pos, const RelationData& rd,
                            std::span<const Value> key) const {
  if (static_cast<int>(key.size()) !=
      schema_.relations()[static_cast<size_t>(pos)].key_len) {
    return -1;
  }
  return rd.block_by_key.Find(HashValues(key), [&](int32_t lb) {
    const Block& blk = rd.blocks[static_cast<size_t>(lb)];
    return SameValues(
        key, rd.facts[static_cast<size_t>(
                 rd.members[static_cast<size_t>(blk.begin)])]);
  });
}

Result<bool> Database::AddFact(std::string_view relation, Tuple values) {
  return AddFact(InternSymbol(relation), std::move(values));
}

void Database::AddFactOrDie(std::string_view relation, Tuple values) {
  Result<bool> r = AddFact(relation, std::move(values));
  assert(r.ok());
  (void)r;
}

Result<bool> Database::AddFactAutoSchema(std::string_view relation,
                                         int key_len, Tuple values) {
  Result<Symbol> rel = schema_.AddRelation(
      relation, static_cast<int>(values.size()), key_len);
  if (!rel.ok()) return Result<bool>::Error(rel.error());
  SyncLayout();
  return AddFact(rel.value(), std::move(values));
}

Result<bool> Database::AddAll(const Database& other) {
  for (const RelationSchema& rs : other.schema_.relations()) {
    Result<Symbol> r =
        schema_.AddRelation(SymbolName(rs.name), rs.arity, rs.key_len);
    if (!r.ok()) return Result<bool>::Error(r.error());
  }
  SyncLayout();
  for (const RelationSchema& rs : other.schema_.relations()) {
    for (const Tuple& t : other.FactsOf(rs.name)) {
      Result<bool> r = AddFact(rs.name, t);
      if (!r.ok()) return r;
    }
  }
  return true;
}

bool Database::RemoveFact(Symbol relation, const Tuple& values) {
  const int pos = schema_.PositionOf(relation);
  const RelationData* existing = RelationAt(pos);
  if (existing == nullptr) return false;
  const int idx = FindFact(pos, *existing, values);
  if (idx < 0) return false;
  const RelationSchema& rs = schema_.relations()[static_cast<size_t>(pos)];
  // Hashed up front: `values` may alias the fact about to be overwritten.
  const uint32_t fact_hash = HashValues(values);
  const uint32_t key_hash = HashValues(
      std::span<const Value>(values.data(), static_cast<size_t>(rs.key_len)));
  digest_acc_.Remove(FactContentDigest(rs, values));
  components_.valid.store(false, std::memory_order_release);
  RelationData& rd = MutableRelation(pos);
  const int last = static_cast<int>(rd.facts.size()) - 1;

  const int removed_block = rd.fact_to_block[static_cast<size_t>(idx)];
  rd.RemoveMember(removed_block, idx);
  rd.fact_index.Erase(fact_hash, idx);
  if (idx != last) {
    // Swap-with-last compaction: the last fact moves into the hole, so its
    // index entry and its block membership entry both retarget to `idx`.
    rd.facts[static_cast<size_t>(idx)] =
        std::move(rd.facts[static_cast<size_t>(last)]);
    rd.fact_index.Rename(HashValues(rd.facts[static_cast<size_t>(idx)]),
                         last, idx);
    const int moved_block = rd.fact_to_block[static_cast<size_t>(last)];
    const Block& moved = rd.blocks[static_cast<size_t>(moved_block)];
    int32_t* first = rd.members.data() + moved.begin;
    *std::find(first, first + moved.count, last) = idx;
    rd.fact_to_block[static_cast<size_t>(idx)] = moved_block;
  }
  rd.facts.pop_back();
  rd.fact_to_block.pop_back();

  if (rd.blocks[static_cast<size_t>(removed_block)].count == 0) {
    // The block emptied: swap-with-last on the relation's block list,
    // retargeting the moved block's key entry and its members' entries.
    const int end_block = static_cast<int>(rd.blocks.size()) - 1;
    rd.block_by_key.Erase(key_hash, removed_block);
    if (removed_block != end_block) {
      const Block moved = rd.blocks[static_cast<size_t>(end_block)];
      rd.blocks[static_cast<size_t>(removed_block)] = moved;
      const Tuple& head = rd.facts[static_cast<size_t>(
          rd.members[static_cast<size_t>(moved.begin)])];
      rd.block_by_key.Rename(
          HashValues(std::span<const Value>(head.data(),
                                            static_cast<size_t>(rs.key_len))),
          end_block, removed_block);
      for (int32_t m = 0; m < moved.count; ++m) {
        rd.fact_to_block[static_cast<size_t>(
            rd.members[static_cast<size_t>(moved.begin + m)])] =
            removed_block;
      }
    }
    rd.blocks.pop_back();
    ShiftBlockOffsets(pos, -1);
  }
  rd.CompactMembersIfSparse();
  return true;
}

void FactView::ForEachFactWithKey(
    Symbol relation, const Tuple& key,
    const std::function<bool(const Tuple&)>& fn) const {
  ForEachFact(relation, [&](const Tuple& t) {
    if (std::equal(key.begin(), key.end(), t.begin())) return fn(t);
    return true;
  });
}

void Database::ForEachFactWithKey(
    Symbol relation, const Tuple& key,
    const std::function<bool(const Tuple&)>& fn) const {
  const int pos = schema_.PositionOf(relation);
  const RelationData* rd = RelationAt(pos);
  if (rd == nullptr) return;
  const int32_t lb = FindBlock(pos, *rd, key);
  if (lb < 0) return;
  const Block& blk = rd->blocks[static_cast<size_t>(lb)];
  for (int32_t m = 0; m < blk.count; ++m) {
    if (!fn(rd->facts[static_cast<size_t>(
            rd->members[static_cast<size_t>(blk.begin + m)])])) {
      return;
    }
  }
}

void Database::ForEachFact(Symbol relation,
                           const std::function<bool(const Tuple&)>& fn) const {
  for (const Tuple& t : FactsOf(relation)) {
    if (!fn(t)) return;
  }
}

bool Database::Contains(Symbol relation, const Tuple& values) const {
  const int pos = schema_.PositionOf(relation);
  const RelationData* rd = RelationAt(pos);
  return rd != nullptr && FindFact(pos, *rd, values) >= 0;
}

std::vector<Value> Database::ActiveDomain() const {
  std::set<Value> seen;
  for (const std::shared_ptr<RelationData>& rd : relations_) {
    if (rd == nullptr) continue;
    for (const Tuple& t : rd->facts) {
      for (Value v : t) seen.insert(v);
    }
  }
  return std::vector<Value>(seen.begin(), seen.end());
}

const std::vector<Tuple>& Database::FactsOf(Symbol relation) const {
  static const std::vector<Tuple>& empty = *new std::vector<Tuple>();
  const RelationData* rd = RelationAt(schema_.PositionOf(relation));
  return rd == nullptr ? empty : rd->facts;
}

size_t Database::NumFacts() const {
  size_t n = 0;
  for (const std::shared_ptr<RelationData>& rd : relations_) {
    if (rd != nullptr) n += rd->facts.size();
  }
  return n;
}

size_t Database::PositionOfBlock(int b) const {
  // The last relation whose first global id is <= b; empty relations share
  // their successor's offset and are skipped by upper_bound.
  return static_cast<size_t>(
      std::upper_bound(block_offset_.begin(), block_offset_.end(), b) -
      block_offset_.begin() - 1);
}

const Database::Block& Database::block(int b) const {
  const size_t pos = PositionOfBlock(b);
  return relations_[pos]->blocks[static_cast<size_t>(b - block_offset_[pos])];
}

std::span<const Value> Database::BlockKey(int b) const {
  const size_t pos = PositionOfBlock(b);
  const RelationData& rd = *relations_[pos];
  const Block& blk = rd.blocks[static_cast<size_t>(b - block_offset_[pos])];
  const Tuple& head =
      rd.facts[static_cast<size_t>(rd.members[static_cast<size_t>(blk.begin)])];
  return {head.data(),
          static_cast<size_t>(schema_.relations()[pos].key_len)};
}

const Tuple& Database::BlockFact(int b, size_t member) const {
  const size_t pos = PositionOfBlock(b);
  const RelationData& rd = *relations_[pos];
  const Block& blk = rd.blocks[static_cast<size_t>(b - block_offset_[pos])];
  return rd.facts[static_cast<size_t>(
      rd.members[static_cast<size_t>(blk.begin) + member])];
}

const std::vector<Database::Block>& Database::BlocksOf(
    Symbol relation) const {
  static const std::vector<Block>& empty = *new std::vector<Block>();
  const RelationData* rd = RelationAt(schema_.PositionOf(relation));
  return rd == nullptr ? empty : rd->blocks;
}

int Database::FirstBlockId(Symbol relation) const {
  const int pos = schema_.PositionOf(relation);
  return pos < 0 ? static_cast<int>(NumBlocks())
                 : block_offset_[static_cast<size_t>(pos)];
}

std::optional<int> Database::BlockWithKey(
    Symbol relation, std::span<const Value> key) const {
  const int pos = schema_.PositionOf(relation);
  const RelationData* rd = RelationAt(pos);
  if (rd == nullptr) return std::nullopt;
  const int32_t lb = FindBlock(pos, *rd, key);
  if (lb < 0) return std::nullopt;
  return block_offset_[static_cast<size_t>(pos)] + lb;
}

std::vector<const Tuple*> Database::FactsWithKey(
    Symbol relation, std::span<const Value> key) const {
  std::vector<const Tuple*> out;
  const std::optional<int> b = BlockWithKey(relation, key);
  if (!b.has_value()) return out;
  const size_t n = block(*b).size();
  out.reserve(n);
  for (size_t m = 0; m < n; ++m) out.push_back(&BlockFact(*b, m));
  return out;
}

std::optional<int> Database::BlockOf(Symbol relation,
                                     const Tuple& values) const {
  const int pos = schema_.PositionOf(relation);
  const RelationData* rd = RelationAt(pos);
  if (rd == nullptr) return std::nullopt;
  const int32_t idx = FindFact(pos, *rd, values);
  if (idx < 0) return std::nullopt;
  return block_offset_[static_cast<size_t>(pos)] +
         rd->fact_to_block[static_cast<size_t>(idx)];
}

const Database::ComponentIndex& Database::BlockComponents() const {
  if (!components_.valid.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(components_.mu);
    if (!components_.valid.load(std::memory_order_relaxed)) {
      const int n = static_cast<int>(NumBlocks());
      UnionFind uf(static_cast<size_t>(n));
      // A block links to every value any of its facts carries: two blocks
      // that could ever join (share a constant in any position, key or
      // non-key) end up merged. One pass, per value the first block seen
      // anchors the union.
      std::unordered_map<Symbol, int> value_anchor;
      for (int b = 0; b < n; ++b) {
        for (size_t m = 0; m < block(b).size(); ++m) {
          for (Value v : BlockFact(b, m)) {
            auto [it, inserted] = value_anchor.emplace(v.id(), b);
            if (!inserted) uf.Union(it->second, b);
          }
        }
      }
      ComponentIndex idx;
      idx.component_of_block.assign(static_cast<size_t>(n), -1);
      // Dense 0-based ids in order of first appearance over the block
      // ids, so the numbering is deterministic for a given block order.
      std::unordered_map<int, int> root_to_id;
      for (int b = 0; b < n; ++b) {
        auto [it, inserted] =
            root_to_id.emplace(uf.Find(b), idx.num_components);
        if (inserted) ++idx.num_components;
        idx.component_of_block[static_cast<size_t>(b)] = it->second;
      }
      components_.index = std::move(idx);
      components_.valid.store(true, std::memory_order_release);
    }
  }
  return components_.index;
}

bool Database::IsConsistent() const {
  return NumBlocks() == NumFacts();
}

Hash128::Digest Database::FactContentDigest(const RelationSchema& rs,
                                            const Tuple& fact) {
  // Each fact hashes independently, salted with its relation's full
  // signature: the same value tuple under R[2,1] and S[2,1] (or under the
  // same name with a different key) must contribute differently.
  Hash128 h;
  h.UpdateSized(SymbolName(rs.name));
  h.UpdateU64(static_cast<uint64_t>(rs.arity));
  h.UpdateU64(static_cast<uint64_t>(rs.key_len));
  // Then the fact rendered as one length-prefixed byte string of
  // length-prefixed value spellings (a value may contain any byte), fed
  // piecewise rather than materialised.
  uint64_t rendered = 0;
  for (Value v : fact) rendered += 8 + v.name().size();
  h.UpdateU64(rendered);
  for (Value v : fact) h.UpdateSized(v.name());
  return h.Finish();
}

std::pair<uint64_t, uint64_t> Database::ContentDigest() const {
  Hash128::Digest d = digest_acc_.Finish();
  return {d.hi, d.lo};
}

uint64_t Database::CountRepairs(uint64_t cap) const {
  uint64_t count = 1;
  for (const std::shared_ptr<RelationData>& rd : relations_) {
    if (rd == nullptr) continue;
    for (const Block& b : rd->blocks) {
      uint64_t s = b.size();
      if (count > cap / (s == 0 ? 1 : s)) return cap;
      count *= s;
    }
  }
  return count;
}

std::string Database::ToText() const {
  std::string out;
  for (const RelationSchema& rs : schema_.relations()) {
    for (const Tuple& t : FactsOf(rs.name)) {
      out += SymbolName(rs.name) + "(";
      for (int i = 0; i < rs.arity; ++i) {
        if (i > 0) out += (i == rs.key_len) ? " | " : ", ";
        out += "'";
        for (char c : t[static_cast<size_t>(i)].name()) {
          if (c == '\'') out += '\'';  // double embedded quotes
          out += c;
        }
        out += "'";
      }
      out += ")\n";
    }
  }
  return out;
}

std::string Database::ToString() const {
  std::string out;
  for (const RelationSchema& rs : schema_.relations()) {
    for (const Tuple& t : FactsOf(rs.name)) {
      out += Fact{rs.name, t}.ToString() + "\n";
    }
  }
  return out;
}

}  // namespace cqa
