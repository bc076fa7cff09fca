#ifndef CQA_QUERY_SCHEMA_H_
#define CQA_QUERY_SCHEMA_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "cqa/base/interner.h"
#include "cqa/base/result.h"

namespace cqa {

/// Signature of one relation: arity n and primary key {1..k}.
struct RelationSchema {
  Symbol name = kNoSymbol;
  int arity = 0;
  int key_len = 0;

  bool all_key() const { return arity == key_len; }
};

/// A database schema: a finite set of relation names, each with one primary
/// key constraint (signature [n,k]).
class Schema {
 public:
  Schema() = default;

  /// Registers a relation. Fails if the name is already registered with a
  /// different signature; re-registering identically is a no-op.
  Result<Symbol> AddRelation(std::string_view name, int arity, int key_len);

  /// As above but asserts on failure.
  Symbol AddRelationOrDie(std::string_view name, int arity, int key_len);

  bool Has(Symbol relation) const;
  /// Registration-order position of `relation` in `relations()`, or -1.
  int PositionOf(Symbol relation) const {
    auto it = index_.find(relation);
    return it == index_.end() ? -1 : static_cast<int>(it->second);
  }

  /// Whether an atom of `relation` with signature [arity, key_len], taken
  /// from `source` (e.g. "query"), fits this schema. Unregistered relations
  /// fit (they are empty); a registered one with another signature fails
  /// `kParse`, naming the relation and both signatures.
  Result<bool> CheckFits(Symbol relation, int arity, int key_len,
                         const std::string& source) const;
  const RelationSchema& Get(Symbol relation) const;
  int ArityOf(Symbol relation) const { return Get(relation).arity; }
  int KeyLenOf(Symbol relation) const { return Get(relation).key_len; }

  /// All registered relations, in registration order.
  const std::vector<RelationSchema>& relations() const { return relations_; }

  std::string ToString() const;

 private:
  std::vector<RelationSchema> relations_;
  std::unordered_map<Symbol, size_t> index_;
};

}  // namespace cqa

#endif  // CQA_QUERY_SCHEMA_H_
