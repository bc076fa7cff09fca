#include "cqa/query/schema.h"

#include <cassert>

namespace cqa {

Result<Symbol> Schema::AddRelation(std::string_view name, int arity,
                                   int key_len) {
  if (arity < 1) {
    return Result<Symbol>::Error("relation arity must be >= 1");
  }
  if (key_len < 1 || key_len > arity) {
    return Result<Symbol>::Error("key length must be in [1, arity]");
  }
  Symbol s = InternSymbol(name);
  auto it = index_.find(s);
  if (it != index_.end()) {
    const RelationSchema& existing = relations_[it->second];
    if (existing.arity != arity || existing.key_len != key_len) {
      return Result<Symbol>::Error("relation '" + std::string(name) +
                                   "' already registered with a different "
                                   "signature");
    }
    return s;
  }
  index_.emplace(s, relations_.size());
  relations_.push_back(RelationSchema{s, arity, key_len});
  return s;
}

Symbol Schema::AddRelationOrDie(std::string_view name, int arity,
                                int key_len) {
  Result<Symbol> r = AddRelation(name, arity, key_len);
  assert(r.ok());
  return r.value();
}

bool Schema::Has(Symbol relation) const {
  return index_.find(relation) != index_.end();
}

Result<bool> Schema::CheckFits(Symbol relation, int arity, int key_len,
                               const std::string& source) const {
  auto it = index_.find(relation);
  if (it == index_.end()) return true;
  const RelationSchema& rs = relations_[it->second];
  if (rs.arity == arity && rs.key_len == key_len) return true;
  const std::string& name = SymbolName(relation);
  auto signature = [&name](int n, int k) {
    return name + "[" + std::to_string(n) + "," + std::to_string(k) + "]";
  };
  return Result<bool>::Error(
      ErrorCode::kParse, "relation '" + name + "' is " +
                             signature(arity, key_len) + " in the " + source +
                             " but " + signature(rs.arity, rs.key_len) +
                             " in the database");
}

const RelationSchema& Schema::Get(Symbol relation) const {
  auto it = index_.find(relation);
  assert(it != index_.end());
  return relations_[it->second];
}

std::string Schema::ToString() const {
  std::string out;
  for (const RelationSchema& r : relations_) {
    out += SymbolName(r.name) + "[" + std::to_string(r.arity) + "," +
           std::to_string(r.key_len) + "]\n";
  }
  return out;
}

}  // namespace cqa
