#ifndef CQA_DB_REPAIRS_H_
#define CQA_DB_REPAIRS_H_

#include <functional>
#include <vector>

#include "cqa/base/budget.h"
#include "cqa/base/result.h"
#include "cqa/base/rng.h"
#include "cqa/db/database.h"

namespace cqa {

/// A repair of a database: a maximal consistent subset, i.e. exactly one
/// fact chosen from every block. Lightweight view; the database must outlive
/// it.
class Repair : public FactView {
 public:
  /// `choices[b]` is a member index of block `b`: the chosen fact is
  /// `db->BlockFact(b, choices[b])`.
  Repair(const Database* db, std::vector<int> choices);

  // FactView:
  const Schema& schema() const override { return db_->schema(); }
  void ForEachFact(Symbol relation,
                   const std::function<bool(const Tuple&)>& fn) const override;
  void ForEachFactWithKey(
      Symbol relation, const Tuple& key,
      const std::function<bool(const Tuple&)>& fn) const override;
  bool Contains(Symbol relation, const Tuple& values) const override;
  std::vector<Value> ActiveDomain() const override;

  /// The chosen fact of block `b`.
  const Tuple& ChosenFact(int b) const;

  const std::vector<int>& choices() const { return choices_; }
  const Database& db() const { return *db_; }

  /// Materialises this repair as a standalone (consistent) database.
  Database ToDatabase() const;

  std::string ToString() const;

 private:
  const Database* db_;
  std::vector<int> choices_;
};

/// Invokes `fn` on every repair of `db`, in odometer order over blocks.
/// Stops early (returning false) if `fn` returns false; otherwise returns
/// true after the last repair. A database with no facts has exactly one
/// (empty) repair.
bool ForEachRepair(const Database& db,
                   const std::function<bool(const Repair&)>& fn);

/// Budget-governed variant: charges one step per repair against `budget`
/// (which may be null) and stops with the violated code if the budget runs
/// out mid-enumeration. On success, the returned bool mirrors the ungoverned
/// overload: false iff `fn` stopped the enumeration early.
Result<bool> ForEachRepair(const Database& db, Budget* budget,
                           const std::function<bool(const Repair&)>& fn);

/// A uniformly random repair.
Repair RandomRepair(const Database& db, Rng* rng);

}  // namespace cqa

#endif  // CQA_DB_REPAIRS_H_
