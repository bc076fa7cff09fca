#include "cqa/db/repairs.h"

#include <cassert>
#include <set>

namespace cqa {

Repair::Repair(const Database* db, std::vector<int> choices)
    : db_(db), choices_(std::move(choices)) {
  assert(choices_.size() == db_->NumBlocks());
}

const Tuple& Repair::ChosenFact(int b) const {
  return db_->BlockFact(b,
                        static_cast<size_t>(choices_[static_cast<size_t>(b)]));
}

void Repair::ForEachFact(Symbol relation,
                         const std::function<bool(const Tuple&)>& fn) const {
  const int first = db_->FirstBlockId(relation);
  const int n = static_cast<int>(db_->BlocksOf(relation).size());
  for (int b = first; b < first + n; ++b) {
    if (!fn(ChosenFact(b))) return;
  }
}

void Repair::ForEachFactWithKey(
    Symbol relation, const Tuple& key,
    const std::function<bool(const Tuple&)>& fn) const {
  std::optional<int> b = db_->BlockWithKey(relation, key);
  if (!b.has_value()) return;
  fn(ChosenFact(*b));
}

bool Repair::Contains(Symbol relation, const Tuple& values) const {
  std::optional<int> b = db_->BlockOf(relation, values);
  if (!b.has_value()) return false;
  return ChosenFact(*b) == values;
}

std::vector<Value> Repair::ActiveDomain() const {
  std::set<Value> seen;
  for (size_t b = 0; b < choices_.size(); ++b) {
    for (Value v : ChosenFact(static_cast<int>(b))) seen.insert(v);
  }
  return std::vector<Value>(seen.begin(), seen.end());
}

Database Repair::ToDatabase() const {
  Database out(db_->schema());
  for (size_t b = 0; b < choices_.size(); ++b) {
    Result<bool> r = out.AddFact(db_->block(static_cast<int>(b)).relation,
                                 ChosenFact(static_cast<int>(b)));
    assert(r.ok());
    (void)r;
  }
  return out;
}

std::string Repair::ToString() const {
  std::string out;
  for (size_t b = 0; b < choices_.size(); ++b) {
    out += Fact{db_->block(static_cast<int>(b)).relation,
                ChosenFact(static_cast<int>(b))}
               .ToString();
    out += "\n";
  }
  return out;
}

namespace {

// Block sizes by global id: the odometer's digit bases.
std::vector<int> BlockWidths(const Database& db) {
  std::vector<int> widths(db.NumBlocks());
  for (size_t b = 0; b < widths.size(); ++b) {
    widths[b] = static_cast<int>(db.block(static_cast<int>(b)).size());
  }
  return widths;
}

}  // namespace

bool ForEachRepair(const Database& db,
                   const std::function<bool(const Repair&)>& fn) {
  // Without a budget the governed overload cannot fail.
  return ForEachRepair(db, nullptr, fn).value();
}

Result<bool> ForEachRepair(const Database& db, Budget* budget,
                           const std::function<bool(const Repair&)>& fn) {
  const std::vector<int> widths = BlockWidths(db);
  std::vector<int> choices(widths.size(), 0);
  while (true) {
    if (budget != nullptr) {
      if (std::optional<ErrorCode> code = budget->CheckEvery()) {
        return Result<bool>::Error(
            *code, "repair enumeration aborted: " + Budget::Describe(*code));
      }
    }
    if (!fn(Repair(&db, choices))) return false;
    // Odometer increment.
    size_t i = 0;
    for (; i < widths.size(); ++i) {
      if (choices[i] + 1 < widths[i]) {
        ++choices[i];
        for (size_t j = 0; j < i; ++j) choices[j] = 0;
        break;
      }
    }
    if (i == widths.size()) return true;
  }
}

Repair RandomRepair(const Database& db, Rng* rng) {
  std::vector<int> choices = BlockWidths(db);
  for (int& c : choices) c = static_cast<int>(rng->Below(c));
  return Repair(&db, choices);
}

}  // namespace cqa
