#include "cqa/certainty/backtracking.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <string>

#include "cqa/db/eval.h"
#include "cqa/db/repairs.h"

namespace cqa {

namespace {

// Shared decision state: chosen_[b] >= 0 iff block b is decided.
struct Decisions {
  const Database* db = nullptr;
  std::vector<int> chosen_;

  const Tuple& ChosenFact(int b) const {
    return db->BlockFact(
        b, static_cast<size_t>(chosen_[static_cast<size_t>(b)]));
  }
};

// Pessimistic view: a block contributes facts only once decided (positive
// atoms must be certain), while `Contains` is *optimistic for negation* — an
// undecided block reports its facts as possibly present, so negated atoms
// only fire on facts that can never appear. If a query matches this view,
// it is satisfied in EVERY completion.
class PessimisticView : public FactView {
 public:
  PessimisticView(const Decisions* d, const std::vector<int>* relevant)
      : d_(d), relevant_(relevant) {}

  const Schema& schema() const override { return d_->db->schema(); }

  void ForEachFact(Symbol relation,
                   const std::function<bool(const Tuple&)>& fn) const override {
    for (int b : *relevant_) {
      if (d_->db->block(b).relation != relation) continue;
      if (d_->chosen_[static_cast<size_t>(b)] < 0) continue;
      if (!fn(d_->ChosenFact(b))) return;
    }
  }

  bool Contains(Symbol relation, const Tuple& values) const override {
    std::optional<int> b = d_->db->BlockOf(relation, values);
    if (!b.has_value()) return false;  // not in db: absent from every repair
    if (d_->chosen_[static_cast<size_t>(*b)] < 0) return true;  // possible
    return d_->ChosenFact(*b) == values;
  }

  std::vector<Value> ActiveDomain() const override {
    return d_->db->ActiveDomain();
  }

 private:
  const Decisions* d_;
  const std::vector<int>* relevant_;
};

// Optimistic view for positive matching: decided blocks contribute their
// chosen fact, undecided blocks contribute ALL their facts. If the positive
// part of the query has no match here, no completion satisfies the query.
class OptimisticView : public FactView {
 public:
  explicit OptimisticView(const Decisions* d) : d_(d) {}

  const Schema& schema() const override { return d_->db->schema(); }

  void ForEachFact(Symbol relation,
                   const std::function<bool(const Tuple&)>& fn) const override {
    bool keep_going = true;
    d_->db->ForEachFact(relation, [&](const Tuple& t) {
      if (Possible(relation, t)) keep_going = fn(t);
      return keep_going;
    });
  }

  void ForEachFactWithKey(
      Symbol relation, const Tuple& key,
      const std::function<bool(const Tuple&)>& fn) const override {
    d_->db->ForEachFactWithKey(relation, key, [&](const Tuple& t) {
      return !Possible(relation, t) || fn(t);
    });
  }

  bool Contains(Symbol relation, const Tuple& values) const override {
    return d_->db->Contains(relation, values) && Possible(relation, values);
  }

  std::vector<Value> ActiveDomain() const override {
    return d_->db->ActiveDomain();
  }

 private:
  bool Possible(Symbol relation, const Tuple& t) const {
    std::optional<int> b = d_->db->BlockOf(relation, t);
    if (!b.has_value()) return false;
    int c = d_->chosen_[static_cast<size_t>(*b)];
    return c < 0 || d_->ChosenFact(*b) == t;
  }

  const Decisions* d_;
};

struct Searcher {
  const Query* q;
  const Query* q_positive;  // q without negated atoms and disequalities
  Decisions* decisions;
  PessimisticView* pessimistic;
  OptimisticView* optimistic;
  const std::vector<int>* blocks;  // relevant block ids, branch order
  Budget* budget = nullptr;        // optional governor, probed per node
  uint64_t nodes = 0;
  uint64_t max_nodes = 0;
  bool early_accept = true;
  std::optional<ErrorCode> abort_code;
  bool aborted = false;

  // True iff some completion of the current partial decision falsifies q.
  bool ExistsFalsifier(size_t depth) {
    if (++nodes > max_nodes) {
      abort_code = ErrorCode::kBudgetExhausted;
      aborted = true;
      return false;
    }
    if (budget != nullptr) {
      if (std::optional<ErrorCode> code = budget->CheckEvery()) {
        abort_code = code;
        aborted = true;
        return false;
      }
    }
    // Prune: if q is already certainly satisfied, no completion falsifies.
    if (Satisfies(*q, *pessimistic)) return false;
    // Early accept: if even the optimistic view cannot match the positive
    // part, every completion falsifies q.
    if (early_accept && !Satisfies(*q_positive, *optimistic)) return true;
    if (depth == blocks->size()) return true;  // a falsifying repair
    int b = (*blocks)[depth];
    size_t width = decisions->db->block(b).size();
    for (size_t c = 0; c < width; ++c) {
      decisions->chosen_[static_cast<size_t>(b)] = static_cast<int>(c);
      bool found = ExistsFalsifier(depth + 1);
      // On success the decision stack is left in place so the caller can
      // read the falsifying (partial) repair out of `decisions`.
      if (found || aborted) return found;
      decisions->chosen_[static_cast<size_t>(b)] = -1;
    }
    return false;
  }
};

}  // namespace

namespace {

// Shared implementation: decides certainty and, if `witness` is non-null
// and a falsifying completion exists, fills it with one fact choice per
// block of the database.
Result<BacktrackingReport> SolveBacktracking(const Query& q,
                                             const Database& db,
                                             const BacktrackingOptions& options,
                                             std::vector<int>* witness) {
  // Only blocks of relations mentioned by q can influence the answer.
  std::set<Symbol> relations;
  for (const Literal& l : q.literals()) relations.insert(l.atom.relation());
  std::vector<int> relevant;
  for (const RelationSchema& rs : db.schema().relations()) {
    if (relations.count(rs.name) == 0) continue;
    const int first = db.FirstBlockId(rs.name);
    const int n = static_cast<int>(db.BlocksOf(rs.name).size());
    for (int i = 0; i < n; ++i) relevant.push_back(first + i);
  }
  // Key-major ordering: blocks whose keys share values end up adjacent, so
  // the certainly-satisfied prune can fire after a handful of decisions
  // instead of after a whole relation's worth.
  if (options.key_major_order) {
    std::sort(relevant.begin(), relevant.end(), [&](int a, int b) {
      const std::span<const Value> ka = db.BlockKey(a);
      const std::span<const Value> kb = db.BlockKey(b);
      if (!std::equal(ka.begin(), ka.end(), kb.begin(), kb.end())) {
        return std::lexicographical_compare(ka.begin(), ka.end(), kb.begin(),
                                            kb.end());
      }
      const Symbol ra = db.block(a).relation;
      const Symbol rb = db.block(b).relation;
      if (ra != rb) return ra < rb;
      return a < b;
    });
  }

  // The positive part of q, used for the unsatisfiability early-accept.
  std::vector<Literal> positive;
  for (const Literal& l : q.literals()) {
    if (!l.negated) positive.push_back(l);
  }
  Query q_positive = Query::MakeOrDie(std::move(positive), {}, q.reified());

  Decisions decisions;
  decisions.db = &db;
  decisions.chosen_.assign(db.NumBlocks(), -1);
  PessimisticView pessimistic(&decisions, &relevant);
  OptimisticView optimistic(&decisions);

  Searcher s;
  s.q = &q;
  s.q_positive = &q_positive;
  s.decisions = &decisions;
  s.pessimistic = &pessimistic;
  s.optimistic = &optimistic;
  s.blocks = &relevant;
  s.budget = options.budget;
  s.max_nodes = options.max_nodes;
  s.early_accept = options.optimistic_early_accept;
  bool falsifier = s.ExistsFalsifier(0);
  if (s.aborted) {
    ErrorCode code = s.abort_code.value_or(ErrorCode::kBudgetExhausted);
    return Result<BacktrackingReport>::Error(
        code, "backtracking search aborted after " +
                  std::to_string(s.nodes) + " nodes: " +
                  Budget::Describe(code));
  }
  if (falsifier && witness != nullptr) {
    // The search may stop before deciding every block (prune or
    // early-accept): any completion of the recorded partial decision
    // falsifies q, so default undecided blocks to their first fact.
    witness->assign(db.NumBlocks(), 0);
    for (size_t b = 0; b < witness->size(); ++b) {
      if (decisions.chosen_[b] >= 0) (*witness)[b] = decisions.chosen_[b];
    }
  }
  BacktrackingReport report;
  report.certain = !falsifier;
  report.nodes = s.nodes;
  return report;
}

}  // namespace

Result<BacktrackingReport> SolveCertainBacktracking(
    const Query& q, const Database& db, const BacktrackingOptions& options) {
  return SolveBacktracking(q, db, options, nullptr);
}

Result<bool> IsCertainBacktracking(const Query& q, const Database& db,
                                   const BacktrackingOptions& options) {
  Result<BacktrackingReport> r = SolveBacktracking(q, db, options, nullptr);
  if (!r.ok()) return Result<bool>::Error(r);
  return r->certain;
}

Result<std::optional<Database>> FindFalsifyingRepair(
    const Query& q, const Database& db, const BacktrackingOptions& options) {
  std::vector<int> choices;
  Result<BacktrackingReport> certain =
      SolveBacktracking(q, db, options, &choices);
  if (!certain.ok()) {
    return Result<std::optional<Database>>::Error(certain);
  }
  if (certain->certain) return std::optional<Database>();
  return std::optional<Database>(Repair(&db, choices).ToDatabase());
}

}  // namespace cqa
