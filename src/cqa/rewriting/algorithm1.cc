#include "cqa/rewriting/algorithm1.h"

#include <cassert>
#include <string>

#include "cqa/attack/attack_graph.h"
#include "cqa/db/eval.h"
#include "cqa/rewriting/rewriter.h"

namespace cqa {

namespace {

// Binds the variables of `pattern` (a prefix or suffix of an atom's terms)
// against `values`. Returns false on mismatch (constants or repeated
// variables disagreeing). Bindings accumulate into `out`.
bool MatchTerms(const std::vector<Term>& pattern, const Tuple& values,
                Valuation* out) {
  assert(pattern.size() == values.size());
  for (size_t i = 0; i < pattern.size(); ++i) {
    const Term& t = pattern[i];
    if (t.is_constant()) {
      if (t.constant() != values[i]) return false;
    } else {
      auto it = out->find(t.var());
      if (it != out->end()) {
        if (it->second != values[i]) return false;
      } else {
        out->emplace(t.var(), values[i]);
      }
    }
  }
  return true;
}

Query SubstituteAll(const Query& q, const Valuation& theta) {
  Query out = q;
  for (const auto& [v, c] : theta) out = out.Substituted(v, c);
  return out;
}

}  // namespace

Result<bool> Algorithm1::IsCertain(const Query& q) {
  if (!q.reified().empty()) {
    return Result<bool>::Error(
        ErrorCode::kUnsupported,
        "Algorithm 1 expects a query without reified variables "
        "(it substitutes constants instead)");
  }
  if (!q.IsWeaklyGuarded()) {
    return Result<bool>::Error(ErrorCode::kUnsupported,
                               "negation is not weakly guarded");
  }
  if (!AttackGraph(q).IsAcyclic()) {
    return Result<bool>::Error(ErrorCode::kUnsupported,
                               "cyclic attack graph: CERTAINTY(q) not in FO");
  }
  calls_ = 0;
  // An external arena persists across runs (and across Algorithm1
  // instances) by design; only the private per-run memo is reset.
  memo_.clear();
  abort_code_.reset();
  bool certain = RecCached(q);
  if (abort_code_.has_value()) {
    return Result<bool>::Error(
        *abort_code_, "Algorithm 1 aborted after " + std::to_string(calls_) +
                          " calls: " + Budget::Describe(*abort_code_));
  }
  return certain;
}

bool Algorithm1::Probe() {
  if (abort_code_.has_value()) return false;
  if (options_.budget == nullptr) return true;
  if (std::optional<ErrorCode> code = options_.budget->CheckEvery()) {
    abort_code_ = code;
    return false;
  }
  return true;
}

bool Algorithm1::RecCached(const Query& q) {
  ++calls_;
  if (!Probe()) return false;  // unwinding; the value is meaningless
  if (!options_.memoize) return Rec(q);
  std::unordered_map<std::string, bool>* memo = Memo();
  std::string key = q.CanonicalKey();
  auto it = memo->find(key);
  if (it != memo->end()) return it->second;
  bool result = Rec(q);
  // A result computed while unwinding from a tripped budget is bogus —
  // never memoise it.
  if (abort_code_.has_value()) return false;
  memo->emplace(std::move(key), result);
  return result;
}

bool Algorithm1::Rec(const Query& q) {
  if (q.AllAtomsAllKey()) {
    // All-key relations are necessarily consistent; every repair restricted
    // to them equals the database, so certainty is plain satisfaction.
    return Satisfies(q, db_);
  }
  std::optional<size_t> pick = PickUnattackedNonAllKey(q);
  assert(pick.has_value() && "attack graph became cyclic during Algorithm 1");
  const Atom& atom = q.atom(*pick);
  if (!atom.KeyVars().empty()) return CaseKeyVars(q, *pick);
  if (q.IsNegated(*pick)) return CaseGroundKeyNegative(q, *pick);
  return CaseGroundKeyPositive(q, *pick);
}

// key(F) has variables: reify them, i.e. search for one constant valuation
// of key(F) that makes the substituted query certain (Corollary 6.9
// justifies trying single valuations; candidates come from db columns).
bool Algorithm1::CaseKeyVars(const Query& q, size_t pick) {
  const Atom& atom = q.atom(pick);
  std::vector<Term> key_terms(atom.terms().begin(),
                              atom.terms().begin() + atom.key_len());

  if (!q.IsNegated(pick)) {
    // θ(F) must be key-equal to a fact of every repair, hence to a block of
    // the database: enumerate R-block keys matching the key pattern.
    for (const Database::Block& block : db_.BlocksOf(atom.relation())) {
      Valuation theta;
      if (MatchTerms(key_terms, block.key, &theta)) {
        if (RecCached(SubstituteAll(q, theta))) return true;
      }
    }
    return false;
  }

  // Negated atom with variable key: candidate values for each key variable
  // come from the column of some positive atom containing it (safety
  // guarantees one exists; any certain valuation must use db values there).
  SymbolSet key_vars = atom.KeyVars();
  std::vector<Symbol> vars = key_vars.items();
  std::vector<std::vector<Value>> candidates;
  for (Symbol v : vars) {
    std::vector<Value> vals;
    bool have = false;
    for (const Literal& l : q.literals()) {
      if (l.negated) continue;
      for (int i = 0; i < l.atom.arity() && !have; ++i) {
        if (l.atom.term(i).is_variable() && l.atom.term(i).var() == v) {
          std::unordered_map<Value, bool, ValueHash> seen;
          db_.ForEachFact(l.atom.relation(), [&](const Tuple& tuple) {
            if (seen.emplace(tuple[static_cast<size_t>(i)], true).second) {
              vals.push_back(tuple[static_cast<size_t>(i)]);
            }
            return true;
          });
          have = true;
        }
      }
      if (have) break;
    }
    if (vals.empty()) return false;  // no positive match possible at all
    candidates.push_back(std::move(vals));
  }
  // Cartesian search over candidate tuples.
  std::vector<size_t> idx(vars.size(), 0);
  while (true) {
    Valuation theta;
    for (size_t i = 0; i < vars.size(); ++i) {
      theta.emplace(vars[i], candidates[i][idx[i]]);
    }
    if (RecCached(SubstituteAll(q, theta))) return true;
    size_t i = 0;
    for (; i < idx.size(); ++i) {
      if (idx[i] + 1 < candidates[i].size()) {
        ++idx[i];
        for (size_t j = 0; j < i; ++j) idx[j] = 0;
        break;
      }
    }
    if (i == idx.size()) return false;
  }
}

// key(F) ground, F negated: Lemmas 6.2 / 6.5.
bool Algorithm1::CaseGroundKeyNegative(const Query& q, size_t pick) {
  const Atom& atom = q.atom(pick);
  Query q_rest = q.WithoutLiteralAt(pick);
  if (!RecCached(q_rest)) return false;

  std::vector<Term> s_terms(atom.terms().begin() + atom.key_len(),
                            atom.terms().end());
  SymbolSet new_vars;
  for (const Term& t : s_terms) {
    if (t.is_variable()) new_vars.Insert(t.var());
  }
  Tuple key;
  for (int i = 0; i < atom.key_len(); ++i) {
    assert(atom.term(i).is_constant());
    key.push_back(atom.term(i).constant());
  }

  if (new_vars.empty()) {
    // Fully ground negated atom: Lemma 6.2.
    Tuple full = key;
    for (const Term& t : s_terms) full.push_back(t.constant());
    return !db_.Contains(atom.relation(), full);
  }

  // Lemma 6.5: for every matching fact R(ā, b̄), the query plus ȳ ≠ b̄ must
  // stay certain. The block index narrows the scan to the single ā-block.
  for (const Tuple* tuple : db_.FactsWithKey(atom.relation(), key)) {
    Valuation theta;
    if (!MatchTerms(s_terms,
                    Tuple(tuple->begin() + atom.key_len(), tuple->end()),
                    &theta)) {
      continue;  // fact does not instantiate N
    }
    Diseq diseq;
    for (Symbol v : new_vars) {
      diseq.lhs.push_back(Term::VarOf(v));
      diseq.rhs.push_back(Term::Const(theta.at(v)));
    }
    if (!RecCached(q_rest.WithDiseq(std::move(diseq)))) return false;
  }
  return true;
}

// key(F) ground, F positive: the block with that key must exist, every fact
// in it must instantiate F, and each induced substitution must keep the rest
// certain.
bool Algorithm1::CaseGroundKeyPositive(const Query& q, size_t pick) {
  const Atom& atom = q.atom(pick);
  Query q_rest = q.WithoutLiteralAt(pick);
  std::vector<Term> s_terms(atom.terms().begin() + atom.key_len(),
                            atom.terms().end());
  Tuple key;
  for (int i = 0; i < atom.key_len(); ++i) {
    assert(atom.term(i).is_constant());
    key.push_back(atom.term(i).constant());
  }

  std::vector<const Tuple*> block = db_.FactsWithKey(atom.relation(), key);
  if (block.empty()) return false;
  for (const Tuple* tuple : block) {
    Valuation theta;
    if (!MatchTerms(s_terms,
                    Tuple(tuple->begin() + atom.key_len(), tuple->end()),
                    &theta)) {
      return false;  // some repair picks this fact; F cannot match it
    }
    if (!RecCached(SubstituteAll(q_rest, theta))) return false;
  }
  return true;
}

Result<bool> IsCertainAlgorithm1(const Query& q, const Database& db,
                                 Algorithm1Options options) {
  Algorithm1 algo(db, options);
  return algo.IsCertain(q);
}

}  // namespace cqa
