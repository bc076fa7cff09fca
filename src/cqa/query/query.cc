#include "cqa/query/query.h"

#include <algorithm>
#include <cassert>

namespace cqa {

namespace {

// Non-reified variables occurring in a term vector.
SymbolSet TermVars(const std::vector<Term>& terms, const SymbolSet& reified) {
  SymbolSet out;
  for (const Term& t : terms) {
    if (t.is_variable() && !reified.contains(t.var())) out.Insert(t.var());
  }
  return out;
}

}  // namespace

std::string Diseq::ToString() const {
  std::string l = "(";
  std::string r = "(";
  for (size_t i = 0; i < lhs.size(); ++i) {
    if (i > 0) {
      l += ", ";
      r += ", ";
    }
    l += lhs[i].ToString();
    r += rhs[i].ToString();
  }
  return l + ") != " + r + ")";
}

Literal Pos(Atom atom) { return Literal{std::move(atom), false}; }
Literal Neg(Atom atom) { return Literal{std::move(atom), true}; }

Result<Query> Query::Make(std::vector<Literal> literals,
                          std::vector<Diseq> diseqs, SymbolSet reified) {
  // Self-join-freeness.
  for (size_t i = 0; i < literals.size(); ++i) {
    for (size_t j = i + 1; j < literals.size(); ++j) {
      if (literals[i].atom.relation() == literals[j].atom.relation()) {
        return Result<Query>::Error(
            "query is not self-join-free: relation '" +
            literals[i].atom.relation_name() + "' occurs twice");
      }
    }
  }
  // Disequality shape.
  for (const Diseq& d : diseqs) {
    if (d.lhs.empty() || d.lhs.size() != d.rhs.size()) {
      return Result<Query>::Error("malformed disequality constraint");
    }
  }
  // Safety: non-reified variables of negated atoms and disequalities must
  // occur in positive atoms.
  SymbolSet positive_vars;
  for (const Literal& l : literals) {
    if (!l.negated) positive_vars.UnionWith(l.atom.Vars(reified));
  }
  for (const Literal& l : literals) {
    if (!l.negated) continue;
    SymbolSet nvars = l.atom.Vars(reified);
    if (!nvars.IsSubsetOf(positive_vars)) {
      return Result<Query>::Error(
          "unsafe query: variable(s) " +
          nvars.Minus(positive_vars).ToString() + " of negated atom " +
          l.atom.ToString() + " do not occur in any non-negated atom");
    }
  }
  for (const Diseq& d : diseqs) {
    SymbolSet dvars =
        TermVars(d.lhs, reified).Union(TermVars(d.rhs, reified));
    if (!dvars.IsSubsetOf(positive_vars)) {
      return Result<Query>::Error(
          "unsafe query: disequality variable(s) " +
          dvars.Minus(positive_vars).ToString() +
          " do not occur in any non-negated atom");
    }
  }
  return Query(std::move(literals), std::move(diseqs), std::move(reified));
}

Query Query::MakeOrDie(std::vector<Literal> literals, std::vector<Diseq> diseqs,
                       SymbolSet reified) {
  Result<Query> r =
      Make(std::move(literals), std::move(diseqs), std::move(reified));
  assert(r.ok());
  return r.value();
}

std::vector<size_t> Query::PositiveIndices() const {
  std::vector<size_t> out;
  for (size_t i = 0; i < literals_.size(); ++i) {
    if (!literals_[i].negated) out.push_back(i);
  }
  return out;
}

std::vector<size_t> Query::NegativeIndices() const {
  std::vector<size_t> out;
  for (size_t i = 0; i < literals_.size(); ++i) {
    if (literals_[i].negated) out.push_back(i);
  }
  return out;
}

std::optional<size_t> Query::FindRelation(Symbol relation) const {
  for (size_t i = 0; i < literals_.size(); ++i) {
    if (literals_[i].atom.relation() == relation) return i;
  }
  return std::nullopt;
}

SymbolSet Query::Vars() const {
  SymbolSet out;
  for (const Literal& l : literals_) out.UnionWith(l.atom.Vars(reified_));
  for (const Diseq& d : diseqs_) {
    out.UnionWith(TermVars(d.lhs, reified_));
    out.UnionWith(TermVars(d.rhs, reified_));
  }
  return out;
}

SymbolSet Query::PositiveVars() const {
  SymbolSet out;
  for (const Literal& l : literals_) {
    if (!l.negated) out.UnionWith(l.atom.Vars(reified_));
  }
  return out;
}

int Query::Alpha() const {
  int count = 0;
  for (const Literal& l : literals_) {
    if (!l.atom.IsAllKey()) ++count;
  }
  return count;
}

bool Query::IsGuarded() const {
  for (const Literal& l : literals_) {
    if (!l.negated) continue;
    SymbolSet nvars = l.atom.Vars(reified_);
    bool guarded = nvars.empty();
    for (const Literal& p : literals_) {
      if (p.negated) continue;
      if (nvars.IsSubsetOf(p.atom.Vars(reified_))) {
        guarded = true;
        break;
      }
    }
    if (!guarded) return false;
  }
  return true;
}

bool Query::CoOccurPositively(Symbol x, Symbol y) const {
  for (const Literal& p : literals_) {
    if (p.negated) continue;
    SymbolSet pv = p.atom.Vars(reified_);
    if (pv.contains(x) && pv.contains(y)) return true;
  }
  return false;
}

bool Query::IsWeaklyGuarded() const {
  auto pairs_guarded = [&](const SymbolSet& vars) {
    for (Symbol x : vars) {
      for (Symbol y : vars) {
        if (!CoOccurPositively(x, y)) return false;
      }
    }
    return true;
  };
  for (const Literal& l : literals_) {
    if (!l.negated) continue;
    if (!pairs_guarded(l.atom.Vars(reified_))) return false;
  }
  for (const Diseq& d : diseqs_) {
    SymbolSet dvars =
        TermVars(d.lhs, reified_).Union(TermVars(d.rhs, reified_));
    if (!pairs_guarded(dvars)) return false;
  }
  return true;
}

Query Query::Substituted(Symbol v, Value c) const {
  std::vector<Literal> literals;
  literals.reserve(literals_.size());
  for (const Literal& l : literals_) {
    literals.push_back(Literal{l.atom.Substituted(v, c), l.negated});
  }
  auto subst_terms = [&](std::vector<Term> ts) {
    for (Term& t : ts) {
      if (t.is_variable() && t.var() == v) t = Term::Const(c);
    }
    return ts;
  };
  std::vector<Diseq> diseqs;
  diseqs.reserve(diseqs_.size());
  for (const Diseq& d : diseqs_) {
    diseqs.push_back(Diseq{subst_terms(d.lhs), subst_terms(d.rhs)});
  }
  SymbolSet reified = reified_;
  reified.Erase(v);
  return Query(std::move(literals), std::move(diseqs), std::move(reified));
}

Query Query::WithReified(const SymbolSet& extra) const {
  return Query(literals_, diseqs_, reified_.Union(extra));
}

Query Query::WithoutLiteralAt(size_t i) const {
  assert(i < literals_.size());
  std::vector<Literal> literals = literals_;
  literals.erase(literals.begin() + static_cast<ptrdiff_t>(i));
  return Query(std::move(literals), diseqs_, reified_);
}

Query Query::WithDiseq(Diseq d) const {
  std::vector<Diseq> diseqs = diseqs_;
  diseqs.push_back(std::move(d));
  return Query(literals_, std::move(diseqs), reified_);
}

Result<bool> Query::RegisterInto(Schema* schema) const {
  for (const Literal& l : literals_) {
    Result<Symbol> r = schema->AddRelation(
        l.atom.relation_name(), l.atom.arity(), l.atom.key_len());
    if (!r.ok()) return Result<bool>::Error(r.error());
  }
  return true;
}

Result<bool> Query::CheckAgainst(const Schema& schema) const {
  for (const Literal& l : literals_) {
    Result<bool> fits = schema.CheckFits(l.atom.relation(), l.atom.arity(),
                                         l.atom.key_len(), "query");
    if (!fits.ok()) return fits;
  }
  return true;
}

std::string Query::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < literals_.size(); ++i) {
    if (i > 0) out += ", ";
    out += literals_[i].ToString();
  }
  for (const Diseq& d : diseqs_) {
    out += ", " + d.ToString();
  }
  out += "}";
  if (!reified_.empty()) out += " reified=" + reified_.ToString();
  return out;
}

std::string Query::CanonicalKey() const {
  std::vector<std::string> parts;
  for (const Literal& l : literals_) parts.push_back(l.ToString());
  for (const Diseq& d : diseqs_) parts.push_back(d.ToString());
  std::sort(parts.begin(), parts.end());
  std::string out;
  for (const std::string& p : parts) {
    out += p;
    out += ";";
  }
  out += "|R" + reified_.ToString();
  return out;
}

}  // namespace cqa
