#include "cqa/fo/formula.h"

#include <algorithm>
#include <set>

namespace cqa {

FoPtr FoTrue() {
  static const FoPtr instance = [] {
    std::shared_ptr<Fo> f(new Fo());
    f->kind_ = FoKind::kTrue;
    return f;
  }();
  return instance;
}

FoPtr FoFalse() {
  static const FoPtr instance = [] {
    std::shared_ptr<Fo> f(new Fo());
    f->kind_ = FoKind::kFalse;
    return f;
  }();
  return instance;
}

FoPtr FoAtom(Symbol relation, int key_len, std::vector<Term> terms) {
  std::shared_ptr<Fo> f(new Fo());
  f->kind_ = FoKind::kAtom;
  f->relation_ = relation;
  f->key_len_ = key_len;
  f->terms_ = std::move(terms);
  return f;
}

FoPtr FoEquals(Term a, Term b) {
  std::shared_ptr<Fo> f(new Fo());
  f->kind_ = FoKind::kEquals;
  f->terms_ = {a, b};
  return f;
}

FoPtr FoAnd(std::vector<FoPtr> children) {
  std::vector<FoPtr> flat;
  for (FoPtr& c : children) {
    if (c->kind() == FoKind::kTrue) continue;
    if (c->kind() == FoKind::kFalse) return FoFalse();
    if (c->kind() == FoKind::kAnd) {
      flat.insert(flat.end(), c->children().begin(), c->children().end());
    } else {
      flat.push_back(std::move(c));
    }
  }
  if (flat.empty()) return FoTrue();
  if (flat.size() == 1) return flat[0];
  std::shared_ptr<Fo> f(new Fo());
  f->kind_ = FoKind::kAnd;
  f->children_ = std::move(flat);
  return f;
}

FoPtr FoOr(std::vector<FoPtr> children) {
  std::vector<FoPtr> flat;
  for (FoPtr& c : children) {
    if (c->kind() == FoKind::kFalse) continue;
    if (c->kind() == FoKind::kTrue) return FoTrue();
    if (c->kind() == FoKind::kOr) {
      flat.insert(flat.end(), c->children().begin(), c->children().end());
    } else {
      flat.push_back(std::move(c));
    }
  }
  if (flat.empty()) return FoFalse();
  if (flat.size() == 1) return flat[0];
  std::shared_ptr<Fo> f(new Fo());
  f->kind_ = FoKind::kOr;
  f->children_ = std::move(flat);
  return f;
}

FoPtr FoNot(FoPtr child) {
  if (child->kind() == FoKind::kTrue) return FoFalse();
  if (child->kind() == FoKind::kFalse) return FoTrue();
  if (child->kind() == FoKind::kNot) return child->child();
  std::shared_ptr<Fo> f(new Fo());
  f->kind_ = FoKind::kNot;
  f->children_ = {std::move(child)};
  return f;
}

FoPtr FoImplies(FoPtr a, FoPtr b) {
  if (a->kind() == FoKind::kTrue) return b;
  if (a->kind() == FoKind::kFalse) return FoTrue();
  if (b->kind() == FoKind::kTrue) return FoTrue();
  if (b->kind() == FoKind::kFalse) return FoNot(std::move(a));
  std::shared_ptr<Fo> f(new Fo());
  f->kind_ = FoKind::kImplies;
  f->children_ = {std::move(a), std::move(b)};
  return f;
}

namespace {

// Decides the final (vars, body) of a quantifier node, or signals that the
// quantifier collapses to `body`. Uses only the public Fo API.
struct QuantParts {
  bool collapse = false;
  std::vector<Symbol> vars;
  FoPtr body;
};

QuantParts AnalyzeQuantifier(FoKind kind, const std::vector<Symbol>& vars,
                             FoPtr body) {
  QuantParts out;
  // Keep only variables actually free in the body.
  SymbolSet free = body->FreeVars();
  std::vector<Symbol> used;
  for (Symbol v : vars) {
    if (free.contains(v)) used.push_back(v);
  }
  if (used.empty() || body->kind() == FoKind::kTrue ||
      body->kind() == FoKind::kFalse) {
    out.collapse = true;
    out.body = std::move(body);
    return out;
  }
  // Merge adjacent same-kind quantifiers.
  if (body->kind() == kind) {
    for (Symbol v : body->qvars()) {
      if (std::find(used.begin(), used.end(), v) == used.end()) {
        used.push_back(v);
      }
    }
    out.vars = std::move(used);
    out.body = body->child();
    return out;
  }
  out.vars = std::move(used);
  out.body = std::move(body);
  return out;
}

}  // namespace

FoPtr FoExists(std::vector<Symbol> vars, FoPtr body) {
  QuantParts p = AnalyzeQuantifier(FoKind::kExists, vars, std::move(body));
  if (p.collapse) return p.body;
  std::shared_ptr<Fo> f(new Fo());
  f->kind_ = FoKind::kExists;
  f->qvars_ = std::move(p.vars);
  f->children_ = {std::move(p.body)};
  return f;
}

FoPtr FoForall(std::vector<Symbol> vars, FoPtr body) {
  QuantParts p = AnalyzeQuantifier(FoKind::kForall, vars, std::move(body));
  if (p.collapse) return p.body;
  std::shared_ptr<Fo> f(new Fo());
  f->kind_ = FoKind::kForall;
  f->qvars_ = std::move(p.vars);
  f->children_ = {std::move(p.body)};
  return f;
}

FoPtr FoNotEquals(Term a, Term b) { return FoNot(FoEquals(a, b)); }

size_t Fo::Size() const {
  size_t n = 1;
  for (const FoPtr& c : children_) n += c->Size();
  return n;
}

int Fo::QuantifierDepth() const {
  int max_child = 0;
  for (const FoPtr& c : children_) {
    max_child = std::max(max_child, c->QuantifierDepth());
  }
  if (kind_ == FoKind::kExists || kind_ == FoKind::kForall) {
    return max_child + 1;
  }
  return max_child;
}

SymbolSet Fo::FreeVars() const {
  SymbolSet out;
  switch (kind_) {
    case FoKind::kTrue:
    case FoKind::kFalse:
      break;
    case FoKind::kAtom:
    case FoKind::kEquals:
      for (const Term& t : terms_) {
        if (t.is_variable()) out.Insert(t.var());
      }
      break;
    case FoKind::kAnd:
    case FoKind::kOr:
    case FoKind::kNot:
    case FoKind::kImplies:
      for (const FoPtr& c : children_) out.UnionWith(c->FreeVars());
      break;
    case FoKind::kExists:
    case FoKind::kForall: {
      out = children_[0]->FreeVars();
      for (Symbol v : qvars_) out.Erase(v);
      break;
    }
  }
  return out;
}

namespace {
void CollectConstants(const Fo& f, std::set<Value>* out) {
  for (const Term& t : f.terms()) {
    if (t.is_constant()) out->insert(t.constant());
  }
  for (const FoPtr& c : f.children()) CollectConstants(*c, out);
}
}  // namespace

Result<bool> CheckFoAgainst(const FoPtr& f, const Schema& schema) {
  if (f->kind() == FoKind::kAtom) {
    return schema.CheckFits(f->relation(),
                            static_cast<int>(f->terms().size()), f->key_len(),
                            "formula");
  }
  for (const FoPtr& c : f->children()) {
    Result<bool> fits = CheckFoAgainst(c, schema);
    if (!fits.ok()) return fits;
  }
  return true;
}

std::vector<Value> Fo::Constants() const {
  std::set<Value> seen;
  CollectConstants(*this, &seen);
  return std::vector<Value>(seen.begin(), seen.end());
}

bool Fo::Equal(const FoPtr& a, const FoPtr& b) {
  if (a.get() == b.get()) return true;
  if (a->kind_ != b->kind_) return false;
  if (a->relation_ != b->relation_ || a->key_len_ != b->key_len_ ||
      a->terms_ != b->terms_ || a->qvars_ != b->qvars_) {
    return false;
  }
  if (a->children_.size() != b->children_.size()) return false;
  for (size_t i = 0; i < a->children_.size(); ++i) {
    if (!Equal(a->children_[i], b->children_[i])) return false;
  }
  return true;
}

}  // namespace cqa
