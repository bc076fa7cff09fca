#include "cqa/parallel/decompose.h"

#include <map>
#include <utility>

#include "cqa/base/union_find.h"

namespace cqa {

namespace {

// Collects the variable symbols of a disequality (either side may hold
// variables; the rewriting keeps reified variables on the right).
SymbolSet DiseqVars(const Diseq& d) {
  SymbolSet vars;
  for (const Term& t : d.lhs) {
    if (t.is_variable()) vars.Insert(t.var());
  }
  for (const Term& t : d.rhs) {
    if (t.is_variable()) vars.Insert(t.var());
  }
  return vars;
}

// Unions `node` with every node already anchored to one of `vars`,
// anchoring unseen variables to `node`.
void LinkVars(const SymbolSet& vars, int node,
              std::map<Symbol, int>* var_anchor, UnionFind* uf) {
  for (Symbol v : vars.items()) {
    auto [it, inserted] = var_anchor->emplace(v, node);
    if (!inserted) uf->Union(it->second, node);
  }
}

}  // namespace

QuerySplit SplitQueryConnected(const Query& q) {
  QuerySplit out;
  const size_t n_lits = q.NumLiterals();
  const size_t n_dis = q.diseqs().size();
  // Reified variables act as constants a group boundary could silently
  // share; groups would no longer be independent, so don't split.
  if (!q.reified().empty() || n_lits <= 1) {
    out.subqueries.push_back(q);
    return out;
  }

  UnionFind uf(n_lits + n_dis);
  std::map<Symbol, int> var_anchor;
  for (size_t i = 0; i < n_lits; ++i) {
    SymbolSet vars = q.atom(i).Vars();
    // A ground literal shares no variable with anything; keep it in the
    // first group rather than minting a variable-free sub-query.
    if (vars.empty()) {
      uf.Union(0, static_cast<int>(i));
      continue;
    }
    LinkVars(vars, static_cast<int>(i), &var_anchor, &uf);
  }
  for (size_t j = 0; j < n_dis; ++j) {
    const int node = static_cast<int>(n_lits + j);
    SymbolSet vars = DiseqVars(q.diseqs()[j]);
    if (vars.empty()) {
      uf.Union(0, node);
      continue;
    }
    LinkVars(vars, node, &var_anchor, &uf);
  }

  // Bucket literals and diseqs by component, ordered by smallest literal
  // index (std::map over the first literal's index).
  std::map<int, std::pair<std::vector<Literal>, std::vector<Diseq>>> groups;
  std::map<int, int> root_to_first;
  for (size_t i = 0; i < n_lits; ++i) {
    int root = uf.Find(static_cast<int>(i));
    auto [it, inserted] = root_to_first.emplace(root, static_cast<int>(i));
    groups[it->second].first.push_back(q.literal(i));
  }
  for (size_t j = 0; j < n_dis; ++j) {
    int root = uf.Find(static_cast<int>(n_lits + j));
    auto it = root_to_first.find(root);
    if (it == root_to_first.end()) {
      // A disequality whose component holds no literal (cannot happen for
      // a safe query, but fall back rather than drop the constraint).
      out.subqueries.clear();
      out.subqueries.push_back(q);
      return out;
    }
    groups[it->second].second.push_back(q.diseqs()[j]);
  }

  if (groups.size() <= 1) {
    out.subqueries.push_back(q);
    return out;
  }
  for (auto& [first, parts] : groups) {
    Result<Query> sub =
        Query::Make(std::move(parts.first), std::move(parts.second));
    if (!sub.ok()) {
      // Safety of q makes every group safe; if validation still balks,
      // be conservative instead of wrong.
      out.subqueries.clear();
      out.subqueries.push_back(q);
      out.split = false;
      return out;
    }
    out.subqueries.push_back(std::move(sub.value()));
  }
  out.split = true;
  return out;
}

bool DataDecomposable(const Query& q) {
  if (!q.diseqs().empty() || !q.reified().empty()) return false;
  std::vector<size_t> pos = q.PositiveIndices();
  if (pos.empty()) return false;
  for (size_t i = 0; i < q.NumLiterals(); ++i) {
    if (q.atom(i).Vars().empty()) return false;
  }
  // The positive literals must be variable-connected *through positive
  // atoms alone* — one union-find pass over just the positive indices.
  UnionFind uf(pos.size());
  std::map<Symbol, int> var_anchor;
  for (size_t k = 0; k < pos.size(); ++k) {
    LinkVars(q.atom(pos[k]).Vars(), static_cast<int>(k), &var_anchor, &uf);
  }
  return uf.num_components() == 1;
}

std::vector<DataComponent> DecomposeData(const Query& q, const Database& db) {
  const Database::ComponentIndex& ci = db.BlockComponents();

  SymbolSet query_rels;
  SymbolSet positive_rels;
  for (const Literal& lit : q.literals()) {
    query_rels.Insert(lit.atom.relation());
    if (!lit.negated) positive_rels.Insert(lit.atom.relation());
  }

  // Bucket the query-relevant blocks by component. std::map keeps the
  // component-id order, which follows first appearance over the block list.
  struct CompInfo {
    std::vector<int> blocks;
    SymbolSet present_positive;
  };
  std::map<int, CompInfo> comps;
  for (size_t b = 0; b < db.NumBlocks(); ++b) {
    const Symbol relation = db.block(static_cast<int>(b)).relation;
    if (!query_rels.contains(relation)) continue;
    CompInfo& info = comps[ci.component_of_block[b]];
    info.blocks.push_back(static_cast<int>(b));
    if (positive_rels.contains(relation)) {
      info.present_positive.Insert(relation);
    }
  }

  std::vector<DataComponent> out;
  for (auto& [comp_id, info] : comps) {
    // A component missing any positive relation cannot satisfy q in any of
    // its repairs: it contributes `false` to the OR — skip it.
    if (!positive_rels.IsSubsetOf(info.present_positive)) continue;
    auto sub = std::make_shared<Database>(db.schema());
    size_t facts = 0;
    for (int b : info.blocks) {
      const Database::Block& block = db.block(b);
      for (size_t m = 0; m < block.size(); ++m) {
        Result<bool> added = sub->AddFact(block.relation, db.BlockFact(b, m));
        (void)added;  // schema copied from db: cannot fail
        ++facts;
      }
    }
    DataComponent component;
    component.db = std::move(sub);
    component.blocks = info.blocks.size();
    component.facts = facts;
    out.push_back(std::move(component));
  }
  return out;
}

}  // namespace cqa
