#include "cqa/certainty/matching_q1.h"

#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cqa/matching/hopcroft_karp.h"

namespace cqa {

namespace {

bool AllVariables(const Atom& a) {
  for (const Term& t : a.terms()) {
    if (!t.is_variable()) return false;
  }
  return true;
}

/// A self-covering atom N compiled against R(x | y): `columns[i]` is the
/// R column (0 for x, 1 for y) that N's position i copies, and `probe` is
/// the reused lookup tuple N(θ[x→a, y→b]).
struct CoverProbe {
  Symbol relation = kNoSymbol;
  std::vector<int> columns;
  Tuple probe;
};

/// True iff some N(θ[x→a, y→b]) is in db for the fact R(a, b).
bool CoversItself(std::vector<CoverProbe>* covers, const Tuple& r_fact,
                  const Database& db) {
  for (CoverProbe& c : *covers) {
    for (size_t i = 0; i < c.columns.size(); ++i) {
      c.probe[i] = r_fact[static_cast<size_t>(c.columns[i])];
    }
    if (db.Contains(c.relation, c.probe)) return true;
  }
  return false;
}

}  // namespace

std::optional<size_t> DetectQ1Shape(const Query& q) {
  if (!q.diseqs().empty() || !q.reified().empty()) return std::nullopt;
  const std::vector<size_t> positive = q.PositiveIndices();
  if (positive.size() != 1) return std::nullopt;
  const Atom& r = q.atom(positive[0]);
  if (r.arity() != 2 || r.key_len() != 1 || !AllVariables(r)) {
    return std::nullopt;
  }
  const Symbol x = r.term(0).var();
  const Symbol y = r.term(1).var();
  if (x == y) return std::nullopt;
  int crossed = 0;
  for (size_t i : q.NegativeIndices()) {
    const Atom& n = q.atom(i);
    if (n.key_len() != 1 || !AllVariables(n)) return std::nullopt;
    if (n.term(0).var() == y) {
      // The crossed atom S(y | x): exactly one.
      if (n.arity() != 2 || n.term(1).var() != x) return std::nullopt;
      ++crossed;
      continue;
    }
    // A self-covering atom: key (x), every term x or y.
    if (n.term(0).var() != x) return std::nullopt;
    for (const Term& t : n.terms()) {
      if (t.var() != x && t.var() != y) return std::nullopt;
    }
  }
  if (crossed != 1) return std::nullopt;
  return positive[0];
}

std::optional<bool> IsCertainQ1ByMatching(const Query& q, const Database& db) {
  std::optional<size_t> pos = DetectQ1Shape(q);
  if (!pos.has_value()) return std::nullopt;
  const Atom& r = q.atom(*pos);
  const Symbol x = r.term(0).var();
  Symbol rel_s = kNoSymbol;
  std::vector<CoverProbe> covers;
  for (size_t i : q.NegativeIndices()) {
    const Atom& n = q.atom(i);
    if (n.term(0).var() != x) {
      rel_s = n.relation();
      continue;
    }
    if (db.NumFacts(n.relation()) == 0) continue;  // covers no block
    CoverProbe c;
    c.relation = n.relation();
    for (const Term& t : n.terms()) c.columns.push_back(t.var() == x ? 0 : 1);
    c.probe.resize(c.columns.size());
    covers.push_back(std::move(c));
  }

  // Facts of another arity cannot match R(x | y): q fails in every repair.
  const std::vector<Tuple>& facts = db.FactsOf(r.relation());
  if (!facts.empty() && facts.front().size() != 2) return false;

  // 1. Mark the R-blocks that cover themselves.
  std::unordered_set<Value, ValueHash> covered;
  if (!covers.empty()) {
    for (const Tuple& t : facts) {
      if (CoversItself(&covers, t, db)) covered.insert(t[0]);
    }
  }

  // 2. One scan of R. Uncovered R-blocks are the left side; an S-block
  // gets a right-side id only when an edge a—b (S(b,a) ∈ db) reaches it.
  std::unordered_map<Value, int, ValueHash> left_ids;
  std::unordered_map<Value, int, ValueHash> right_ids;
  left_ids.reserve(facts.size());
  std::vector<char> has_edge;
  std::vector<std::pair<int, int>> edges;
  Tuple s_probe(2);
  for (const Tuple& t : facts) {
    if (!covered.empty() && covered.count(t[0]) > 0) continue;
    auto [left, fresh] =
        left_ids.try_emplace(t[0], static_cast<int>(has_edge.size()));
    if (fresh) has_edge.push_back(0);
    s_probe[0] = t[1];
    s_probe[1] = t[0];
    if (!db.Contains(rel_s, s_probe)) continue;
    auto right =
        right_ids.try_emplace(t[1], static_cast<int>(right_ids.size())).first;
    has_edge[static_cast<size_t>(left->second)] = 1;
    edges.emplace_back(left->second, right->second);
  }

  // 3. Whatever fact a repair picks for an uncovered block without an
  // edge satisfies the query, so no falsifying repair exists.
  for (char e : has_edge) {
    if (e == 0) return true;
  }

  // 4. Hopcroft–Karp: a saturating matching is a falsifying repair.
  BipartiteGraph g(static_cast<int>(left_ids.size()),
                   static_cast<int>(right_ids.size()));
  for (const auto& [l, rr] : edges) g.AddEdge(l, rr);
  return !HasLeftPerfectMatching(g);
}

}  // namespace cqa
