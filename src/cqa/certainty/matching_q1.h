#ifndef CQA_CERTAINTY_MATCHING_Q1_H_
#define CQA_CERTAINTY_MATCHING_Q1_H_

#include <optional>

#include "cqa/db/database.h"
#include "cqa/query/query.h"

namespace cqa {

/// Shape detection for the matching engine's query class: the paper's
/// canonical query
///   q1 = { R(x | y), ¬S(y | x) }
/// up to renaming of relations and variables (both atoms binary and
/// simple-key, variables crossed, x ≠ y), plus zero or more negated
/// *self-covering* atoms N whose key is exactly (x) and whose terms are all
/// variables in {x, y} — e.g. ¬T(x | y), ¬U(x), ¬T(x | x), ¬T(x | y, x).
/// No constants, disequalities or reified variables anywhere. (Relations
/// are pairwise distinct because queries are self-join-free.) This is the
/// one test both auto dispatch and sandbox isolation use for "polynomial
/// by matching". Returns the literal index of the positive atom, or
/// nullopt.
std::optional<size_t> DetectQ1Shape(const Query& q);

/// Polynomial-time solver for the class `DetectQ1Shape` accepts. An
/// R-block a *covers itself* when some R(a,b) and some N(θ[x→a, y→b]) are
/// both in db: choosing both falsifies the query on that block, and N's
/// block (key a) serves no other R-block. By the argument of Lemma 5.2
/// extended with that case (docs/THEORY.md), a falsifying repair exists
/// iff the bipartite graph
///   { uncovered R-block keys } × { S-block keys },
///   a—b iff R(a,b) ∈ db ∧ S(b,a) ∈ db
/// has a matching saturating every uncovered R-block. CERTAINTY is the
/// complement. The graph is built in one scan of R — only S-blocks an edge
/// reaches get a vertex — so the cost is O(|R|) plus Hopcroft–Karp.
/// Returns nullopt if `q` is outside the class.
std::optional<bool> IsCertainQ1ByMatching(const Query& q, const Database& db);

}  // namespace cqa

#endif  // CQA_CERTAINTY_MATCHING_Q1_H_
