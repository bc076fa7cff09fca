#ifndef CQA_CQA_H_
#define CQA_CQA_H_

/// Umbrella header for the cqa library — consistent query answering for
/// primary keys and self-join-free conjunctive queries with negated atoms
/// (Koutris & Wijsen, PODS 2018).
///
/// Typical flow:
///   1. Parse or build a `Query` and a `Database` (query/, db/).
///   2. `Classify` the query's CERTAINTY problem (attack/).
///   3. If in FO: `RewriteCertain` and evaluate/export the formula (fo/,
///      rewriting/), or interpret with `Algorithm1`.
///   4. Otherwise: decide exactly with `IsCertainBacktracking`, or for
///      queries in the matching class (q1 plus self-covering negated
///      atoms) with `IsCertainQ1ByMatching` (certainty/).
/// The reductions/ directory holds the paper's constructions as runnable
/// code; gen/ provides seeded workloads.

#include "cqa/attack/attack_graph.h"
#include "cqa/attack/classification.h"
#include "cqa/attack/dot.h"
#include "cqa/base/budget.h"
#include "cqa/base/error.h"
#include "cqa/base/interner.h"
#include "cqa/base/result.h"
#include "cqa/base/rng.h"
#include "cqa/base/symbol_set.h"
#include "cqa/base/value.h"
#include "cqa/cache/fingerprint.h"
#include "cqa/cache/query_key.h"
#include "cqa/cache/result_cache.h"
#include "cqa/cache/warm_state.h"
#include "cqa/certainty/backtracking.h"
#include "cqa/certainty/certain_answers.h"
#include "cqa/certainty/matching_q1.h"
#include "cqa/certainty/naive.h"
#include "cqa/certainty/rewriting_solver.h"
#include "cqa/certainty/sampling.h"
#include "cqa/certainty/solver.h"
#include "cqa/db/database.h"
#include "cqa/db/eval.h"
#include "cqa/db/repairs.h"
#include "cqa/db/stats.h"
#include "cqa/db/typing.h"
#include "cqa/export/asp.h"
#include "cqa/fd/fd.h"
#include "cqa/fo/algebra.h"
#include "cqa/fo/eval.h"
#include "cqa/fo/fo_parser.h"
#include "cqa/fo/formula.h"
#include "cqa/fo/normal_form.h"
#include "cqa/fo/simplify.h"
#include "cqa/fo/sql.h"
#include "cqa/gen/families.h"
#include "cqa/gen/poll.h"
#include "cqa/gen/random_db.h"
#include "cqa/gen/random_formula.h"
#include "cqa/gen/random_query.h"
#include "cqa/query/parser.h"
#include "cqa/query/query.h"
#include "cqa/reductions/bpm.h"
#include "cqa/reductions/hall_covering.h"
#include "cqa/reductions/lemma54.h"
#include "cqa/reductions/lemma66.h"
#include "cqa/reductions/prop72.h"
#include "cqa/reductions/q4.h"
#include "cqa/reductions/theta.h"
#include "cqa/reductions/ufa.h"
#include "cqa/rewriting/algorithm1.h"
#include "cqa/rewriting/rewriter.h"

#endif  // CQA_CQA_H_
