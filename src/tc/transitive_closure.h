// Dedicated transitive-closure kernels.
//
// Section 6 of the paper: "implementations can benefit from the existing
// work on transitive closure computation and linear Datalog optimization".
// This module provides that substrate: four interchangeable algorithms for
// computing the positive closure of a binary relation, used by the
// benchmark ablation (bench_tc_ablation) and as oracles in tests.
//
//   * kNaive      — iterate T := T ∪ T∘E until fixpoint, recomputing the
//                   full join each round (the naive Datalog evaluation).
//   * kSemiNaive  — differential: only join the last round's new pairs
//                   against E (what the Datalog engine does).
//   * kSquaring   — logarithmic rounds: T := T ∪ T∘T ("smart" TC, [Ull89]);
//                   few rounds, heavier joins.
//   * kBfs        — per-source DFS/BFS over an adjacency list; the classic
//                   graph-algorithmic approach ([JAN87] style).
//
// All four return identical relations; they differ only in cost shape.

#ifndef GRAPHLOG_TC_TRANSITIVE_CLOSURE_H_
#define GRAPHLOG_TC_TRANSITIVE_CLOSURE_H_

#include <cstdint>

#include "common/result.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/relation.h"

namespace graphlog::gov {
struct GovernorContext;  // gov/governor.h
}

namespace graphlog::tc {

/// \brief Algorithm selector for TransitiveClosure().
enum class TcAlgorithm : uint8_t {
  kNaive,
  kSemiNaive,
  kSquaring,
  kBfs,
};

/// \brief Statistics of one closure computation.
struct TcStats {
  uint64_t rounds = 0;        ///< fixpoint rounds (BFS: source count)
  uint64_t pair_visits = 0;   ///< candidate pairs generated (incl. dups)
  /// True when a governed run stopped early at a round boundary because
  /// a resource budget tripped with ResourceBudget::return_partial set;
  /// the returned relation then holds the (deterministic) partial
  /// closure built so far.
  bool truncated = false;
};

/// \brief Computes the positive transitive closure of binary relation
/// `edges`. Fails with kInvalidArgument when arity != 2.
///
/// When `tracer` is set a "tc" span is recorded (algorithm, input/output
/// sizes, rounds, candidate pairs); when `metrics` is set the cumulative
/// kernel counters (`tc.invocations`, `tc.rounds`, `tc.pair_visits`) and
/// the `tc.output_pairs` distribution are folded into the registry. Null
/// for either costs one pointer test.
///
/// When `governor` is set the kernels poll cancellation/deadline and any
/// armed `tc.expand` fault at every round boundary (BFS: per source) and
/// enforce the resource budgets (max_rounds against fixpoint rounds,
/// max_result_rows against closure pairs, max_bytes against the
/// closure's estimated bytes). Budget trips either fail with
/// kBudgetExceeded or — with return_partial — stop at the boundary and
/// return the partial closure with TcStats::truncated set. All checks
/// compare deterministic quantities at deterministic points.
Result<storage::Relation> TransitiveClosure(
    const storage::Relation& edges, TcAlgorithm algorithm,
    TcStats* stats = nullptr, obs::Tracer* tracer = nullptr,
    obs::MetricsRegistry* metrics = nullptr,
    const gov::GovernorContext* governor = nullptr);

/// \brief Closure of a single source: all y with source ->+ y, in (BFS
/// depth, dense id) order. A thin wrapper over the columnar kernel's
/// seeded run (columnar_tc.h), the engine's route when one endpoint is
/// fixed (the Figure 12 query).
Result<storage::Relation> ReachableFrom(const storage::Relation& edges,
                                        const Value& source);

}  // namespace graphlog::tc

#endif  // GRAPHLOG_TC_TRANSITIVE_CLOSURE_H_
