// Columnar transitive closure: per-source BFS over CSR adjacency with
// bitset frontiers (columnar/bitset.h), the closure kernel of the engine
// (eval/engine.cc dispatches λ's TC strata and bound-source pairs here)
// and of the columnar path. One BFS per source, fanned across a thread
// pool; per-source results are merged in source order, so output
// contents and insertion order are identical for every thread count. A
// seeded run (ClosureOptions::seed) is the same BFS from one source: the
// set reached from a fixed endpoint, or reaching it. The expansion is
// word-at-a-time (frontier &~ visited, or-scan of adjacency spans) and
// the merge bulk-loads via Relation::AppendUnique, skipping the per-row
// dedup hashing: each (source, reached) pair is emitted exactly once by
// construction.

#ifndef GRAPHLOG_TC_COLUMNAR_TC_H_
#define GRAPHLOG_TC_COLUMNAR_TC_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/result.h"
#include "obs/metrics.h"
#include "storage/relation.h"
#include "tc/transitive_closure.h"

namespace graphlog::gov {
struct GovernorContext;  // gov/governor.h
}

namespace graphlog::columnar {
class CsrCache;  // columnar/csr_cache.h
struct Csr;      // columnar/csr.h
}

namespace graphlog::exec {
class ThreadPool;  // exec/thread_pool.h
}

namespace graphlog::tc {

/// \brief Per-wave histogram of one closure run, summed over sources.
/// Wave k (1-based) expands the edges out of the nodes first reached at
/// depth k-1 (wave 1 expands each source's own edges) and first reaches
/// the depth-k nodes. Semi-naive evaluation of the TC rule pair derives
/// exactly the depth-(k+1) pairs in its round k, so these vectors replay
/// its round log. All three vectors have one entry per wave, the last
/// wave being the one that reached nothing new.
struct TcWaves {
  std::vector<uint64_t> reached;     ///< [k-1]: pairs first reached at depth k
  std::vector<uint64_t> expansions;  ///< [k-1]: edge expansions of wave k
  /// [k-1]: wave-k expansions landing on a node already reached at a
  /// smaller depth (the rest of a wave's non-novel expansions hit a node
  /// the same wave had already reached).
  std::vector<uint64_t> revisits;

  size_t size() const { return expansions.size(); }
};

/// \brief The fixed endpoint of a seeded closure. Forward, the run
/// reaches every y with value ->+ y over the edges (the pair
/// `p(Y) :- q(c, Y). p(Y) :- p(Z), q(Z, Y).`); backward, every x with
/// x ->+ value (`p(X) :- q(X, c). p(X) :- q(X, Z), p(Z).`).
struct ClosureSeed {
  Value value;
  bool forward = true;
};

/// \brief A closure computed per source and not yet materialized.
struct ColumnarClosure {
  std::shared_ptr<const columnar::Csr> csr;
  /// Set for a seeded run: its one source slot is the seed, empty when
  /// the seed occurs in no edge, and its rows are the unary reached
  /// column.
  std::optional<ClosureSeed> seed;
  /// Per source (dense id): reached nodes in ascending dense id. Left
  /// empty by a seeded run, whose order is by_wave's.
  std::vector<std::vector<uint32_t>> reach;
  /// Per source slot: reached nodes in wave order (ascending within a
  /// wave), and the end offset of each wave's run in that list.
  std::vector<std::vector<uint32_t>> by_wave;
  std::vector<std::vector<uint32_t>> wave_ends;
  TcWaves waves;
  uint64_t pairs = 0;
  /// False when the CSR snapshot came from ClosureOptions::cache.
  bool built_csr = true;

  /// \brief Number of source slots: every node, or 1 for a seeded run.
  size_t sources() const { return by_wave.size(); }

  /// \brief Appends every pair to `out` via AppendUnique, in (source
  /// first-appearance order, reached dense id) order; a seeded run
  /// appends its reached nodes as unary rows in (depth, dense id) order.
  /// `out` must not already hold any of the rows.
  void AppendTo(storage::Relation* out) const;
  /// \brief Appends the rows first reached at BFS depth `depth`
  /// (1-based) in (source, reached dense id) order. Returns the number
  /// appended.
  uint64_t AppendDepth(size_t depth, storage::Relation* out) const;
};

/// \brief Knobs of ComputeColumnarClosure().
struct ClosureOptions {
  obs::MetricsRegistry* metrics = nullptr;
  const gov::GovernorContext* governor = nullptr;
  /// Reuses/stores the CSR snapshot of the edges (nullable).
  columnar::CsrCache* cache = nullptr;
  /// When set, one BFS from the seed's dense id instead of one per node:
  /// over Csr::Sorted spans forward, over Csr::Rev spans backward.
  std::optional<ClosureSeed> seed;
};

/// \brief The BFS core: closure of binary `edges` on `pool` (null = run
/// inline on the caller), or with `options.seed` the seed's single-source
/// reach (a seed absent from `edges` reaches nothing). Governance: the
/// `csr.build` point gates the CSR construction, every source claimed is
/// a pool task and checks `pool.task` then `tc.expand`, and the
/// cancellation token is polled every ~1k node expansions inside a
/// source's BFS. The first failing source in source order wins, so the
/// surfaced error is independent of lane scheduling. Budgets are the
/// caller's business.
Result<ColumnarClosure> ComputeColumnarClosure(const storage::Relation& edges,
                                               exec::ThreadPool* pool,
                                               const ClosureOptions& options);

/// \brief Transitive closure of binary `edges` via per-source bitset
/// BFS over a CSR snapshot, fanned across `num_threads` workers (0 =
/// hardware concurrency). Result set equals every other TC kernel;
/// insertion order is (source in first-appearance order, reached in
/// ascending dense id) and identical across thread counts.
///
/// Governance as ComputeColumnarClosure, plus max_result_rows/max_bytes
/// budgets enforced on the merged closure (strict fail, or deterministic
/// truncation + `stats->truncated` with return_partial).
///
/// `cache` (nullable) reuses/stores the CSR snapshot across calls,
/// invalidated by the relation's data_generation.
Result<storage::Relation> ColumnarTransitiveClosure(
    const storage::Relation& edges, unsigned num_threads = 0,
    obs::MetricsRegistry* metrics = nullptr,
    const gov::GovernorContext* governor = nullptr, TcStats* stats = nullptr,
    columnar::CsrCache* cache = nullptr);

}  // namespace graphlog::tc

#endif  // GRAPHLOG_TC_COLUMNAR_TC_H_
