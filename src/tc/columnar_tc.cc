#include "tc/columnar_tc.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "columnar/bitset.h"
#include "columnar/csr.h"
#include "columnar/csr_cache.h"
#include "exec/thread_pool.h"
#include "gov/governor.h"

namespace graphlog::tc {

using columnar::Bitset;
using columnar::Csr;
using storage::Relation;
using storage::Tuple;

namespace {

/// Adds `src` into `dst` element-wise, growing `dst` as needed.
void AddInto(std::vector<uint64_t>* dst, const std::vector<uint64_t>& src) {
  if (dst->size() < src.size()) dst->resize(src.size(), 0);
  for (size_t k = 0; k < src.size(); ++k) (*dst)[k] += src[k];
}

/// Bumps slot `k` of `v`, growing it as needed.
void Bump(std::vector<uint64_t>* v, size_t k, uint64_t by) {
  if (v->size() <= k) v->resize(k + 1, 0);
  (*v)[k] += by;
}

}  // namespace

void ColumnarClosure::AppendTo(Relation* out) const {
  out->Reserve(out->size() + pairs);
  if (seed.has_value()) {
    for (uint32_t v : by_wave[0]) out->AppendUnique(Tuple{csr->values[v]});
    return;
  }
  for (uint32_t s = 0; s < reach.size(); ++s) {
    const Value& vs = csr->values[s];
    for (uint32_t v : reach[s]) out->AppendUnique(Tuple{vs, csr->values[v]});
  }
}

uint64_t ColumnarClosure::AppendDepth(size_t depth, Relation* out) const {
  if (depth == 0 || depth > waves.reached.size()) return 0;
  out->Reserve(out->size() + waves.reached[depth - 1]);
  uint64_t n = 0;
  for (uint32_t s = 0; s < by_wave.size(); ++s) {
    const std::vector<uint32_t>& ends = wave_ends[s];
    if (ends.size() < depth) continue;
    const uint32_t begin = depth == 1 ? 0 : ends[depth - 2];
    for (uint32_t i = begin; i < ends[depth - 1]; ++i) {
      const Value& v = csr->values[by_wave[s][i]];
      out->AppendUnique(seed.has_value() ? Tuple{v}
                                         : Tuple{csr->values[s], v});
      ++n;
    }
  }
  return n;
}

Result<ColumnarClosure> ComputeColumnarClosure(const Relation& edges,
                                               exec::ThreadPool* pool,
                                               const ClosureOptions& options) {
  if (edges.arity() != 2) {
    return Status::InvalidArgument(
        "transitive closure requires a binary relation");
  }
  const gov::GovernorContext* governor = options.governor;
  ColumnarClosure out;
  if (options.cache != nullptr) {
    GRAPHLOG_ASSIGN_OR_RETURN(
        out.csr, options.cache->Get(edges, options.metrics, governor,
                                    &out.built_csr));
  } else {
    GRAPHLOG_ASSIGN_OR_RETURN(
        Csr built, columnar::BuildCsr(edges, options.metrics, governor));
    out.csr = std::make_shared<const Csr>(std::move(built));
  }
  const Csr& csr = *out.csr;
  const uint32_t n = csr.num_nodes();
  // Source slots: every node, or the seed alone (no slot source when the
  // seed occurs in no edge).
  out.seed = options.seed;
  const size_t slots = out.seed.has_value() ? 1 : n;
  int64_t seed_id = -1;
  if (out.seed.has_value()) seed_id = csr.IdOf(out.seed->value);
  const bool backward = out.seed.has_value() && !out.seed->forward;
  auto expand = [&csr, backward](uint32_t u) {
    return backward ? csr.Rev(u) : csr.Sorted(u);
  };

  // Governed fan-out: one BFS per source, first failing source (in
  // source order) wins, lanes drain once the stop flag is up, token
  // polled inside the expansion.
  std::atomic<bool> stop{false};
  std::mutex err_mu;
  Status lane_error = Status::OK();
  size_t err_src = slots;
  auto record_error = [&](size_t s, Status st) {
    std::lock_guard<std::mutex> lock(err_mu);
    if (s < err_src) {
      err_src = s;
      lane_error = std::move(st);
    }
    stop.store(true, std::memory_order_relaxed);
  };
  const std::atomic<bool>* cancel =
      governor != nullptr ? governor->token.flag() : nullptr;
  if (!out.seed.has_value()) out.reach.resize(n);
  out.by_wave.resize(slots);
  out.wave_ends.resize(slots);
  // Per-worker scratch bitsets (reused across sources) and per-worker
  // wave histograms, summed after the join.
  struct Scratch {
    Bitset visited, frontier, next;
    TcWaves waves;
  };
  std::vector<Scratch> scratch(
      pool != nullptr && slots > 1 ? pool->parallelism() : 1);
  for (Scratch& sc : scratch) {
    sc.visited.ResetTo(n);
    sc.frontier.ResetTo(n);
    sc.next.ResetTo(n);
  }
  auto bfs = [&](unsigned wid, size_t s) {
    if (governor != nullptr) {
      if (stop.load(std::memory_order_relaxed)) return;
      Status st = governor->Check("pool.task");
      if (st.ok()) st = governor->Check("tc.expand");
      if (!st.ok()) {
        record_error(s, std::move(st));
        return;
      }
    }
    const int64_t source =
        out.seed.has_value() ? seed_id : static_cast<int64_t>(s);
    if (source < 0) return;
    Scratch& sc = scratch[wid];
    sc.visited.Reset();
    sc.frontier.Reset();
    // Wave 1 expands the source's own edges onto an empty visited set.
    uint64_t wave_exp = 0, wave_rev = 0;
    for (uint32_t v : expand(static_cast<uint32_t>(source))) {
      sc.frontier.Set(v);
      ++wave_exp;
    }
    size_t popped = 0;
    size_t depth = 0;
    // frontier &~ visited = the genuinely new wave; or its spans into
    // next; repeat until a wave reaches nothing new.
    while (true) {
      const bool any = sc.frontier.AndNot(sc.visited);
      Bump(&sc.waves.expansions, depth, wave_exp);
      Bump(&sc.waves.revisits, depth, wave_rev);
      Bump(&sc.waves.reached, depth, any ? sc.frontier.Count() : 0);
      if (!any) break;
      ++depth;
      sc.visited.OrWith(sc.frontier);
      std::vector<uint32_t>& order = out.by_wave[s];
      sc.frontier.ForEachSet([&](uint32_t v) { order.push_back(v); });
      out.wave_ends[s].push_back(static_cast<uint32_t>(order.size()));
      sc.next.Reset();
      wave_exp = wave_rev = 0;
      bool aborted = false;
      sc.frontier.ForEachSet([&](uint32_t u) {
        if (aborted) return;
        if (cancel != nullptr && (++popped & 1023u) == 0 &&
            cancel->load(std::memory_order_relaxed)) {
          record_error(s, Status::Cancelled("query cancelled at tc.expand"));
          aborted = true;
          return;
        }
        for (uint32_t v : expand(u)) {
          ++wave_exp;
          if (sc.visited.Test(v)) ++wave_rev;
          sc.next.Set(v);
        }
      });
      if (aborted) return;
      std::swap(sc.frontier, sc.next);
    }
    if (out.seed.has_value()) return;
    std::vector<uint32_t>& local = out.reach[s];
    local.reserve(sc.visited.Count());
    sc.visited.ForEachSet([&](uint32_t v) { local.push_back(v); });
  };
  if (pool != nullptr && slots > 1) {
    pool->ParallelFor(slots, bfs, governor != nullptr ? &stop : nullptr);
  } else {
    for (size_t s = 0; s < slots && !stop.load(std::memory_order_relaxed);
         ++s) {
      bfs(0, s);
    }
  }
  if (err_src < slots) return lane_error;

  for (const Scratch& sc : scratch) {
    AddInto(&out.waves.reached, sc.waves.reached);
    AddInto(&out.waves.expansions, sc.waves.expansions);
    AddInto(&out.waves.revisits, sc.waves.revisits);
  }
  for (uint64_t reached : out.waves.reached) out.pairs += reached;
  if (options.metrics != nullptr) {
    options.metrics->counter("tc.invocations")->Increment();
    options.metrics->counter("tc.pair_visits")->Add(out.pairs);
    options.metrics->histogram("tc.output_pairs")
        ->Observe(static_cast<int64_t>(out.pairs));
  }
  return out;
}

Result<Relation> ColumnarTransitiveClosure(
    const Relation& edges, unsigned num_threads,
    obs::MetricsRegistry* metrics, const gov::GovernorContext* governor,
    TcStats* stats, columnar::CsrCache* cache) {
  std::unique_ptr<exec::ThreadPool> pool;
  const unsigned lanes = exec::ThreadPool::ResolveParallelism(num_threads);
  if (lanes > 1) pool = std::make_unique<exec::ThreadPool>(lanes);
  ClosureOptions options;
  options.metrics = metrics;
  options.governor = governor;
  options.cache = cache;
  GRAPHLOG_ASSIGN_OR_RETURN(
      ColumnarClosure closure,
      ComputeColumnarClosure(edges, pool.get(), options));

  Relation tc(2);
  closure.AppendTo(&tc);
  if (stats != nullptr) {
    stats->rounds = closure.reach.size();
    stats->pair_visits = closure.pairs;
  }
  // Budgets on the merged closure: the deterministic boundary of the
  // kernel.
  if (governor != nullptr) {
    GRAPHLOG_RETURN_NOT_OK(governor->CheckInterrupts("tc.expand"));
    const gov::ResourceBudget& b = governor->budget;
    uint64_t row_cap = 0;  // 0 = no trip
    if (b.max_result_rows != 0 && tc.size() > b.max_result_rows) {
      if (!b.return_partial) {
        return gov::BudgetExceededError("max_result_rows", "tc.expand",
                                        tc.size(), b.max_result_rows);
      }
      row_cap = b.max_result_rows;
    }
    if (b.max_bytes != 0 && tc.MemoryBytes() > b.max_bytes) {
      if (!b.return_partial) {
        return gov::BudgetExceededError("max_bytes", "tc.expand",
                                        tc.MemoryBytes(), b.max_bytes);
      }
      uint64_t per_row = tc.MemoryBytes() / tc.size();
      uint64_t by_bytes = per_row == 0 ? tc.size() : b.max_bytes / per_row;
      if (row_cap == 0 || by_bytes < row_cap) row_cap = by_bytes;
    }
    if (row_cap != 0 && row_cap < tc.size()) {
      tc.TruncateTo(row_cap);
      if (stats != nullptr) stats->truncated = true;
    }
  }
  return tc;
}

}  // namespace graphlog::tc
