// Columnar ablation: row-at-a-time vs CSR/bitset evaluation.
//
// The columnar layer (src/columnar/) is a pure constant-factor
// optimisation — same rows, same provenance, same stats — so the claim
// this bench reproduces is quantitative: serving probes from CSR
// adjacency spans and running closures/product searches over word-packed
// bitset frontiers beats the hash-index row path by >= 2x on the
// workloads the other benches already time:
//
//   tc       — per-source transitive closure on RandomDigraph (n up to
//              400, 4 edges per node), the row BFS kernel
//              (tc/transitive_closure.h, kBfs) vs the CSR/bitset kernel
//              (tc/columnar_tc.h);
//   engine   — the linear-closure GraphLog program on bench_scaling's
//              graph, the semi-naive engine with eval.columnar off vs on
//              (CSR build cost included: the engine snapshots EDBs per
//              batch);
//   rpq      — the redundant-union expression from bench_rpq_ablation,
//              DFA product search vs the per-state bitset-frontier
//              kernel (rpq::EvalRpqBitset).
//
// The Report() section cross-checks equivalence and prints median
// speedups at the largest size; the google-benchmark timings show the
// shape across sizes.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "columnar/csr_cache.h"
#include "eval/engine.h"
#include "graph/data_graph.h"
#include "graphlog/api.h"
#include "rpq/rpq_eval.h"
#include "storage/database.h"
#include "tc/columnar_tc.h"
#include "tc/transitive_closure.h"
#include "workload/generators.h"

using namespace graphlog;
using bench::CheckOk;

namespace {

// The three graphs mirror the benches whose workloads this ablation
// re-times, seeds included.
storage::Database MakeTcGraph(int n) {
  storage::Database db;
  CheckOk(workload::RandomDigraph(n, 4 * n, 123, &db), "tc graph");
  return db;
}

storage::Database MakeScalingGraph(int n) {
  storage::Database db;
  CheckOk(workload::RandomDigraph(n, 3 * n, 7, &db), "scaling graph");
  return db;
}

storage::Database MakeRpqGraph(int n) {
  storage::Database db;
  CheckOk(workload::RandomDigraph(n, 3 * n, 4, &db, "p"), "gen p");
  CheckOk(workload::RandomDigraph(n, 2 * n, 13, &db, "q"), "gen q");
  return db;
}

const char* kClosureProgram =
    "t(X, Y) :- edge(X, Y).\n"
    "t(X, Y) :- edge(X, Z), t(Z, Y).\n";
const char* kRpqExpr = "(p | p p | p p p)+";

double MedianMs(std::vector<double> ms) {
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

template <typename F>
double TimeMs(F&& f) {
  auto t0 = std::chrono::steady_clock::now();
  f();
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

void Report() {
  bench::Banner(
      "Columnar ablation — CSR/bitset kernels vs the row path",
      "identical answers; >= 2x median speedup from CSR adjacency "
      "spans and word-packed bitset frontiers");
  constexpr int kReps = 5;

  // tc: row kernel vs columnar kernel, largest size.
  {
    const int n = 400;
    storage::Database db = MakeTcGraph(n);
    const storage::Relation& e = *db.Find("edge");
    columnar::CsrCache cache;
    storage::Relation row_tc(2), col_tc(2);
    std::vector<double> row_ms, col_ms;
    for (int i = 0; i < kReps; ++i) {
      row_ms.push_back(TimeMs([&] {
        row_tc = CheckOk(tc::TransitiveClosure(e, tc::TcAlgorithm::kBfs),
                         "row tc");
      }));
      col_ms.push_back(TimeMs([&] {
        col_tc = CheckOk(
            tc::ColumnarTransitiveClosure(e, 1, nullptr, nullptr, nullptr,
                                          &cache),
            "columnar tc");
      }));
    }
    double row = MedianMs(row_ms), col = MedianMs(col_ms);
    std::printf(
        "tc      n=%-4d row %8.2f ms | columnar %8.2f ms | %5.2fx  %s\n", n,
        row, col, row / col,
        row_tc.SetEquals(col_tc) ? "(MATCH)" : "(MISMATCH!)");
  }

  // engine: eval.columnar off vs on on the linear-closure program,
  // largest bench_scaling size. Fresh database per run (the program
  // materializes t), timing only the evaluation. Both runs stay on the
  // rule path (max_iterations), whose joins are what columnar changes;
  // left alone the engine would hand the closure to the kernel.
  {
    const int n = 256;
    std::vector<double> row_ms, col_ms;
    eval::EvalStats row_stats, col_stats;
    for (int i = 0; i < kReps; ++i) {
      storage::Database row_db = MakeScalingGraph(n);
      eval::EvalOptions row_opts;
      row_opts.max_iterations = 1u << 30;
      row_ms.push_back(TimeMs([&] {
        row_stats = CheckOk(
            eval::EvaluateText(kClosureProgram, &row_db, row_opts),
            "row eval");
      }));
      storage::Database col_db = MakeScalingGraph(n);
      eval::EvalOptions opts = row_opts;
      opts.columnar = true;
      col_ms.push_back(TimeMs([&] {
        col_stats = CheckOk(eval::EvaluateText(kClosureProgram, &col_db, opts),
                            "columnar eval");
      }));
      if (i == 0) {
        bool match = row_db.Find("t")->rows() == col_db.Find("t")->rows() &&
                     row_stats.rule_firings == col_stats.rule_firings &&
                     row_stats.tuples_derived == col_stats.tuples_derived;
        if (!match) std::printf("engine paths DIVERGED (bug!)\n");
      }
    }
    double row = MedianMs(row_ms), col = MedianMs(col_ms);
    std::printf(
        "engine  n=%-4d row %8.2f ms | columnar %8.2f ms | %5.2fx  "
        "(bit-identical rows + stats checked)\n",
        n, row, col, row / col);
  }

  // rpq: DFA product search vs bitset frontiers on the redundant-union
  // expression, largest bench_rpq_ablation size.
  {
    const int n = 60;
    storage::Database db = MakeRpqGraph(n);
    graph::DataGraph g = graph::DataGraph::FromDatabase(db);
    auto expr = CheckOk(gl::ParsePathExpr(kRpqExpr, &db.symbols()), "parse");
    storage::Relation dfa_r(2), bit_r(2);
    std::vector<double> row_ms, col_ms;
    for (int i = 0; i < kReps; ++i) {
      row_ms.push_back(TimeMs([&] {
        dfa_r = CheckOk(rpq::EvalRpqDfa(g, expr), "dfa eval");
      }));
      col_ms.push_back(TimeMs([&] {
        bit_r = CheckOk(rpq::EvalRpqBitset(g, expr), "bitset eval");
      }));
    }
    double row = MedianMs(row_ms), col = MedianMs(col_ms);
    std::printf(
        "rpq     n=%-4d row %8.2f ms | columnar %8.2f ms | %5.2fx  %s\n", n,
        row, col, row / col,
        dfa_r.SetEquals(bit_r) ? "(MATCH)" : "(MISMATCH!)");
  }
  std::printf("\n");
}

// --- timed benchmarks: strategy 0 = row path, 1 = columnar path ---

void BM_Tc(benchmark::State& state) {
  int strategy = static_cast<int>(state.range(0));
  int n = static_cast<int>(state.range(1));
  storage::Database db = MakeTcGraph(n);
  const storage::Relation& e = *db.Find("edge");
  columnar::CsrCache cache;
  for (auto _ : state) {
    auto tc = strategy == 0
                  ? CheckOk(tc::TransitiveClosure(e, tc::TcAlgorithm::kBfs),
                            "row tc")
                  : CheckOk(tc::ColumnarTransitiveClosure(
                                e, 1, nullptr, nullptr, nullptr, &cache),
                            "columnar tc");
    benchmark::DoNotOptimize(tc.size());
  }
  state.SetLabel(std::string(strategy == 0 ? "row" : "columnar") +
                 " n=" + std::to_string(n));
}
BENCHMARK(BM_Tc)
    ->Args({0, 100})
    ->Args({1, 100})
    ->Args({0, 200})
    ->Args({1, 200})
    ->Args({0, 400})
    ->Args({1, 400})
    ->UseRealTime();

void BM_EngineClosure(benchmark::State& state) {
  int strategy = static_cast<int>(state.range(0));
  int n = static_cast<int>(state.range(1));
  eval::EvalOptions opts;
  opts.columnar = strategy == 1;
  opts.max_iterations = 1u << 30;  // the rule path, as in Report()
  for (auto _ : state) {
    state.PauseTiming();
    storage::Database db = MakeScalingGraph(n);
    state.ResumeTiming();
    auto s = CheckOk(eval::EvaluateText(kClosureProgram, &db, opts), "eval");
    benchmark::DoNotOptimize(s.tuples_derived);
  }
  state.SetLabel(std::string(strategy == 0 ? "row" : "columnar") +
                 " n=" + std::to_string(n));
}
BENCHMARK(BM_EngineClosure)
    ->Args({0, 64})
    ->Args({1, 64})
    ->Args({0, 128})
    ->Args({1, 128})
    ->Args({0, 256})
    ->Args({1, 256})
    ->UseRealTime();

void BM_Rpq(benchmark::State& state) {
  int strategy = static_cast<int>(state.range(0));
  int n = static_cast<int>(state.range(1));
  storage::Database db = MakeRpqGraph(n);
  graph::DataGraph g = graph::DataGraph::FromDatabase(db);
  auto expr = CheckOk(gl::ParsePathExpr(kRpqExpr, &db.symbols()), "parse");
  for (auto _ : state) {
    auto r = strategy == 0 ? CheckOk(rpq::EvalRpqDfa(g, expr), "dfa")
                           : CheckOk(rpq::EvalRpqBitset(g, expr), "bitset");
    benchmark::DoNotOptimize(r.size());
  }
  state.SetLabel(std::string(strategy == 0 ? "dfa" : "bitset") +
                 " n=" + std::to_string(n));
}
BENCHMARK(BM_Rpq)
    ->Args({0, 20})
    ->Args({1, 20})
    ->Args({0, 40})
    ->Args({1, 40})
    ->Args({0, 60})
    ->Args({1, 60})
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  Report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
