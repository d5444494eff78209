// Columnar ablation: row-at-a-time vs CSR/bitset evaluation.
//
// The columnar layer (src/columnar/) is a pure constant-factor
// optimisation — same answers as the row kernels — so the claim this
// bench reproduces is quantitative: running closures/product searches
// over CSR adjacency spans and word-packed bitset frontiers beats the
// row path by >= 2x on the workloads the other benches already time:
//
//   tc       — per-source transitive closure on RandomDigraph (n up to
//              400, 4 edges per node), the row BFS kernel
//              (tc/transitive_closure.h, kBfs) vs the CSR/bitset kernel
//              (tc/columnar_tc.h);
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

// The two graphs mirror the benches whose workloads this ablation
// re-times, seeds included.
storage::Database MakeTcGraph(int n) {
  storage::Database db;
  CheckOk(workload::RandomDigraph(n, 4 * n, 123, &db), "tc graph");
  return db;
}

storage::Database MakeRpqGraph(int n) {
  storage::Database db;
  CheckOk(workload::RandomDigraph(n, 3 * n, 4, &db, "p"), "gen p");
  CheckOk(workload::RandomDigraph(n, 2 * n, 13, &db, "q"), "gen q");
  return db;
}

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
