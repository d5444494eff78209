// Governor cost model: what governing a query costs when nothing trips,
// and how fast a cancel lands when something must be stopped.
//
//  * BM_EvalGovernorOverhead/{mode}: linear TC through the engine's rule
//    path with mode 0 = no governor (the null-pointer baseline), 1 =
//    governor attached but idle (token + per-round checks only), 2 =
//    governor with every budget armed high enough never to trip (the
//    full round-boundary accounting). The 0-vs-1 and 0-vs-2 deltas are
//    the acceptance gate: governed-but-untripped must sit within noise of
//    ungoverned. Every mode sets max_iterations so all three stay on the
//    rule path (an armed budget alone would already keep mode 2 there,
//    while modes 0 and 1 would go to the closure kernel).

#include <benchmark/benchmark.h>


#include "bench/bench_util.h"
#include "eval/engine.h"
#include "gov/governor.h"
#include "graphlog/api.h"
#include "storage/database.h"
#include "workload/generators.h"

using namespace graphlog;
using bench::CheckOk;

namespace {

constexpr char kLinearTc[] =
    "tc(X, Y) :- edge(X, Y).\n"
    "tc(X, Y) :- edge(X, Z), tc(Z, Y).\n";

/// Governor whose budgets are armed but can never trip at this scale.
gov::GovernorContext UntrippableGovernor() {
  gov::GovernorContext g;
  g.budget.max_result_rows = 1'000'000'000;
  g.budget.max_delta_rows = 1'000'000'000;
  g.budget.max_rounds = 1'000'000'000;
  g.budget.max_bytes = 1ull << 40;
  return g;
}

/// mode: 0 = ungoverned, 1 = idle governor, 2 = budgets armed (untripped).
void BM_EvalGovernorOverhead(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  gov::GovernorContext idle;
  gov::GovernorContext armed = UntrippableGovernor();
  for (auto _ : state) {
    state.PauseTiming();
    storage::Database db;
    CheckOk(workload::RandomDigraph(300, 900, 42, &db), "digraph");
    eval::EvalOptions opts;
    opts.max_iterations = 1u << 30;
    if (mode == 1) opts.governor = &idle;
    if (mode == 2) opts.governor = &armed;
    state.ResumeTiming();
    auto r = eval::EvaluateText(kLinearTc, &db, opts);
    CheckOk(r.status(), "linear tc");
    benchmark::DoNotOptimize(r->tuples_derived);
  }
}
BENCHMARK(BM_EvalGovernorOverhead)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->ArgName("mode")
    ->Unit(benchmark::kMillisecond);

void Report() {
  bench::Banner(
      "Query governor: cancellation latency and untripped overhead",
      "an idle or armed-but-untripped governor costs pointer tests and "
      "round-boundary arithmetic (within noise); a cancel lands in "
      "poll-interval time, orders of magnitude under the query runtime");

  // Sanity: the governed paths actually engage at this scale.
  storage::Database db;
  CheckOk(workload::RandomDigraph(300, 900, 42, &db), "digraph");
  gov::GovernorContext g = UntrippableGovernor();
  eval::EvalOptions opts;
  opts.governor = &g;
  eval::EvalStats stats = CheckOk(eval::EvaluateText(kLinearTc, &db, opts),
                                  "governed linear tc");
  std::printf("governed run: %llu tuples, %llu rounds, truncated=%d\n",
              static_cast<unsigned long long>(stats.tuples_derived),
              static_cast<unsigned long long>(stats.iterations),
              stats.truncated ? 1 : 0);

  gov::GovernorContext capped;
  capped.budget.max_rounds = 3;
  capped.budget.return_partial = true;
  storage::Database db2;
  CheckOk(workload::RandomDigraph(300, 900, 42, &db2), "digraph");
  eval::EvalOptions opts2;
  opts2.governor = &capped;
  eval::EvalStats partial = CheckOk(
      eval::EvaluateText(kLinearTc, &db2, opts2), "capped linear tc");
  std::printf("capped run (max_rounds=3, partial): %llu tuples, "
              "truncated=%d (%s)\n",
              static_cast<unsigned long long>(partial.tuples_derived),
              partial.truncated ? 1 : 0, partial.truncated_by.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
