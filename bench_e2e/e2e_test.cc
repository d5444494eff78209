// The benchmark's own checks: a seed fixes the request stream byte for
// byte, and the traced run's eval.* counts repeat exactly.
//
//   bench_e2e_test        (exit 0 = pass)

#include <cstdio>
#include <string>

#include "bench_e2e/e2e.h"
#include "bench_e2e/trace_replay.h"

using namespace graphlog;
using namespace graphlog::e2e;

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++failures;
}

}  // namespace

int main() {
  for (Workload w : {Workload::kClosureMix, Workload::kPointLookups,
                     Workload::kIngestChurn}) {
    const std::string name = WorkloadName(w);
    const std::string a = RequestStreamBytes(w, 5, 0, 64, 16);
    const std::string b = RequestStreamBytes(w, 5, 0, 64, 16);
    Expect(a == b, name + ": same seed gives a byte-identical request stream");
    Expect(a != RequestStreamBytes(w, 6, 0, 64, 16),
           name + ": another seed gives another request stream");
    Expect(a != RequestStreamBytes(w, 5, 1, 64, 16),
           name + ": clients of one seed send different streams");
  }

  // Enough closure_mix ops to cover every template once.
  for (Workload w : {Workload::kClosureMix, Workload::kPointLookups}) {
    const int n = w == Workload::kClosureMix ? 6 : 30;
    Result<eval::EvalStats> x = ReplayEvalCounts(w, 3, n);
    Result<eval::EvalStats> y = ReplayEvalCounts(w, 3, n);
    Expect(x.ok() && y.ok(), std::string(WorkloadName(w)) + ": replay runs");
    if (!x.ok() || !y.ok()) continue;
    Expect(x->iterations == y->iterations &&
               x->rule_firings == y->rule_firings &&
               x->tuples_derived == y->tuples_derived &&
               x->index_builds == y->index_builds &&
               x->peak_delta_rows == y->peak_delta_rows &&
               x->tuples_derived > 0,
           std::string(WorkloadName(w)) + ": eval.* counts repeat exactly (" +
               std::to_string(x->tuples_derived) + " tuples derived)");
  }
  std::printf("%s\n", failures == 0 ? "all checks passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}
