// End-to-end benchmark of graphlogd: spans and the in-process layer replay.
//
// The traced run times calls into each layer's public function from the
// benchmark's own code (no instrumentation inside the program): a span
// is a name, a start, an end, and the id of the request that caused it.
// Spans stay in memory and are written out when the run ends.
//
// RunLayered() walks one GraphLog query through the same public calls
// the serving pipeline makes for it (parse, validate, lambda translation,
// bound-closure specialization, stratification, the fixpoint, path
// summarization), timing each one. It does not go through graphlog::Run,
// so the difference between a Session::Run of the same query and the sum
// of these spans is the session/pipeline bookkeeping no layer owns.

#ifndef GRAPHLOG_BENCH_E2E_TRACE_REPLAY_H_
#define GRAPHLOG_BENCH_E2E_TRACE_REPLAY_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "bench_e2e/e2e.h"
#include "common/status.h"
#include "eval/engine.h"
#include "storage/database.h"

namespace graphlog::e2e {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t request = 0;
  int64_t ns() const { return end_ns - start_ns; }
};

/// \brief In-memory span store for one traced run.
class SpanLog {
 public:
  uint64_t NewRequest() { return ++last_request_; }

  /// Times `f()` as a span named `name` of `request`; returns f()'s result.
  template <typename F>
  auto Time(const char* name, uint64_t request, F&& f) {
    const int64_t t0 = NowNs();
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      spans_.push_back({name, t0, NowNs(), request});
    } else {
      auto r = f();
      spans_.push_back({name, t0, NowNs(), request});
      return r;
    }
  }

  /// Total nanoseconds of spans named `name` that belong to `request`.
  int64_t RequestNs(const std::string& name, uint64_t request) const;

  /// Durations (ns) of every span named `name`.
  std::vector<int64_t> Durations(const std::string& name) const;

  const std::vector<Span>& spans() const { return spans_; }

  /// JSON array of every span (start/end relative to the first span).
  std::string ToJson() const;

 private:
  uint64_t last_request_ = 0;
  std::vector<Span> spans_;
};

/// \brief What RunLayered() saw besides time.
struct LayerCounts {
  eval::EvalStats eval;  ///< merged over the query's translated graphs
  uint64_t rules = 0;    ///< rules the lambda translation produced
};

/// \brief Evaluates GraphLog `text` against `db` through the layers'
/// public functions, recording spans "graphlog.parse", "graphlog.validate",
/// "graphlog.translate", "translate.specialize", "datalog.stratify",
/// "eval.evaluate" and "aggr.summarize" under `request`. Query graphs run
/// in text order (the benchmark's multi-graph templates are written in
/// dependency order). Evaluate() stratifies again internally, so the
/// stratify span is a separate call on the same program whose time is
/// also inside eval.evaluate.
Status RunLayered(const std::string& text, bool specialize,
                  unsigned num_threads, storage::Database* db, SpanLog* log,
                  uint64_t request, LayerCounts* counts);

/// \brief The eval.* counts of the traced run: the first `queries` ops of
/// client 0's stream replayed through RunLayered on a fresh database of
/// the seed facts, summed. Exact and repeatable for a given seed.
Result<eval::EvalStats> ReplayEvalCounts(Workload w, uint64_t seed,
                                         int queries);

}  // namespace graphlog::e2e

#endif  // GRAPHLOG_BENCH_E2E_TRACE_REPLAY_H_
