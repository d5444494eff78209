#include "tc/transitive_closure.h"

#include <unordered_map>
#include <vector>

#include "gov/governor.h"
#include "tc/columnar_tc.h"

namespace graphlog::tc {

using storage::Relation;
using storage::Tuple;

namespace {

/// Dense-id view of a binary relation: node values interned to uint32.
struct Adjacency {
  std::vector<Value> values;
  std::unordered_map<Value, uint32_t, ValueHash> ids;
  std::vector<std::vector<uint32_t>> out;

  uint32_t Intern(const Value& v) {
    auto [it, inserted] = ids.emplace(v, static_cast<uint32_t>(values.size()));
    if (inserted) {
      values.push_back(v);
      out.emplace_back();
    }
    return it->second;
  }

  static Adjacency Build(const Relation& edges) {
    Adjacency a;
    for (const Tuple& t : edges.rows()) {
      uint32_t u = a.Intern(t[0]);
      uint32_t v = a.Intern(t[1]);
      a.out[u].push_back(v);
    }
    return a;
  }
};

/// The kernels' shared round boundary: interrupts (cancellation,
/// deadline, armed tc.expand faults), then budgets against the closure
/// built so far. Sets *truncated and returns OK when the budget allows
/// partial results; the kernel then stops at the boundary.
Status TcRoundCheck(const gov::GovernorContext* governor, uint64_t rounds,
                    const Relation& tc, bool* truncated) {
  if (governor == nullptr) return Status::OK();
  GRAPHLOG_RETURN_NOT_OK(governor->Check("tc.expand"));
  const gov::ResourceBudget& b = governor->budget;
  if (!b.any()) return Status::OK();
  const char* tripped = nullptr;
  uint64_t observed = 0, limit = 0;
  if (b.max_rounds != 0 && rounds >= b.max_rounds) {
    tripped = "max_rounds";
    observed = rounds + 1;
    limit = b.max_rounds;
  } else if (b.max_result_rows != 0 && tc.size() > b.max_result_rows) {
    tripped = "max_result_rows";
    observed = tc.size();
    limit = b.max_result_rows;
  } else if (b.max_bytes != 0 && tc.MemoryBytes() > b.max_bytes) {
    tripped = "max_bytes";
    observed = tc.MemoryBytes();
    limit = b.max_bytes;
  }
  if (tripped == nullptr) return Status::OK();
  if (b.return_partial) {
    *truncated = true;
    return Status::OK();
  }
  return gov::BudgetExceededError(tripped, "tc.expand", observed, limit);
}

Result<Relation> NaiveTc(const Relation& edges, TcStats* stats,
                         const gov::GovernorContext* governor) {
  Relation tc(2);
  tc.InsertAll(edges);
  bool changed = true;
  bool truncated = false;
  uint64_t rounds = 0;
  const std::vector<uint32_t> cols = {0};
  while (changed) {
    GRAPHLOG_RETURN_NOT_OK(TcRoundCheck(governor, rounds, tc, &truncated));
    if (truncated) break;
    ++rounds;
    if (stats != nullptr) ++stats->rounds;
    changed = false;
    // Recompute T(x,y) :- T(x,z), E(z,y) over the FULL current closure.
    std::vector<Tuple> fresh;
    for (const Tuple& t : tc.rows()) {
      for (uint32_t i : edges.Probe(cols, Tuple{t[1]})) {
        if (stats != nullptr) ++stats->pair_visits;
        Tuple cand{t[0], edges.row(i)[1]};
        if (!tc.Contains(cand)) fresh.push_back(std::move(cand));
      }
    }
    for (Tuple& t : fresh) {
      if (tc.Insert(std::move(t))) changed = true;
    }
  }
  if (stats != nullptr) stats->truncated = truncated;
  return tc;
}

Result<Relation> SemiNaiveTc(const Relation& edges, TcStats* stats,
                             const gov::GovernorContext* governor) {
  Relation tc(2);
  Relation delta(2);
  tc.InsertAll(edges);
  delta.InsertAll(edges);
  bool truncated = false;
  uint64_t rounds = 0;
  const std::vector<uint32_t> cols = {0};
  while (!delta.empty()) {
    GRAPHLOG_RETURN_NOT_OK(TcRoundCheck(governor, rounds, tc, &truncated));
    if (truncated) break;
    ++rounds;
    if (stats != nullptr) ++stats->rounds;
    Relation next(2);
    for (const Tuple& t : delta.rows()) {
      for (uint32_t i : edges.Probe(cols, Tuple{t[1]})) {
        if (stats != nullptr) ++stats->pair_visits;
        Tuple cand{t[0], edges.row(i)[1]};
        if (!tc.Contains(cand)) next.Insert(std::move(cand));
      }
    }
    tc.InsertAll(next);
    delta = std::move(next);
  }
  if (stats != nullptr) stats->truncated = truncated;
  return tc;
}

Result<Relation> SquaringTc(const Relation& edges, TcStats* stats,
                            const gov::GovernorContext* governor) {
  Relation tc(2);
  tc.InsertAll(edges);
  const std::vector<uint32_t> cols = {0};
  bool changed = true;
  bool truncated = false;
  uint64_t rounds = 0;
  while (changed) {
    GRAPHLOG_RETURN_NOT_OK(TcRoundCheck(governor, rounds, tc, &truncated));
    if (truncated) break;
    ++rounds;
    if (stats != nullptr) ++stats->rounds;
    changed = false;
    // T := T ∪ T∘T — doubles the reachable path length each round.
    std::vector<Tuple> fresh;
    for (const Tuple& t : tc.rows()) {
      for (uint32_t i : tc.Probe(cols, Tuple{t[1]})) {
        if (stats != nullptr) ++stats->pair_visits;
        Tuple cand{t[0], tc.row(i)[1]};
        if (!tc.Contains(cand)) fresh.push_back(std::move(cand));
      }
    }
    for (Tuple& t : fresh) {
      if (tc.Insert(std::move(t))) changed = true;
    }
  }
  if (stats != nullptr) stats->truncated = truncated;
  return tc;
}

Result<Relation> BfsTc(const Relation& edges, TcStats* stats,
                       const gov::GovernorContext* governor) {
  Adjacency adj = Adjacency::Build(edges);
  Relation tc(2);
  size_t n = adj.values.size();
  std::vector<uint32_t> stack;
  std::vector<bool> seen(n);
  bool truncated = false;
  for (uint32_t s = 0; s < n; ++s) {
    // One "round" per source: the boundary where the per-source DFS
    // below becomes visible in the closure.
    GRAPHLOG_RETURN_NOT_OK(TcRoundCheck(governor, s, tc, &truncated));
    if (truncated) break;
    if (stats != nullptr) ++stats->rounds;
    std::fill(seen.begin(), seen.end(), false);
    stack.clear();
    for (uint32_t v : adj.out[s]) {
      if (!seen[v]) {
        seen[v] = true;
        stack.push_back(v);
      }
    }
    while (!stack.empty()) {
      uint32_t u = stack.back();
      stack.pop_back();
      tc.Insert(Tuple{adj.values[s], adj.values[u]});
      for (uint32_t v : adj.out[u]) {
        if (stats != nullptr) ++stats->pair_visits;
        if (!seen[v]) {
          seen[v] = true;
          stack.push_back(v);
        }
      }
    }
  }
  if (stats != nullptr) stats->truncated = truncated;
  return tc;
}

}  // namespace

namespace {

std::string_view AlgorithmName(TcAlgorithm algorithm) {
  switch (algorithm) {
    case TcAlgorithm::kNaive:
      return "naive";
    case TcAlgorithm::kSemiNaive:
      return "semi-naive";
    case TcAlgorithm::kSquaring:
      return "squaring";
    case TcAlgorithm::kBfs:
      return "bfs";
  }
  return "unknown";
}

}  // namespace

Result<Relation> TransitiveClosure(const Relation& edges,
                                   TcAlgorithm algorithm, TcStats* stats,
                                   obs::Tracer* tracer,
                                   obs::MetricsRegistry* metrics,
                                   const gov::GovernorContext* governor) {
  if (edges.arity() != 2) {
    return Status::InvalidArgument(
        "transitive closure requires a binary relation");
  }
  obs::SpanGuard span(tracer, "tc");
  // Effort counters feed the span/registry even when the caller passed no
  // stats; a governed run always tracks them so truncation is reportable.
  TcStats local;
  if (stats == nullptr &&
      (span.enabled() || metrics != nullptr || governor != nullptr)) {
    stats = &local;
  }
  Relation closure(2);
  switch (algorithm) {
    case TcAlgorithm::kNaive: {
      GRAPHLOG_ASSIGN_OR_RETURN(closure, NaiveTc(edges, stats, governor));
      break;
    }
    case TcAlgorithm::kSemiNaive: {
      GRAPHLOG_ASSIGN_OR_RETURN(closure, SemiNaiveTc(edges, stats, governor));
      break;
    }
    case TcAlgorithm::kSquaring: {
      GRAPHLOG_ASSIGN_OR_RETURN(closure, SquaringTc(edges, stats, governor));
      break;
    }
    case TcAlgorithm::kBfs: {
      GRAPHLOG_ASSIGN_OR_RETURN(closure, BfsTc(edges, stats, governor));
      break;
    }
    default:
      return Status::InvalidArgument("unknown TC algorithm");
  }
  if (span.enabled()) {
    span.AddNote("algorithm", AlgorithmName(algorithm));
    span.AddAttr("edges", static_cast<int64_t>(edges.size()));
    span.AddAttr("pairs", static_cast<int64_t>(closure.size()));
    span.AddAttr("rounds", static_cast<int64_t>(stats->rounds));
    span.AddAttr("pair_visits", static_cast<int64_t>(stats->pair_visits));
  }
  if (metrics != nullptr) {
    metrics->counter("tc.invocations")->Increment();
    metrics->counter("tc.rounds")->Add(stats->rounds);
    metrics->counter("tc.pair_visits")->Add(stats->pair_visits);
    metrics->histogram("tc.output_pairs")
        ->Observe(static_cast<int64_t>(closure.size()));
  }
  return closure;
}

Result<Relation> ReachableFrom(const Relation& edges, const Value& source) {
  ClosureOptions options;
  options.seed = ClosureSeed{source, /*forward=*/true};
  GRAPHLOG_ASSIGN_OR_RETURN(ColumnarClosure closure,
                            ComputeColumnarClosure(edges, nullptr, options));
  Relation out(1);
  closure.AppendTo(&out);
  return out;
}

}  // namespace graphlog::tc
