#include "bench_e2e/trace_replay.h"

#include <set>

#include "aggr/path_summary.h"
#include "datalog/analysis.h"
#include "graphlog/parser.h"
#include "graphlog/query_graph.h"
#include "graphlog/translate.h"
#include "storage/io.h"
#include "translate/magic_tc.h"

namespace graphlog::e2e {

int64_t SpanLog::RequestNs(const std::string& name, uint64_t request) const {
  int64_t total = 0;
  for (const Span& s : spans_) {
    if (s.request == request && s.name == name) total += s.ns();
  }
  return total;
}

std::vector<int64_t> SpanLog::Durations(const std::string& name) const {
  std::vector<int64_t> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.ns());
  }
  return out;
}

std::string SpanLog::ToJson() const {
  const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::string out = "[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out += "  {\"name\": \"" + s.name + "\", \"request\": " +
           std::to_string(s.request) +
           ", \"start_ns\": " + std::to_string(s.start_ns - t0) +
           ", \"end_ns\": " + std::to_string(s.end_ns - t0) + "}";
    out += i + 1 < spans_.size() ? ",\n" : "\n";
  }
  return out + "]\n";
}

namespace {

/// The summarization step of one graph: PathSummarize over the base
/// relation, materialized under the distinguished predicate. Covers the
/// shape the benchmark's templates use (variable endpoints and
/// parameters); anything else is refused rather than answered wrongly.
Status Summarize(const gl::QueryGraph& g, storage::Database* db) {
  const gl::PathSummarySpec& spec = *g.summary;
  const storage::Relation* base = db->Find(spec.base.predicate);
  if (base == nullptr) return Status::NotFound("summarization base");
  uint32_t weight_col = 0;
  for (size_t i = 0; i < spec.base.params.size(); ++i) {
    const datalog::Term& p = spec.base.params[i];
    if (p.is_constant()) return Status::Unsupported("constant summary base");
    if (p.var() == spec.value_var) weight_col = static_cast<uint32_t>(2 + i);
  }
  if (g.nodes[g.distinguished.from].label[0].is_constant() ||
      g.nodes[g.distinguished.to].label[0].is_constant()) {
    return Status::Unsupported("constant summary endpoint");
  }
  aggr::PathSummaryOptions opts;
  opts.along = spec.along;
  opts.across = spec.across;
  opts.weight_column = weight_col;
  GRAPHLOG_ASSIGN_OR_RETURN(storage::Relation summary,
                            aggr::PathSummarize(*base, opts));
  GRAPHLOG_ASSIGN_OR_RETURN(storage::Relation * out,
                            db->Declare(g.distinguished.predicate, 3));
  for (const storage::Tuple& t : summary.rows()) out->Insert(t);
  return Status::OK();
}

}  // namespace

Status RunLayered(const std::string& text, bool specialize,
                  unsigned num_threads, storage::Database* db, SpanLog* log,
                  uint64_t request, LayerCounts* counts) {
  SymbolTable* syms = &db->symbols();
  GRAPHLOG_ASSIGN_OR_RETURN(
      gl::GraphicalQuery q, log->Time("graphlog.parse", request, [&] {
        return gl::ParseGraphicalQuery(text, syms);
      }));
  GRAPHLOG_RETURN_NOT_OK(log->Time("graphlog.validate", request, [&] {
    return gl::ValidateGraphicalQuery(q, *syms);
  }));
  eval::EvalOptions eopts;
  eopts.num_threads = num_threads;
  for (const gl::QueryGraph& g : q.graphs) {
    if (g.summary.has_value()) {
      GRAPHLOG_RETURN_NOT_OK(log->Time("aggr.summarize", request,
                                       [&] { return Summarize(g, db); }));
      continue;
    }
    GRAPHLOG_ASSIGN_OR_RETURN(
        gl::Translation t, log->Time("graphlog.translate", request, [&] {
          return gl::TranslateQueryGraph(g, syms);
        }));
    counts->rules += t.program.size();
    if (specialize) {
      GRAPHLOG_ASSIGN_OR_RETURN(
          t.program, log->Time("translate.specialize", request, [&] {
            return translate::SpecializeBoundClosures(
                t.program, syms, {g.distinguished.predicate});
          }));
    }
    GRAPHLOG_RETURN_NOT_OK(log->Time("datalog.stratify", request, [&] {
                                  return datalog::Stratify(t.program, *syms);
                                }).status());
    GRAPHLOG_ASSIGN_OR_RETURN(
        eval::EvalStats es, log->Time("eval.evaluate", request, [&] {
          return eval::Evaluate(t.program, db, eopts);
        }));
    counts->eval.Merge(es);
  }
  return Status::OK();
}

Result<eval::EvalStats> ReplayEvalCounts(Workload w, uint64_t seed,
                                         int queries) {
  storage::Database db;
  GRAPHLOG_RETURN_NOT_OK(storage::LoadFacts(SeedFacts(w, seed), &db).status());
  QueryStream stream(w, seed, 0);
  SpanLog log;
  LayerCounts counts;
  for (int i = 0; i < queries; ++i) {
    const QueryOp op = stream.Next();
    GRAPHLOG_RETURN_NOT_OK(RunLayered(
        op.query.text, op.query.specialize_bound_closures,
        op.query.num_threads, &db, &log, log.NewRequest(), &counts));
  }
  return counts.eval;
}

}  // namespace graphlog::e2e
