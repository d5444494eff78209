#include "bench_e2e/e2e.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "storage/database.h"
#include "storage/io.h"
#include "workload/generators.h"

namespace graphlog::e2e {

namespace {

// Figure 6: the three-graph module audit (inverse + closure).
const char* kModulesQuery =
    "query module-calls {\n"
    "  edge M1 -> M2 : -(in-module) (calls-local)* calls-extn in-module;\n"
    "  distinguished M1 -> M2 : module-calls;\n"
    "}\n"
    "query uses-async {\n"
    "  edge M -> F : -(in-module) (calls-local | calls-extn)+;\n"
    "  edge F -> \"lib0\" : in-library;\n"
    "  distinguished M -> M : uses-async;\n"
    "}\n"
    "query self-used {\n"
    "  edge M -> M : module-calls+;\n"
    "  edge M -> M : uses-async;\n"
    "  distinguished M -> M : self-used;\n"
    "}\n";

// Figure 11: summarization feeding a delayed-start computation. Graphs
// are written in dependency order.
const char* kScheduleQuery =
    "query affects-d {\n"
    "  edge T1 -> T2 : affects;\n"
    "  edge T2 -> D : duration;\n"
    "  distinguished T1 -> T2 : affects-d(D);\n"
    "}\n"
    "query earlier-start {\n"
    "  summarize E = max<sum<D>> over affects-d(D);\n"
    "  distinguished T1 -> T2 : earlier-start(E);\n"
    "}\n"
    "query delayed-start {\n"
    "  edge T -> T1 : earlier-start(E);\n"
    "  edge T -> DS : delay;\n"
    "  edge T -> S : scheduled-start;\n"
    "  where NS := S + DS + E;\n"
    "  distinguished T1 -> NS : delayed-start(T);\n"
    "}\n";

std::string Node(int i) { return "n" + std::to_string(i); }

std::string BoundClosure(const std::string& head, int source) {
  const std::string src = "\"" + Node(source) + "\"";
  return "query " + head + " { edge " + src + " -> Y : edge+; distinguished " +
         src + " -> Y : " + head + "; }";
}

void Check(const Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "bench_e2e: %s: %s\n", what, s.ToString().c_str());
    std::abort();
  }
}

/// point_lookups draws its constants from this many seed-drawn nodes.
constexpr int kHotNodes = 32;

/// Templates per workload; a client draws them as seed-shuffled cycles so
/// the template mix of a run is balanced whatever its length. closure_mix
/// sends the full closure twice per cycle of 7: with an odd cycle the
/// median latency falls inside one template's distribution (the negated
/// closure) instead of on the gap between two templates.
int NumTemplates(Workload w) {
  switch (w) {
    case Workload::kClosureMix:
      return 7;
    case Workload::kPointLookups:
      return 3;
    case Workload::kIngestChurn:
      return 1;
  }
  return 1;
}

}  // namespace

Result<Workload> ParseWorkload(std::string_view name) {
  if (name == "closure_mix") return Workload::kClosureMix;
  if (name == "point_lookups") return Workload::kPointLookups;
  if (name == "ingest_churn") return Workload::kIngestChurn;
  return Status::InvalidArgument("unknown workload '" + std::string(name) +
                                 "'");
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kClosureMix:
      return "closure_mix";
    case Workload::kPointLookups:
      return "point_lookups";
    case Workload::kIngestChurn:
      return "ingest_churn";
  }
  return "?";
}

Sizes SizesFor(Workload w) {
  Sizes s;
  if (w == Workload::kClosureMix) {
    s.digraph_nodes = 160;
    s.digraph_edges = 480;
    s.flight_cities = 60;
    s.flights = 300;
    s.modules = 24;
    s.functions_per_module = 8;
    s.tasks = 40;
  } else {
    s.digraph_nodes = 20000;
    s.digraph_edges = 60000;
  }
  return s;
}

std::string Sizes::ToJson() const {
  return "{\"digraph_nodes\": " + std::to_string(digraph_nodes) +
         ", \"digraph_edges\": " + std::to_string(digraph_edges) +
         ", \"flight_cities\": " + std::to_string(flight_cities) +
         ", \"flights\": " + std::to_string(flights) +
         ", \"modules\": " + std::to_string(modules) +
         ", \"functions_per_module\": " +
         std::to_string(functions_per_module) +
         ", \"tasks\": " + std::to_string(tasks) + "}";
}

std::string SeedFacts(Workload w, uint64_t seed) {
  const Sizes s = SizesFor(w);
  storage::Database db;
  Check(workload::RandomDigraph(s.digraph_nodes, s.digraph_edges, seed, &db),
        "digraph");
  if (w == Workload::kClosureMix) {
    workload::FlightsOptions f;
    f.num_cities = s.flight_cities;
    f.num_flights = s.flights;
    f.num_airlines = 3;
    f.seed = seed * 31 + 1;
    Check(workload::Flights(f, &db), "flights");
    workload::ModulesOptions m;
    m.num_modules = s.modules;
    m.functions_per_module = s.functions_per_module;
    m.seed = seed * 31 + 2;
    Check(workload::Modules(m, &db), "modules");
    workload::TasksOptions t;
    t.num_tasks = s.tasks;
    t.seed = seed * 31 + 3;
    Check(workload::Tasks(t, &db), "tasks");
  }
  return storage::DumpFacts(db);
}

QueryStream::QueryStream(Workload w, uint64_t seed, int client)
    : w_(w),
      rng_(seed * 1000003ULL + static_cast<uint64_t>(client) * 7919ULL + 17),
      nodes_(SizesFor(w).digraph_nodes) {
  // Every client of a run shares one hot set.
  std::mt19937_64 hot_rng(seed * 6364136223846793005ULL + 1);
  std::uniform_int_distribution<int> pick(0, nodes_ - 1);
  for (int i = 0; i < kHotNodes; ++i) hot_.push_back(pick(hot_rng));
}

QueryOp QueryStream::Next() {
  if (cycle_.empty()) {
    for (int i = 0; i < NumTemplates(w_); ++i) cycle_.push_back(i);
    std::shuffle(cycle_.begin(), cycle_.end(), rng_);
  }
  const int tmpl = cycle_.back();
  cycle_.pop_back();
  const int node = std::uniform_int_distribution<int>(0, nodes_ - 1)(rng_);

  QueryOp op;
  net::WireQuery& q = op.query;
  switch (w_) {
    case Workload::kClosureMix: {
      q.num_threads = 2;
      switch (tmpl) {
        case 0:
        case 6:
          op.template_name = "full_closure";
          op.answer = "t";
          q.text = "query t { edge X -> Y : edge+; distinguished X -> Y : t; }";
          break;
        case 1:
          op.template_name = "bound_closure";
          op.answer = "h";
          q.text = BoundClosure("h", node);
          q.specialize_bound_closures = true;
          break;
        case 2:
          op.template_name = "airline_closure";
          op.answer = "air";
          q.text =
              "query air { edge X -> Y : (al0 | al1)+; "
              "distinguished X -> Y : air; }";
          break;
        case 3:
          op.template_name = "module_audit";
          op.answer = "self-used";
          q.text = kModulesQuery;
          break;
        case 4:
          op.template_name = "negated_closure";
          op.answer = "nr";
          q.text =
              "query nr { edge X -> Y : edge; edge Y -> X : !edge+; "
              "distinguished X -> Y : nr; }";
          break;
        default:
          op.template_name = "summarize_chain";
          op.answer = "delayed-start";
          q.text = kScheduleQuery;
          break;
      }
      break;
    }
    case Workload::kPointLookups: {
      // Constants come from a hot set, and the answer relation is named
      // after (template, constant): a repeated lookup re-derives the same
      // rows into the same relation, so neither the fetch size nor the
      // session's relation count grows without bound over a run.
      const int hot = hot_[static_cast<size_t>(node) % hot_.size()];
      const std::string src = "\"" + Node(hot) + "\"";
      q.specialize_bound_closures = true;
      if (tmpl == 0) {
        op.template_name = "out_1hop";
        op.answer = "out-" + Node(hot);
        q.text = "edge " + src + " -> Y : edge; ";
      } else if (tmpl == 1) {
        op.template_name = "in_1hop";
        op.answer = "in-" + Node(hot);
        q.text = "edge Y -> " + src + " : edge; ";
      } else {
        op.template_name = "out_2hop";
        op.answer = "two-" + Node(hot);
        q.text = "edge " + src + " -> Z : edge; edge Z -> Y : edge; ";
      }
      q.text = "query " + op.answer + " { " + q.text + "distinguished " +
               src + " -> Y : " + op.answer + "; }";
      break;
    }
    case Workload::kIngestChurn:
      op.template_name = "bound_closure";
      op.answer = "h";
      q.text = BoundClosure("h", node);
      q.specialize_bound_closures = true;
      break;
  }
  return op;
}

BatchStream::BatchStream(Workload w, uint64_t seed)
    : rng_(seed * 2654435761ULL + 99), nodes_(SizesFor(w).digraph_nodes) {
  const Sizes s = SizesFor(w);
  storage::Database db;
  Check(workload::RandomDigraph(s.digraph_nodes, s.digraph_edges, seed, &db),
        "digraph");
  const storage::Relation* edge = db.Find("edge");
  for (const storage::Tuple& t : edge->rows()) {
    const std::string& a = db.symbols().name(t[0].AsSymbol());
    const std::string& b = db.symbols().name(t[1].AsSymbol());
    edges_.insert({std::stoi(a.substr(1)), std::stoi(b.substr(1))});
  }
}

BatchOp BatchStream::Next() {
  std::uniform_int_distribution<int> pick(0, nodes_ - 1);
  const int want = std::uniform_int_distribution<int>(1, 8)(rng_);
  BatchOp b;
  while (static_cast<int>(b.rows) < want) {
    const int x = pick(rng_), y = pick(rng_);
    if (x == y || !edges_.insert({x, y}).second) continue;
    b.facts += "edge(" + Node(x) + ", " + Node(y) + ").\n";
    ++b.rows;
  }
  return b;
}

BatchOp ProbeBatch(uint64_t k) {
  BatchOp b;
  b.facts = "probe(p" + std::to_string(k) + ").\n";
  b.rows = 1;
  return b;
}

std::string RequestStreamBytes(Workload w, uint64_t seed, int client,
                               int queries, int batches) {
  std::string out = SeedFacts(w, seed);
  QueryStream qs(w, seed, client);
  for (int i = 0; i < queries; ++i) {
    QueryOp op = qs.Next();
    net::Frame f;
    f.type = net::MsgType::kQuery;
    net::EncodeQuery(op.query, &f.body);
    out += net::SerializeFrame(f);
    out += op.answer;
  }
  BatchStream bs(w, seed);
  for (int i = 0; i < batches; ++i) out += bs.Next().facts;
  return out;
}

uint64_t Fnv1a(std::string_view s) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

AnswerDigest DigestFacts(std::string_view text) {
  AnswerDigest d;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    if (end > pos) {
      ++d.rows;
      d.hash += Fnv1a(text.substr(pos, end - pos));
    }
    pos = end + 1;
  }
  return d;
}

}  // namespace graphlog::e2e
