// Closure dispatch: the engine materializes λ's TC rule pairs, and the
// bound-source (seeded) pairs of the magic-TC rewrite, with the columnar
// kernel (eval::PlanClosureDispatch) and replays the rule path's round
// log from the kernel's per-wave histogram.
//
// The differential half checks the dispatched route against the rule
// path on random graphs — self-loops, cycles, isolated nodes, empty and
// missing bases, int and string constants — for every thread count:
// same relations as kNaive, same tuples_derived, and
// the same iterations and per-round derived rows as the semi-naive rule
// path. The governance half checks cancellation, injected faults, and
// the cases that must stay on the rule path; the last part covers the
// kernel's own contracts.

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <map>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "columnar/csr_cache.h"
#include "eval/engine.h"
#include "eval/provenance.h"
#include "exec/thread_pool.h"
#include "gov/fault_injection.h"
#include "gov/governor.h"
#include "graphlog/api.h"
#include "obs/trace.h"
#include "storage/database.h"
#include "tc/columnar_tc.h"
#include "tc/transitive_closure.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace graphlog {
namespace {

using storage::Database;
using storage::Relation;
using storage::Tuple;
using testutil::RelationSet;

// Figure 6: the three-graph module audit (inverse + closure).
constexpr char kModulesQuery[] =
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

struct Case {
  const char* name;
  QueryRequest::Language language;
  const char* text;
  /// kNaive's Gauss-Seidel rounds (each rule sees the rules before it in
  /// the same round) can finish in fewer rounds than semi-naive on the
  /// rule path itself; for those programs the iteration oracle is the
  /// semi-naive rule path alone.
  bool naive_rounds_differ = false;
  /// Seeded cases: a route EXPLAIN must name. GraphLog cases run with
  /// bound-closure specialization, which produces the seeded pairs.
  const char* seeded_route = nullptr;
};

const Case kCases[] = {
    {"closure", QueryRequest::Language::kGraphLog,
     "query t { edge X -> Y : edge+; distinguished X -> Y : t; }"},
    {"alternation", QueryRequest::Language::kGraphLog,
     "query air { edge X -> Y : (a | b)+; distinguished X -> Y : air; }"},
    {"inverse", QueryRequest::Language::kGraphLog,
     "query inv { edge X -> Y : -(a)+; distinguished X -> Y : inv; }"},
    {"negated", QueryRequest::Language::kGraphLog,
     "query nr { edge X -> Y : edge; edge Y -> X : !edge+; "
     "distinguished X -> Y : nr; }"},
    {"idb_base", QueryRequest::Language::kGraphLog,
     "query mid { edge X -> Y : a; edge Y -> Z : b; "
     "distinguished X -> Z : mid; }\n"
     "query c { edge X -> Y : mid+; distinguished X -> Y : c; }"},
    {"fig6_audit", QueryRequest::Language::kGraphLog, kModulesQuery,
     /*naive_rounds_differ=*/true},
    // Base defined in the closure's own stratum, base rule first ...
    {"stratum_base", QueryRequest::Language::kDatalog,
     "m(X, Y) :- a(X, Z), b(Z, Y).\n"
     "c(X, Y) :- m(X, Y).\n"
     "c(X, Y) :- m(X, Z), c(Z, Y).\n"
     "ans(X, Y) :- c(X, Y), a(Y, X).\n",
     /*naive_rounds_differ=*/true},
    // ... and recursive rule first (the rule path then runs one round
    // behind the BFS depth).
    {"stratum_base_rec_first", QueryRequest::Language::kDatalog,
     "c(X, Y) :- m(X, Z), c(Z, Y).\n"
     "c(X, Y) :- m(X, Y).\n"
     "m(X, Y) :- a(X, Y).\n"
     "m(X, Y) :- b(X, Y).\n"},
};

// Bound-source closures (translate::SpecializeBoundClosures, or written
// out in Datalog). Node n1 is a string in the string and mixed graphs,
// n0 only in the string graphs, and int 0 only in the int and mixed
// ones, so each seed is absent from q in some graphs; odd seeds put n0,
// n1 and int 0 on a cycle.
const Case kSeededCases[] = {
    {"bound_forward", QueryRequest::Language::kGraphLog,
     "query h { edge \"n1\" -> Y : edge+; distinguished \"n1\" -> Y : h; }",
     false, "over edge from n1"},
    {"bound_backward", QueryRequest::Language::kGraphLog,
     "query h { edge X -> \"n1\" : edge+; distinguished X -> \"n1\" : h; }",
     false, "over edge to n1"},
    {"int_forward", QueryRequest::Language::kDatalog,
     "p(Y) :- edge(0, Y).\n"
     "p(Y) :- p(Z), edge(Z, Y).\n"
     "ans(X, Y) :- p(Y), a(X, Y).\n",
     /*naive_rounds_differ=*/true, "closure kernel: p over edge from 0"},
    // Recursive rule first, subgoals in the other order.
    {"int_backward", QueryRequest::Language::kDatalog,
     "p(X) :- p(Z), edge(X, Z).\n"
     "p(X) :- edge(X, 0).\n",
     false, "closure kernel: p over edge to 0"},
    {"two_bound_uses", QueryRequest::Language::kGraphLog,
     "query h { edge \"n0\" -> Y : edge+; edge \"n1\" -> Y : edge+; "
     "distinguished \"n0\" -> Y : h; }",
     false, "over edge from n0"},
    // Two seeds of one closure, read together by a rule that precedes
    // both pairs (so it sees each as of the previous round's end).
    {"two_seeds_one_closure", QueryRequest::Language::kDatalog,
     "both(Y) :- f(Y), g(Y).\n"
     "f(Y) :- edge(n1, Y).\n"
     "f(Y) :- f(Z), edge(Z, Y).\n"
     "g(Y) :- edge(0, Y).\n"
     "g(Y) :- g(Z), edge(Z, Y).\n",
     false, "closure kernel: g over edge from 0"},
    // Figure 12's RT-scale shape: one closure, a forward and a backward
    // seed.
    {"rt_scale", QueryRequest::Language::kGraphLog,
     "query rt { edge \"n1\" -> C : edge+; edge C -> \"n0\" : edge+; "
     "distinguished C -> C : rt; }",
     false, "over edge to n0"},
    {"idb_base_bound", QueryRequest::Language::kGraphLog,
     "query air { edge \"n1\" -> Y : (a | b)+; "
     "distinguished \"n1\" -> Y : air; }",
     false, "from n1"},
    // Base defined in the seeded pair's own stratum, base rule first ...
    {"stratum_base_seeded", QueryRequest::Language::kDatalog,
     "m(X, Y) :- a(X, Y).\n"
     "m(X, Y) :- b(X, Y).\n"
     "p(Y) :- m(n1, Y).\n"
     "p(Y) :- p(Z), m(Z, Y).\n",
     false, "closure kernel: p over m from n1"},
    // ... and recursive rule first.
    {"stratum_base_seeded_rec_first", QueryRequest::Language::kDatalog,
     "p(X) :- m(X, Z), p(Z).\n"
     "p(X) :- m(X, n1).\n"
     "m(X, Y) :- a(X, Z), b(Z, Y).\n",
     false, "closure kernel: p over m to n1"},
};

/// Node `i` of a seeded graph: ints, strings, or both mixed.
Value NodeValue(Database* db, uint64_t seed, int i) {
  const bool as_int = seed % 3 == 0 || (seed % 3 == 2 && i % 2 == 0);
  return as_int ? Value::Int(i)
                : Value::Sym(db->Intern("n" + std::to_string(i)));
}

/// A random multi-label graph. Node counts run from 1 upward, so some
/// seeds are a single node; random pairs give self-loops, a planted
/// cycle most seeds; `a`/`b` mention nodes `edge` never does (isolated
/// in `edge`'s CSR); some seeds leave `edge` declared but empty or `a`
/// missing altogether.
void BuildGraph(uint64_t seed, Database* db) {
  std::mt19937 rng(static_cast<uint32_t>(seed));
  const int n = 1 + static_cast<int>(seed % 13);
  auto node = [&](int i) { return NodeValue(db, seed, i); };
  auto any = [&] {
    return static_cast<int>(rng() % static_cast<uint32_t>(n));
  };
  auto add = [&](const char* rel, int x, int y) {
    ASSERT_OK(db->AddFact(rel, Tuple{node(x), node(y)}));
  };
  ASSERT_OK(db->Declare("edge", 2).status());
  if (seed % 5 != 0) {
    for (int k = 0; k < 2 * n; ++k) add("edge", any(), any());
    if (n >= 3 && seed % 2 == 1) {
      add("edge", 0, 1);
      add("edge", 1, 2);
      add("edge", 2, 0);
    }
  }
  const int wider = n + 3;  // nodes n..n+2 never appear in `edge`
  auto wide = [&] {
    return static_cast<int>(rng() % static_cast<uint32_t>(wider));
  };
  if (seed % 7 != 0) {
    for (int k = 0; k < n + 2; ++k) add("a", wide(), wide());
  }
  for (int k = 0; k < n + 1; ++k) add("b", wide(), wide());
  for (int k = 0; k < n; ++k) {
    add("in-module", any(), wide());
    add("calls-local", wide(), wide());
    add("calls-extn", wide(), wide());
  }
  for (int k = 0; k < 3; ++k) {
    ASSERT_OK(db->AddFact("in-library",
                          Tuple{node(wide()), Value::Sym(db->Intern("lib0"))}));
  }
}

/// Everything one run produced that the routes must agree on.
struct Outcome {
  bool ok = false;
  std::string error;
  std::map<std::string, std::set<std::string>> relations;
  std::map<std::string, std::vector<Tuple>> rows;  // insertion order
  uint64_t tuples_derived = 0;
  uint64_t iterations = 0;
  uint64_t rule_firings = 0;
  /// (graph, stratum, round, delta_rows, derived) per logged round.
  std::vector<std::tuple<int64_t, int64_t, int64_t, uint64_t, uint64_t>>
      rounds;
  uint64_t round_firings = 0;
  uint64_t round_derived = 0;
  std::string explain;
};

enum class Route { kNaive, kSemiNaiveRules, kDispatch };

using GraphBuilder = std::function<void(Database*)>;

Outcome RunOn(const Case& c, const GraphBuilder& build, Route route,
              unsigned threads) {
  Database db;
  build(&db);
  columnar::CsrCache csrs;
  QueryRequest req;
  req.language = c.language;
  req.text = c.text;
  req.options.translation.specialize_bound_closures =
      c.seeded_route != nullptr;
  eval::EvalOptions& eo = req.options.eval;
  eo.strategy = route == Route::kNaive ? eval::Strategy::kNaive
                                       : eval::Strategy::kSemiNaive;
  // Any max_iterations keeps the engine on the rule path.
  if (route == Route::kSemiNaiveRules) eo.max_iterations = 1u << 30;
  eo.num_threads = threads;
  eo.csr_cache = &csrs;
  req.options.observability.profile = true;
  req.options.observability.explain = true;
  Outcome out;
  auto r = graphlog::Run(req, &db);
  if (!r.ok()) {
    out.error = r.status().ToString();
    return out;
  }
  out.ok = true;
  for (const auto& [sym, rel] : db.relations()) {
    const std::string name = db.symbols().name(sym);
    out.relations[name] = RelationSet(db, name);
    out.rows[name] = rel.rows();
  }
  out.tuples_derived = r->stats.datalog.tuples_derived;
  out.iterations = r->stats.datalog.iterations;
  out.rule_firings = r->stats.datalog.rule_firings;
  for (const obs::RoundProfile& rp : r->profile.rounds) {
    out.rounds.emplace_back(rp.graph, rp.stratum, rp.round, rp.delta_rows,
                            rp.derived);
    out.round_firings += rp.firings;
    out.round_derived += rp.derived;
  }
  out.explain = r->explain;
  return out;
}

GraphBuilder RandomGraph(uint64_t seed) {
  return [seed](Database* db) { BuildGraph(seed, db); };
}

/// The dispatched route against kNaive and the semi-naive rule path on
/// the graph `build` makes, for threads {1, 4}.
void ExpectMatchesRulePath(const Case& c, const GraphBuilder& build) {
  const Outcome naive = RunOn(c, build, Route::kNaive, 1);
  const Outcome rules = RunOn(c, build, Route::kSemiNaiveRules, 1);
  ASSERT_TRUE(naive.ok) << naive.error;
  ASSERT_TRUE(rules.ok) << rules.error;
  EXPECT_EQ(rules.explain.find("closure kernel"), std::string::npos);
  const Outcome* first = nullptr;
  Outcome reference;
  for (unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    Outcome d = RunOn(c, build, Route::kDispatch, threads);
    ASSERT_TRUE(d.ok) << d.error;
    EXPECT_NE(d.explain.find("closure kernel: "), std::string::npos)
        << d.explain;
    if (c.seeded_route != nullptr) {
      EXPECT_NE(d.explain.find(c.seeded_route), std::string::npos)
          << d.explain;
    }
    EXPECT_EQ(d.relations, naive.relations);
    EXPECT_EQ(d.tuples_derived, naive.tuples_derived);
    if (!c.naive_rounds_differ) {
      EXPECT_EQ(d.iterations, naive.iterations);
    }
    EXPECT_EQ(d.iterations, rules.iterations);
    // The replayed round log: every round's delta and derived rows,
    // exactly as the rule path logs them.
    EXPECT_EQ(d.rounds, rules.rounds);
    EXPECT_EQ(d.round_firings, d.rule_firings);
    EXPECT_EQ(d.round_derived, d.tuples_derived);
    // Insertion order is a contract within the route: identical across
    // thread counts.
    if (first == nullptr) {
      reference = std::move(d);
      first = &reference;
    } else {
      EXPECT_EQ(d.rows, first->rows);
      EXPECT_EQ(d.rule_firings, first->rule_firings);
    }
  }
}

constexpr uint64_t kSeeds = 24;

TEST(ClosureDispatchTest, MatchesRulePathOnRandomGraphs) {
  for (const Case& c : kCases) {
    for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
      SCOPED_TRACE(std::string(c.name) + " seed " + std::to_string(seed));
      ExpectMatchesRulePath(c, RandomGraph(seed));
    }
  }
}

TEST(ClosureDispatchTest, SeededMatchesRulePathOnRandomGraphs) {
  for (const Case& c : kSeededCases) {
    for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
      SCOPED_TRACE(std::string(c.name) + " seed " + std::to_string(seed));
      ExpectMatchesRulePath(c, RandomGraph(seed));
    }
  }
}

/// A graph given as (source, target) name pairs.
GraphBuilder Edges(std::vector<std::pair<const char*, const char*>> edges) {
  return [edges](Database* db) {
    ASSERT_OK(db->Declare("edge", 2).status());
    for (const auto& [x, y] : edges) ASSERT_OK(db->AddSymFact("edge", {x, y}));
  };
}

TEST(ClosureDispatchTest, SeededEdgeCases) {
  constexpr char kForward[] =
      "p(Y) :- edge(s, Y).\n"
      "p(Y) :- p(Z), edge(Z, Y).\n";
  constexpr char kBackward[] =
      "p(X) :- edge(X, s).\n"
      "p(X) :- edge(X, Z), p(Z).\n";
  const Case forward{"forward", QueryRequest::Language::kDatalog, kForward,
                     false, "closure kernel: p over edge from s"};
  const Case backward{"backward", QueryRequest::Language::kDatalog, kBackward,
                      false, "closure kernel: p over edge to s"};
  struct Graph {
    const char* name;
    GraphBuilder build;
    std::set<std::string> from_s, to_s;
  };
  const Graph graphs[] = {
      {"seed absent", Edges({{"a", "b"}, {"b", "c"}}), {}, {}},
      {"no out-edges", Edges({{"a", "s"}, {"b", "s"}, {"c", "a"}}), {},
       {"a", "b", "c"}},
      {"seed on a cycle", Edges({{"s", "a"}, {"a", "b"}, {"b", "s"},
                                 {"b", "c"}}),
       {"a", "b", "c", "s"}, {"a", "b", "s"}},
      {"self-loop at the seed", Edges({{"s", "s"}, {"s", "a"}}),
       {"a", "s"}, {"s"}},
  };
  for (const Graph& g : graphs) {
    SCOPED_TRACE(g.name);
    ExpectMatchesRulePath(forward, g.build);
    ExpectMatchesRulePath(backward, g.build);
    const Outcome f = RunOn(forward, g.build, Route::kDispatch, 1);
    const Outcome b = RunOn(backward, g.build, Route::kDispatch, 1);
    ASSERT_TRUE(f.ok) << f.error;
    ASSERT_TRUE(b.ok) << b.error;
    EXPECT_EQ(f.relations.at("p"), g.from_s);
    EXPECT_EQ(b.relations.at("p"), g.to_s);
  }
}

TEST(ClosureDispatchTest, Fig12RtScaleOnFlights) {
  // The prototype's RT-scale query (bench_fig12_prototype) on the
  // airline workload: both seeds of al0's closure go to the kernel.
  const Case rt{"rt_scale_flights", QueryRequest::Language::kGraphLog,
                "query rt-scale {\n"
                "  edge \"city0\" -> C : al0+;\n"
                "  edge C -> \"city1\" : al0+;\n"
                "  distinguished C -> C : rt-scale;\n"
                "}\n",
                false, "over al0 to city1"};
  auto flights = [](Database* db) {
    workload::FlightsOptions opts;
    opts.num_flights = 240;
    opts.num_cities = 20;
    opts.num_airlines = 3;
    ASSERT_OK(workload::Flights(opts, db));
  };
  ExpectMatchesRulePath(rt, flights);
  const Outcome d = RunOn(rt, flights, Route::kDispatch, 1);
  ASSERT_TRUE(d.ok) << d.error;
  EXPECT_NE(d.explain.find("over al0 from city0"), std::string::npos)
      << d.explain;
  // Same scales as the unspecialized full closure.
  Case full = rt;
  full.seeded_route = nullptr;
  const Outcome all = RunOn(full, flights, Route::kDispatch, 1);
  ASSERT_TRUE(all.ok) << all.error;
  EXPECT_FALSE(all.relations.at("rt-scale").empty());
  EXPECT_EQ(d.relations.at("rt-scale"), all.relations.at("rt-scale"));
}

TEST(ClosureDispatchTest, BulkLoadedClosureServesLaterParallelRuns) {
  // The dispatched relation is bulk-loaded without its dedup set. A later
  // 4-lane run whose only rule derives into it (on the rule path: the
  // head is no longer empty) must find the set rebuilt before the first
  // lane tests membership — TSan watches this under the closure label.
  constexpr char kClosure[] =
      "tc(X, Y) :- edge(X, Y).\n"
      "tc(X, Y) :- edge(X, Z), tc(Z, Y).\n";
  // A lone body atom makes the closure's delta the join driver, so the
  // first round splits across all four lanes.
  constexpr char kExtend[] = "tc(X, Y) :- tc(Y, X).\n";
  std::set<std::string> results[2];
  for (int dispatched = 0; dispatched < 2; ++dispatched) {
    Database db;
    ASSERT_OK(workload::RandomDigraph(60, 150, 12, &db));
    eval::EvalOptions first;
    if (dispatched == 0) first.max_iterations = 1u << 30;
    ASSERT_OK(eval::EvaluateText(kClosure, &db, first).status());
    const size_t before = db.Find("tc")->size();
    eval::EvalOptions opts;
    opts.num_threads = 4;
    ASSERT_OK(eval::EvaluateText(kExtend, &db, opts).status());
    EXPECT_GT(db.Find("tc")->size(), before);
    results[dispatched] = RelationSet(db, "tc");
  }
  EXPECT_EQ(results[0], results[1]);
}

TEST(ClosureDispatchTest, KernelOrderIsSourceThenDenseId) {
  // The dispatched closure relation lists sources in first-appearance
  // order, each followed by its reached nodes in dense-id order — the
  // standalone kernel's order.
  Database db;
  ASSERT_OK(workload::RandomDigraph(40, 120, 5, &db));
  ASSERT_OK_AND_ASSIGN(Relation kernel,
                       tc::ColumnarTransitiveClosure(*db.Find("edge"), 1));
  ASSERT_OK(eval::EvaluateText("tc(X, Y) :- edge(X, Y).\n"
                               "tc(X, Y) :- edge(X, Z), tc(Z, Y).\n",
                               &db)
                .status());
  EXPECT_EQ(db.Find("tc")->rows(), kernel.rows());
}

// ---------------------------------------------------------------------------
// Governance on the dispatched route.

constexpr char kTcProgram[] =
    "tc(X, Y) :- edge(X, Y).\n"
    "tc(X, Y) :- edge(X, Z), tc(Z, Y).\n"
    "reach(X) :- tc(X, X).\n";

constexpr char kSeededProgram[] =
    "tc(Y) :- edge(n0, Y).\n"
    "tc(Y) :- tc(Z), edge(Z, Y).\n"
    "reach(X) :- tc(X), edge(X, n0).\n";

/// Names and sizes of every relation: the state a rollback restores.
std::map<std::string, size_t> Shape(const Database& db) {
  std::map<std::string, size_t> out;
  for (const auto& [sym, rel] : db.relations()) {
    out[db.symbols().name(sym)] = rel.size();
  }
  return out;
}

void ExpectCancelMidKernelRestores(const char* program) {
  Database db;
  ASSERT_OK(workload::RandomDigraph(200, 800, 11, &db));
  ASSERT_OK(db.AddSymFact("reach", {"n0"}));  // a pre-existing head
  const auto before = Shape(db);
  gov::FaultInjector fi;
  gov::FaultSpec spec;
  spec.action = gov::FaultAction::kStall;
  spec.stall_ms = 5000;
  spec.repeat = true;
  fi.Arm("tc.expand", spec);
  gov::GovernorContext g;
  g.faults = &fi;
  gov::CancellationToken token = g.token;
  eval::EvalOptions opts;
  opts.governor = &g;
  opts.num_threads = 4;

  Status result = Status::OK();
  const auto start = std::chrono::steady_clock::now();
  std::thread worker([&] {
    result = eval::EvaluateText(program, &db, opts).status();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  token.Cancel();
  worker.join();
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(result.code(), StatusCode::kCancelled) << result.ToString();
  EXPECT_LT(elapsed_ms, 2500);
  EXPECT_GE(fi.hits("tc.expand"), 1u) << "the kernel never ran";
  EXPECT_EQ(Shape(db), before);
}

TEST(ClosureDispatchGovernanceTest, CancelMidKernelRestoresPreRunState) {
  ExpectCancelMidKernelRestores(kTcProgram);
}

TEST(ClosureDispatchGovernanceTest, SeededCancelMidKernelRestoresPreRunState) {
  ExpectCancelMidKernelRestores(kSeededProgram);
}

void ExpectEvalRoundFaultAtHitTwoRollsBack(const char* program) {
  Database db;
  ASSERT_OK(workload::RandomDigraph(30, 90, 3, &db));
  const auto before = Shape(db);
  gov::FaultInjector fi;
  gov::FaultSpec spec;
  spec.trigger_hit = 2;
  spec.code = StatusCode::kInternal;
  spec.message = "boom";
  fi.Arm("eval.round", spec);
  gov::GovernorContext g;
  g.faults = &fi;
  eval::EvalOptions opts;
  opts.governor = &g;
  auto r = eval::EvaluateText(program, &db, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  EXPECT_NE(r.status().message().find("boom"), std::string::npos);
  EXPECT_GE(fi.hits("tc.expand"), 1u) << "the kernel never ran";
  EXPECT_EQ(fi.hits("eval.round"), 2u);
  EXPECT_EQ(Shape(db), before);
}

TEST(ClosureDispatchGovernanceTest, EvalRoundFaultAtHitTwoRollsBack) {
  ExpectEvalRoundFaultAtHitTwoRollsBack(kTcProgram);
}

TEST(ClosureDispatchGovernanceTest, SeededEvalRoundFaultAtHitTwoRollsBack) {
  ExpectEvalRoundFaultAtHitTwoRollsBack(kSeededProgram);
}

void ExpectEvalRoundHitsMatchRulePath(const char* program) {
  uint64_t hits[2] = {0, 0};
  for (int dispatched = 0; dispatched < 2; ++dispatched) {
    Database db;
    ASSERT_OK(workload::RandomDigraph(30, 90, 3, &db));
    gov::FaultInjector fi;
    gov::GovernorContext g;
    g.faults = &fi;
    eval::EvalOptions opts;
    opts.governor = &g;
    if (dispatched == 0) opts.max_iterations = 1u << 30;
    ASSERT_OK(eval::EvaluateText(program, &db, opts).status());
    EXPECT_EQ(fi.hits("tc.expand") > 0, dispatched == 1);
    hits[dispatched] = fi.hits("eval.round");
  }
  EXPECT_EQ(hits[0], hits[1]);
}

TEST(ClosureDispatchGovernanceTest, EvalRoundHitsMatchRulePath) {
  ExpectEvalRoundHitsMatchRulePath(kTcProgram);
}

TEST(ClosureDispatchGovernanceTest, SeededEvalRoundHitsMatchRulePath) {
  ExpectEvalRoundHitsMatchRulePath(kSeededProgram);
}

/// Runs `program` on a fresh 40-node graph, optionally pre-seeding its
/// closure `tc` (of arity `tc_arity`), and reports whether the kernel ran
/// (tc.expand hits) plus the resulting rows.
struct RouteProbe {
  bool kernel_ran = false;
  std::vector<Tuple> tc_rows;
  std::vector<Tuple> reach_rows;
};

RouteProbe Probe(eval::EvalOptions opts, bool prepopulate,
                 const char* program, size_t tc_arity) {
  RouteProbe out;
  Database db;
  EXPECT_OK(workload::RandomDigraph(40, 120, 9, &db));
  if (prepopulate) {
    const Relation& edges = *db.Find("edge");
    for (size_t i = 0; i < 5; ++i) {
      const Tuple& e = edges.rows()[i];
      EXPECT_OK(db.AddFact("tc", Tuple(e.end() - tc_arity, e.end())));
    }
  }
  gov::FaultInjector fi;
  gov::GovernorContext g;
  if (opts.governor != nullptr) g.budget = opts.governor->budget;
  g.faults = &fi;
  opts.governor = &g;
  auto r = eval::EvaluateText(program, &db, opts);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  out.kernel_ran = fi.hits("tc.expand") > 0;
  out.tc_rows = db.Find("tc")->rows();
  out.reach_rows = db.Find("reach")->rows();
  return out;
}

void ExpectIneligibleRunsStayOnRulePath(const char* program,
                                        size_t tc_arity) {
  eval::EvalOptions rules;
  rules.max_iterations = 1u << 30;  // the rule path, as before dispatch
  const RouteProbe plain = Probe(rules, false, program, tc_arity);
  EXPECT_FALSE(plain.kernel_ran);
  EXPECT_TRUE(
      Probe(eval::EvalOptions{}, false, program, tc_arity).kernel_ran);

  // An armed (never-tripping) budget.
  gov::GovernorContext budgeted;
  budgeted.budget.max_result_rows = 1u << 30;
  budgeted.budget.return_partial = true;
  eval::EvalOptions with_budget;
  with_budget.governor = &budgeted;
  const RouteProbe b = Probe(with_budget, false, program, tc_arity);
  EXPECT_FALSE(b.kernel_ran);
  EXPECT_EQ(b.tc_rows, plain.tc_rows);
  EXPECT_EQ(b.reach_rows, plain.reach_rows);

  // Provenance.
  eval::ProvenanceStore store;
  eval::EvalOptions with_prov;
  with_prov.provenance = &store;
  const RouteProbe p = Probe(with_prov, false, program, tc_arity);
  EXPECT_FALSE(p.kernel_ran);
  EXPECT_EQ(p.tc_rows, plain.tc_rows);
  EXPECT_EQ(p.reach_rows, plain.reach_rows);

  // A head relation that already holds rows.
  const RouteProbe pre_rules = Probe(rules, true, program, tc_arity);
  const RouteProbe pre = Probe(eval::EvalOptions{}, true, program, tc_arity);
  EXPECT_FALSE(pre.kernel_ran);
  EXPECT_EQ(pre.tc_rows, pre_rules.tc_rows);
  EXPECT_EQ(pre.reach_rows, pre_rules.reach_rows);

  // kNaive is the rule-only oracle.
  eval::EvalOptions naive;
  naive.strategy = eval::Strategy::kNaive;
  EXPECT_FALSE(Probe(naive, false, program, tc_arity).kernel_ran);
}

TEST(ClosureDispatchGovernanceTest, IneligibleRunsStayOnRulePath) {
  ExpectIneligibleRunsStayOnRulePath(kTcProgram, 2);
}

TEST(ClosureDispatchGovernanceTest, SeededIneligibleRunsStayOnRulePath) {
  ExpectIneligibleRunsStayOnRulePath(kSeededProgram, 1);
  // A rule reading the seeded closure in full after its pair would see
  // rows the rule path has not derived yet.
  for (const char* reader : {"late(X, Y) :- tc(X), tc(Y).\n",
                             "late(X, Y) :- tc(X), reach(Y).\n"}) {
    SCOPED_TRACE(reader);
    const std::string program = std::string(kSeededProgram) + reader;
    uint64_t kernel_hits[2] = {0, 0};
    std::set<std::string> late[2];
    for (int dispatched = 0; dispatched < 2; ++dispatched) {
      Database db;
      ASSERT_OK(workload::RandomDigraph(40, 120, 9, &db));
      gov::FaultInjector fi;
      gov::GovernorContext g;
      g.faults = &fi;
      eval::EvalOptions opts;
      opts.governor = &g;
      if (dispatched == 0) opts.max_iterations = 1u << 30;
      ASSERT_OK(eval::EvaluateText(program, &db, opts).status());
      kernel_hits[dispatched] = fi.hits("tc.expand");
      late[dispatched] = RelationSet(db, "late");
    }
    EXPECT_EQ(kernel_hits[1], 0u);
    EXPECT_FALSE(late[0].empty());
    EXPECT_EQ(late[0], late[1]);
  }
}

// ---------------------------------------------------------------------------
// Observability of the route.

const obs::Span* FindSpan(const std::vector<obs::Span>& spans,
                          const std::string& name, int* count) {
  const obs::Span* found = nullptr;
  for (const obs::Span& s : spans) {
    if (s.name == name) {
      ++*count;
      found = &s;
    }
    if (const obs::Span* child = FindSpan(s.children, name, count)) {
      found = child;
    }
  }
  return found;
}

int64_t Attr(const obs::Span& s, const std::string& key) {
  for (const auto& [k, v] : s.attrs) {
    if (k == key) return v;
  }
  return -1;
}

TEST(ClosureDispatchObservabilityTest, ExplainTraceAndProfileNameTheRoute) {
  Database db;
  ASSERT_OK(workload::RandomDigraph(30, 90, 4, &db));
  QueryRequest req = QueryRequest::GraphLog(
      "query t { edge X -> Y : edge+; distinguished X -> Y : t; }");
  req.options.observability.explain = true;
  req.options.observability.profile = true;
  req.options.observability.tracing = true;
  auto r = graphlog::Run(req, &db);
  ASSERT_OK(r.status());
  // Static EXPLAIN names the route; EXPLAIN ANALYZE shows it as the two
  // rules' plan.
  EXPECT_NE(r->explain.find("stratum 0: closure kernel: edge-tc over edge"),
            std::string::npos)
      << r->explain;
  EXPECT_NE(r->explain.find("plan: closure kernel: edge-tc over edge"),
            std::string::npos)
      << r->explain;
  // One tc.kernel span with the kernel's shape.
  int count = 0;
  const obs::Span* span = FindSpan(r->trace.spans, "tc.kernel", &count);
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(count, 1);
  const Relation* t = db.Find("t");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(Attr(*span, "pairs"), static_cast<int64_t>(t->size()));
  EXPECT_GT(Attr(*span, "sources"), 0);
  EXPECT_GT(Attr(*span, "waves"), 1);
  // The round-log invariants of profile_test, on the dispatched route.
  uint64_t firings = 0, derived = 0;
  for (const auto& round : r->profile.rounds) {
    firings += round.firings;
    derived += round.derived;
  }
  EXPECT_EQ(firings, r->stats.datalog.rule_firings);
  EXPECT_EQ(derived, r->stats.datalog.tuples_derived);
  EXPECT_EQ(r->profile.rounds.size(), r->stats.datalog.iterations + 1);
  for (const auto& rule : r->profile.rules) {
    EXPECT_EQ(rule.firings,
              rule.rows_emitted + rule.dup_in_head + rule.dup_in_round)
        << rule.rule;
  }
}

TEST(ClosureDispatchObservabilityTest, NoKernelWithoutRecursion) {
  Database db;
  ASSERT_OK(workload::RandomDigraph(30, 90, 4, &db));
  QueryRequest req = QueryRequest::GraphLog(
      "query two { edge X -> Y : edge edge; distinguished X -> Y : two; }");
  req.options.observability.explain = true;
  req.options.observability.tracing = true;
  auto r = graphlog::Run(req, &db);
  ASSERT_OK(r.status());
  EXPECT_EQ(r->explain.find("closure kernel"), std::string::npos);
  int count = 0;
  EXPECT_EQ(FindSpan(r->trace.spans, "tc.kernel", &count), nullptr);
}

std::string Note(const obs::Span& s, const std::string& key) {
  for (const auto& [k, v] : s.notes) {
    if (k == key) return v;
  }
  return "";
}

TEST(ClosureDispatchObservabilityTest, SeededRouteInExplainTraceAndProfile) {
  for (bool forward : {true, false}) {
    SCOPED_TRACE(forward ? "forward" : "backward");
    Database db;
    ASSERT_OK(workload::RandomDigraph(30, 90, 4, &db));
    QueryRequest req = QueryRequest::GraphLog(
        forward ? "query h { edge \"n0\" -> Y : edge+; "
                  "distinguished \"n0\" -> Y : h; }"
                : "query h { edge X -> \"n0\" : edge+; "
                  "distinguished X -> \"n0\" : h; }");
    req.options.translation.specialize_bound_closures = true;
    req.options.observability.explain = true;
    req.options.observability.profile = true;
    req.options.observability.tracing = true;
    auto r = graphlog::Run(req, &db);
    ASSERT_OK(r.status());
    const std::string route =
        forward ? "closure kernel: edge-tc-from-n0 over edge from n0"
                : "closure kernel: edge-tc-to-n0 over edge to n0";
    EXPECT_NE(r->explain.find("stratum 0: " + route), std::string::npos)
        << r->explain;
    EXPECT_NE(r->explain.find("plan: " + route), std::string::npos)
        << r->explain;
    // One tc.kernel span: one source, the direction, pairs and waves.
    int count = 0;
    const obs::Span* span = FindSpan(r->trace.spans, "tc.kernel", &count);
    ASSERT_NE(span, nullptr);
    EXPECT_EQ(count, 1);
    const Relation* h = db.Find("h");
    ASSERT_NE(h, nullptr);
    EXPECT_FALSE(h->empty());
    EXPECT_EQ(Attr(*span, "sources"), 1);
    EXPECT_EQ(Note(*span, "direction"), forward ? "forward" : "backward");
    EXPECT_EQ(Attr(*span, "pairs"), static_cast<int64_t>(h->size()));
    EXPECT_GT(Attr(*span, "waves"), 1);
    // The round-log invariants of profile_test, on the seeded route.
    uint64_t firings = 0, derived = 0;
    for (const auto& round : r->profile.rounds) {
      firings += round.firings;
      derived += round.derived;
    }
    EXPECT_EQ(firings, r->stats.datalog.rule_firings);
    EXPECT_EQ(derived, r->stats.datalog.tuples_derived);
    EXPECT_EQ(r->profile.rounds.size(), r->stats.datalog.iterations + 1);
    for (const auto& rule : r->profile.rules) {
      EXPECT_EQ(rule.firings,
                rule.rows_emitted + rule.dup_in_head + rule.dup_in_round)
          << rule.rule;
    }
    // The CSR is the run's one index build; the rule path's hash index
    // on edge is never built.
    EXPECT_EQ(r->stats.datalog.index_builds, 1u);
    EXPECT_EQ(db.Find("edge")->index_builds(), 0u);
  }
}

// ---------------------------------------------------------------------------
// The kernel's own contracts (formerly also asserted on the parallel
// row kernel).

TEST(ColumnarKernelTest, MatchesBfsAcrossThreadCounts) {
  for (unsigned threads : {1u, 2u, 4u}) {
    Database db;
    ASSERT_OK(workload::RandomDigraph(30, 80, 77, &db));
    const Relation& edges = *db.Find("edge");
    ASSERT_OK_AND_ASSIGN(Relation col,
                         tc::ColumnarTransitiveClosure(edges, threads));
    ASSERT_OK_AND_ASSIGN(Relation bfs,
                         tc::TransitiveClosure(edges, tc::TcAlgorithm::kBfs));
    EXPECT_TRUE(col.SetEquals(bfs)) << threads << " threads";
  }
}

TEST(ColumnarKernelTest, WrongArityRejected) {
  Relation bad(3);
  EXPECT_FALSE(tc::ColumnarTransitiveClosure(bad, 2).ok());
  exec::ThreadPool pool(2);
  EXPECT_FALSE(tc::ComputeColumnarClosure(bad, &pool, {}).ok());
}

TEST(ColumnarKernelTest, LaneFaultSurfacesIdenticallyAcrossThreadCounts) {
  // Lanes drain once one fails and the error surfaces after the join,
  // whichever lane hit it: the same status at every thread count.
  std::string messages[2];
  const unsigned threads[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    Database db;
    ASSERT_OK(workload::RandomDigraph(60, 180, 13, &db));
    gov::FaultInjector fi;
    gov::FaultSpec spec;
    spec.trigger_hit = 7;
    spec.code = StatusCode::kInternal;
    spec.message = "lane boom";
    fi.Arm("tc.expand", spec);
    gov::GovernorContext g;
    g.faults = &fi;
    auto r = tc::ColumnarTransitiveClosure(*db.Find("edge"), threads[i],
                                           nullptr, &g);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInternal);
    messages[i] = r.status().message();
  }
  EXPECT_EQ(messages[0], messages[1]);
  EXPECT_NE(messages[0].find("lane boom"), std::string::npos);
}

TEST(ColumnarKernelTest, WaveHistogramSumsToClosure) {
  Database db;
  ASSERT_OK(workload::RandomDigraph(50, 150, 8, &db));
  const Relation& edges = *db.Find("edge");
  ASSERT_OK_AND_ASSIGN(tc::ColumnarClosure serial,
                       tc::ComputeColumnarClosure(edges, nullptr, {}));
  exec::ThreadPool pool(4);
  ASSERT_OK_AND_ASSIGN(tc::ColumnarClosure parallel,
                       tc::ComputeColumnarClosure(edges, &pool, {}));
  EXPECT_EQ(serial.waves.reached, parallel.waves.reached);
  EXPECT_EQ(serial.waves.expansions, parallel.waves.expansions);
  EXPECT_EQ(serial.waves.revisits, parallel.waves.revisits);
  // Wave 1 expands every edge once; the depths partition the closure.
  ASSERT_GE(serial.waves.size(), 2u);
  EXPECT_EQ(serial.waves.expansions[0], edges.size());
  EXPECT_EQ(serial.waves.reached.back(), 0u);
  uint64_t reached = 0;
  Relation by_depth(2);
  for (size_t d = 1; d <= serial.waves.size(); ++d) {
    reached += serial.waves.reached[d - 1];
    EXPECT_EQ(serial.AppendDepth(d, &by_depth), serial.waves.reached[d - 1]);
  }
  EXPECT_EQ(reached, serial.pairs);
  Relation all(2);
  serial.AppendTo(&all);
  EXPECT_TRUE(by_depth.SetEquals(all));
  ASSERT_OK_AND_ASSIGN(Relation semi, tc::TransitiveClosure(
                                          edges, tc::TcAlgorithm::kSemiNaive));
  EXPECT_TRUE(all.SetEquals(semi));
}

TEST(ColumnarKernelTest, SeededRunIsOneSourceOfTheClosure) {
  Database db;
  ASSERT_OK(workload::RandomDigraph(40, 120, 21, &db));
  const Relation& edges = *db.Find("edge");
  ASSERT_OK_AND_ASSIGN(tc::ColumnarClosure full,
                       tc::ComputeColumnarClosure(edges, nullptr, {}));
  Relation all(2);
  full.AppendTo(&all);
  exec::ThreadPool pool(4);
  for (const char* name : {"n0", "n7", "missing"}) {
    for (bool forward : {true, false}) {
      SCOPED_TRACE(std::string(name) + (forward ? " forward" : " backward"));
      const Value seed = Value::Sym(db.Intern(name));
      tc::ClosureOptions o;
      o.seed = tc::ClosureSeed{seed, forward};
      ASSERT_OK_AND_ASSIGN(tc::ColumnarClosure serial,
                           tc::ComputeColumnarClosure(edges, nullptr, o));
      ASSERT_OK_AND_ASSIGN(tc::ColumnarClosure parallel,
                           tc::ComputeColumnarClosure(edges, &pool, o));
      EXPECT_EQ(serial.sources(), 1u);
      Relation got(1), got_parallel(1);
      serial.AppendTo(&got);
      parallel.AppendTo(&got_parallel);
      EXPECT_EQ(got.rows(), got_parallel.rows());
      EXPECT_EQ(got.size(), serial.pairs);
      // The seed's row (column) of the full closure.
      std::set<Tuple> expected;
      for (const Tuple& t : all.rows()) {
        if (t[forward ? 0 : 1] == seed) {
          expected.insert(Tuple{t[forward ? 1 : 0]});
        }
      }
      EXPECT_EQ(std::set<Tuple>(got.rows().begin(), got.rows().end()),
                expected);
      if (std::string(name) == "missing") {
        EXPECT_TRUE(got.empty());
      }
      // Order: depth, then dense id — the depth-by-depth replay's order.
      Relation by_depth(1);
      for (size_t d = 1; d <= serial.waves.size(); ++d) {
        serial.AppendDepth(d, &by_depth);
      }
      EXPECT_EQ(by_depth.rows(), got.rows());
    }
  }
}

}  // namespace
}  // namespace graphlog
