// graphlog_shell: an interactive GraphLog session.
//
// The textual stand-in for the Section 5 prototype: load a database, type
// graphical queries, inspect answers, and export DOT renderings of both
// the database graph and the query graphs themselves.
//
//   $ ./build/examples/graphlog_shell
//   graphlog> edge(a, b).
//   graphlog> edge(b, c).
//   graphlog> query t { edge X -> Y : edge+; distinguished X -> Y : t; }
//   3 tuples derived
//   graphlog> .show t
//   t(a, b). ...
//
// Commands:
//   <fact>.                    add a ground fact
//   query NAME { ... }         evaluate a graphical query (may span lines)
//   .datalog <rule>            evaluate one Datalog rule
//   .load FILE | .save FILE    fact-file I/O
//   .show REL | .relations     inspect state
//   .dot | .dotquery NAME{...} export DOT (database / query graph)
//   .rpq [SRC [DST]] EXPR      automaton-product RPQ over the data graph
//   .explain NAME { ... }      show translation + plans without evaluating
//   .trace [on|off|json]       toggle tracing / print the last trace
//   .profile [on|off|show]     EXPLAIN ANALYZE profiling of evaluations
//   .metrics [json|prom]       process-wide metrics registry snapshot
//   .slowlog [n|json|...]      inspect / configure the slow-query log
//   .resource                  per-relation row/byte accounting
//   .cache [on|off|...]        query result cache (generation-invalidated)
//   .columnar [stats]          the session's CSR snapshot cache
//   .view define NAME { ... }  materialized views, incrementally maintained
//   .session open|list|switch  multiplex epoch-snapshot server sessions
//   .wal on DIR|off|status     durable mode: write-ahead log + checkpoints
//   .checkpoint | .recover     checkpoint now / live crash-recovery drill
//   .serve PORT                serve this shell's server over TCP
//   .connect HOST:PORT         attach to a remote graphlogd
//   .help | .quit
//
// Reads from stdin, so it is scriptable: `graphlog_shell < script.glog`.

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define GRAPHLOG_SHELL_SIGINT 1
#endif

#include "cache/result_cache.h"
#include "cache/view_catalog.h"
#include "columnar/csr_cache.h"
#include "common/strings.h"
#include "durability/wal.h"
#include "eval/provenance.h"
#include "gov/fault_injection.h"
#include "gov/governor.h"
#include "graph/data_graph.h"
#include "graphlog/api.h"
#include "graphlog/dot.h"
#include "graphlog/parser.h"
#include "net/client.h"
#include "net/net_server.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"
#include "rpq/rpq_eval.h"
#include "storage/database.h"
#include "storage/io.h"

using namespace graphlog;

namespace {

// SIGINT plumbing. The first Ctrl-C cancels the in-flight governed query
// (the engine polls the token cooperatively and unwinds with kCancelled);
// the second exits the process. Both state cells are async-signal-safe:
// the counter is a relaxed atomic and CancellationToken::Cancel is one
// relaxed atomic store — no locks, no allocation.
std::atomic<int> g_sigint_count{0};
gov::CancellationToken* g_shell_token = nullptr;

#ifdef GRAPHLOG_SHELL_SIGINT
extern "C" void ShellSigintHandler(int) {
  int n = g_sigint_count.fetch_add(1, std::memory_order_relaxed) + 1;
  if (n >= 2) std::_Exit(130);
  if (g_shell_token != nullptr) g_shell_token->Cancel();
  constexpr char kMsg[] = "\n[cancel requested; Ctrl-C again to exit]\n";
  // write(2) is on the async-signal-safe list; printf is not.
  ssize_t ignored = write(STDERR_FILENO, kMsg, sizeof(kMsg) - 1);
  (void)ignored;
}

void InstallSigintHandler() {
  struct sigaction sa = {};
  sa.sa_handler = ShellSigintHandler;
  sigemptyset(&sa.sa_mask);
  // SA_RESTART: the blocking getline on stdin resumes instead of failing
  // with EINTR, so the prompt survives a cancel.
  sa.sa_flags = SA_RESTART;
  sigaction(SIGINT, &sa, nullptr);
}
#else
void InstallSigintHandler() {}
#endif

/// Digits-only uint64 parse; rejects signs, spaces, and overflow-bait.
bool ParseU64(const std::string& s, uint64_t* out) {
  if (s.empty() || s.size() > 18) return false;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
  }
  *out = std::strtoull(s.c_str(), nullptr, 10);
  return true;
}

void PrintHelp() {
  std::printf(
      "commands:\n"
      "  fact(args).              add a ground fact\n"
      "  query NAME { ... }       evaluate a graphical query\n"
      "  .datalog RULE            evaluate a single Datalog rule\n"
      "  .load FILE               load a fact file\n"
      "  .save FILE               save all relations as facts\n"
      "  .show RELATION           print a relation\n"
      "  .relations               list relations and sizes\n"
      "  .dot                     DOT of the database graph\n"
      "  .dotquery QUERY          DOT of a query graph (visual formalism)\n"
      "  .rpq [SRC [DST]] EXPR    run a regular path query\n"
      "  .explain QUERY           translated rules, strata, and join plans\n"
      "                           of a query, without evaluating it\n"
      "  .trace on|off            enable/disable tracing of evaluations\n"
      "  .trace                   print the last evaluation's trace tree\n"
      "  .trace json              print the last trace as JSON\n"
      "  .profile on|off          collect plan-level execution profiles\n"
      "                           (per-atom probes/rows, dedup, rounds)\n"
      "  .profile show [json]     EXPLAIN ANALYZE of the last profiled\n"
      "                           run (text, or logical-profile JSON)\n"
      "  .metrics [json|prom]     snapshot of the process-wide metrics\n"
      "                           registry (text, JSON, or Prometheus)\n"
      "  .slowlog [N]             last N slow-query records (default all)\n"
      "  .slowlog json            the slow-query log as one JSON document\n"
      "  .slowlog threshold [MS]  show or set the slow-query threshold in\n"
      "                           milliseconds (0 disables capture)\n"
      "  .slowlog clear           drop all retained records\n"
      "  .resource                per-relation row/byte accounting\n"
      "  .why FACT                derivation tree of a fact from the most\n"
      "                           recent query/.datalog evaluation\n"
      "  .threads [N]             show or set evaluation worker lanes\n"
      "                           (1 = serial, 0 = hardware concurrency)\n"
      "  .limit                   show the session's query limits\n"
      "  .limit rows|delta|rounds|bytes N\n"
      "                           cap result rows / per-round delta rows /\n"
      "                           fixpoint rounds / estimated bytes (0 off)\n"
      "  .limit deadline MS       wall-clock deadline per query (0 off)\n"
      "  .limit partial on|off    budget trips truncate instead of failing\n"
      "  .limit clear             drop every limit\n"
      "  .fault [list]            armed fault-injection points\n"
      "  .fault SITE fail [N]     inject a failure at SITE's Nth hit\n"
      "  .fault SITE stall MS [N] stall SITE's Nth hit for MS milliseconds\n"
      "                           (sites: eval.round pool.task tc.expand\n"
      "                           rpq.step io.load csr.build wal.append\n"
      "                           wal.fsync checkpoint.write net.accept\n"
      "                           net.read net.write)\n"
      "  .fault clear             disarm everything\n"
      "  .cache on|off            toggle the query result cache (off by\n"
      "                           default; while on, .why provenance is\n"
      "                           not collected)\n"
      "  .cache [stats]           hit/miss/eviction counters and bytes\n"
      "  .cache clear             drop every cached entry\n"
      "  .columnar [stats]        CSR snapshot builds/reuses/invalidations\n"
      "                           of the session's closure-kernel cache\n"
      "  .session                 sessions with epochs; * marks active\n"
      "  .session open [NAME]     open a session pinned to the current\n"
      "                           head snapshot and make it active\n"
      "  .session switch NAME     switch the active session; each one is\n"
      "                           an isolated epoch snapshot\n"
      "  .session refresh         fast-forward the active session to the\n"
      "                           server's head epoch\n"
      "  .wal on DIR              durable mode: every commit appends to\n"
      "                           DIR/wal.log (fsync'd) before its epoch\n"
      "                           publishes; current facts migrate over\n"
      "  .wal off                 back to an in-memory server (state is\n"
      "                           kept but no longer durable)\n"
      "  .wal [status]            log path, size, fsync policy, epoch\n"
      "  .checkpoint              write DIR/checkpoint.db atomically and\n"
      "                           truncate the write-ahead log behind it\n"
      "  .recover                 close the durable server and re-open it\n"
      "                           through checkpoint load + WAL replay —\n"
      "                           a live drill of the crash-restart path\n"
      "  .serve PORT              serve this shell's server over TCP on\n"
      "                           127.0.0.1:PORT (0 = ephemeral); remote\n"
      "                           clients get epoch-snapshot sessions\n"
      "  .serve status            listener address, connections, sheds\n"
      "  .serve stop              stop listening (connections close)\n"
      "  .connect HOST:PORT       attach to a remote graphlogd; facts,\n"
      "                           queries, .datalog, .load, .show, and\n"
      "                           .relations then run on a remote session\n"
      "  .disconnect              drop the remote connection; commands\n"
      "                           run against the local server again\n"
      "  .view define NAME QUERY  materialize a graphical query as view\n"
      "                           NAME, kept fresh incrementally as facts\n"
      "                           arrive; matching queries answer from it\n"
      "  .view [list]             views with sizes and refresh counters\n"
      "  .view refresh [NAME]     force a refresh (all views without NAME)\n"
      "  .view drop NAME          forget a view (its relations remain)\n"
      "  Ctrl-C                   cancel the running query (twice: exit)\n"
      "  .help / .quit / .exit\n");
}

/// Balances braces to decide whether a query block is complete.
bool BlockComplete(const std::string& text) {
  int depth = 0;
  bool seen = false;
  for (char c : text) {
    if (c == '{') {
      ++depth;
      seen = true;
    }
    if (c == '}') --depth;
  }
  return seen && depth <= 0;
}

class Shell {
 public:
  Shell() {
    opts_.observability.metrics = &metrics_;
    opts_.observability.slow_query_log = &slowlog_;
    opts_.cache.views = &views_;
    // Queries slower than 100 ms land in .slowlog by default;
    // `.slowlog threshold MS` tunes it, 0 disables.
    opts_.observability.slow_query_threshold_ns = 100'000'000;
    // First Ctrl-C cancels the in-flight query via this token; the
    // Shell outlives every query, so the handler's pointer stays valid.
    g_shell_token = &cancel_;
    InstallSigintHandler();
    // Every shell runs against an in-process Server; "main" is the
    // default session (an epoch-0 snapshot of the empty database).
    // `.wal on DIR` later swaps in a durable server.
    server_ = std::make_unique<Server>(MakeServerOptions());
    auto main_session = server_->OpenSession({.name = "main"});
    if (!main_session.ok()) {
      std::fprintf(stderr, "fatal: %s\n",
                   main_session.status().ToString().c_str());
      std::exit(1);
    }
    sessions_["main"] = std::move(*main_session);
    active_ = "main";
  }

  int Run() {
    std::string line;
    Prompt();
    while (std::getline(std::cin, line)) {
      Handle(line);
      if (done_) break;
      Prompt();
    }
    return 0;
  }

 private:
  /// The active session; `.session switch` retargets it.
  Session& active() { return *sessions_.at(active_); }

  /// The active session's private database — what every read-side
  /// command (.show, .dot, .rpq, queries) sees: the pinned snapshot plus
  /// any session-local derivations.
  storage::Database& db() { return active().database(); }

  void Prompt() {
    if (pending_.empty()) {
      std::printf("graphlog> ");
    } else {
      std::printf("      ... ");
    }
    std::fflush(stdout);
  }

  void Handle(const std::string& raw) {
    std::string line(Trim(raw));
    if (!pending_.empty()) {
      pending_ += "\n" + line;
      if (BlockComplete(pending_)) {
        RunQuery(pending_);
        pending_.clear();
      }
      return;
    }
    if (line.empty() || line[0] == '#') return;
    if (line == ".quit" || line == ".exit") {
      done_ = true;
      return;
    }
    if (line == ".help") {
      PrintHelp();
      return;
    }
    if (line == ".relations") {
      if (remote_ != nullptr) {
        auto infos = remote_->ListRelations();
        if (!infos.ok()) {
          std::printf("error: %s\n", infos.status().ToString().c_str());
          return;
        }
        for (const auto& info : *infos) {
          std::printf("  %s/%u: %llu tuples\n", info.name.c_str(), info.arity,
                      static_cast<unsigned long long>(info.rows));
        }
        return;
      }
      for (const auto& [name, rel] : db().relations()) {
        std::printf("  %s/%zu: %zu tuples\n",
                    db().symbols().name(name).c_str(), rel.arity(),
                    rel.size());
      }
      return;
    }
    if (StartsWith(line, ".show ")) {
      std::string name(Trim(line.substr(6)));
      if (remote_ != nullptr) {
        auto text = remote_->FetchRelation(name);
        if (!text.ok()) {
          std::printf("error: %s\n", text.status().ToString().c_str());
        } else {
          std::printf("%s", text->c_str());
        }
        return;
      }
      Symbol s = db().symbols().Lookup(name);
      if (s == kNoSymbol || db().Find(s) == nullptr) {
        std::printf("no relation '%s'\n", name.c_str());
      } else {
        std::printf("%s", db().RelationToString(s).c_str());
      }
      return;
    }
    if (StartsWith(line, ".load ")) {
      if (remote_ != nullptr) {
        // The Client reads the file HERE and ships its bytes as facts;
        // the server never resolves a path on its own filesystem.
        auto r = remote_->Apply(
            WriteBatch().LoadFile(std::string(Trim(line.substr(6)))));
        Report(r.status(), r.ok() ? r->facts : 0, "facts loaded (remote)");
        return;
      }
      gov::GovernorContext governor = MakeGovernor();
      auto r = active().Apply(
          WriteBatch().LoadFile(std::string(Trim(line.substr(6)))),
          &governor);
      Report(r.status(), r.ok() ? *r : 0, "facts loaded");
      if (r.ok()) RefreshViews();
      return;
    }
    if (StartsWith(line, ".save ")) {
      Status s =
          storage::SaveFactsFile(std::string(Trim(line.substr(6))), db());
      if (!s.ok()) std::printf("error: %s\n", s.ToString().c_str());
      return;
    }
    if (line == ".dot") {
      graph::DataGraph g = graph::DataGraph::FromDatabase(db());
      std::printf("%s", ToDot(g, db().symbols()).c_str());
      return;
    }
    if (StartsWith(line, ".dotquery ")) {
      std::string text = line.substr(10);
      if (!BlockComplete(text)) {
        pending_dotquery_ = true;
        pending_ = text;
        return;
      }
      DotQuery(text);
      return;
    }
    if (line == ".threads" || StartsWith(line, ".threads ")) {
      if (line == ".threads") {
        std::printf("num_threads = %u\n", opts_.eval.num_threads);
        return;
      }
      std::string arg(Trim(line.substr(9)));
      // Digits only: strtoul would silently wrap a negative sign around.
      bool numeric = !arg.empty() && arg.size() <= 4;
      for (char c : arg) numeric = numeric && c >= '0' && c <= '9';
      if (!numeric) {
        std::printf(
            "usage: .threads [N]   (1 = serial, 0 = hardware, max 9999)\n");
        return;
      }
      opts_.eval.num_threads =
          static_cast<unsigned>(std::strtoul(arg.c_str(), nullptr, 10));
      std::printf("num_threads = %u\n", opts_.eval.num_threads);
      return;
    }
    if (line == ".trace" || StartsWith(line, ".trace ")) {
      HandleTrace(line == ".trace" ? "" : std::string(Trim(line.substr(7))));
      return;
    }
    if (line == ".profile" || StartsWith(line, ".profile ")) {
      HandleProfile(line == ".profile" ? ""
                                       : std::string(Trim(line.substr(9))));
      return;
    }
    if (line == ".metrics" || StartsWith(line, ".metrics ")) {
      HandleMetrics(line == ".metrics" ? ""
                                       : std::string(Trim(line.substr(9))));
      return;
    }
    if (line == ".slowlog" || StartsWith(line, ".slowlog ")) {
      HandleSlowlog(line == ".slowlog" ? ""
                                       : std::string(Trim(line.substr(9))));
      return;
    }
    if (line == ".resource") {
      HandleResource();
      return;
    }
    if (line == ".limit" || StartsWith(line, ".limit ")) {
      HandleLimit(line == ".limit" ? "" : std::string(Trim(line.substr(7))));
      return;
    }
    if (line == ".fault" || StartsWith(line, ".fault ")) {
      HandleFault(line == ".fault" ? "" : std::string(Trim(line.substr(7))));
      return;
    }
    if (line == ".cache" || StartsWith(line, ".cache ")) {
      HandleCache(line == ".cache" ? "" : std::string(Trim(line.substr(7))));
      return;
    }
    if (line == ".columnar" || StartsWith(line, ".columnar ")) {
      HandleColumnar(line == ".columnar"
                         ? ""
                         : std::string(Trim(line.substr(10))));
      return;
    }
    if (line == ".session" || StartsWith(line, ".session ")) {
      HandleSession(line == ".session" ? ""
                                       : std::string(Trim(line.substr(9))));
      return;
    }
    if (line == ".wal" || StartsWith(line, ".wal ")) {
      HandleWal(line == ".wal" ? "" : std::string(Trim(line.substr(5))));
      return;
    }
    if (line == ".checkpoint") {
      HandleCheckpoint();
      return;
    }
    if (line == ".recover") {
      HandleRecover();
      return;
    }
    if (line == ".view" || StartsWith(line, ".view ")) {
      std::string arg(line == ".view" ? "" : Trim(line.substr(6)));
      if (StartsWith(arg, "define ")) {
        std::istringstream in(arg.substr(7));
        std::string name;
        in >> name;
        std::string text;
        std::getline(in, text);
        if (name.empty()) {
          std::printf("usage: .view define NAME QUERY\n");
          return;
        }
        if (!BlockComplete(text)) {
          pending_view_name_ = name;
          // Keep the continuation pump alive even when the query starts
          // on the next line (pending_ must be non-empty).
          pending_ = text.empty() ? " " : text;
          return;
        }
        DefineView(name, text);
        return;
      }
      HandleView(arg);
      return;
    }
    if (StartsWith(line, ".explain ")) {
      std::string text = line.substr(9);
      if (!BlockComplete(text)) {
        pending_explain_ = true;
        pending_ = text;
        return;
      }
      Explain(text);
      return;
    }
    if (line == ".serve" || StartsWith(line, ".serve ")) {
      HandleServe(line == ".serve" ? "" : std::string(Trim(line.substr(7))));
      return;
    }
    if (StartsWith(line, ".connect ")) {
      HandleConnect(std::string(Trim(line.substr(9))));
      return;
    }
    if (line == ".disconnect") {
      if (remote_ == nullptr) {
        std::printf("not connected\n");
        return;
      }
      remote_.reset();
      std::printf("disconnected from %s; commands run locally again\n",
                  remote_addr_.c_str());
      remote_addr_.clear();
      return;
    }
    if (StartsWith(line, ".datalog ")) {
      if (remote_ != nullptr) {
        RemoteQuery(line.substr(9), /*datalog=*/true);
        return;
      }
      last_store_ = eval::ProvenanceStore();
      gov::GovernorContext governor = MakeGovernor();
      QueryRequest req = QueryRequest::Datalog(line.substr(9));
      req.options = opts_;
      // Provenance forces a cache/view bypass (a served answer cannot
      // populate the store), so .why is only collected while the cache
      // is off and no views are defined.
      if (opts_.cache.result_cache == nullptr && views_.size() == 0) {
        req.options.eval.provenance = &last_store_;
      }
      req.options.eval.governor = &governor;
      auto r = active().Run(req);
      if (r.ok()) {
        last_program_ = r->stats.programs;
        last_trace_ = std::move(r->trace);
        if (!r->profile.empty()) last_profile_ = std::move(r->profile);
        if (r->truncated) {
          std::printf("truncated: %s\n", r->truncated_by.c_str());
        }
        if (r->cache_hit) std::printf("(result cache hit)\n");
      }
      Report(r.status(), r.ok() ? r->stats.datalog.tuples_derived : 0,
             "tuples derived");
      return;
    }
    if (StartsWith(line, ".why ")) {
      auto r = eval::ExplainFact(last_store_, last_program_, db().symbols(),
                                 line.substr(5));
      if (!r.ok()) {
        std::printf("error: %s\n", r.status().ToString().c_str());
        if (opts_.cache.result_cache != nullptr || views_.size() > 0) {
          std::printf("(provenance is not collected while the result "
                      "cache is on or views are defined; .cache off / "
                      ".view drop first)\n");
        }
      } else {
        std::printf("%s", r->c_str());
      }
      return;
    }
    if (StartsWith(line, ".rpq ")) {
      RunRpq(line.substr(5));
      return;
    }
    if (StartsWith(line, "query")) {
      if (!BlockComplete(line)) {
        pending_ = line;
        return;
      }
      RunQuery(line);
      return;
    }
    if (!line.empty() && line.back() == '.') {
      if (remote_ != nullptr) {
        auto r = remote_->Apply(WriteBatch().Facts(line));
        Report(r.status(), r.ok() ? r->facts : 0, "facts added (remote)");
        return;
      }
      // Ground facts commit through the server (atomic batch, new
      // epoch); the writing session fast-forwards in place.
      auto r = active().Apply(WriteBatch().Facts(line));
      Report(r.status(), r.ok() ? *r : 0, "facts added");
      if (r.ok()) RefreshViews();
      return;
    }
    std::printf("unrecognized input; try .help\n");
  }

  void RunQuery(const std::string& text) {
    if (pending_dotquery_) {
      pending_dotquery_ = false;
      DotQuery(text);
      return;
    }
    if (pending_explain_) {
      pending_explain_ = false;
      Explain(text);
      return;
    }
    if (!pending_view_name_.empty()) {
      std::string name = pending_view_name_;
      pending_view_name_.clear();
      DefineView(name, text);
      return;
    }
    if (remote_ != nullptr) {
      RemoteQuery(text, /*datalog=*/false);
      return;
    }
    last_store_ = eval::ProvenanceStore();
    gov::GovernorContext governor = MakeGovernor();
    QueryRequest req = QueryRequest::GraphLog(text);
    req.options = opts_;
    // Provenance forces a cache/view bypass, so .why is only collected
    // while the cache is off and no views are defined.
    if (opts_.cache.result_cache == nullptr && views_.size() == 0) {
      req.options.eval.provenance = &last_store_;
    }
    req.options.eval.governor = &governor;
    auto r = active().Run(req);
    if (!r.ok()) {
      std::printf("error: %s\n", r.status().ToString().c_str());
      return;
    }
    last_program_ = r->stats.programs;
    last_trace_ = std::move(r->trace);
    if (!r->profile.empty()) last_profile_ = std::move(r->profile);
    if (r->truncated) {
      std::printf("truncated: %s\n", r->truncated_by.c_str());
    }
    if (r->cache_hit) std::printf("(result cache hit)\n");
    if (r->served_from_view) {
      std::printf("(served from materialized view)\n");
    }
    const gl::QueryStats& stats = r->stats;
    std::printf("%llu tuples derived (%llu graphs translated, %llu "
                "summarized)\n",
                static_cast<unsigned long long>(stats.datalog.tuples_derived),
                static_cast<unsigned long long>(stats.graphs_translated),
                static_cast<unsigned long long>(stats.graphs_summarized));
  }

  /// Runs one query on the remote session, carrying the shell's eval
  /// knobs (.threads) and limits (.limit) over the wire.
  void RemoteQuery(const std::string& text, bool datalog) {
    net::WireQuery q;
    q.language = datalog ? 1 : 0;
    q.text = text;
    q.num_threads = opts_.eval.num_threads;
    q.specialize_bound_closures = opts_.translation.specialize_bound_closures;
    q.budget = budget_;
    q.deadline_ms = deadline_ms_;
    auto r = remote_->Run(q);
    if (!r.ok()) {
      std::printf("error: %s\n", r.status().ToString().c_str());
      if (r.status().code() == StatusCode::kOverloaded &&
          remote_->last_retry_after_ms() != 0) {
        std::printf("(server advises retry after %u ms)\n",
                    remote_->last_retry_after_ms());
      }
      return;
    }
    if (r->truncated) std::printf("truncated: %s\n", r->truncated_by.c_str());
    if (r->cache_hit) std::printf("(result cache hit)\n");
    if (r->served_from_view) std::printf("(served from materialized view)\n");
    std::printf("%llu tuples derived (%llu graphs translated, %llu "
                "summarized) [remote epoch %llu]\n",
                static_cast<unsigned long long>(r->tuples_derived),
                static_cast<unsigned long long>(r->graphs_translated),
                static_cast<unsigned long long>(r->graphs_summarized),
                static_cast<unsigned long long>(r->epoch));
  }

  void HandleServe(const std::string& arg) {
    if (arg.empty() || arg == "status") {
      if (net_server_ == nullptr) {
        std::printf("not serving; .serve PORT\n");
        return;
      }
      std::printf("serving on 127.0.0.1:%u — %zu connections, %llu shed\n",
                  net_server_->port(), net_server_->active_connections(),
                  static_cast<unsigned long long>(net_server_->rejected()));
      return;
    }
    if (arg == "stop") {
      if (net_server_ == nullptr) {
        std::printf("not serving\n");
        return;
      }
      net_server_->Stop();
      net_server_.reset();
      std::printf("stopped serving\n");
      return;
    }
    uint64_t port = 0;
    if (!ParseU64(arg, &port) || port > 65535) {
      std::printf("usage: .serve [PORT | status | stop]\n");
      return;
    }
    if (net_server_ != nullptr) {
      std::printf("already serving on port %u; .serve stop first\n",
                  net_server_->port());
      return;
    }
    net::NetServerOptions nopts;
    nopts.port = static_cast<uint16_t>(port);
    nopts.metrics = &metrics_;
    nopts.faults = &faults_;
    auto started = net::NetServer::Start(server_.get(), nopts);
    if (!started.ok()) {
      std::printf("error: %s\n", started.status().ToString().c_str());
      return;
    }
    net_server_ = std::move(*started);
    std::printf("serving on 127.0.0.1:%u (.connect %s:%u from another "
                "shell)\n",
                net_server_->port(), "127.0.0.1", net_server_->port());
  }

  void HandleConnect(const std::string& arg) {
    const size_t colon = arg.rfind(':');
    uint64_t port = 0;
    if (colon == std::string::npos || colon == 0 ||
        !ParseU64(arg.substr(colon + 1), &port) || port == 0 ||
        port > 65535) {
      std::printf("usage: .connect HOST:PORT\n");
      return;
    }
    if (remote_ != nullptr) {
      std::printf("already connected to %s; .disconnect first\n",
                  remote_addr_.c_str());
      return;
    }
    const std::string host = arg.substr(0, colon);
    auto client = net::Client::Connect(host, static_cast<uint16_t>(port));
    if (!client.ok()) {
      std::printf("error: %s\n", client.status().ToString().c_str());
      return;
    }
    auto session = (*client)->OpenSession();
    if (!session.ok()) {
      std::printf("error: %s\n", session.status().ToString().c_str());
      return;
    }
    remote_ = std::move(*client);
    remote_addr_ = arg;
    std::printf("connected to %s — session %s at epoch %llu; facts, "
                "queries, .datalog, .load, .show, .relations now run "
                "remotely (.disconnect to detach)\n",
                arg.c_str(), session->name.c_str(),
                static_cast<unsigned long long>(session->epoch));
  }

  void Explain(const std::string& text) {
    QueryRequest req = QueryRequest::GraphLog(text);
    req.options = opts_;
    req.options.observability.explain = true;
    req.options.observability.explain_only = true;
    auto r = active().Run(req);
    if (!r.ok()) {
      std::printf("error: %s\n", r.status().ToString().c_str());
      return;
    }
    std::printf("%s", r->explain.c_str());
  }

  void HandleTrace(const std::string& arg) {
    if (arg == "on") {
      opts_.observability.tracing = true;
      std::printf("tracing on\n");
      return;
    }
    if (arg == "off") {
      opts_.observability.tracing = false;
      std::printf("tracing off\n");
      return;
    }
    if (!arg.empty() && arg != "json") {
      std::printf("usage: .trace [on|off|json]\n");
      return;
    }
    if (last_trace_.spans.empty() && last_trace_.metrics.empty()) {
      std::printf("no trace recorded; .trace on, then run a query\n");
      return;
    }
    if (arg == "json") {
      std::printf("%s\n", last_trace_.ToJson().c_str());
    } else {
      std::printf("%s", last_trace_.ToText().c_str());
    }
  }

  void HandleProfile(const std::string& arg) {
    if (arg == "on") {
      opts_.observability.profile = true;
      std::printf("profiling on\n");
      return;
    }
    if (arg == "off") {
      opts_.observability.profile = false;
      std::printf("profiling off\n");
      return;
    }
    std::string mode = arg;
    if (mode == "show") mode = "";
    if (StartsWith(mode, "show ")) mode = std::string(Trim(mode.substr(5)));
    if (!mode.empty() && mode != "json") {
      std::printf("usage: .profile [on|off|show [json]]\n");
      return;
    }
    if (last_profile_.empty()) {
      std::printf("no profile recorded; .profile on, then run a query\n");
      return;
    }
    if (mode == "json") {
      // Logical profile only: deterministic across thread counts.
      std::printf("%s\n", last_profile_.ToJson(false).c_str());
    } else {
      std::printf("%s", last_profile_.ToText().c_str());
    }
  }

  void HandleMetrics(const std::string& arg) {
    obs::MetricsSnapshot snap = metrics_.Snapshot();
    if (arg == "json") {
      std::printf("%s\n", snap.ToJson().c_str());
    } else if (arg == "prom") {
      std::printf("%s", snap.ToPrometheus().c_str());
    } else if (arg.empty()) {
      if (snap.empty()) {
        std::printf("no metrics recorded yet; run a query first\n");
      } else {
        std::printf("%s", snap.ToText().c_str());
      }
    } else {
      std::printf("usage: .metrics [json|prom]\n");
    }
  }

  void HandleSlowlog(const std::string& arg) {
    if (arg == "json") {
      std::printf("%s\n", slowlog_.ToJson().c_str());
      return;
    }
    if (arg == "clear") {
      slowlog_.Clear();
      std::printf("slow-query log cleared\n");
      return;
    }
    if (arg == "threshold" || StartsWith(arg, "threshold ")) {
      std::string ms(arg == "threshold" ? "" : Trim(arg.substr(10)));
      if (!ms.empty()) {
        bool numeric = ms.size() <= 9;
        for (char c : ms) numeric = numeric && c >= '0' && c <= '9';
        if (!numeric) {
          std::printf("usage: .slowlog threshold [MS]\n");
          return;
        }
        opts_.observability.slow_query_threshold_ns =
            std::strtoull(ms.c_str(), nullptr, 10) * 1000000ull;
      }
      std::printf("slow-query threshold = %llu ms\n",
                  static_cast<unsigned long long>(
                      opts_.observability.slow_query_threshold_ns / 1000000));
      return;
    }
    size_t limit = slowlog_.capacity();
    if (!arg.empty()) {
      bool numeric = arg.size() <= 4;
      for (char c : arg) numeric = numeric && c >= '0' && c <= '9';
      if (!numeric) {
        std::printf(
            "usage: .slowlog [N | json | clear | threshold [MS]]\n");
        return;
      }
      limit = std::strtoul(arg.c_str(), nullptr, 10);
    }
    std::vector<obs::SlowQueryRecord> entries = slowlog_.Entries();
    if (entries.empty()) {
      std::printf("slow-query log empty (threshold %llu ms, %llu total "
                  "recorded)\n",
                  static_cast<unsigned long long>(
                      opts_.observability.slow_query_threshold_ns / 1000000),
                  static_cast<unsigned long long>(slowlog_.total_recorded()));
      return;
    }
    size_t start = entries.size() > limit ? entries.size() - limit : 0;
    for (size_t i = start; i < entries.size(); ++i) {
      const obs::SlowQueryRecord& r = entries[i];
      std::string text = r.text;
      std::replace(text.begin(), text.end(), '\n', ' ');
      if (text.size() > 60) text = text.substr(0, 57) + "...";
      std::printf("  #%llu [%s] %.3f ms%s: %s\n",
                  static_cast<unsigned long long>(r.sequence),
                  r.language.c_str(),
                  static_cast<double>(r.duration_ns) / 1e6,
                  r.error.empty() ? "" : " (failed)", text.c_str());
    }
    std::printf("%zu of %llu recorded shown; .slowlog json for detail\n",
                entries.size() - start,
                static_cast<unsigned long long>(slowlog_.total_recorded()));
  }

  /// Materializes the session limits into a per-query governor. The
  /// deadline countdown starts now (query start), the Ctrl-C token and
  /// count are re-armed, and the session fault injector rides along.
  gov::GovernorContext MakeGovernor() {
    g_sigint_count.store(0, std::memory_order_relaxed);
    cancel_.Reset();
    gov::GovernorContext g;
    g.token = cancel_;
    if (deadline_ms_ != 0) g.deadline = gov::Deadline::AfterMillis(deadline_ms_);
    g.budget = budget_;
    g.faults = &faults_;
    return g;
  }

  void HandleLimit(const std::string& arg) {
    if (arg.empty()) {
      std::printf(
          "  rows     = %llu\n  delta    = %llu\n  rounds   = %llu\n"
          "  bytes    = %llu\n  deadline = %llu ms\n  partial  = %s\n"
          "(0 = unlimited)\n",
          static_cast<unsigned long long>(budget_.max_result_rows),
          static_cast<unsigned long long>(budget_.max_delta_rows),
          static_cast<unsigned long long>(budget_.max_rounds),
          static_cast<unsigned long long>(budget_.max_bytes),
          static_cast<unsigned long long>(deadline_ms_),
          budget_.return_partial ? "on" : "off");
      return;
    }
    if (arg == "clear") {
      budget_ = gov::ResourceBudget();
      deadline_ms_ = 0;
      std::printf("limits cleared\n");
      return;
    }
    std::istringstream in(arg);
    std::string what, value;
    in >> what >> value;
    if (what == "partial") {
      if (value == "on" || value == "off") {
        budget_.return_partial = value == "on";
        std::printf("partial = %s\n", value.c_str());
        return;
      }
    } else {
      uint64_t n = 0;
      if (ParseU64(value, &n)) {
        if (what == "rows") {
          budget_.max_result_rows = n;
        } else if (what == "delta") {
          budget_.max_delta_rows = n;
        } else if (what == "rounds") {
          budget_.max_rounds = n;
        } else if (what == "bytes") {
          budget_.max_bytes = n;
        } else if (what == "deadline") {
          deadline_ms_ = n;
        } else {
          what.clear();
        }
        if (!what.empty()) {
          std::printf("%s = %llu\n", what.c_str(),
                      static_cast<unsigned long long>(n));
          return;
        }
      }
    }
    std::printf(
        "usage: .limit [rows|delta|rounds|bytes N | deadline MS |"
        " partial on|off | clear]\n");
  }

  void HandleFault(const std::string& arg) {
    if (arg.empty() || arg == "list") {
      auto armed = faults_.Armed();
      if (armed.empty()) {
        std::printf("no faults armed\n");
        return;
      }
      for (const auto& [site, spec] : armed) {
        if (spec.action == gov::FaultAction::kFail) {
          std::printf("  %s: fail at hit %llu%s (%llu hits so far)\n",
                      site.c_str(),
                      static_cast<unsigned long long>(spec.trigger_hit),
                      spec.repeat ? "+" : "",
                      static_cast<unsigned long long>(faults_.hits(site)));
        } else {
          std::printf("  %s: stall %llu ms at hit %llu%s (%llu hits so "
                      "far)\n",
                      site.c_str(),
                      static_cast<unsigned long long>(spec.stall_ms),
                      static_cast<unsigned long long>(spec.trigger_hit),
                      spec.repeat ? "+" : "",
                      static_cast<unsigned long long>(faults_.hits(site)));
        }
      }
      return;
    }
    if (arg == "clear") {
      faults_.Reset();
      std::printf("faults cleared\n");
      return;
    }
    std::istringstream in(arg);
    std::string site, action, extra1, extra2;
    in >> site >> action >> extra1 >> extra2;
    gov::FaultSpec spec;
    bool ok = false;
    if (action == "fail") {
      spec.action = gov::FaultAction::kFail;
      ok = extra1.empty() || ParseU64(extra1, &spec.trigger_hit);
      ok = ok && extra2.empty();
    } else if (action == "stall") {
      spec.action = gov::FaultAction::kStall;
      ok = ParseU64(extra1, &spec.stall_ms);
      ok = ok && (extra2.empty() || ParseU64(extra2, &spec.trigger_hit));
    }
    if (!ok || spec.trigger_hit == 0) {
      std::printf("usage: .fault [list | clear | SITE fail [N] |"
                  " SITE stall MS [N]]\n");
      return;
    }
    faults_.Arm(site, spec);
    std::printf("armed %s\n", site.c_str());
  }

  void HandleCache(const std::string& arg) {
    if (arg == "on") {
      opts_.cache.result_cache = &cache_;
      std::printf("result cache on (%zu MiB budget)\n",
                  cache_.max_bytes() >> 20);
      return;
    }
    if (arg == "off") {
      opts_.cache.result_cache = nullptr;
      std::printf("result cache off\n");
      return;
    }
    if (arg == "clear") {
      cache_.Clear();
      std::printf("result cache cleared\n");
      return;
    }
    if (arg.empty() || arg == "stats") {
      cache::ResultCacheStats s = cache_.Stats();
      std::printf(
          "result cache %s: %llu hits (%llu replayed), %llu misses, "
          "%llu inserts, %llu evictions\n"
          "  %llu entries, %llu bytes resident (budget %zu)\n",
          opts_.cache.result_cache != nullptr ? "on" : "off",
          static_cast<unsigned long long>(s.hits),
          static_cast<unsigned long long>(s.replays),
          static_cast<unsigned long long>(s.misses),
          static_cast<unsigned long long>(s.inserts),
          static_cast<unsigned long long>(s.evictions),
          static_cast<unsigned long long>(s.entries),
          static_cast<unsigned long long>(s.bytes), cache_.max_bytes());
      return;
    }
    std::printf("usage: .cache [on|off|stats|clear]\n");
  }

  void HandleColumnar(const std::string& arg) {
    if (arg.empty() || arg == "stats") {
      // The closure kernel's CSR snapshots land in the active session's
      // private cache, so sessions never share column-store state.
      columnar::CsrCache& cc = active().csr_cache();
      columnar::CsrCache::Stats s = cc.stats();
      std::printf(
          "CSR cache: %llu builds, %llu reuses, "
          "%llu invalidations, %zu snapshots resident (session %s)\n",
          static_cast<unsigned long long>(s.builds),
          static_cast<unsigned long long>(s.reuses),
          static_cast<unsigned long long>(s.invalidations), cc.size(),
          active_.c_str());
      return;
    }
    std::printf("usage: .columnar [stats]\n");
  }

  void HandleSession(const std::string& arg) {
    if (arg.empty() || arg == "list") {
      std::printf("server epoch %llu, %zu open sessions\n",
                  static_cast<unsigned long long>(server_->epoch()),
                  sessions_.size());
      for (const auto& [name, s] : sessions_) {
        const Session::Stats& st = s->stats();
        std::printf("  %c %s: epoch %llu, %llu queries, %llu writes, "
                    "%llu refreshes\n",
                    name == active_ ? '*' : ' ', name.c_str(),
                    static_cast<unsigned long long>(s->epoch()),
                    static_cast<unsigned long long>(st.queries),
                    static_cast<unsigned long long>(st.writes),
                    static_cast<unsigned long long>(st.refreshes));
      }
      return;
    }
    if (arg == "open" || StartsWith(arg, "open ")) {
      std::string name(arg == "open" ? "" : Trim(arg.substr(5)));
      if (!name.empty() && sessions_.count(name) != 0) {
        std::printf("session '%s' already open; .session switch %s\n",
                    name.c_str(), name.c_str());
        return;
      }
      auto s = server_->OpenSession({.name = name});
      if (!s.ok()) {
        std::printf("error: %s\n", s.status().ToString().c_str());
        return;
      }
      name = (*s)->name();
      sessions_[name] = std::move(*s);
      active_ = name;
      std::printf("session %s open at epoch %llu (now active)\n",
                  name.c_str(),
                  static_cast<unsigned long long>(active().epoch()));
      return;
    }
    if (StartsWith(arg, "switch ")) {
      std::string name(Trim(arg.substr(7)));
      if (sessions_.count(name) == 0) {
        std::printf("no session '%s'; .session list\n", name.c_str());
        return;
      }
      active_ = name;
      std::printf("session %s active (epoch %llu, server at %llu)\n",
                  name.c_str(),
                  static_cast<unsigned long long>(active().epoch()),
                  static_cast<unsigned long long>(server_->epoch()));
      return;
    }
    if (arg == "refresh") {
      Status st = active().Refresh();
      if (!st.ok()) {
        std::printf("error: %s\n", st.ToString().c_str());
        return;
      }
      std::printf("session %s at epoch %llu\n", active_.c_str(),
                  static_cast<unsigned long long>(active().epoch()));
      return;
    }
    std::printf("usage: .session [list | open [NAME] | switch NAME |"
                " refresh]\n");
  }

  ServerOptions MakeServerOptions() {
    return ServerOptions{.metrics = &metrics_, .faults = &faults_};
  }

  /// Replaces the server and re-homes the shell onto a fresh "main"
  /// session. Sessions pin snapshots owned by the old server, so every
  /// open session must be dropped before the old server is.
  bool SwapServer(std::unique_ptr<Server> next) {
    // Remote connections hold sessions pinned to the old server; the
    // listener must drain before the server it fronts is replaced.
    if (net_server_ != nullptr) {
      net_server_->Stop();
      net_server_.reset();
      std::printf("(stopped serving: the served server was replaced)\n");
    }
    auto main_session = next->OpenSession({.name = "main"});
    if (!main_session.ok()) {
      std::printf("error: %s\n", main_session.status().ToString().c_str());
      return false;
    }
    sessions_.clear();
    server_ = std::move(next);
    sessions_["main"] = std::move(*main_session);
    active_ = "main";
    return true;
  }

  void HandleWal(const std::string& arg) {
    if (arg.empty() || arg == "status") {
      if (!server_->durable()) {
        std::printf("wal off (in-memory server); .wal on DIR\n");
        return;
      }
      std::printf("wal on: %s/wal.log, %llu bytes, fsync %s, epoch %llu\n",
                  server_->dir().c_str(),
                  static_cast<unsigned long long>(
                      server_->wal()->tail_offset()),
                  std::string(durability::FsyncPolicyName(
                                  server_->wal()->fsync_policy()))
                      .c_str(),
                  static_cast<unsigned long long>(server_->epoch()));
      return;
    }
    if (arg == "on" || StartsWith(arg, "on ")) {
      if (server_->durable()) {
        std::printf("wal already on: %s\n", server_->dir().c_str());
        return;
      }
      std::string dir(arg == "on" ? "" : Trim(arg.substr(3)));
      if (dir.empty()) {
        std::printf("usage: .wal on DIR\n");
        return;
      }
      // Whatever the in-memory server holds migrates as one committed
      // batch, so the durable server starts from the shell's state
      // (merged with anything DIR already recovered).
      std::string dump = storage::DumpFacts(server_->database());
      auto durable = Server::Open(dir, MakeServerOptions());
      if (!durable.ok()) {
        std::printf("error: %s\n", durable.status().ToString().c_str());
        return;
      }
      if (!dump.empty()) {
        auto migrated = (*durable)->Apply(WriteBatch().Facts(dump));
        if (!migrated.ok()) {
          std::printf("error migrating facts: %s\n",
                      migrated.status().ToString().c_str());
          return;
        }
      }
      if (!SwapServer(std::move(*durable))) return;
      std::printf("wal on: %s at epoch %llu (sessions reset to 'main')\n",
                  server_->dir().c_str(),
                  static_cast<unsigned long long>(server_->epoch()));
      return;
    }
    if (arg == "off") {
      if (!server_->durable()) {
        std::printf("wal already off\n");
        return;
      }
      std::string dump = storage::DumpFacts(server_->database());
      auto mem = std::make_unique<Server>(MakeServerOptions());
      if (!dump.empty()) {
        auto migrated = mem->Apply(WriteBatch().Facts(dump));
        if (!migrated.ok()) {
          std::printf("error migrating facts: %s\n",
                      migrated.status().ToString().c_str());
          return;
        }
      }
      if (!SwapServer(std::move(mem))) return;
      std::printf(
          "wal off; state kept in memory only (sessions reset to 'main')\n");
      return;
    }
    std::printf("usage: .wal [on DIR | off | status]\n");
  }

  void HandleCheckpoint() {
    Status st = server_->Checkpoint();
    if (!st.ok()) {
      std::printf("error: %s\n", st.ToString().c_str());
      return;
    }
    std::printf("checkpoint written at epoch %llu; wal truncated to %llu "
                "bytes\n",
                static_cast<unsigned long long>(server_->epoch()),
                static_cast<unsigned long long>(
                    server_->wal()->tail_offset()));
  }

  /// Recovery drill: closes the durable server (its WAL flushes on the
  /// way down) and re-opens the same directory through the full
  /// checkpoint-load + WAL-replay path — exactly what a restart after a
  /// crash would do, observable live.
  void HandleRecover() {
    if (!server_->durable()) {
      std::printf("not a durable server; .wal on DIR first\n");
      return;
    }
    const std::string dir = server_->dir();
    if (net_server_ != nullptr) {
      net_server_->Stop();
      net_server_.reset();
      std::printf("(stopped serving: the served server was replaced)\n");
    }
    sessions_.clear();
    server_.reset();
    auto reopened = Server::Open(dir, MakeServerOptions());
    if (!reopened.ok()) {
      std::printf("error: %s\n", reopened.status().ToString().c_str());
      std::printf(
          "recovery failed; continuing on an empty in-memory server\n");
      reopened = std::make_unique<Server>(MakeServerOptions());
    }
    if (!SwapServer(std::move(*reopened))) std::exit(1);
    std::printf("recovered %s at epoch %llu (sessions reset to 'main')\n",
                dir.c_str(),
                static_cast<unsigned long long>(server_->epoch()));
  }

  void DefineView(const std::string& name, const std::string& text) {
    auto def = MakeViewDefinition(name, text, &db(), opts_);
    if (!def.ok()) {
      std::printf("error: %s\n", def.status().ToString().c_str());
      return;
    }
    Status st = views_.Define(std::move(*def), &db(), &metrics_);
    if (!st.ok()) {
      std::printf("error: %s\n", st.ToString().c_str());
      return;
    }
    cache::ViewStats vs = views_.StatsOf(name, &db());
    std::printf("view %s materialized (%llu rows)\n", name.c_str(),
                static_cast<unsigned long long>(vs.result_rows));
  }

  void HandleView(const std::string& arg) {
    if (arg.empty() || arg == "list") {
      if (views_.size() == 0) {
        std::printf("no views defined; .view define NAME QUERY\n");
        return;
      }
      for (const std::string& name : views_.Names()) {
        cache::ViewStats vs = views_.StatsOf(name, &db());
        std::printf(
            "  %s: %llu rows (%s), %llu full + %llu incremental "
            "refreshes, served %llu\n",
            name.c_str(), static_cast<unsigned long long>(vs.result_rows),
            vs.fresh ? "fresh" : "stale",
            static_cast<unsigned long long>(vs.full_refreshes),
            static_cast<unsigned long long>(vs.incremental_refreshes),
            static_cast<unsigned long long>(vs.served));
      }
      return;
    }
    if (StartsWith(arg, "drop ")) {
      std::string name(Trim(arg.substr(5)));
      if (views_.Drop(name)) {
        std::printf("view %s dropped\n", name.c_str());
      } else {
        std::printf("no view '%s'\n", name.c_str());
      }
      return;
    }
    if (arg == "refresh" || StartsWith(arg, "refresh ")) {
      std::string name(arg == "refresh" ? "" : Trim(arg.substr(8)));
      Status st = name.empty() ? views_.RefreshAll(&db(), &metrics_)
                               : views_.Refresh(name, &db(), &metrics_);
      if (!st.ok()) {
        std::printf("error: %s\n", st.ToString().c_str());
      } else {
        std::printf("refreshed\n");
      }
      return;
    }
    std::printf(
        "usage: .view [list | define NAME QUERY | refresh [NAME] |"
        " drop NAME]\n");
  }

  /// Keeps every defined view fresh after base-fact changes; a refresh
  /// failure (e.g. a fact made a view's program unsafe) is reported but
  /// does not undo the insertion.
  void RefreshViews() {
    if (views_.size() == 0) return;
    Status st = views_.RefreshAll(&db(), &metrics_);
    if (!st.ok()) {
      std::printf("view refresh error: %s\n", st.ToString().c_str());
    }
  }

  void HandleResource() {
    db().ExportResourceMetrics(&metrics_);
    size_t total_rows = 0;
    for (const auto& [name, rel] : db().relations()) {
      std::printf("  %s/%zu: %zu rows, %zu bytes\n",
                  db().symbols().name(name).c_str(), rel.arity(), rel.size(),
                  rel.MemoryBytes());
      total_rows += rel.size();
    }
    std::printf("total: %zu relations, %zu rows, %zu bytes\n",
                db().relations().size(), total_rows, db().TotalBytes());
  }

  void DotQuery(const std::string& text) {
    auto q = gl::ParseGraphicalQuery(text, &db().symbols());
    if (!q.ok()) {
      std::printf("error: %s\n", q.status().ToString().c_str());
      return;
    }
    std::printf("%s", RenderGraphicalQuery(*q, db().symbols()).c_str());
  }

  void RunRpq(const std::string& args) {
    // .rpq [SRC [DST]] EXPR — heuristics: tokens before the expression
    // are endpoint names when the remaining text still parses.
    std::istringstream in(args);
    std::string first, second;
    in >> first;
    std::string rest;
    std::getline(in, rest);
    rpq::RpqOptions opts;
    std::string expr = args;
    // Try: SRC DST EXPR.
    {
      std::istringstream in2(rest);
      in2 >> second;
      std::string rest2;
      std::getline(in2, rest2);
      SymbolTable probe;
      if (!second.empty() &&
          gl::ParsePathExpr(rest2, &probe).ok() &&
          db().symbols().Lookup(first) != kNoSymbol &&
          db().symbols().Lookup(second) != kNoSymbol) {
        opts.source = Value::Sym(db().Intern(first));
        opts.target = Value::Sym(db().Intern(second));
        expr = rest2;
      }
    }
    if (!opts.source.has_value()) {
      SymbolTable probe;
      if (gl::ParsePathExpr(rest, &probe).ok() &&
          db().symbols().Lookup(first) != kNoSymbol) {
        opts.source = Value::Sym(db().Intern(first));
        expr = rest;
      }
    }
    graph::DataGraph g = graph::DataGraph::FromDatabase(db());
    obs::Tracer tracer;
    if (opts_.observability.tracing) opts.tracer = &tracer;
    opts.metrics = &metrics_;
    gov::GovernorContext governor = MakeGovernor();
    opts.governor = &governor;
    rpq::RpqStats rpq_stats;
    auto r = rpq::EvalRpqText(g, expr, &db().symbols(), opts, &rpq_stats);
    if (opts_.observability.tracing) last_trace_ = tracer.TakeReport();
    if (!r.ok()) {
      std::printf("error: %s\n", r.status().ToString().c_str());
      return;
    }
    if (rpq_stats.truncated) std::printf("truncated: resource budget\n");
    for (const auto& t : r->rows()) {
      std::printf("  (%s, %s)\n", t[0].ToString(db().symbols()).c_str(),
                  t[1].ToString(db().symbols()).c_str());
    }
    std::printf("%zu pairs\n", r->size());
  }

  void Report(const Status& s, size_t n, const char* what) {
    if (!s.ok()) {
      std::printf("error: %s\n", s.ToString().c_str());
    } else {
      std::printf("%zu %s\n", n, what);
    }
  }

  std::string pending_;
  bool pending_dotquery_ = false;
  bool pending_explain_ = false;
  // Non-empty while a multiline `.view define NAME` block accumulates.
  std::string pending_view_name_;
  bool done_ = false;
  // Session-wide options for query/.datalog evaluation: worker lanes
  // (.threads) and tracing (.trace on|off) both live here.
  QueryOptions opts_;
  // Trace of the most recent traced evaluation (.trace / .trace json).
  obs::TraceReport last_trace_;
  // Profile of the most recent profiled evaluation (.profile show).
  obs::QueryProfile last_profile_;
  // Session-wide metrics registry (.metrics) and slow-query ring
  // (.slowlog); opts_ points at both for every evaluation.
  obs::MetricsRegistry metrics_;
  obs::SlowQueryLog slowlog_;
  // Provenance of the most recent query/.datalog evaluation (.why).
  eval::ProvenanceStore last_store_;
  datalog::Program last_program_;
  // Governor state: the Ctrl-C cancellation token (shared with the
  // SIGINT handler), session-wide limits (.limit) applied to every
  // query via a fresh per-query GovernorContext, and the fault
  // injector (.fault).
  gov::CancellationToken cancel_;
  gov::ResourceBudget budget_;
  uint64_t deadline_ms_ = 0;
  gov::FaultInjector faults_;
  // Result cache (.cache on arms it into opts_) and materialized views
  // (.view; always consulted — serving is fingerprint-gated anyway).
  cache::ResultCache cache_;
  cache::ViewCatalog views_;
  // The in-process server: every shell "session" is a graphlog::Session
  // pinned to an epoch snapshot of the server's database. Writes (facts,
  // .load) commit through Session::Apply — atomic batches that publish a
  // new epoch and fast-forward the writing session — and `.session
  // open/list/switch` multiplexes independent snapshots. Held by pointer
  // so `.wal on|off` and `.recover` can swap the whole server (sessions
  // are re-homed by SwapServer). Declared after metrics_/faults_: the
  // ServerOptions initializer captures them.
  std::unique_ptr<Server> server_;
  std::map<std::string, std::unique_ptr<Session>> sessions_;
  std::string active_;
  // Network front end: `.serve` exposes server_ over TCP (stopped before
  // any server swap — remote sessions pin its snapshots), and `.connect`
  // attaches the shell to a remote graphlogd, routing the data commands
  // through this client until `.disconnect`.
  std::unique_ptr<net::NetServer> net_server_;
  std::unique_ptr<net::Client> remote_;
  std::string remote_addr_;
};

}  // namespace

int main() {
  std::printf("GraphLog shell — .help for commands\n");
  Shell shell;
  return shell.Run();
}
