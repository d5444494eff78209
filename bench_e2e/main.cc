// bench_e2e: the end-to-end graphlogd benchmark.
//
//   bench_e2e run --workload closure_mix|point_lookups|ingest_churn
//                 --seed N --seconds S --trace 0|1 --work-dir DIR
//                 [--rev REV]
//
// A run starts the server stack graphlogd runs (a Server behind
// net::NetServer, default options: no result cache, columnar off) in a
// child process of its own (`bench_e2e serve`), loads the seed facts over
// the wire, drives it with net::Clients from this process for S seconds,
// checks every answer against the reference route, and prints one JSON
// object as its last line of output. With --trace 1 it also replays a
// fixed sample of the workload's requests in process, timing each call
// into a layer's public function (trace_replay.h), and prints the
// per-layer metrics instead of the end-to-end ones. NOTES.md explains the
// workloads and every metric.

#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_e2e/e2e.h"
#include "bench_e2e/trace_replay.h"
#include "durability/wal.h"
#include "graphlog/api.h"
#include "net/client.h"
#include "net/net_server.h"
#include "obs/metrics.h"
#include "storage/io.h"
#include "testing/crash_sweep.h"

extern char** environ;

namespace graphlog::e2e {
namespace {

// ---------------------------------------------------------------------------
// Fixed benchmark parameters.

/// Set-up is repeated this many times per run; setup_s is the median.
constexpr int kSetupReps = 9;
/// The timed loop runs as this many equal windows ("rounds"). The
/// read-only workloads' probe ops run between rounds, so they sample the
/// machine at several points of the run rather than once at its end.
/// Every reported figure pools the whole run: a p50 is over every sample,
/// and ops_per_s is the ops of all rounds over their time.
constexpr int kRounds = 10;
/// point_lookups offered load (requests/s, all clients together): about
/// half the closed-loop capacity of 2 clients on one CPU (3400-4600
/// ops/s, the workload's ops_per_s) measured on a 4-core x86-64 virtual
/// machine (NOTES.md).
constexpr double kPointLookupRate = 1800;
/// point_lookups: the last this share of each round is a closed loop
/// whose completed ops give ops_per_s. The open loop's throughput is its
/// offered rate whatever the server does, so it cannot be the metric.
constexpr double kCapacityShare = 0.25;
/// ingest_churn: the server checkpoints after every this many commits.
constexpr uint64_t kCheckpointEvery = 50;
/// Read-only workloads make this many one-row commits to `probe` (a
/// relation no query reads) and session opens per run, outside the timed
/// loop, split evenly after each round.
constexpr int kProbeCommits = 300;
constexpr int kProbeOpens = 100;
/// closure_mix: a client reconnects its session after this many queries
/// (5 template cycles). Each closure query leaves an auxiliary relation
/// behind in its session, so a session kept for the whole run would make
/// memory, and the answer-check replay, grow with the run's speed.
constexpr int kSegmentQueries = 35;
/// ingest_churn checks this many seed-drawn churn answers.
constexpr int kChurnChecks = 8;
/// The traced run fails when the query time no layer accounts for
/// exceeds this fraction of the query latency (in absolute value).
constexpr double kMaxUnaccountedFrac = 0.25;

/// Traced run: ops of each kind replayed first to warm the heaps, and
/// left out of every figure.
constexpr int kTraceWarmup = 2;

/// Traced-run sample sizes: query, commit and session-open ops.
struct TraceSample {
  int queries;
  int commits;
  int opens;
};
TraceSample TraceSampleFor(Workload w) {
  switch (w) {
    case Workload::kClosureMix:
      return {12, 20, 20};
    case Workload::kPointLookups:
      return {300, 20, 20};
    case Workload::kIngestChurn:
      return {20, 40, 20};
  }
  return {1, 1, 1};
}

/// Tail percentile per workload and op class: the highest of
/// {50, 75, 90, 95, 99} that keeps at least 10 samples beyond it at the
/// sample counts a 20 s run reaches (NOTES.md lists them): closure_mix
/// makes 420-1016 queries, point_lookups about 27000, ingest_churn
/// 85-190 churn queries and 500-1100 commits, and the read-only probe
/// phases kProbeCommits. TailOf() walks down the list when a run has
/// fewer. Tails are reported unbounded, with the per-layer metrics.
double TailPercentile(Workload w, const std::string& op) {
  switch (w) {
    case Workload::kClosureMix:
      return 95;
    case Workload::kPointLookups:
      return op == "query" ? 99 : 95;
    case Workload::kIngestChurn:
      return op == "query" ? 75 : 95;
  }
  return 50;
}

// ---------------------------------------------------------------------------
// CPU placement. On several CPUs a request of well under a millisecond
// mostly waits for the peer's CPU to wake, and on a virtual machine that
// wait follows the host's load (NOTES.md, "One CPU"). So point_lookups
// runs entirely on one CPU, and the read-only workloads' probe ops run
// with the client and every server thread on one CPU.

cpu_set_t AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) CPU_SET(0, &set);
  return set;
}

/// The last CPU of `allowed`, alone.
cpu_set_t LastCpu(const cpu_set_t& allowed) {
  int cpu = 0;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpu = c;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return set;
}

/// Moves this thread and, if `pid` > 0, every thread of process `pid` to
/// `cpus`. Threads started later inherit the mask of their creator.
void SetAffinity(pid_t pid, const cpu_set_t& cpus) {
  sched_setaffinity(0, sizeof cpus, &cpus);
  if (pid <= 0) return;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(
           "/proc/" + std::to_string(pid) + "/task", ec)) {
    sched_setaffinity(std::stoi(e.path().filename().string()), sizeof cpus,
                      &cpus);
  }
}

/// This thread and every thread of the server process `pid` run on one
/// CPU while the object lives.
class OneCpu {
 public:
  explicit OneCpu(pid_t pid) : pid_(pid), saved_(AllowedCpus()) {
    SetAffinity(pid_, LastCpu(saved_));
  }
  ~OneCpu() { SetAffinity(pid_, saved_); }
  OneCpu(const OneCpu&) = delete;
  OneCpu& operator=(const OneCpu&) = delete;

 private:
  pid_t pid_;
  cpu_set_t saved_;
};

[[noreturn]] void Die(const std::string& what, const Status& s) {
  std::fprintf(stderr, "bench_e2e: %s: %s\n", what.c_str(),
               s.ToString().c_str());
  std::exit(1);
}

template <typename T>
T Must(Result<T> r, const std::string& what) {
  if (!r.ok()) Die(what, r.status());
  return std::move(*r);
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

// ---------------------------------------------------------------------------
// Sample statistics.

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Median(const std::vector<double>& v) {
  if (v.empty()) return 0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const size_t n = s.size();
  return n % 2 == 1 ? s[n / 2] : (s[n / 2 - 1] + s[n / 2]) / 2;
}

double MedianNs(const std::vector<int64_t>& v, double scale) {
  std::vector<double> d;
  for (int64_t x : v) d.push_back(static_cast<double>(x) / scale);
  return Median(d);
}

struct Tail {
  double percentile = 0;
  double value = 0;
  size_t beyond = 0;
};

Tail TailOf(const std::vector<double>& v, double want) {
  const double ladder[] = {99, 95, 90, 75, 50};
  Tail t;
  for (double p : ladder) {
    if (p > want) continue;
    const size_t beyond =
        v.size() - std::min(v.size(), static_cast<size_t>(std::ceil(
                                          p / 100.0 * v.size())));
    t = {p, Percentile(v, p), beyond};
    if (beyond >= 10) break;
  }
  return t;
}

// ---------------------------------------------------------------------------
// The server process.

/// `bench_e2e serve [--dir DIR]`: the graphlogd stack, in memory or, with
/// a directory, durable and checkpointing every kCheckpointEvery commits.
/// Prints "port N" once listening; on stdin EOF it stops and prints its
/// final state.
int Serve(const std::string& dir) {
  obs::MetricsRegistry metrics;
  ServerOptions sopts;
  sopts.metrics = &metrics;
  std::unique_ptr<Server> server;
  if (!dir.empty()) {
    DurabilityOptions dur;
    dur.fsync = durability::FsyncPolicy::kGroupCommit;
    server = Must(Server::Open(dir, sopts, dur), "open durable server");
  } else {
    server = std::make_unique<Server>(sopts);
  }
  net::NetServerOptions nopts;
  nopts.metrics = &metrics;
  nopts.max_connections = 64;
  std::unique_ptr<net::NetServer> net =
      Must(net::NetServer::Start(server.get(), nopts), "listen");

  // The checkpoint trigger is a commit count; polling only bounds how
  // soon after the count is reached the checkpoint starts.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> checkpoints{0};
  std::thread checkpointer;
  if (server->durable()) {
    checkpointer = std::thread([&] {
      uint64_t next = 0;
      while (!stop.load()) {
        const uint64_t e = server->epoch();
        if (next == 0) next = e + kCheckpointEvery;
        if (e >= next) {
          const Status st = server->Checkpoint();
          if (!st.ok()) Die("checkpoint", st);
          checkpoints.fetch_add(1);
          next += kCheckpointEvery;
        } else {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      }
    });
  }
  std::printf("port %u\n", static_cast<unsigned>(net->port()));
  std::fflush(stdout);

  char buf[256];
  while (read(0, buf, sizeof buf) > 0) {
  }
  stop.store(true);
  if (checkpointer.joinable()) checkpointer.join();
  net->Stop();
  uint64_t fp = 0;
  if (server->durable()) {
    fp = Fnv1a(testing::DatabaseFingerprint(server->database()));
  }
  std::printf("done fingerprint %016llx checkpoints %llu\n",
              static_cast<unsigned long long>(fp),
              static_cast<unsigned long long>(checkpoints.load()));
  std::fflush(stdout);
  return 0;
}

/// A running `bench_e2e serve` child.
class ServerProcess {
 public:
  /// `dir` empty: an in-memory server.
  static std::unique_ptr<ServerProcess> Spawn(const std::string& dir) {
    int in_pipe[2], out_pipe[2];
    if (pipe(in_pipe) != 0 || pipe(out_pipe) != 0) {
      Die("pipe", Status::Internal(std::strerror(errno)));
    }
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, in_pipe[0], 0);
    posix_spawn_file_actions_adddup2(&fa, out_pipe[1], 1);
    posix_spawn_file_actions_addclose(&fa, in_pipe[1]);
    posix_spawn_file_actions_addclose(&fa, out_pipe[0]);
    const std::string exe = std::filesystem::read_symlink("/proc/self/exe");
    std::vector<std::string> argv_s = {exe, "serve"};
    if (!dir.empty()) argv_s.insert(argv_s.end(), {"--dir", dir});
    std::vector<char*> argv;
    for (std::string& s : argv_s) argv.push_back(s.data());
    argv.push_back(nullptr);
    auto p = std::unique_ptr<ServerProcess>(new ServerProcess);
    const int rc = posix_spawn(&p->pid_, exe.c_str(), &fa, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    close(in_pipe[0]);
    close(out_pipe[1]);
    if (rc != 0) Die("spawn server", Status::Internal(std::strerror(rc)));
    p->to_child_ = in_pipe[1];
    p->from_child_ = fdopen(out_pipe[0], "r");
    unsigned port = 0;
    if (std::fscanf(p->from_child_, "port %u", &port) != 1) {
      Die("server start", Status::Internal("no port line"));
    }
    p->port_ = static_cast<uint16_t>(port);
    return p;
  }

  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  uint16_t port() const { return port_; }
  pid_t pid() const { return pid_; }

  /// Stops the child and waits for it. Idempotent.
  void Stop() {
    if (pid_ <= 0) return;
    close(to_child_);
    unsigned long long fp = 0, ckpts = 0;
    if (std::fscanf(from_child_, " done fingerprint %llx checkpoints %llu",
                    &fp, &ckpts) == 2) {
      fingerprint_ = fp;
      checkpoints_ = ckpts;
    }
    std::fclose(from_child_);
    int status = 0;
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    wait4(pid_, &status, 0, &ru);
    pid_ = -1;
    exited_ok_ = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    exit_status_ = status;
    peak_rss_kb_ = static_cast<uint64_t>(ru.ru_maxrss);
  }

  uint64_t fingerprint() const { return fingerprint_; }
  uint64_t checkpoints() const { return checkpoints_; }
  uint64_t peak_rss_kb() const { return peak_rss_kb_; }
  bool exited_ok() const { return exited_ok_; }
  int exit_status() const { return exit_status_; }

 private:
  ServerProcess() = default;
  pid_t pid_ = -1;
  int to_child_ = -1;
  FILE* from_child_ = nullptr;
  uint16_t port_ = 0;
  uint64_t fingerprint_ = 0;
  uint64_t checkpoints_ = 0;
  uint64_t peak_rss_kb_ = 0;
  bool exited_ok_ = false;
  int exit_status_ = 0;
};

// ---------------------------------------------------------------------------
// Recorded ops, for the correctness gate.

struct QueryRecord {
  QueryOp op;
  AnswerDigest digest;
  uint64_t epoch = 0;  ///< 0: the op failed
  double ms = 0;       ///< client latency
};

struct CommitRecord {
  BatchOp batch;
  uint64_t epoch = 0;
};

/// Everything one run measured and recorded.
struct RunState {
  Workload w;
  uint64_t seed = 0;
  int clients = 2;
  std::string work_dir;
  std::string seed_facts;
  uint64_t seed_edges = 0;

  std::vector<double> setup_s;
  double loop_s = 0;
  uint64_t loop_ops = 0;
  std::vector<double> query_ms, commit_ms, open_ms, gen_lag_ms;
  uint64_t attempted = 0;
  std::atomic<uint64_t> failed{0};
  std::vector<std::string> failures;
  std::mutex mu;  ///< guards the vectors above while clients run

  /// ops_per_s is timed_ops over timed_s: the whole loop, or on
  /// point_lookups its closed-loop phases. The report lists each round's.
  uint64_t timed_ops = 0;
  double timed_s = 0;
  std::vector<double> round_ops_per_s;
  std::vector<QueryStream> streams;  ///< per client, across rounds
  std::unique_ptr<BatchStream> batches;  ///< ingest_churn writer
  std::unique_ptr<net::Client> prober;   ///< read-only probe commits
  uint64_t probes = 0;

  /// Query ops of every loop session, in order; sessions[c] of client c
  /// until closure_mix reconnects it, then a new entry.
  std::vector<std::vector<QueryRecord>> sessions;
  std::vector<QueryRecord> churn;                  ///< ingest_churn
  std::vector<CommitRecord> commits;               ///< ingest_churn
  uint64_t session_relations = 0;
  uint64_t session_rows = 0;

  std::vector<size_t> session_of;  ///< client -> its entry in sessions

  void Fail(const std::string& what) {
    failed.fetch_add(1);
    std::lock_guard<std::mutex> lock(mu);
    if (failures.size() < 20) failures.push_back(what);
  }

  /// Relations and rows one loop session holds (ListRelations); the
  /// reported figures are the largest seen.
  void CountSession(net::Client* client) {
    std::vector<net::WireRelationInfo> rels =
        Must(client->ListRelations(), "list relations");
    uint64_t rows = 0;
    for (const net::WireRelationInfo& r : rels) rows += r.rows;
    std::lock_guard<std::mutex> lock(mu);
    session_relations = std::max<uint64_t>(session_relations, rels.size());
    session_rows = std::max(session_rows, rows);
  }

  size_t SessionOps(int c) {
    std::lock_guard<std::mutex> lock(mu);
    return sessions[session_of[c]].size();
  }

  /// closure_mix: after kSegmentQueries ops, moves client c to a fresh
  /// connection and session. Dropping the old connection lets the server
  /// free the old session on its handler thread, as it does for any
  /// client that disconnects. `recs` holds the ops not handed over yet.
  void Retire(int c, std::unique_ptr<net::Client>* client, uint16_t port,
              std::vector<QueryRecord>* recs) {
    CountSession(client->get());
    std::unique_ptr<net::Client> next =
        Must(net::Client::Connect("127.0.0.1", port), "reconnect");
    Must(next->OpenSession(), "reopen session");
    *client = std::move(next);
    std::lock_guard<std::mutex> lock(mu);
    std::vector<QueryRecord>& seg = sessions[session_of[c]];
    seg.insert(seg.end(), recs->begin(), recs->end());
    recs->clear();
    session_of[c] = sessions.size();
    sessions.emplace_back();
  }
};

std::unique_ptr<net::Client> Connect(uint16_t port) {
  return Must(net::Client::Connect("127.0.0.1", port), "connect");
}

/// Runs a query op and fetches its answer; false on any error.
bool RunQuery(net::Client* c, const QueryOp& op, RunState* st,
              QueryRecord* rec) {
  Result<net::WireQueryResult> r = c->Run(op.query);
  if (!r.ok()) {
    st->Fail(op.template_name + ": " + r.status().ToString());
    return false;
  }
  Result<std::string> rows = c->FetchRelation(op.answer);
  if (!rows.ok()) {
    st->Fail(op.template_name + " fetch: " + rows.status().ToString());
    return false;
  }
  rec->op = op;
  rec->epoch = r->epoch;
  rec->digest = DigestFacts(*rows);
  return true;
}

// ---------------------------------------------------------------------------
// Set-up: start the server, load the seed facts over the wire, connect the
// clients and open their sessions.

struct Stack {
  std::unique_ptr<ServerProcess> server;
  std::string dir;
  std::vector<std::unique_ptr<net::Client>> clients;
};

Stack SetUp(RunState* st, int rep) {
  Stack s;
  if (st->w == Workload::kIngestChurn) {
    s.dir = st->work_dir + "/wal-" + std::to_string(rep);
    std::filesystem::remove_all(s.dir);
  }
  s.server = ServerProcess::Spawn(s.dir);
  {
    std::unique_ptr<net::Client> loader = Connect(s.server->port());
    Must(loader->OpenSession(), "loader session");
    Must(loader->Apply(WriteBatch().Facts(st->seed_facts)), "seed load");
  }
  for (int c = 0; c < st->clients; ++c) {
    s.clients.push_back(Connect(s.server->port()));
    Must(s.clients.back()->OpenSession(), "open session");
  }
  return s;
}

// ---------------------------------------------------------------------------
// The timed loops.

/// Closed loop: each client sends its next query once the last answer is
/// fetched. With `record` false (point_lookups' capacity phase) the
/// latencies and think times stay out of the run's samples; the answers
/// are kept for the check either way. Returns the ops completed.
uint64_t ClosedLoopQueries(RunState* st, Stack* s, int64_t deadline,
                           bool record) {
  std::atomic<uint64_t> done{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < st->clients; ++c) {
    threads.emplace_back([st, s, c, deadline, record, &done] {
      QueryStream& stream = st->streams[c];
      std::vector<double> lat, lag;
      std::vector<QueryRecord> recs;
      int64_t prev_end = NowNs();
      while (NowNs() < deadline) {
        if (st->w == Workload::kClosureMix &&
            st->SessionOps(c) + recs.size() >= kSegmentQueries) {
          st->Retire(c, &s->clients[c], s->server->port(), &recs);
        }
        const QueryOp op = stream.Next();
        const int64_t t0 = NowNs();
        lag.push_back(Ms(t0 - prev_end));
        QueryRecord rec;
        const bool ok = RunQuery(s->clients[c].get(), op, st, &rec);
        prev_end = NowNs();
        lat.push_back(Ms(prev_end - t0));
        if (!ok) rec = {op, {}, 0, 0};  // kept: the replay needs every op
        rec.ms = lat.back();
        recs.push_back(std::move(rec));
      }
      done.fetch_add(lat.size());
      std::lock_guard<std::mutex> lock(st->mu);
      std::vector<QueryRecord>& seg = st->sessions[st->session_of[c]];
      seg.insert(seg.end(), recs.begin(), recs.end());
      if (record) {
        st->query_ms.insert(st->query_ms.end(), lat.begin(), lat.end());
        st->gen_lag_ms.insert(st->gen_lag_ms.end(), lag.begin(), lag.end());
      }
      st->loop_ops += lat.size();
    });
  }
  for (std::thread& t : threads) t.join();
  return done.load();
}

/// Open loop at kPointLookupRate: client c sends its i-th request at
/// start + (i * clients + c) / rate, whatever happened before; latency
/// is measured from that due time.
void OpenLoopQueries(RunState* st, Stack* s, int64_t start, int64_t deadline) {
  const double interval_ns = 1e9 / kPointLookupRate;
  std::vector<std::thread> threads;
  for (int c = 0; c < st->clients; ++c) {
    threads.emplace_back([st, s, c, start, deadline, interval_ns] {
      QueryStream& stream = st->streams[c];
      std::vector<double> lat, lag;
      std::vector<QueryRecord>& recs = st->sessions[st->session_of[c]];
      for (uint64_t i = 0;; ++i) {
        const int64_t due =
            start + static_cast<int64_t>(
                        static_cast<double>(i * st->clients + c) * interval_ns);
        if (due >= deadline) break;
        const QueryOp op = stream.Next();
        int64_t now = NowNs();
        if (now < due) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
          now = NowNs();
        }
        lag.push_back(Ms(now - due));
        QueryRecord rec;
        const bool ok = RunQuery(s->clients[c].get(), op, st, &rec);
        lat.push_back(Ms(NowNs() - due));
        if (!ok) rec = {op, {}, 0, 0};
        rec.ms = lat.back();
        recs.push_back(std::move(rec));
      }
      std::lock_guard<std::mutex> lock(st->mu);
      st->query_ms.insert(st->query_ms.end(), lat.begin(), lat.end());
      st->gen_lag_ms.insert(st->gen_lag_ms.end(), lag.begin(), lag.end());
      st->loop_ops += lat.size();
    });
  }
  for (std::thread& t : threads) t.join();
}

/// ingest_churn: client 0 commits edge batches; a second client loops
/// connect, open session, bound-source closure, fetch, close.
void IngestChurn(RunState* st, Stack* s, int64_t deadline) {
  std::thread writer([st, s, deadline] {
    BatchStream& batches = *st->batches;
    std::vector<double> lat, lag;
    int64_t prev_end = NowNs();
    while (NowNs() < deadline) {
      BatchOp b = batches.Next();
      const int64_t t0 = NowNs();
      lag.push_back(Ms(t0 - prev_end));
      Result<net::WireApplyResult> r =
          s->clients[0]->Apply(WriteBatch().Facts(b.facts));
      prev_end = NowNs();
      lat.push_back(Ms(prev_end - t0));
      if (!r.ok()) {
        st->Fail("commit: " + r.status().ToString());
        continue;
      }
      if (r->facts != b.rows) st->Fail("commit inserted a wrong fact count");
      st->commits.push_back({std::move(b), r->epoch});
    }
    std::lock_guard<std::mutex> lock(st->mu);
    st->commit_ms.insert(st->commit_ms.end(), lat.begin(), lat.end());
    st->gen_lag_ms.insert(st->gen_lag_ms.end(), lag.begin(), lag.end());
    st->loop_ops += lat.size();
  });
  std::thread churn([st, s, deadline] {
    QueryStream& stream = st->streams[1];
    std::vector<double> qlat, olat, lag;
    int64_t prev_end = NowNs();
    while (NowNs() < deadline) {
      const QueryOp op = stream.Next();
      const int64_t t0 = NowNs();
      lag.push_back(Ms(t0 - prev_end));
      Result<std::unique_ptr<net::Client>> c =
          net::Client::Connect("127.0.0.1", s->server->port());
      if (!c.ok()) {
        st->Fail("connect: " + c.status().ToString());
        prev_end = NowNs();
        continue;
      }
      Result<net::WireSessionInfo> info = (*c)->OpenSession();
      const int64_t t1 = NowNs();
      olat.push_back(Ms(t1 - t0));
      if (!info.ok()) {
        st->Fail("open session: " + info.status().ToString());
        prev_end = NowNs();
        continue;
      }
      QueryRecord rec;
      const bool ok = RunQuery(c->get(), op, st, &rec);
      const int64_t t2 = NowNs();
      qlat.push_back(Ms(t2 - t1));
      rec.ms = qlat.back();
      if (ok) st->churn.push_back(std::move(rec));
      const Status closed = (*c)->CloseSession();
      if (!closed.ok()) st->Fail("close session: " + closed.ToString());
      c->reset();
      prev_end = NowNs();
    }
    std::lock_guard<std::mutex> lock(st->mu);
    st->query_ms.insert(st->query_ms.end(), qlat.begin(), qlat.end());
    st->open_ms.insert(st->open_ms.end(), olat.begin(), olat.end());
    st->gen_lag_ms.insert(st->gen_lag_ms.end(), lag.begin(), lag.end());
    st->loop_ops += olat.size();
  });
  writer.join();
  churn.join();
}

/// Read-only workloads: one-row `probe` commits and session opens between
/// rounds, so every workload reports every end-to-end metric.
void Probes(RunState* st, Stack* s, int commits, int opens) {
  const OneCpu one_cpu(s->server->pid());
  if (st->prober == nullptr) {
    st->prober = Connect(s->server->port());
    Must(st->prober->OpenSession(), "probe session");
  }
  for (int i = 0; i < commits; ++i) {
    const BatchOp b = ProbeBatch(st->probes++);
    const int64_t t0 = NowNs();
    Result<net::WireApplyResult> r =
        st->prober->Apply(WriteBatch().Facts(b.facts));
    st->commit_ms.push_back(Ms(NowNs() - t0));
    if (!r.ok()) st->Fail("probe commit: " + r.status().ToString());
  }
  // Each session is closed before the connection drops, so the server
  // frees it before the next op rather than on its handler thread while
  // the next round runs.
  for (int i = 0; i < opens; ++i) {
    const int64_t t0 = NowNs();
    std::unique_ptr<net::Client> c = Connect(s->server->port());
    Result<net::WireSessionInfo> info = c->OpenSession();
    st->open_ms.push_back(Ms(NowNs() - t0));
    if (!info.ok()) st->Fail("probe open: " + info.status().ToString());
    const Status closed = c->CloseSession();
    if (!closed.ok()) st->Fail("probe close: " + closed.ToString());
  }
  st->attempted += static_cast<uint64_t>(commits + opens);
}

/// Relations and rows the workload's loop sessions hold at the end.
void CountSessionState(RunState* st, Stack* s) {
  const int n = st->w == Workload::kIngestChurn ? 1 : st->clients;
  for (int c = 0; c < n; ++c) st->CountSession(s->clients[c].get());
}

// ---------------------------------------------------------------------------
// Correctness gate: the reference route is lambda plus single-threaded
// semi-naive evaluation (graphlog::Run with default options) on a fresh
// Database, replaying each session's query sequence, because answers
// accumulate in reused IDB names. Answers compare as row sets.

AnswerDigest ReferenceAnswer(storage::Database* db, const QueryOp& op,
                             bool specialize) {
  QueryRequest req = QueryRequest::GraphLog(op.query.text);
  req.options.translation.specialize_bound_closures = specialize;
  Result<QueryResponse> r = graphlog::Run(req, db);
  if (!r.ok()) return {~0ULL, ~0ULL};
  if (db->Find(op.answer) == nullptr) return {};
  return DigestFacts(db->RelationToString(db->Intern(op.answer)));
}

/// Replays every loop session on its own fresh reference database, up to
/// nproc sessions at a time (the server has stopped by now).
void CheckSessions(RunState* st) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  const unsigned n = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  for (unsigned t = 0; t < n; ++t) {
    threads.emplace_back([st, &next] {
      for (size_t i = next++; i < st->sessions.size(); i = next++) {
        storage::Database db;
        Must(storage::LoadFacts(st->seed_facts, &db), "reference load");
        for (const QueryRecord& rec : st->sessions[i]) {
          const AnswerDigest want = ReferenceAnswer(&db, rec.op, false);
          if (rec.epoch == 0) continue;  // failed op, already counted
          if (!(want == rec.digest)) {
            st->Fail("wrong answer: session " + std::to_string(i) + " " +
                     rec.op.template_name + " (" +
                     std::to_string(rec.digest.rows) + " rows, reference " +
                     std::to_string(want.rows) + ")");
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

/// ingest_churn: a seed-drawn sample of churn answers, each against the
/// seed plus every batch committed at or before the answer's epoch. The
/// reference specializes bound closures like the server: unspecialized,
/// the full closure of 60k edges would have about 4e8 rows.
void CheckChurn(RunState* st) {
  std::vector<size_t> pick(st->churn.size());
  for (size_t i = 0; i < pick.size(); ++i) pick[i] = i;
  std::mt19937_64 rng(st->seed ^ 0x5eedULL);
  std::shuffle(pick.begin(), pick.end(), rng);
  pick.resize(std::min<size_t>(pick.size(), kChurnChecks));
  std::sort(pick.begin(), pick.end(), [&](size_t a, size_t b) {
    return st->churn[a].epoch < st->churn[b].epoch;
  });
  storage::Database db;
  Must(storage::LoadFacts(st->seed_facts, &db), "reference load");
  const std::set<Symbol> edb = {db.Intern("edge")};
  size_t applied = 0;
  for (size_t i : pick) {
    const QueryRecord& rec = st->churn[i];
    while (applied < st->commits.size() &&
           st->commits[applied].epoch <= rec.epoch) {
      Must(storage::LoadFacts(st->commits[applied].batch.facts, &db),
           "reference commit");
      ++applied;
    }
    const AnswerDigest want = ReferenceAnswer(&db, rec.op, true);
    if (!(want == rec.digest)) {
      st->Fail("wrong churn answer at epoch " + std::to_string(rec.epoch) +
               " (" + std::to_string(rec.digest.rows) + " rows, reference " +
               std::to_string(want.rows) + ")");
    }
    db.RetainOnly(edb);
  }
}

// ---------------------------------------------------------------------------
// The traced run.

/// Per-layer results of the traced replay.
using Metrics =
    std::vector<std::pair<std::string, std::pair<double, std::string>>>;

struct Traced {
  SpanLog log;
  Metrics metrics;
  double unaccounted_frac = 0;
};

/// Runs closures one at a time on a thread of its own; Run() waits for
/// each. The traced replay gives each in-process execution path its own
/// worker, as the server gives each connection its own handler thread:
/// run on one thread, the mirror would start every call on caches the
/// other paths had just used, and read 10-20% slower than the front.
class Worker {
 public:
  Worker() : thread_([this] { Loop(); }) {}
  ~Worker() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  void Run(const std::function<void()>& fn) {
    std::unique_lock<std::mutex> lock(mu_);
    task_ = &fn;
    cv_.notify_all();
    cv_.wait(lock, [this] { return task_ == nullptr; });
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      cv_.wait(lock, [this] { return stop_ || task_ != nullptr; });
      if (task_ == nullptr) return;
      const std::function<void()>* fn = task_;
      lock.unlock();
      (*fn)();
      lock.lock();
      task_ = nullptr;
      cv_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  const std::function<void()>* task_ = nullptr;
  bool stop_ = false;
  std::thread thread_;  // last: starts after the members it uses
};

QueryRequest ToRequest(const net::WireQuery& q, gov::GovernorContext* gov) {
  QueryRequest r = QueryRequest::GraphLog(q.text);
  r.options.eval.num_threads = q.num_threads == 0 ? 1 : q.num_threads;
  r.options.translation.specialize_bound_closures =
      q.specialize_bound_closures;
  r.options.eval.governor = gov;  // net_server.cc governs every request
  return r;
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(n);
}

/// Replays a fixed sample of the workload's requests in process. Each op
/// goes over a traced connection to a NetServer in this process (the
/// "front" server) and, against identically seeded servers beside it,
/// through a mirror Session::Run and through the layers' public functions
/// one by one. Every path runs in one process, on sessions materialized
/// the same way, so the executions compare like for like. The first
/// kTraceWarmup ops of each kind warm the heaps and are left out.
Traced TraceReplay(RunState* st) {
  Traced out;
  SpanLog warm;
  SpanLog* L = &warm;  // switches to out.log after the warm-up
  const TraceSample n = TraceSampleFor(st->w);
  const bool churn = st->w == Workload::kIngestChurn;

  obs::MetricsRegistry metrics;
  ServerOptions sopts;
  sopts.metrics = &metrics;
  DurabilityOptions dopts;
  dopts.fsync = durability::FsyncPolicy::kGroupCommit;
  auto open_durable = [&](const std::string& dir) {
    std::filesystem::remove_all(dir);
    std::unique_ptr<Server> srv =
        Must(Server::Open(dir, sopts, dopts), "open durable mirror");
    Must(srv->Apply(WriteBatch().Facts(st->seed_facts)), "durable seed");
    return srv;
  };
  // The front is durable exactly where the workload's server is.
  const std::string front_dir = st->work_dir + "/trace-front";
  const std::string dur_dir = st->work_dir + "/trace-wal";
  std::unique_ptr<Server> front;
  if (churn) {
    front = open_durable(front_dir);
  } else {
    front = std::make_unique<Server>(sopts);
    Must(front->Apply(WriteBatch().Facts(st->seed_facts)), "front seed");
  }
  net::NetServerOptions nopts;
  nopts.metrics = &metrics;
  std::unique_ptr<net::NetServer> net =
      Must(net::NetServer::Start(front.get(), nopts), "traced listen");
  const uint16_t port = net->port();
  // The front NetServer times each request it serves (decode, the
  // server's work, encode) into net.request_ns before it sends the
  // response. The change in the sum across a client call is therefore
  // the server time of that very request, in place when the call returns.
  obs::HistogramCell* request_ns = metrics.histogram("net.request_ns");
  auto served_ns = [request_ns] {
    return static_cast<double>(request_ns->snapshot().sum);
  };
  Server mem(sopts);
  Must(mem.Apply(WriteBatch().Facts(st->seed_facts)), "mirror seed");
  std::unique_ptr<Server> dur = open_durable(dur_dir);

  // The reference route runs on a fresh Database of the seed facts.
  storage::Database ref_db;
  for (int i = 0; i < 2; ++i) {
    storage::Database scratch;
    storage::Database* db = i == 0 ? &ref_db : &scratch;
    out.log.Time("storage.load", 0, [&] {
      Must(storage::LoadFacts(st->seed_facts, db), "layer load");
    });
  }
  std::set<Symbol> ref_edb;
  for (const auto& [sym, rel] : ref_db.relations()) ref_edb.insert(sym);

  std::unique_ptr<net::Client> traced = Connect(port);
  std::unique_ptr<net::Client> twin = Connect(port);
  Must(traced->OpenSession(), "traced session");
  Must(twin->OpenSession(), "twin session");
  // Read-only workloads: one pinned mirror session for Session::Run and
  // one whose database the layer-by-layer replay runs on, like the
  // client's session. ingest_churn opens fresh ones per op instead.
  std::unique_ptr<Session> mirror = Must(mem.OpenSession(), "mirror session");
  std::unique_ptr<Session> layered = Must(mem.OpenSession(), "layer session");
  gov::GovernorContext gov;
  // One worker per in-process path; declared after everything they touch.
  Worker mirror_w, layer_w, ref_w, dur_w;

  // Each op's unaccounted remainder as a share of its client time, per
  // op kind; the figures are medians, so one stalled Ping or request
  // cannot decide them. Queries give the gated figure.
  std::vector<double> q_unaccounted, c_unaccounted, o_unaccounted;
  double q_client = 0, q_eval = 0, q_fixed = 0;
  double c_client = 0, c_server = 0, o_client = 0, o_server = 0;
  std::vector<double> untraced_ms, traced_ms, run_overhead_us, wire_us;
  std::vector<double> per_req_parse, per_req_translate, per_req_specialize,
      per_req_stratify, per_req_fixpoint;
  uint64_t bytes = 0, rules = 0, dedup = 0, measured_queries = 0;
  eval::EvalStats es;
  bool recording = false;  // false during the warm-up

  auto roundtrip = [&](uint64_t req) {
    L->Time("net.roundtrip", req, [&] {
      const Status p = traced->Ping();
      if (!p.ok()) st->Fail("ping: " + p.ToString());
    });
    return static_cast<double>(L->RequestNs("net.roundtrip", req));
  };

  // Session opens: remote Connect + OpenSession against Server::OpenSession.
  auto open_op = [&]() {
    const uint64_t req = L->NewRequest();
    const double rt = roundtrip(req);
    std::unique_ptr<net::Client> c;
    const double s0 = served_ns();
    L->Time("net.connect", req, [&] { c = Connect(port); });
    L->Time("net.open_rpc", req, [&] { Must(c->OpenSession(), "open"); });
    const double served = served_ns() - s0;
    mirror_w.Run([&] {
      std::unique_ptr<Session> local;
      L->Time("server.session_open", req,
              [&] { local = Must(mem.OpenSession(), "mirror open"); });
    });
    ++st->attempted;
    if (recording) {
      const double client = static_cast<double>(
          L->RequestNs("net.connect", req) + L->RequestNs("net.open_rpc", req));
      const double server =
          static_cast<double>(L->RequestNs("server.session_open", req));
      o_client += client;
      o_server += server;
      // Connect does the version handshake, one round trip the server
      // does not time; OpenSession is a second.
      o_unaccounted.push_back((client - (2 * rt + served)) / client);
    }
    return c;
  };

  auto query_op = [&](const QueryOp& op, net::Client* remote,
                      net::Client* remote_twin, Session* local,
                      Session* layer_session) {
    const uint64_t req = L->NewRequest();
    const double rt = roundtrip(req);
    uint64_t op_bytes = 0;
    L->Time("net.codec", req, [&] {
      net::Frame f;
      f.type = net::MsgType::kQuery;
      net::EncodeQuery(op.query, &f.body);
      const std::string wire = net::SerializeFrame(f);
      net::WireQuery back;
      const Status d = net::DecodeQuery(f.body, &back);
      if (!d.ok() || wire.empty()) st->Fail("codec: " + d.ToString());
      op_bytes += wire.size();
    });
    if (remote_twin != nullptr) {
      const int64_t t0 = NowNs();
      QueryRecord ignored;
      RunQuery(remote_twin, op, st, &ignored);
      if (recording) untraced_ms.push_back(Ms(NowNs() - t0));
      ++st->attempted;
    }
    const double s0 = served_ns();
    Result<net::WireQueryResult> r = L->Time(
        "net.run_rpc", req, [&] { return remote->Run(op.query); });
    const double s1 = served_ns();
    Result<std::string> rows = L->Time("net.fetch", req, [&] {
      return remote->FetchRelation(op.answer);
    });
    const double served_run = s1 - s0, served = served_ns() - s0;
    ++st->attempted;
    if (!r.ok() || !rows.ok()) {
      st->Fail("traced " + op.template_name + ": " +
               (r.ok() ? rows.status() : r.status()).ToString());
      return;
    }
    {
      net::Frame f;
      f.type = net::MsgType::kQueryResult;
      net::EncodeQueryResult(*r, &f.body);
      // + the fetch request and response frames: 8-byte header, version
      // and type bytes, a length-prefixed string each.
      op_bytes += net::SerializeFrame(f).size() + 2 * 14 + op.answer.size() +
                  rows->size();
    }
    mirror_w.Run([&] {
      Result<QueryResponse> local_run = L->Time("server.run", req, [&] {
        return local->Run(ToRequest(op.query, &gov));
      });
      if (!local_run.ok()) Die("mirror run", local_run.status());
    });
    LayerCounts counts;
    layer_w.Run([&] {
      const Status layered_st = RunLayered(
          op.query.text, op.query.specialize_bound_closures,
          op.query.num_threads, &layer_session->database(), L, req, &counts);
      if (!layered_st.ok()) Die("layered run", layered_st);
    });

    // Reference route with EXPLAIN ANALYZE on: dedup counts and the
    // answer check. ingest_churn specializes, as CheckChurn explains.
    QueryRequest ref = QueryRequest::GraphLog(op.query.text);
    ref.options.translation.specialize_bound_closures = churn;
    ref.options.observability.profile = true;
    std::optional<Result<QueryResponse>> ref_run;
    ref_w.Run([&] { ref_run.emplace(graphlog::Run(ref, &ref_db)); });
    if (!ref_run->ok()) Die("reference run", ref_run->status());
    const AnswerDigest want =
        ref_db.Find(op.answer) == nullptr
            ? AnswerDigest{}
            : DigestFacts(ref_db.RelationToString(ref_db.Intern(op.answer)));
    if (!(want == DigestFacts(*rows))) {
      st->Fail("traced " + op.template_name + ": wrong answer");
    }
    if (churn) ref_db.RetainOnly(ref_edb);
    if (!recording) return;

    bytes += op_bytes;
    ++measured_queries;
    rules += counts.rules;
    es.Merge(counts.eval);
    for (const obs::RuleProfile& rp : (*ref_run)->profile.rules) {
      dedup += rp.dup_in_head + rp.dup_in_round;
    }
    auto ns = [&](const char* name) {
      return static_cast<double>(L->RequestNs(name, req));
    };
    const double client = ns("net.run_rpc") + ns("net.fetch");
    const double stratify = ns("datalog.stratify");
    const double layers = ns("graphlog.parse") + ns("graphlog.validate") +
                          ns("graphlog.translate") +
                          ns("translate.specialize") + ns("eval.evaluate") +
                          ns("aggr.summarize");
    const double overhead = ns("server.run") - layers;
    const double codec = ns("net.codec");
    traced_ms.push_back(client / 1e6);
    run_overhead_us.push_back(overhead / 1e3);
    wire_us.push_back((client - served) / 1e3);
    per_req_parse.push_back(ns("graphlog.parse") / 1e3);
    per_req_translate.push_back(ns("graphlog.translate") / 1e3);
    if (op.query.specialize_bound_closures) {
      per_req_specialize.push_back(ns("translate.specialize") / 1e3);
    }
    per_req_stratify.push_back(stratify / 1e3);
    per_req_fixpoint.push_back((ns("eval.evaluate") - stratify) / 1e6);
    q_client += client;
    q_eval += ns("eval.evaluate") - stratify;
    // The net layer's share is everything but the server's work on the
    // Run request: the wire both ways for both requests, and the fetch.
    q_fixed += client - served_run + overhead + ns("graphlog.parse") +
               ns("graphlog.validate") + ns("graphlog.translate") +
               ns("translate.specialize") + stratify;
    // Two requests: two round trips, and the client's encoding.
    q_unaccounted.push_back((client - (2 * rt + codec + served)) / client);
  };

  // Commits: remote Apply against in-memory and durable Server::Apply.
  uint64_t wal_bytes = 0, user_bytes = 0;
  int commits_done = 0;
  std::unique_ptr<Session> stale = Must(mem.OpenSession(), "refresh session");
  auto commit_op = [&](const BatchOp& b) {
    const uint64_t req = L->NewRequest();
    const double rt = roundtrip(req);
    const WriteBatch batch = WriteBatch().Facts(b.facts);
    const double s0 = served_ns();
    Result<net::WireApplyResult> r =
        L->Time("net.apply_rpc", req, [&] { return traced->Apply(batch); });
    const double served = served_ns() - s0;
    ++st->attempted;
    if (!r.ok()) st->Fail("traced commit: " + r.status().ToString());
    ref_w.Run([&] {
      Must(storage::LoadFacts(b.facts, &ref_db), "reference commit");
    });
    mirror_w.Run([&] {
      L->Time("server.commit", req,
              [&] { Must(mem.Apply(batch), "mirror commit"); });
      L->Time("server.refresh", req, [&] {
        const Status rs = stale->Refresh();
        if (!rs.ok()) Die("refresh", rs);
      });
    });
    uint64_t wal0 = 0, wal1 = 0;
    dur_w.Run([&] {
      wal0 = dur->wal()->tail_offset();
      L->Time("durability.apply", req,
              [&] { Must(dur->Apply(batch), "durable commit"); });
      wal1 = dur->wal()->tail_offset();
      if (++commits_done % 10 == 0) {
        L->Time("durability.checkpoint", req, [&] {
          const Status cs = dur->Checkpoint();
          if (!cs.ok()) Die("checkpoint", cs);
        });
      }
    });
    if (!recording) return;
    wal_bytes += wal1 - wal0;
    user_bytes += b.facts.size();
    auto ns = [&](const char* name) {
      return static_cast<double>(L->RequestNs(name, req));
    };
    const double client = ns("net.apply_rpc");
    const double server = churn ? ns("durability.apply") : ns("server.commit");
    c_client += client;
    c_server += server;
    c_unaccounted.push_back((client - (rt + served)) / client);
  };

  auto churn_query = [&](const QueryOp& op) {
    std::unique_ptr<net::Client> c = open_op();
    std::unique_ptr<Session> local, layer;
    mirror_w.Run([&] { local = Must(mem.OpenSession(), "open"); });
    layer_w.Run([&] { layer = Must(mem.OpenSession(), "open"); });
    query_op(op, c.get(), nullptr, local.get(), layer.get());
    mirror_w.Run([&] { local.reset(); });
    layer_w.Run([&] { layer.reset(); });
  };

  // Warm-up, then the measured sample, of every op kind.
  BatchStream batches(st->w, st->seed);
  QueryStream stream(st->w, st->seed, churn ? 1 : 0);
  for (int pass = 0; pass < 2; ++pass) {
    const int q = pass == 0 ? kTraceWarmup : n.queries;
    const int c = pass == 0 ? kTraceWarmup : n.commits;
    const int o = pass == 0 ? kTraceWarmup : n.opens;
    if (churn) {
      for (int i = 0; i < std::max(c, q); ++i) {
        if (i < c) commit_op(batches.Next());
        if (i < q) churn_query(stream.Next());
      }
      for (int i = q; i < o; ++i) open_op();
    } else {
      for (int i = 0; i < q; ++i) {
        query_op(stream.Next(), traced.get(), twin.get(), mirror.get(),
                 layered.get());
      }
      for (int i = 0; i < c; ++i) commit_op(ProbeBatch(st->probes++));
      for (int i = 0; i < o; ++i) open_op();
    }
    L = &out.log;
    recording = true;
  }
  SpanLog& log = out.log;
  net.reset();
  front.reset();
  std::filesystem::remove_all(front_dir);

  // Recovery of the durable mirror's directory.
  const uint64_t live_fp = Fnv1a(testing::DatabaseFingerprint(dur->database()));
  const uint64_t ckpt_bytes = FileBytes(dur_dir + "/checkpoint.db");
  dur.reset();
  std::unique_ptr<Server> recovered = log.Time("durability.recover", 0, [&] {
    return Must(Server::Open(dur_dir, sopts, dopts), "recover");
  });
  if (Fnv1a(testing::DatabaseFingerprint(recovered->database())) != live_fp) {
    st->Fail("traced durable mirror recovered a different database");
  }
  recovered.reset();
  std::filesystem::remove_all(dur_dir);

  auto med_ms = [&](const char* name) {
    return MedianNs(log.Durations(name), 1e6);
  };
  auto med_us = [&](const char* name) {
    return MedianNs(log.Durations(name), 1e3);
  };
  out.unaccounted_frac = Median(q_unaccounted);
  const double ops = static_cast<double>(measured_queries);
  Metrics& m = out.metrics;
  m.push_back({"net.roundtrip_us", {med_us("net.roundtrip"), "us"}});
  m.push_back({"net.codec_us", {med_us("net.codec"), "us"}});
  m.push_back({"net.bytes_per_op",
               {ops > 0 ? static_cast<double>(bytes) / ops : 0, "bytes"}});
  m.push_back({"net.fetch_ms", {med_ms("net.fetch"), "ms"}});
  m.push_back({"net.wire_us", {Median(wire_us), "us"}});
  m.push_back(
      {"server.session_open_ms", {med_ms("server.session_open"), "ms"}});
  m.push_back({"server.refresh_ms", {med_ms("server.refresh"), "ms"}});
  m.push_back({"server.commit_ms", {med_ms("server.commit"), "ms"}});
  m.push_back({"server.run_overhead_us", {Median(run_overhead_us), "us"}});
  m.push_back({"server.session_relations",
               {static_cast<double>(st->session_relations), "count"}});
  m.push_back({"server.session_rows_retained",
               {static_cast<double>(st->session_rows), "count"}});
  m.push_back({"graphlog.parse_us", {Median(per_req_parse), "us"}});
  m.push_back({"graphlog.translate_us", {Median(per_req_translate), "us"}});
  m.push_back({"graphlog.rules_per_query",
               {ops > 0 ? static_cast<double>(rules) / ops : 0, "count"}});
  m.push_back({"translate.specialize_us", {Median(per_req_specialize), "us"}});
  m.push_back({"datalog.stratify_us", {Median(per_req_stratify), "us"}});
  m.push_back({"eval.fixpoint_ms", {Median(per_req_fixpoint), "ms"}});
  m.push_back({"eval.rounds", {static_cast<double>(es.iterations), "count"}});
  m.push_back({"eval.rule_firings",
               {static_cast<double>(es.rule_firings), "count"}});
  m.push_back({"eval.tuples_derived",
               {static_cast<double>(es.tuples_derived), "count"}});
  m.push_back({"eval.index_builds",
               {static_cast<double>(es.index_builds), "count"}});
  m.push_back({"eval.peak_delta_rows",
               {static_cast<double>(es.peak_delta_rows), "count"}});
  m.push_back({"eval.useful_ratio",
               {es.rule_firings > 0 ? static_cast<double>(es.tuples_derived) /
                                          static_cast<double>(es.rule_firings)
                                    : 0,
                "ratio"}});
  m.push_back({"eval.dedup_rejected_rows",
               {static_cast<double>(dedup), "count"}});
  m.push_back({"aggr.summarize_ms", {med_ms("aggr.summarize"), "ms"}});
  m.push_back({"storage.load_ms", {med_ms("storage.load"), "ms"}});
  m.push_back({"storage.relation_bytes",
               {static_cast<double>(layered->database().TotalBytes()),
                "bytes"}});
  m.push_back({"durability.commit_overhead_ms",
               {med_ms("durability.apply") - med_ms("server.commit"), "ms"}});
  m.push_back({"durability.wal_bytes_per_user_byte",
               {user_bytes > 0 ? static_cast<double>(wal_bytes) /
                                     static_cast<double>(user_bytes)
                               : 0,
                "ratio"}});
  m.push_back({"durability.checkpoint_ms",
               {med_ms("durability.checkpoint"), "ms"}});
  m.push_back({"durability.checkpoint_bytes",
               {static_cast<double>(ckpt_bytes), "bytes"}});
  m.push_back({"durability.recover_ms", {med_ms("durability.recover"), "ms"}});
  m.push_back({"bench.unaccounted_frac", {out.unaccounted_frac, "frac"}});
  m.push_back({"bench.unaccounted_commit_frac",
               {Median(c_unaccounted), "frac"}});
  m.push_back({"bench.unaccounted_session_open_frac",
               {Median(o_unaccounted), "frac"}});
  m.push_back({"bench.gen_lag_ms", {Median(st->gen_lag_ms), "ms"}});
  m.push_back({"bench.trace_overhead_ms",
               {churn ? 0 : Median(traced_ms) - Median(untraced_ms), "ms"}});
  m.push_back({"bench.share_eval_of_query",
               {q_client > 0 ? q_eval / q_client : 0, "frac"}});
  m.push_back({"bench.share_fixed_layers_of_query",
               {q_client > 0 ? q_fixed / q_client : 0, "frac"}});
  m.push_back({"bench.share_server_of_commit",
               {c_client > 0 ? c_server / c_client : 0, "frac"}});
  m.push_back({"bench.share_server_of_session_open",
               {o_client > 0 ? o_server / o_client : 0, "frac"}});
  return out;
}

// ---------------------------------------------------------------------------

struct Options {
  Workload w = Workload::kClosureMix;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
  std::string rev = "unknown";
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string MetricsJson(const Metrics& m) {
  std::string out = "{";
  for (size_t i = 0; i < m.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + m[i].first + "\": {\"value\": " + Num(m[i].second.first) +
           ", \"unit\": \"" + m[i].second.second + "\"}";
  }
  return out + "}";
}

int RunBenchmark(const Options& o) {
  RunState st;
  st.w = o.w;
  st.seed = o.seed;
  st.work_dir = o.work_dir;
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  st.clients = 2;
  std::filesystem::create_directories(o.work_dir);
  // Before any thread or the server process starts: both inherit it.
  // The answer checks run on every CPU again.
  const cpu_set_t all_cpus = AllowedCpus();
  std::string cpus = "all";
  if (o.w == Workload::kPointLookups) {
    const cpu_set_t one = LastCpu(all_cpus);
    SetAffinity(0, one);
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &one)) cpus = std::to_string(c);
    }
  }

  std::printf(
      "# bench_e2e {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"nproc\": %u, \"build_type\": \"%s\", "
      "\"compiler\": \"%s\", \"rev\": \"%s\", \"fsync\": \"%s\", "
      "\"clients\": %d, \"cpus\": \"%s\", \"sizes\": %s}\n",
      WorkloadName(o.w), static_cast<unsigned long long>(o.seed),
      Num(o.seconds).c_str(), o.trace ? 1 : 0, nproc, BENCH_E2E_BUILD_TYPE,
      BENCH_E2E_COMPILER, o.rev.c_str(),
      o.w == Workload::kIngestChurn ? "group" : "none (in-memory)",
      st.clients, cpus.c_str(), SizesFor(o.w).ToJson().c_str());

  st.seed_facts = SeedFacts(o.w, o.seed);
  st.seed_edges = static_cast<uint64_t>(SizesFor(o.w).digraph_edges);

  Stack stack;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (stack.server != nullptr) {
      stack.clients.clear();
      stack.server->Stop();
      std::filesystem::remove_all(stack.dir);
    }
    const int64_t t0 = NowNs();
    stack = SetUp(&st, rep);
    st.setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  st.sessions.assign(st.clients, {});
  for (int c = 0; c < st.clients; ++c) {
    st.session_of.push_back(static_cast<size_t>(c));
    st.streams.emplace_back(o.w, o.seed, c);
  }
  st.batches = std::make_unique<BatchStream>(o.w, o.seed);
  for (int r = 0; r < kRounds; ++r) {
    const int64_t start = NowNs();
    const int64_t deadline =
        start + static_cast<int64_t>(o.seconds / kRounds * 1e9);
    uint64_t ops = st.loop_ops;
    double secs = 0;
    switch (o.w) {
      case Workload::kClosureMix:
        ClosedLoopQueries(&st, &stack, deadline, true);
        break;
      case Workload::kPointLookups: {
        const int64_t capacity_ns = static_cast<int64_t>(
            kCapacityShare * static_cast<double>(deadline - start));
        OpenLoopQueries(&st, &stack, start, deadline - capacity_ns);
        const int64_t cap_start = NowNs();
        ops = ClosedLoopQueries(&st, &stack, cap_start + capacity_ns, false);
        secs = static_cast<double>(NowNs() - cap_start) / 1e9;
        break;
      }
      case Workload::kIngestChurn:
        IngestChurn(&st, &stack, deadline);
        break;
    }
    st.loop_s += static_cast<double>(NowNs() - start) / 1e9;
    if (o.w != Workload::kPointLookups) {
      ops = st.loop_ops - ops;
      secs = static_cast<double>(NowNs() - start) / 1e9;
    }
    st.timed_ops += ops;
    st.timed_s += secs;
    st.round_ops_per_s.push_back(static_cast<double>(ops) / secs);
    if (o.w != Workload::kIngestChurn) {
      Probes(&st, &stack, kProbeCommits / kRounds, kProbeOpens / kRounds);
    }
  }
  st.attempted += st.loop_ops;
  CountSessionState(&st, &stack);

  uint64_t committed_rows = 0;
  if (o.w == Workload::kIngestChurn) {
    for (const CommitRecord& c : st.commits) committed_rows += c.batch.rows;
    std::unique_ptr<net::Client> c = Connect(stack.server->port());
    Must(c->OpenSession(), "count session");
    uint64_t edges = 0;
    for (const net::WireRelationInfo& r :
         Must(c->ListRelations(), "list relations")) {
      if (r.name == "edge") edges = r.rows;
    }
    if (edges != st.seed_edges + committed_rows) {
      st.Fail("edge count " + std::to_string(edges) + " != seed " +
              std::to_string(st.seed_edges) + " + committed " +
              std::to_string(committed_rows));
    }
  }

  stack.clients.clear();
  st.prober.reset();
  stack.server->Stop();
  Traced traced;
  if (o.trace) traced = TraceReplay(&st);
  SetAffinity(0, all_cpus);

  if (!stack.server->exited_ok()) {
    st.Fail("server process exit status " +
            std::to_string(stack.server->exit_status()));
  }

  if (o.w == Workload::kIngestChurn) {
    CheckChurn(&st);
    obs::MetricsRegistry metrics;
    ServerOptions sopts;
    sopts.metrics = &metrics;
    DurabilityOptions dur;
    dur.fsync = durability::FsyncPolicy::kGroupCommit;
    std::unique_ptr<Server> recovered =
        Must(Server::Open(stack.dir, sopts, dur), "recover");
    if (Fnv1a(testing::DatabaseFingerprint(recovered->database())) !=
        stack.server->fingerprint()) {
      st.Fail("recovered database differs from the live one");
    }
  } else {
    CheckSessions(&st);
  }
  std::filesystem::remove_all(stack.dir);

  if (o.trace && std::abs(traced.unaccounted_frac) > kMaxUnaccountedFrac) {
    st.Fail("bench.unaccounted_frac " + Num(traced.unaccounted_frac) +
            " exceeds " + Num(kMaxUnaccountedFrac));
  }

  // Human-readable report.
  const uint64_t failed = st.failed.load();
  std::printf("# ops %llu in %.3f s wall; attempted %llu, failed %llu "
              "(failed_ratio %.6f)\n",
              static_cast<unsigned long long>(st.loop_ops), st.loop_s,
              static_cast<unsigned long long>(st.attempted),
              static_cast<unsigned long long>(failed),
              st.attempted > 0 ? static_cast<double>(failed) /
                                     static_cast<double>(st.attempted)
                               : 0.0);
  for (const std::string& f : st.failures) {
    std::printf("# FAILED: %s\n", f.c_str());
  }

  // The loop's figures, in both modes. session_open_p50_ms and
  // commit_tail_ms spread too much between runs on the reference machine
  // for any bound the benchmark may set (NOTES.md), so they are reported
  // with the per-layer metrics, which carry no bound.
  auto tail = [&](const char* name, const std::vector<double>& v,
                  const char* op) {
    const Tail t = TailOf(v, TailPercentile(o.w, op));
    std::printf("# %s = p%g of %zu samples (%zu beyond)\n", name,
                t.percentile, v.size(), t.beyond);
    return t.value;
  };
  auto p50 = [&](const char* name, const std::vector<double>& v) {
    std::printf("# %s = p50 of %zu samples\n", name, v.size());
    return Percentile(v, 50);
  };
  std::printf("# ops_per_s rounds:");
  for (double x : st.round_ops_per_s) std::printf(" %.4f", x);
  std::printf("\n");
  if (o.w == Workload::kPointLookups) {
    std::printf("# ops_per_s = closed-loop capacity over the last %g of each "
                "round; the open loop offers %g req/s\n",
                kCapacityShare, kPointLookupRate);
  }
  Metrics loop;
  loop.push_back({"setup_s", {Median(st.setup_s), "s"}});
  loop.push_back(
      {"ops_per_s",
       {static_cast<double>(st.timed_ops) / st.timed_s, "1/s"}});
  loop.push_back({"query_p50_ms", {p50("query_p50_ms", st.query_ms), "ms"}});
  loop.push_back(
      {"commit_p50_ms", {p50("commit_p50_ms", st.commit_ms), "ms"}});
  loop.push_back(
      {"peak_rss_mb",
       {static_cast<double>(stack.server->peak_rss_kb()) / 1024.0, "MB"}});
  const Metrics unbounded = {
      {"client.query_tail_ms",
       {tail("query_tail_ms", st.query_ms, "query"), "ms"}},
      {"client.commit_tail_ms",
       {tail("commit_tail_ms", st.commit_ms, "commit"), "ms"}},
      {"client.session_open_p50_ms",
       {p50("session_open_p50_ms", st.open_ms), "ms"}}};
  if (o.w == Workload::kIngestChurn) {
    std::printf("# server checkpoints: %llu\n",
                static_cast<unsigned long long>(stack.server->checkpoints()));
  }
  std::map<std::string, std::vector<double>> by_template;
  for (const auto& recs : st.sessions) {
    for (const QueryRecord& r : recs) {
      by_template[r.op.template_name].push_back(r.ms);
    }
  }
  for (const QueryRecord& r : st.churn) {
    by_template[r.op.template_name].push_back(r.ms);
  }
  for (const auto& [name, v] : by_template) {
    std::printf("# query %-16s %6zu ops  p50 %10.4f ms  max %10.4f ms\n",
                name.c_str(), v.size(), Percentile(v, 50), Percentile(v, 100));
  }
  std::printf("# samples: query %zu, commit %zu, session_open %zu; "
              "generator lag p50 %.4f ms, p99 %.4f ms\n",
              st.query_ms.size(), st.commit_ms.size(), st.open_ms.size(),
              Percentile(st.gen_lag_ms, 50), Percentile(st.gen_lag_ms, 99));

  Metrics m = loop;
  if (o.trace) {
    for (const auto& [name, vu] : loop) {
      std::printf("# %-36s %14.6f %s\n", name.c_str(), vu.first,
                  vu.second.c_str());
    }
    m = traced.metrics;
    m.insert(m.end(), unbounded.begin(), unbounded.end());
    const std::string path = o.work_dir + "/trace-" + WorkloadName(o.w) +
                             "-" + std::to_string(o.seed) + ".json";
    std::ofstream(path) << traced.log.ToJson();
    std::printf("# %zu spans written to %s\n", traced.log.spans().size(),
                path.c_str());
  } else {
    for (const auto& [name, vu] : unbounded) {
      std::printf("# %-36s %14.6f %s\n", name.c_str(), vu.first,
                  vu.second.c_str());
    }
  }
  for (const auto& [name, vu] : m) {
    std::printf("# %-36s %14.6f %s\n", name.c_str(), vu.first,
                vu.second.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(st.attempted),
              static_cast<unsigned long long>(failed),
              MetricsJson(m).c_str());
  std::fflush(stdout);
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_e2e run --workload W --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--rev REV]\n"
               "       bench_e2e serve [--dir DIR]\n");
  return 2;
}

}  // namespace
}  // namespace graphlog::e2e

int main(int argc, char** argv) {
  using namespace graphlog::e2e;
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return Usage();
    flags[argv[i] + 2] = argv[i + 1];
  }
  if ((argc - 2) % 2 != 0) return Usage();
  auto flag = [&](const char* k, const char* def) {
    auto it = flags.find(k);
    return it == flags.end() ? std::string(def) : it->second;
  };
  if (mode == "serve") return Serve(flag("dir", ""));
  if (mode != "run") return Usage();
  Options o;
  graphlog::Result<Workload> w = ParseWorkload(flag("workload", ""));
  if (!w.ok() || flag("work-dir", "").empty()) return Usage();
  o.w = *w;
  o.seed = std::stoull(flag("seed", "1"));
  o.seconds = std::stod(flag("seconds", "10"));
  o.trace = flag("trace", "0") == "1";
  o.work_dir = flag("work-dir", "");
  o.rev = flag("rev", "unknown");
  return RunBenchmark(o);
}
