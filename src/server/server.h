// Server/Session: concurrent multi-session serving with epoch-snapshot
// isolation.
//
// The engine below this layer is deliberately single-caller: a query
// mutates its Database in place (IDB materialization, index builds), so
// one mutable Database cannot serve concurrent readers and a writer. The
// server layer restores concurrency with MVCC-lite snapshots built from
// machinery the cache layer already relies on:
//
//   * Relation uids are process-global and never reused, and
//     data_generation counters bump only on committed data changes — so
//     the pair (uid, data_generation) is a stamp that names one immutable
//     version of one relation's contents, forever.
//   * A Snapshot is an immutable map relation-name -> shared stamped
//     version plus the symbol table at commit time. Publishing a snapshot
//     retains the versions of untouched relations from the previous one
//     (copy-on-write at commit granularity) and copies only what the
//     batch changed.
//   * A Server owns the authoritative Database. Writers submit atomic
//     WriteBatches: under the commit lock the batch applies all-or-nothing
//     (a failure rolls every op back and publishes nothing), then the
//     server epoch bumps and a new head snapshot is published. Readers
//     never touch the authoritative Database.
//   * A Session pins a snapshot by materializing a private Database from
//     it: a clone of the snapshot's symbol table plus copies of the
//     version relations, which keep their server-issued uids and stamps —
//     so the result cache and CSR cache invalidate correctly inside the
//     session, and a pinned session is immune to later commits until it
//     Refresh()es. Queries run through the unchanged single-caller
//     pipeline against the private Database, giving every session the
//     full engine (parallel lanes, closure kernel, result cache, views)
//     under isolation for free.
//
// Sessions intern query-local symbols (variable names, fresh auxiliary
// predicates) into their private tables after cloning, so symbol ids
// diverge across sessions beyond the shared server prefix. Everything
// keyed across sessions therefore scopes by Database::uid (the result
// cache already does) or stays per-session (each Session owns its CSR
// cache).
//
// Concurrency contract: Server is thread-safe (one writer at a time
// serializes on the commit lock; head() is a cheap pointer load under its
// own mutex). A Session is single-caller like the engine — one thread
// drives it at a time — but any number of sessions run concurrently, and
// Session::Cancel() may be called from any thread.
//
// graphlog::Run (graphlog/api.h) is a thin wrapper over an *attached*
// single-session server: attached mode shares the caller's Database with
// no snapshots (and therefore no isolation), which is exactly the old
// single-caller semantics with the same observable behavior and costs.

#ifndef GRAPHLOG_SERVER_SERVER_H_
#define GRAPHLOG_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "columnar/csr_cache.h"
#include "common/result.h"
#include "durability/fsync_policy.h"
#include "gov/governor.h"
#include "graphlog/api.h"
#include "storage/database.h"

namespace graphlog {

class Session;

namespace durability {
struct BatchCodec;  // durability/wal.h: WAL wire format for WriteBatch
class Wal;
}  // namespace durability

namespace net {
struct WireBatchAccess;  // net/protocol.h: batch translation for the wire
}  // namespace net

/// \brief An immutable view of the database as of one committed epoch.
///
/// Shared versions: relations a commit does not touch are carried over
/// from the previous snapshot by shared_ptr, so retaining N epochs costs
/// only the relations that actually changed between them. Version
/// relations are stored index-free (indexes rebuild lazily inside the
/// session that materializes them).
struct Snapshot {
  uint64_t epoch = 0;
  /// The server's symbol table at publish time (shared with later
  /// snapshots until the table grows). Grow-only, so every Symbol a
  /// version relation's rows reference resolves here.
  std::shared_ptr<const SymbolTable> symbols;
  std::map<Symbol, std::shared_ptr<const storage::Relation>> relations;
};

/// \brief An ordered list of write operations that commits atomically:
/// either every op applies and one new epoch is published, or none do.
class WriteBatch {
 public:
  /// \brief Parses `text` as Datalog ground facts (storage/io.h) and
  /// inserts them, declaring relations on first use.
  WriteBatch& Facts(std::string text) {
    ops_.push_back({Op::kFacts, std::move(text), {}});
    return *this;
  }

  /// \brief Inserts one fact whose arguments are strings interned as
  /// symbols (numeric or mixed arguments go through Facts()).
  WriteBatch& Insert(std::string relation, std::vector<std::string> args) {
    ops_.push_back({Op::kInsert, std::move(relation), std::move(args)});
    return *this;
  }

  /// \brief Loads a fact file from disk (storage/io.h contract).
  WriteBatch& LoadFile(std::string path) {
    ops_.push_back({Op::kLoadFile, std::move(path), {}});
    return *this;
  }

  /// \brief Empties an existing relation (it stays declared). Clearing an
  /// unknown relation fails the batch.
  WriteBatch& Clear(std::string relation) {
    ops_.push_back({Op::kClear, std::move(relation), {}});
    return *this;
  }

  bool empty() const { return ops_.empty(); }
  size_t size() const { return ops_.size(); }

 private:
  friend class Server;
  friend struct durability::BatchCodec;
  friend struct net::WireBatchAccess;
  struct Op {
    enum Kind : uint8_t { kFacts, kInsert, kLoadFile, kClear } kind;
    /// kFacts: the fact text; kInsert/kClear: the relation name;
    /// kLoadFile: the path.
    std::string text;
    std::vector<std::string> args;  ///< kInsert only
  };
  std::vector<Op> ops_;
};

struct ServerOptions {
  /// Registry for server.* / session.* accounting (and the default
  /// observability.metrics of every session). Null disables.
  obs::MetricsRegistry* metrics = nullptr;
  /// Default result cache handed to sessions whose requests set none.
  /// Safe to share across sessions: the cache is internally synchronized
  /// and keys are scoped by Database::uid, so entries never replay across
  /// session symbol spaces.
  cache::ResultCache* result_cache = nullptr;
  /// Fault injector armed on write batches that carry no governor of
  /// their own (the io.load site etc.; see gov/fault_injection.h).
  gov::FaultInjector* faults = nullptr;
  /// Admission control: OpenSession fails with kBudgetExceeded once this
  /// many sessions are open. 0 = unlimited.
  size_t max_sessions = 0;
};

/// \brief Durable-mode configuration for Server::Open.
struct DurabilityOptions {
  /// When an appended WAL record reaches stable storage (see
  /// durability/fsync_policy.h for the per-policy crash contract).
  durability::FsyncPolicy fsync = durability::FsyncPolicy::kAlways;
  /// kGroupCommit: at most one fsync per this many milliseconds.
  uint64_t group_window_ms = 5;
};

/// \brief Per-session configuration; all fields optional.
struct SessionOptions {
  /// Metrics prefix ("session.<name>.*"); auto-assigned "s<N>" if empty.
  std::string name;
  /// Default per-query resource budget, applied when a request carries no
  /// governor of its own.
  gov::ResourceBudget budget;
  /// Default per-query deadline in milliseconds (same condition); 0 = none.
  uint64_t deadline_ms = 0;
  /// Fill-in defaults for request options left unset (null pointers are
  /// filled, false toggles are OR-ed in, num_threads applies when the
  /// request keeps the default 1).
  QueryOptions defaults;
};

/// \brief The concurrent front door: owns (or wraps) the Database, commits
/// write batches, publishes snapshots, and opens sessions.
class Server {
 public:
  /// \brief Owning mode: the server owns an empty authoritative Database
  /// and publishes an epoch-0 snapshot of it. The full isolation mode.
  explicit Server(ServerOptions opts = {});

  /// \brief Attached mode: wraps a caller-owned Database with no
  /// snapshots — sessions share `db` directly and see every write
  /// immediately. This is single-caller compatibility mode (the
  /// graphlog::Run wrapper); it provides the Session front door and
  /// atomic batches but NO isolation.
  explicit Server(storage::Database* db, ServerOptions opts = {});

  /// \brief Durable mode: opens (creating if needed) the directory `dir`
  /// and recovers the pre-crash state — the newest valid checkpoint plus
  /// a replay of the WAL tail through the same batch-apply machinery
  /// commits use. A torn WAL tail (interrupted final append) is
  /// truncated and the committed prefix recovered; interior corruption
  /// fails with kCorruptedLog and applies nothing. Once open, every
  /// Apply() appends to the WAL and syncs per `dur.fsync` BEFORE its
  /// epoch publishes. Caches, CSR snapshots, and statistics are not
  /// durable — they rebuild cold. Direct database() mutations bypass the
  /// log; durable servers must write through Apply().
  static Result<std::unique_ptr<Server>> Open(const std::string& dir,
                                              ServerOptions opts = {},
                                              DurabilityOptions dur = {});

  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// \brief Opens a session pinned to the current head snapshot (owning
  /// mode) or sharing the attached Database (attached mode). The returned
  /// Session must not outlive the Server. Fails with kBudgetExceeded when
  /// ServerOptions::max_sessions is reached.
  Result<std::unique_ptr<Session>> OpenSession(SessionOptions opts = {});

  /// \brief Commits `batch` atomically against the authoritative
  /// Database and, in owning mode, publishes a new head snapshot one
  /// epoch later. On failure (parse error, arity clash, governed abort at
  /// io.load, ...) every op is rolled back, the epoch does not move, and
  /// no snapshot is published. Returns the number of facts inserted.
  /// `governor` bounds the batch; when null, ServerOptions::faults (if
  /// any) still applies.
  Result<size_t> Apply(const WriteBatch& batch,
                       const gov::GovernorContext* governor = nullptr);

  /// \brief The current head snapshot (owning mode; null when attached).
  /// A cheap shared_ptr load — never blocks behind an in-flight commit.
  std::shared_ptr<const Snapshot> head() const;

  /// \brief Epoch of the latest commit (0 = nothing committed yet).
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  obs::MetricsRegistry* metrics() const { return opts_.metrics; }
  cache::ResultCache* result_cache() const { return opts_.result_cache; }
  bool attached() const { return attached_; }
  size_t open_sessions() const {
    return open_sessions_.load(std::memory_order_relaxed);
  }

  /// \brief The authoritative Database. For setup/inspection from the
  /// writer's thread only; mutating it directly bypasses atomicity and
  /// snapshot publication — prefer Apply(). After direct mutations in
  /// owning mode, call Publish() to make them visible to new snapshots.
  storage::Database& database() { return *db_; }

  /// \brief Owning mode: re-publishes the head snapshot from the current
  /// authoritative state under a fresh epoch (for out-of-band direct
  /// mutations via database()). No-op when attached. NOT logged: a
  /// durable server's out-of-band mutations do not survive recovery.
  void Publish();

  /// \brief True when this server was opened durable (Server::Open).
  bool durable() const { return wal_ != nullptr; }

  /// \brief Durable mode: the directory holding wal.log + checkpoint.db.
  const std::string& dir() const { return dir_; }

  /// \brief Durable mode: the write-ahead log (null otherwise). For
  /// status surfaces (tail offset, fsync policy) — appends stay behind
  /// Apply().
  durability::Wal* wal() const { return wal_.get(); }

  /// \brief Durable mode: serializes the authoritative database at the
  /// current epoch (temp-file + atomic rename; an aborted write never
  /// clobbers the previous valid checkpoint) and truncates the WAL
  /// behind it. Fails with kInvalidArgument on non-durable servers.
  Status Checkpoint();

 private:
  friend class Session;

  /// Everything needed to undo one successfully-applied batch: the
  /// pre-batch size/stamp of every relation plus pre-batch copies of
  /// cleared ones. The durable commit path uses it to roll back an
  /// in-memory apply whose WAL append failed.
  struct BatchUndo {
    std::map<Symbol, std::pair<size_t, uint64_t>> pre_state;
    std::map<Symbol, storage::Relation> cleared;
  };

  /// Restores `db` to the pre-batch state `undo` captured (created
  /// relations removed, grown relations truncated, cleared relations
  /// reinstated).
  static void UndoBatch(storage::Database* db, BatchUndo&& undo);

  /// Applies every op of `batch` to `db` all-or-nothing; on failure the
  /// database is restored (created relations removed, grown relations
  /// truncated, cleared relations reinstated from copies) and the error
  /// returned. Static so Session fast-forward replays reuse it.
  /// `capture_files` (when non-null) receives the raw text of every
  /// kLoadFile op, in op order; `replay_files` (when non-null) supplies
  /// those texts back so a replay applies the exact bytes the original
  /// commit read instead of re-reading files that may have changed on
  /// disk since. Every replay consumer — session fast-forward and WAL
  /// recovery alike — goes through captured bytes; there is no
  /// path-based replay. `undo` (when non-null) receives, on success, the
  /// rollback state for UndoBatch.
  static Result<size_t> ApplyBatchTo(
      const WriteBatch& batch, storage::Database* db,
      const gov::GovernorContext* governor,
      std::vector<std::string>* capture_files = nullptr,
      const std::vector<std::string>* replay_files = nullptr,
      BatchUndo* undo = nullptr);

  Result<size_t> ApplyInternal(const WriteBatch& batch,
                               const gov::GovernorContext* governor,
                               uint64_t* base_epoch,
                               uint64_t* committed_epoch,
                               std::vector<std::string>* capture_files);

  /// Builds and installs a new head snapshot from the authoritative
  /// state, reusing the previous snapshot's versions for every relation
  /// whose (uid, data_generation, size) stamp is unchanged. mu_ held.
  void RebuildHeadLocked();

  void ReleaseSession();

  ServerOptions opts_;
  storage::Database owned_db_;  ///< authoritative store in owning mode
  storage::Database* db_;       ///< &owned_db_ or the attached database
  const bool attached_;
  /// Serializes Apply()/Publish() end-to-end: one writer at a time.
  std::mutex mu_;
  /// Guards only the head_ pointer swap, so readers opening snapshots
  /// never wait for a long ingest holding mu_.
  mutable std::mutex head_mu_;
  std::shared_ptr<const Snapshot> head_;
  std::atomic<uint64_t> epoch_{0};
  std::atomic<size_t> open_sessions_{0};
  std::atomic<uint64_t> session_seq_{0};
  /// Durable mode only (Server::Open); null on in-memory servers.
  std::unique_ptr<durability::Wal> wal_;
  std::string dir_;
};

/// \brief A client handle: a pinned snapshot to query plus a write door.
///
/// Owning-mode sessions materialize a private Database from the snapshot
/// (fresh Database::uid per materialization; relation copies keep their
/// server stamps) and stay pinned until Refresh() or a write of their
/// own. Attached-mode sessions share the server's Database.
class Session {
 public:
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// \brief Runs one query against the pinned snapshot through the full
  /// pipeline (graphlog/api.h), filling unset request options from the
  /// session defaults, the server's metrics/result-cache, and the
  /// session's CSR cache; a request without its own governor is governed
  /// by the session budget/deadline (when configured) and the session
  /// cancellation token. Results materialize into the session database.
  Result<QueryResponse> Run(QueryRequest req);

  /// \brief Commits `batch` through the server, then brings this session
  /// to the committed epoch: when no other writer intervened and the ops
  /// replay cleanly onto the private database (the common case), the
  /// session fast-forwards in place — session-materialized IDB results
  /// survive, and replayed relations advance to stamps matching the
  /// published versions; otherwise the session fully Refresh()es.
  Result<size_t> Apply(const WriteBatch& batch,
                       const gov::GovernorContext* governor = nullptr);

  /// \brief Re-pins to the latest head snapshot. Cheap no-op when already
  /// current. When the server symbol table grew past this session's base
  /// prefix, the private database is rebuilt from scratch (fresh uid;
  /// session-local materializations dropped — their symbol ids could
  /// collide with the server's new ones); otherwise EDB copies update in
  /// place and session-local relations survive. No-op when attached.
  Status Refresh();

  /// \brief Requests cancellation of the in-flight (or next) governed
  /// query on this session; callable from any thread. Takes effect when
  /// queries are governed — a session budget/deadline is configured or
  /// the request carries this session's token.
  void Cancel() const { cancel_.Cancel(); }
  const gov::CancellationToken& cancellation_token() const { return cancel_; }

  /// \brief Epoch this session is pinned at (attached mode: the server's
  /// live epoch).
  uint64_t epoch() const {
    return attached_ ? server_->epoch() : epoch_;
  }
  const std::string& name() const { return name_; }

  /// \brief The session's private database (attached mode: the shared
  /// one). Same single-caller discipline as the session itself.
  storage::Database& database() { return *db_; }
  const storage::Database& database() const { return *db_; }

  /// \brief Per-session CSR snapshot cache (every run defaults to it).
  columnar::CsrCache& csr_cache() { return csr_cache_; }

  struct Stats {
    uint64_t queries = 0;
    uint64_t errors = 0;
    uint64_t cache_hits = 0;
    uint64_t writes = 0;
    uint64_t refreshes = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  friend class Server;
  Session(Server* server, SessionOptions opts, std::string name);

  /// Rebuilds the private database from `snap`: fresh Database, cloned
  /// symbol table, copied version relations.
  void Materialize(const std::shared_ptr<const Snapshot>& snap);

  Server* server_;
  SessionOptions opts_;
  std::string name_;
  const bool attached_;
  storage::Database owned_db_;
  storage::Database* db_;
  uint64_t epoch_ = 0;
  /// Size of the server symbol-table prefix the private table was cloned
  /// from; ids >= this are session-local and gate in-place refresh.
  size_t base_symbols_ = 0;
  gov::CancellationToken cancel_;
  columnar::CsrCache csr_cache_;
  Stats stats_;
};

}  // namespace graphlog

#endif  // GRAPHLOG_SERVER_SERVER_H_
