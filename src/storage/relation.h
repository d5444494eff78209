// Relation: a deduplicated set of tuples with incrementally maintained
// hash indexes.
//
// Relations preserve insertion order for deterministic iteration, maintain
// a hash set for O(1) duplicate elimination and membership tests, and build
// hash indexes over column subsets on demand. Once built, an index is kept
// current incrementally: Insert appends the new row id to the matching
// posting list of every built index instead of discarding them, so a
// fixpoint loop that alternates inserts and probes pays O(new rows) per
// round instead of O(relation) index rebuilds.
//
// Invalidation contract: Probe returns a ProbeResult view into an index
// posting list. The view is valid until the next structural change of the
// relation — any successful Insert/InsertAll (the posting list may grow
// and reallocate), Clear, or DropIndexes. Using a stale view is undefined
// behavior; each access asserts validity in debug builds, and valid() can
// be queried in any build. Relations are not internally synchronized:
// concurrent const access (Probe on already-built indexes, Contains,
// rows) is safe, concurrent mutation is not — parallel evaluation
// pre-builds indexes with BuildIndex and keeps the fan-out read-only.

#ifndef GRAPHLOG_STORAGE_RELATION_H_
#define GRAPHLOG_STORAGE_RELATION_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/tuple.h"

namespace graphlog::storage {

class Relation;

/// \brief View over the row indices matching a Probe().
///
/// Holds the relation's structure generation at probe time; any later
/// structural change (insert, clear, index drop) invalidates the view.
/// Accessors assert validity in debug builds.
class ProbeResult {
 public:
  ProbeResult() = default;

  /// \brief True while the underlying relation is structurally unchanged
  /// since this result was probed.
  bool valid() const;

  size_t size() const {
    CheckValid();
    return hits_ == nullptr ? 0 : hits_->size();
  }
  bool empty() const { return size() == 0; }
  const uint32_t* begin() const {
    CheckValid();
    return hits_ == nullptr ? nullptr : hits_->data();
  }
  const uint32_t* end() const {
    CheckValid();
    return hits_ == nullptr ? nullptr : hits_->data() + hits_->size();
  }
  uint32_t operator[](size_t i) const {
    CheckValid();
    return (*hits_)[i];
  }

 private:
  friend class Relation;
  ProbeResult(const std::vector<uint32_t>* hits, const Relation* rel,
              uint64_t generation)
      : hits_(hits), rel_(rel), generation_(generation) {}

  void CheckValid() const {
    assert(valid() && "ProbeResult used after a structural change of the "
                      "relation (insert/clear/index drop)");
  }

  const std::vector<uint32_t>* hits_ = nullptr;  // nullptr: no matches
  const Relation* rel_ = nullptr;                // nullptr: detached view
  uint64_t generation_ = 0;
};

/// \brief A set of same-arity tuples.
class Relation {
 public:
  explicit Relation(size_t arity) : arity_(arity) {}

  size_t arity() const { return arity_; }
  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  /// \brief Inserts `t`; returns true when the tuple is new. Appends the
  /// new row to every built index; invalidates outstanding ProbeResults.
  /// The tuple's size must equal arity().
  bool Insert(Tuple t) {
    SyncSet();
    if (!set_.insert(t).second) return false;
    const uint32_t row_id = static_cast<uint32_t>(rows_.size());
    rows_.push_back(std::move(t));
    AppendToIndexes(rows_.back(), row_id);
    ++generation_;
    ++data_generation_;
    memory_dirty_ = true;
    return true;
  }

  /// \brief Appends `t` without consulting the dedup set: the bulk-load
  /// path for kernels whose output is provably duplicate-free (the
  /// columnar TC/RPQ kernels emit each pair exactly once). Skips the
  /// per-row hash insert and tuple copy that dominate materialization;
  /// the set is rebuilt lazily by the next operation that needs it
  /// (Insert / Contains / TruncateTo / SetEquals) — until that happens,
  /// those calls are not safe to run concurrently. Feeding a duplicate
  /// is a caller bug (asserted at the next sync in debug builds).
  void AppendUnique(Tuple t) {
    const uint32_t row_id = static_cast<uint32_t>(rows_.size());
    rows_.push_back(std::move(t));
    AppendToIndexes(rows_.back(), row_id);
    set_stale_ = true;
    ++generation_;
    ++data_generation_;
    memory_dirty_ = true;
  }

  /// \brief Rebuilds the lazily-deferred tail of the dedup set after a
  /// run of AppendUnique() calls (no-op otherwise). The loop starts at the
  /// current set size: rows below it were inserted through the tracked
  /// path. Call it serially after a bulk load and before concurrent
  /// readers may reach Contains().
  void SyncSet() const {
    if (!set_stale_) return;
    set_.reserve(rows_.size());
    for (size_t i = set_.size(); i < rows_.size(); ++i) set_.insert(rows_[i]);
    assert(set_.size() == rows_.size() &&
           "AppendUnique was fed a duplicate row");
    set_stale_ = false;
  }

  /// \brief Inserts `t` like Insert() but WITHOUT bumping data_generation():
  /// the staging half of a multi-relation atomic write. The structural
  /// generation still advances (outstanding ProbeResults are invalidated),
  /// but the relation's cache stamp is frozen until CommitStamp() — so an
  /// aborted batch can undo its staged rows with RollbackStagedTo() without
  /// ever having published a stamp readers could cache a half-applied
  /// state under.
  bool InsertStaged(Tuple t) {
    SyncSet();
    if (!set_.insert(t).second) return false;
    const uint32_t row_id = static_cast<uint32_t>(rows_.size());
    rows_.push_back(std::move(t));
    AppendToIndexes(rows_.back(), row_id);
    ++generation_;
    memory_dirty_ = true;
    return true;
  }

  /// \brief Publishes the data stamp for a run of InsertStaged() calls:
  /// exactly one data_generation() bump per touched relation per committed
  /// batch, however many rows the batch staged.
  void CommitStamp() { ++data_generation_; }

  /// \brief Undoes staged rows: TruncateTo without the data_generation()
  /// bump, legitimate only because rows staged by InsertStaged() since
  /// size `n` was recorded never published a stamp for anyone to observe.
  void RollbackStagedTo(size_t n) {
    if (n >= rows_.size()) return;
    SyncSet();
    for (size_t i = n; i < rows_.size(); ++i) set_.erase(rows_[i]);
    rows_.resize(n);
    indexes_.clear();
    ++generation_;
    ++shrinks_;
    memory_dirty_ = true;
  }

  /// \brief Restores the committed data stamp after a transactional
  /// rollback has returned the contents to exactly the state that carried
  /// stamp `g`. The caller must guarantee that match — the
  /// (uid, data_generation, size) ⇒ equal-contents contract depends on it.
  void RestoreDataGeneration(uint64_t g) { data_generation_ = g; }

  /// \brief Inserts every tuple of `other`; returns the number actually new.
  size_t InsertAll(const Relation& other) {
    Reserve(rows_.size() + other.size());
    size_t added = 0;
    for (const Tuple& t : other.rows_) {
      if (Insert(t)) ++added;
    }
    return added;
  }

  /// \brief Pre-sizes the row store and dedup set for `n` total tuples.
  void Reserve(size_t n) {
    rows_.reserve(n);
    set_.reserve(n);
  }

  bool Contains(const Tuple& t) const {
    SyncSet();
    return set_.count(t) > 0;
  }

  /// \brief Insertion-ordered rows.
  const std::vector<Tuple>& rows() const { return rows_; }

  /// \brief Rows in canonical (lexicographic) order; for diffing and
  /// printing.
  std::vector<Tuple> SortedRows() const {
    std::vector<Tuple> out = rows_;
    std::sort(out.begin(), out.end(), TupleLess());
    return out;
  }

  void Clear() {
    rows_.clear();
    set_.clear();
    set_stale_ = false;
    indexes_.clear();
    ++generation_;
    ++data_generation_;
    ++shrinks_;
    memory_dirty_ = true;
  }

  /// \brief Removes every row past the first `n` (insertion order),
  /// erasing them from the dedup set and discarding built indexes (the
  /// next Probe rebuilds). The rollback primitive for governed aborts:
  /// truncating to a pre-run size restores the relation's exact pre-run
  /// contents and iteration order. No-op when n >= size(). Invalidates
  /// outstanding ProbeResults.
  void TruncateTo(size_t n) {
    if (n >= rows_.size()) return;
    SyncSet();
    for (size_t i = n; i < rows_.size(); ++i) set_.erase(rows_[i]);
    rows_.resize(n);
    indexes_.clear();
    ++generation_;
    ++data_generation_;
    ++shrinks_;
    memory_dirty_ = true;
  }

  /// \brief Discards every built index (releases memory; the next Probe
  /// over a column set rebuilds from scratch). Invalidates outstanding
  /// ProbeResults.
  void DropIndexes() const {
    indexes_.clear();
    ++generation_;
    memory_dirty_ = true;
  }

  /// \brief Row indices whose values at `cols` equal `key` (parallel
  /// vectors). Builds a hash index over `cols` on first use; the index is
  /// maintained incrementally by subsequent inserts.
  ///
  /// `cols` must be strictly increasing column positions < arity(). See
  /// the file comment for the returned view's invalidation contract.
  ProbeResult Probe(const std::vector<uint32_t>& cols,
                    const Tuple& key) const {
    const Index& index = EnsureIndex(cols);
    auto it = index.find(key);
    return ProbeResult(it == index.end() ? nullptr : &it->second, this,
                       generation_);
  }

  /// \brief Ensures the hash index over `cols` exists without probing it.
  /// Parallel evaluation pre-builds every index a join plan needs so the
  /// subsequent multi-threaded Probe()s are pure reads.
  void BuildIndex(const std::vector<uint32_t>& cols) const {
    EnsureIndex(cols);
  }

  const Tuple& row(uint32_t i) const { return rows_[i]; }

  /// \brief True when the two relations hold the same set of tuples.
  bool SetEquals(const Relation& other) const {
    if (size() != other.size()) return false;
    for (const Tuple& t : rows_) {
      if (!other.Contains(t)) return false;
    }
    return true;
  }

  /// \brief Monotonic counter bumped by every structural change (insert,
  /// clear, index drop); backs ProbeResult::valid().
  uint64_t generation() const { return generation_; }

  /// \brief Monotonic counter bumped only by *data* changes — successful
  /// Insert, Clear, TruncateTo — never by index maintenance (DropIndexes
  /// bumps generation() but not this). The cache layer's invalidation key:
  /// equal (uid, data_generation, size) implies equal contents whenever
  /// the relation has only grown since the last observation.
  uint64_t data_generation() const { return data_generation_; }

  /// \brief Monotonic counter bumped only by *destructive* data changes —
  /// Clear, TruncateTo, RollbackStagedTo — never by inserts or index
  /// maintenance. The grow-only witness for incremental consumers
  /// (relation_stats.h): with uid and shrinks() unchanged and size() not
  /// smaller, every previously-observed row prefix is still intact and
  /// only appended rows need to be absorbed.
  uint64_t shrinks() const { return shrinks_; }

  /// \brief Process-unique id assigned by Database::Declare; never reused,
  /// so a Remove + re-Declare under the same name is distinguishable from
  /// the original relation even when counters coincide. 0 = unassigned
  /// (relation not owned by a Database).
  uint64_t uid() const { return uid_; }
  void set_uid(uint64_t uid) { uid_ = uid; }

  /// \brief Number of full from-scratch index builds (first Probe over a
  /// column set).
  uint64_t index_builds() const { return index_builds_; }
  /// \brief Number of incremental row appends into already-built indexes.
  uint64_t index_appends() const { return index_appends_; }

  /// \brief Estimated resident bytes of this relation: row store, dedup
  /// set, and built indexes.
  ///
  /// A *structural* estimate, deliberately computed from deterministic
  /// quantities only (row count, arity, built-index key counts) rather
  /// than allocator capacities, so resource gauges derived from it are
  /// byte-identical across num_threads settings — the same contract as
  /// EvalStats and the deterministic trace projection.
  ///
  /// Cached: mutations (insert, clear, truncate, index build/drop) mark
  /// the estimate dirty and the next call recomputes, so per-round
  /// resource gauges and metrics exports stop paying a full recompute
  /// over every unchanged relation.
  size_t MemoryBytes() const {
    if (!memory_dirty_) return memory_bytes_;
    // Row store: one Tuple header + arity values per row.
    size_t bytes = rows_.size() * (sizeof(Tuple) + arity_ * sizeof(Value));
    // Dedup set: per entry, a copy of the tuple plus ~2 words of
    // hash-table overhead (bucket slot + node link).
    bytes += rows_.size() *
             (sizeof(Tuple) + arity_ * sizeof(Value) + 2 * sizeof(void*));
    for (const auto& [cols, index] : indexes_) {
      // Per distinct key: the key tuple and a posting-list header.
      bytes += index.size() * (sizeof(Tuple) + cols.size() * sizeof(Value) +
                               sizeof(std::vector<uint32_t>) +
                               2 * sizeof(void*));
      // Every row appears in exactly one posting list of each index.
      bytes += rows_.size() * sizeof(uint32_t);
    }
    memory_bytes_ = bytes;
    memory_dirty_ = false;
    return bytes;
  }

 private:
  using Index = std::unordered_map<Tuple, std::vector<uint32_t>, TupleHash>;

  const Index& EnsureIndex(const std::vector<uint32_t>& cols) const {
    auto it = indexes_.find(cols);
    if (it != indexes_.end()) return it->second;
    ++index_builds_;
    memory_dirty_ = true;
    Index index;
    index.reserve(rows_.size());
    for (uint32_t i = 0; i < rows_.size(); ++i) {
      Tuple key;
      key.reserve(cols.size());
      for (uint32_t c : cols) key.push_back(rows_[i][c]);
      index[std::move(key)].push_back(i);
    }
    return indexes_.emplace(cols, std::move(index)).first->second;
  }

  void AppendToIndexes(const Tuple& t, uint32_t row_id) {
    for (auto& [cols, index] : indexes_) {
      Tuple key;
      key.reserve(cols.size());
      for (uint32_t c : cols) key.push_back(t[c]);
      index[std::move(key)].push_back(row_id);
      ++index_appends_;
    }
  }

  size_t arity_;
  std::vector<Tuple> rows_;
  mutable std::unordered_set<Tuple, TupleHash> set_;
  /// True while rows appended by AppendUnique() are missing from set_.
  mutable bool set_stale_ = false;
  // Built lazily on first probe, then maintained incrementally on insert.
  // Keyed by the column subset.
  mutable std::map<std::vector<uint32_t>, Index> indexes_;
  mutable uint64_t generation_ = 0;
  uint64_t data_generation_ = 0;
  uint64_t shrinks_ = 0;
  uint64_t uid_ = 0;
  mutable uint64_t index_builds_ = 0;
  uint64_t index_appends_ = 0;
  /// MemoryBytes() cache; dirtied by every mutation that changes the
  /// estimate (data changes and index builds/drops).
  mutable size_t memory_bytes_ = 0;
  mutable bool memory_dirty_ = true;
};

inline bool ProbeResult::valid() const {
  return rel_ == nullptr || rel_->generation() == generation_;
}

}  // namespace graphlog::storage

#endif  // GRAPHLOG_STORAGE_RELATION_H_
