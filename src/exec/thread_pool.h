// A small reusable fork-join thread pool.
//
// The evaluation engine (eval/engine.cc) and the columnar TC kernel it
// dispatches closures to (tc/columnar_tc.cc) both fan data-parallel work
// over a fixed set of worker lanes and then merge per-item results
// deterministically. This
// pool provides exactly that primitive: ParallelFor dispatches a dense
// index range across lanes through a shared work counter and blocks until
// every index has run. Work items must not assume any ordering — callers
// that need deterministic output keep per-item (or per-lane) buffers and
// merge them in index order after ParallelFor returns.

#ifndef GRAPHLOG_EXEC_THREAD_POOL_H_
#define GRAPHLOG_EXEC_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace graphlog::exec {

/// \brief A fork-join pool with a fixed parallelism degree.
///
/// A pool with parallelism P owns P-1 background threads; the thread
/// calling ParallelFor is the P-th lane, so a pool never leaves its
/// caller idle. Lanes are identified by a stable worker id in [0, P),
/// letting callers keep per-lane scratch state without locking.
///
/// ParallelFor calls must not be nested: one batch runs at a time, and
/// the callback must not call back into the same pool.
class ThreadPool {
 public:
  /// \brief Creates a pool with `parallelism` lanes (clamped to >= 1;
  /// with 1 lane every ParallelFor runs inline on the caller).
  explicit ThreadPool(unsigned parallelism);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned parallelism() const { return parallelism_; }

  /// \brief Runs fn(worker, index) for every index in [0, n), spread
  /// across all lanes (`worker` < parallelism()); returns once every
  /// index has completed. Indices are claimed dynamically, so callers
  /// must not rely on which lane runs which index.
  ///
  /// When `stop` is non-null, every lane re-reads it (relaxed) before
  /// claiming each index and stops claiming once it is true — the
  /// cooperative-cancellation hook of the query governor: latency from a
  /// cancel to the pool going quiet is bounded by one in-flight work
  /// item, not by the batch. Already-claimed items still complete, and
  /// ParallelFor still joins every lane before returning, so the caller
  /// may inspect per-item buffers safely afterwards. Indices skipped by a
  /// stop are simply never run.
  void ParallelFor(size_t n,
                   const std::function<void(unsigned worker, size_t index)>& fn,
                   const std::atomic<bool>* stop = nullptr);

  /// \brief Maps an options knob to a lane count: 0 means hardware
  /// concurrency, any other value is used as-is.
  static unsigned ResolveParallelism(unsigned requested);

 private:
  void WorkerLoop(unsigned worker);
  void RunBatch(unsigned worker);

  const unsigned parallelism_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers wait here for a new batch
  std::condition_variable done_cv_;  // ParallelFor waits here for completion
  uint64_t batch_epoch_ = 0;         // guarded by mu_
  unsigned workers_busy_ = 0;        // guarded by mu_
  bool shutdown_ = false;            // guarded by mu_

  // Current batch. Published under mu_ (with the epoch bump) before the
  // workers wake, so reads after the epoch check are race-free.
  const std::function<void(unsigned, size_t)>* batch_fn_ = nullptr;
  size_t batch_n_ = 0;
  const std::atomic<bool>* batch_stop_ = nullptr;
  std::atomic<size_t> batch_next_{0};
};

}  // namespace graphlog::exec

#endif  // GRAPHLOG_EXEC_THREAD_POOL_H_
