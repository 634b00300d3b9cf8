#ifndef PRESTROID_UTIL_THREAD_POOL_H_
#define PRESTROID_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace prestroid {

/// Fixed-size worker pool built around one primitive: ParallelFor with
/// deterministic static partitioning.
///
/// A pool of size T keeps T-1 background workers; the calling thread always
/// executes the first chunk itself (and helps drain the queue afterwards), so
/// `ThreadPool(1)` spawns no threads and runs everything inline. The chunk
/// boundaries of ParallelFor depend only on (begin, end, grain, T) — never on
/// scheduling — which is what makes parallel reductions reproducible
/// run-to-run at a fixed thread count (see DESIGN.md, determinism contract).
class ThreadPool {
 public:
  /// num_threads == 0 picks the hardware concurrency.
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution lanes, including the calling thread.
  size_t num_threads() const { return workers_.size() + 1; }

  /// Computes the static partition of [begin, end) into at most
  /// num_threads() contiguous chunks of at least `grain` items each.
  /// Deterministic: depends only on the arguments and the pool size.
  std::vector<std::pair<size_t, size_t>> Partition(size_t begin, size_t end,
                                                   size_t grain) const;

  /// Runs fn(chunk_begin, chunk_end) over the static partition of
  /// [begin, end), blocking until every chunk finished. Chunks are disjoint
  /// and cover the range exactly once. The first exception thrown by any
  /// chunk is rethrown on the calling thread after all chunks complete.
  /// Nested calls (from inside a chunk) degrade to inline serial execution.
  void ParallelFor(size_t begin, size_t end, size_t grain,
                   const std::function<void(size_t, size_t)>& fn);

  /// The CPUs this process may run on (its affinity mask on Linux, else
  /// std::thread::hardware_concurrency()); at least 1.
  static size_t HardwareConcurrency();

 private:
  void WorkerLoop();
  /// Pops and runs one queued task; returns false if the queue was empty.
  bool RunOneTask();

  std::vector<std::thread> workers_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
};

}  // namespace prestroid

#endif  // PRESTROID_UTIL_THREAD_POOL_H_
