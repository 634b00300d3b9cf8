#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#ifdef __linux__
#include <sched.h>
#endif

#include "util/logging.h"

namespace prestroid {

namespace {

/// Depth guard: ParallelFor issued from inside a chunk (worker thread or the
/// caller executing its own chunk) must not deadlock waiting on the same
/// worker set, so nested calls run serially inline.
thread_local int tl_parallel_depth = 0;

/// Completion state shared by the chunks of one ParallelFor call.
struct CallState {
  std::atomic<size_t> remaining;
  std::mutex mu;
  std::condition_variable done_cv;
  std::exception_ptr error;

  explicit CallState(size_t chunks) : remaining(chunks) {}

  void FinishOne() {
    if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(mu);
      done_cv.notify_all();
    }
  }

  void RecordError(std::exception_ptr eptr) {
    std::lock_guard<std::mutex> lock(mu);
    if (!error) error = std::move(eptr);
  }
};

}  // namespace

size_t ThreadPool::HardwareConcurrency() {
#ifdef __linux__
  // The CPUs this process may run on, which a cpuset or taskset can make
  // fewer than the host's.
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    const int count = CPU_COUNT(&allowed);
    if (count > 0) return static_cast<size_t>(count);
  }
#endif
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = HardwareConcurrency();
  workers_.reserve(num_threads - 1);
  for (size_t i = 0; i + 1 < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  ++tl_parallel_depth;  // chunks on workers must not re-enter the pool
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

bool ThreadPool::RunOneTask() {
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop_front();
  }
  task();
  return true;
}

std::vector<std::pair<size_t, size_t>> ThreadPool::Partition(
    size_t begin, size_t end, size_t grain) const {
  std::vector<std::pair<size_t, size_t>> chunks;
  if (end <= begin) return chunks;
  const size_t n = end - begin;
  const size_t g = std::max<size_t>(grain, 1);
  const size_t max_chunks = std::min(num_threads(), (n + g - 1) / g);
  const size_t chunk_size = (n + max_chunks - 1) / max_chunks;
  for (size_t lo = begin; lo < end; lo += chunk_size) {
    chunks.emplace_back(lo, std::min(end, lo + chunk_size));
  }
  return chunks;
}

void ThreadPool::ParallelFor(size_t begin, size_t end, size_t grain,
                             const std::function<void(size_t, size_t)>& fn) {
  if (end <= begin) return;
  std::vector<std::pair<size_t, size_t>> chunks = Partition(begin, end, grain);
  if (chunks.size() <= 1 || tl_parallel_depth > 0) {
    fn(begin, end);
    return;
  }

  auto state = std::make_shared<CallState>(chunks.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    PRESTROID_CHECK(!stop_);
    // Chunk 0 is reserved for the calling thread.
    for (size_t c = 1; c < chunks.size(); ++c) {
      const auto [lo, hi] = chunks[c];
      queue_.emplace_back([state, &fn, lo = lo, hi = hi] {
        try {
          fn(lo, hi);
        } catch (...) {
          state->RecordError(std::current_exception());
        }
        state->FinishOne();
      });
    }
  }
  work_cv_.notify_all();

  ++tl_parallel_depth;
  try {
    fn(chunks[0].first, chunks[0].second);
  } catch (...) {
    state->RecordError(std::current_exception());
  }
  state->FinishOne();
  // Help drain the queue (our chunks or those of a concurrent call), then
  // sleep until every chunk of this call has completed.
  while (state->remaining.load(std::memory_order_acquire) > 0) {
    if (!RunOneTask()) {
      std::unique_lock<std::mutex> lock(state->mu);
      state->done_cv.wait(lock, [&state] {
        return state->remaining.load(std::memory_order_acquire) == 0;
      });
    }
  }
  --tl_parallel_depth;

  if (state->error) std::rethrow_exception(state->error);
}

}  // namespace prestroid
