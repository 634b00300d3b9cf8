#ifndef PRESTROID_TENSOR_EXECUTION_CONTEXT_H_
#define PRESTROID_TENSOR_EXECUTION_CONTEXT_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "tensor/kernels/kernel_backend.h"
#include "tensor/tensor.h"
#include "util/thread_pool.h"

namespace prestroid {

/// Cumulative per-context execution counters. Monotonic except through
/// ResetStats; cheap enough to leave on unconditionally.
struct ExecStats {
  /// Floating-point operations issued by the tensor kernels (multiply-add
  /// counts as two).
  uint64_t flops = 0;
  /// Number of kernel invocations routed through this context.
  uint64_t op_invocations = 0;
  /// Total bytes of scratch tensors ever allocated by the arena.
  uint64_t scratch_bytes_allocated = 0;
  /// High-water mark of simultaneously checked-out scratch bytes.
  uint64_t peak_scratch_bytes = 0;
};

/// Shared execution state threaded through the numeric stack: a thread pool
/// for ParallelFor kernels, a scratch-tensor arena that recycles workspace
/// buffers across batches, and per-op counters.
///
/// One context is constructed per pipeline (or per serving estimator, where
/// it defaults to 1 thread for predictable latency) and handed down by raw
/// pointer — layers never own it. A context with num_threads() == 1 runs
/// every kernel inline with the exact serial loop order, which is what makes
/// `threads=1` bit-identical to the pre-context substrate.
///
/// Threading contract: the scratch arena and the counters are owned by the
/// launching thread. Kernels running inside ParallelFor chunks must not call
/// AcquireScratch/ReleaseScratch or the Add* counters; callers acquire
/// scratch and tally flops before/after the parallel region instead.
class ExecutionContext {
 public:
  /// num_threads == 0 picks the hardware concurrency; 1 spawns no workers.
  explicit ExecutionContext(size_t num_threads = 1);
  ~ExecutionContext();

  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  size_t num_threads() const { return pool_ ? pool_->num_threads() : 1; }

  /// Deterministic static partition of [begin, end); see ThreadPool.
  std::vector<std::pair<size_t, size_t>> Partition(size_t begin, size_t end,
                                                   size_t grain) const;

  /// Runs fn over the static partition of [begin, end). With one thread (or
  /// a single chunk) this is an inline call to fn(begin, end).
  void ParallelFor(size_t begin, size_t end, size_t grain,
                   const std::function<void(size_t, size_t)>& fn);

  /// Checks a zero-filled tensor of the given shape out of the arena,
  /// recycling a previously released buffer when one is large enough.
  /// Launching thread only.
  Tensor AcquireScratch(const std::vector<size_t>& shape);

  /// Returns a scratch tensor to the arena for reuse.
  void ReleaseScratch(Tensor tensor);

  /// Kernel backend for every op routed through this context (scalar
  /// reference vs blocked SIMD; see tensor/kernels/). Starts at
  /// DefaultKernelBackend(); the setter exists for tests and benches that
  /// compare the two. Ops called with a null context always take the scalar
  /// path.
  KernelBackend kernel() const { return kernel_; }
  void set_kernel(KernelBackend kernel) { kernel_ = kernel; }

  const ExecStats& stats() const { return stats_; }
  void ResetStats() { stats_ = ExecStats{}; }
  void AddFlops(uint64_t flops) { stats_.flops += flops; }
  void AddOp() { ++stats_.op_invocations; }

  /// Process-wide serial (1-thread) context for layers that were never bound
  /// to a pipeline context. Its stats are shared; callers that care about
  /// counters should bind their own context.
  static ExecutionContext* Serial();

 private:
  std::unique_ptr<ThreadPool> pool_;  // null when num_threads == 1
  KernelBackend kernel_ = DefaultKernelBackend();
  std::vector<Tensor> free_scratch_;
  uint64_t live_scratch_bytes_ = 0;
  ExecStats stats_;
};

}  // namespace prestroid

#endif  // PRESTROID_TENSOR_EXECUTION_CONTEXT_H_
