#ifndef PRESTROID_TENSOR_EXECUTION_CONTEXT_H_
#define PRESTROID_TENSOR_EXECUTION_CONTEXT_H_

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "tensor/tensor.h"
#include "util/thread_pool.h"

namespace prestroid {

/// Model stages whose wall clock ExecStats tracks per direction. The loss's
/// "forward" is its value and its "backward" the gradient; the optimizer
/// only runs backward (the parameter update).
enum class LayerKind {
  kTreeConv,
  kPooling,
  kDenseHead,
  kLoss,
  kOptimizer,
};
inline constexpr size_t kNumLayerKinds = 5;

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
  /// Wall-clock nanoseconds spent per LayerKind, indexed by the enum value.
  uint64_t forward_ns[kNumLayerKinds] = {};
  uint64_t backward_ns[kNumLayerKinds] = {};

  uint64_t forward_ns_of(LayerKind kind) const {
    return forward_ns[static_cast<size_t>(kind)];
  }
  uint64_t backward_ns_of(LayerKind kind) const {
    return backward_ns[static_cast<size_t>(kind)];
  }
};

/// Shared execution state threaded through the numeric stack: a thread pool
/// for ParallelFor kernels, a scratch-tensor arena that recycles workspace
/// buffers across batches, and per-op counters.
///
/// One context is constructed per pipeline (or per serving estimator, where
/// it defaults to 1 thread for predictable latency) and handed down by raw
/// pointer — layers never own it. A context with num_threads() == 1 runs
/// every kernel inline; the row-partitioned kernels give the same bits at any
/// thread count (DESIGN.md §5.2).
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

  const ExecStats& stats() const { return stats_; }
  void ResetStats() { stats_ = ExecStats{}; }
  void AddFlops(uint64_t flops) { stats_.flops += flops; }
  void AddOp() { ++stats_.op_invocations; }
  void AddLayerNanos(LayerKind kind, bool backward, uint64_t ns) {
    (backward ? stats_.backward_ns : stats_.forward_ns)[static_cast<size_t>(
        kind)] += ns;
  }

  /// Process-wide serial (1-thread) context for layers that were never bound
  /// to a pipeline context. Its stats are shared; callers that care about
  /// counters should bind their own context.
  static ExecutionContext* Serial();

 private:
  std::unique_ptr<ThreadPool> pool_;  // null when num_threads == 1
  std::vector<Tensor> free_scratch_;
  uint64_t live_scratch_bytes_ = 0;
  ExecStats stats_;
};

/// Rows per ParallelFor chunk for a kernel whose output rows cost
/// `row_cost_flops` each: at least one, and otherwise about 2^15 flops per
/// chunk, so tiny shapes (a serving batch of one) stay inline on the caller.
inline size_t RowGrain(size_t row_cost_flops) {
  constexpr size_t kGrainFlops = size_t{1} << 15;
  return std::max<size_t>(1, kGrainFlops / std::max<size_t>(1, row_cost_flops));
}

/// Adds the wall clock of its scope to `ctx`'s per-layer counters (launching
/// thread only, like every counter). A null context records nothing.
class LayerTimer {
 public:
  LayerTimer(ExecutionContext* ctx, LayerKind kind, bool backward)
      : ctx_(ctx),
        kind_(kind),
        backward_(backward),
        start_(std::chrono::steady_clock::now()) {}
  ~LayerTimer() {
    if (ctx_ == nullptr) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    ctx_->AddLayerNanos(
        kind_, backward_,
        static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                .count()));
  }

  LayerTimer(const LayerTimer&) = delete;
  LayerTimer& operator=(const LayerTimer&) = delete;

 private:
  ExecutionContext* ctx_;
  LayerKind kind_;
  bool backward_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace prestroid

#endif  // PRESTROID_TENSOR_EXECUTION_CONTEXT_H_
