#ifndef PRESTROID_SERVE_SERVING_SHARD_H_
#define PRESTROID_SERVE_SERVING_SHARD_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "cost/serving_estimator.h"
#include "plan/plan_limits.h"
#include "plan/plan_node.h"
#include "serve/plan_cache.h"
#include "serve/tenant_quota.h"
#include "util/histogram.h"
#include "util/memory_tracker.h"
#include "util/status.h"

namespace prestroid::serve {

/// Admission-queue and batching policy for one serving shard (and, via the
/// single-shard ServingRuntime wrapper, for the whole legacy runtime).
struct ServingRuntimeConfig {
  /// Bounded request queue; a Submit beyond this depth is rejected with
  /// kResourceExhausted instead of blocking the producer.
  size_t queue_depth = 256;
  /// Largest fused forward pass. Every batch size, 1 included, takes the
  /// same path: fingerprint cache, then one fused forward.
  size_t max_batch = 32;
  /// After the first request of a batch arrives, how long the worker waits
  /// for the batch to fill before running a partial one. 0 = never wait
  /// (drain whatever is queued).
  size_t batch_window_us = 200;
  /// Plan-fingerprint cache entries; 0 disables the cache.
  size_t cache_entries = 1024;
  /// Resource governor applied to every submitted plan *before* it is
  /// fingerprinted or featurized. Over-limit plans are rejected at admission
  /// (kInvalidArgument, counted in ServingStats::limit_rejects) so a hostile
  /// plan never reaches the hashing/encoding machinery.
  plan::PlanLimits plan_limits;
};

/// Admission charges riding along with one routed request: the tenant's
/// in-flight/scratch-quota slot and the box-level memory-tracker charge.
/// Released exactly once — when the request's promise resolves, or
/// immediately if the shard rejects the submission. Default-constructed
/// tickets (direct single-shard submissions) release nothing.
struct ShardTicket {
  TenantQuotaTable* quotas = nullptr;
  TenantId tenant = 0;
  MemoryTracker* memory = nullptr;
  size_t charged_bytes = 0;

  void Release() {
    if (quotas != nullptr) {
      quotas->Release(tenant, charged_bytes);
      quotas = nullptr;
    }
    if (memory != nullptr) {
      memory->Release(charged_bytes);
      memory = nullptr;
    }
  }
};

/// One shard of the batched serving tier: a bounded MPMC admission queue, a
/// single batch-worker thread, a plan-fingerprint feature cache, and a
/// dedicated ServingEstimator — the complete single-runtime serving engine,
/// packaged so ShardedServingRuntime can own N of them.
///
/// Producers Submit() plans into the queue and receive futures; the worker
/// drains under the batch-window / max-batch policy, featurizes each
/// distinct plan once (fingerprint LRU cache), runs ONE fused eval-mode
/// forward pass per batch, and resolves the futures. Requests that cannot
/// take the model tier degrade per item through the estimator's fallback
/// chain, so a batch never fails wholesale.
///
/// The fused forward runs in eval mode (dropout off, batch-norm running
/// statistics, masked per-tree pooling), so each row's prediction is
/// independent of what else shares the batch: batched results equal
/// single-query EstimateWithFallback results regardless of arrival order.
///
/// Thread-safety: Submit/SubmitRouted/EstimateBlocking/StatsSnapshot/
/// LatencySnapshot/InvalidateCache may be called from any thread. The
/// estimator, cache, and scratch arena are confined to the worker thread
/// (snapshot readers take the same lock the worker holds while serving a
/// batch). The estimator must not be used directly by other threads while
/// the shard is running.
///
/// Lifetime: submitted plans are borrowed, not copied — the caller must keep
/// a plan alive until its future resolves. The estimator (and the tracker, if
/// any) must outlive the shard.
class ServingShard {
 public:
  /// `memory` (optional) tracks the shard's featurization scratch arena; the
  /// arena's block capacity is charged via MemoryTracker::Charge (the
  /// admission-time per-request charge is the enforcement point).
  explicit ServingShard(cost::ServingEstimator* estimator,
                        ServingRuntimeConfig config = {},
                        MemoryTracker* memory = nullptr);
  ~ServingShard();

  ServingShard(const ServingShard&) = delete;
  ServingShard& operator=(const ServingShard&) = delete;

  /// Freezes the attached pipeline's weights into resident fp32 panels
  /// (DESIGN.md §5.8) and spawns the batch worker. Submissions made before
  /// Start() sit in the queue (admission control applies) and are served
  /// once it runs.
  /// Restartable: Start() after Shutdown() reopens admission and resets the
  /// queue high-watermark, so each run reports its own peak.
  Status Start();

  /// Stops accepting work, drains every queued request (resolving its
  /// future), and joins the worker. If Start() was never called the drain
  /// happens inline on the calling thread. Idempotent; Start() may be called
  /// again afterwards.
  void Shutdown();

  /// Enqueues one estimate request, running the PlanLimits governor first (a
  /// rejected plan is never fingerprinted). Returns kResourceExhausted
  /// immediately when the queue is full (the request was never admitted),
  /// kInvalidArgument when the plan fails the governor (counted in
  /// limit_rejects), and kInvalidArgument after Shutdown(). deadline_ms <= 0
  /// uses the estimator's configured default; the deadline covers queue wait
  /// + compute.
  Result<std::future<cost::ServingEstimate>> Submit(const plan::PlanNode& plan,
                                                    double deadline_ms = 0.0);

  /// Sharded-tier entry point: the facade has already run the governor,
  /// computed `fingerprint` (used verbatim for the cache key, so identical
  /// plans routed to this shard share one featurization), and charged the
  /// admission `ticket`. Takes ownership of the ticket unconditionally — it
  /// is released when the promise resolves, or immediately on rejection.
  Result<std::future<cost::ServingEstimate>> SubmitRouted(
      const plan::PlanNode& plan, double deadline_ms, uint64_t fingerprint,
      ShardTicket ticket);

  /// Blocking convenience wrapper: waits for queue space if necessary (so it
  /// never sheds load), then waits for the result. Requires a running
  /// worker — called between construction and Start() it returns
  /// kFailedPrecondition instead of deadlocking once the queue fills. After
  /// Shutdown() it serves inline on the calling thread (the worker is gone,
  /// so this is race-free).
  Result<cost::ServingEstimate> EstimateBlocking(const plan::PlanNode& plan,
                                                 double deadline_ms = 0.0);

  /// Retires every cached plan encoding (e.g. after catalog churn or a
  /// pipeline swap made old featurizations stale).
  void InvalidateCache();

  /// Atomically replaces the estimator's model tier while the shard keeps
  /// serving (RCU-style): blocks until the in-flight batch (if any) finishes
  /// on the old model, attaches `pipeline`, resets the model-latency EWMA,
  /// bumps the feature-cache generation (stale featurizations can never
  /// reach the new model), and returns the previous pipeline so the caller
  /// can retain it for instant rollback. Queued requests are never dropped:
  /// they simply run on whichever model is attached when their batch is
  /// served. The incoming pipeline is frozen into resident fp32 panels before
  /// the next batch can reach it. Passing nullptr detaches the model tier
  /// (the degradation chain keeps answering). `is_rollback` only selects
  /// which ServingStats counter (model_swaps vs model_rollbacks) the
  /// transition increments.
  ///
  /// Instrumented with FaultSite::kModelSwap: an injected fault aborts the
  /// swap before any state is touched, proving a crashed swap leaves the
  /// active model, cache, and generation fully intact.
  Result<std::unique_ptr<core::PrestroidPipeline>> SwapPipeline(
      std::unique_ptr<core::PrestroidPipeline> pipeline,
      bool is_rollback = false);

  /// Acquires this shard's serving lock, blocking until the in-flight batch
  /// (if any) completes. The cross-shard swap path locks every shard this
  /// way (in shard order — the only multi-shard lock site, so no deadlock),
  /// then exchanges pipelines via SwapPipelineLocked.
  std::unique_lock<std::mutex> LockServing() const {
    return std::unique_lock<std::mutex>(serve_mu_);
  }

  /// The mutation body of SwapPipeline, for callers already holding
  /// LockServing() (no fault-injection check — the caller performs one check
  /// for the whole multi-shard transaction).
  std::unique_ptr<core::PrestroidPipeline> SwapPipelineLocked(
      std::unique_ptr<core::PrestroidPipeline> pipeline, bool is_rollback);

  /// Estimator counters merged with the shard's queue/cache counters.
  cost::ServingStats StatsSnapshot() const;

  /// End-to-end request latency distribution (milliseconds, including queue
  /// wait), over every request the worker has resolved.
  LatencyHistogram LatencySnapshot() const;

  const ServingRuntimeConfig& config() const { return config_; }
  cost::ServingEstimator* estimator() { return estimator_; }

  /// High-water mark of the worker's scratch-arena usage (bytes), for the
  /// facade's memory observability.
  size_t arena_peak_bytes() const;

  /// Arena block capacity currently charged against the box MemoryTracker.
  /// Retained across Reset by design — this is the shard's steady-state
  /// memory footprint, not a leak.
  size_t arena_capacity_bytes() const;

  /// Bytes of the attached pipeline's resident weight panels; 0 with no
  /// pipeline.
  size_t resident_weight_bytes() const;

 private:
  struct PendingRequest {
    const plan::PlanNode* plan;
    double deadline_ms;
    std::chrono::steady_clock::time_point enqueue_time;
    /// Facade-precomputed plan fingerprint (SubmitRouted); when absent the
    /// worker hashes the plan itself (direct Submit path).
    uint64_t fingerprint = 0;
    bool has_fingerprint = false;
    ShardTicket ticket;
    std::promise<cost::ServingEstimate> promise;
  };

  Result<std::future<cost::ServingEstimate>> Enqueue(const plan::PlanNode& plan,
                                                     double deadline_ms,
                                                     uint64_t fingerprint,
                                                     bool has_fingerprint,
                                                     ShardTicket ticket);

  void WorkerLoop();
  /// Serves one drained batch: per-item admission + cache lookup, one fused
  /// forward pass for the admitted items, per-item fallback for the rest.
  void ServeBatch(std::vector<PendingRequest>& batch);

  /// Freezes the attached pipeline, if any (serve_mu_ held). Called from
  /// Start() and SwapPipelineLocked, which covers swaps and rollbacks.
  void FreezePipelineLocked();

  cost::ServingEstimator* estimator_;
  ServingRuntimeConfig config_;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;  // worker waits: work available / stop
  std::condition_variable space_cv_;  // EstimateBlocking waits: queue has room
  std::deque<PendingRequest> queue_;
  bool stop_ = false;
  size_t rejected_requests_ = 0;
  size_t limit_rejects_ = 0;
  size_t queue_high_watermark_ = 0;

  /// Serializes worker access to the estimator + cache + histogram + arena
  /// against snapshot readers and pipeline swaps.
  mutable std::mutex serve_mu_;
  PlanFeatureCache cache_;
  uint64_t cache_generation_ = 0;
  LatencyHistogram latency_hist_;
  size_t model_swaps_ = 0;
  size_t model_rollbacks_ = 0;
  /// Per-batch staging storage (deadline/pointer arrays), reset per batch and
  /// charged against the box-level tracker. Worker-confined under serve_mu_.
  ScratchArena arena_;

  std::thread worker_;
  bool started_ = false;
};

}  // namespace prestroid::serve

#endif  // PRESTROID_SERVE_SERVING_SHARD_H_
