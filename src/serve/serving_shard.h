#ifndef PRESTROID_SERVE_SERVING_SHARD_H_
#define PRESTROID_SERVE_SERVING_SHARD_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "cost/serving_estimator.h"
#include "plan/plan_limits.h"
#include "plan/plan_node.h"
#include "serve/answer_cache.h"
#include "serve/tenant_quota.h"
#include "util/histogram.h"
#include "util/memory_tracker.h"
#include "util/status.h"

namespace prestroid::serve {

/// Admission-queue and batching policy for one serving shard, applied
/// uniformly to every shard of a ShardedServingRuntime.
struct ServingRuntimeConfig {
  /// Bounded request queue; a Submit beyond this depth is rejected with
  /// kResourceExhausted instead of blocking the producer.
  size_t queue_depth = 256;
  /// Largest fused forward pass. The worker never waits for a batch to
  /// fill: it takes min(queued, max_batch) as soon as the queue is
  /// non-empty, so batches form only from requests that piled up while the
  /// previous batch ran. Every batch size, 1 included, takes the same path:
  /// answer cache, then one fused forward over the misses.
  size_t max_batch = 32;
  /// Answer-cache entries (plan fingerprint -> model-tier answer); 0
  /// disables the cache.
  size_t cache_entries = 1024;
  /// Resource governor ShardedServingRuntime::Submit applies to every plan
  /// *before* it is fingerprinted or featurized. Over-limit plans are
  /// rejected at admission (kInvalidArgument, counted in
  /// ServingStats::limit_rejects) so a hostile plan never reaches the
  /// hashing/encoding machinery.
  plan::PlanLimits plan_limits;
};

/// Admission charges riding along with one routed request: the tenant's
/// in-flight/scratch-quota slot and the box-level memory-tracker charge.
/// Released exactly once — when the request's promise resolves, or
/// immediately if the shard rejects the submission. A default-constructed
/// ticket releases nothing.
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
/// single batch-worker thread, a plan-fingerprint answer cache, and a
/// dedicated ServingEstimator. ShardedServingRuntime owns N >= 1 of them and
/// is the only caller of SubmitRouted and SwapPipelineLocked.
///
/// The facade SubmitRouted()s admitted plans. A plan whose model-tier answer
/// is cached resolves on the caller's thread, before the queue: no queue
/// wait, no featurization, no forward. Every other plan is queued; the
/// worker takes whatever is queued (up to max_batch) at once, answers plans
/// cached since they were queued, featurizes each remaining distinct plan
/// once, runs ONE fused eval-mode forward pass per batch, caches the finite
/// answers, and resolves the futures. Requests that cannot take the model
/// tier degrade per item through the estimator's fallback chain, so a batch
/// never fails wholesale.
///
/// The fused forward runs in eval mode (dropout off, batch-norm running
/// statistics, masked per-tree pooling), so each row's prediction is
/// independent of what else shares the batch: batched results equal
/// single-query EstimateWithFallback results regardless of arrival order.
///
/// Thread-safety: SubmitRouted/StatsSnapshot/LatencySnapshot/InvalidateCache
/// may be called from any thread. The estimator and the batch staging
/// vectors are confined to the worker thread (snapshot readers take the
/// serving lock the worker holds while serving a batch). The answer cache
/// has its own mutex, so a hit never waits behind an in-flight batch. The
/// estimator must not be used directly by other threads while the shard is
/// running.
///
/// Lifetime: submitted plans are borrowed, not copied — the caller must keep
/// a plan alive until its future resolves. The estimator must outlive the
/// shard.
class ServingShard {
 public:
  explicit ServingShard(cost::ServingEstimator* estimator,
                        ServingRuntimeConfig config = {});
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

  /// Serves one request the facade has already admitted: it ran the
  /// governor, computed `fingerprint` (used verbatim for the cache key, so
  /// identical plans routed to this shard share one answer), and charged the
  /// admission `ticket`. A cached answer is returned as a ready future while
  /// the request's deadline (measured from this call; <= 0 means the
  /// estimator's default) has time left; anything else is queued. Takes
  /// ownership of the ticket unconditionally — it is released when the
  /// promise resolves, or immediately on rejection. Returns
  /// kResourceExhausted when the queue is full (the request was never
  /// admitted) and kInvalidArgument after Shutdown().
  Result<std::future<cost::ServingEstimate>> SubmitRouted(
      const plan::PlanNode& plan, double deadline_ms, uint64_t fingerprint,
      ShardTicket ticket);

  /// Retires every cached answer (e.g. after catalog churn made old
  /// featurizations stale): bumps the cache generation and clears the cache.
  /// Waits for the in-flight batch, so no answer computed before the call is
  /// cached after it.
  void InvalidateCache();

  /// Installs the callback the worker runs once after every batch it
  /// resolves (nullptr removes it), after releasing the serving lock. The
  /// HTTP front end wakes its event loop with it. Cache hits resolve on the
  /// submitting thread and do not call it.
  void SetCompletionNotifier(std::function<void()> notifier);

  /// Acquires this shard's serving lock, blocking until the in-flight batch
  /// (if any) completes. ShardedServingRuntime::SwapPipelines locks every
  /// shard this way (in shard order — the only multi-shard lock site, so no
  /// deadlock), then exchanges pipelines via SwapPipelineLocked.
  std::unique_lock<std::mutex> LockServing() const {
    return std::unique_lock<std::mutex>(serve_mu_);
  }

  /// Replaces the estimator's model tier; the caller holds LockServing(), so
  /// the in-flight batch (if any) has finished on the old model. Attaches
  /// `pipeline`, resets the model-latency EWMA, bumps the answer-cache
  /// generation and clears the cache (no old model's answer is served after
  /// the swap), freezes the incoming pipeline into resident fp32 panels
  /// before the next batch can reach it, and returns the previous pipeline.
  /// Queued requests are never dropped: they run on whichever model is
  /// attached when their batch is served. `is_rollback` only selects which
  /// ServingStats counter (model_swaps vs model_rollbacks) the transition
  /// increments.
  std::unique_ptr<core::PrestroidPipeline> SwapPipelineLocked(
      std::unique_ptr<core::PrestroidPipeline> pipeline, bool is_rollback);

  /// Estimator counters merged with the shard's queue/cache counters.
  cost::ServingStats StatsSnapshot() const;

  /// End-to-end request latency distribution (milliseconds, including queue
  /// wait), over every resolved request: cache hits answered at submission
  /// and everything the worker resolved.
  LatencyHistogram LatencySnapshot() const;

  const ServingRuntimeConfig& config() const { return config_; }
  cost::ServingEstimator* estimator() { return estimator_; }

 private:
  struct PendingRequest {
    const plan::PlanNode* plan;
    double deadline_ms;
    std::chrono::steady_clock::time_point enqueue_time;
    /// Facade-computed plan fingerprint, the cache key's plan half.
    uint64_t fingerprint = 0;
    ShardTicket ticket;
    std::promise<cost::ServingEstimate> promise;
  };

  void WorkerLoop();
  /// Serves one drained batch under serve_mu_, then calls the completion
  /// notifier with the lock released.
  void ServeBatch(std::vector<PendingRequest>& batch);
  /// The batch itself (serve_mu_ held): per-item admission, answer-cache
  /// lookup and in-batch deduplication, one fused forward pass over the
  /// distinct misses, per-item fallback for the rest.
  void ServeBatchLocked(std::vector<PendingRequest>& batch);

  /// Freezes the attached pipeline, if any (serve_mu_ held). Called from
  /// Start() and SwapPipelineLocked, which covers swaps and rollbacks.
  void FreezePipelineLocked();

  /// Bumps the cache generation and clears the answer cache (serve_mu_
  /// held). Called from InvalidateCache and SwapPipelineLocked.
  void RetireCachedAnswersLocked();

  cost::ServingEstimator* estimator_;
  ServingRuntimeConfig config_;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;  // worker waits: work available / stop
  std::deque<PendingRequest> queue_;
  bool stop_ = false;
  size_t rejected_requests_ = 0;
  size_t queue_high_watermark_ = 0;

  /// Serializes worker access to the estimator + histogram + staging against
  /// snapshot readers and pipeline swaps. Lock order: serve_mu_, then
  /// cache_mu_.
  mutable std::mutex serve_mu_;
  LatencyHistogram latency_hist_;
  /// Requests the worker answered without their own featurization: from the
  /// answer cache, or sharing a duplicate's row of the batch.
  size_t batch_cache_hits_ = 0;
  /// Featurizations run (ServingStats::cache_misses).
  size_t featurizations_ = 0;
  size_t model_swaps_ = 0;
  size_t model_rollbacks_ = 0;
  std::function<void()> completion_notifier_;

  /// Guards the answer cache and the accounting of hits answered at
  /// submission, which the estimator never sees. The hit path takes this
  /// lock (and queue_mu_, briefly), never serve_mu_.
  mutable std::mutex cache_mu_;
  AnswerCache cache_;
  /// Written with serve_mu_ and cache_mu_ both held, so either one suffices
  /// to read it.
  uint64_t cache_generation_ = 0;
  size_t submit_cache_hits_ = 0;
  LatencyHistogram submit_hit_latency_hist_;
  /// Per-request staging of the batch being served, resized per batch and
  /// reused across batches. Worker-confined under serve_mu_.
  std::vector<double> deadline_ms_;
  /// The forward row each request reads its answer from (or "resolved").
  std::vector<size_t> row_of_;
  /// Per forward row: its plan's fingerprint and featurization time.
  std::vector<uint64_t> row_fingerprint_;
  std::vector<double> row_featurize_ms_;

  std::thread worker_;
  bool started_ = false;
};

}  // namespace prestroid::serve

#endif  // PRESTROID_SERVE_SERVING_SHARD_H_
