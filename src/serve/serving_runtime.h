#ifndef PRESTROID_SERVE_SERVING_RUNTIME_H_
#define PRESTROID_SERVE_SERVING_RUNTIME_H_

#include <future>
#include <memory>
#include <vector>

#include "cost/serving_estimator.h"
#include "plan/plan_node.h"
#include "serve/serving_host.h"
#include "serve/serving_shard.h"
#include "util/histogram.h"
#include "util/status.h"

namespace prestroid::serve {

/// Concurrent batched serving front end over a ServingEstimator: the
/// single-shard configuration of the serving tier.
///
/// All queueing, batching, caching, and swap mechanics live in ServingShard
/// (serve/serving_shard.h); this class pins exactly one shard behind the
/// historical single-runtime API and implements ServingHost so the model
/// lifecycle manager can promote against it and a sharded tier
/// interchangeably. ShardedServingRuntime (serve/sharded_runtime.h) is the
/// multi-core, multi-tenant composition of the same shard.
///
/// Thread-safety and lifetime contracts are the shard's: Submit/Estimate/
/// snapshots from any thread; submitted plans are borrowed until their
/// future resolves; the estimator must outlive the runtime.
class ServingRuntime : public ServingHost {
 public:
  explicit ServingRuntime(cost::ServingEstimator* estimator,
                          ServingRuntimeConfig config = {})
      : shard_(estimator, config) {}

  ServingRuntime(const ServingRuntime&) = delete;
  ServingRuntime& operator=(const ServingRuntime&) = delete;

  /// Spawns the batch worker. Submissions made before Start() sit in the
  /// queue (admission control applies) and are served once it runs.
  /// Restartable after Shutdown(); each run reports its own queue
  /// high-watermark.
  Status Start() { return shard_.Start(); }

  /// Stops accepting work, drains every queued request (resolving its
  /// future), and joins the worker. If Start() was never called the drain
  /// happens inline on the calling thread. Idempotent.
  void Shutdown() { shard_.Shutdown(); }

  /// Enqueues one estimate request. Returns kResourceExhausted immediately
  /// when the queue is full (the request was never admitted),
  /// kInvalidArgument when the plan fails the PlanLimits governor (counted
  /// in limit_rejects), and kInvalidArgument after Shutdown(). deadline_ms
  /// <= 0 uses the estimator's configured default; the deadline covers queue
  /// wait + compute.
  Result<std::future<cost::ServingEstimate>> Submit(const plan::PlanNode& plan,
                                                    double deadline_ms = 0.0) {
    return shard_.Submit(plan, deadline_ms);
  }

  /// Blocking convenience wrapper: waits for queue space if necessary (so it
  /// never sheds load), then waits for the result. Requires a running
  /// worker — called without Start() it returns kFailedPrecondition instead
  /// of deadlocking once the queue fills. After Shutdown() it serves inline.
  Result<cost::ServingEstimate> Estimate(const plan::PlanNode& plan,
                                         double deadline_ms = 0.0) {
    return shard_.EstimateBlocking(plan, deadline_ms);
  }

  /// Retires every cached plan encoding (e.g. after catalog churn or a
  /// pipeline swap made old featurizations stale).
  void InvalidateCache() { shard_.InvalidateCache(); }

  /// Atomically replaces the estimator's model tier while the runtime keeps
  /// serving; see ServingShard::SwapPipeline for the full RCU-style and
  /// fault-injection contract.
  Result<std::unique_ptr<core::PrestroidPipeline>> SwapPipeline(
      std::unique_ptr<core::PrestroidPipeline> pipeline,
      bool is_rollback = false) {
    return shard_.SwapPipeline(std::move(pipeline), is_rollback);
  }

  /// Estimator counters merged with the runtime's queue/cache counters.
  cost::ServingStats StatsSnapshot() const override {
    return shard_.StatsSnapshot();
  }

  /// End-to-end request latency distribution (milliseconds, including queue
  /// wait), over every request the worker has resolved.
  LatencyHistogram LatencySnapshot() const { return shard_.LatencySnapshot(); }

  const ServingRuntimeConfig& config() const { return shard_.config(); }

  /// Direct shard access for tests and per-shard observability (resident
  /// weight bytes, arena counters).
  ServingShard& shard() { return shard_; }
  const ServingShard& shard() const { return shard_; }

  // --- ServingHost ---------------------------------------------------------

  size_t ShardCount() const override { return 1; }

  /// Single-shard swap transaction: expects exactly one pipeline and returns
  /// the one previous pipeline, with the same fault-injection semantics as
  /// SwapPipeline.
  Result<std::vector<std::unique_ptr<core::PrestroidPipeline>>> SwapPipelines(
      std::vector<std::unique_ptr<core::PrestroidPipeline>> pipelines,
      bool is_rollback) override {
    if (pipelines.size() != 1) {
      return Status::InvalidArgument(
          "single-shard runtime expects exactly 1 pipeline, got " +
          std::to_string(pipelines.size()));
    }
    auto swapped = shard_.SwapPipeline(std::move(pipelines[0]), is_rollback);
    if (!swapped.ok()) return swapped.status();
    std::vector<std::unique_ptr<core::PrestroidPipeline>> previous;
    previous.push_back(std::move(*swapped));
    return previous;
  }

 private:
  ServingShard shard_;
};

}  // namespace prestroid::serve

#endif  // PRESTROID_SERVE_SERVING_RUNTIME_H_
