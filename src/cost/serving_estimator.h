#ifndef PRESTROID_COST_SERVING_ESTIMATOR_H_
#define PRESTROID_COST_SERVING_ESTIMATOR_H_

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "baselines/log_binning.h"
#include "core/label_transform.h"
#include "core/pipeline.h"
#include "plan/plan_node.h"
#include "plan/plan_stats.h"
#include "util/status.h"
#include "workload/trace.h"

namespace prestroid::cost {

/// Which rung of the degradation chain produced an estimate.
enum class ServingTier {
  kModel = 0,      // the trained Prestroid pipeline
  kLogBinning,     // node-count log-binning baseline
  kGlobalMean,     // mean training cost — always available, always finite
};
inline constexpr size_t kNumServingTiers = 3;

const char* ServingTierToString(ServingTier tier);

/// Input-validation and latency limits enforced per request.
struct ServingLimits {
  /// Plans larger/deeper than this skip the model tier (featurization cost
  /// grows with plan size, and such plans are out-of-distribution anyway).
  size_t max_plan_nodes = 4096;
  size_t max_plan_depth = 512;
  /// Deadline applied when EstimateWithFallback is called with
  /// deadline_ms <= 0.
  double default_deadline_ms = 50.0;
  /// Bins for the log-binning fallback (paper: B=1000 for Grab-Traces).
  size_t log_bins = 1000;
};

/// One answered request.
struct ServingEstimate {
  double cpu_minutes = 0.0;
  ServingTier tier = ServingTier::kGlobalMean;
  double latency_ms = 0.0;
  /// OK when the model tier answered; otherwise why serving degraded
  /// (validation reject, deadline skip, model error, non-finite output).
  Status degradation_reason;
};

/// Monotonic per-process serving counters. The estimator itself maintains
/// the request/tier/degradation counters; the queue, cache, tenant and
/// lifecycle fields are filled in by the serving tier's snapshots (serve/
/// sharded_runtime.h, serve/model_manager.h) and stay zero on the
/// single-query EstimateWithFallback path.
struct ServingStats {
  size_t requests = 0;
  size_t by_tier[kNumServingTiers] = {0, 0, 0};
  size_t validation_rejects = 0;  // plans too large/deep for the model tier
  size_t deadline_skips = 0;      // model skipped: EWMA latency > budget,
                                  // or the deadline expired while queued
  size_t deadline_misses = 0;     // model answered but blew the deadline
  size_t model_errors = 0;        // model tier failed or returned non-finite

  // --- queue and cache counters (serve::ShardedServingRuntime snapshots) --
  size_t rejected_requests = 0;     // queue-overflow admission rejections
  size_t limit_rejects = 0;         // plans over the PlanLimits governor
  size_t queue_high_watermark = 0;  // max simultaneously queued requests
  size_t cache_hits = 0;            // answered from the answer cache (or a
                                    // batch duplicate) without featurizing
  size_t cache_misses = 0;          // featurizations run
  size_t cache_evictions = 0;       // answer-cache LRU evictions

  // --- admission counters (serve::ShardedServingRuntime snapshots) -------
  size_t quota_sheds = 0;     // requests shed over a TenantQuota budget
  size_t memory_denied = 0;   // requests shed by the MemoryTracker budget

  // --- model-lifecycle counters (serve::ShardedServingRuntime::SwapPipelines
  // and serve::ModelManager snapshots) -------------------------------------
  size_t model_swaps = 0;         // successful hot-swap promotions
  size_t model_rollbacks = 0;     // post-swap regressions rolled back
  size_t rejected_candidates = 0; // candidates failing load/shadow validation
  size_t drift_flags = 0;         // observations where the drift gate tripped
  double drift_qerr_p50 = 0.0;    // rolling prediction q-error quantiles
  double drift_qerr_p95 = 0.0;
  double drift_baseline_p95 = 0.0;  // promotion-time baseline the window is
                                    // judged against (0 until established)

  /// Accumulates `other` into this snapshot. Counters sum, including
  /// queue_high_watermark — across shards the sum bounds total queued
  /// requests; per-shard peaks stay available via shard(i) snapshots. The
  /// drift quantiles and baseline take the element-wise max (the merged view
  /// reports the worst shard, which is what the rollback gate cares about).
  void MergeFrom(const ServingStats& other) {
    requests += other.requests;
    for (size_t i = 0; i < kNumServingTiers; ++i) {
      by_tier[i] += other.by_tier[i];
    }
    validation_rejects += other.validation_rejects;
    deadline_skips += other.deadline_skips;
    deadline_misses += other.deadline_misses;
    model_errors += other.model_errors;
    rejected_requests += other.rejected_requests;
    limit_rejects += other.limit_rejects;
    queue_high_watermark += other.queue_high_watermark;
    cache_hits += other.cache_hits;
    cache_misses += other.cache_misses;
    cache_evictions += other.cache_evictions;
    quota_sheds += other.quota_sheds;
    memory_denied += other.memory_denied;
    model_swaps += other.model_swaps;
    model_rollbacks += other.model_rollbacks;
    rejected_candidates += other.rejected_candidates;
    drift_flags += other.drift_flags;
    if (other.drift_qerr_p50 > drift_qerr_p50) {
      drift_qerr_p50 = other.drift_qerr_p50;
    }
    if (other.drift_qerr_p95 > drift_qerr_p95) {
      drift_qerr_p95 = other.drift_qerr_p95;
    }
    if (other.drift_baseline_p95 > drift_baseline_p95) {
      drift_baseline_p95 = other.drift_baseline_p95;
    }
  }
};

/// Fault-tolerant serving front end: wraps the learned pipeline with input
/// validation, a per-request deadline, and the degradation chain
/// model -> log-binning -> global mean (CONCERTO-style graceful
/// degradation). EstimateWithFallback never fails: the global-mean tier is
/// a constant and always answers.
class ServingEstimator {
 public:
  explicit ServingEstimator(ServingLimits limits = {});

  /// Attaches the model tier (a fitted/loaded pipeline). Passing nullptr
  /// detaches it. Pipelines restored with LoadFile() carry a single-thread
  /// ExecutionContext — the serving default, keeping per-request latency
  /// predictable and the process thread-count flat.
  void AttachPipeline(std::unique_ptr<core::PrestroidPipeline> pipeline);
  bool has_pipeline() const { return pipeline_ != nullptr; }

  /// Detaches and returns the model tier (nullptr when none was attached).
  /// The hot-swap path uses Release + Attach under the serving lock so the
  /// previous model can be retained for instant rollback.
  std::unique_ptr<core::PrestroidPipeline> ReleasePipeline() {
    return std::move(pipeline_);
  }

  /// Clears the model-tier latency EWMA; called on a model swap so the new
  /// model's deadline admission is not judged by its predecessor's speed.
  void ResetModelLatency() { model_latency_ewma_ms_ = 0.0; }

  /// The attached pipeline's execution context (flops / scratch counters for
  /// observability); nullptr when no pipeline is attached.
  ExecutionContext* execution_context() {
    return pipeline_ == nullptr ? nullptr : pipeline_->execution_context();
  }

  /// Administratively enables/disables the model tier (e.g. while a new
  /// artifact is validated). The fallback chain keeps serving.
  void set_model_enabled(bool enabled) { model_enabled_ = enabled; }
  bool model_enabled() const { return model_enabled_; }

  /// Fits the log-binning and global-mean fallback tiers from a trace.
  Status FitFallbacks(const std::vector<workload::QueryRecord>& records);

  /// Walks the degradation chain and returns the first finite estimate,
  /// recording which tier answered. deadline_ms <= 0 uses the configured
  /// default. Never fails. Serving goes through serve::ShardedServingRuntime;
  /// this unbatched walk is the single-query reference its answers are
  /// tested against.
  ServingEstimate EstimateWithFallback(const plan::PlanNode& plan,
                                       double deadline_ms = 0.0);

  // --- decomposed pieces for the batched serving tier --------------------
  // serve::ServingShard reuses the exact chain EstimateWithFallback walks,
  // but needs the stages separately: the admission gate before batch
  // assembly, the model-answer bookkeeping after one fused forward pass, and
  // the fallback tiers per degraded item. None of these are thread-safe; the
  // shard serializes every call on its batch-worker thread.

  /// The attached model pipeline (nullptr when detached). The batched
  /// runtime featurizes and runs fused forward passes through it directly.
  core::PrestroidPipeline* pipeline() { return pipeline_.get(); }

  /// Model-tier admission gate: availability, validation limits, and the
  /// latency-EWMA deadline check, with the matching stats tallied. A
  /// deadline_ms <= 0 here means the request's deadline already expired
  /// (e.g. while queued) and counts as a deadline skip. Returns OK when the
  /// model tier may attempt the plan.
  Status AdmitModelTier(const plan::PlanStats& plan_stats, double deadline_ms);

  /// Folds one model-tier attempt's per-request compute time into the
  /// latency EWMA and tallies a deadline miss when it overran the budget.
  void UpdateModelLatency(double model_ms, double deadline_ms);

  /// Records a finite model-tier answer (tier counter + estimate assembly).
  /// `latency_ms` is the full request latency including any queue wait.
  ServingEstimate FinishModelEstimate(double cpu_minutes, double latency_ms);

  /// Tallies a model-tier failure (error status or non-finite output).
  void NoteModelFailure() { ++stats_.model_errors; }

  /// The tier-1 -> tier-2 degradation path with `reason` recorded; never
  /// fails. Latency is measured from `start` (a queued request passes its
  /// enqueue time so the estimate's latency includes the wait).
  ServingEstimate EstimateFallback(const plan::PlanStats& plan_stats,
                                   Status reason,
                                   std::chrono::steady_clock::time_point start);

  /// Counts one incoming request (EstimateWithFallback does this itself;
  /// the batched runtime calls it once per dequeued request).
  void CountRequest() { ++stats_.requests; }

  const ServingStats& stats() const { return stats_; }
  void ResetStats() { stats_ = ServingStats{}; }
  const ServingLimits& limits() const { return limits_; }

 private:
  ServingLimits limits_;
  std::unique_ptr<core::PrestroidPipeline> pipeline_;
  bool model_enabled_ = true;

  baselines::LogBinningModel bins_;
  core::LabelTransform transform_;
  bool fallbacks_fitted_ = false;
  double global_mean_minutes_ = 1.0;

  /// Exponentially-weighted model-tier latency, used to decide whether the
  /// model can answer within a request's deadline.
  double model_latency_ewma_ms_ = 0.0;

  ServingStats stats_;
};

}  // namespace prestroid::cost

#endif  // PRESTROID_COST_SERVING_ESTIMATOR_H_
