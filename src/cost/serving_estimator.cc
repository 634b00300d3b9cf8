#include "cost/serving_estimator.h"

#include <chrono>
#include <cmath>

#include "plan/plan_stats.h"
#include "util/logging.h"
#include "workload/dataset.h"

namespace prestroid::cost {

namespace {

constexpr double kLatencyEwmaAlpha = 0.2;

double ElapsedMs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - since)
      .count();
}

}  // namespace

const char* ServingTierToString(ServingTier tier) {
  switch (tier) {
    case ServingTier::kModel:
      return "model";
    case ServingTier::kLogBinning:
      return "log-binning";
    case ServingTier::kGlobalMean:
      return "global-mean";
  }
  return "unknown";
}

ServingEstimator::ServingEstimator(ServingLimits limits)
    : limits_(limits), bins_(kLogBins) {}

void ServingEstimator::AttachPipeline(
    std::unique_ptr<core::PrestroidPipeline> pipeline) {
  pipeline_ = std::move(pipeline);
}

void FallbackSamples::Add(const workload::QueryRecord& record) {
  const size_t nodes = record.plan != nullptr
                           ? plan::ComputePlanStats(*record.plan).node_count
                           : record.plan_nodes;
  node_counts.push_back(static_cast<double>(nodes));
  cpu_minutes.push_back(record.metrics.total_cpu_minutes);
}

Status ServingEstimator::FitFallbacks(const FallbackSamples& samples) {
  if (samples.size() == 0) {
    return Status::InvalidArgument("cannot fit fallbacks on an empty trace");
  }
  const std::vector<double>& minutes = samples.cpu_minutes;
  PRESTROID_RETURN_NOT_OK(transform_.Fit(minutes));
  PRESTROID_RETURN_NOT_OK(
      bins_.Fit(samples.node_counts, transform_.NormalizeAll(minutes)));
  double total = 0.0;
  for (double m : minutes) total += m;
  global_mean_minutes_ = total / static_cast<double>(minutes.size());
  fallbacks_fitted_ = true;
  return Status::OK();
}

Status ServingEstimator::FitFallbacks(
    const std::vector<workload::QueryRecord>& records) {
  FallbackSamples samples;
  samples.node_counts.reserve(records.size());
  samples.cpu_minutes.reserve(records.size());
  for (const workload::QueryRecord& record : records) samples.Add(record);
  return FitFallbacks(samples);
}

Status ServingEstimator::AdmitModelTier(const plan::PlanStats& plan_stats,
                                        double deadline_ms) {
  if (pipeline_ == nullptr || !model_enabled_) {
    return Status::Unimplemented("model tier unavailable or disabled");
  }
  if (plan_stats.node_count > kMaxModelPlanNodes ||
      plan_stats.max_depth > kMaxModelPlanDepth) {
    ++stats_.validation_rejects;
    return Status::InvalidArgument(
        "plan exceeds serving limits (" +
        std::to_string(plan_stats.node_count) + " nodes, depth " +
        std::to_string(plan_stats.max_depth) + ")");
  }
  if (deadline_ms <= 0.0) {
    ++stats_.deadline_skips;
    return Status::OutOfRange(
        "request deadline expired before the model tier could run");
  }
  if (model_latency_ewma_ms_ > deadline_ms) {
    ++stats_.deadline_skips;
    return Status::OutOfRange(
        "model latency EWMA exceeds deadline; degraded pre-emptively");
  }
  return Status::OK();
}

void ServingEstimator::UpdateModelLatency(double model_ms) {
  model_latency_ewma_ms_ =
      model_latency_ewma_ms_ == 0.0
          ? model_ms
          : (1.0 - kLatencyEwmaAlpha) * model_latency_ewma_ms_ +
                kLatencyEwmaAlpha * model_ms;
}

ServingEstimate ServingEstimator::FinishModelEstimate(double cpu_minutes,
                                                      double latency_ms,
                                                      double deadline_ms) {
  if (latency_ms > deadline_ms) ++stats_.deadline_misses;
  ServingEstimate estimate;
  estimate.cpu_minutes = cpu_minutes;
  estimate.tier = ServingTier::kModel;
  estimate.latency_ms = latency_ms;
  ++stats_.by_tier[static_cast<size_t>(ServingTier::kModel)];
  return estimate;
}

ServingEstimate ServingEstimator::EstimateFallback(
    const plan::PlanStats& plan_stats, Status reason,
    std::chrono::steady_clock::time_point start) {
  ServingEstimate estimate;
  estimate.degradation_reason = std::move(reason);

  // --- Tier 1: log-binning over plan node count ---------------------------
  if (fallbacks_fitted_) {
    const float normalized =
        bins_.Predict(static_cast<double>(plan_stats.node_count));
    const double minutes = transform_.Denormalize(normalized);
    if (std::isfinite(minutes)) {
      estimate.cpu_minutes = minutes;
      estimate.tier = ServingTier::kLogBinning;
      estimate.latency_ms = ElapsedMs(start);
      ++stats_.by_tier[static_cast<size_t>(ServingTier::kLogBinning)];
      return estimate;
    }
  }

  // --- Tier 2: global mean — a constant, so it always answers -------------
  estimate.cpu_minutes = global_mean_minutes_;
  estimate.tier = ServingTier::kGlobalMean;
  estimate.latency_ms = ElapsedMs(start);
  ++stats_.by_tier[static_cast<size_t>(ServingTier::kGlobalMean)];
  return estimate;
}

ServingEstimate ServingEstimator::EstimateWithFallback(
    const plan::PlanNode& plan, double deadline_ms) {
  const auto start = std::chrono::steady_clock::now();
  if (deadline_ms <= 0.0) deadline_ms = limits_.default_deadline_ms;
  ++stats_.requests;

  const plan::PlanStats plan_stats = plan::ComputePlanStats(plan);

  // --- Tier 0: the learned model, gated by validation and deadline -------
  Status skip_reason = AdmitModelTier(plan_stats, deadline_ms);
  if (skip_reason.ok()) {
    Result<double> predicted = pipeline_->PredictPlan(plan);
    UpdateModelLatency(ElapsedMs(start));
    if (predicted.ok() && std::isfinite(*predicted)) {
      return FinishModelEstimate(*predicted, ElapsedMs(start), deadline_ms);
    }
    NoteModelFailure();
    skip_reason = predicted.ok()
                      ? Status::Internal("model returned a non-finite estimate")
                      : predicted.status();
  }
  return EstimateFallback(plan_stats, std::move(skip_reason), start);
}

}  // namespace prestroid::cost
