#include "serve/serving_shard.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "plan/plan_stats.h"
#include "serve/plan_fingerprint.h"

namespace prestroid::serve {

namespace {

double ElapsedMs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - since)
      .count();
}

}  // namespace

ServingShard::ServingShard(cost::ServingEstimator* estimator,
                           ServingRuntimeConfig config, MemoryTracker* memory)
    : estimator_(estimator),
      config_(config),
      cache_(config.cache_entries),
      arena_(memory) {
  if (config_.max_batch == 0) config_.max_batch = 1;
  if (config_.queue_depth == 0) config_.queue_depth = 1;
}

ServingShard::~ServingShard() { Shutdown(); }

Status ServingShard::Start() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (started_) {
      return Status::AlreadyExists("serving shard already started");
    }
    // Reopen admission after a prior Shutdown() and reset the watermark so a
    // restarted shard reports this run's peak, not its predecessor's.
    stop_ = false;
    started_ = true;
    queue_high_watermark_ = 0;
  }
  {
    // Freeze before the worker can run a batch.
    std::lock_guard<std::mutex> serve_lock(serve_mu_);
    FreezePipelineLocked();
  }
  worker_ = std::thread([this] { WorkerLoop(); });
  return Status::OK();
}

void ServingShard::Shutdown() {
  std::vector<PendingRequest> leftover;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stop_ = true;
    if (!started_) {
      // Never started: the calling thread drains, so accepted futures still
      // resolve (the deterministic path the overflow tests rely on).
      while (!queue_.empty()) {
        leftover.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
  }
  queue_cv_.notify_all();
  if (worker_.joinable()) worker_.join();
  {
    // The worker is gone and stop_ still rejects submissions; clearing
    // started_ makes the shard restartable via a later Start().
    std::lock_guard<std::mutex> lock(queue_mu_);
    started_ = false;
  }
  for (size_t begin = 0; begin < leftover.size(); begin += config_.max_batch) {
    const size_t end = std::min(begin + config_.max_batch, leftover.size());
    std::vector<PendingRequest> batch;
    batch.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      batch.push_back(std::move(leftover[i]));
    }
    std::lock_guard<std::mutex> serve_lock(serve_mu_);
    ServeBatch(batch);
  }
}

Result<std::future<cost::ServingEstimate>> ServingShard::SubmitRouted(
    const plan::PlanNode& plan, double deadline_ms, uint64_t fingerprint,
    ShardTicket ticket) {
  // The facade already ran the governor (before fingerprinting) and charged
  // the ticket; this path must not double-count.
  std::future<cost::ServingEstimate> future;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stop_) {
      ticket.Release();
      return Status::InvalidArgument("serving shard is shut down");
    }
    if (queue_.size() >= config_.queue_depth) {
      ++rejected_requests_;
      ticket.Release();
      return Status::ResourceExhausted(
          "serving queue is full (depth " +
          std::to_string(config_.queue_depth) + ")");
    }
    PendingRequest request;
    request.plan = &plan;
    request.deadline_ms = deadline_ms;
    request.enqueue_time = std::chrono::steady_clock::now();
    request.fingerprint = fingerprint;
    request.ticket = ticket;
    future = request.promise.get_future();
    queue_.push_back(std::move(request));
    queue_high_watermark_ = std::max(queue_high_watermark_, queue_.size());
  }
  queue_cv_.notify_one();
  return future;
}

void ServingShard::InvalidateCache() {
  std::lock_guard<std::mutex> lock(serve_mu_);
  ++cache_generation_;
  cache_.Clear();
}

std::unique_ptr<core::PrestroidPipeline> ServingShard::SwapPipelineLocked(
    std::unique_ptr<core::PrestroidPipeline> pipeline, bool is_rollback) {
  std::unique_ptr<core::PrestroidPipeline> previous =
      estimator_->ReleasePipeline();
  estimator_->AttachPipeline(std::move(pipeline));
  estimator_->ResetModelLatency();
  ++cache_generation_;
  cache_.Clear();
  if (is_rollback) {
    ++model_rollbacks_;
  } else {
    ++model_swaps_;
  }
  FreezePipelineLocked();
  return previous;
}

void ServingShard::FreezePipelineLocked() {
  core::PrestroidPipeline* pipeline = estimator_->pipeline();
  if (pipeline != nullptr) pipeline->FreezeInferenceWeights();
}

cost::ServingStats ServingShard::StatsSnapshot() const {
  cost::ServingStats stats;
  {
    std::lock_guard<std::mutex> lock(serve_mu_);
    stats = estimator_->stats();
    stats.cache_hits = cache_.stats().hits;
    stats.cache_misses = cache_.stats().misses;
    stats.cache_evictions = cache_.stats().evictions;
    stats.model_swaps = model_swaps_;
    stats.model_rollbacks = model_rollbacks_;
  }
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stats.rejected_requests = rejected_requests_;
    stats.queue_high_watermark = queue_high_watermark_;
  }
  return stats;
}

LatencyHistogram ServingShard::LatencySnapshot() const {
  std::lock_guard<std::mutex> lock(serve_mu_);
  return latency_hist_;
}

size_t ServingShard::arena_peak_bytes() const {
  std::lock_guard<std::mutex> lock(serve_mu_);
  return arena_.peak_used_bytes();
}

size_t ServingShard::arena_capacity_bytes() const {
  std::lock_guard<std::mutex> lock(serve_mu_);
  return arena_.capacity_bytes();
}

size_t ServingShard::resident_weight_bytes() const {
  std::lock_guard<std::mutex> lock(serve_mu_);
  core::PrestroidPipeline* pipeline = estimator_->pipeline();
  return pipeline != nullptr ? pipeline->ResidentWeightBytes() : 0;
}

void ServingShard::WorkerLoop() {
  while (true) {
    std::vector<PendingRequest> batch;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;  // drained and told to stop
        continue;
      }
      // Batch window: give the batch a chance to fill before running a
      // partial one. Skipped once stopping — drain as fast as possible.
      if (!stop_ && config_.batch_window_us > 0 &&
          queue_.size() < config_.max_batch) {
        const auto until = std::chrono::steady_clock::now() +
                           std::chrono::microseconds(config_.batch_window_us);
        queue_cv_.wait_until(lock, until, [this] {
          return stop_ || queue_.size() >= config_.max_batch;
        });
      }
      const size_t take = std::min(queue_.size(), config_.max_batch);
      batch.reserve(take);
      for (size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    std::lock_guard<std::mutex> serve_lock(serve_mu_);
    ServeBatch(batch);
  }
}

void ServingShard::ServeBatch(std::vector<PendingRequest>& batch) {
  // Precondition: serve_mu_ held by the caller (worker loop or Shutdown).
  core::PrestroidPipeline* pipeline = estimator_->pipeline();

  auto resolve = [this, &batch](size_t i, cost::ServingEstimate estimate) {
    latency_hist_.Record(estimate.latency_ms);
    // Quota slot and memory charge free as the caller unblocks — every
    // resolution path funnels through here, so the release is exactly-once.
    batch[i].ticket.Release();
    batch[i].promise.set_value(std::move(estimate));
  };

  // Trivially-destructible staging arrays live in the per-batch scratch
  // arena (rewound, not freed, between batches); the feature handles keep
  // their shared_ptr lifetimes in a normal vector.
  arena_.Reset();
  double* remaining_ms = arena_.AllocateArray<double>(batch.size());
  size_t* admitted_index = arena_.AllocateArray<size_t>(batch.size());
  const core::PlanFeatures** feature_ptrs =
      arena_.AllocateArray<const core::PlanFeatures*>(batch.size());
  size_t admitted = 0;
  std::vector<std::shared_ptr<const core::PlanFeatures>> feature_handles;
  feature_handles.reserve(batch.size());
  std::vector<plan::PlanStats> plan_stats(batch.size());

  for (size_t i = 0; i < batch.size(); ++i) {
    PendingRequest& request = batch[i];
    estimator_->CountRequest();
    const double deadline = request.deadline_ms > 0.0
                                ? request.deadline_ms
                                : estimator_->limits().default_deadline_ms;
    remaining_ms[i] = deadline - ElapsedMs(request.enqueue_time);
    plan_stats[i] = plan::ComputePlanStats(*request.plan);

    Status admit = estimator_->AdmitModelTier(plan_stats[i], remaining_ms[i]);
    if (!admit.ok()) {
      resolve(i, estimator_->EstimateFallback(plan_stats[i], std::move(admit),
                                              request.enqueue_time));
      continue;
    }
    // The facade's fingerprint is the cache key (identical plans land on the
    // same shard, so the key is stable across the tier).
    const uint64_t key =
        CombineFingerprint(request.fingerprint, cache_generation_);
    std::shared_ptr<const core::PlanFeatures> features = cache_.Lookup(key);
    if (features == nullptr) {
      Result<core::PlanFeatures> fresh = pipeline->FeaturizePlan(*request.plan);
      if (!fresh.ok()) {
        estimator_->NoteModelFailure();
        resolve(i, estimator_->EstimateFallback(
                       plan_stats[i], fresh.status(), request.enqueue_time));
        continue;
      }
      features = std::make_shared<core::PlanFeatures>(std::move(*fresh));
      cache_.Insert(key, features);
    }
    admitted_index[admitted] = i;
    feature_ptrs[admitted] = features.get();
    feature_handles.push_back(std::move(features));
    ++admitted;
  }

  if (admitted == 0) return;

  // One fused eval-mode forward pass for every admitted request.
  const auto forward_start = std::chrono::steady_clock::now();
  const std::vector<double> predicted = pipeline->PredictFeaturized(
      std::vector<const core::PlanFeatures*>(feature_ptrs,
                                             feature_ptrs + admitted));
  const double per_item_ms =
      ElapsedMs(forward_start) / static_cast<double>(admitted);

  for (size_t j = 0; j < admitted; ++j) {
    const size_t i = admitted_index[j];
    estimator_->UpdateModelLatency(per_item_ms, remaining_ms[i]);
    if (std::isfinite(predicted[j])) {
      resolve(i, estimator_->FinishModelEstimate(
                     predicted[j], ElapsedMs(batch[i].enqueue_time)));
    } else {
      estimator_->NoteModelFailure();
      resolve(i, estimator_->EstimateFallback(
                     plan_stats[i],
                     Status::Internal("model returned a non-finite estimate"),
                     batch[i].enqueue_time));
    }
  }
}

}  // namespace prestroid::serve
