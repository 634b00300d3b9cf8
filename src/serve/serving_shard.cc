#include "serve/serving_shard.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
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
    ServeBatch(batch);
  }
}

Result<std::future<cost::ServingEstimate>> ServingShard::SubmitRouted(
    const plan::PlanNode& plan, double deadline_ms, uint64_t fingerprint,
    ShardTicket ticket) {
  // The facade already ran the governor (before fingerprinting) and charged
  // the ticket; this path must not double-count.
  const auto submitted = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stop_) {
      ticket.Release();
      return Status::InvalidArgument("serving shard is shut down");
    }
  }

  // Answer cache: a hit resolves here, on the caller's thread, without
  // serve_mu_ (an in-flight batch never delays it) — but only while the
  // deadline has time left. An expired request takes the queue and degrades
  // there exactly as a miss would. The estimator's limits are immutable, so
  // reading the default deadline needs no lock.
  const double deadline = deadline_ms > 0.0
                              ? deadline_ms
                              : estimator_->limits().default_deadline_ms;
  std::optional<double> answer;
  double hit_latency_ms = 0.0;
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    answer = cache_.Lookup(CombineFingerprint(fingerprint, cache_generation_));
    if (answer.has_value()) {
      hit_latency_ms = ElapsedMs(submitted);
      if (hit_latency_ms < deadline) {
        ++submit_cache_hits_;
        submit_hit_latency_hist_.Record(hit_latency_ms);
      } else {
        answer.reset();
      }
    }
  }
  if (answer.has_value()) {
    ticket.Release();
    cost::ServingEstimate estimate;
    estimate.cpu_minutes = *answer;
    estimate.tier = cost::ServingTier::kModel;
    estimate.latency_ms = hit_latency_ms;
    std::promise<cost::ServingEstimate> promise;
    promise.set_value(std::move(estimate));
    return promise.get_future();
  }

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
    request.enqueue_time = submitted;
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
  RetireCachedAnswersLocked();
}

void ServingShard::RetireCachedAnswersLocked() {
  std::lock_guard<std::mutex> lock(cache_mu_);
  ++cache_generation_;
  cache_.Clear();
}

void ServingShard::SetCompletionNotifier(std::function<void()> notifier) {
  std::lock_guard<std::mutex> lock(serve_mu_);
  completion_notifier_ = std::move(notifier);
}

std::unique_ptr<core::PrestroidPipeline> ServingShard::SwapPipelineLocked(
    std::unique_ptr<core::PrestroidPipeline> pipeline, bool is_rollback) {
  std::unique_ptr<core::PrestroidPipeline> previous =
      estimator_->ReleasePipeline();
  estimator_->AttachPipeline(std::move(pipeline));
  estimator_->ResetModelLatency();
  RetireCachedAnswersLocked();
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
    stats.cache_hits = batch_cache_hits_;
    stats.cache_misses = featurizations_;
    stats.model_swaps = model_swaps_;
    stats.model_rollbacks = model_rollbacks_;
  }
  {
    // Hits answered at submission never reached the estimator: they count
    // here as model-tier requests.
    std::lock_guard<std::mutex> lock(cache_mu_);
    stats.requests += submit_cache_hits_;
    stats.by_tier[static_cast<size_t>(cost::ServingTier::kModel)] +=
        submit_cache_hits_;
    stats.cache_hits += submit_cache_hits_;
    stats.cache_evictions = cache_.evictions();
  }
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stats.rejected_requests = rejected_requests_;
    stats.queue_high_watermark = queue_high_watermark_;
  }
  return stats;
}

LatencyHistogram ServingShard::LatencySnapshot() const {
  LatencyHistogram merged;
  {
    std::lock_guard<std::mutex> lock(serve_mu_);
    merged = latency_hist_;
  }
  std::lock_guard<std::mutex> lock(cache_mu_);
  merged.Merge(submit_hit_latency_hist_);
  return merged;
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
      if (queue_.empty()) return;  // drained and told to stop
      // Serve whatever is queued now, up to max_batch: a batch is whatever
      // arrived while the previous one ran.
      const size_t take = std::min(queue_.size(), config_.max_batch);
      batch.reserve(take);
      for (size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    ServeBatch(batch);
  }
}

void ServingShard::ServeBatch(std::vector<PendingRequest>& batch) {
  std::function<void()> notify;
  {
    std::lock_guard<std::mutex> serve_lock(serve_mu_);
    ServeBatchLocked(batch);
    notify = completion_notifier_;
  }
  if (notify) notify();
}

void ServingShard::ServeBatchLocked(std::vector<PendingRequest>& batch) {
  // serve_mu_ is held, so the pipeline and the cache generation stay fixed
  // for the whole batch.
  core::PrestroidPipeline* pipeline = estimator_->pipeline();
  const uint64_t generation = cache_generation_;

  auto resolve = [this, &batch](size_t i, cost::ServingEstimate estimate) {
    latency_hist_.Record(estimate.latency_ms);
    // Quota slot and memory charge free as the caller unblocks — every
    // resolution path funnels through here, so the release is exactly-once.
    batch[i].ticket.Release();
    batch[i].promise.set_value(std::move(estimate));
  };

  // Trivially-destructible staging arrays live in the per-batch scratch
  // arena (rewound, not freed, between batches).
  constexpr size_t kNoRow = static_cast<size_t>(-1);
  arena_.Reset();
  double* remaining_ms = arena_.AllocateArray<double>(batch.size());
  // The forward row each request reads its answer from (kNoRow: resolved).
  size_t* row_of = arena_.AllocateArray<size_t>(batch.size());
  uint64_t* row_fingerprint = arena_.AllocateArray<uint64_t>(batch.size());
  size_t rows = 0;
  std::vector<core::PlanFeatures> features;
  features.reserve(batch.size());
  std::vector<plan::PlanStats> plan_stats(batch.size());

  for (size_t i = 0; i < batch.size(); ++i) {
    PendingRequest& request = batch[i];
    row_of[i] = kNoRow;
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
    // Cached since this request was queued (an earlier batch answered the
    // same plan).
    std::optional<double> cached;
    {
      std::lock_guard<std::mutex> lock(cache_mu_);
      cached = cache_.Lookup(CombineFingerprint(request.fingerprint,
                                                generation));
    }
    if (cached.has_value()) {
      ++batch_cache_hits_;
      resolve(i, estimator_->FinishModelEstimate(
                     *cached, ElapsedMs(request.enqueue_time)));
      continue;
    }
    // A duplicate of a plan already featurized in this batch shares its row.
    size_t row = 0;
    while (row < rows && row_fingerprint[row] != request.fingerprint) ++row;
    if (row < rows) {
      ++batch_cache_hits_;
      row_of[i] = row;
      continue;
    }
    ++featurizations_;
    Result<core::PlanFeatures> fresh = pipeline->FeaturizePlan(*request.plan);
    if (!fresh.ok()) {
      estimator_->NoteModelFailure();
      resolve(i, estimator_->EstimateFallback(plan_stats[i], fresh.status(),
                                              request.enqueue_time));
      continue;
    }
    features.push_back(std::move(*fresh));
    row_fingerprint[rows] = request.fingerprint;
    row_of[i] = rows++;
  }

  if (rows > 0) {
    // One fused eval-mode forward pass over the distinct featurized plans.
    std::vector<const core::PlanFeatures*> feature_ptrs;
    feature_ptrs.reserve(rows);
    for (const core::PlanFeatures& f : features) feature_ptrs.push_back(&f);
    const auto forward_start = std::chrono::steady_clock::now();
    const std::vector<double> predicted =
        pipeline->PredictFeaturized(feature_ptrs);
    const double per_row_ms =
        ElapsedMs(forward_start) / static_cast<double>(rows);

    // Cache before resolving, so a caller that resubmits the moment its
    // future is ready already hits.
    {
      std::lock_guard<std::mutex> lock(cache_mu_);
      for (size_t r = 0; r < rows; ++r) {
        if (std::isfinite(predicted[r])) {
          cache_.Insert(CombineFingerprint(row_fingerprint[r], generation),
                        predicted[r]);
        }
      }
    }
    for (size_t i = 0; i < batch.size(); ++i) {
      if (row_of[i] == kNoRow) continue;
      const double answer = predicted[row_of[i]];
      estimator_->UpdateModelLatency(per_row_ms, remaining_ms[i]);
      if (std::isfinite(answer)) {
        resolve(i, estimator_->FinishModelEstimate(
                       answer, ElapsedMs(batch[i].enqueue_time)));
      } else {
        estimator_->NoteModelFailure();
        resolve(i, estimator_->EstimateFallback(
                       plan_stats[i],
                       Status::Internal("model returned a non-finite estimate"),
                       batch[i].enqueue_time));
      }
    }
  }
}

}  // namespace prestroid::serve
