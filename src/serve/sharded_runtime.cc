#include "serve/sharded_runtime.h"

#include <mutex>
#include <string>
#include <utility>

#include "plan/plan_limits.h"
#include "plan/plan_stats.h"
#include "serve/plan_fingerprint.h"
#include "util/fault_injection.h"
#include "util/logging.h"

namespace prestroid::serve {

ShardedServingRuntime::ShardedServingRuntime(
    std::vector<cost::ServingEstimator*> estimators,
    ShardedRuntimeConfig config)
    : config_(config),
      memory_(config.memory_budget_bytes),
      quotas_(config.default_tenant_quota) {
  if (config_.shards == 0) config_.shards = 1;
  if (config_.per_node_scratch_bytes == 0) config_.per_node_scratch_bytes = 1;
  PRESTROID_CHECK(estimators.size() == config_.shards);
  shards_.reserve(config_.shards);
  for (size_t i = 0; i < config_.shards; ++i) {
    PRESTROID_CHECK(estimators[i] != nullptr);
    shards_.push_back(
        std::make_unique<ServingShard>(estimators[i], config_.shard, &memory_));
  }
}

ShardedServingRuntime::~ShardedServingRuntime() { Shutdown(); }

Status ShardedServingRuntime::Start() {
  for (size_t i = 0; i < shards_.size(); ++i) {
    Status started = shards_[i]->Start();
    if (!started.ok()) {
      return Status(started.code(), "shard " + std::to_string(i) + ": " +
                                        started.message());
    }
  }
  return Status::OK();
}

void ShardedServingRuntime::Shutdown() {
  for (auto& shard : shards_) shard->Shutdown();
}

void ShardedServingRuntime::SetTenantQuota(TenantId tenant, TenantQuota quota) {
  quotas_.SetQuota(tenant, quota);
}

Result<std::future<cost::ServingEstimate>> ShardedServingRuntime::Submit(
    const plan::PlanNode& plan, double deadline_ms, TenantId tenant) {
  // Stage 1 — resource governor, BEFORE any hashing or sizing of the plan:
  // a rejected plan is never fingerprinted (the ingestion-hardening
  // invariant). Early-exits at the limit, so its cost is bounded by the
  // limits themselves.
  Status within_limits =
      plan::CheckPlanLimits(plan, config_.shard.plan_limits);
  if (!within_limits.ok()) {
    limit_rejects_.fetch_add(1, std::memory_order_relaxed);
    return Status::InvalidArgument("plan rejected by resource governor: " +
                                   within_limits.message());
  }

  // Stage 2 — tenant quota, charged with the plan's scratch estimate. The
  // governor just bounded node_count, so this walk is limit-bounded too.
  const size_t scratch_bytes =
      plan::ComputePlanStats(plan).node_count * config_.per_node_scratch_bytes;
  Status admitted = quotas_.TryAdmit(tenant, scratch_bytes);
  if (!admitted.ok()) return admitted;

  // Stage 3 — box-level memory budget across every tenant and shard.
  if (!memory_.TryCharge(scratch_bytes)) {
    quotas_.Release(tenant, scratch_bytes);
    return Status::ResourceExhausted(
        "serving memory budget exhausted (" +
        std::to_string(config_.memory_budget_bytes) + " bytes)");
  }

  // Stage 4 — fingerprint routing. Identical plans hash identically, land on
  // the same shard, and share one cached answer. The shard reuses the
  // fingerprint for its cache key (no re-hash) and owns the ticket from here:
  // released when the promise resolves (at once on a cache hit), or
  // immediately on queue rejection.
  const uint64_t fingerprint = FingerprintPlan(plan);
  ShardTicket ticket;
  ticket.quotas = &quotas_;
  ticket.tenant = tenant;
  ticket.memory = &memory_;
  ticket.charged_bytes = scratch_bytes;
  return shards_[RouteShard(fingerprint, shards_.size())]->SubmitRouted(
      plan, deadline_ms, fingerprint, ticket);
}

void ShardedServingRuntime::InvalidateCache() {
  for (auto& shard : shards_) shard->InvalidateCache();
}

void ShardedServingRuntime::SetCompletionNotifier(
    const std::function<void()>& notifier) {
  for (auto& shard : shards_) shard->SetCompletionNotifier(notifier);
}

cost::ServingStats ShardedServingRuntime::StatsSnapshot() const {
  cost::ServingStats merged;
  for (const auto& shard : shards_) merged.MergeFrom(shard->StatsSnapshot());
  merged.limit_rejects += limit_rejects_.load(std::memory_order_relaxed);
  merged.quota_sheds = quotas_.TotalSheds();
  merged.memory_denied = memory_.denied();
  return merged;
}

LatencyHistogram ShardedServingRuntime::LatencySnapshot() const {
  LatencyHistogram merged;
  for (const auto& shard : shards_) merged.Merge(shard->LatencySnapshot());
  return merged;
}

std::vector<TenantCounters> ShardedServingRuntime::TenantSnapshot() const {
  return quotas_.SnapshotAll();
}

MemoryTrackerStats ShardedServingRuntime::MemorySnapshot() const {
  return memory_.Snapshot();
}

Result<std::vector<std::unique_ptr<core::PrestroidPipeline>>>
ShardedServingRuntime::SwapPipelines(
    std::vector<std::unique_ptr<core::PrestroidPipeline>> pipelines,
    bool is_rollback) {
  if (pipelines.size() != shards_.size()) {
    return Status::InvalidArgument(
        "cross-shard swap needs " + std::to_string(shards_.size()) +
        " pipelines (one per shard), got " +
        std::to_string(pipelines.size()));
  }
  // Quiesce the whole tier: every shard's serving lock, acquired in shard
  // order (the only multi-shard lock site, so no deadlock). In-flight
  // batches finish on their old models first; no shard can start a batch
  // until every shard has the new model.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& shard : shards_) locks.push_back(shard->LockServing());
  // One fault-injection check for the whole transaction, before any shard is
  // mutated: an injected crash leaves every shard's model, cache, and
  // generation intact — all-or-nothing.
  if (FaultInjector::Global().ShouldFail(FaultSite::kModelSwap)) {
    return Status::IoError(
        "injected crash mid-swap; previous models left serving on every "
        "shard");
  }
  std::vector<std::unique_ptr<core::PrestroidPipeline>> previous;
  previous.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    previous.push_back(
        shards_[i]->SwapPipelineLocked(std::move(pipelines[i]), is_rollback));
  }
  return previous;
}

}  // namespace prestroid::serve
