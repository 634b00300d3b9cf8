#ifndef PRESTROID_SERVE_SHARDED_RUNTIME_H_
#define PRESTROID_SERVE_SHARDED_RUNTIME_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <vector>

#include "cost/serving_estimator.h"
#include "plan/plan_node.h"
#include "serve/serving_shard.h"
#include "serve/tenant_quota.h"
#include "util/histogram.h"
#include "util/memory_tracker.h"
#include "util/status.h"

namespace prestroid::serve {

/// Topology and admission policy of the sharded serving tier.
struct ShardedRuntimeConfig {
  /// Number of shards (each an independent queue + batch worker + answer
  /// cache + estimator). 1 is the default: one batch worker, one cache.
  size_t shards = 1;
  /// Per-shard queue/batch/cache policy, applied uniformly.
  ServingRuntimeConfig shard;
  /// Quota applied to tenants without an explicit SetTenantQuota (zeros =
  /// unlimited).
  TenantQuota default_tenant_quota;
  /// Box-level cap on admitted scratch bytes across every tenant and shard;
  /// 0 accounts without refusing.
  size_t memory_budget_bytes = 0;
  /// Featurization scratch estimate charged per plan node at admission (the
  /// unit the quota and memory budgets are denominated in).
  size_t per_node_scratch_bytes = 512;
};

/// The serving tier: N >= 1 ServingShards behind one admission front door.
/// Submit is the only way a request enters a shard and SwapPipelines is the
/// only way a shard's model changes.
///
/// Every Submit runs the PlanLimits governor FIRST (a rejected plan is never
/// fingerprinted — the ingestion-hardening invariant), then tenant-quota and
/// memory-budget admission, then hashes the plan once and routes it to shard
/// `fingerprint % shards`. Identical plans therefore always land on the same
/// shard and share one cached answer — the tier-wide hit rate matches a
/// one-shard cache instead of splitting N ways. A cached answer resolves the
/// returned future before Submit returns (see ServingShard::SubmitRouted).
///
/// Each admitted request carries a ShardTicket holding its tenant-quota slot
/// and memory charge; the owning shard releases the ticket when the request
/// resolves (or immediately if its queue rejects), so admission state can
/// never leak.
///
/// SwapPipelines locks every shard in shard order (the only multi-shard lock
/// site), performs one fault-injection check, and exchanges all pipelines
/// before any shard resumes — no request anywhere observes a half-swapped
/// tier. ModelManager promotes and rolls back through it.
///
/// Lifetime: the estimators (one per shard — each owns its model-tier
/// pipeline and fallback tiers) must outlive the runtime. Submitted plans
/// are borrowed until their future resolves.
class ShardedServingRuntime {
 public:
  /// `estimators.size()` must equal `config.shards` (checked). Each shard
  /// serializes access to its own estimator; estimators must not be shared
  /// between shards or used directly while the tier is running.
  ShardedServingRuntime(std::vector<cost::ServingEstimator*> estimators,
                        ShardedRuntimeConfig config = {});
  ~ShardedServingRuntime();

  ShardedServingRuntime(const ShardedServingRuntime&) = delete;
  ShardedServingRuntime& operator=(const ShardedServingRuntime&) = delete;

  /// Freezes every shard's pipeline and starts its batch worker. Submissions
  /// made before Start() sit in the shard queues (admission control applies)
  /// and are served once it runs. Restartable after Shutdown(). On failure,
  /// already-started shards keep running (Shutdown stops them).
  Status Start();

  /// Stops and drains every shard, resolving every queued future (inline on
  /// the calling thread for a shard that was never started). Idempotent.
  void Shutdown();

  /// Installs (or replaces) one tenant's admission quota.
  void SetTenantQuota(TenantId tenant, TenantQuota quota);

  /// Admission + routing: governor -> tenant quota -> memory budget ->
  /// fingerprint -> answer cache -> shard queue. Returns kInvalidArgument for
  /// a governor reject (limit_rejects), kResourceExhausted for a quota shed
  /// (per-tenant quota_sheds), a memory-budget denial (memory_denied), or a
  /// full shard queue (rejected_requests), and kInvalidArgument after
  /// Shutdown().
  /// deadline_ms <= 0 uses the estimator's configured default; the deadline
  /// covers queue wait + compute, and a cached answer is served only while
  /// it has time left.
  Result<std::future<cost::ServingEstimate>> Submit(const plan::PlanNode& plan,
                                                    double deadline_ms = 0.0,
                                                    TenantId tenant = 0);

  /// Retires every shard's cached answers.
  void InvalidateCache();

  /// Installs `notifier` on every shard: each shard's worker calls it once
  /// per resolved batch (see ServingShard::SetCompletionNotifier). One
  /// notifier at a time; nullptr removes it.
  void SetCompletionNotifier(const std::function<void()>& notifier);

  /// Counters merged across shards (sums; see ServingStats::MergeFrom) plus
  /// the facade's own governor/quota/memory admission counters.
  cost::ServingStats StatsSnapshot() const;

  /// Tier-wide latency distribution: every shard's histogram merged.
  LatencyHistogram LatencySnapshot() const;

  /// Per-tenant admission counters, ordered by tenant id.
  std::vector<TenantCounters> TenantSnapshot() const;

  /// Box-level scratch-memory accounting: the admission charges of the
  /// requests in flight.
  MemoryTrackerStats MemorySnapshot() const;

  const ShardedRuntimeConfig& config() const { return config_; }

  /// Shard a fingerprint routes to: `fingerprint % shards`.
  static size_t RouteShard(uint64_t fingerprint, size_t shards) {
    return static_cast<size_t>(fingerprint % shards);
  }

  /// Direct shard access for tests and per-shard observability.
  ServingShard& shard(size_t index) { return *shards_[index]; }
  const ServingShard& shard(size_t index) const { return *shards_[index]; }

  size_t ShardCount() const { return shards_.size(); }

  /// Atomically replaces every shard's model tier while the tier keeps
  /// serving (RCU-style; see the class comment). Expects exactly ShardCount()
  /// pipelines (entry i -> shard i; nullptr detaches that shard's model tier,
  /// the degradation chain keeps answering) and returns the previous
  /// pipelines in shard order for rollback retention. `is_rollback` selects
  /// which ServingStats counter (model_swaps vs model_rollbacks) each shard
  /// increments. Instrumented with FaultSite::kModelSwap: an injected fault
  /// aborts before any shard is touched.
  Result<std::vector<std::unique_ptr<core::PrestroidPipeline>>> SwapPipelines(
      std::vector<std::unique_ptr<core::PrestroidPipeline>> pipelines,
      bool is_rollback);

 private:
  ShardedRuntimeConfig config_;
  MemoryTracker memory_;
  TenantQuotaTable quotas_;
  std::vector<std::unique_ptr<ServingShard>> shards_;
  /// Governor rejections; every request is governed here exactly once.
  std::atomic<size_t> limit_rejects_{0};
};

}  // namespace prestroid::serve

#endif  // PRESTROID_SERVE_SHARDED_RUNTIME_H_
