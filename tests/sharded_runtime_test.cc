/// Tests for the sharded multi-tenant serving tier (serve/sharded_runtime.h):
///   - fingerprint routing sends identical plans to one shard's cache;
///   - a seeded sweep over shards x max_batch x {live, parked} x producers:
///     every model-tier answer is bit-equal to the single-query
///     EstimateWithFallback reference;
///   - tenant quotas shed with kResourceExhausted + per-tenant counters while
///     other tenants keep serving;
///   - the box memory budget denies admission and releases the quota charge;
///   - cross-shard hot-swaps are all-or-nothing (fault injection) and safe
///     under concurrent multi-tenant load (>= 10 swaps, run under TSan in CI);
///   - ModelManager promotes/rolls back across every shard atomically.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "cost/serving_estimator.h"
#include "plan/plan_node.h"
#include "serve/model_manager.h"
#include "serve/plan_fingerprint.h"
#include "serve/sharded_runtime.h"
#include "serve/tenant_quota.h"
#include "util/fault_injection.h"
#include "util/random.h"
#include "workload/dataset.h"

namespace prestroid::serve {
namespace {

// --------------------------------------------------------------------------
// TenantQuotaTable (no runtime needed)
// --------------------------------------------------------------------------

TEST(TenantQuotaTableTest, DefaultQuotaIsUnlimited) {
  TenantQuotaTable table;
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(table.TryAdmit(/*tenant=*/7, /*scratch_bytes=*/1 << 20).ok());
  }
  EXPECT_EQ(table.Snapshot(7).quota_sheds, 0u);
  EXPECT_EQ(table.Snapshot(7).in_flight, 100u);
}

TEST(TenantQuotaTableTest, InFlightQuotaShedsAndReleases) {
  TenantQuotaTable table;
  table.SetQuota(1, TenantQuota{/*max_in_flight=*/2, /*max_scratch_bytes=*/0});
  EXPECT_TRUE(table.TryAdmit(1, 10).ok());
  EXPECT_TRUE(table.TryAdmit(1, 10).ok());
  Status shed = table.TryAdmit(1, 10);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
  // Another tenant is unaffected by tenant 1's quota.
  EXPECT_TRUE(table.TryAdmit(2, 10).ok());

  table.Release(1, 10);
  EXPECT_TRUE(table.TryAdmit(1, 10).ok());

  const TenantCounters counters = table.Snapshot(1);
  EXPECT_EQ(counters.admitted, 3u);
  EXPECT_EQ(counters.quota_sheds, 1u);
  EXPECT_EQ(counters.in_flight, 2u);
  EXPECT_EQ(table.TotalSheds(), 1u);
}

TEST(TenantQuotaTableTest, ScratchByteQuotaShedsByBytes) {
  TenantQuotaTable table;
  table.SetQuota(3, TenantQuota{/*max_in_flight=*/0, /*max_scratch_bytes=*/100});
  EXPECT_TRUE(table.TryAdmit(3, 60).ok());
  Status shed = table.TryAdmit(3, 60);  // 60 + 60 > 100
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(table.TryAdmit(3, 40).ok());  // exactly at the cap
  table.Release(3, 60);
  EXPECT_EQ(table.Snapshot(3).scratch_bytes, 40u);
}

TEST(TenantQuotaTableTest, SnapshotAllOrdersByTenant) {
  TenantQuotaTable table;
  EXPECT_TRUE(table.TryAdmit(9, 1).ok());
  EXPECT_TRUE(table.TryAdmit(2, 1).ok());
  EXPECT_TRUE(table.TryAdmit(5, 1).ok());
  const std::vector<TenantCounters> all = table.SnapshotAll();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].tenant, 2u);
  EXPECT_EQ(all[1].tenant, 5u);
  EXPECT_EQ(all[2].tenant, 9u);
}

// --------------------------------------------------------------------------
// Sharded runtime (fixture with a fitted pipeline, mirroring
// serving_runtime_test's one-shard fixture)
// --------------------------------------------------------------------------

class ShardedRuntimeFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload::SchemaGenConfig schema_config;
    schema_config.num_tables = 25;
    schema_config.num_days = 20;
    schema_config.seed = 21;
    workload::GeneratedSchema schema = GenerateSchema(schema_config);
    workload::TraceConfig trace_config;
    trace_config.num_queries = 60;
    trace_config.num_days = 20;
    trace_config.seed = 22;
    records_ = new std::vector<workload::QueryRecord>(
        GenerateGrabTrace(schema, trace_config).ValueOrDie());

    core::PipelineConfig config;
    config.word2vec.dim = 16;
    config.word2vec.min_count = 2;
    config.word2vec.epochs = 2;
    config.sampler.node_limit = 16;
    config.sampler.conv_layers = 3;
    config.num_subtrees = 3;
    config.use_subtrees = true;
    config.conv_channels = {8, 8, 8};
    config.dense_units = {8};
    std::vector<size_t> train_indices(records_->size());
    for (size_t i = 0; i < train_indices.size(); ++i) train_indices[i] = i;
    auto pipeline =
        core::PrestroidPipeline::Fit(*records_, train_indices, config)
            .ValueOrDie();
    artifact_path_ =
        new std::string(::testing::TempDir() + "/sharded_runtime_model.bin");
    ASSERT_TRUE(pipeline->SaveFile(*artifact_path_).ok());
  }
  static void TearDownTestSuite() {
    delete records_;
    delete artifact_path_;
  }

  /// A fully armed estimator: fitted fallbacks plus its own model instance.
  static std::unique_ptr<cost::ServingEstimator> MakeEstimator() {
    auto estimator = std::make_unique<cost::ServingEstimator>();
    EXPECT_TRUE(estimator->FitFallbacks(*records_).ok());
    estimator->AttachPipeline(
        core::PrestroidPipeline::LoadFile(*artifact_path_).ValueOrDie());
    return estimator;
  }

  static const plan::PlanNode& SamplePlan(size_t i) {
    return *(*records_)[i % records_->size()].plan;
  }

  /// One estimator per shard, each with an independent instance of the same
  /// artifact (shards must never share an estimator).
  struct Tier {
    std::vector<std::unique_ptr<cost::ServingEstimator>> estimators;
    std::unique_ptr<ShardedServingRuntime> runtime;
  };

  static Tier MakeTier(size_t shards, ShardedRuntimeConfig config = {}) {
    Tier tier;
    config.shards = shards;
    std::vector<cost::ServingEstimator*> raw;
    for (size_t i = 0; i < shards; ++i) {
      tier.estimators.push_back(MakeEstimator());
      raw.push_back(tier.estimators.back().get());
    }
    tier.runtime = std::make_unique<ShardedServingRuntime>(raw, config);
    return tier;
  }

  static std::vector<workload::QueryRecord>* records_;
  static std::string* artifact_path_;
};

std::vector<workload::QueryRecord>* ShardedRuntimeFixture::records_ = nullptr;
std::string* ShardedRuntimeFixture::artifact_path_ = nullptr;

TEST_F(ShardedRuntimeFixture, RoutingSendsIdenticalPlansToOneShardsCache) {
  constexpr size_t kShards = 4;
  ShardedRuntimeConfig config;
  config.shard.max_batch = 8;
  Tier tier = MakeTier(kShards, config);
  ASSERT_TRUE(tier.runtime->Start().ok());

  const plan::PlanNode& plan = SamplePlan(0);
  const size_t expected_shard =
      ShardedServingRuntime::RouteShard(FingerprintPlan(plan), kShards);

  constexpr size_t kRepeats = 12;
  std::vector<std::future<cost::ServingEstimate>> futures;
  for (size_t i = 0; i < kRepeats; ++i) {
    futures.push_back(tier.runtime->Submit(plan, 1e9).ValueOrDie());
  }
  for (auto& future : futures) {
    EXPECT_EQ(future.get().tier, cost::ServingTier::kModel);
  }
  tier.runtime->Shutdown();

  // The routing invariant: every repeat of the plan landed on ONE shard, and
  // that shard featurized it exactly once (1 miss, the rest cache hits).
  for (size_t s = 0; s < kShards; ++s) {
    const cost::ServingStats stats = tier.runtime->shard(s).StatsSnapshot();
    if (s == expected_shard) {
      EXPECT_EQ(stats.requests, kRepeats);
      EXPECT_EQ(stats.cache_misses, 1u);
      EXPECT_EQ(stats.cache_hits, kRepeats - 1);
    } else {
      EXPECT_EQ(stats.requests, 0u);
    }
  }
  // The merged snapshot preserves the tier-wide totals.
  const cost::ServingStats merged = tier.runtime->StatsSnapshot();
  EXPECT_EQ(merged.requests, kRepeats);
  EXPECT_EQ(merged.cache_misses, 1u);
  EXPECT_EQ(merged.cache_hits, kRepeats - 1);
  EXPECT_EQ(tier.runtime->LatencySnapshot().count(), kRepeats);
}

TEST_F(ShardedRuntimeFixture, ShardedAnswersMatchSingleQueryReferences) {
  // Seeded sweep over topology and batch shapes: shards x max_batch x
  // {live, parked} x producer count, each case serving a random mix of plans
  // with repeats. Live producers submit to a running tier, so batches are
  // whatever queued up meanwhile; parked producers queue their whole mix
  // before Start(), so batches fill to max_batch with no timing involved.
  // Every model-tier answer must be bit-equal to the single-query
  // EstimateWithFallback reference, whatever else shares its batch, its
  // shard or its cache entry. The reference runs on the blocked backend,
  // which the shards' frozen resident weights match bit for bit.
  cost::ServingEstimator reference_estimator;
  ASSERT_TRUE(reference_estimator.FitFallbacks(*records_).ok());
  reference_estimator.AttachPipeline(
      core::PrestroidPipeline::LoadFile(*artifact_path_).ValueOrDie());
  reference_estimator.execution_context()->set_kernel(KernelBackend::kBlocked);
  constexpr size_t kPool = 24;
  std::vector<double> reference;
  for (size_t i = 0; i < kPool; ++i) {
    const cost::ServingEstimate estimate =
        reference_estimator.EstimateWithFallback(SamplePlan(i), 1e9);
    ASSERT_EQ(estimate.tier, cost::ServingTier::kModel);
    reference.push_back(estimate.cpu_minutes);
  }

  constexpr size_t kRequestsPerCase = 48;
  Rng rng(20210620);
  for (size_t shards : {1u, 2u, 3u, 4u}) {
    for (size_t max_batch : {1u, 3u, 8u, 32u}) {
      for (bool parked : {false, true}) {
        for (size_t producers : {1u, 4u}) {
          const std::string label = "shards=" + std::to_string(shards) +
                                    " max_batch=" + std::to_string(max_batch) +
                                    (parked ? " parked" : " live") +
                                    " producers=" + std::to_string(producers);
          // Each producer's plan mix is drawn up front, so the case is the
          // same on every run; only the interleaving varies.
          std::vector<std::vector<size_t>> mixes(producers);
          for (auto& mix : mixes) {
            for (size_t i = 0; i < kRequestsPerCase / producers; ++i) {
              mix.push_back(rng.NextUint64(kPool));
            }
          }
          ShardedRuntimeConfig config;
          config.shard.max_batch = max_batch;
          Tier tier = MakeTier(shards, config);

          std::atomic<size_t> mismatches{0};
          std::atomic<size_t> degraded{0};
          std::vector<std::vector<std::future<cost::ServingEstimate>>> futures(
              producers);
          auto submit = [&](size_t p) {
            for (size_t index : mixes[p]) {
              futures[p].push_back(
                  tier.runtime->Submit(SamplePlan(index), 1e9).ValueOrDie());
            }
          };
          auto check = [&](size_t p) {
            for (size_t i = 0; i < mixes[p].size(); ++i) {
              const cost::ServingEstimate estimate = futures[p][i].get();
              if (estimate.tier != cost::ServingTier::kModel) {
                ++degraded;
              } else if (estimate.cpu_minutes != reference[mixes[p][i]]) {
                ++mismatches;
              }
            }
          };
          auto run_producers = [&](const std::function<void(size_t)>& body) {
            std::vector<std::thread> threads;
            for (size_t p = 0; p < producers; ++p) threads.emplace_back(body, p);
            for (std::thread& thread : threads) thread.join();
          };
          if (parked) {
            run_producers(submit);
            ASSERT_TRUE(tier.runtime->Start().ok()) << label;
            run_producers(check);
          } else {
            ASSERT_TRUE(tier.runtime->Start().ok()) << label;
            run_producers([&](size_t p) {
              submit(p);
              check(p);
            });
          }
          tier.runtime->Shutdown();
          EXPECT_EQ(degraded.load(), 0u) << label;
          EXPECT_EQ(mismatches.load(), 0u) << label;
          EXPECT_EQ(tier.runtime->StatsSnapshot().requests, kRequestsPerCase)
              << label;
        }
      }
    }
  }
}

TEST_F(ShardedRuntimeFixture, OverQuotaTenantShedsWhileOthersServe) {
  // No Start(): requests stay queued, so in-flight counts are deterministic.
  ShardedRuntimeConfig config;
  config.shard.queue_depth = 64;
  Tier tier = MakeTier(2, config);
  tier.runtime->SetTenantQuota(
      1, TenantQuota{/*max_in_flight=*/2, /*max_scratch_bytes=*/0});

  std::vector<std::future<cost::ServingEstimate>> accepted;
  accepted.push_back(
      tier.runtime->Submit(SamplePlan(0), 1e9, /*tenant=*/1).ValueOrDie());
  accepted.push_back(
      tier.runtime->Submit(SamplePlan(1), 1e9, /*tenant=*/1).ValueOrDie());
  auto shed = tier.runtime->Submit(SamplePlan(2), 1e9, /*tenant=*/1);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);

  // Tenant 2 (default, unlimited) is not displaced by tenant 1's shed.
  accepted.push_back(
      tier.runtime->Submit(SamplePlan(3), 1e9, /*tenant=*/2).ValueOrDie());

  const std::vector<TenantCounters> tenants = tier.runtime->TenantSnapshot();
  ASSERT_EQ(tenants.size(), 2u);
  EXPECT_EQ(tenants[0].tenant, 1u);
  EXPECT_EQ(tenants[0].quota_sheds, 1u);
  EXPECT_EQ(tenants[0].in_flight, 2u);
  EXPECT_EQ(tenants[1].tenant, 2u);
  EXPECT_EQ(tenants[1].quota_sheds, 0u);
  EXPECT_EQ(tier.runtime->StatsSnapshot().quota_sheds, 1u);

  // Shutdown drains inline; resolution releases every quota slot.
  tier.runtime->Shutdown();
  for (auto& future : accepted) {
    EXPECT_TRUE(std::isfinite(future.get().cpu_minutes));
  }
  for (const TenantCounters& t : tier.runtime->TenantSnapshot()) {
    EXPECT_EQ(t.in_flight, 0u);
    EXPECT_EQ(t.scratch_bytes, 0u);
  }
  // Every per-request scratch charge was released: only the shards' retained
  // arena blocks (steady-state footprint, kept across Reset) remain charged.
  size_t arena_bytes = 0;
  for (size_t s = 0; s < 2; ++s) {
    arena_bytes += tier.runtime->shard(s).arena_capacity_bytes();
  }
  EXPECT_EQ(tier.runtime->MemorySnapshot().in_use_bytes, arena_bytes);
}

TEST_F(ShardedRuntimeFixture, MemoryBudgetDeniesAndReleasesTheQuotaCharge) {
  ShardedRuntimeConfig config;
  config.per_node_scratch_bytes = 1024;
  config.memory_budget_bytes = 1;  // every real plan exceeds this
  Tier tier = MakeTier(1, config);

  auto denied = tier.runtime->Submit(SamplePlan(0), 1e9, /*tenant=*/5);
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(tier.runtime->StatsSnapshot().memory_denied, 1u);
  // The tenant-quota charge taken before the memory check was rolled back.
  const TenantCounters counters = tier.runtime->TenantSnapshot()[0];
  EXPECT_EQ(counters.in_flight, 0u);
  EXPECT_EQ(counters.scratch_bytes, 0u);
  tier.runtime->Shutdown();
}

TEST_F(ShardedRuntimeFixture, GovernorRejectsBeforeQuotaOrFingerprint) {
  ShardedRuntimeConfig config;
  config.shard.plan_limits.max_nodes = 1;  // every sample plan is over-limit
  Tier tier = MakeTier(2, config);
  auto rejected = tier.runtime->Submit(SamplePlan(0), 1e9, /*tenant=*/1);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  const cost::ServingStats stats = tier.runtime->StatsSnapshot();
  EXPECT_EQ(stats.limit_rejects, 1u);
  // The reject happened before quota admission: no tenant state was created.
  EXPECT_TRUE(tier.runtime->TenantSnapshot().empty());
  tier.runtime->Shutdown();
}

TEST_F(ShardedRuntimeFixture, FaultInjectedCrossShardSwapLeavesEveryShardIntact) {
  ScopedFaultInjection guard;
  constexpr size_t kShards = 3;
  Tier tier = MakeTier(kShards);

  std::vector<std::unique_ptr<core::PrestroidPipeline>> replacements;
  for (size_t i = 0; i < kShards; ++i) {
    replacements.push_back(
        core::PrestroidPipeline::LoadFile(*artifact_path_).ValueOrDie());
  }
  FaultInjector::Global().ArmFailure(FaultSite::kModelSwap);
  auto crashed = tier.runtime->SwapPipelines(std::move(replacements),
                                             /*is_rollback=*/false);
  ASSERT_FALSE(crashed.ok());
  EXPECT_EQ(crashed.status().code(), StatusCode::kIoError);
  // All-or-nothing: no shard swapped, every shard still serves its original
  // model.
  for (size_t s = 0; s < kShards; ++s) {
    const cost::ServingStats stats = tier.runtime->shard(s).StatsSnapshot();
    EXPECT_EQ(stats.model_swaps, 0u);
    EXPECT_TRUE(tier.estimators[s]->has_pipeline());
  }
  tier.runtime->Shutdown();
}

TEST_F(ShardedRuntimeFixture, CrossShardHotSwapsUnderMultiTenantLoadKeepParity) {
  // Chaos criterion: >= 10 cross-shard hot-swaps while multi-tenant
  // producers keep submitting across every shard — no torn state, every
  // model answer bit-identical to the single-query reference (all swaps
  // install instances of the same artifact). Run under TSan in CI.
  constexpr size_t kShards = 2;
  constexpr size_t kSwaps = 12;
  constexpr size_t kProducers = 4;
  constexpr size_t kPerProducer = 48;

  auto reference_pipeline =
      core::PrestroidPipeline::LoadFile(*artifact_path_).ValueOrDie();
  std::vector<double> reference;
  for (size_t i = 0; i < 16; ++i) {
    reference.push_back(
        reference_pipeline->PredictPlan(SamplePlan(i)).ValueOrDie());
  }

  ShardedRuntimeConfig config;
  config.shard.max_batch = 8;
  config.shard.queue_depth = 512;
  Tier tier = MakeTier(kShards, config);
  // Tenants with real (but roomy) quotas, so the quota path runs under TSan.
  tier.runtime->SetTenantQuota(1, TenantQuota{/*max_in_flight=*/256, 0});
  tier.runtime->SetTenantQuota(2, TenantQuota{/*max_in_flight=*/256, 0});
  ASSERT_TRUE(tier.runtime->Start().ok());

  std::atomic<size_t> parity_violations{0};
  std::atomic<size_t> served{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (size_t i = 0; i < kPerProducer; ++i) {
        const size_t plan_index = (p * kPerProducer + i) % 16;
        auto submitted = tier.runtime->Submit(SamplePlan(plan_index), 1e9,
                                              /*tenant=*/1 + (p % 2));
        if (!submitted.ok()) continue;  // quota/queue shed: fine under load
        const cost::ServingEstimate estimate = submitted->get();
        if (estimate.tier != cost::ServingTier::kModel) continue;
        served.fetch_add(1);
        const double expected = reference[plan_index];
        const double tol = 1e-5 * std::max(1.0, std::fabs(expected));
        if (std::fabs(estimate.cpu_minutes - expected) > tol) {
          parity_violations.fetch_add(1);
        }
      }
    });
  }

  size_t completed_swaps = 0;
  for (size_t s = 0; s < kSwaps; ++s) {
    std::vector<std::unique_ptr<core::PrestroidPipeline>> fresh;
    for (size_t i = 0; i < kShards; ++i) {
      fresh.push_back(
          core::PrestroidPipeline::LoadFile(*artifact_path_).ValueOrDie());
    }
    auto swapped =
        tier.runtime->SwapPipelines(std::move(fresh), /*is_rollback=*/false);
    ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
    ASSERT_EQ(swapped->size(), kShards);
    ++completed_swaps;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& producer : producers) producer.join();
  tier.runtime->Shutdown();

  EXPECT_EQ(completed_swaps, kSwaps);
  EXPECT_EQ(parity_violations.load(), 0u);
  EXPECT_GT(served.load(), 0u);
  const cost::ServingStats stats = tier.runtime->StatsSnapshot();
  // Every shard counted every swap: the merged counter is kSwaps * kShards.
  EXPECT_EQ(stats.model_swaps, kSwaps * kShards);
  // All admission state drained back to zero.
  for (const TenantCounters& t : tier.runtime->TenantSnapshot()) {
    EXPECT_EQ(t.in_flight, 0u);
  }
  // All per-request charges drained; only retained arena blocks remain.
  size_t arena_bytes = 0;
  for (size_t s = 0; s < kShards; ++s) {
    arena_bytes += tier.runtime->shard(s).arena_capacity_bytes();
  }
  EXPECT_EQ(tier.runtime->MemorySnapshot().in_use_bytes, arena_bytes);
}

TEST_F(ShardedRuntimeFixture, ModelManagerPromotesAndRollsBackAcrossShards) {
  constexpr size_t kShards = 3;
  Tier tier = MakeTier(kShards);
  // Start from detached model tiers so the bootstrap promotion is what arms
  // them.
  for (auto& estimator : tier.estimators) estimator->AttachPipeline(nullptr);
  ASSERT_TRUE(tier.runtime->Start().ok());

  ModelManager manager(tier.runtime.get());
  auto report = manager.TryPromote(*artifact_path_);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->outcome, ModelLifecycle::kActive);
  // Every shard received its own instance in the one transaction.
  for (size_t s = 0; s < kShards; ++s) {
    EXPECT_TRUE(tier.estimators[s]->has_pipeline());
    EXPECT_EQ(tier.runtime->shard(s).StatsSnapshot().model_swaps, 1u);
  }
  EXPECT_EQ(manager.MergedStats().model_swaps, kShards);

  // A second promotion retains the first fleet for rollback; rolling back
  // restores it on every shard and counts once per shard.
  auto second = manager.TryPromote(*artifact_path_);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->outcome, ModelLifecycle::kActive);
  ASSERT_TRUE(manager.Rollback("test rollback").ok());
  for (size_t s = 0; s < kShards; ++s) {
    const cost::ServingStats stats = tier.runtime->shard(s).StatsSnapshot();
    EXPECT_EQ(stats.model_swaps, 2u);
    EXPECT_EQ(stats.model_rollbacks, 1u);
    EXPECT_TRUE(tier.estimators[s]->has_pipeline());
  }
  // Nothing retained after rollback: a second rollback has no target.
  EXPECT_FALSE(manager.Rollback("again").ok());
  tier.runtime->Shutdown();
}

}  // namespace
}  // namespace prestroid::serve
