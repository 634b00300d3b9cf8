/// Tests for the batched serving tier (serve/) on one shard:
///   - plan fingerprints cover exactly the recast-consumed fields, and a
///     seeded per-field mutation sweep pins equal fingerprints <=> equal
///     featurizations;
///   - the LRU answer cache evicts, clears, serves hits without the serving
///     lock, caches only finite model-tier answers, retires entries on swap,
///     rollback and invalidation, and never serves past a deadline;
///   - batched serving matches single-query serving to 1e-5;
///   - deadline expiry while queued degrades per item instead of failing;
///   - max_batch = 1 takes the same cached, fused path as larger batches;
///   - every attached pipeline serves from frozen resident fp32 weights,
///     bit-identical to an unfrozen copy;
///   - queue overflow rejects with kResourceExhausted without blocking;
///   - multi-producer submission is safe (run under TSan in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "cost/serving_estimator.h"
#include "plan/plan_node.h"
#include "plan/plan_stats.h"
#include "plan/plan_text.h"
#include "plan/planner.h"
#include "serve/answer_cache.h"
#include "serve/ingest_fuzz.h"
#include "serve/plan_fingerprint.h"
#include "serve/sharded_runtime.h"
#include "sql/ast.h"
#include "util/fault_injection.h"
#include "workload/dataset.h"

namespace prestroid::serve {
namespace {

// --------------------------------------------------------------------------
// Plan fingerprints
// --------------------------------------------------------------------------

plan::PlanNodePtr ScanFilterPlan(const std::string& table, double threshold) {
  return plan::MakeFilter(
      sql::MakeCompare(">", sql::MakeColumn(table, "v"),
                       sql::MakeNumber(threshold)),
      plan::MakeTableScan(table));
}

TEST(PlanFingerprintTest, IdenticalPlansShareAFingerprint) {
  plan::PlanNodePtr a = ScanFilterPlan("orders", 10.0);
  plan::PlanNodePtr b = ScanFilterPlan("orders", 10.0);
  EXPECT_EQ(FingerprintPlan(*a), FingerprintPlan(*b));
}

TEST(PlanFingerprintTest, RecastVisibleFieldsChangeTheFingerprint) {
  plan::PlanNodePtr base = ScanFilterPlan("orders", 10.0);
  // Different scan table.
  plan::PlanNodePtr other_table = ScanFilterPlan("lineitem", 10.0);
  EXPECT_NE(FingerprintPlan(*base), FingerprintPlan(*other_table));
  // Different predicate literal.
  plan::PlanNodePtr other_literal = ScanFilterPlan("orders", 11.0);
  EXPECT_NE(FingerprintPlan(*base), FingerprintPlan(*other_literal));
  // Different join flavour over the same inputs.
  plan::PlanNodePtr inner = plan::MakeJoin(
      sql::JoinType::kInner, nullptr, plan::MakeTableScan("a"),
      plan::MakeTableScan("b"));
  plan::PlanNodePtr left = plan::MakeJoin(
      sql::JoinType::kLeft, nullptr, plan::MakeTableScan("a"),
      plan::MakeTableScan("b"));
  EXPECT_NE(FingerprintPlan(*inner), FingerprintPlan(*left));
}

TEST(PlanFingerprintTest, RecastDroppedFieldsDoNotChangeTheFingerprint) {
  // Featurization can never observe limit values or cardinality annotations
  // (the recast drops them), so plans differing only there share an entry.
  plan::PlanNodePtr a = plan::MakeLimit(10, plan::MakeTableScan("orders"));
  plan::PlanNodePtr b = plan::MakeLimit(99, plan::MakeTableScan("orders"));
  b->cardinality = 1234.0;
  EXPECT_EQ(FingerprintPlan(*a), FingerprintPlan(*b));
}

TEST(PlanFingerprintTest, TreeShapeIsPartOfTheFingerprint) {
  // join(a, join(b, c)) vs join(join(a, b), c): same node multiset, nested
  // differently.
  plan::PlanNodePtr right_deep = plan::MakeJoin(
      sql::JoinType::kInner, nullptr, plan::MakeTableScan("a"),
      plan::MakeJoin(sql::JoinType::kInner, nullptr, plan::MakeTableScan("b"),
                     plan::MakeTableScan("c")));
  plan::PlanNodePtr left_deep = plan::MakeJoin(
      sql::JoinType::kInner, nullptr,
      plan::MakeJoin(sql::JoinType::kInner, nullptr, plan::MakeTableScan("a"),
                     plan::MakeTableScan("b")),
      plan::MakeTableScan("c"));
  EXPECT_NE(FingerprintPlan(*right_deep), FingerprintPlan(*left_deep));
}

TEST(PlanFingerprintTest, GenerationMixChangesTheCacheKey) {
  plan::PlanNodePtr p = ScanFilterPlan("orders", 10.0);
  const uint64_t fp = FingerprintPlan(*p);
  EXPECT_NE(CombineFingerprint(fp, 0), CombineFingerprint(fp, 1));
  EXPECT_EQ(CombineFingerprint(fp, 3), CombineFingerprint(fp, 3));
}

// --------------------------------------------------------------------------
// Answer LRU cache
// --------------------------------------------------------------------------

TEST(AnswerCacheTest, EvictsLeastRecentlyUsed) {
  AnswerCache cache(2);
  cache.Insert(1, 1.5);
  cache.Insert(2, 2.5);
  ASSERT_EQ(cache.Lookup(1), 1.5);  // 1 is now most recent
  cache.Insert(3, 3.5);             // evicts 2
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.Lookup(1), 1.5);
  EXPECT_EQ(cache.Lookup(2), std::nullopt);
  EXPECT_EQ(cache.Lookup(3), 3.5);
  EXPECT_EQ(cache.size(), 2u);
  // Re-inserting a key refreshes its answer and recency without evicting.
  cache.Insert(1, 4.5);
  EXPECT_EQ(cache.Lookup(1), 4.5);
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(AnswerCacheTest, ZeroCapacityDisablesCaching) {
  AnswerCache cache(0);
  cache.Insert(1, 1.5);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Lookup(1), std::nullopt);
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(AnswerCacheTest, ClearDropsEntriesButKeepsTheEvictionCount) {
  AnswerCache cache(1);
  cache.Insert(1, 1.5);
  cache.Insert(2, 2.5);  // evicts 1
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Lookup(2), std::nullopt);
  EXPECT_EQ(cache.evictions(), 1u);
}

// --------------------------------------------------------------------------
// Serving runtime (fixture with a fitted pipeline, mirroring serving_test)
// --------------------------------------------------------------------------

class ServingRuntimeFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload::SchemaGenConfig schema_config;
    schema_config.num_tables = 25;
    schema_config.num_days = 20;
    schema_config.seed = 11;
    workload::GeneratedSchema schema = GenerateSchema(schema_config);
    workload::TraceConfig trace_config;
    trace_config.num_queries = 60;
    trace_config.num_days = 20;
    trace_config.seed = 12;
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
        new std::string(::testing::TempDir() + "/serving_runtime_model.bin");
    ASSERT_TRUE(pipeline->SaveFile(*artifact_path_).ok());
  }
  static void TearDownTestSuite() {
    delete records_;
    delete artifact_path_;
  }

  /// A fully armed estimator: fitted fallbacks plus the model tier.
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

  /// Swaps the single shard's model tier, returning the previous pipeline.
  static Result<std::unique_ptr<core::PrestroidPipeline>> SwapPipeline(
      ShardedServingRuntime& runtime,
      std::unique_ptr<core::PrestroidPipeline> pipeline,
      bool is_rollback = false) {
    std::vector<std::unique_ptr<core::PrestroidPipeline>> pipelines;
    pipelines.push_back(std::move(pipeline));
    auto previous = runtime.SwapPipelines(std::move(pipelines), is_rollback);
    if (!previous.ok()) return previous.status();
    return std::move((*previous)[0]);
  }

  static std::vector<workload::QueryRecord>* records_;
  static std::string* artifact_path_;
};

std::vector<workload::QueryRecord>* ServingRuntimeFixture::records_ = nullptr;
std::string* ServingRuntimeFixture::artifact_path_ = nullptr;

TEST_F(ServingRuntimeFixture, BatchedMatchesSingleQueryServing) {
  auto estimator = MakeEstimator();
  // Single-query references through an independent instance of the same
  // artifact (the runtime owns `estimator` while running).
  auto reference_pipeline =
      core::PrestroidPipeline::LoadFile(*artifact_path_).ValueOrDie();
  constexpr size_t kPlans = 24;
  std::vector<double> reference;
  for (size_t i = 0; i < kPlans; ++i) {
    reference.push_back(reference_pipeline->PredictPlan(SamplePlan(i))
                            .ValueOrDie());
  }

  ShardedRuntimeConfig config;
  config.shard.max_batch = 8;
  ShardedServingRuntime runtime({estimator.get()}, config);
  ASSERT_TRUE(runtime.Start().ok());

  std::vector<std::future<cost::ServingEstimate>> futures;
  for (size_t i = 0; i < kPlans; ++i) {
    auto submitted = runtime.Submit(SamplePlan(i), /*deadline_ms=*/1e9);
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    futures.push_back(std::move(*submitted));
  }
  for (size_t i = 0; i < kPlans; ++i) {
    const cost::ServingEstimate estimate = futures[i].get();
    ASSERT_EQ(estimate.tier, cost::ServingTier::kModel)
        << estimate.degradation_reason.ToString();
    EXPECT_NEAR(estimate.cpu_minutes, reference[i], 1e-5);
    EXPECT_TRUE(estimate.degradation_reason.ok());
    EXPECT_GE(estimate.latency_ms, 0.0);
  }
  runtime.Shutdown();
  const cost::ServingStats stats = runtime.StatsSnapshot();
  EXPECT_EQ(stats.requests, kPlans);
  EXPECT_EQ(stats.by_tier[0], kPlans);
  EXPECT_EQ(runtime.LatencySnapshot().count(), kPlans);
}

TEST_F(ServingRuntimeFixture, DeadlineExpiredWhileQueuedDegradesPerItem) {
  auto estimator = MakeEstimator();
  ShardedRuntimeConfig config;
  config.shard.max_batch = 4;
  ShardedServingRuntime runtime({estimator.get()}, config);

  // Enqueue before Start so the deadline deterministically expires while the
  // request is still queued.
  auto expired = runtime.Submit(SamplePlan(0), /*deadline_ms=*/1e-6);
  ASSERT_TRUE(expired.ok());
  auto healthy = runtime.Submit(SamplePlan(1), /*deadline_ms=*/1e9);
  ASSERT_TRUE(healthy.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_TRUE(runtime.Start().ok());

  const cost::ServingEstimate degraded = expired->get();
  EXPECT_NE(degraded.tier, cost::ServingTier::kModel);
  EXPECT_EQ(degraded.degradation_reason.code(), StatusCode::kOutOfRange);
  EXPECT_TRUE(std::isfinite(degraded.cpu_minutes));

  const cost::ServingEstimate served = healthy->get();
  EXPECT_EQ(served.tier, cost::ServingTier::kModel);

  runtime.Shutdown();
  const cost::ServingStats stats = runtime.StatsSnapshot();
  EXPECT_GE(stats.deadline_skips, 1u);
  EXPECT_EQ(stats.requests, 2u);
}

/// Joins clones of the fixture's plans pairwise into one plan of close to
/// (never over) `max_nodes` nodes.
plan::PlanNodePtr PlanAtTheNodeLimit(
    const std::vector<workload::QueryRecord>& records, size_t max_nodes) {
  std::vector<plan::PlanNodePtr> level;
  size_t nodes = 0;
  for (size_t i = 0;; ++i) {
    plan::PlanNodePtr leaf = records[i % records.size()].plan->Clone();
    const size_t n = plan::ComputePlanStats(*leaf).node_count;
    // Each extra leaf also costs one join node.
    if (nodes + n + level.size() > max_nodes) break;
    nodes += n;
    level.push_back(std::move(leaf));
  }
  while (level.size() > 1) {
    std::vector<plan::PlanNodePtr> next;
    for (size_t i = 0; i + 1 < level.size(); i += 2) {
      auto join = std::make_unique<plan::PlanNode>();
      join->type = plan::PlanNodeType::kJoin;
      join->children.push_back(std::move(level[i]));
      join->children.push_back(std::move(level[i + 1]));
      next.push_back(std::move(join));
    }
    if (level.size() % 2 == 1) next.push_back(std::move(level.back()));
    level = std::move(next);
  }
  return std::move(level[0]);
}

TEST_F(ServingRuntimeFixture, DeadlineMissCountsTheWholeBatchNotThePerRowForward) {
  auto estimator = MakeEstimator();
  const size_t limit = cost::kMaxModelPlanNodes;
  const plan::PlanNodePtr big = PlanAtTheNodeLimit(*records_, limit);
  const plan::PlanStats big_stats = plan::ComputePlanStats(*big);
  ASSERT_LE(big_stats.node_count, limit);
  ASSERT_GT(big_stats.node_count, limit * 9 / 10);
  ASSERT_LE(big_stats.max_depth, cost::kMaxModelPlanDepth);

  // Both queued before Start, so they share one batch with the small plan
  // first. The small request's deadline leaves it admitted; the shared batch
  // then stalls before its fused forward for that whole deadline, so the
  // request resolves after it — a miss, although its own row's work is
  // short. The deadline bounds only the worker's wakeup after Start, not
  // any featurization or forward time.
  constexpr double kDeadlineMs = 250.0;
  ScopedFaultInjection faults;
  FaultInjector::Global().ArmStall(FaultSite::kServeForward, kDeadlineMs);
  ShardedRuntimeConfig config;
  config.shard.max_batch = 2;
  ShardedServingRuntime runtime({estimator.get()}, config);
  auto small = runtime.Submit(SamplePlan(0), kDeadlineMs);
  ASSERT_TRUE(small.ok());
  auto large = runtime.Submit(*big, /*deadline_ms=*/1e9);
  ASSERT_TRUE(large.ok());
  ASSERT_TRUE(runtime.Start().ok());

  const cost::ServingEstimate small_estimate = small->get();
  EXPECT_EQ(small_estimate.tier, cost::ServingTier::kModel)
      << small_estimate.degradation_reason.ToString();
  EXPECT_GT(small_estimate.latency_ms, kDeadlineMs);
  EXPECT_EQ(large->get().tier, cost::ServingTier::kModel);
  runtime.Shutdown();
  EXPECT_EQ(runtime.StatsSnapshot().deadline_misses, 1u);
}

TEST_F(ServingRuntimeFixture, QueueOverflowRejectsWithoutBlocking) {
  // No Start(): nothing drains, so the overflow point is deterministic.
  cost::ServingEstimator estimator;  // fallbacks only — plenty for a drain
  ShardedRuntimeConfig config;
  config.shard.queue_depth = 4;
  config.shard.max_batch = 2;
  ShardedServingRuntime runtime({&estimator}, config);

  std::vector<std::future<cost::ServingEstimate>> accepted;
  for (size_t i = 0; i < config.shard.queue_depth; ++i) {
    auto submitted = runtime.Submit(SamplePlan(i));
    ASSERT_TRUE(submitted.ok());
    accepted.push_back(std::move(*submitted));
  }
  auto overflow = runtime.Submit(SamplePlan(4));
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kResourceExhausted);

  cost::ServingStats stats = runtime.StatsSnapshot();
  EXPECT_EQ(stats.rejected_requests, 1u);
  EXPECT_EQ(stats.queue_high_watermark, config.shard.queue_depth);

  // Shutdown without Start drains inline: every accepted future resolves.
  runtime.Shutdown();
  for (auto& future : accepted) {
    EXPECT_TRUE(std::isfinite(future.get().cpu_minutes));
  }
  // And the runtime no longer admits work.
  auto after = runtime.Submit(SamplePlan(0));
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ServingRuntimeFixture, RestartResetsTheQueueHighWatermark) {
  cost::ServingEstimator estimator;  // fallbacks only — plenty for a drain
  ShardedRuntimeConfig config;
  config.shard.queue_depth = 4;
  config.shard.max_batch = 2;
  ShardedServingRuntime runtime({&estimator}, config);

  // First run: fill the queue before Start so the watermark deterministically
  // reaches the full depth.
  std::vector<std::future<cost::ServingEstimate>> first_run;
  for (size_t i = 0; i < config.shard.queue_depth; ++i) {
    first_run.push_back(runtime.Submit(SamplePlan(i)).ValueOrDie());
  }
  EXPECT_EQ(runtime.StatsSnapshot().queue_high_watermark,
            config.shard.queue_depth);
  runtime.Shutdown();
  for (auto& future : first_run) future.get();

  // Second run: the watermark reports THIS run's peak, not the first run's.
  ASSERT_TRUE(runtime.Start().ok());
  auto one = runtime.Submit(SamplePlan(0), 1e9);
  ASSERT_TRUE(one.ok());
  EXPECT_TRUE(std::isfinite(one->get().cpu_minutes));
  const cost::ServingStats stats = runtime.StatsSnapshot();
  EXPECT_LE(stats.queue_high_watermark, 1u);
  runtime.Shutdown();
}

TEST_F(ServingRuntimeFixture, CacheReusesFeaturesUntilInvalidated) {
  auto estimator = MakeEstimator();
  ShardedRuntimeConfig config;
  config.shard.max_batch = 4;  // >= 2 so the fingerprint cache engages
  ShardedServingRuntime runtime({estimator.get()}, config);
  ASSERT_TRUE(runtime.Start().ok());

  const cost::ServingEstimate first =
      runtime.Submit(SamplePlan(0), 1e9)->get();
  const cost::ServingEstimate second =
      runtime.Submit(SamplePlan(0), 1e9)->get();
  ASSERT_EQ(first.tier, cost::ServingTier::kModel);
  ASSERT_EQ(second.tier, cost::ServingTier::kModel);
  // Identical plan, identical features: bitwise-equal model answers.
  EXPECT_EQ(first.cpu_minutes, second.cpu_minutes);
  cost::ServingStats stats = runtime.StatsSnapshot();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);

  // Catalog churn / artifact swap: invalidation retires the cached encoding,
  // so the same plan featurizes again under the new generation.
  runtime.InvalidateCache();
  const cost::ServingEstimate third =
      runtime.Submit(SamplePlan(0), 1e9)->get();
  ASSERT_EQ(third.tier, cost::ServingTier::kModel);
  EXPECT_EQ(third.cpu_minutes, first.cpu_minutes);  // same pipeline, same answer
  stats = runtime.StatsSnapshot();
  EXPECT_EQ(stats.cache_misses, 2u);
  EXPECT_EQ(stats.cache_hits, 1u);
  runtime.Shutdown();
}

TEST_F(ServingRuntimeFixture, BatchOfOneTakesTheBatchedPathAndTheCache) {
  // max_batch = 1 is not a separate serving path: it goes through the
  // fingerprint cache and the fused forward like any other batch size, so it
  // answers bit-identically to max_batch = 4, and a deadline that expires
  // while queued still degrades through AdmitModelTier.
  constexpr size_t kPlans = 6;
  std::vector<std::vector<double>> answers;
  for (size_t max_batch : {size_t{1}, size_t{4}}) {
    auto estimator = MakeEstimator();
    ShardedRuntimeConfig config;
    config.shard.max_batch = max_batch;
    ShardedServingRuntime runtime({estimator.get()}, config);

    // Enqueued before Start, so the deadline deterministically expires while
    // the request is still queued.
    auto expired = runtime.Submit(SamplePlan(0), /*deadline_ms=*/1e-6);
    ASSERT_TRUE(expired.ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ASSERT_TRUE(runtime.Start().ok());
    const cost::ServingEstimate degraded = expired->get();
    EXPECT_NE(degraded.tier, cost::ServingTier::kModel);
    EXPECT_EQ(degraded.degradation_reason.code(), StatusCode::kOutOfRange);
    EXPECT_TRUE(std::isfinite(degraded.cpu_minutes));

    // Two passes over the same plans: the first featurizes, the second is
    // served from the cache with bit-identical answers.
    std::vector<double> served;
    for (size_t pass = 0; pass < 2; ++pass) {
      for (size_t i = 0; i < kPlans; ++i) {
        const cost::ServingEstimate estimate =
            runtime.Submit(SamplePlan(i), 1e9)->get();
        ASSERT_EQ(estimate.tier, cost::ServingTier::kModel);
        if (pass == 0) {
          served.push_back(estimate.cpu_minutes);
        } else {
          EXPECT_EQ(estimate.cpu_minutes, served[i]) << "plan " << i;
        }
      }
    }
    runtime.Shutdown();
    const cost::ServingStats stats = runtime.StatsSnapshot();
    EXPECT_EQ(stats.cache_hits + stats.cache_misses, 2 * kPlans);
    EXPECT_GE(stats.cache_hits, kPlans) << "max_batch " << max_batch;
    EXPECT_GE(stats.deadline_skips, 1u);
    EXPECT_EQ(stats.requests, 2 * kPlans + 1);
    answers.push_back(std::move(served));
  }
  for (size_t i = 0; i < kPlans; ++i) {
    EXPECT_EQ(answers[0][i], answers[1][i]) << "plan " << i;
  }
}

TEST_F(ServingRuntimeFixture, ShardServesFrozenWeightsAfterStartSwapAndRollback) {
  // Resident fp32 serving weights (DESIGN.md §5.8): the shard freezes its
  // pipeline at Start(), on every swap and on every rollback, and the frozen
  // forward answers bit for bit like an unfrozen copy of the artifact.
  auto reference_pipeline =
      core::PrestroidPipeline::LoadFile(*artifact_path_).ValueOrDie();
  constexpr size_t kPlans = 8;
  std::vector<double> reference;
  for (size_t i = 0; i < kPlans; ++i) {
    const core::PlanFeatures features =
        reference_pipeline->FeaturizePlan(SamplePlan(i)).ValueOrDie();
    reference.push_back(reference_pipeline->PredictFeaturized({&features})[0]);
  }
  ASSERT_FALSE(reference_pipeline->weights_frozen());

  auto estimator = MakeEstimator();
  ShardedRuntimeConfig config;
  config.shard.max_batch = 4;
  ShardedServingRuntime runtime({estimator.get()}, config);
  // Read on this thread only after Start() or a swap returned: both freeze
  // on the calling thread, and the worker never writes the flag.
  auto serving_pipeline_frozen = [&] {
    return estimator->pipeline()->weights_frozen();
  };
  EXPECT_FALSE(serving_pipeline_frozen());  // not yet started
  auto expect_frozen_and_identical = [&](const char* stage) {
    EXPECT_TRUE(serving_pipeline_frozen()) << stage;
    for (size_t i = 0; i < kPlans; ++i) {
      const cost::ServingEstimate estimate =
          runtime.Submit(SamplePlan(i), 1e9)->get();
      ASSERT_EQ(estimate.tier, cost::ServingTier::kModel) << stage;
      EXPECT_EQ(estimate.cpu_minutes, reference[i]) << stage << " plan " << i;
    }
  };

  ASSERT_TRUE(runtime.Start().ok());
  expect_frozen_and_identical("after Start");

  auto previous = SwapPipeline(
      runtime, core::PrestroidPipeline::LoadFile(*artifact_path_).ValueOrDie());
  ASSERT_TRUE(previous.ok()) << previous.status().ToString();
  expect_frozen_and_identical("after SwapPipeline");

  // Roll back to a fresh, never-frozen instance of the artifact, so the
  // rollback has to freeze it.
  auto rollback_target =
      core::PrestroidPipeline::LoadFile(*artifact_path_).ValueOrDie();
  ASSERT_FALSE(rollback_target->weights_frozen());
  auto rolled =
      SwapPipeline(runtime, std::move(rollback_target), /*is_rollback=*/true);
  ASSERT_TRUE(rolled.ok()) << rolled.status().ToString();
  expect_frozen_and_identical("after rollback");
  runtime.Shutdown();
}

TEST_F(ServingRuntimeFixture, SwapPipelineIsAtomicAndBumpsTheCacheGeneration) {
  auto estimator = MakeEstimator();
  ShardedRuntimeConfig config;
  config.shard.max_batch = 4;
  ShardedServingRuntime runtime({estimator.get()}, config);
  ASSERT_TRUE(runtime.Start().ok());

  const cost::ServingEstimate before =
      runtime.Submit(SamplePlan(0), 1e9)->get();
  ASSERT_EQ(before.tier, cost::ServingTier::kModel);
  cost::ServingStats stats = runtime.StatsSnapshot();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.model_swaps, 0u);

  // Swap in a fresh instance of the same artifact: the previous pipeline
  // comes back for rollback retention, and the cached featurization is
  // retired (generation bump), so the plan featurizes again under the new
  // model — with a bit-identical answer, since the weights are identical.
  auto replacement =
      core::PrestroidPipeline::LoadFile(*artifact_path_).ValueOrDie();
  auto previous = SwapPipeline(runtime, std::move(replacement));
  ASSERT_TRUE(previous.ok()) << previous.status().ToString();
  EXPECT_NE(*previous, nullptr);

  const cost::ServingEstimate after =
      runtime.Submit(SamplePlan(0), 1e9)->get();
  ASSERT_EQ(after.tier, cost::ServingTier::kModel);
  EXPECT_EQ(after.cpu_minutes, before.cpu_minutes);
  stats = runtime.StatsSnapshot();
  EXPECT_EQ(stats.cache_misses, 2u);  // old generation's entry is unreachable
  EXPECT_EQ(stats.model_swaps, 1u);
  EXPECT_EQ(stats.model_rollbacks, 0u);

  // Rolling the retained pipeline back counts on the rollback counter.
  auto rolled =
      SwapPipeline(runtime, std::move(*previous), /*is_rollback=*/true);
  ASSERT_TRUE(rolled.ok());
  stats = runtime.StatsSnapshot();
  EXPECT_EQ(stats.model_swaps, 1u);
  EXPECT_EQ(stats.model_rollbacks, 1u);

  // Detaching (nullptr) degrades to the fallback chain instead of failing.
  auto detached = SwapPipeline(runtime, nullptr);
  ASSERT_TRUE(detached.ok());
  const cost::ServingEstimate degraded =
      runtime.Submit(SamplePlan(0), 1e9)->get();
  EXPECT_NE(degraded.tier, cost::ServingTier::kModel);
  EXPECT_TRUE(std::isfinite(degraded.cpu_minutes));
  runtime.Shutdown();
}

TEST_F(ServingRuntimeFixture, HotSwapUnderConcurrentLoadKeepsParity) {
  // Chaos criterion (a): >= 10 consecutive hot-swaps while multiple
  // producers hammer the queue — zero failed requests, zero parity
  // violations (every answer matches the single-query reference), all
  // requests on the model tier throughout. Runs under TSan in CI.
  auto estimator = MakeEstimator();
  auto reference_pipeline =
      core::PrestroidPipeline::LoadFile(*artifact_path_).ValueOrDie();
  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 64;
  constexpr size_t kDistinctPlans = 16;
  std::vector<double> reference;
  for (size_t i = 0; i < kDistinctPlans; ++i) {
    reference.push_back(
        reference_pipeline->PredictPlan(SamplePlan(i)).ValueOrDie());
  }

  ShardedRuntimeConfig config;
  config.shard.queue_depth = 16;
  config.shard.max_batch = 4;
  config.shard.cache_entries = 8;
  ShardedServingRuntime runtime({estimator.get()}, config);
  ASSERT_TRUE(runtime.Start().ok());

  std::atomic<size_t> served{0};
  std::atomic<size_t> failed{0};
  std::atomic<size_t> parity_violations{0};
  std::vector<std::thread> producers;
  for (size_t t = 0; t < kThreads; ++t) {
    producers.emplace_back([&, t] {
      std::deque<std::pair<size_t, std::future<cost::ServingEstimate>>> window;
      auto settle = [&](size_t plan_index,
                        std::future<cost::ServingEstimate> f) {
        const cost::ServingEstimate estimate = f.get();
        if (estimate.tier != cost::ServingTier::kModel) ++failed;
        if (!(std::fabs(estimate.cpu_minutes - reference[plan_index]) <=
              1e-5)) {
          ++parity_violations;
        }
        ++served;
      };
      for (size_t i = 0; i < kPerThread; ++i) {
        const size_t plan_index = (t * kPerThread + i) % kDistinctPlans;
        for (;;) {
          auto submitted =
              runtime.Submit(SamplePlan(plan_index), /*deadline_ms=*/1e9);
          if (submitted.ok()) {
            window.emplace_back(plan_index, std::move(*submitted));
            break;
          }
          if (window.empty()) {
            std::this_thread::yield();
            continue;
          }
          settle(window.front().first, std::move(window.front().second));
          window.pop_front();
        }
      }
      while (!window.empty()) {
        settle(window.front().first, std::move(window.front().second));
        window.pop_front();
      }
    });
  }

  // The swapper: >= 10 promotions/rollbacks racing the producers, every one
  // an instance of the same artifact so parity is checkable throughout.
  constexpr size_t kSwaps = 12;
  std::atomic<size_t> swap_failures{0};
  std::thread swapper([&] {
    auto next = core::PrestroidPipeline::LoadFile(*artifact_path_).ValueOrDie();
    for (size_t s = 0; s < kSwaps; ++s) {
      auto swapped =
          SwapPipeline(runtime, std::move(next), /*is_rollback=*/s % 2 == 1);
      if (!swapped.ok() || *swapped == nullptr) {
        ++swap_failures;
        next = core::PrestroidPipeline::LoadFile(*artifact_path_).ValueOrDie();
      } else {
        next = std::move(*swapped);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  for (std::thread& t : producers) t.join();
  swapper.join();
  runtime.Shutdown();

  EXPECT_EQ(served.load(), kThreads * kPerThread);
  EXPECT_EQ(failed.load(), 0u);
  EXPECT_EQ(parity_violations.load(), 0u);
  EXPECT_EQ(swap_failures.load(), 0u);
  const cost::ServingStats stats = runtime.StatsSnapshot();
  EXPECT_EQ(stats.requests, kThreads * kPerThread);
  EXPECT_EQ(stats.model_swaps + stats.model_rollbacks, kSwaps);
  EXPECT_EQ(stats.model_swaps, kSwaps / 2);
  EXPECT_EQ(stats.model_rollbacks, kSwaps / 2);
  EXPECT_EQ(runtime.LatencySnapshot().count(), kThreads * kPerThread);
}

TEST_F(ServingRuntimeFixture, MultiProducerStressIsSafe) {
  auto estimator = MakeEstimator();
  ShardedRuntimeConfig config;
  config.shard.queue_depth = 16;  // small: exercises overflow + backpressure
  config.shard.max_batch = 4;
  // Smaller than the plan pool: exercises eviction.
  config.shard.cache_entries = 8;
  ShardedServingRuntime runtime({estimator.get()}, config);
  ASSERT_TRUE(runtime.Start().ok());

  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 64;
  std::atomic<size_t> served{0};
  std::atomic<size_t> non_finite{0};
  std::vector<std::thread> producers;
  for (size_t t = 0; t < kThreads; ++t) {
    producers.emplace_back([&, t] {
      std::deque<std::future<cost::ServingEstimate>> window;
      auto settle = [&](std::future<cost::ServingEstimate> f) {
        if (!std::isfinite(f.get().cpu_minutes)) ++non_finite;
        ++served;
      };
      for (size_t i = 0; i < kPerThread; ++i) {
        for (;;) {
          auto submitted =
              runtime.Submit(SamplePlan(t * kPerThread + i), /*deadline_ms=*/1e9);
          if (submitted.ok()) {
            window.push_back(std::move(*submitted));
            break;
          }
          ASSERT_EQ(submitted.status().code(), StatusCode::kResourceExhausted);
          if (window.empty()) {
            // The queue is full of OTHER producers' requests; let the worker
            // drain before retrying.
            std::this_thread::yield();
            continue;
          }
          settle(std::move(window.front()));
          window.pop_front();
        }
      }
      while (!window.empty()) {
        settle(std::move(window.front()));
        window.pop_front();
      }
    });
  }
  // Concurrent snapshot reader + one mid-flight invalidation.
  std::atomic<bool> done{false};
  std::thread reader([&] {
    bool invalidated = false;
    while (!done.load()) {
      const cost::ServingStats stats = runtime.StatsSnapshot();
      (void)runtime.LatencySnapshot();
      if (!invalidated && stats.requests > kThreads * kPerThread / 2) {
        runtime.InvalidateCache();
        invalidated = true;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  for (std::thread& t : producers) t.join();
  done = true;
  reader.join();
  runtime.Shutdown();

  EXPECT_EQ(served.load(), kThreads * kPerThread);
  EXPECT_EQ(non_finite.load(), 0u);
  const cost::ServingStats stats = runtime.StatsSnapshot();
  EXPECT_EQ(stats.requests, kThreads * kPerThread);
  EXPECT_LE(stats.queue_high_watermark, config.shard.queue_depth);
  EXPECT_EQ(runtime.LatencySnapshot().count(), kThreads * kPerThread);
}

// --------------------------------------------------------------------------
// Answer cache inside the runtime
// --------------------------------------------------------------------------

TEST_F(ServingRuntimeFixture, ExpiredNonFiniteAndDetachedAnswersAreNeverCached) {
  // Expired deadline: the request degrades in the queue and caches nothing,
  // so the same plan featurizes on its next, healthy submission.
  {
    auto estimator = MakeEstimator();
    ShardedServingRuntime runtime({estimator.get()});
    auto expired = runtime.Submit(SamplePlan(0), /*deadline_ms=*/1e-6);
    ASSERT_TRUE(expired.ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ASSERT_TRUE(runtime.Start().ok());
    EXPECT_NE(expired->get().tier, cost::ServingTier::kModel);
    EXPECT_EQ(runtime.Submit(SamplePlan(0), 1e9)->get().tier,
              cost::ServingTier::kModel);
    const cost::ServingStats stats = runtime.StatsSnapshot();
    EXPECT_EQ(stats.cache_hits, 0u);
    EXPECT_EQ(stats.cache_misses, 1u);
    runtime.Shutdown();
  }
  // Non-finite model output: degraded as a model error every time, never
  // served back from the cache.
  {
    auto estimator = std::make_unique<cost::ServingEstimator>();
    ASSERT_TRUE(estimator->FitFallbacks(*records_).ok());
    auto poisoned =
        core::PrestroidPipeline::LoadFile(*artifact_path_).ValueOrDie();
    for (ParamRef& param : poisoned->model()->Params()) {
      param.value->Fill(std::numeric_limits<float>::quiet_NaN());
    }
    estimator->AttachPipeline(std::move(poisoned));
    ShardedServingRuntime runtime({estimator.get()});
    ASSERT_TRUE(runtime.Start().ok());
    for (int i = 0; i < 2; ++i) {
      const cost::ServingEstimate estimate =
          runtime.Submit(SamplePlan(0), 1e9)->get();
      EXPECT_NE(estimate.tier, cost::ServingTier::kModel);
      EXPECT_EQ(estimate.degradation_reason.code(), StatusCode::kInternal);
      EXPECT_TRUE(std::isfinite(estimate.cpu_minutes));
    }
    const cost::ServingStats stats = runtime.StatsSnapshot();
    EXPECT_EQ(stats.cache_hits, 0u);
    EXPECT_EQ(stats.cache_misses, 2u);
    EXPECT_EQ(stats.model_errors, 2u);
    runtime.Shutdown();
  }
  // Detached model tier: fallback answers are not cached, and reattaching
  // featurizes afresh instead of serving anything from before the detach.
  {
    auto estimator = MakeEstimator();
    ShardedServingRuntime runtime({estimator.get()});
    ASSERT_TRUE(runtime.Start().ok());
    const double model_answer =
        runtime.Submit(SamplePlan(0), 1e9)->get().cpu_minutes;
    auto detached = SwapPipeline(runtime, nullptr);
    ASSERT_TRUE(detached.ok());
    for (int i = 0; i < 2; ++i) {
      EXPECT_NE(runtime.Submit(SamplePlan(0), 1e9)->get().tier,
                cost::ServingTier::kModel);
    }
    ASSERT_TRUE(SwapPipeline(runtime, std::move(*detached)).ok());
    const cost::ServingEstimate reattached =
        runtime.Submit(SamplePlan(0), 1e9)->get();
    EXPECT_EQ(reattached.tier, cost::ServingTier::kModel);
    EXPECT_EQ(reattached.cpu_minutes, model_answer);
    const cost::ServingStats stats = runtime.StatsSnapshot();
    EXPECT_EQ(stats.cache_hits, 0u);
    EXPECT_EQ(stats.cache_misses, 2u);
    runtime.Shutdown();
  }
}

TEST_F(ServingRuntimeFixture, SwapRollbackAndInvalidateRetireCachedAnswers) {
  auto estimator = MakeEstimator();
  ShardedServingRuntime runtime({estimator.get()});
  ASSERT_TRUE(runtime.Start().ok());
  auto serve_twice = [&](const char* stage) {
    // The first submission featurizes, the second is a hit.
    const cost::ServingStats before = runtime.StatsSnapshot();
    for (int i = 0; i < 2; ++i) {
      EXPECT_EQ(runtime.Submit(SamplePlan(3), 1e9)->get().tier,
                cost::ServingTier::kModel)
          << stage;
    }
    const cost::ServingStats after = runtime.StatsSnapshot();
    EXPECT_EQ(after.cache_misses - before.cache_misses, 1u) << stage;
    EXPECT_EQ(after.cache_hits - before.cache_hits, 1u) << stage;
  };
  serve_twice("cold");
  auto previous = SwapPipeline(
      runtime, core::PrestroidPipeline::LoadFile(*artifact_path_).ValueOrDie());
  ASSERT_TRUE(previous.ok());
  serve_twice("after swap");
  ASSERT_TRUE(
      SwapPipeline(runtime, std::move(*previous), /*is_rollback=*/true).ok());
  serve_twice("after rollback");
  runtime.InvalidateCache();
  serve_twice("after InvalidateCache");
  runtime.Shutdown();
}

TEST_F(ServingRuntimeFixture, CacheHitResolvesWhileTheServingLockIsHeld) {
  // The hit path never takes the serving lock, so an in-flight batch (here:
  // the test thread holding that lock) cannot delay it.
  auto estimator = MakeEstimator();
  ShardedServingRuntime runtime({estimator.get()});
  ASSERT_TRUE(runtime.Start().ok());
  const double answer = runtime.Submit(SamplePlan(2), 1e9)->get().cpu_minutes;
  {
    std::unique_lock<std::mutex> serving = runtime.shard(0).LockServing();
    auto hit = runtime.Submit(SamplePlan(2), 1e9);
    ASSERT_TRUE(hit.ok());
    ASSERT_EQ(hit->wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    const cost::ServingEstimate estimate = hit->get();
    EXPECT_EQ(estimate.tier, cost::ServingTier::kModel);
    EXPECT_EQ(estimate.cpu_minutes, answer);
  }
  // The hit counts like any model-tier answer.
  const cost::ServingStats stats = runtime.StatsSnapshot();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.by_tier[static_cast<size_t>(cost::ServingTier::kModel)], 2u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(runtime.LatencySnapshot().count(), 2u);
  runtime.Shutdown();
}

TEST_F(ServingRuntimeFixture, CachedPlanWithExpiredDeadlineStillDegrades) {
  auto estimator = MakeEstimator();
  ShardedServingRuntime runtime({estimator.get()});
  ASSERT_TRUE(runtime.Start().ok());
  ASSERT_EQ(runtime.Submit(SamplePlan(1), 1e9)->get().tier,
            cost::ServingTier::kModel);
  const size_t skips_before = runtime.StatsSnapshot().deadline_skips;

  const cost::ServingEstimate degraded =
      runtime.Submit(SamplePlan(1), /*deadline_ms=*/1e-6)->get();
  EXPECT_NE(degraded.tier, cost::ServingTier::kModel);
  EXPECT_EQ(degraded.degradation_reason.code(), StatusCode::kOutOfRange);
  const cost::ServingStats stats = runtime.StatsSnapshot();
  EXPECT_EQ(stats.deadline_skips, skips_before + 1);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.requests, 2u);
  runtime.Shutdown();
}

// --------------------------------------------------------------------------
// Fingerprint <=> featurization property
// --------------------------------------------------------------------------

/// Bit-equality of two featurizations: every tree's features, child links
/// and pooling votes.
bool SameFeatures(const core::PlanFeatures& a, const core::PlanFeatures& b) {
  if (a.trees.size() != b.trees.size()) return false;
  for (size_t t = 0; t < a.trees.size(); ++t) {
    const core::TreeFeatures& x = a.trees[t];
    const core::TreeFeatures& y = b.trees[t];
    if (x.left != y.left || x.right != y.right ||
        x.features.shape() != y.features.shape() ||
        x.votes.size() != y.votes.size()) {
      return false;
    }
    if (std::memcmp(x.features.data(), y.features.data(),
                    x.features.size() * sizeof(float)) != 0 ||
        std::memcmp(x.votes.data(), y.votes.data(),
                    x.votes.size() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

TEST_F(ServingRuntimeFixture, FingerprintEqualityMatchesFeaturizationEquality) {
  // The answer cache serves one answer per fingerprint, so a fingerprint
  // collision would return a wrong answer. Every plan field is mutated in
  // turn over the ingestion-fuzz corpus and the training plans:
  //   equal fingerprints   => bit-equal features and predictions;
  //   different features   => different fingerprints.
  // A field the recast starts reading but FingerprintPlan does not hash
  // fails the first direction.
  auto pipeline = core::PrestroidPipeline::LoadFile(*artifact_path_).ValueOrDie();

  // Replacement names from the training plans, so mutants stay inside the
  // encoder vocabulary where a renamed table or column is visible.
  std::set<std::string> tables;
  std::set<std::string> columns;
  for (const workload::QueryRecord& record : *records_) {
    plan::VisitPlan(*record.plan, [&](const plan::PlanNode& node) {
      if (node.type == plan::PlanNodeType::kTableScan) tables.insert(node.table);
      if (node.predicate == nullptr) return;
      std::vector<std::pair<std::string, std::string>> refs;
      plan::CollectColumnRefs(*node.predicate, &refs);
      for (const auto& ref : refs) columns.insert(ref.second);
    });
  }
  FieldMutationPool pool;
  pool.tables.assign(tables.begin(), tables.end());
  pool.columns.assign(columns.begin(), columns.end());

  std::vector<plan::PlanNodePtr> bases;
  constexpr uint64_t kCorpusSeeds = 40;
  for (uint64_t seed = 0; seed < kCorpusSeeds; ++seed) {
    bases.push_back(
        plan::ParsePlanText(FuzzBasePlanText(seed)).ValueOrDie());
  }
  constexpr size_t kTracePlans = 30;
  for (size_t i = 0; i < kTracePlans; ++i) bases.push_back(SamplePlan(i).Clone());

  std::map<PlanField, size_t> mutants;
  std::map<PlanField, size_t> changed_features;
  std::map<PlanField, size_t> kept_fingerprint;
  for (size_t b = 0; b < bases.size(); ++b) {
    const plan::PlanNode& base = *bases[b];
    const uint64_t base_fp = FingerprintPlan(base);
    const Result<core::PlanFeatures> base_features = pipeline->FeaturizePlan(base);
    for (PlanField field : kAllPlanFields) {
      for (uint64_t variant = 0; variant < 2; ++variant) {
        const plan::PlanNodePtr mutant =
            MutatePlanField(base, field, b * 2 + variant, pool);
        if (mutant == nullptr) continue;
        const std::string where = std::string(PlanFieldToString(field)) +
                                  " on base " + std::to_string(b) +
                                  " variant " + std::to_string(variant);
        ++mutants[field];
        const bool same_fp = FingerprintPlan(*mutant) == base_fp;
        if (same_fp) ++kept_fingerprint[field];
        const Result<core::PlanFeatures> features =
            pipeline->FeaturizePlan(*mutant);
        if (!base_features.ok() || !features.ok()) {
          if (same_fp) {
            EXPECT_EQ(features.status().code(), base_features.status().code())
                << where;
          }
          continue;
        }
        const bool same_features = SameFeatures(*base_features, *features);
        if (!same_features) ++changed_features[field];
        if (same_fp) {
          EXPECT_TRUE(same_features) << "fingerprint collision: " << where;
          const std::vector<double> predicted =
              pipeline->PredictFeaturized({&*base_features, &*features});
          EXPECT_EQ(std::memcmp(&predicted[0], &predicted[1], sizeof(double)),
                    0)
              << where;
        }
        if (!same_features) {
          EXPECT_FALSE(same_fp) << "features differ, fingerprint equal: "
                                << where;
        }
      }
    }
  }

  for (PlanField field : kAllPlanFields) {
    EXPECT_GT(mutants[field], 0u) << PlanFieldToString(field);
  }
  // Not vacuous: each field the recast reads changes the features of some
  // mutant, so dropping it from FingerprintPlan would fail above.
  for (PlanField field :
       {PlanField::kNodeType, PlanField::kTable, PlanField::kJoinType,
        PlanField::kJoinSides, PlanField::kExchangeKind, PlanField::kPredicate,
        PlanField::kPredicateColumn, PlanField::kPredicateOperator}) {
    EXPECT_GT(changed_features[field], 0u) << PlanFieldToString(field);
  }
  // And the fields featurization cannot see keep the fingerprint, so plans
  // differing only there share one cache entry.
  for (PlanField field :
       {PlanField::kJoinCondition, PlanField::kExpressions,
        PlanField::kGroupKeys, PlanField::kSortDirection, PlanField::kLimit,
        PlanField::kCardinality}) {
    EXPECT_EQ(kept_fingerprint[field], mutants[field])
        << PlanFieldToString(field);
  }
}

}  // namespace
}  // namespace prestroid::serve
