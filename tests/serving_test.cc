/// Degradation-chain tests for ServingEstimator: the model tier answers when
/// healthy, and validation rejects, deadline pressure, or a missing/disabled
/// model degrade to log-binning and finally to the global mean — every
/// request gets a finite estimate and reports which tier produced it.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "cost/serving_estimator.h"
#include "plan/plan_stats.h"
#include "test_corpus.h"
#include "workload/dataset.h"

namespace prestroid::cost {
namespace {

class ServingFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload::SchemaGenConfig schema_config;
    schema_config.num_tables = 25;
    schema_config.num_days = 20;
    schema_config.seed = 1;
    workload::GeneratedSchema schema = GenerateSchema(schema_config);
    workload::TraceConfig trace_config;
    trace_config.num_queries = 60;
    trace_config.num_days = 20;
    trace_config.seed = 2;
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
    artifact_path_ = new std::string(::testing::TempDir() + "/serving_model.bin");
    ASSERT_TRUE(pipeline->SaveFile(*artifact_path_).ok());
  }
  static void TearDownTestSuite() {
    delete records_;
    delete artifact_path_;
  }

  static std::unique_ptr<core::PrestroidPipeline> LoadPipeline() {
    return core::PrestroidPipeline::LoadFile(*artifact_path_).ValueOrDie();
  }

  static const plan::PlanNode& SamplePlan(size_t i = 0) {
    return *(*records_)[i].plan;
  }

  static std::vector<workload::QueryRecord>* records_;
  static std::string* artifact_path_;
};

std::vector<workload::QueryRecord>* ServingFixture::records_ = nullptr;
std::string* ServingFixture::artifact_path_ = nullptr;

TEST(ServingTierTest, AllTiersHaveNames) {
  EXPECT_STREQ(ServingTierToString(ServingTier::kModel), "model");
  EXPECT_STREQ(ServingTierToString(ServingTier::kLogBinning), "log-binning");
  EXPECT_STREQ(ServingTierToString(ServingTier::kGlobalMean), "global-mean");
}

TEST_F(ServingFixture, UnfittedEstimatorStillAnswersWithGlobalMean) {
  // Worst case: no model, no fitted fallbacks. The constant tier answers.
  ServingEstimator estimator;
  ServingEstimate estimate = estimator.EstimateWithFallback(SamplePlan());
  EXPECT_EQ(estimate.tier, ServingTier::kGlobalMean);
  EXPECT_TRUE(std::isfinite(estimate.cpu_minutes));
  EXPECT_DOUBLE_EQ(estimate.cpu_minutes, 1.0);  // documented default
  EXPECT_FALSE(estimate.degradation_reason.ok());
  EXPECT_EQ(estimator.stats().requests, 1u);
  EXPECT_EQ(estimator.stats().by_tier[2], 1u);
}

TEST_F(ServingFixture, FitFallbacksRejectsEmptyTrace) {
  ServingEstimator estimator;
  Status status = estimator.FitFallbacks(std::vector<workload::QueryRecord>{});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  status = estimator.FitFallbacks(FallbackSamples{});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST_F(ServingFixture, SampleFitMatchesRecordFitOnEveryFallbackTier) {
  // serve streams its trace into samples and drops each plan; offline
  // callers fit from the record vector. On a trace with quarantined records
  // both fits must give bit-identical answers on every fallback tier.
  std::string trace = workload::SerializeTrace(*records_);
  const std::vector<std::string> hostile = test::HostileTraces();
  for (size_t i = 0; i < hostile.size(); i += 9) trace += hostile[i];

  FallbackSamples samples;
  auto streamed = workload::IngestTraceTolerant(
      trace, {}, [&](workload::QueryRecord&& record) { samples.Add(record); });
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  auto collected = workload::IngestTraceTolerant(trace, {});
  ASSERT_TRUE(collected.ok()) << collected.status().ToString();
  ASSERT_GT(streamed->quarantined, 0u);
  ASSERT_EQ(samples.size(), collected->records.size());

  ServingEstimator from_samples;
  ServingEstimator from_records;
  ASSERT_TRUE(from_samples.FitFallbacks(samples).ok());
  ASSERT_TRUE(from_records.FitFallbacks(collected->records).ok());
  EXPECT_EQ(from_samples.global_mean_minutes(),
            from_records.global_mean_minutes());
  const auto start = std::chrono::steady_clock::now();
  for (size_t nodes = 0; nodes <= 10000;
       nodes = nodes < 16 ? nodes + 1 : nodes * 5 / 4) {
    plan::PlanStats stats;
    stats.node_count = nodes;
    const ServingEstimate a =
        from_samples.EstimateFallback(stats, Status::OK(), start);
    const ServingEstimate b =
        from_records.EstimateFallback(stats, Status::OK(), start);
    EXPECT_EQ(a.tier, ServingTier::kLogBinning) << nodes;
    EXPECT_EQ(a.tier, b.tier) << nodes;
    EXPECT_EQ(a.cpu_minutes, b.cpu_minutes) << nodes;
  }
}

TEST_F(ServingFixture, NoModelDegradesToLogBinning) {
  // Acceptance criterion (c): with the model tier unavailable the estimator
  // still returns a finite estimate and reports the answering tier.
  ServingEstimator estimator;
  ASSERT_TRUE(estimator.FitFallbacks(*records_).ok());
  for (size_t i = 0; i < 5; ++i) {
    ServingEstimate estimate = estimator.EstimateWithFallback(SamplePlan(i));
    EXPECT_EQ(estimate.tier, ServingTier::kLogBinning);
    EXPECT_TRUE(std::isfinite(estimate.cpu_minutes));
    EXPECT_GT(estimate.cpu_minutes, 0.0);
    EXPECT_FALSE(estimate.degradation_reason.ok());
  }
  EXPECT_EQ(estimator.stats().by_tier[1], 5u);
}

TEST_F(ServingFixture, ModelTierAnswersWhenHealthy) {
  ServingEstimator estimator;
  ASSERT_TRUE(estimator.FitFallbacks(*records_).ok());
  estimator.AttachPipeline(LoadPipeline());
  // A generous deadline so EWMA gating cannot interfere on slow machines.
  ServingEstimate estimate =
      estimator.EstimateWithFallback(SamplePlan(), /*deadline_ms=*/60000.0);
  EXPECT_EQ(estimate.tier, ServingTier::kModel);
  EXPECT_TRUE(std::isfinite(estimate.cpu_minutes));
  EXPECT_TRUE(estimate.degradation_reason.ok());
  EXPECT_GT(estimate.latency_ms, 0.0);
  EXPECT_EQ(estimator.stats().by_tier[0], 1u);
}

TEST_F(ServingFixture, DisabledModelDegradesButKeepsServing) {
  ServingEstimator estimator;
  ASSERT_TRUE(estimator.FitFallbacks(*records_).ok());
  estimator.AttachPipeline(LoadPipeline());
  estimator.set_model_enabled(false);
  ServingEstimate estimate =
      estimator.EstimateWithFallback(SamplePlan(), 60000.0);
  EXPECT_NE(estimate.tier, ServingTier::kModel);
  EXPECT_TRUE(std::isfinite(estimate.cpu_minutes));
  EXPECT_FALSE(estimate.degradation_reason.ok());

  // Re-enabling restores the model tier without refitting anything.
  estimator.set_model_enabled(true);
  estimate = estimator.EstimateWithFallback(SamplePlan(), 60000.0);
  EXPECT_EQ(estimate.tier, ServingTier::kModel);
}

/// Joins clones of `records`' plans pairwise into one plan of more than
/// kMaxModelPlanNodes nodes, a balanced tree far below kMaxModelPlanDepth.
plan::PlanNodePtr PlanOverTheNodeLimit(
    const std::vector<workload::QueryRecord>& records) {
  std::vector<plan::PlanNodePtr> level;
  size_t nodes = 0;
  for (size_t i = 0; nodes <= kMaxModelPlanNodes; ++i) {
    level.push_back(records[i % records.size()].plan->Clone());
    nodes += plan::ComputePlanStats(*level.back()).node_count;
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

TEST_F(ServingFixture, OversizedPlanIsRejectedFromModelTier) {
  const plan::PlanNodePtr big = PlanOverTheNodeLimit(*records_);
  const plan::PlanStats big_stats = plan::ComputePlanStats(*big);
  ASSERT_GT(big_stats.node_count, kMaxModelPlanNodes);
  ASSERT_LE(big_stats.max_depth, kMaxModelPlanDepth);
  ServingEstimator estimator;
  ASSERT_TRUE(estimator.FitFallbacks(*records_).ok());
  estimator.AttachPipeline(LoadPipeline());
  ServingEstimate estimate = estimator.EstimateWithFallback(*big, 60000.0);
  EXPECT_NE(estimate.tier, ServingTier::kModel);
  EXPECT_TRUE(std::isfinite(estimate.cpu_minutes));
  EXPECT_EQ(estimate.degradation_reason.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(estimator.stats().validation_rejects, 1u);
}

TEST_F(ServingFixture, TightDeadlineSkipsModelPreemptively) {
  ServingEstimator estimator;
  ASSERT_TRUE(estimator.FitFallbacks(*records_).ok());
  estimator.AttachPipeline(LoadPipeline());
  // Seed the latency EWMA with one normally-served request.
  ServingEstimate first =
      estimator.EstimateWithFallback(SamplePlan(), 60000.0);
  ASSERT_EQ(first.tier, ServingTier::kModel);
  // Any real model latency dwarfs a nanosecond budget, so the estimator
  // degrades pre-emptively instead of blowing the deadline.
  ServingEstimate rushed =
      estimator.EstimateWithFallback(SamplePlan(), /*deadline_ms=*/1e-6);
  EXPECT_NE(rushed.tier, ServingTier::kModel);
  EXPECT_TRUE(std::isfinite(rushed.cpu_minutes));
  EXPECT_EQ(rushed.degradation_reason.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(estimator.stats().deadline_skips, 1u);
}

TEST_F(ServingFixture, TierCountsAddUpToRequests) {
  ServingEstimator estimator;
  ASSERT_TRUE(estimator.FitFallbacks(*records_).ok());
  estimator.AttachPipeline(LoadPipeline());
  for (size_t i = 0; i < 10; ++i) {
    estimator.set_model_enabled(i % 2 == 0);
    ServingEstimate estimate =
        estimator.EstimateWithFallback(SamplePlan(i), 60000.0);
    EXPECT_TRUE(std::isfinite(estimate.cpu_minutes));
  }
  const ServingStats& stats = estimator.stats();
  EXPECT_EQ(stats.requests, 10u);
  EXPECT_EQ(stats.by_tier[0] + stats.by_tier[1] + stats.by_tier[2], 10u);
}

}  // namespace
}  // namespace prestroid::cost
