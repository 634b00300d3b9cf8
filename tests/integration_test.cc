// End-to-end integration: SQL text -> parser -> planner -> cost simulator ->
// O-T-P -> Word2Vec -> sub-tree sampling -> tree-CNN training -> prediction,
// plus baselines on the same trace. This is the whole Figure 3 pipeline on a
// reduced dataset.
#include <gtest/gtest.h>

#include <string>

#include "baselines/log_binning.h"
#include "baselines/mscn.h"
#include "baselines/svr.h"
#include "baselines/wcnn.h"
#include "core/pipeline.h"
#include "plan/plan_stats.h"
#include "serve/model_manager.h"
#include "tensor/kernels/gemm_kernels.h"
#include "workload/dataset.h"
#include "workload/tpcds_templates.h"

namespace prestroid {
namespace {

class EndToEndFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload::SchemaGenConfig schema_config;
    schema_config.num_tables = 30;
    schema_config.num_days = 30;
    schema_config.seed = 41;
    schema_ = new workload::GeneratedSchema(
        workload::GenerateSchema(schema_config));
    workload::TraceConfig trace_config;
    trace_config.num_queries = 260;
    trace_config.num_days = 30;
    trace_config.seed = 42;
    records_ = new std::vector<workload::QueryRecord>(
        workload::GenerateGrabTrace(*schema_, trace_config).ValueOrDie());
    Rng rng(43);
    splits_ = new workload::DatasetSplits(
        workload::SplitRandom(records_->size(), 0.8, 0.1, &rng));
  }
  static void TearDownTestSuite() {
    delete schema_;
    delete records_;
    delete splits_;
  }

  static workload::GeneratedSchema* schema_;
  static std::vector<workload::QueryRecord>* records_;
  static workload::DatasetSplits* splits_;
};

workload::GeneratedSchema* EndToEndFixture::schema_ = nullptr;
std::vector<workload::QueryRecord>* EndToEndFixture::records_ = nullptr;
workload::DatasetSplits* EndToEndFixture::splits_ = nullptr;

TEST_F(EndToEndFixture, PrestroidBeatsPredictingTheMean) {
  core::PipelineConfig config;
  config.word2vec.dim = 16;
  config.word2vec.min_count = 2;
  config.word2vec.epochs = 5;
  config.sampler.node_limit = 16;
  config.num_subtrees = 5;
  config.conv_channels = {24, 24, 24};
  config.dense_units = {24, 12};
  config.dropout = 0.0f;
  config.learning_rate = 3e-3f;  // small model, short test budget
  auto pipeline =
      core::PrestroidPipeline::Fit(*records_, splits_->train, config)
          .ValueOrDie();
  TrainConfig train_config;
  train_config.max_epochs = 30;
  train_config.batch_size = 16;
  train_config.patience = 8;
  pipeline->Train(*splits_, train_config);

  double model_mse = pipeline->EvaluateMseMinutes(splits_->test);

  // Baseline: always predict the mean CPU time of the training set.
  double mean = 0.0;
  for (size_t idx : splits_->train) {
    mean += (*records_)[idx].metrics.total_cpu_minutes;
  }
  mean /= static_cast<double>(splits_->train.size());
  double mean_mse = 0.0;
  for (size_t idx : splits_->test) {
    double d = (*records_)[idx].metrics.total_cpu_minutes - mean;
    mean_mse += d * d;
  }
  mean_mse /= static_cast<double>(splits_->test.size());
  EXPECT_LT(model_mse, mean_mse * 1.5)
      << "model mse " << model_mse << " vs mean-predictor " << mean_mse;
}

TEST_F(EndToEndFixture, BaselinesRunOnSameTrace) {
  core::LabelTransform transform;
  ASSERT_TRUE(transform.Fit(workload::CpuMinutesOf(*records_)).ok());
  std::vector<float> targets =
      transform.NormalizeAll(workload::CpuMinutesOf(*records_));

  // Log binning on node counts.
  std::vector<double> node_counts;
  for (const auto& record : *records_) {
    node_counts.push_back(static_cast<double>(
        plan::ComputePlanStats(*record.plan).node_count));
  }
  std::vector<double> train_nodes;
  std::vector<float> train_targets;
  for (size_t idx : splits_->train) {
    train_nodes.push_back(node_counts[idx]);
    train_targets.push_back(targets[idx]);
  }
  baselines::LogBinningModel bins(50);
  ASSERT_TRUE(bins.Fit(train_nodes, train_targets).ok());
  std::vector<float> bin_pred;
  std::vector<double> test_actual;
  for (size_t idx : splits_->test) {
    bin_pred.push_back(bins.Predict(node_counts[idx]));
    test_actual.push_back((*records_)[idx].metrics.total_cpu_minutes);
  }
  double bin_mse = core::MseMinutes(bin_pred, test_actual, transform);
  EXPECT_GT(bin_mse, 0.0);
  EXPECT_LT(bin_mse, 3600.0);  // bounded by the label range

  // SVR.
  std::vector<std::vector<float>> rows;
  for (const auto& record : *records_) {
    rows.push_back(baselines::SvrPlanFeatures(*record.plan, record.sql));
  }
  Tensor all = baselines::StackFeatures(rows);
  std::vector<std::vector<float>> train_rows;
  for (size_t idx : splits_->train) train_rows.push_back(rows[idx]);
  baselines::SvrConfig svr_config;
  svr_config.epochs = 60;
  baselines::Svr svr(svr_config);
  std::vector<float> svr_train_targets = train_targets;
  ASSERT_TRUE(
      svr.Fit(baselines::StackFeatures(train_rows), svr_train_targets).ok());
  std::vector<float> svr_pred;
  for (size_t idx : splits_->test) svr_pred.push_back(svr.Predict(rows[idx].data()));
  EXPECT_EQ(svr_pred.size(), splits_->test.size());

  // M-MSCN + WCNN smoke training.
  baselines::MscnConfig mscn_config;
  mscn_config.hidden_units = 12;
  baselines::MscnModel mscn(mscn_config);
  ASSERT_TRUE(mscn.Fit(*records_, splits_->train, targets).ok());
  mscn.TrainEpoch(splits_->train, 16);
  EXPECT_EQ(mscn.Predict(splits_->test).size(), splits_->test.size());

  baselines::WcnnConfig wcnn_config;
  wcnn_config.embed_dim = 12;
  wcnn_config.filters_per_window = 6;
  baselines::WcnnModel wcnn(wcnn_config);
  ASSERT_TRUE(wcnn.Fit(*records_, splits_->train, targets).ok());
  wcnn.TrainEpoch(splits_->train, 16);
  EXPECT_EQ(wcnn.Predict(splits_->test).size(), splits_->test.size());
}

TEST(TpcdsEndToEnd, TemplateSplitPipelineTrains) {
  workload::GeneratedSchema schema = workload::GenerateTpcdsSchema(10.0);
  workload::TpcdsWorkloadConfig trace_config;
  trace_config.num_templates = 12;
  trace_config.num_queries = 70;
  trace_config.seed = 51;
  auto records =
      workload::GenerateTpcdsTrace(schema, trace_config).ValueOrDie();
  Rng rng(52);
  workload::DatasetSplits splits =
      workload::SplitByTemplate(records, 0.8, 0.1, &rng);
  ASSERT_FALSE(splits.train.empty());
  ASSERT_FALSE(splits.test.empty());

  core::PipelineConfig config;
  config.word2vec.dim = 12;
  config.word2vec.min_count = 2;
  config.word2vec.epochs = 4;
  config.sampler.node_limit = 16;
  config.num_subtrees = 4;
  config.conv_channels = {12, 12, 12};
  config.dense_units = {12, 6};
  auto pipeline =
      core::PrestroidPipeline::Fit(records, splits.train, config).ValueOrDie();
  TrainConfig train_config;
  train_config.max_epochs = 6;
  train_config.batch_size = 16;
  TrainResult result = pipeline->Train(splits, train_config);
  EXPECT_GT(result.epochs_run, 0u);
  EXPECT_GT(pipeline->EvaluateMseMinutes(splits.test), 0.0);
}

TEST_F(EndToEndFixture, TraceFileRoundTripFeedsPipeline) {
  // Serialize -> parse -> the parsed records featurize identically.
  std::string text = workload::SerializeTrace(*records_);
  auto parsed = workload::DeserializeTrace(text).ValueOrDie();
  core::PipelineConfig config;
  config.word2vec.dim = 8;
  config.word2vec.min_count = 2;
  config.word2vec.epochs = 2;
  config.sampler.node_limit = 16;
  config.num_subtrees = 3;
  config.conv_channels = {8, 8, 8};
  config.dense_units = {8};
  auto pipeline =
      core::PrestroidPipeline::Fit(parsed, splits_->train, config)
          .ValueOrDie();
  EXPECT_EQ(pipeline->model()->num_samples(), records_->size());
}

// ---------------------------------------------------------------------------
// Accuracy gate: the CLI-shape pipeline (Prestroid 15-9-32, 3 x 32 conv,
// dense {32, 16}, threads=1, blocked kernels) fitted and trained on a small
// generated trace with fixed seeds. Test-split MSE and q-error p50/p95 are
// pinned at %.17g to 1e-5 relative (the blocked kernels' envelope), so a
// refactor of the numeric stack cannot silently move model accuracy.
//
// At this scale the sub-tree model does not beat log binning on MSE (table2
// reports Prestroid ~164 vs log binning ~143 min^2 at the default bench
// scale); the gate pins what the code does, not the paper's ordering.
//
// Trained weights depend on the GEMM instantiation (the AVX2 one contracts
// multiply-adds into FMAs), so each instantiation has its own pins, chosen
// by GemmBlockedIsaName() as core_test's ServingDigestTest does.
// ---------------------------------------------------------------------------

constexpr double kGateMse = 139.66253931554516;
constexpr double kGateQErrorP50 = 2.1735960565447008;
constexpr double kGateQErrorP95 = 5.1566940031109034;
// The baseline-ISA instantiation (PRESTROID_GEMM_ISA=base).
constexpr double kGateBaseMse = 139.82871823091872;
constexpr double kGateBaseQErrorP50 = 2.1676618460062302;
constexpr double kGateBaseQErrorP95 = 5.1631224038452608;

TEST(AccuracyGate, CliShapePipelinePinsMseAndQError) {
  workload::SchemaGenConfig schema_config;
  schema_config.num_tables = 20;
  schema_config.num_days = 15;
  schema_config.seed = 7;
  const workload::GeneratedSchema schema =
      workload::GenerateSchema(schema_config);
  workload::TraceConfig trace_config;
  trace_config.num_queries = 240;
  trace_config.num_days = schema_config.num_days;
  trace_config.seed = schema_config.seed + 1;
  const auto records =
      workload::GenerateGrabTrace(schema, trace_config).ValueOrDie();
  Rng rng(11);
  const workload::DatasetSplits splits =
      workload::SplitRandom(records.size(), 0.8, 0.1, &rng);

  // The `prestroid_cli train` defaults.
  core::PipelineConfig config;
  config.sampler.node_limit = 15;
  config.num_subtrees = 9;
  config.word2vec.dim = 32;
  config.word2vec.min_count = 2;
  config.conv_channels.assign(3, 32);
  config.dense_units = {32, 16};
  config.learning_rate = 3e-3f;
  config.threads = 1;
  auto pipeline =
      core::PrestroidPipeline::Fit(records, splits.train, config).ValueOrDie();
  TrainConfig train_config;
  train_config.batch_size = 32;
  train_config.max_epochs = 8;
  train_config.patience = 6;
  pipeline->Train(splits, train_config);

  const double mse = pipeline->EvaluateMseMinutes(splits.test);
  const std::vector<double> predicted = pipeline->PredictMinutes(splits.test);
  serve::DriftDetector qerrors(splits.test.size());
  for (size_t i = 0; i < splits.test.size(); ++i) {
    qerrors.Record(serve::QError(
        predicted[i], records[splits.test[i]].metrics.total_cpu_minutes));
  }
  const double p50 = qerrors.Percentile(50.0);
  const double p95 = qerrors.Percentile(95.0);
  std::printf("accuracy gate: mse %.17g qerror_p50 %.17g qerror_p95 %.17g\n",
              mse, p50, p95);
  const std::string isa = GemmBlockedIsaName();
  const bool avx2 = isa == "avx2";
  const double want_mse = avx2 ? kGateMse : kGateBaseMse;
  const double want_p50 = avx2 ? kGateQErrorP50 : kGateBaseQErrorP50;
  const double want_p95 = avx2 ? kGateQErrorP95 : kGateBaseQErrorP95;
  EXPECT_NEAR(mse, want_mse, 1e-5 * std::abs(want_mse)) << isa;
  EXPECT_NEAR(p50, want_p50, 1e-5 * std::abs(want_p50)) << isa;
  EXPECT_NEAR(p95, want_p95, 1e-5 * std::abs(want_p95)) << isa;
}

}  // namespace
}  // namespace prestroid
