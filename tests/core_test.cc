#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "core/featurizer.h"
#include "core/label_transform.h"
#include "core/metrics.h"
#include "core/pipeline.h"
#include "core/subtree_model.h"
#include "otp/otp_tree.h"
#include "util/artifact_io.h"
#include "workload/dataset.h"

namespace prestroid::core {
namespace {

using Tokens = std::vector<std::string>;

/// Re-encodes `artifact` with the meta record tagged `tag` rewritten by
/// `edit` (token 0 is the tag). The CRCs are recomputed, so only the
/// loader's field validation can reject the result.
std::string EditMetaRecord(const std::string& artifact, const std::string& tag,
                           const std::function<void(Tokens*)>& edit) {
  std::vector<ArtifactSection> sections =
      DecodeArtifact(artifact).ValueOrDie();
  for (ArtifactSection& section : sections) {
    if (section.name != "meta") continue;
    std::istringstream lines(section.payload);
    std::string line, edited;
    while (std::getline(lines, line)) {
      std::istringstream words(line);
      Tokens tokens;
      for (std::string word; words >> word;) tokens.push_back(word);
      if (!tokens.empty() && tokens[0] == tag) {
        edit(&tokens);
        line.clear();
        for (const std::string& token : tokens) {
          line += (line.empty() ? "" : " ") + token;
        }
      }
      edited += line + "\n";
    }
    section.payload = edited;
  }
  return EncodeArtifact(sections);
}

TEST(LabelTransformTest, LogMinMaxRoundTrip) {
  LabelTransform transform;
  ASSERT_TRUE(transform.Fit({1.0, 10.0, 60.0}).ok());
  EXPECT_NEAR(transform.Normalize(1.0), 0.0f, 1e-6f);
  EXPECT_NEAR(transform.Normalize(60.0), 1.0f, 1e-6f);
  for (double v : {1.5, 5.0, 33.3, 59.0}) {
    EXPECT_NEAR(transform.Denormalize(transform.Normalize(v)), v, v * 1e-4);
  }
}

TEST(LabelTransformTest, LogSpacingIsUniform) {
  LabelTransform transform;
  ASSERT_TRUE(transform.Fit({1.0, 100.0}).ok());
  // 10 is the geometric midpoint of [1, 100].
  EXPECT_NEAR(transform.Normalize(10.0), 0.5f, 1e-5f);
}

TEST(LabelTransformTest, ClampsOutOfRange) {
  LabelTransform transform;
  ASSERT_TRUE(transform.Fit({2.0, 50.0}).ok());
  EXPECT_EQ(transform.Normalize(0.5), 0.0f);
  EXPECT_EQ(transform.Normalize(500.0), 1.0f);
}

TEST(LabelTransformTest, RejectsBadInput) {
  LabelTransform transform;
  EXPECT_FALSE(transform.Fit({}).ok());
  EXPECT_FALSE(transform.Fit({1.0, -2.0}).ok());
  EXPECT_FALSE(transform.Fit({1.0, 0.0}).ok());
}

TEST(LabelTransformTest, DegenerateSingleValue) {
  LabelTransform transform;
  ASSERT_TRUE(transform.Fit({5.0, 5.0, 5.0}).ok());
  EXPECT_NEAR(transform.Denormalize(transform.Normalize(5.0)), 5.0, 1e-3);
}

TEST(MetricsTest, MseMinutesMatchesHandComputation) {
  LabelTransform transform;
  ASSERT_TRUE(transform.Fit({1.0, 100.0}).ok());
  // Predictions in normalized space.
  std::vector<float> pred = {transform.Normalize(10.0),
                             transform.Normalize(20.0)};
  std::vector<double> actual = {12.0, 20.0};
  double mse = MseMinutes(pred, actual, transform);
  EXPECT_NEAR(mse, (2.0 * 2.0 + 0.0) / 2.0, 1e-3);
}

TEST(MetricsTest, ProvisioningSplitsOverUnder) {
  LabelTransform transform;
  ASSERT_TRUE(transform.Fit({1.0, 100.0}).ok());
  // One over-allocation (+5), one under (-10).
  std::vector<float> pred = {transform.Normalize(15.0),
                             transform.Normalize(10.0)};
  std::vector<double> actual = {10.0, 20.0};
  ProvisioningAccuracy acc = ComputeProvisioning(pred, actual, transform);
  EXPECT_EQ(acc.num_over, 1u);
  EXPECT_EQ(acc.num_under, 1u);
  EXPECT_NEAR(acc.over_pct, 5.0 / 30.0 * 100.0, 0.1);
  EXPECT_NEAR(acc.under_pct, 10.0 / 30.0 * 100.0, 0.1);
}

TEST(MetricsTest, SampleStdDev) {
  EXPECT_DOUBLE_EQ(SampleStdDev({}), 0.0);
  EXPECT_DOUBLE_EQ(SampleStdDev({5.0}), 0.0);
  EXPECT_NEAR(SampleStdDev({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}),
              std::sqrt(32.0 / 7.0), 1e-9);
}

/// Shared fixture: a small Grab-like trace + fitted pipeline config.
class PipelineFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload::SchemaGenConfig schema_config;
    schema_config.num_tables = 25;
    schema_config.num_days = 20;
    schema_config.seed = 1;
    schema_ = new workload::GeneratedSchema(GenerateSchema(schema_config));
    workload::TraceConfig trace_config;
    trace_config.num_queries = 80;
    trace_config.num_days = 20;
    trace_config.seed = 2;
    records_ = new std::vector<workload::QueryRecord>(
        GenerateGrabTrace(*schema_, trace_config).ValueOrDie());
    Rng rng(3);
    splits_ = new workload::DatasetSplits(
        workload::SplitRandom(records_->size(), 0.8, 0.1, &rng));
  }
  static void TearDownTestSuite() {
    delete schema_;
    delete records_;
    delete splits_;
  }

  static PipelineConfig SmallConfig(bool use_subtrees) {
    PipelineConfig config;
    config.word2vec.dim = 16;
    config.word2vec.min_count = 2;
    config.word2vec.epochs = 4;
    config.sampler.node_limit = 16;
    config.sampler.conv_layers = 3;
    config.num_subtrees = 5;
    config.use_subtrees = use_subtrees;
    config.conv_channels = {16, 16, 16};
    config.dense_units = {16, 8};
    config.learning_rate = 3e-3f;  // small model, short test budget
    return config;
  }

  static workload::GeneratedSchema* schema_;
  static std::vector<workload::QueryRecord>* records_;
  static workload::DatasetSplits* splits_;
};

workload::GeneratedSchema* PipelineFixture::schema_ = nullptr;
std::vector<workload::QueryRecord>* PipelineFixture::records_ = nullptr;
workload::DatasetSplits* PipelineFixture::splits_ = nullptr;

TEST_F(PipelineFixture, FitBuildsAllComponents) {
  auto pipeline =
      PrestroidPipeline::Fit(*records_, splits_->train, SmallConfig(true))
          .ValueOrDie();
  EXPECT_GT(pipeline->word2vec().vocabulary().size(), 0u);
  EXPECT_GT(pipeline->encoder().feature_dim(), 16u);
  EXPECT_EQ(pipeline->model()->num_samples(), records_->size());
  EXPECT_EQ(pipeline->ModelName(), "Prestroid (16-5-16)");
  EXPECT_GT(pipeline->model()->NumParameters(), 1000u);
}

TEST_F(PipelineFixture, SubtreeTrainingReducesLoss) {
  auto pipeline =
      PrestroidPipeline::Fit(*records_, splits_->train, SmallConfig(true))
          .ValueOrDie();
  TrainConfig train_config;
  train_config.max_epochs = 12;
  train_config.batch_size = 16;
  train_config.patience = 12;
  TrainResult result = pipeline->Train(*splits_, train_config);
  ASSERT_GE(result.train_loss_history.size(), 4u);
  EXPECT_LT(result.train_loss_history.back(),
            result.train_loss_history.front());
  // Predictions are valid normalized values.
  std::vector<double> minutes = pipeline->PredictMinutes(splits_->test);
  for (double m : minutes) {
    EXPECT_GE(m, 0.9);
    EXPECT_LE(m, 61.0);
  }
}

TEST_F(PipelineFixture, FullTreeTrainingReducesLoss) {
  auto pipeline =
      PrestroidPipeline::Fit(*records_, splits_->train, SmallConfig(false))
          .ValueOrDie();
  EXPECT_EQ(pipeline->ModelName(), "Full-16");
  TrainConfig train_config;
  train_config.max_epochs = 5;
  train_config.batch_size = 16;
  TrainResult result = pipeline->Train(*splits_, train_config);
  EXPECT_LT(result.train_loss_history.back(),
            result.train_loss_history.front());
}

TEST_F(PipelineFixture, SubtreeBatchBytesSmallerThanFullTree) {
  auto subtree =
      PrestroidPipeline::Fit(*records_, splits_->train, SmallConfig(true))
          .ValueOrDie();
  auto full =
      PrestroidPipeline::Fit(*records_, splits_->train, SmallConfig(false))
          .ValueOrDie();
  // The paper's core memory claim: sub-tree batches are much smaller than
  // full-tree batches padded to the largest plan.
  EXPECT_LT(subtree->InputBytesPerBatch(32), full->InputBytesPerBatch(32));
}

TEST_F(PipelineFixture, FullTreeBatchedMatchesSingleIncludingOversizedPlan) {
  // Hold out the plan with the largest O-T-P tree, so a served batch that
  // contains it must pad past the largest training plan.
  auto tree_size = [](const plan::PlanNode& plan) {
    return otp::Flatten(otp::RecastPlan(plan).ValueOrDie()).size();
  };
  size_t largest = 0;
  for (size_t i = 1; i < records_->size(); ++i) {
    if (tree_size(*(*records_)[i].plan) >
        tree_size(*(*records_)[largest].plan)) {
      largest = i;
    }
  }
  std::vector<workload::QueryRecord> train_records;
  for (size_t i = 0; i < records_->size(); ++i) {
    if (i == largest) continue;
    workload::QueryRecord record;
    record.id = (*records_)[i].id;
    record.day = (*records_)[i].day;
    record.sql = (*records_)[i].sql;
    record.plan = (*records_)[i].plan->Clone();
    record.metrics = (*records_)[i].metrics;
    train_records.push_back(std::move(record));
  }
  const plan::PlanNode& oversized = *(*records_)[largest].plan;
  for (const workload::QueryRecord& record : train_records) {
    ASSERT_LT(tree_size(*record.plan), tree_size(oversized));
  }
  std::vector<size_t> train_indices(train_records.size());
  for (size_t i = 0; i < train_indices.size(); ++i) train_indices[i] = i;
  auto pipeline =
      PrestroidPipeline::Fit(train_records, train_indices, SmallConfig(false))
          .ValueOrDie();
  TrainConfig train_config;
  train_config.max_epochs = 2;
  train_config.batch_size = 16;
  workload::DatasetSplits splits;
  splits.train = train_indices;
  splits.val.assign(train_indices.begin(), train_indices.begin() + 8);
  pipeline->Train(splits, train_config);

  // A batch mixing training plans with the oversized one.
  std::vector<const plan::PlanNode*> plans;
  for (size_t i = 0; i < 6; ++i) plans.push_back(train_records[i].plan.get());
  plans.insert(plans.begin() + 3, &oversized);
  std::vector<PlanFeatures> features;
  for (const plan::PlanNode* plan : plans) {
    features.push_back(pipeline->FeaturizePlan(*plan).ValueOrDie());
  }
  std::vector<const PlanFeatures*> batch;
  for (const PlanFeatures& f : features) batch.push_back(&f);
  const std::vector<double> batched = pipeline->PredictFeaturized(batch);
  ASSERT_EQ(batched.size(), plans.size());
  for (size_t i = 0; i < plans.size(); ++i) {
    EXPECT_EQ(batched[i], pipeline->PredictPlan(*plans[i]).ValueOrDie())
        << "element " << i;
  }

  // Training records: stored-sample and served predictions agree bit for bit.
  std::vector<size_t> indices(train_records.size());
  for (size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  const std::vector<double> stored = pipeline->PredictMinutes(indices);
  std::vector<PlanFeatures> train_features;
  for (const workload::QueryRecord& record : train_records) {
    train_features.push_back(pipeline->FeaturizePlan(*record.plan).ValueOrDie());
  }
  std::vector<const PlanFeatures*> train_batch;
  for (const PlanFeatures& f : train_features) train_batch.push_back(&f);
  const std::vector<double> served = pipeline->PredictFeaturized(train_batch);
  ASSERT_EQ(served.size(), stored.size());
  for (size_t i = 0; i < stored.size(); ++i) {
    EXPECT_EQ(served[i], stored[i]) << "record " << i;
  }
}

TEST_F(PipelineFixture, PredictPlanHandlesUnseenQuery) {
  auto pipeline =
      PrestroidPipeline::Fit(*records_, splits_->train, SmallConfig(true))
          .ValueOrDie();
  const size_t before = pipeline->model()->num_samples();
  // Use a test record's plan as a stand-in for a fresh query.
  double minutes =
      pipeline->PredictPlan(*(*records_)[splits_->test[0]].plan).ValueOrDie();
  EXPECT_GT(minutes, 0.0);
  EXPECT_EQ(pipeline->model()->num_samples(), before);  // nothing staged
}

TEST_F(PipelineFixture, EvaluateMseMatchesManualComputation) {
  auto pipeline =
      PrestroidPipeline::Fit(*records_, splits_->train, SmallConfig(true))
          .ValueOrDie();
  double mse = pipeline->EvaluateMseMinutes(splits_->test);
  std::vector<double> predicted = pipeline->PredictMinutes(splits_->test);
  double manual = 0.0;
  for (size_t i = 0; i < splits_->test.size(); ++i) {
    double diff =
        predicted[i] - (*records_)[splits_->test[i]].metrics.total_cpu_minutes;
    manual += diff * diff;
  }
  manual /= static_cast<double>(splits_->test.size());
  EXPECT_NEAR(mse, manual, manual * 0.02 + 1e-6);
}

TEST_F(PipelineFixture, FitRejectsEmptyInput) {
  std::vector<workload::QueryRecord> empty;
  EXPECT_FALSE(PrestroidPipeline::Fit(empty, {}, SmallConfig(true)).ok());
  EXPECT_FALSE(PrestroidPipeline::Fit(*records_, {}, SmallConfig(true)).ok());
}

TEST_F(PipelineFixture, FeaturizerSubtreeShapes) {
  auto pipeline =
      PrestroidPipeline::Fit(*records_, splits_->train, SmallConfig(true))
          .ValueOrDie();
  // Reuse the pipeline's fitted encoder stack via PredictPlan's path:
  // this test checks the pipeline-level invariant that each sample's
  // sub-trees respect N and the votes array parallels the node arrays.
  const PipelineConfig config = SmallConfig(true);
  embed::PredicateEncoder pred_encoder(&pipeline->word2vec());
  Featurizer featurizer(&pipeline->encoder(), &pred_encoder);
  auto subtrees = featurizer
                      .FeaturizeSubtrees((*records_)[0].plan.operator*(),
                                         config.sampler, config.num_subtrees)
                      .ValueOrDie();
  ASSERT_GE(subtrees.size(), 1u);
  ASSERT_LE(subtrees.size(), config.num_subtrees);
  for (const TreeFeatures& tree : subtrees) {
    EXPECT_LE(tree.num_nodes(), config.sampler.node_limit);
    EXPECT_EQ(tree.votes.size(), tree.num_nodes());
    EXPECT_EQ(tree.features.dim(0), tree.num_nodes());
    EXPECT_EQ(tree.features.dim(1), pipeline->encoder().feature_dim());
  }
}

TEST_F(PipelineFixture, SaveLoadRoundTripPreservesPredictions) {
  for (bool subtrees : {true, false}) {
    auto pipeline = PrestroidPipeline::Fit(*records_, splits_->train,
                                           SmallConfig(subtrees))
                        .ValueOrDie();
    TrainConfig train_config;
    train_config.max_epochs = 3;
    train_config.batch_size = 16;
    pipeline->Train(*splits_, train_config);

    const std::string path = ::testing::TempDir() + "/pipeline_roundtrip.txt";
    ASSERT_TRUE(pipeline->SaveFile(path).ok());
    auto loaded = PrestroidPipeline::LoadFile(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

    EXPECT_EQ((*loaded)->ModelName(), pipeline->ModelName());
    // Predictions on fresh plans agree to float-serialization precision.
    for (size_t i = 0; i < 5; ++i) {
      const plan::PlanNode& plan = *(*records_)[splits_->test[i]].plan;
      double original = pipeline->PredictPlan(plan).ValueOrDie();
      double restored = (*loaded)->PredictPlan(plan).ValueOrDie();
      EXPECT_NEAR(restored, original, std::abs(original) * 1e-3 + 1e-4)
          << "subtrees=" << subtrees << " sample " << i;
    }
  }
}

TEST(PipelineIoTest, LoadRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/garbage_pipeline.txt";
  {
    std::ofstream out(path);
    out << "NOT_A_PIPELINE v9\n";
  }
  auto loaded = PrestroidPipeline::LoadFile(path);
  EXPECT_FALSE(loaded.ok());
  // Unrecognized magic bytes are an integrity failure, not a parse failure.
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataCorruption);
  EXPECT_FALSE(PrestroidPipeline::LoadFile("/nonexistent/file").ok());
}

TEST(PipelineIoTest, LoadRejectsCrcValidArtifactWithBadModelConfig) {
  workload::SchemaGenConfig schema_config;
  schema_config.num_tables = 12;
  schema_config.seed = 5;
  workload::TraceConfig trace_config;
  trace_config.num_queries = 24;
  trace_config.seed = 6;
  const std::vector<workload::QueryRecord> records =
      GenerateGrabTrace(GenerateSchema(schema_config), trace_config)
          .ValueOrDie();
  std::vector<size_t> train_indices(records.size());
  for (size_t i = 0; i < train_indices.size(); ++i) train_indices[i] = i;
  auto saved_bytes = [&](bool use_subtrees) {
    PipelineConfig config;
    config.word2vec.dim = 8;
    config.word2vec.min_count = 1;
    config.word2vec.epochs = 1;
    config.sampler.node_limit = 16;
    config.num_subtrees = 3;
    config.use_subtrees = use_subtrees;
    config.conv_channels = {4, 4};
    config.dense_units = {4};
    const std::string path = ::testing::TempDir() + "/pipeline_io_bad.bin";
    EXPECT_TRUE(PrestroidPipeline::Fit(records, train_indices, config)
                    .ValueOrDie()
                    ->SaveFile(path)
                    .ok());
    return ReadFileToString(path).ValueOrDie();
  };
  const std::string subtree = saved_bytes(true);
  const std::string full = saved_bytes(false);

  // "config <use_subtrees> <pruning> <num_subtrees> <node_limit> ...".
  struct BadField {
    const char* name;
    std::string bytes;
  };
  const BadField bad_fields[] = {
      {"num_subtrees 0",
       EditMetaRecord(subtree, "config", [](Tokens* t) { (*t)[3] = "0"; })},
      {"node_limit 0",
       EditMetaRecord(subtree, "config", [](Tokens* t) { (*t)[4] = "0"; })},
      {"unknown pruning",
       EditMetaRecord(subtree, "config", [](Tokens* t) { (*t)[2] = "7"; })},
      {"negative pruning",
       EditMetaRecord(subtree, "config", [](Tokens* t) { (*t)[2] = "-1"; })},
      {"empty conv_channels",
       EditMetaRecord(subtree, "conv_channels",
                      [](Tokens* t) { *t = {"conv_channels", "0"}; })},
      {"zero conv channel",
       EditMetaRecord(full, "conv_channels", [](Tokens* t) { (*t)[2] = "0"; })},
      {"zero dense unit",
       EditMetaRecord(subtree, "dense_units", [](Tokens* t) { (*t)[2] = "0"; })},
      {"full_max_nodes 0",
       EditMetaRecord(full, "full_max_nodes", [](Tokens* t) { (*t)[1] = "0"; })},
  };
  const std::string path = ::testing::TempDir() + "/pipeline_io_bad.bin";
  for (const BadField& bad : bad_fields) {
    ASSERT_TRUE(DecodeArtifact(bad.bytes).ok()) << bad.name;  // CRC-valid
    ASSERT_TRUE(AtomicWriteFile(path, bad.bytes).ok());
    auto loaded = PrestroidPipeline::LoadFile(path);
    ASSERT_FALSE(loaded.ok()) << bad.name;
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataCorruption)
        << bad.name << ": " << loaded.status().ToString();
  }
  // The unedited artifacts still load.
  for (const std::string* bytes : {&subtree, &full}) {
    ASSERT_TRUE(AtomicWriteFile(path, *bytes).ok());
    EXPECT_TRUE(PrestroidPipeline::LoadFile(path).ok());
  }
}

TEST(SubtreeModelTest, LearnsSyntheticSignal) {
  // Hand-built task: target = presence of a marker feature at the root.
  const size_t feature_dim = 6;
  SubtreeModelConfig config;
  config.feature_dim = feature_dim;
  config.node_limit = 16;
  config.num_subtrees = 2;
  config.conv_channels = {8, 8, 8};
  config.dense_units = {8};
  config.dropout = 0.0f;
  config.batch_norm = false;
  config.learning_rate = 5e-3f;
  SubtreeModel model(config);
  Rng rng(10);
  std::vector<size_t> indices;
  for (size_t i = 0; i < 60; ++i) {
    bool positive = i % 2 == 0;
    std::vector<TreeFeatures> trees(1);
    TreeFeatures& tree = trees[0];
    tree.features = Tensor({3, feature_dim});
    tree.left = {1, -1, -1};
    tree.right = {2, -1, -1};
    tree.votes = {1, 1, 1};
    for (size_t n = 0; n < 3; ++n) {
      for (size_t fidx = 0; fidx < feature_dim; ++fidx) {
        tree.features.At(n, fidx) =
            static_cast<float>(rng.Uniform(0.0, 0.2));
      }
    }
    if (positive) tree.features.At(0, 0) = 1.0f;
    model.AddSample(std::move(trees), positive ? 0.9f : 0.1f);
    indices.push_back(i);
  }
  double first = model.TrainEpoch(indices, 8);
  double last = first;
  for (int epoch = 0; epoch < 60; ++epoch) last = model.TrainEpoch(indices, 8);
  EXPECT_LT(last, first * 0.5);
  std::vector<float> pred = model.Predict({0, 1});
  EXPECT_GT(pred[0], pred[1]);  // positive sample scores higher
}

TEST(SubtreeModelTest, MultiObjectiveLearnsIndependentTargets) {
  // Two objectives keyed to two different marker features.
  const size_t feature_dim = 4;
  SubtreeModelConfig config;
  config.feature_dim = feature_dim;
  config.node_limit = 15;
  config.num_subtrees = 1;
  config.output_dim = 2;
  config.conv_channels = {8, 8, 8};
  config.dense_units = {8};
  config.dropout = 0.0f;
  config.batch_norm = false;
  config.learning_rate = 5e-3f;
  SubtreeModel model(config);
  std::vector<size_t> indices;
  for (size_t i = 0; i < 48; ++i) {
    bool a = (i & 1) != 0;
    bool b = (i & 2) != 0;
    std::vector<TreeFeatures> trees(1);
    trees[0].features = Tensor({1, feature_dim});
    trees[0].left = {-1};
    trees[0].right = {-1};
    trees[0].votes = {1.0f};
    trees[0].features.At(0, 0) = a ? 1.0f : 0.0f;
    trees[0].features.At(0, 1) = b ? 1.0f : 0.0f;
    model.AddSampleMulti(std::move(trees),
                         {a ? 0.85f : 0.15f, b ? 0.85f : 0.15f});
    indices.push_back(i);
  }
  for (int epoch = 0; epoch < 120; ++epoch) model.TrainEpoch(indices, 8);
  Tensor pred = model.PredictMulti({0, 1, 2, 3});  // (a,b) = 00,10,01,11
  EXPECT_EQ(pred.shape(), (std::vector<size_t>{4, 2}));
  // Objective 0 responds to marker a, objective 1 to marker b.
  EXPECT_GT(pred.At(1, 0), pred.At(0, 0));
  EXPECT_GT(pred.At(2, 1), pred.At(0, 1));
  EXPECT_GT(pred.At(3, 0), pred.At(2, 0));
  EXPECT_GT(pred.At(3, 1), pred.At(1, 1));
  // CostModel::Predict returns objective 0.
  std::vector<float> first = model.Predict({0, 1});
  EXPECT_FLOAT_EQ(first[0], pred.At(0, 0));
  EXPECT_FLOAT_EQ(first[1], pred.At(1, 0));
}

TEST(SubtreeModelTest, FullTreePaddingTracksLargestTree) {
  // The full-tree baseline: one tree per query, N = the largest tree.
  SubtreeModelConfig config;
  config.feature_dim = 4;
  config.node_limit = 9;
  config.num_subtrees = 1;
  config.conv_channels = {4};
  config.dense_units = {4};
  config.batch_norm = false;
  config.dropout = 0.0f;
  SubtreeModel model(config);
  for (size_t n : {3u, 9u, 5u}) {
    std::vector<TreeFeatures> trees(1);
    trees[0].features = Tensor({n, 4});
    trees[0].left.assign(n, -1);
    trees[0].right.assign(n, -1);
    trees[0].votes.assign(n, 1.0f);
    model.AddSample(std::move(trees), 0.5f);
  }
  EXPECT_EQ(model.InputBytesPerBatch(32), 32u * 9 * 4 * sizeof(float));
  // Training over mixed sizes works (padding in effect).
  EXPECT_NO_FATAL_FAILURE(model.TrainEpoch({0, 1, 2}, 2));
}

}  // namespace
}  // namespace prestroid::core
