/// Chaos tests for the zero-downtime model hot-swap subsystem
/// (serve/model_manager.h + core/continual_trainer.h):
///   - q-error and rolling drift-window quantile mechanics;
///   - bootstrap promotion through CANDIDATE -> SHADOW -> ACTIVE;
///   - corrupt/truncated candidate artifacts rejected with the active model
///     untouched (ISSUE criterion b);
///   - shadow validation rejecting a candidate that regresses on the replay
///     buffer;
///   - injected crash mid-swap leaving the active model serving;
///   - post-swap q-error regression rolling back automatically within the
///     probation window;
///   - a NaN-diverging retrain publishing no candidate artifact;
///   - drift detection flagging a sustained accuracy regression.
/// The concurrent swap-under-load parity test lives in serving_runtime_test
/// (it runs under TSan in CI).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/continual_trainer.h"
#include "core/pipeline.h"
#include "cost/serving_estimator.h"
#include "serve/model_manager.h"
#include "serve/sharded_runtime.h"
#include "util/artifact_io.h"
#include "util/fault_injection.h"
#include "workload/dataset.h"

namespace prestroid::serve {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

bool FileExists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

void WriteRawFile(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(os.good());
}

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

// --------------------------------------------------------------------------
// QError
// --------------------------------------------------------------------------

TEST(QErrorTest, SymmetricRatioClampedAwayFromZero) {
  EXPECT_DOUBLE_EQ(QError(2.0, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(QError(1.0, 2.0), 2.0);
  EXPECT_DOUBLE_EQ(QError(5.0, 5.0), 1.0);
  EXPECT_GE(QError(0.0, 1.0), 1.0);  // clamped, not a division by zero
  EXPECT_TRUE(std::isfinite(QError(0.0, 0.0)));
}

TEST(QErrorTest, NonFiniteInputsAreMaximallyWrong) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(std::isinf(QError(nan, 1.0)));
  EXPECT_TRUE(std::isinf(QError(1.0, nan)));
  EXPECT_TRUE(std::isinf(QError(inf, 1.0)));
}

// --------------------------------------------------------------------------
// DriftDetector
// --------------------------------------------------------------------------

TEST(DriftDetectorTest, PercentilesOverTheRollingWindow) {
  DriftDetector drift(4);
  EXPECT_DOUBLE_EQ(drift.Percentile(95.0), 1.0);  // empty window: no evidence
  for (double q : {1.0, 2.0, 3.0, 4.0}) drift.Record(q);
  EXPECT_TRUE(drift.WindowFull());
  EXPECT_DOUBLE_EQ(drift.Percentile(50.0), 2.0);
  EXPECT_DOUBLE_EQ(drift.Percentile(95.0), 4.0);
  // The window rolls: a fifth observation evicts the oldest.
  drift.Record(10.0);
  EXPECT_DOUBLE_EQ(drift.Percentile(95.0), 10.0);
  EXPECT_EQ(drift.count(), 4u);
}

TEST(DriftDetectorTest, BaselineSetAndReset) {
  DriftDetector drift(4);
  EXPECT_FALSE(drift.has_baseline());
  drift.SetBaseline(1.5, 3.0);
  EXPECT_TRUE(drift.has_baseline());
  EXPECT_DOUBLE_EQ(drift.baseline_p50(), 1.5);
  EXPECT_DOUBLE_EQ(drift.baseline_p95(), 3.0);
  drift.Record(2.0);
  drift.ResetWindow();
  EXPECT_EQ(drift.count(), 0u);
  EXPECT_TRUE(drift.has_baseline());  // window reset keeps the baseline
  drift.ClearBaseline();
  EXPECT_FALSE(drift.has_baseline());
}

// --------------------------------------------------------------------------
// ModelManager + ContinualTrainer over a real fitted pipeline artifact.
// Fitting is expensive, so the suite fits and saves exactly once.
// --------------------------------------------------------------------------

class ModelManagerFixture : public ::testing::Test {
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

    std::vector<size_t> train_indices(records_->size());
    for (size_t i = 0; i < train_indices.size(); ++i) train_indices[i] = i;
    auto pipeline =
        core::PrestroidPipeline::Fit(*records_, train_indices, TinyConfig())
            .ValueOrDie();
    artifact_path_ = new std::string(TempPath("model_manager_active.bin"));
    ASSERT_TRUE(pipeline->SaveFile(*artifact_path_).ok());
    core::PipelineConfig full_config = TinyConfig();
    full_config.use_subtrees = false;
    auto full = core::PrestroidPipeline::Fit(*records_, train_indices,
                                             full_config)
                    .ValueOrDie();
    full_artifact_path_ = new std::string(TempPath("model_manager_full.bin"));
    ASSERT_TRUE(full->SaveFile(*full_artifact_path_).ok());
  }
  static void TearDownTestSuite() {
    delete records_;
    delete artifact_path_;
    delete full_artifact_path_;
  }

  static core::PipelineConfig TinyConfig() {
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
    return config;
  }

  /// Estimator with fitted fallbacks; optionally with the model attached.
  static std::unique_ptr<cost::ServingEstimator> MakeEstimator(
      bool with_model) {
    auto estimator = std::make_unique<cost::ServingEstimator>();
    EXPECT_TRUE(estimator->FitFallbacks(*records_).ok());
    if (with_model) {
      estimator->AttachPipeline(
          core::PrestroidPipeline::LoadFile(*artifact_path_).ValueOrDie());
    }
    return estimator;
  }

  static const plan::PlanNode& SamplePlan(size_t i) {
    return *(*records_)[i % records_->size()].plan;
  }

  static const workload::QueryRecord& SampleRecord(size_t i) {
    return (*records_)[i % records_->size()];
  }

  static std::vector<workload::QueryRecord>* records_;
  static std::string* artifact_path_;
  static std::string* full_artifact_path_;  // a full-tree (--full) artifact
};

std::vector<workload::QueryRecord>* ModelManagerFixture::records_ = nullptr;
std::string* ModelManagerFixture::artifact_path_ = nullptr;
std::string* ModelManagerFixture::full_artifact_path_ = nullptr;

TEST_F(ModelManagerFixture, BootstrapPromotionActivatesACandidate) {
  auto estimator = MakeEstimator(/*with_model=*/false);
  ShardedServingRuntime runtime({estimator.get()});
  ModelManager manager(&runtime);
  ASSERT_FALSE(estimator->has_pipeline());

  auto report = manager.TryPromote(*artifact_path_);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->outcome, ModelLifecycle::kActive);
  EXPECT_TRUE(report->detail.ok());
  EXPECT_EQ(report->replay_size, 0u);  // no labeled evidence: bootstrap
  EXPECT_EQ(report->version, 1u);
  EXPECT_TRUE(estimator->has_pipeline());

  const ModelManagerStats stats = manager.StatsSnapshot();
  EXPECT_EQ(stats.swaps, 1u);
  EXPECT_EQ(stats.rollbacks, 0u);
  EXPECT_EQ(stats.active_version, 1u);
  EXPECT_FALSE(stats.in_probation);  // nothing to fall back to, no baseline
  EXPECT_EQ(manager.MergedStats().model_swaps, 1u);
}

TEST_F(ModelManagerFixture, CorruptCandidateIsRejectedWithOldModelServing) {
  auto estimator = MakeEstimator(/*with_model=*/true);
  ShardedServingRuntime runtime({estimator.get()});
  ModelManager manager(&runtime);
  const double before =
      estimator->EstimateWithFallback(SamplePlan(0), 1e9).cpu_minutes;

  const std::string bytes = ReadFileToString(*artifact_path_).ValueOrDie();
  const std::string full_bytes =
      ReadFileToString(*full_artifact_path_).ValueOrDie();
  struct Corruption {
    const char* name;
    std::string bytes;
  };
  std::string flipped = bytes;
  flipped[bytes.size() / 2] ^= 0x04;
  // The config record is "config <use_subtrees> <pruning> <num_subtrees>
  // <node_limit> ...". The edited rows below keep valid CRCs, so it is the
  // loader's field validation that has to turn them into kDataCorruption
  // instead of a CHECK abort inside the model constructor.
  const Corruption corruptions[] = {
      {"bit flip", flipped},
      {"truncation", bytes.substr(0, bytes.size() / 3)},
      {"empty file", ""},
      {"num_subtrees 0",
       EditMetaRecord(bytes, "config", [](Tokens* t) { (*t)[3] = "0"; })},
      {"node_limit 0",
       EditMetaRecord(bytes, "config", [](Tokens* t) { (*t)[4] = "0"; })},
      {"unknown pruning",
       EditMetaRecord(bytes, "config", [](Tokens* t) { (*t)[2] = "7"; })},
      {"empty conv_channels",
       EditMetaRecord(bytes, "conv_channels",
                      [](Tokens* t) { *t = {"conv_channels", "0"}; })},
      {"zero conv channel",
       EditMetaRecord(bytes, "conv_channels", [](Tokens* t) { (*t)[2] = "0"; })},
      {"zero dense unit",
       EditMetaRecord(bytes, "dense_units", [](Tokens* t) { (*t)[2] = "0"; })},
      {"full_max_nodes 0",
       EditMetaRecord(full_bytes, "full_max_nodes",
                      [](Tokens* t) { (*t)[1] = "0"; })},
  };
  const std::string candidate_path = TempPath("model_manager_corrupt.bin");
  for (const Corruption& corruption : corruptions) {
    WriteRawFile(candidate_path, corruption.bytes);
    auto report = manager.TryPromote(candidate_path);
    ASSERT_TRUE(report.ok()) << corruption.name;
    EXPECT_EQ(report->outcome, ModelLifecycle::kRejected) << corruption.name;
    EXPECT_EQ(report->detail.code(), StatusCode::kDataCorruption)
        << corruption.name << ": " << report->detail.ToString();
    // Criterion (b): the active model is untouched and keeps serving the
    // same answers.
    const cost::ServingEstimate estimate =
        estimator->EstimateWithFallback(SamplePlan(0), 1e9);
    EXPECT_EQ(estimate.tier, cost::ServingTier::kModel) << corruption.name;
    EXPECT_EQ(estimate.cpu_minutes, before) << corruption.name;
  }
  // A missing candidate is environmental, not corruption — still rejected.
  auto missing = manager.TryPromote(TempPath("model_manager_nonexistent.bin"));
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->outcome, ModelLifecycle::kRejected);
  EXPECT_EQ(missing->detail.code(), StatusCode::kIoError);

  const size_t rejected = std::size(corruptions) + 1;
  const ModelManagerStats stats = manager.StatsSnapshot();
  EXPECT_EQ(stats.rejected_candidates, rejected);
  EXPECT_EQ(stats.swaps, 0u);
  EXPECT_EQ(manager.MergedStats().rejected_candidates, rejected);
  EXPECT_EQ(manager.MergedStats().model_swaps, 0u);
}

TEST_F(ModelManagerFixture, ShadowValidationRejectsARegressingCandidate) {
  auto estimator = MakeEstimator(/*with_model=*/true);
  ShardedServingRuntime runtime({estimator.get()});
  ModelManagerConfig config;
  config.min_replay = 8;
  ModelManager manager(&runtime, config);

  // The replay buffer records the active model as answering PERFECTLY
  // (predicted == actual). Any real candidate is then a regression beyond
  // the 10% shadow tolerance, so promotion must refuse to swap.
  for (size_t i = 0; i < config.min_replay; ++i) {
    const double actual = SampleRecord(i).metrics.total_cpu_minutes;
    manager.ObserveLabeled(SamplePlan(i), actual, actual,
                           cost::ServingTier::kModel);
  }
  auto report = manager.TryPromote(*artifact_path_);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->outcome, ModelLifecycle::kRejected);
  EXPECT_EQ(report->detail.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(report->replay_size, config.min_replay);
  EXPECT_DOUBLE_EQ(report->active_p95, 1.0);
  EXPECT_GT(report->candidate_p95, report->active_p95 * 1.10);
  EXPECT_EQ(manager.StatsSnapshot().rejected_candidates, 1u);
  EXPECT_TRUE(estimator->has_pipeline());
}

TEST_F(ModelManagerFixture, ShadowValidationPromotesWhenTheActiveIsWorse) {
  auto estimator = MakeEstimator(/*with_model=*/true);
  ShardedServingRuntime runtime({estimator.get()});
  ModelManagerConfig config;
  config.min_replay = 8;
  ModelManager manager(&runtime, config);

  // The active model answered a million-fold off on every replayed plan;
  // the candidate (a real pipeline, wrong by at most the label range)
  // clears shadow validation easily.
  for (size_t i = 0; i < config.min_replay; ++i) {
    const double actual = SampleRecord(i).metrics.total_cpu_minutes;
    manager.ObserveLabeled(SamplePlan(i), actual * 1e6, actual,
                           cost::ServingTier::kModel);
  }
  auto report = manager.TryPromote(*artifact_path_);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->outcome, ModelLifecycle::kActive)
      << report->detail.ToString();
  EXPECT_EQ(report->replay_size, config.min_replay);
  EXPECT_NEAR(report->active_p95, 1e6, 1.0);
  EXPECT_LT(report->candidate_p95, report->active_p95);
  EXPECT_EQ(manager.StatsSnapshot().swaps, 1u);
}

TEST_F(ModelManagerFixture, InjectedCrashMidSwapLeavesTheActiveModelIntact) {
  ScopedFaultInjection faults;
  auto estimator = MakeEstimator(/*with_model=*/true);
  ShardedServingRuntime runtime({estimator.get()});
  ModelManager manager(&runtime);
  const double before =
      estimator->EstimateWithFallback(SamplePlan(0), 1e9).cpu_minutes;

  FaultInjector::Global().ArmFailure(FaultSite::kModelSwap);
  auto report = manager.TryPromote(*artifact_path_);
  FaultInjector::Global().Reset();
  // The swap aborted before touching any state: an error, not a rejection.
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kIoError);

  const cost::ServingEstimate estimate =
      estimator->EstimateWithFallback(SamplePlan(0), 1e9);
  EXPECT_EQ(estimate.tier, cost::ServingTier::kModel);
  EXPECT_EQ(estimate.cpu_minutes, before);
  const ModelManagerStats stats = manager.StatsSnapshot();
  EXPECT_EQ(stats.swaps, 0u);
  EXPECT_EQ(stats.swap_failures, 1u);
  EXPECT_EQ(manager.MergedStats().model_swaps, 0u);

  // With the fault cleared the same promotion goes through.
  auto retried = manager.TryPromote(*artifact_path_);
  ASSERT_TRUE(retried.ok());
  EXPECT_EQ(retried->outcome, ModelLifecycle::kActive);
}

TEST_F(ModelManagerFixture, PostSwapRegressionRollsBackAutomatically) {
  auto estimator = MakeEstimator(/*with_model=*/true);
  ShardedServingRuntime runtime({estimator.get()});
  ModelManagerConfig config;
  config.drift_window = 8;
  config.min_probation = 4;
  config.probation_window = 16;
  config.rollback_qerr = 2.0;
  config.min_replay = 1000;  // force bootstrap promotion (no shadow gate)
  ModelManager manager(&runtime, config);

  // Establish the pre-swap baseline: a full window of perfect answers.
  for (size_t i = 0; i < config.drift_window; ++i) {
    const double actual = SampleRecord(i).metrics.total_cpu_minutes;
    manager.ObserveLabeled(SamplePlan(i), actual, actual,
                           cost::ServingTier::kModel);
  }
  ASSERT_DOUBLE_EQ(manager.StatsSnapshot().baseline_p95, 1.0);

  // Promote (bootstrap: min_replay is unreachable). The old model is
  // retained and the probation window opens against the old baseline.
  auto report = manager.TryPromote(*artifact_path_);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->outcome, ModelLifecycle::kActive);
  EXPECT_TRUE(manager.StatsSnapshot().in_probation);

  // The new model answers 10x off: past min_probation observations its
  // rolling p95 (10) exceeds rollback_qerr * old baseline (2), so the
  // manager must swap the retained previous model back in by itself.
  for (size_t i = 0; i < config.min_probation; ++i) {
    const double actual = SampleRecord(i).metrics.total_cpu_minutes;
    manager.ObserveLabeled(SamplePlan(i), actual * 10.0, actual,
                           cost::ServingTier::kModel);
  }
  const ModelManagerStats stats = manager.StatsSnapshot();
  EXPECT_EQ(stats.rollbacks, 1u);
  EXPECT_FALSE(stats.in_probation);
  EXPECT_DOUBLE_EQ(stats.baseline_p95, 1.0);  // pre-swap baseline restored
  EXPECT_TRUE(estimator->has_pipeline());     // the rolled-back-to model
  const cost::ServingStats merged = manager.MergedStats();
  EXPECT_EQ(merged.model_swaps, 1u);
  EXPECT_EQ(merged.model_rollbacks, 1u);

  // Rollback consumed the retained model: a second rollback has no target.
  EXPECT_EQ(manager.Rollback("manual").code(), StatusCode::kInvalidArgument);
}

TEST_F(ModelManagerFixture, SurvivingProbationConfirmsTheNewModel) {
  auto estimator = MakeEstimator(/*with_model=*/true);
  ShardedServingRuntime runtime({estimator.get()});
  ModelManagerConfig config;
  config.drift_window = 8;
  config.min_probation = 2;
  config.probation_window = 4;
  config.rollback_qerr = 2.0;
  config.min_replay = 1000;
  ModelManager manager(&runtime, config);

  for (size_t i = 0; i < config.drift_window; ++i) {
    const double actual = SampleRecord(i).metrics.total_cpu_minutes;
    manager.ObserveLabeled(SamplePlan(i), actual, actual,
                           cost::ServingTier::kModel);
  }
  auto report = manager.TryPromote(*artifact_path_);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->outcome, ModelLifecycle::kActive);

  // Healthy post-swap answers (q-error 1.2, inside the rollback gate) ride
  // out the probation window; the model is confirmed and re-baselined on
  // its own observed accuracy.
  for (size_t i = 0; i < config.probation_window; ++i) {
    const double actual = SampleRecord(i).metrics.total_cpu_minutes;
    manager.ObserveLabeled(SamplePlan(i), actual * 1.2, actual,
                           cost::ServingTier::kModel);
  }
  const ModelManagerStats stats = manager.StatsSnapshot();
  EXPECT_EQ(stats.rollbacks, 0u);
  EXPECT_FALSE(stats.in_probation);
  EXPECT_NEAR(stats.baseline_p95, 1.2, 1e-9);
  EXPECT_EQ(stats.swaps, 1u);
}

TEST_F(ModelManagerFixture, DriftGateFlagsASustainedRegression) {
  auto estimator = MakeEstimator(/*with_model=*/true);
  ShardedServingRuntime runtime({estimator.get()});
  ModelManagerConfig config;
  config.drift_window = 8;
  config.drift_threshold = 2.0;
  config.min_probation = 4;
  ModelManager manager(&runtime, config);
  EXPECT_FALSE(manager.DriftDetected());

  // Fallback-tier observations never feed the drift window.
  manager.ObserveLabeled(SamplePlan(0), 123.0, 1.0,
                         cost::ServingTier::kGlobalMean);
  EXPECT_EQ(manager.StatsSnapshot().model_observations, 0u);

  for (size_t i = 0; i < config.drift_window; ++i) {
    const double actual = SampleRecord(i).metrics.total_cpu_minutes;
    manager.ObserveLabeled(SamplePlan(i), actual * 1.1, actual,
                           cost::ServingTier::kModel);
  }
  EXPECT_FALSE(manager.DriftDetected());  // at its own baseline, no drift

  // The workload shifts: q-error jumps to 4x the baseline p95 (~1.1).
  for (size_t i = 0; i < config.drift_window; ++i) {
    const double actual = SampleRecord(i).metrics.total_cpu_minutes;
    manager.ObserveLabeled(SamplePlan(i), actual * 4.4, actual,
                           cost::ServingTier::kModel);
  }
  EXPECT_TRUE(manager.DriftDetected());
  const cost::ServingStats merged = manager.MergedStats();
  EXPECT_GT(merged.drift_flags, 0u);
  EXPECT_NEAR(merged.drift_qerr_p95, 4.4, 1e-9);
  EXPECT_NEAR(merged.drift_baseline_p95, 1.1, 1e-9);
}

// --------------------------------------------------------------------------
// ContinualTrainer
// --------------------------------------------------------------------------

TEST_F(ModelManagerFixture, DivergingRetrainPublishesNoCandidate) {
  ScopedFaultInjection faults;
  core::ContinualTrainerConfig config;
  config.pipeline = TinyConfig();
  config.train.batch_size = 16;
  config.train.max_epochs = 2;
  config.retrain_interval = 16;
  config.candidate_path = TempPath("continual_diverged.ppl");
  std::remove(config.candidate_path.c_str());
  core::ContinualTrainer trainer(config);

  EXPECT_FALSE(trainer.RetrainDue());
  for (size_t i = 0; i < 20; ++i) trainer.AddRecord(SampleRecord(i));
  EXPECT_EQ(trainer.buffered(), 20u);
  EXPECT_TRUE(trainer.RetrainDue());

  // Every epoch loss is forced to NaN: the trainer's rollback/backoff
  // machinery exhausts its retries and the run is declared diverged — no
  // candidate artifact may be published.
  FaultInjector::Global().ArmFailure(FaultSite::kTrainEpochLoss,
                                     /*trigger_after=*/0, /*repeat=*/true);
  auto diverged = trainer.RetrainCandidate();
  FaultInjector::Global().Reset();
  ASSERT_FALSE(diverged.ok());
  EXPECT_EQ(diverged.status().code(), StatusCode::kInternal);
  EXPECT_FALSE(FileExists(config.candidate_path));

  // With the fault cleared, the same buffer retrains and publishes a valid,
  // CRC-intact, promotable candidate.
  auto report = trainer.RetrainCandidate();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->artifact_path, config.candidate_path);
  EXPECT_EQ(report->records_used, 20u);
  ASSERT_TRUE(FileExists(config.candidate_path));
  EXPECT_TRUE(ValidateArtifactFile(config.candidate_path).ok());

  auto estimator = MakeEstimator(/*with_model=*/false);
  ShardedServingRuntime runtime({estimator.get()});
  ModelManager manager(&runtime);
  auto promoted = manager.TryPromote(config.candidate_path);
  ASSERT_TRUE(promoted.ok());
  EXPECT_EQ(promoted->outcome, ModelLifecycle::kActive);
}

TEST_F(ModelManagerFixture, ContinualBufferIsBoundedAndFiltersBadRecords) {
  core::ContinualTrainerConfig config;
  config.pipeline = TinyConfig();
  config.max_buffer = 8;
  config.retrain_interval = 100;
  core::ContinualTrainer trainer(config);

  for (size_t i = 0; i < 20; ++i) trainer.AddRecord(SampleRecord(i));
  EXPECT_EQ(trainer.buffered(), 8u);  // oldest evicted first

  workload::QueryRecord bad;
  bad.metrics.total_cpu_minutes = std::numeric_limits<double>::quiet_NaN();
  trainer.AddRecord(bad);  // no plan, NaN label: ignored
  EXPECT_EQ(trainer.buffered(), 8u);
  // A label <= 0 would break the log label transform of every retrain while
  // it sat in the buffer: ignored too, even with a plan.
  for (double label : {0.0, -1.0}) {
    workload::QueryRecord nonpositive;
    nonpositive.plan = SampleRecord(0).plan->Clone();
    nonpositive.metrics.total_cpu_minutes = label;
    trainer.AddRecord(nonpositive);
    EXPECT_EQ(trainer.buffered(), 8u) << label;
  }
  EXPECT_FALSE(trainer.RetrainDue());
}

}  // namespace
}  // namespace prestroid::serve
