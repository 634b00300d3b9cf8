#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "nn/activations.h"
#include "nn/batch_norm.h"
#include "nn/conv1d.h"
#include "nn/dense.h"
#include "nn/dropout.h"
#include "nn/embedding_layer.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/trainer.h"
#include "nn/tree_conv.h"
#include "util/fault_injection.h"

namespace prestroid {
namespace {

TEST(DenseTest, OutputShapeAndBias) {
  Rng rng(1);
  Dense dense(3, 2, &rng);
  dense.weight().Fill(0.0f);
  dense.bias() = Tensor({2}, {1.0f, -1.0f});
  Tensor out = dense.Forward(Tensor({2, 3}, {1, 2, 3, 4, 5, 6}));
  EXPECT_TRUE(out.AllClose(Tensor({2, 2}, {1, -1, 1, -1})));
}

TEST(DenseTest, ParamCount) {
  Rng rng(1);
  Dense dense(10, 5, &rng);
  EXPECT_EQ(dense.NumParameters(), 10u * 5u + 5u);
}

TEST(ActivationTest, ReluZeroesNegativesInBackward) {
  ReluLayer relu;
  Tensor out = relu.Forward(Tensor({3}, {-1, 0, 2}));
  EXPECT_TRUE(out.AllClose(Tensor({3}, {0, 0, 2})));
  Tensor grad = relu.Backward(Tensor({3}, {1, 1, 1}));
  EXPECT_TRUE(grad.AllClose(Tensor({3}, {0, 0, 1})));
}

TEST(ActivationTest, SigmoidBackwardPeakAtHalf) {
  SigmoidLayer sigmoid;
  sigmoid.Forward(Tensor({1}, {0.0f}));
  Tensor grad = sigmoid.Backward(Tensor({1}, {1.0f}));
  EXPECT_NEAR(grad[0], 0.25f, 1e-6f);  // sigma'(0) = 0.25
}

TEST(DropoutTest, IdentityInEvalMode) {
  Rng rng(3);
  Dropout dropout(0.5f, &rng);
  dropout.SetTraining(false);
  Tensor x = Tensor::Random({100}, &rng);
  EXPECT_TRUE(dropout.Forward(x).AllClose(x));
}

TEST(DropoutTest, PreservesExpectationInTraining) {
  Rng rng(4);
  Dropout dropout(0.3f, &rng);
  Tensor x = Tensor::Ones({20000});
  Tensor out = dropout.Forward(x);
  // Inverted dropout: E[out] == E[x].
  EXPECT_NEAR(out.Mean(), 1.0f, 0.03f);
  // Survivors scaled by 1/(1-rate).
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_TRUE(out[i] == 0.0f || std::abs(out[i] - 1.0f / 0.7f) < 1e-5f);
  }
}

TEST(DropoutTest, BackwardUsesSameMask) {
  Rng rng(5);
  Dropout dropout(0.5f, &rng);
  Tensor x = Tensor::Ones({1000});
  Tensor out = dropout.Forward(x);
  Tensor grad = dropout.Backward(Tensor::Ones({1000}));
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i] == 0.0f, grad[i] == 0.0f);
  }
}

TEST(BatchNormTest, NormalizesBatchStatistics) {
  BatchNorm1d bn(2);
  Tensor x({4, 2}, {1, 10, 2, 20, 3, 30, 4, 40});
  Tensor out = bn.Forward(x);
  // Per-feature mean ~0, variance ~1.
  for (size_t j = 0; j < 2; ++j) {
    float mean = 0, var = 0;
    for (size_t i = 0; i < 4; ++i) mean += out.At(i, j);
    mean /= 4;
    for (size_t i = 0; i < 4; ++i) var += (out.At(i, j) - mean) * (out.At(i, j) - mean);
    var /= 4;
    EXPECT_NEAR(mean, 0.0f, 1e-4f);
    EXPECT_NEAR(var, 1.0f, 1e-2f);
  }
}

TEST(BatchNormTest, EvalUsesRunningStats) {
  BatchNorm1d bn(1);
  // Train on a few batches to move the running stats.
  for (int i = 0; i < 50; ++i) {
    bn.Forward(Tensor({4, 1}, {9, 10, 11, 10}));
  }
  bn.SetTraining(false);
  Tensor out = bn.Forward(Tensor({1, 1}, {10.0f}));
  EXPECT_NEAR(out[0], 0.0f, 0.2f);  // 10 is the running mean
}

TEST(Conv1dTest, ValidPaddingShape) {
  Rng rng(6);
  Conv1d conv(8, 3, 5, &rng);
  Tensor x = Tensor::Random({2, 10, 8}, &rng);
  Tensor out = conv.Forward(x);
  EXPECT_EQ(out.shape(), (std::vector<size_t>{2, 8, 5}));
}

TEST(Conv1dTest, DetectsPattern) {
  Rng rng(7);
  Conv1d conv(1, 2, 1, &rng);
  // Kernel [1, -1] detects decreasing steps.
  conv.Params()[0].value->At(0, 0) = 1.0f;
  conv.Params()[0].value->At(0, 1) = -1.0f;
  (*conv.Params()[1].value)[0] = 0.0f;
  Tensor x({1, 4, 1}, {5, 3, 3, 7});
  Tensor out = conv.Forward(x);
  EXPECT_NEAR(out.At(0, 0, 0), 2.0f, 1e-5f);
  EXPECT_NEAR(out.At(0, 1, 0), 0.0f, 1e-5f);
  EXPECT_NEAR(out.At(0, 2, 0), -4.0f, 1e-5f);
}

TEST(GlobalMaxPoolTest, PicksMaxPerChannel) {
  GlobalMaxPool1d pool;
  Tensor x({1, 3, 2}, {1, 9, 5, 2, 3, 4});
  Tensor out = pool.Forward(x);
  EXPECT_TRUE(out.AllClose(Tensor({1, 2}, {5, 9})));
  Tensor grad = pool.Backward(Tensor({1, 2}, {1, 1}));
  EXPECT_EQ(grad.At(0, 1, 0), 1.0f);  // argmax t=1 for channel 0
  EXPECT_EQ(grad.At(0, 0, 1), 1.0f);  // argmax t=0 for channel 1
  EXPECT_EQ(grad.Sum(), 2.0f);
}

TEST(EmbeddingTest, LookupAndPadding) {
  Rng rng(8);
  EmbeddingLayer embedding(10, 4, &rng);
  Tensor out = embedding.ForwardIds({{0, 3}, {3, 0}});
  // Padding id 0 is the zero vector.
  for (size_t j = 0; j < 4; ++j) {
    EXPECT_EQ(out.At(0, 0, j), 0.0f);
    EXPECT_EQ(out.At(1, 1, j), 0.0f);
    EXPECT_EQ(out.At(0, 1, j), out.At(1, 0, j));  // same token id 3
  }
}

TEST(EmbeddingTest, PaddingGetsNoGradient) {
  Rng rng(9);
  EmbeddingLayer embedding(5, 2, &rng);
  embedding.ForwardIds({{0, 2}});
  Tensor grad({1, 2, 2});
  grad.Fill(1.0f);
  embedding.Backward(grad);
  Tensor& table_grad = *embedding.Params()[0].grad;
  EXPECT_EQ(table_grad.At(0, 0), 0.0f);
  EXPECT_EQ(table_grad.At(2, 0), 1.0f);
}

TEST(TreeConvTest, NullChildrenContributeNothing) {
  Rng rng(10);
  TreeConvLayer conv(2, 3, &rng);
  TreeStructure structure;
  structure.offsets = {0, 1};
  structure.left = {-1};
  structure.right = {-1};
  structure.mask = {1.0f};
  Tensor x({1, 2}, {1.0f, 2.0f});
  Tensor out = conv.Forward(x, structure);
  // out = relu(bias + x * w_self) only.
  Tensor expected({1, 3});
  auto params = conv.Params();
  Tensor& w_self = *params[0].value;
  Tensor& bias = *params[3].value;
  for (size_t o = 0; o < 3; ++o) {
    expected.At(0, o) = std::max(
        0.0f, bias[o] + 1.0f * w_self.At(0, o) + 2.0f * w_self.At(1, o));
  }
  EXPECT_TRUE(out.AllClose(expected, 1e-5f));
}

TEST(TreeConvTest, ChildrenRouteThroughCorrectWeights) {
  Rng rng(11);
  TreeConvLayer conv(1, 1, &rng);
  auto params = conv.Params();
  params[0].value->Fill(0.0f);  // w_self
  params[1].value->Fill(2.0f);  // w_left
  params[2].value->Fill(3.0f);  // w_right
  params[3].value->Fill(0.0f);  // bias
  // Tree: root(0) with left=1, right=2.
  TreeStructure structure;
  structure.offsets = {0, 3};
  structure.left = {1, -1, -1};
  structure.right = {2, -1, -1};
  structure.mask = {1, 1, 1};
  Tensor x({3, 1}, {0.0f, 10.0f, 100.0f});
  Tensor out = conv.Forward(x, structure);
  EXPECT_NEAR(out.At(0, 0), 2.0f * 10 + 3.0f * 100, 1e-4f);
}

TEST(TreeConvTest, ParamCountMatchesFormula) {
  Rng rng(12);
  TreeConvLayer conv(7, 9, &rng);
  EXPECT_EQ(conv.NumParameters(), 3u * 7 * 9 + 9);
}

TEST(MaskedPoolingTest, RespectsVotes) {
  MaskedDynamicPooling pooling;
  TreeStructure structure;
  structure.offsets = {0, 2};
  structure.left = {-1, -1};
  structure.right = {-1, -1};
  structure.mask = {0.0f, 1.0f};  // only node 1 votes
  Tensor x({2, 2}, {100, 100, 1, 2});
  Tensor out = pooling.Forward(x, structure);
  EXPECT_TRUE(out.AllClose(Tensor({1, 2}, {1, 2})));
}

TEST(MaskedPoolingTest, AllMaskedPoolsToZero) {
  MaskedDynamicPooling pooling;
  TreeStructure structure;
  structure.offsets = {0, 1};
  structure.left = {-1};
  structure.right = {-1};
  structure.mask = {0.0f};
  Tensor x({1, 3}, {5, 6, 7});
  Tensor out = pooling.Forward(x, structure);
  EXPECT_TRUE(out.AllClose(Tensor({1, 3})));
  // Backward routes nothing.
  Tensor grad = pooling.Backward(Tensor({1, 3}, {1, 1, 1}));
  EXPECT_EQ(grad.Sum(), 0.0f);
}

TEST(LossTest, MseKnownValue) {
  // The MSE metric the trainer's early stopping monitors.
  EXPECT_NEAR(MeanSquaredError({1, 3}, {0, 0}), (1.0 + 9.0) / 2.0, 1e-6);
}

TEST(LossTest, HuberQuadraticInside) {
  HuberLoss loss(1.0f);
  double value = loss.Compute(Tensor({1}, {0.5f}), Tensor({1}, {0.0f}));
  EXPECT_NEAR(value, 0.5 * 0.25, 1e-6);
  Tensor grad;
  loss.GradientInto(&grad);
  EXPECT_NEAR(grad[0], 0.5f, 1e-6f);
}

TEST(LossTest, HuberLinearOutside) {
  HuberLoss loss(1.0f);
  double value = loss.Compute(Tensor({1}, {5.0f}), Tensor({1}, {0.0f}));
  EXPECT_NEAR(value, 1.0 * (5.0 - 0.5), 1e-6);
  Tensor grad;
  loss.GradientInto(&grad);
  EXPECT_NEAR(grad[0], 1.0f, 1e-6f);  // clipped slope
}

TEST(LossTest, HuberLessSensitiveToOutliersThanMse) {
  HuberLoss huber(1.0f);
  Tensor pred({2}, {0.1f, 10.0f});
  Tensor target({2});
  const double mse = (0.1 * 0.1 + 10.0 * 10.0) / 2.0;
  EXPECT_LT(huber.Compute(pred, target), mse);
}

TEST(OptimizerTest, AdamConvergesOnQuadratic) {
  Tensor w({2}, {5.0f, -3.0f});
  Tensor g({2});
  AdamOptimizer opt(0.1f);
  opt.Register({{"w", &w, &g}});
  for (int i = 0; i < 500; ++i) {
    g[0] = 2.0f * (w[0] - 1.0f);
    g[1] = 2.0f * (w[1] + 2.0f);
    opt.Step();
  }
  EXPECT_NEAR(w[0], 1.0f, 1e-2f);
  EXPECT_NEAR(w[1], -2.0f, 1e-2f);
}

TEST(OptimizerTest, ZeroGradClears) {
  Tensor w({2});
  Tensor g({2}, {1, 2});
  AdamOptimizer opt(0.1f);
  opt.Register({{"w", &w, &g}});
  opt.ZeroGrad();
  EXPECT_EQ(g.Sum(), 0.0f);
}

// A trivial 1-parameter CostModel for trainer tests: predicts a constant.
class ConstantModel : public CostModel {
 public:
  explicit ConstantModel(std::vector<float> targets)
      : targets_(std::move(targets)) {}
  std::string name() const override { return "constant"; }
  size_t num_samples() const override { return targets_.size(); }
  double TrainEpoch(const std::vector<size_t>& indices, size_t) override {
    double mean = 0.0;
    for (size_t i : indices) mean += targets_[i];
    mean /= static_cast<double>(indices.size());
    // Move 50% towards the train mean each epoch.
    value_ += 0.5f * (static_cast<float>(mean) - value_);
    double loss = 0.0;
    for (size_t i : indices) {
      loss += (targets_[i] - value_) * (targets_[i] - value_);
    }
    return loss / static_cast<double>(indices.size());
  }
  std::vector<float> Predict(const std::vector<size_t>& indices) override {
    return std::vector<float>(indices.size(), value_);
  }
  size_t NumParameters() const override { return 1; }

 private:
  std::vector<float> targets_;
  float value_ = 0.0f;
};

TEST(TrainerTest, EarlyStoppingTriggersAfterPlateau) {
  std::vector<float> targets = {0.5f, 0.5f, 0.5f, 0.5f};
  ConstantModel model(targets);
  TrainConfig config;
  config.max_epochs = 100;
  config.patience = 3;
  TrainResult result = TrainWithEarlyStopping(&model, {0, 1}, {2, 3},
                                              {0.5f, 0.5f}, config);
  // Converges quickly, then patience expires long before max_epochs.
  EXPECT_LT(result.epochs_run, 40u);
  EXPECT_LT(result.best_val_mse, 1e-4);
  EXPECT_GE(result.epochs_run, result.best_epoch);
  EXPECT_EQ(result.val_mse_history.size(), result.epochs_run);
}

// A model whose single parameter drifts past the optimum: validation MSE is
// minimized at epoch 3, then worsens. The trainer must restore the epoch-3
// weights before returning.
class DriftModel : public CostModel {
 public:
  DriftModel() : value_({1}), grad_({1}) {}
  std::string name() const override { return "drift"; }
  size_t num_samples() const override { return 4; }
  double TrainEpoch(const std::vector<size_t>&, size_t) override {
    value_[0] += 1.0f;  // epochs 1,2,3,... -> value 1,2,3,...
    return 0.0;
  }
  std::vector<float> Predict(const std::vector<size_t>& indices) override {
    // Distance from the sweet spot 3.0 (targets are 0).
    return std::vector<float>(indices.size(), std::abs(value_[0] - 3.0f));
  }
  size_t NumParameters() const override { return 1; }
  std::vector<ParamRef> Params() override {
    return {{"value", &value_, &grad_}};
  }
  float value() const { return value_[0]; }

 private:
  Tensor value_;
  Tensor grad_;
};

TEST(TrainerTest, RestoresBestValidationWeights) {
  DriftModel model;
  TrainConfig config;
  config.max_epochs = 30;
  config.patience = 3;
  TrainResult result =
      TrainWithEarlyStopping(&model, {0, 1}, {2, 3}, {0.0f, 0.0f}, config);
  EXPECT_EQ(result.best_epoch, 3u);
  EXPECT_GT(result.epochs_run, 3u);  // kept drifting until patience expired
  // The best (epoch 3) parameter value was restored, not the drifted one.
  EXPECT_FLOAT_EQ(model.value(), 3.0f);
  EXPECT_NEAR(result.best_val_mse, 0.0, 1e-9);
}

TEST(TrainerTest, MeanSquaredError) {
  EXPECT_NEAR(MeanSquaredError({1.0f, 2.0f}, {0.0f, 0.0f}), 2.5, 1e-6);
}

TEST(TrainerTest, EmptyValidationSetFallsBackToTrainLoss) {
  ConstantModel model({0.5f, 0.5f, 0.5f, 0.5f});
  TrainConfig config;
  config.max_epochs = 20;
  config.patience = 3;
  TrainResult result = TrainWithEarlyStopping(&model, {0, 1, 2, 3}, {}, {},
                                              config);
  EXPECT_GE(result.epochs_run, 1u);
  // Validation history mirrors the train loss when no val set exists.
  ASSERT_FALSE(result.val_mse_history.empty());
  EXPECT_EQ(result.val_mse_history[0], result.train_loss_history[0]);
}

TEST(TrainerTest, ZeroPatienceStopsAtFirstPlateau) {
  DriftModel model;  // val MSE improves until epoch 3, then worsens
  TrainConfig config;
  config.max_epochs = 30;
  config.patience = 0;
  TrainResult result =
      TrainWithEarlyStopping(&model, {0, 1}, {2, 3}, {0.0f, 0.0f}, config);
  // Stops at the first epoch without improvement (epoch 4) and restores
  // the epoch-3 optimum.
  EXPECT_EQ(result.epochs_run, 4u);
  EXPECT_EQ(result.best_epoch, 3u);
  EXPECT_FLOAT_EQ(model.value(), 3.0f);
}

TEST(TrainerTest, ZeroMaxEpochsRunsNothing) {
  ConstantModel model({0.5f, 0.5f});
  TrainConfig config;
  config.max_epochs = 0;
  TrainResult result =
      TrainWithEarlyStopping(&model, {0, 1}, {}, {}, config);
  EXPECT_EQ(result.epochs_run, 0u);
  EXPECT_TRUE(result.train_loss_history.empty());
  EXPECT_EQ(result.nan_rollbacks, 0u);
  EXPECT_FALSE(result.diverged);
}

// DriftModel variant that reports learning-rate backoff calls.
class BackoffDriftModel : public DriftModel {
 public:
  void ScaleLearningRate(float factor) override {
    lr_scale_ *= factor;
    ++backoff_calls_;
  }
  float lr_scale() const { return lr_scale_; }
  size_t backoff_calls() const { return backoff_calls_; }

 private:
  float lr_scale_ = 1.0f;
  size_t backoff_calls_ = 0;
};

TEST(TrainerTest, NanLossRollsBackAndBacksOffLearningRate) {
  ScopedFaultInjection faults;
  // Poison the 4th computed epoch loss (epochs 1-3 train normally, so a
  // best checkpoint exists at the optimum).
  FaultInjector::Global().ArmFailure(FaultSite::kTrainEpochLoss, 3);

  BackoffDriftModel model;
  TrainConfig config;
  config.max_epochs = 30;
  config.patience = 3;
  TrainResult result =
      TrainWithEarlyStopping(&model, {0, 1}, {2, 3}, {0.0f, 0.0f}, config);

  EXPECT_EQ(result.nan_rollbacks, 1u);
  EXPECT_FALSE(result.diverged);
  EXPECT_EQ(model.backoff_calls(), 1u);
  EXPECT_FLOAT_EQ(model.lr_scale(), 0.5f);
  // Training recovered, completed, and still restored the best weights.
  EXPECT_EQ(result.best_epoch, 3u);
  EXPECT_FLOAT_EQ(model.value(), 3.0f);
  // The poisoned epoch never entered the histories.
  for (double loss : result.train_loss_history) {
    EXPECT_TRUE(std::isfinite(loss));
  }
}

TEST(TrainerTest, PersistentNanExhaustsRetriesAndKeepsBestWeights) {
  ScopedFaultInjection faults;
  FaultInjector::Global().ArmFailure(FaultSite::kTrainEpochLoss, 3,
                                     /*repeat=*/true);

  BackoffDriftModel model;
  TrainConfig config;
  config.max_epochs = 30;
  config.patience = 5;
  config.nan_retry_limit = 2;
  TrainResult result =
      TrainWithEarlyStopping(&model, {0, 1}, {2, 3}, {0.0f, 0.0f}, config);

  EXPECT_TRUE(result.diverged);
  EXPECT_EQ(result.nan_rollbacks, 3u);  // 2 retries + the final give-up
  EXPECT_EQ(model.backoff_calls(), 2u);
  // The epoch-3 best checkpoint survived the divergent tail.
  EXPECT_EQ(result.best_epoch, 3u);
  EXPECT_FLOAT_EQ(model.value(), 3.0f);
}

TEST(TrainerTest, NanBeforeAnyCheckpointRollsBackToInitialWeights) {
  ScopedFaultInjection faults;
  // Every epoch is poisoned: no best checkpoint ever forms.
  FaultInjector::Global().ArmFailure(FaultSite::kTrainEpochLoss, 0,
                                     /*repeat=*/true);

  BackoffDriftModel model;
  const float initial_value = model.value();
  TrainConfig config;
  config.max_epochs = 30;
  config.nan_retry_limit = 3;
  TrainResult result =
      TrainWithEarlyStopping(&model, {0, 1}, {2, 3}, {0.0f, 0.0f}, config);

  EXPECT_TRUE(result.diverged);
  EXPECT_EQ(result.epochs_run, 0u);
  // Each retry rolled the drifted weight back to its pre-training value.
  // After the final (non-rolled-back) attempt it has drifted exactly once.
  EXPECT_FLOAT_EQ(model.value(), initial_value + 1.0f);
}

TEST(TrainerTest, SnapshotResumeContinuesEpochCount) {
  const std::string path = ::testing::TempDir() + "/trainer_resume.ckpt";
  TrainConfig config;
  config.max_epochs = 2;  // interrupted run: stops after epoch 2
  config.patience = 10;
  config.snapshot_path = path;
  config.snapshot_every = 1;
  {
    DriftModel model;
    TrainResult result =
        TrainWithEarlyStopping(&model, {0, 1}, {2, 3}, {0.0f, 0.0f}, config);
    EXPECT_EQ(result.epochs_run, 2u);
  }

  // A fresh model resumes from the snapshot and continues at epoch 3.
  DriftModel resumed;
  config.max_epochs = 8;
  config.resume = true;
  TrainResult result = TrainWithEarlyStopping(&resumed, {0, 1}, {2, 3},
                                              {0.0f, 0.0f}, config);
  EXPECT_EQ(result.start_epoch, 3u);
  EXPECT_EQ(result.epochs_run, 8u);
  // Histories cover only the resumed epochs (3..8).
  EXPECT_EQ(result.train_loss_history.size(), 6u);
  // Epoch numbering is continuous across the interruption, so the restored
  // optimum matches an uninterrupted run: best at epoch 3, value 3.0.
  EXPECT_EQ(result.best_epoch, 3u);
  EXPECT_FLOAT_EQ(resumed.value(), 3.0f);
}

TEST(TrainerTest, ResumeFromMissingSnapshotStartsFresh) {
  DriftModel model;
  TrainConfig config;
  config.max_epochs = 5;
  config.patience = 10;
  config.snapshot_path = ::testing::TempDir() + "/does_not_exist.ckpt";
  config.resume = true;
  TrainResult result =
      TrainWithEarlyStopping(&model, {0, 1}, {2, 3}, {0.0f, 0.0f}, config);
  EXPECT_EQ(result.start_epoch, 1u);
  EXPECT_EQ(result.epochs_run, 5u);
}

}  // namespace
}  // namespace prestroid
