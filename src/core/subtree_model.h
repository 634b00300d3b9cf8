#ifndef PRESTROID_CORE_SUBTREE_MODEL_H_
#define PRESTROID_CORE_SUBTREE_MODEL_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/featurizer.h"
#include "core/model_blocks.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/trainer.h"

namespace prestroid::core {

/// Hyper-parameters of the Prestroid tree-CNN (paper notation N-K-P_f). The
/// P_f dimension is implied by `feature_dim` (the encoder's node width
/// already includes the P_f-wide predicate block). The full-tree baseline
/// ("Full-P_f") is the same model with K = 1 and N = the largest training
/// plan.
struct SubtreeModelConfig {
  size_t feature_dim = 0;   // node-feature width F
  size_t node_limit = 15;   // N: padding size; no training sample exceeds it
  size_t num_subtrees = 9;  // K: trees per query
  std::vector<size_t> conv_channels = {512, 512, 512};
  std::vector<size_t> dense_units = {128, 64};
  float dropout = 0.1f;
  bool batch_norm = true;
  float learning_rate = 1e-4f;
  float huber_delta = 1.0f;
  /// Number of regression targets. 1 = the paper's total-CPU-time objective;
  /// >1 enables the multi-objective extension (e.g. {CPU, peak memory,
  /// input bytes}), all trained jointly under one Huber loss.
  size_t output_dim = 1;
  uint64_t seed = 1;
  std::string name = "Prestroid";
};

/// The paper's core contribution: per-query K trees of <= N nodes run
/// through a shared tree-convolution trunk, vote-masked dynamic pooling per
/// tree, flattened across trees, then a dense sigmoid head.
///
/// Every batch is 0-padded to max(N, largest tree in the batch) nodes per
/// tree slot. For sub-tree models no tree exceeds N, so the shape is fixed
/// at [B*K, N, F]. For the full-tree baseline (K = 1, N = the largest
/// training plan) a served plan larger than every training plan grows its
/// batch to its own size; masked pooling keeps the padding inert, so each
/// row's prediction is independent of the padding it shares.
class SubtreeModel : public CostModel {
 public:
  /// One query's trees, read in place.
  using Row = const std::vector<TreeFeatures>*;

  explicit SubtreeModel(const SubtreeModelConfig& config);

  /// Adds one featurized sample (the first K trees from the Featurizer;
  /// fewer are zero-padded) with its normalized target (output_dim must
  /// be 1).
  void AddSample(std::vector<TreeFeatures> subtrees, float target);

  /// Multi-objective variant: `targets` holds output_dim normalized values.
  void AddSampleMulti(std::vector<TreeFeatures> subtrees,
                      const std::vector<float>& targets);

  /// Predicts all output_dim objectives: [indices.size(), output_dim].
  Tensor PredictMulti(const std::vector<size_t>& indices);

  /// Eval-mode forward over borrowed samples, read in place with no staging
  /// copies and no mutation of the training-sample store. Returns the first
  /// objective per sample, identical to Predict() on the same trees. This is
  /// the batched-serving hot path.
  std::vector<float> PredictBorrowed(const std::vector<Row>& samples);

  // CostModel:
  std::string name() const override { return config_.name; }
  size_t num_samples() const override { return samples_.size(); }
  double TrainEpoch(const std::vector<size_t>& indices,
                    size_t batch_size) override;
  std::vector<float> Predict(const std::vector<size_t>& indices) override;
  size_t NumParameters() const override;
  std::vector<ParamRef> Params() override { return optimizer_->params(); }
  std::vector<ParamRef> State() override { return head_->State(); }
  void ScaleLearningRate(float factor) override {
    optimizer_->set_lr(optimizer_->lr() * factor);
  }
  void SerializeOptimizerState(std::ostream& os) const override {
    optimizer_->SerializeState(os);
  }
  Status DeserializeOptimizerState(std::istream& is) override {
    return optimizer_->DeserializeState(is);
  }
  /// Binds `ctx` on every layer of the trunk, pooling and head.
  void SetExecutionContext(ExecutionContext* ctx) override;
  ExecutionContext* execution_context() override { return ctx_; }
  void CollectFreezableLayers(std::vector<FreezableLayer*>* out) override {
    conv_->CollectFreezableLayers(out);
    head_->CollectFreezableLayers(out);
  }

  /// Exact bytes of the padded input tensor for one training batch
  /// (Figure 6 top): batch * K * N * F * sizeof(float).
  size_t InputBytesPerBatch(size_t batch_size) const;

  const SubtreeModelConfig& config() const { return config_; }
  const std::vector<float>& targets() const { return targets_; }

 private:
  /// Pointers to the stored samples at `indices`.
  std::vector<Row> RowsOf(const std::vector<size_t>& indices) const;
  /// Assembles the padded [B*K, N', F] batch (N' per the padding rule) and
  /// its structure into the given workspace tensor (allocation-free once
  /// warm).
  void AssembleBatch(std::span<const Row> rows, TreeStructure* structure,
                     Tensor* features) const;
  const Tensor& ForwardBatch(const Tensor& features,
                             const TreeStructure& structure);
  /// Chunked eval-mode forward: [rows.size(), output_dim].
  Tensor Evaluate(const std::vector<Row>& rows);

  SubtreeModelConfig config_;
  Rng rng_;
  std::unique_ptr<TreeConvStack> conv_;
  MaskedDynamicPooling pooling_;
  std::unique_ptr<DenseHead> head_;
  std::unique_ptr<AdamOptimizer> optimizer_;
  HuberLoss loss_;
  ExecutionContext* ctx_ = nullptr;

  std::vector<std::vector<TreeFeatures>> samples_;
  std::vector<float> targets_;
  // Per-batch workspaces reused across batches.
  Tensor features_ws_;     // [B*K, N, F]
  Tensor target_ws_;       // [B, output_dim]
  Tensor grad_ws_;         // [B, output_dim]
  Tensor grad_pooled_ws_;  // [B*K, C]
};

}  // namespace prestroid::core

#endif  // PRESTROID_CORE_SUBTREE_MODEL_H_
