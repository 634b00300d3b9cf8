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
  size_t node_limit = 15;   // N: accounting size; no training sample exceeds it
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
/// A batch of B queries runs as B*K tree slots in the ragged row layout of
/// TreeStructure: only real plan nodes are rows, each slot owns a contiguous
/// row range, and a missing tree (fewer than K) owns an empty one and pools
/// to zero. The paper's 0-padding to N nodes per slot survives only as the
/// memory accounting of InputBytesPerBatch (Figure 6); padding would add
/// exact zeros, so skipping it changes no answer. A full-tree plan larger
/// than every training plan (K = 1, N = the largest training plan) is just a
/// longer row range, and every row's prediction is independent of what else
/// shares its batch.
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

  /// Freezes the trunk's and the head's GEMM weights into resident panels
  /// for serving (DESIGN.md §5.8): forwards stop repacking them and answer
  /// with the same bits. Training afterwards CHECK-fails in Backward.
  void FreezeWeights() {
    conv_->FreezeWeights();
    head_->FreezeWeights();
  }

  /// Exact bytes of the padded input tensor for one training batch
  /// (Figure 6 top): batch * K * N * F * sizeof(float).
  size_t InputBytesPerBatch(size_t batch_size) const;

  const SubtreeModelConfig& config() const { return config_; }
  const std::vector<float>& targets() const { return targets_; }

 private:
  /// Pointers to the stored samples at `indices`.
  std::vector<Row> RowsOf(const std::vector<size_t>& indices) const;
  /// Assembles the ragged [rows, F] batch of `rows`' first K trees and its
  /// structure into features_ws_ / structure_ws_ in one pass (no fill,
  /// allocation-free once warm). CHECK-fails on a child index outside its
  /// own tree.
  void AssembleBatch(std::span<const Row> rows);
  /// Forward over the assembled workspaces: [rows.size(), output_dim].
  const Tensor& ForwardBatch(size_t batch);
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
  Tensor features_ws_;          // [rows, F] ragged node features
  TreeStructure structure_ws_;  // B*K tree slots over those rows
  Tensor target_ws_;       // [B, output_dim]
  Tensor grad_ws_;         // [B, output_dim]
  Tensor grad_pooled_ws_;  // [B*K, C]
};

}  // namespace prestroid::core

#endif  // PRESTROID_CORE_SUBTREE_MODEL_H_
