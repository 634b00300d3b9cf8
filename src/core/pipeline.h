#ifndef PRESTROID_CORE_PIPELINE_H_
#define PRESTROID_CORE_PIPELINE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/featurizer.h"
#include "core/label_transform.h"
#include "core/metrics.h"
#include "core/subtree_model.h"
#include "embed/word2vec.h"
#include "nn/trainer.h"
#include "plan/plan_limits.h"
#include "tensor/execution_context.h"
#include "workload/dataset.h"
#include "workload/trace.h"

namespace prestroid::core {

/// End-to-end Prestroid configuration (paper notation: Prestroid(N-K-P_f)
/// for sub-tree models, Full-P_f for the unpruned baseline).
struct PipelineConfig {
  /// Word2Vec settings; word2vec.dim is P_f.
  embed::Word2VecConfig word2vec;
  /// Sub-tree sampler: N (node limit) and C (convolution layers).
  subtree::SubtreeSamplerConfig sampler;
  /// K: sub-trees representing a query. Ignored for full-tree pipelines.
  size_t num_subtrees = 9;
  /// false -> Prestroid-Full: the same model over unpruned plans, with K = 1
  /// and N = the largest featurized record (see SubtreeModel).
  bool use_subtrees = true;
  /// Decomposition strategy for sub-tree pipelines (Algorithm 1 by default;
  /// the naive options exist for the ablation study).
  subtree::PruningStrategy pruning = subtree::PruningStrategy::kAlgorithm1;
  std::vector<size_t> conv_channels = {512, 512, 512};
  std::vector<size_t> dense_units = {128, 64};
  float dropout = 0.1f;
  bool batch_norm = true;
  float learning_rate = 1e-4f;
  uint64_t seed = 1;
  /// Worker threads for featurization and the numeric kernels; 1 is the
  /// default and 0 means all hardware threads. The trained bits do not depend
  /// on it (DESIGN.md §5.2). Runtime knob only — never serialized, so a
  /// loaded pipeline always starts at the serving default of 1.
  size_t threads = 1;
  /// Resource budget for plans entering FeaturizePlan/PredictPlan (the
  /// deployment path, which sees plans the trainer never vetted). Over-limit
  /// plans get kResourceExhausted before any recast/encode work. Runtime
  /// knob only — never serialized.
  plan::PlanLimits plan_limits;
};

/// Featurized encoding of one plan in exactly the form the model consumes:
/// K sub-trees for sub-tree pipelines, a single full tree otherwise.
struct PlanFeatures {
  std::vector<TreeFeatures> trees;
};

/// The full Prestroid data-science pipeline of Figure 3: plan re-casting,
/// predicate Word2Vec, O-T-P encoding, sub-tree sampling, and the tree-CNN
/// cost model, assembled over one trace dataset.
///
/// Fit() performs all data-dependent preparation using only the training
/// partition (Word2Vec corpus, encoder vocabularies, OOV fallbacks); the
/// label transform is fitted over the whole corpus as in the paper. Every
/// record is then featurized so that model sample index == record index.
class PrestroidPipeline {
 public:
  /// Builds and featurizes the pipeline over `records`.
  static Result<std::unique_ptr<PrestroidPipeline>> Fit(
      const std::vector<workload::QueryRecord>& records,
      const std::vector<size_t>& train_indices, const PipelineConfig& config);

  /// Trains the model with early stopping (validation monitored in
  /// normalized space).
  TrainResult Train(const workload::DatasetSplits& splits,
                    const TrainConfig& train_config);

  /// Predicts total CPU minutes for the given record indices.
  std::vector<double> PredictMinutes(const std::vector<size_t>& indices);

  /// MSE in minutes^2 over the given records (paper Table 2 metric).
  double EvaluateMseMinutes(const std::vector<size_t>& indices);

  /// Predicts CPU minutes for a previously unseen plan (deployment path:
  /// new query -> EXPLAIN -> predict; exercises the OOV fallbacks).
  /// Equivalent to FeaturizePlan + a 1-element PredictFeaturized batch.
  Result<double> PredictPlan(const plan::PlanNode& plan);

  /// Featurizes a previously unseen plan into the model's input encoding
  /// (recast + OOV context + encode + sub-tree sampling). The result depends
  /// only on the plan fields serve::FingerprintPlan hashes and the fitted
  /// encoder state, which is what lets the serving tier cache one answer per
  /// plan fingerprint (serve/answer_cache.h).
  Result<PlanFeatures> FeaturizePlan(const plan::PlanNode& plan);

  /// Predicts CPU minutes for a batch of featurized plans in one fused
  /// forward pass (eval mode: dropout off, batch-norm running statistics,
  /// per-tree pooling), so each row's prediction is independent of what else
  /// shares the batch — batched results match PredictPlan per element.
  std::vector<double> PredictFeaturized(
      const std::vector<const PlanFeatures*>& batch);

  // --- Resident serving weights (DESIGN.md §5.8) --------------------------

  /// Freezes every GEMM layer's weights into resident fp32 panels, so
  /// forwards stop repacking weights on every call. Predictions stay
  /// bit-identical to the unfrozen pipeline's: a frozen layer runs the same
  /// kernel on the same packed panel, packed once instead of per call.
  /// Training a frozen pipeline is forbidden (layer Backward CHECK-fails),
  /// and there is no way back. Calling it again repacks.
  void FreezeInferenceWeights();

  /// Whether FreezeInferenceWeights() has run on this pipeline.
  bool weights_frozen() const { return weights_frozen_; }

  CostModel* model() { return model_.get(); }
  /// The pipeline-owned execution context (thread pool + scratch arena +
  /// counters) bound to the model. Never null after Fit()/LoadFile().
  ExecutionContext* execution_context() { return exec_ctx_.get(); }
  const LabelTransform& label_transform() const { return transform_; }
  const embed::Word2Vec& word2vec() const { return *word2vec_; }
  const otp::OtpEncoder& encoder() const { return *encoder_; }
  const PipelineConfig& config() const { return config_; }
  /// Normalized targets of all records (index-aligned).
  const std::vector<float>& normalized_targets() const { return targets_; }
  const std::vector<double>& cpu_minutes() const { return cpu_minutes_; }

  /// Serializes the fitted pipeline — config, label transform, Word2Vec,
  /// encoder vocabularies, OOV fallback, and trained model weights — so a
  /// serving process can LoadFile() and PredictPlan() without retraining.
  /// (Implemented in core/pipeline_io.cc.)
  Status SaveFile(const std::string& path);

  /// Loads a pipeline saved by SaveFile. The result serves PredictPlan();
  /// it carries no training samples, so Train() is not available on it.
  static Result<std::unique_ptr<PrestroidPipeline>> LoadFile(
      const std::string& path);

  /// Human-readable model tag, e.g. "Prestroid (15-9-300)" or "Full-300".
  std::string ModelName() const;

  /// Exact padded input bytes per training batch (Figure 6 top).
  size_t InputBytesPerBatch(size_t batch_size) const;

 private:
  friend struct PipelineSerde;  // serialization internals (pipeline_io.cc)

  PrestroidPipeline() = default;

  /// Builds the sample-free model for the fitted encoder and binds the
  /// execution context. `full_tree_nodes` is a full-tree pipeline's N (its
  /// largest featurized record); sub-tree pipelines use the sampler's N and
  /// ignore it.
  void BuildModel(size_t full_tree_nodes);

  PipelineConfig config_;
  LabelTransform transform_;
  std::unique_ptr<ExecutionContext> exec_ctx_;
  std::unique_ptr<embed::Word2Vec> word2vec_;
  std::unique_ptr<embed::PredicateEncoder> predicate_encoder_;
  std::unique_ptr<otp::OtpEncoder> encoder_;
  std::unique_ptr<Featurizer> featurizer_;
  std::unique_ptr<SubtreeModel> model_;
  std::vector<float> targets_;
  std::vector<double> cpu_minutes_;
  bool weights_frozen_ = false;
};

}  // namespace prestroid::core

#endif  // PRESTROID_CORE_PIPELINE_H_
