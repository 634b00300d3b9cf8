#ifndef PRESTROID_CORE_FEATURIZER_H_
#define PRESTROID_CORE_FEATURIZER_H_

#include <vector>

#include "embed/predicate_encoder.h"
#include "otp/otp_encoder.h"
#include "subtree/naive_pruning.h"
#include "subtree/subtree_sampler.h"
#include "tensor/tensor.h"

namespace prestroid::core {

/// Model-ready features of one binary tree (a full plan or one sub-tree):
/// per-node feature rows plus the structural arrays the tree convolution
/// consumes.
struct TreeFeatures {
  Tensor features;          // [num_nodes, feature_dim]
  std::vector<int> left;    // local child indices, -1 = none
  std::vector<int> right;
  std::vector<float> votes; // pooling mask (all 1 for full trees)

  size_t num_nodes() const { return left.size(); }
};

/// Turns logical plans into tree-convolution inputs: O-T-P re-cast, node
/// encoding (with the per-query OOV context installed on the predicate
/// encoder), and — for the sub-tree path — Algorithm 1 sampling with the
/// first K sub-trees selected (paper Section 4.1).
class Featurizer {
 public:
  /// Both encoders must outlive the featurizer. The predicate encoder is
  /// mutated (query context) during featurization; featurize from one thread.
  Featurizer(const otp::OtpEncoder* encoder,
             embed::PredicateEncoder* predicate_encoder);

  /// Features of the full (unpruned) O-T-P tree.
  Result<TreeFeatures> FeaturizeFullPlan(const plan::PlanNode& plan) const;

  /// The first K sub-trees of the plan (fewer when the plan decomposes into
  /// fewer samples; a missing sub-tree pools to zero in the model). `strategy`
  /// selects Algorithm 1 or one of the naive pruning ablations.
  Result<std::vector<TreeFeatures>> FeaturizeSubtrees(
      const plan::PlanNode& plan, const subtree::SubtreeSamplerConfig& config,
      size_t k,
      subtree::PruningStrategy strategy =
          subtree::PruningStrategy::kAlgorithm1) const;

  size_t feature_dim() const { return encoder_->feature_dim(); }

 private:
  void InstallQueryContext(const otp::OtpTree& tree) const;

  const otp::OtpEncoder* encoder_;
  embed::PredicateEncoder* predicate_encoder_;
};

}  // namespace prestroid::core

#endif  // PRESTROID_CORE_FEATURIZER_H_
