#include "core/featurizer.h"

#include "util/logging.h"

namespace prestroid::core {

Featurizer::Featurizer(const otp::OtpEncoder* encoder,
                       embed::PredicateEncoder* predicate_encoder)
    : encoder_(encoder), predicate_encoder_(predicate_encoder) {
  PRESTROID_CHECK(encoder != nullptr);
  PRESTROID_CHECK(predicate_encoder != nullptr);
}

void Featurizer::InstallQueryContext(const otp::OtpTree& tree) const {
  std::vector<const sql::Expr*> predicates;
  otp::FlatOtpTree flat = otp::Flatten(tree);
  for (const otp::OtpNode* node : flat.nodes) {
    if (node->type == otp::OtpNodeType::kPredicate &&
        node->predicate != nullptr) {
      predicates.push_back(node->predicate.get());
    }
  }
  predicate_encoder_->SetQueryContext(predicates);
}

Result<TreeFeatures> Featurizer::FeaturizeFullPlan(
    const plan::PlanNode& plan) const {
  PRESTROID_ASSIGN_OR_RETURN(otp::OtpTree tree, otp::RecastPlan(plan));
  InstallQueryContext(tree);
  otp::FlatOtpTree flat = otp::Flatten(tree);
  TreeFeatures features;
  features.features = encoder_->EncodeTree(flat);
  features.left = flat.left;
  features.right = flat.right;
  features.votes.assign(flat.size(), 1.0f);
  predicate_encoder_->ClearQueryContext();
  return features;
}

Result<std::vector<TreeFeatures>> Featurizer::FeaturizeSubtrees(
    const plan::PlanNode& plan, const subtree::SubtreeSamplerConfig& config,
    size_t k, subtree::PruningStrategy strategy) const {
  PRESTROID_ASSIGN_OR_RETURN(otp::OtpTree tree, otp::RecastPlan(plan));
  InstallQueryContext(tree);
  PRESTROID_ASSIGN_OR_RETURN(
      std::vector<subtree::SubtreeSample> samples,
      subtree::DecomposeTree(*tree.root, config, strategy));
  const size_t take = std::min(k, samples.size());
  const size_t dim = encoder_->feature_dim();
  std::vector<TreeFeatures> out;
  out.reserve(take);
  for (size_t s = 0; s < take; ++s) {
    const subtree::SubtreeSample& sample = samples[s];
    // The model pads every batch to N nodes per sub-tree (subtree_model.h).
    PRESTROID_CHECK_LE(sample.size(), config.node_limit);
    TreeFeatures features;
    features.features = Tensor({sample.size(), dim});
    for (size_t i = 0; i < sample.size(); ++i) {
      encoder_->EncodeNode(*sample.nodes[i],
                           features.features.data() + i * dim);
    }
    features.left = sample.left;
    features.right = sample.right;
    features.votes = sample.votes;
    out.push_back(std::move(features));
  }
  predicate_encoder_->ClearQueryContext();
  return out;
}

}  // namespace prestroid::core
