#include "core/featurizer.h"

#include <utility>

#include "util/logging.h"

namespace prestroid::core {

Featurizer::Featurizer(const otp::OtpEncoder* encoder,
                       embed::PredicateEncoder* predicate_encoder)
    : encoder_(encoder), predicate_encoder_(predicate_encoder) {
  PRESTROID_CHECK(encoder != nullptr);
  PRESTROID_CHECK(predicate_encoder != nullptr);
}

void Featurizer::InstallQueryContext(const otp::OtpTree& tree) const {
  // The query's predicates in BFS order, the order the OOV context folds
  // their embeddings in.
  std::vector<const otp::OtpNode*> queue;
  queue.reserve(tree.node_count);
  queue.push_back(tree.root.get());
  std::vector<const sql::Expr*> predicates;
  for (size_t head = 0; head < queue.size(); ++head) {
    const otp::OtpNode* node = queue[head];
    if (node->type == otp::OtpNodeType::kPredicate &&
        node->predicate != nullptr) {
      predicates.push_back(node->predicate.get());
    }
    if (node->left != nullptr) queue.push_back(node->left.get());
    if (node->right != nullptr) queue.push_back(node->right.get());
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
    subtree::SubtreeSample& sample = samples[s];
    // Sub-trees never exceed N, the model's accounting size
    // (subtree_model.h).
    PRESTROID_CHECK_LE(sample.size(), config.node_limit);
    TreeFeatures features;
    features.features = Tensor({sample.size(), dim});
    for (size_t i = 0; i < sample.size(); ++i) {
      encoder_->EncodeNode(*sample.nodes[i],
                           features.features.data() + i * dim);
    }
    features.left = std::move(sample.left);
    features.right = std::move(sample.right);
    features.votes = std::move(sample.votes);
    out.push_back(std::move(features));
  }
  predicate_encoder_->ClearQueryContext();
  return out;
}

}  // namespace prestroid::core
