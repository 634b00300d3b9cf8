#include "core/pipeline.h"

#include <algorithm>

#include "embed/predicate_tokenizer.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace prestroid::core {

namespace {

/// Collects the PRED expressions of an O-T-P tree. Explicit-stack: OTP
/// trees mirror plan depth, which the ingestion limits allow to far exceed
/// what recursion could survive on a default thread stack.
void CollectPredicates(const otp::OtpNode& root,
                       std::vector<const sql::Expr*>* out) {
  std::vector<const otp::OtpNode*> stack = {&root};
  while (!stack.empty()) {
    const otp::OtpNode& node = *stack.back();
    stack.pop_back();
    if (node.type == otp::OtpNodeType::kPredicate &&
        node.predicate != nullptr) {
      out->push_back(node.predicate.get());
    }
    if (node.right != nullptr) stack.push_back(node.right.get());
    if (node.left != nullptr) stack.push_back(node.left.get());
  }
}

/// The model input for one plan: its first K sub-trees, or the single
/// unpruned tree of a full-tree pipeline.
Result<std::vector<TreeFeatures>> FeaturizeTrees(const Featurizer& featurizer,
                                                 const PipelineConfig& config,
                                                 const plan::PlanNode& plan) {
  if (config.use_subtrees) {
    return featurizer.FeaturizeSubtrees(plan, config.sampler,
                                        config.num_subtrees, config.pruning);
  }
  PRESTROID_ASSIGN_OR_RETURN(TreeFeatures tree,
                             featurizer.FeaturizeFullPlan(plan));
  std::vector<TreeFeatures> trees;
  trees.push_back(std::move(tree));
  return trees;
}

}  // namespace

Result<std::unique_ptr<PrestroidPipeline>> PrestroidPipeline::Fit(
    const std::vector<workload::QueryRecord>& records,
    const std::vector<size_t>& train_indices, const PipelineConfig& config) {
  if (records.empty()) {
    return Status::InvalidArgument("cannot fit pipeline on an empty trace");
  }
  if (train_indices.empty()) {
    return Status::InvalidArgument("training partition is empty");
  }
  auto pipeline = std::unique_ptr<PrestroidPipeline>(new PrestroidPipeline());
  pipeline->config_ = config;
  pipeline->exec_ctx_ = std::make_unique<ExecutionContext>(config.threads);
  ExecutionContext* ctx = pipeline->exec_ctx_.get();

  // 1. Label transform over the whole corpus (paper Section 5.1).
  pipeline->cpu_minutes_ = workload::CpuMinutesOf(records);
  PRESTROID_RETURN_NOT_OK(pipeline->transform_.Fit(pipeline->cpu_minutes_));
  pipeline->targets_ =
      pipeline->transform_.NormalizeAll(pipeline->cpu_minutes_);

  // 2. Re-cast every plan once (train trees also feed the vocabularies).
  // Record i's tree lands in slot i regardless of thread count; errors are
  // reported for the lowest failing index, matching the serial loop.
  std::vector<otp::OtpTree> trees(records.size());
  std::vector<Status> recast_errors(records.size());
  ctx->ParallelFor(0, records.size(), /*grain=*/8,
                   [&](size_t begin, size_t end) {
                     for (size_t i = begin; i < end; ++i) {
                       Result<otp::OtpTree> tree =
                           otp::RecastPlan(*records[i].plan);
                       if (!tree.ok()) {
                         recast_errors[i] = tree.status();
                         continue;
                       }
                       trees[i] = std::move(tree).value();
                     }
                   });
  for (const Status& status : recast_errors) {
    PRESTROID_RETURN_NOT_OK(status);
  }

  // 3. Word2Vec over the TRAIN predicates (values and conjunctions
  // stripped), window 5, min_count per config.
  std::vector<std::vector<std::string>> sentences;
  std::vector<const sql::Expr*> train_predicates;
  for (size_t idx : train_indices) {
    std::vector<const sql::Expr*> predicates;
    CollectPredicates(*trees[idx].root, &predicates);
    for (const sql::Expr* predicate : predicates) {
      std::vector<std::string> sentence =
          embed::TokenizePredicate(*predicate);
      if (sentence.size() >= 2) sentences.push_back(std::move(sentence));
      train_predicates.push_back(predicate);
    }
  }
  pipeline->word2vec_ = std::make_unique<embed::Word2Vec>(config.word2vec);
  PRESTROID_RETURN_NOT_OK(pipeline->word2vec_->Train(sentences));

  // 4. Predicate encoder with the global OOV fallback.
  pipeline->predicate_encoder_ =
      std::make_unique<embed::PredicateEncoder>(pipeline->word2vec_.get());
  pipeline->predicate_encoder_->FitGlobalFallback(train_predicates);

  // 5. Operator / table vocabularies from the train trees.
  pipeline->encoder_ =
      std::make_unique<otp::OtpEncoder>(pipeline->predicate_encoder_.get());
  std::vector<const otp::OtpTree*> train_trees;
  train_trees.reserve(train_indices.size());
  for (size_t idx : train_indices) train_trees.push_back(&trees[idx]);
  pipeline->encoder_->FitVocabulary(train_trees);

  pipeline->featurizer_ = std::make_unique<Featurizer>(
      pipeline->encoder_.get(), pipeline->predicate_encoder_.get());

  // 6. Featurize all records in parallel. The predicate encoder carries
  // mutable per-query OOV context, so each chunk featurizes through its own
  // encoder clone; results land in index-keyed slots and samples are added
  // serially in record order afterwards.
  std::vector<std::vector<TreeFeatures>> all_trees(records.size());
  std::vector<Status> feat_errors(records.size());
  ctx->ParallelFor(
      0, records.size(), /*grain=*/4, [&](size_t begin, size_t end) {
        embed::PredicateEncoder pred_clone(*pipeline->predicate_encoder_);
        otp::OtpEncoder enc_clone(&pred_clone);
        enc_clone.RestoreVocabulary(pipeline->encoder_->operator_ids(),
                                    pipeline->encoder_->table_ids());
        Featurizer featurizer(&enc_clone, &pred_clone);
        for (size_t i = begin; i < end; ++i) {
          Result<std::vector<TreeFeatures>> trees =
              FeaturizeTrees(featurizer, config, *records[i].plan);
          if (!trees.ok()) {
            feat_errors[i] = trees.status();
            continue;
          }
          all_trees[i] = std::move(trees).value();
        }
      });
  for (const Status& status : feat_errors) {
    PRESTROID_RETURN_NOT_OK(status);
  }

  // 7. The model: a full-tree pipeline's N is its largest record
  // (dataset-wide, the paper's Section 5.4 regime).
  size_t largest_tree = 0;
  for (const std::vector<TreeFeatures>& trees : all_trees) {
    for (const TreeFeatures& tree : trees) {
      largest_tree = std::max(largest_tree, tree.num_nodes());
    }
  }
  pipeline->BuildModel(largest_tree);
  for (size_t i = 0; i < records.size(); ++i) {
    pipeline->model_->AddSample(std::move(all_trees[i]),
                                pipeline->targets_[i]);
  }
  return pipeline;
}

void PrestroidPipeline::BuildModel(size_t full_tree_nodes) {
  SubtreeModelConfig model_config;
  model_config.feature_dim = encoder_->feature_dim();
  model_config.node_limit =
      config_.use_subtrees ? config_.sampler.node_limit : full_tree_nodes;
  model_config.num_subtrees = config_.use_subtrees ? config_.num_subtrees : 1;
  model_config.conv_channels = config_.conv_channels;
  model_config.dense_units = config_.dense_units;
  model_config.dropout = config_.dropout;
  model_config.batch_norm = config_.batch_norm;
  model_config.learning_rate = config_.learning_rate;
  model_config.seed = config_.seed;
  model_config.name = ModelName();
  model_ = std::make_unique<SubtreeModel>(model_config);
  model_->SetExecutionContext(exec_ctx_.get());
}

void PrestroidPipeline::FreezeInferenceWeights() {
  model_->FreezeWeights();
  weights_frozen_ = true;
}

TrainResult PrestroidPipeline::Train(const workload::DatasetSplits& splits,
                                     const TrainConfig& train_config) {
  std::vector<float> val_targets;
  val_targets.reserve(splits.val.size());
  for (size_t idx : splits.val) val_targets.push_back(targets_[idx]);
  return TrainWithEarlyStopping(model(), splits.train, splits.val, val_targets,
                                train_config);
}

std::vector<double> PrestroidPipeline::PredictMinutes(
    const std::vector<size_t>& indices) {
  std::vector<float> norm = model()->Predict(indices);
  std::vector<double> minutes;
  minutes.reserve(norm.size());
  for (float n : norm) minutes.push_back(transform_.Denormalize(n));
  return minutes;
}

double PrestroidPipeline::EvaluateMseMinutes(
    const std::vector<size_t>& indices) {
  std::vector<float> norm = model()->Predict(indices);
  std::vector<double> actual;
  actual.reserve(indices.size());
  for (size_t idx : indices) actual.push_back(cpu_minutes_[idx]);
  return MseMinutes(norm, actual, transform_);
}

Result<double> PrestroidPipeline::PredictPlan(const plan::PlanNode& plan) {
  PRESTROID_ASSIGN_OR_RETURN(PlanFeatures features, FeaturizePlan(plan));
  return PredictFeaturized({&features})[0];
}

Result<PlanFeatures> PrestroidPipeline::FeaturizePlan(
    const plan::PlanNode& plan) {
  PRESTROID_RETURN_NOT_OK(plan::CheckPlanLimits(plan, config_.plan_limits));
  PlanFeatures features;
  PRESTROID_ASSIGN_OR_RETURN(features.trees,
                             FeaturizeTrees(*featurizer_, config_, plan));
  return features;
}

std::vector<double> PrestroidPipeline::PredictFeaturized(
    const std::vector<const PlanFeatures*>& batch) {
  if (batch.empty()) return {};
  // One fused eval-mode forward over the borrowed encodings — no staging
  // copies, no mutation of the model's sample store.
  std::vector<SubtreeModel::Row> rows;
  rows.reserve(batch.size());
  for (const PlanFeatures* features : batch) rows.push_back(&features->trees);
  const std::vector<float> norm = model_->PredictBorrowed(rows);
  std::vector<double> minutes;
  minutes.reserve(norm.size());
  for (float n : norm) minutes.push_back(transform_.Denormalize(n));
  return minutes;
}

std::string PrestroidPipeline::ModelName() const {
  if (!config_.use_subtrees) {
    return StrFormat("Full-%zu", config_.word2vec.dim);
  }
  std::string name =
      StrFormat("Prestroid (%zu-%zu-%zu)", config_.sampler.node_limit,
                config_.num_subtrees, config_.word2vec.dim);
  if (config_.pruning != subtree::PruningStrategy::kAlgorithm1) {
    name += StrFormat(" [%s]", subtree::PruningStrategyToString(config_.pruning));
  }
  return name;
}

size_t PrestroidPipeline::InputBytesPerBatch(size_t batch_size) const {
  return model_->InputBytesPerBatch(batch_size);
}

}  // namespace prestroid::core
