#include "core/pipeline.h"

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

std::vector<FreezableLayer*> FreezableLayersOf(CostModel* model) {
  std::vector<FreezableLayer*> layers;
  model->CollectFreezableLayers(&layers);
  return layers;
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

  // 6. Model construction + featurization of every record.
  const size_t feature_dim = pipeline->encoder_->feature_dim();
  if (config.use_subtrees) {
    SubtreeModelConfig model_config;
    model_config.feature_dim = feature_dim;
    model_config.node_limit = config.sampler.node_limit;
    model_config.num_subtrees = config.num_subtrees;
    model_config.conv_channels = config.conv_channels;
    model_config.dense_units = config.dense_units;
    model_config.dropout = config.dropout;
    model_config.batch_norm = config.batch_norm;
    model_config.learning_rate = config.learning_rate;
    model_config.seed = config.seed;
    model_config.name =
        StrFormat("Prestroid (%zu-%zu-%zu)", config.sampler.node_limit,
                  config.num_subtrees, config.word2vec.dim);
    if (config.pruning != subtree::PruningStrategy::kAlgorithm1) {
      model_config.name +=
          StrFormat(" [%s]", subtree::PruningStrategyToString(config.pruning));
    }
    pipeline->subtree_model_ = std::make_unique<SubtreeModel>(model_config);
    // Featurize all records in parallel. The predicate encoder carries
    // mutable per-query OOV context, so each chunk featurizes through its
    // own encoder clone; results land in index-keyed slots and samples are
    // added serially in record order afterwards.
    std::vector<std::vector<TreeFeatures>> all_subtrees(records.size());
    std::vector<Status> feat_errors(records.size());
    ctx->ParallelFor(
        0, records.size(), /*grain=*/4, [&](size_t begin, size_t end) {
          embed::PredicateEncoder pred_clone(*pipeline->predicate_encoder_);
          otp::OtpEncoder enc_clone(&pred_clone);
          enc_clone.RestoreVocabulary(pipeline->encoder_->operator_ids(),
                                      pipeline->encoder_->table_ids());
          Featurizer featurizer(&enc_clone, &pred_clone);
          for (size_t i = begin; i < end; ++i) {
            Result<std::vector<TreeFeatures>> subtrees =
                featurizer.FeaturizeSubtrees(*records[i].plan, config.sampler,
                                             config.num_subtrees,
                                             config.pruning);
            if (!subtrees.ok()) {
              feat_errors[i] = subtrees.status();
              continue;
            }
            all_subtrees[i] = std::move(subtrees).value();
          }
        });
    for (const Status& status : feat_errors) {
      PRESTROID_RETURN_NOT_OK(status);
    }
    for (size_t i = 0; i < records.size(); ++i) {
      pipeline->subtree_model_->AddSample(std::move(all_subtrees[i]),
                                          pipeline->targets_[i]);
    }
  } else {
    FullTreeModelConfig model_config;
    model_config.feature_dim = feature_dim;
    model_config.conv_channels = config.conv_channels;
    model_config.dense_units = config.dense_units;
    model_config.dropout = config.dropout;
    model_config.batch_norm = config.batch_norm;
    model_config.learning_rate = config.learning_rate;
    model_config.seed = config.seed;
    model_config.name = StrFormat("Full-%zu", config.word2vec.dim);
    pipeline->full_model_ = std::make_unique<FullTreeModel>(model_config);
    std::vector<TreeFeatures> all_features(records.size());
    std::vector<Status> feat_errors(records.size());
    ctx->ParallelFor(
        0, records.size(), /*grain=*/4, [&](size_t begin, size_t end) {
          embed::PredicateEncoder pred_clone(*pipeline->predicate_encoder_);
          otp::OtpEncoder enc_clone(&pred_clone);
          enc_clone.RestoreVocabulary(pipeline->encoder_->operator_ids(),
                                      pipeline->encoder_->table_ids());
          Featurizer featurizer(&enc_clone, &pred_clone);
          for (size_t i = begin; i < end; ++i) {
            Result<TreeFeatures> features =
                featurizer.FeaturizeFullPlan(*records[i].plan);
            if (!features.ok()) {
              feat_errors[i] = features.status();
              continue;
            }
            all_features[i] = std::move(features).value();
          }
        });
    for (const Status& status : feat_errors) {
      PRESTROID_RETURN_NOT_OK(status);
    }
    for (size_t i = 0; i < records.size(); ++i) {
      pipeline->full_model_->AddSample(std::move(all_features[i]),
                                       pipeline->targets_[i]);
    }
    pipeline->full_model_->Finalize();
  }
  pipeline->model()->SetExecutionContext(ctx);
  return pipeline;
}

CostModel* PrestroidPipeline::model() {
  return config_.use_subtrees ? static_cast<CostModel*>(subtree_model_.get())
                              : static_cast<CostModel*>(full_model_.get());
}

void PrestroidPipeline::FreezeInferenceWeights() {
  for (FreezableLayer* layer : FreezableLayersOf(model())) {
    layer->FreezeWeights();
  }
}

void PrestroidPipeline::ThawInferenceWeights() {
  for (FreezableLayer* layer : FreezableLayersOf(model())) layer->ThawWeights();
}

size_t PrestroidPipeline::ResidentWeightBytes() {
  size_t total = 0;
  for (FreezableLayer* layer : FreezableLayersOf(model())) {
    total += layer->resident_weight_bytes();
  }
  return total;
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
  if (config_.use_subtrees) {
    PRESTROID_ASSIGN_OR_RETURN(
        features.trees,
        featurizer_->FeaturizeSubtrees(plan, config_.sampler,
                                       config_.num_subtrees, config_.pruning));
  } else {
    PRESTROID_ASSIGN_OR_RETURN(TreeFeatures tree,
                               featurizer_->FeaturizeFullPlan(plan));
    features.trees.push_back(std::move(tree));
  }
  return features;
}

std::vector<double> PrestroidPipeline::PredictFeaturized(
    const std::vector<const PlanFeatures*>& batch) {
  if (batch.empty()) return {};
  // One fused eval-mode forward over the borrowed encodings — no staging
  // copies, no mutation of the model's sample store.
  std::vector<float> norm;
  if (config_.use_subtrees) {
    std::vector<const std::vector<TreeFeatures>*> samples;
    samples.reserve(batch.size());
    for (const PlanFeatures* features : batch) samples.push_back(&features->trees);
    norm = subtree_model_->PredictBorrowed(samples);
  } else {
    std::vector<const TreeFeatures*> samples;
    samples.reserve(batch.size());
    for (const PlanFeatures* features : batch) {
      samples.push_back(&features->trees.front());
    }
    norm = full_model_->PredictBorrowed(samples);
  }
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
  return config_.use_subtrees
             ? subtree_model_->InputBytesPerBatch(batch_size)
             : full_model_->InputBytesPerBatch(batch_size);
}

}  // namespace prestroid::core
