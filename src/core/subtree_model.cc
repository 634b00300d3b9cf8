#include "core/subtree_model.h"

#include <algorithm>
#include <cstring>

#include "util/logging.h"

namespace prestroid::core {

SubtreeModel::SubtreeModel(const SubtreeModelConfig& config)
    : config_(config),
      rng_(config.seed),
      loss_(config.huber_delta) {
  PRESTROID_CHECK_GT(config_.feature_dim, 0u);
  PRESTROID_CHECK_GT(config_.node_limit, 0u);
  PRESTROID_CHECK_GT(config_.num_subtrees, 0u);
  conv_ = std::make_unique<TreeConvStack>(config_.feature_dim,
                                          config_.conv_channels, &rng_);
  PRESTROID_CHECK_GT(config_.output_dim, 0u);
  DenseHeadConfig head_config;
  head_config.input_dim = config_.num_subtrees * conv_->output_dim();
  head_config.hidden = config_.dense_units;
  head_config.dropout = config_.dropout;
  head_config.batch_norm = config_.batch_norm;
  head_config.outputs = config_.output_dim;
  head_ = std::make_unique<DenseHead>(head_config, &rng_);
  optimizer_ = std::make_unique<AdamOptimizer>(config_.learning_rate);
  optimizer_->Register(conv_->Params());
  optimizer_->Register(head_->Params());
}

void SubtreeModel::AddSample(std::vector<TreeFeatures> subtrees,
                             float target) {
  PRESTROID_CHECK_EQ(config_.output_dim, 1u);
  AddSampleMulti(std::move(subtrees), {target});
}

void SubtreeModel::AddSampleMulti(std::vector<TreeFeatures> subtrees,
                                  const std::vector<float>& targets) {
  PRESTROID_CHECK_EQ(targets.size(), config_.output_dim);
  for (const TreeFeatures& tree : subtrees) {
    PRESTROID_CHECK_LE(tree.num_nodes(), config_.node_limit);
    PRESTROID_CHECK_EQ(tree.features.dim(1), config_.feature_dim);
  }
  if (subtrees.size() > config_.num_subtrees) {
    subtrees.resize(config_.num_subtrees);
  }
  samples_.push_back(std::move(subtrees));
  // Flat [num_samples, output_dim] layout.
  for (float target : targets) targets_.push_back(target);
}

void SubtreeModel::SetExecutionContext(ExecutionContext* ctx) {
  ctx_ = ctx;
  conv_->BindContext(ctx);
  pooling_.set_context(ctx);
  head_->BindContext(ctx);
}

std::vector<SubtreeModel::Row> SubtreeModel::RowsOf(
    const std::vector<size_t>& indices) const {
  std::vector<Row> rows;
  rows.reserve(indices.size());
  for (size_t idx : indices) rows.push_back(&samples_[idx]);
  return rows;
}

void SubtreeModel::AssembleBatch(std::span<const Row> rows,
                                 TreeStructure* structure,
                                 Tensor* features_out) const {
  const size_t b = rows.size();
  const size_t k = config_.num_subtrees;
  const size_t f = config_.feature_dim;
  // Only a served full-tree plan larger than every training plan pads past
  // N; stored samples and sampled sub-trees never exceed it.
  size_t n = config_.node_limit;
  for (Row trees : rows) {
    for (size_t s = 0; s < std::min(trees->size(), k); ++s) {
      n = std::max(n, (*trees)[s].num_nodes());
    }
  }

  Tensor& features = *features_out;
  features.ResetShape({b * k, n, f});
  features.Fill(0.0f);  // padding slots must stay zero
  structure->left.assign(b * k, std::vector<int>(n, -1));
  structure->right.assign(b * k, std::vector<int>(n, -1));
  structure->mask.assign(b * k, std::vector<float>(n, 0.0f));

  for (size_t i = 0; i < b; ++i) {
    const std::vector<TreeFeatures>& trees = *rows[i];
    for (size_t s = 0; s < std::min(trees.size(), k); ++s) {
      const TreeFeatures& tree = trees[s];
      PRESTROID_CHECK_EQ(tree.features.dim(1), f);
      const size_t slot = i * k + s;
      const size_t count = tree.num_nodes();
      std::memcpy(features.data() + slot * n * f, tree.features.data(),
                  sizeof(float) * count * f);
      for (size_t node = 0; node < count; ++node) {
        structure->left[slot][node] = tree.left[node];
        structure->right[slot][node] = tree.right[node];
        structure->mask[slot][node] = tree.votes[node];
      }
    }
    // Missing trees (fewer than K) keep all-zero masks: they pool to the
    // zero vector, exactly like a fully 0-padded slot.
  }
}

Tensor SubtreeModel::Evaluate(const std::vector<Row>& rows) {
  head_->SetTraining(false);
  const size_t out_dim = config_.output_dim;
  Tensor out({rows.size(), out_dim});
  constexpr size_t kEvalBatch = 64;
  for (size_t start = 0; start < rows.size(); start += kEvalBatch) {
    const size_t end = std::min(rows.size(), start + kEvalBatch);
    TreeStructure structure;
    AssembleBatch(std::span<const Row>(rows).subspan(start, end - start),
                  &structure, &features_ws_);
    const Tensor& pred = ForwardBatch(features_ws_, structure);
    for (size_t i = 0; i < end - start; ++i) {
      for (size_t j = 0; j < out_dim; ++j) {
        out.At(start + i, j) = pred.At(i, j);
      }
    }
  }
  head_->SetTraining(true);
  return out;
}

std::vector<float> SubtreeModel::PredictBorrowed(
    const std::vector<Row>& samples) {
  Tensor multi = Evaluate(samples);
  std::vector<float> out;
  out.reserve(samples.size());
  // CostModel convention: the first objective (total CPU time).
  for (size_t i = 0; i < samples.size(); ++i) out.push_back(multi.At(i, 0));
  return out;
}

const Tensor& SubtreeModel::ForwardBatch(const Tensor& features,
                                         const TreeStructure& structure) {
  const size_t bk = features.dim(0);
  const size_t b = bk / config_.num_subtrees;
  const Tensor& conv_out = conv_->Forward(features, structure);
  Tensor& pooled = pooling_.Forward(conv_out, structure);  // [B*K, C]
  // Row-major [B*K, C] is bitwise identical to [B, K*C]: flattening across
  // sub-trees is a pure relabeling of the pooling workspace.
  pooled.ReshapeInPlace({b, config_.num_subtrees * conv_->output_dim()});
  return head_->Forward(pooled);
}

double SubtreeModel::TrainEpoch(const std::vector<size_t>& indices,
                                size_t batch_size) {
  PRESTROID_CHECK_GT(batch_size, 0u);
  head_->SetTraining(true);
  const std::vector<Row> rows = RowsOf(indices);
  double total_loss = 0.0;
  size_t num_batches = 0;
  for (size_t start = 0; start < indices.size(); start += batch_size) {
    const size_t size = std::min(indices.size() - start, batch_size);
    TreeStructure structure;
    AssembleBatch(std::span<const Row>(rows).subspan(start, size), &structure,
                  &features_ws_);
    const Tensor& pred = ForwardBatch(features_ws_, structure);

    const size_t out = config_.output_dim;
    target_ws_.ResetShape({size, out});
    for (size_t i = 0; i < size; ++i) {
      for (size_t j = 0; j < out; ++j) {
        target_ws_[i * out + j] = targets_[indices[start + i] * out + j];
      }
    }

    optimizer_->ZeroGrad();
    total_loss += loss_.Compute(pred, target_ws_);
    ++num_batches;

    loss_.GradientInto(&grad_ws_);
    const Tensor& grad_head = head_->Backward(grad_ws_);  // [B, K*C]
    grad_pooled_ws_.CopyFrom(grad_head);
    grad_pooled_ws_.ReshapeInPlace(
        {size * config_.num_subtrees, conv_->output_dim()});
    const Tensor& grad_conv = pooling_.Backward(grad_pooled_ws_);
    conv_->Backward(grad_conv);
    optimizer_->Step();
  }
  return num_batches == 0 ? 0.0 : total_loss / static_cast<double>(num_batches);
}

Tensor SubtreeModel::PredictMulti(const std::vector<size_t>& indices) {
  return Evaluate(RowsOf(indices));
}

std::vector<float> SubtreeModel::Predict(const std::vector<size_t>& indices) {
  return PredictBorrowed(RowsOf(indices));
}

size_t SubtreeModel::NumParameters() const {
  return conv_->NumParameters() + head_->NumParameters();
}

size_t SubtreeModel::InputBytesPerBatch(size_t batch_size) const {
  return batch_size * config_.num_subtrees * config_.node_limit *
         config_.feature_dim * sizeof(float);
}

}  // namespace prestroid::core
