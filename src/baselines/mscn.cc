#include "baselines/mscn.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>

#include "embed/predicate_tokenizer.h"
#include "plan/planner.h"
#include "util/logging.h"

namespace prestroid::baselines {

namespace {

/// Operator vocabulary of predicate elements (fixed).
const std::vector<std::string>& OpVocab() {
  static const std::vector<std::string>* kOps = new std::vector<std::string>{
      "=", "<>", "<", "<=", ">", ">=", "IN", "BETWEEN", "LIKE", "IS_NULL"};
  return *kOps;
}

int OpIndex(const std::string& op) {
  const auto& vocab = OpVocab();
  for (size_t i = 0; i < vocab.size(); ++i) {
    if (vocab[i] == op) return static_cast<int>(i);
  }
  return -1;
}

/// One atomic predicate, flattened for featurization.
struct AtomicPred {
  std::string column;
  std::string op;
  double value = 0.0;
  bool has_value = false;
};

void CollectAtomicPreds(sql::ExprRef expr, std::vector<AtomicPred>* out) {
  if (!embed::IsAtomicClause(expr)) {
    for (sql::ExprRef child : expr.children()) CollectAtomicPreds(child, out);
    return;
  }
  AtomicPred pred;
  // First column reference names the predicate's column.
  std::vector<std::pair<std::string, std::string>> refs;
  std::function<void(sql::ExprRef)> walk = [&](sql::ExprRef node) {
    if (node.kind() == sql::ExprKind::kColumn && node.name() != "*") {
      refs.emplace_back(node.table(), node.name());
    }
    for (sql::ExprRef child : node.children()) walk(child);
  };
  walk(expr);
  if (refs.empty()) return;
  pred.column = refs[0].second;
  switch (expr.kind()) {
    case sql::ExprKind::kCompare:
      pred.op = expr.op();
      break;
    case sql::ExprKind::kIn:
      pred.op = "IN";
      break;
    case sql::ExprKind::kBetween:
      pred.op = "BETWEEN";
      break;
    case sql::ExprKind::kLike:
      pred.op = "LIKE";
      break;
    case sql::ExprKind::kIsNull:
      pred.op = "IS_NULL";
      break;
    default:
      pred.op = "=";
      break;
  }
  // First numeric literal (if any) becomes the normalized value feature.
  std::function<std::optional<double>(sql::ExprRef)> find_num =
      [&](sql::ExprRef node) -> std::optional<double> {
    if (node.kind() == sql::ExprKind::kNumberLit) return node.number();
    for (sql::ExprRef child : node.children()) {
      const std::optional<double> hit = find_num(child);
      if (hit.has_value()) return hit;
    }
    return std::nullopt;
  };
  const std::optional<double> lit = find_num(expr);
  if (lit.has_value()) {
    pred.value = *lit;
    pred.has_value = true;
  }
  out->push_back(std::move(pred));
}

/// Walks a plan collecting scan tables, join-condition column pairs, and
/// filter predicates. Explicit-stack: plan depth is bounded only by the
/// ingestion limits, not the thread stack.
void WalkPlan(const plan::PlanNode& root, std::vector<std::string>* tables,
              std::vector<std::pair<std::string, std::string>>* joins,
              std::vector<AtomicPred>* preds) {
  std::vector<const plan::PlanNode*> stack = {&root};
  while (!stack.empty()) {
    const plan::PlanNode& node = *stack.back();
    stack.pop_back();
    if (node.type == plan::PlanNodeType::kTableScan) {
      tables->push_back(node.table);
    } else if (node.type == plan::PlanNodeType::kJoin &&
               node.predicate != nullptr) {
      std::vector<std::pair<std::string, std::string>> refs;
      plan::CollectColumnRefs(*node.predicate, &refs);
      std::string left = refs.empty() ? "" : refs[0].second;
      std::string right = refs.size() > 1 ? refs[1].second : left;
      joins->emplace_back(left, right);
    } else if (node.type == plan::PlanNodeType::kFilter) {
      CollectAtomicPreds(*node.predicate, preds);
    }
    for (auto it = node.children.rbegin(); it != node.children.rend(); ++it) {
      stack.push_back(it->get());
    }
  }
}

}  // namespace

/// Shared per-set 2-layer MLP with mean pooling over set members.
struct MscnModel::SetBranch {
  SetBranch(size_t in_dim, size_t hidden, Rng* rng)
      : fc1(in_dim, hidden, rng), fc2(hidden, hidden, rng) {}

  Dense fc1;
  ReluLayer relu1;
  Dense fc2;
  ReluLayer relu2;
  // Caches for pooling backward.
  std::vector<size_t> offsets;  // per record: start in the packed matrix
  std::vector<size_t> counts;
  size_t packed_rows = 0;

  /// Packs `sets` for the batch, runs the shared MLP, mean-pools per record.
  Tensor Forward(const std::vector<std::vector<std::vector<float>>>& sets,
                 const std::vector<size_t>& batch, size_t element_dim) {
    offsets.clear();
    counts.clear();
    size_t total = 0;
    for (size_t idx : batch) {
      offsets.push_back(total);
      counts.push_back(sets[idx].size());
      total += sets[idx].size();
    }
    packed_rows = std::max<size_t>(total, 1);
    Tensor packed({packed_rows, element_dim});
    size_t row = 0;
    for (size_t idx : batch) {
      for (const std::vector<float>& element : sets[idx]) {
        std::copy(element.begin(), element.end(),
                  packed.data() + row * element_dim);
        ++row;
      }
    }
    const Tensor& hidden =
        relu2.Forward(fc2.Forward(relu1.Forward(fc1.Forward(packed))));
    const size_t h = hidden.dim(1);
    Tensor pooled({batch.size(), h});
    for (size_t i = 0; i < batch.size(); ++i) {
      if (counts[i] == 0) continue;  // empty set pools to zero
      const float inv = 1.0f / static_cast<float>(counts[i]);
      for (size_t e = 0; e < counts[i]; ++e) {
        const float* src = hidden.data() + (offsets[i] + e) * h;
        float* dst = pooled.data() + i * h;
        for (size_t j = 0; j < h; ++j) dst[j] += src[j] * inv;
      }
    }
    return pooled;
  }

  void Backward(const Tensor& grad_pooled) {
    const size_t h = grad_pooled.dim(1);
    Tensor grad_hidden({packed_rows, h});
    for (size_t i = 0; i < counts.size(); ++i) {
      if (counts[i] == 0) continue;
      const float inv = 1.0f / static_cast<float>(counts[i]);
      for (size_t e = 0; e < counts[i]; ++e) {
        float* dst = grad_hidden.data() + (offsets[i] + e) * h;
        const float* src = grad_pooled.data() + i * h;
        for (size_t j = 0; j < h; ++j) dst[j] = src[j] * inv;
      }
    }
    fc1.Backward(relu1.Backward(fc2.Backward(relu2.Backward(grad_hidden))));
  }

  std::vector<ParamRef> Params() {
    std::vector<ParamRef> params = fc1.Params();
    for (ParamRef& p : fc2.Params()) params.push_back(p);
    return params;
  }

  void BindContext(ExecutionContext* ctx) {
    fc1.set_context(ctx);
    relu1.set_context(ctx);
    fc2.set_context(ctx);
    relu2.set_context(ctx);
  }
};

MscnModel::MscnModel(const MscnConfig& config)
    : config_(config), rng_(config.seed), loss_(config.huber_delta) {}

MscnModel::~MscnModel() = default;

Status MscnModel::Fit(const std::vector<workload::QueryRecord>& records,
                      const std::vector<size_t>& train_indices,
                      const std::vector<float>& targets) {
  if (records.empty() || records.size() != targets.size()) {
    return Status::InvalidArgument("records/targets mismatch or empty");
  }
  // Vocabularies and value ranges from the train partition.
  for (size_t idx : train_indices) {
    std::vector<std::string> tables;
    std::vector<std::pair<std::string, std::string>> joins;
    std::vector<AtomicPred> preds;
    WalkPlan(*records[idx].plan, &tables, &joins, &preds);
    for (const std::string& table : tables) {
      table_ids_.emplace(table, table_ids_.size());
    }
    for (const auto& [l, r] : joins) {
      column_ids_.emplace(l, column_ids_.size());
      column_ids_.emplace(r, column_ids_.size());
    }
    for (const AtomicPred& pred : preds) {
      column_ids_.emplace(pred.column, column_ids_.size());
      if (pred.has_value) {
        auto [it, inserted] = column_ranges_.emplace(
            pred.column, std::make_pair(pred.value, pred.value));
        if (!inserted) {
          it->second.first = std::min(it->second.first, pred.value);
          it->second.second = std::max(it->second.second, pred.value);
        }
      }
    }
  }
  table_dim_ = table_ids_.size() + 1;
  join_dim_ = 2 * (column_ids_.size() + 1);
  pred_dim_ = (column_ids_.size() + 1) + OpVocab().size() + 1;

  auto table_onehot = [this](const std::string& table) {
    std::vector<float> v(table_dim_, 0.0f);
    auto it = table_ids_.find(table);
    v[it == table_ids_.end() ? table_dim_ - 1 : it->second] = 1.0f;
    return v;
  };
  auto column_slot = [this](const std::string& column) {
    auto it = column_ids_.find(column);
    return it == column_ids_.end() ? column_ids_.size() : it->second;
  };

  // Featurize every record.
  const size_t n = records.size();
  table_sets_.resize(n);
  join_sets_.resize(n);
  pred_sets_.resize(n);
  targets_ = targets;
  for (size_t i = 0; i < n; ++i) {
    std::vector<std::string> tables;
    std::vector<std::pair<std::string, std::string>> joins;
    std::vector<AtomicPred> preds;
    WalkPlan(*records[i].plan, &tables, &joins, &preds);
    for (const std::string& table : tables) {
      table_sets_[i].push_back(table_onehot(table));
    }
    for (const auto& [l, r] : joins) {
      std::vector<float> v(join_dim_, 0.0f);
      v[column_slot(l)] = 1.0f;
      v[(column_ids_.size() + 1) + column_slot(r)] = 1.0f;
      join_sets_[i].push_back(std::move(v));
    }
    for (const AtomicPred& pred : preds) {
      std::vector<float> v(pred_dim_, 0.0f);
      v[column_slot(pred.column)] = 1.0f;
      int op = OpIndex(pred.op);
      size_t op_base = column_ids_.size() + 1;
      v[op_base + static_cast<size_t>(std::max(op, 0))] = 1.0f;
      if (pred.has_value) {
        auto it = column_ranges_.find(pred.column);
        double norm = 0.5;
        if (it != column_ranges_.end() &&
            it->second.second > it->second.first) {
          norm = (pred.value - it->second.first) /
                 (it->second.second - it->second.first);
        }
        v[pred_dim_ - 1] = static_cast<float>(std::clamp(norm, 0.0, 1.0));
      }
      pred_sets_[i].push_back(std::move(v));
    }
    max_table_set_ = std::max(max_table_set_, table_sets_[i].size());
    max_join_set_ = std::max(max_join_set_, join_sets_[i].size());
    max_pred_set_ = std::max(max_pred_set_, pred_sets_[i].size());
  }

  // Network.
  const size_t h = config_.hidden_units;
  table_branch_ = std::make_unique<SetBranch>(table_dim_, h, &rng_);
  join_branch_ = std::make_unique<SetBranch>(join_dim_, h, &rng_);
  pred_branch_ = std::make_unique<SetBranch>(pred_dim_, h, &rng_);
  out1_ = std::make_unique<Dense>(3 * h, h, &rng_);
  out1_relu_ = std::make_unique<ReluLayer>();
  out_dropout_ = std::make_unique<Dropout>(config_.dropout, &rng_);
  out2_ = std::make_unique<Dense>(h, 1, &rng_);
  out_sigmoid_ = std::make_unique<SigmoidLayer>();
  optimizer_ = std::make_unique<AdamOptimizer>(config_.learning_rate);
  optimizer_->Register(table_branch_->Params());
  optimizer_->Register(join_branch_->Params());
  optimizer_->Register(pred_branch_->Params());
  optimizer_->Register(out1_->Params());
  optimizer_->Register(out2_->Params());
  // Re-bind a context installed before Fit() built the layers.
  if (ctx_ != nullptr) SetExecutionContext(ctx_);
  fitted_ = true;
  return Status::OK();
}

void MscnModel::SetExecutionContext(ExecutionContext* ctx) {
  ctx_ = ctx;
  if (table_branch_ != nullptr) table_branch_->BindContext(ctx);
  if (join_branch_ != nullptr) join_branch_->BindContext(ctx);
  if (pred_branch_ != nullptr) pred_branch_->BindContext(ctx);
  if (out1_ != nullptr) out1_->set_context(ctx);
  if (out1_relu_ != nullptr) out1_relu_->set_context(ctx);
  if (out_dropout_ != nullptr) out_dropout_->set_context(ctx);
  if (out2_ != nullptr) out2_->set_context(ctx);
  if (out_sigmoid_ != nullptr) out_sigmoid_->set_context(ctx);
}

const Tensor& MscnModel::ForwardBatch(const std::vector<size_t>& batch) {
  Tensor t_pool = table_branch_->Forward(table_sets_, batch, table_dim_);
  Tensor j_pool = join_branch_->Forward(join_sets_, batch, join_dim_);
  Tensor p_pool = pred_branch_->Forward(pred_sets_, batch, pred_dim_);
  const size_t h = config_.hidden_units;
  concat_ws_.ResetShape({batch.size(), 3 * h});
  Tensor& concat = concat_ws_;
  for (size_t i = 0; i < batch.size(); ++i) {
    float* dst = concat.data() + i * 3 * h;
    std::copy(t_pool.data() + i * h, t_pool.data() + (i + 1) * h, dst);
    std::copy(j_pool.data() + i * h, j_pool.data() + (i + 1) * h, dst + h);
    std::copy(p_pool.data() + i * h, p_pool.data() + (i + 1) * h, dst + 2 * h);
  }
  return out_sigmoid_->Forward(out2_->Forward(
      out_dropout_->Forward(out1_relu_->Forward(out1_->Forward(concat)))));
}

void MscnModel::BackwardBatch(const Tensor& grad_output) {
  const Tensor& grad = out1_->Backward(out1_relu_->Backward(
      out_dropout_->Backward(out2_->Backward(out_sigmoid_->Backward(grad_output)))));
  const size_t h = config_.hidden_units;
  const size_t b = grad.dim(0);
  Tensor gt({b, h}), gj({b, h}), gp({b, h});
  for (size_t i = 0; i < b; ++i) {
    const float* src = grad.data() + i * 3 * h;
    std::copy(src, src + h, gt.data() + i * h);
    std::copy(src + h, src + 2 * h, gj.data() + i * h);
    std::copy(src + 2 * h, src + 3 * h, gp.data() + i * h);
  }
  table_branch_->Backward(gt);
  join_branch_->Backward(gj);
  pred_branch_->Backward(gp);
}

double MscnModel::TrainEpoch(const std::vector<size_t>& indices,
                             size_t batch_size) {
  PRESTROID_CHECK(fitted_);
  out_dropout_->SetTraining(true);
  double total_loss = 0.0;
  size_t num_batches = 0;
  for (size_t start = 0; start < indices.size(); start += batch_size) {
    const size_t end = std::min(indices.size(), start + batch_size);
    std::vector<size_t> batch(indices.begin() + static_cast<long>(start),
                              indices.begin() + static_cast<long>(end));
    const Tensor& pred = ForwardBatch(batch);
    target_ws_.ResetShape({batch.size(), 1});
    for (size_t i = 0; i < batch.size(); ++i) {
      target_ws_[i] = targets_[batch[i]];
    }
    optimizer_->ZeroGrad();
    total_loss += loss_.Compute(pred, target_ws_);
    ++num_batches;
    loss_.GradientInto(&grad_ws_);
    BackwardBatch(grad_ws_);
    optimizer_->Step();
  }
  return num_batches == 0 ? 0.0 : total_loss / static_cast<double>(num_batches);
}

std::vector<float> MscnModel::Predict(const std::vector<size_t>& indices) {
  PRESTROID_CHECK(fitted_);
  out_dropout_->SetTraining(false);
  std::vector<float> out;
  out.reserve(indices.size());
  constexpr size_t kEvalBatch = 128;
  for (size_t start = 0; start < indices.size(); start += kEvalBatch) {
    const size_t end = std::min(indices.size(), start + kEvalBatch);
    std::vector<size_t> batch(indices.begin() + static_cast<long>(start),
                              indices.begin() + static_cast<long>(end));
    const Tensor& pred = ForwardBatch(batch);
    for (size_t i = 0; i < batch.size(); ++i) out.push_back(pred[i]);
  }
  out_dropout_->SetTraining(true);
  return out;
}

size_t MscnModel::NumParameters() const {
  size_t total = 0;
  auto add = [&total](std::vector<ParamRef> params) {
    for (ParamRef& p : params) total += p.value->size();
  };
  add(table_branch_->Params());
  add(join_branch_->Params());
  add(pred_branch_->Params());
  add(out1_->Params());
  add(out2_->Params());
  return total;
}

size_t MscnModel::InputBytesPerBatch(size_t batch_size) const {
  // Padded-batch regime: every record padded to the dataset-max set sizes.
  return batch_size *
         (max_table_set_ * table_dim_ + max_join_set_ * join_dim_ +
          max_pred_set_ * pred_dim_) *
         sizeof(float);
}

}  // namespace prestroid::baselines
