#include "baselines/svr.h"

#include <algorithm>
#include <cmath>

#include "plan/plan_stats.h"
#include "util/logging.h"
#include "util/random.h"

namespace prestroid::baselines {

Svr::Svr(const SvrConfig& config) : config_(config) {}

Status Svr::Fit(const Tensor& features, const std::vector<float>& targets) {
  if (features.rank() != 2 || features.dim(0) != targets.size() ||
      targets.empty()) {
    return Status::InvalidArgument("features/targets shape mismatch or empty");
  }
  const size_t n = features.dim(0);
  dim_ = features.dim(1);
  train_features_ = features;
  beta_.assign(n, 0.0);
  bias_ = 0.0;

  // Precompute the Gram matrix (n is a few thousand at most here).
  std::vector<double> gram(n * n);
  for (size_t i = 0; i < n; ++i) {
    const float* xi = features.data() + i * dim_;
    for (size_t j = i; j < n; ++j) {
      const float* xj = features.data() + j * dim_;
      double k = KernelFunction(config_.kernel, xi, xj, dim_);
      gram[i * n + j] = k;
      gram[j * n + i] = k;
    }
  }

  // Cached predictions f(x_i) = sum_j beta_j K_ij + b, updated incrementally.
  std::vector<double> f(n, 0.0);
  Rng rng(config_.seed);
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;

  const double lr = config_.learning_rate;
  for (size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.Shuffle(&order);
    for (size_t i : order) {
      const double err = f[i] - targets[i];
      double sub = 0.0;  // subgradient of the epsilon-insensitive loss
      if (err > config_.epsilon) {
        sub = 1.0;
      } else if (err < -config_.epsilon) {
        sub = -1.0;
      }
      // L2 regularization in function space: shrink beta_i towards 0.
      const double delta =
          -lr * (config_.c * sub + beta_[i] / static_cast<double>(n));
      const double bias_delta = -lr * config_.c * sub * 0.1;
      if (delta == 0.0 && bias_delta == 0.0) continue;
      beta_[i] += delta;
      bias_ += bias_delta;
      const double* grow = gram.data() + i * n;
      for (size_t j = 0; j < n; ++j) f[j] += delta * grow[j] + bias_delta;
    }
  }
  return Status::OK();
}

float Svr::Predict(const float* x) const {
  PRESTROID_CHECK_GT(dim_, 0u);
  double out = bias_;
  const size_t n = beta_.size();
  for (size_t i = 0; i < n; ++i) {
    if (beta_[i] == 0.0) continue;
    out += beta_[i] *
           KernelFunction(config_.kernel, train_features_.data() + i * dim_, x,
                          dim_);
  }
  return static_cast<float>(out);
}

std::vector<float> Svr::PredictAll(const Tensor& features) const {
  PRESTROID_CHECK_EQ(features.dim(1), dim_);
  std::vector<float> out;
  out.reserve(features.dim(0));
  for (size_t i = 0; i < features.dim(0); ++i) {
    out.push_back(Predict(features.data() + i * dim_));
  }
  return out;
}

size_t Svr::num_support() const {
  size_t count = 0;
  for (double b : beta_) {
    if (std::abs(b) > 1e-9) ++count;
  }
  return count;
}

std::vector<float> SvrPlanFeatures(const plan::PlanNode& plan,
                                   const std::string& sql) {
  plan::PlanStats stats = plan::ComputePlanStats(plan);
  auto type_count = [&stats](plan::PlanNodeType type) {
    return static_cast<float>(stats.count(type));
  };
  std::vector<float> features = {
      std::log1p(static_cast<float>(stats.node_count)),
      std::log1p(static_cast<float>(stats.max_depth)),
      std::log1p(static_cast<float>(stats.num_joins)),
      std::log1p(static_cast<float>(stats.num_predicates)),
      std::log1p(type_count(plan::PlanNodeType::kTableScan)),
      std::log1p(type_count(plan::PlanNodeType::kFilter)),
      std::log1p(type_count(plan::PlanNodeType::kProject)),
      std::log1p(type_count(plan::PlanNodeType::kJoin)),
      std::log1p(type_count(plan::PlanNodeType::kAggregate)),
      std::log1p(type_count(plan::PlanNodeType::kSort)),
      std::log1p(type_count(plan::PlanNodeType::kLimit)),
      std::log1p(type_count(plan::PlanNodeType::kExchange)),
      std::log1p(type_count(plan::PlanNodeType::kDistinct)),
      // Direct query-parsing features (Ganapathi-style).
      std::log1p(static_cast<float>(sql.size())),
      std::log1p(static_cast<float>(std::count(sql.begin(), sql.end(), '('))),
      std::log1p(static_cast<float>(std::count(sql.begin(), sql.end(), ','))),
  };
  return features;
}

Tensor StackFeatures(const std::vector<std::vector<float>>& rows) {
  PRESTROID_CHECK(!rows.empty());
  const size_t d = rows[0].size();
  Tensor out({rows.size(), d});
  for (size_t i = 0; i < rows.size(); ++i) {
    PRESTROID_CHECK_EQ(rows[i].size(), d);
    for (size_t j = 0; j < d; ++j) out.At(i, j) = rows[i][j];
  }
  return out;
}

}  // namespace prestroid::baselines
