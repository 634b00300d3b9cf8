// Finite-difference gradient verification for every trainable layer. This is
// the deepest correctness check of the NN substrate: analytic Backward()
// gradients must match central differences of the forward pass.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "nn/activations.h"
#include "nn/batch_norm.h"
#include "nn/conv1d.h"
#include "nn/dense.h"
#include "nn/loss.h"
#include "nn/tree_conv.h"

namespace prestroid {
namespace {

constexpr float kEps = 1e-3f;
constexpr float kTol = 2e-2f;  // relative tolerance (float32 differences)

/// Compares analytic and numeric gradients elementwise with a mixed
/// absolute/relative criterion.
void ExpectGradClose(float analytic, float numeric, const std::string& what) {
  float scale = std::max({std::abs(analytic), std::abs(numeric), 1.0f});
  EXPECT_NEAR(analytic, numeric, kTol * scale) << what;
}

/// Generic check: loss(x) = sum(seed ⊙ layer.Forward(x)).
/// Verifies dL/dx and dL/dparams via central differences.
void CheckLayerGradients(Layer* layer, Tensor input, Rng* rng) {
  Tensor seed = Tensor::Random(
      [&] {
        Tensor probe = layer->Forward(input);
        return probe.shape();
      }(),
      rng, 0.5f, 1.5f);

  auto loss_fn = [&](const Tensor& x) {
    Tensor out = layer->Forward(x);
    double total = 0.0;
    for (size_t i = 0; i < out.size(); ++i) {
      total += static_cast<double>(seed[i]) * out[i];
    }
    return total;
  };

  // Analytic gradients.
  layer->ZeroGrad();
  layer->Forward(input);
  Tensor grad_input = layer->Backward(seed);

  // Numeric input gradient (subsample for large tensors).
  const size_t stride = std::max<size_t>(1, input.size() / 24);
  for (size_t i = 0; i < input.size(); i += stride) {
    Tensor plus = input, minus = input;
    plus[i] += kEps;
    minus[i] -= kEps;
    float numeric =
        static_cast<float>((loss_fn(plus) - loss_fn(minus)) / (2.0 * kEps));
    ExpectGradClose(grad_input[i], numeric, "input[" + std::to_string(i) + "]");
  }

  // Numeric parameter gradients.
  for (ParamRef& param : layer->Params()) {
    Tensor& value = *param.value;
    Tensor& grad = *param.grad;
    const size_t pstride = std::max<size_t>(1, value.size() / 16);
    for (size_t i = 0; i < value.size(); i += pstride) {
      float original = value[i];
      value[i] = original + kEps;
      double plus = loss_fn(input);
      value[i] = original - kEps;
      double minus = loss_fn(input);
      value[i] = original;
      float numeric = static_cast<float>((plus - minus) / (2.0 * kEps));
      ExpectGradClose(grad[i], numeric,
                      param.name + "[" + std::to_string(i) + "]");
    }
  }
}

TEST(GradientCheck, Dense) {
  Rng rng(100);
  Dense dense(4, 3, &rng);
  CheckLayerGradients(&dense, Tensor::Random({5, 4}, &rng), &rng);
}

TEST(GradientCheck, Relu) {
  Rng rng(101);
  ReluLayer relu;
  // Keep inputs away from the kink at 0.
  Tensor x = Tensor::Random({3, 6}, &rng);
  for (size_t i = 0; i < x.size(); ++i) {
    if (std::abs(x[i]) < 0.05f) x[i] = 0.2f;
  }
  CheckLayerGradients(&relu, x, &rng);
}

TEST(GradientCheck, Sigmoid) {
  Rng rng(102);
  SigmoidLayer sigmoid;
  CheckLayerGradients(&sigmoid, Tensor::Random({4, 4}, &rng, -2, 2), &rng);
}

TEST(GradientCheck, BatchNormTraining) {
  Rng rng(104);
  BatchNorm1d bn(3);
  // Note: batch-norm running stats update on each Forward, but the batch
  // statistics (and therefore the loss) depend only on the input, so the
  // finite-difference probe remains valid.
  CheckLayerGradients(&bn, Tensor::Random({6, 3}, &rng, -1, 1), &rng);
}

TEST(GradientCheck, Conv1d) {
  Rng rng(105);
  Conv1d conv(3, 2, 4, &rng);
  CheckLayerGradients(&conv, Tensor::Random({2, 6, 3}, &rng), &rng);
}

TEST(GradientCheck, TreeConv) {
  Rng rng(106);
  TreeConvLayer conv(3, 4, &rng);
  // Two trees in ragged rows: a 5-node tree (rows 0-4) and a 3-node chain
  // (rows 5-7).
  TreeStructure structure;
  structure.offsets = {0, 5, 8};
  structure.left = {1, 3, -1, -1, -1, 6, 7, -1};
  structure.right = {2, 4, -1, -1, -1, -1, -1, -1};
  structure.mask = {1, 1, 1, 1, 1, 1, 1, 1};
  Tensor input = Tensor::Random({8, 3}, &rng);

  Tensor seed = Tensor::Random({8, 4}, &rng, 0.5f, 1.5f);
  auto loss_fn = [&](const Tensor& x) {
    Tensor out = conv.Forward(x, structure);
    double total = 0.0;
    for (size_t i = 0; i < out.size(); ++i) {
      total += static_cast<double>(seed[i]) * out[i];
    }
    return total;
  };

  for (ParamRef& p : conv.Params()) p.grad->Fill(0.0f);
  conv.Forward(input, structure);
  Tensor grad_input = conv.Backward(seed);

  for (size_t i = 0; i < input.size(); i += 2) {
    Tensor plus = input, minus = input;
    plus[i] += kEps;
    minus[i] -= kEps;
    float numeric =
        static_cast<float>((loss_fn(plus) - loss_fn(minus)) / (2.0 * kEps));
    ExpectGradClose(grad_input[i], numeric, "treeconv input");
  }
  for (ParamRef& param : conv.Params()) {
    Tensor& value = *param.value;
    for (size_t i = 0; i < value.size(); i += 3) {
      float original = value[i];
      value[i] = original + kEps;
      double plus = loss_fn(input);
      value[i] = original - kEps;
      double minus = loss_fn(input);
      value[i] = original;
      float numeric = static_cast<float>((plus - minus) / (2.0 * kEps));
      ExpectGradClose((*param.grad)[i], numeric, "treeconv " + param.name);
    }
  }
}

TEST(GradientCheck, MaskedDynamicPooling) {
  Rng rng(107);
  MaskedDynamicPooling pooling;
  TreeStructure structure;
  structure.offsets = {0, 3};
  structure.left = {-1, -1, -1};
  structure.right = {-1, -1, -1};
  structure.mask = {1, 1, 0};
  Tensor input = Tensor::Random({3, 2}, &rng);
  Tensor seed({1, 2}, {1.0f, 2.0f});

  pooling.Forward(input, structure);
  Tensor grad = pooling.Backward(seed);

  auto loss_fn = [&](const Tensor& x) {
    MaskedDynamicPooling fresh;
    Tensor out = fresh.Forward(x, structure);
    return static_cast<double>(seed[0]) * out[0] +
           static_cast<double>(seed[1]) * out[1];
  };
  for (size_t i = 0; i < input.size(); ++i) {
    Tensor plus = input, minus = input;
    plus[i] += kEps;
    minus[i] -= kEps;
    float numeric =
        static_cast<float>((loss_fn(plus) - loss_fn(minus)) / (2.0 * kEps));
    ExpectGradClose(grad[i], numeric, "pooling input");
  }
}

TEST(GradientCheck, HuberLossGradient) {
  Rng rng(108);
  Tensor pred = Tensor::Random({6}, &rng, -3, 3);
  Tensor target = Tensor::Random({6}, &rng, -1, 1);
  HuberLoss loss(1.0f);
  loss.Compute(pred, target);
  Tensor grad;
  loss.GradientInto(&grad);
  for (size_t i = 0; i < pred.size(); ++i) {
    Tensor plus = pred, minus = pred;
    plus[i] += kEps;
    minus[i] -= kEps;
    HuberLoss l2(1.0f);
    double hi = l2.Compute(plus, target);
    double lo = l2.Compute(minus, target);
    float numeric = static_cast<float>((hi - lo) / (2.0 * kEps));
    ExpectGradClose(grad[i], numeric, "huber");
  }
}

}  // namespace
}  // namespace prestroid
