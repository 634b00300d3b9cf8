#include "nn/activations.h"

#include "tensor/ops.h"
#include "util/logging.h"

namespace prestroid {

Tensor& ReluLayer::Forward(const Tensor& input) {
  input_cache_.CopyFrom(input);
  ReluInto(&output_, input, ctx_);
  return output_;
}

Tensor& ReluLayer::Backward(const Tensor& grad_output) {
  PRESTROID_CHECK_EQ(grad_output.size(), input_cache_.size());
  grad_input_.ResetShape(grad_output.shape());
  const float* go = grad_output.data();
  const float* x = input_cache_.data();
  float* gi = grad_input_.data();
  ctx_->ParallelFor(0, grad_output.size(), 4096, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) gi[i] = x[i] <= 0.0f ? 0.0f : go[i];
  });
  return grad_input_;
}

Tensor& SigmoidLayer::Forward(const Tensor& input) {
  SigmoidInto(&output_cache_, input, ctx_);
  return output_cache_;
}

Tensor& SigmoidLayer::Backward(const Tensor& grad_output) {
  PRESTROID_CHECK_EQ(grad_output.size(), output_cache_.size());
  grad_input_.ResetShape(grad_output.shape());
  const float* go = grad_output.data();
  const float* yv = output_cache_.data();
  float* gi = grad_input_.data();
  ctx_->ParallelFor(0, grad_output.size(), 4096, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      const float y = yv[i];
      gi[i] = go[i] * (y * (1.0f - y));
    }
  });
  return grad_input_;
}

}  // namespace prestroid
