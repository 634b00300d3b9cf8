#ifndef PRESTROID_NN_ACTIVATIONS_H_
#define PRESTROID_NN_ACTIVATIONS_H_

#include "nn/layer.h"

namespace prestroid {

/// Elementwise max(0, x).
class ReluLayer : public Layer {
 public:
  Tensor& Forward(const Tensor& input) override;
  Tensor& Backward(const Tensor& grad_output) override;

 private:
  Tensor input_cache_;
  Tensor output_;
  Tensor grad_input_;
};

/// Elementwise logistic sigmoid. The paper uses a single sigmoid output unit
/// because labels are min-max normalized into [0, 1].
class SigmoidLayer : public Layer {
 public:
  Tensor& Forward(const Tensor& input) override;
  Tensor& Backward(const Tensor& grad_output) override;

 private:
  Tensor output_cache_;
  Tensor grad_input_;
};

}  // namespace prestroid

#endif  // PRESTROID_NN_ACTIVATIONS_H_
