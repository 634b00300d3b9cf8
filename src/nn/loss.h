#ifndef PRESTROID_NN_LOSS_H_
#define PRESTROID_NN_LOSS_H_

#include "tensor/tensor.h"

namespace prestroid {

/// Huber loss with threshold `delta` (the paper trains every deep model with
/// Huber loss): quadratic within |e| <= delta, linear beyond, averaged over
/// all elements. Compute() returns the scalar batch loss; GradientInto()
/// writes its gradient with respect to the predictions. Both tensors must
/// have identical shapes.
class HuberLoss {
 public:
  explicit HuberLoss(float delta = 1.0f);
  /// Computes and caches the loss for this (pred, target) pair.
  double Compute(const Tensor& pred, const Tensor& target);
  /// Writes dL/d(pred) for the pair given to the last Compute() call into
  /// `grad` (resized as needed; allocation-free once warm).
  void GradientInto(Tensor* grad) const;

 private:
  float delta_;
  Tensor diff_;
};

}  // namespace prestroid

#endif  // PRESTROID_NN_LOSS_H_
