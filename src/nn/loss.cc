#include "nn/loss.h"

#include <cmath>

#include "util/logging.h"

namespace prestroid {

HuberLoss::HuberLoss(float delta) : delta_(delta) {
  PRESTROID_CHECK_GT(delta, 0.0f);
}

double HuberLoss::Compute(const Tensor& pred, const Tensor& target) {
  PRESTROID_CHECK_EQ(pred.size(), target.size());
  PRESTROID_CHECK_GT(pred.size(), 0u);
  diff_ = pred;
  diff_ -= target;
  double total = 0.0;
  for (size_t i = 0; i < diff_.size(); ++i) {
    float e = std::abs(diff_[i]);
    if (e <= delta_) {
      total += 0.5 * static_cast<double>(e) * e;
    } else {
      total += static_cast<double>(delta_) * (e - 0.5 * delta_);
    }
  }
  return total / static_cast<double>(diff_.size());
}

void HuberLoss::GradientInto(Tensor* grad) const {
  grad->CopyFrom(diff_);
  const float scale = 1.0f / static_cast<float>(diff_.size());
  for (size_t i = 0; i < grad->size(); ++i) {
    float e = (*grad)[i];
    if (e > delta_) {
      (*grad)[i] = delta_;
    } else if (e < -delta_) {
      (*grad)[i] = -delta_;
    }
    (*grad)[i] *= scale;
  }
}

}  // namespace prestroid
