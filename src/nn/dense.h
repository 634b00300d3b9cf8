#ifndef PRESTROID_NN_DENSE_H_
#define PRESTROID_NN_DENSE_H_

#include <memory>

#include "nn/layer.h"
#include "tensor/kernels/resident_weights.h"
#include "util/random.h"

namespace prestroid {

/// Fully-connected layer: y = x W + b, x is [batch, in], W is [in, out].
///
/// Freezable (nn/layer.h): FreezeWeights packs W into a ResidentWeights;
/// subsequent eval-mode Forwards run the pre-packed kernel instead of the
/// per-call-packing MatMulBiasInto path. Backward while frozen is a
/// programming error and CHECK-fails.
class Dense : public Layer, public FreezableLayer {
 public:
  Dense(size_t in_features, size_t out_features, Rng* rng);

  Tensor& Forward(const Tensor& input) override;
  Tensor& Backward(const Tensor& grad_output) override;
  std::vector<ParamRef> Params() override;

  // FreezableLayer:
  void FreezeWeights() override;
  void ThawWeights() override { resident_.reset(); }
  size_t resident_weight_bytes() const override {
    return resident_ != nullptr ? resident_->resident_bytes() : 0;
  }

  size_t in_features() const { return in_features_; }
  size_t out_features() const { return out_features_; }

  /// Direct weight access for tests and serialization.
  Tensor& weight() { return weight_; }
  Tensor& bias() { return bias_; }

 private:
  size_t in_features_;
  size_t out_features_;
  Tensor weight_;       // [in, out]
  Tensor bias_;         // [out]
  Tensor weight_grad_;  // [in, out]
  Tensor bias_grad_;    // [out]
  Tensor input_cache_;  // [batch, in]
  // Workspaces reused across batches (see Layer docs).
  Tensor output_;           // [batch, out]
  Tensor grad_input_;       // [batch, in]
  Tensor weight_grad_tmp_;  // [in, out] per-batch term, then += into grads
  Tensor bias_grad_tmp_;    // [out]
  // Frozen serving weights (null while thawed).
  std::unique_ptr<ResidentWeights> resident_;
};

}  // namespace prestroid

#endif  // PRESTROID_NN_DENSE_H_
