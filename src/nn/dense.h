#ifndef PRESTROID_NN_DENSE_H_
#define PRESTROID_NN_DENSE_H_

#include "nn/layer.h"
#include "tensor/kernels/resident_weights.h"
#include "util/random.h"

namespace prestroid {

/// Fully-connected layer: y = x W + b, x is [batch, in], W is [in, out].
///
/// Forward runs the product through the layer's packed panel of W
/// (ResidentWeights), repacked from W before every forward. FreezeWeights
/// packs it once for serving, and forwards then reuse it; the kernel and
/// the image are the same, so freezing changes no bits. Backward while
/// frozen is a programming error and CHECK-fails.
class Dense : public Layer {
 public:
  Dense(size_t in_features, size_t out_features, Rng* rng);

  Tensor& Forward(const Tensor& input) override;
  Tensor& Backward(const Tensor& grad_output) override;
  std::vector<ParamRef> Params() override;

  /// Packs the current weights once; later forwards skip the repack.
  /// Calling it again repacks.
  void FreezeWeights();

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
  // weight_ as GEMM panels: repacked per Forward until FreezeWeights packs
  // it for the last time.
  ResidentWeights panel_;
  bool frozen_ = false;
};

}  // namespace prestroid

#endif  // PRESTROID_NN_DENSE_H_
