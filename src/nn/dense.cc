#include "nn/dense.h"

#include "tensor/ops.h"
#include "util/logging.h"

namespace prestroid {

Dense::Dense(size_t in_features, size_t out_features, Rng* rng)
    : in_features_(in_features),
      out_features_(out_features),
      weight_(Tensor::GlorotUniform(in_features, out_features, rng)),
      bias_({out_features}),
      weight_grad_({in_features, out_features}),
      bias_grad_({out_features}) {}

Tensor& Dense::Forward(const Tensor& input) {
  PRESTROID_CHECK_EQ(input.rank(), 2u);
  PRESTROID_CHECK_EQ(input.dim(1), in_features_);
  if (resident_ != nullptr && !training_) {
    // Frozen inference path: pre-packed resident weights, no input cache
    // (Backward is forbidden while frozen).
    resident_->Gemm(&output_, input, &bias_, GemmEpilogue::kBias, ctx_);
    return output_;
  }
  input_cache_.CopyFrom(input);
  // Fused-bias GEMM: on the scalar backend this is bit-identical to the
  // historical MatMul-then-AddRowBroadcast pair (same per-element order).
  MatMulBiasInto(&output_, input, weight_, bias_, ctx_);
  return output_;
}

void Dense::FreezeWeights() {
  resident_ = std::make_unique<ResidentWeights>(ResidentWeights::Build(weight_));
}

Tensor& Dense::Backward(const Tensor& grad_output) {
  PRESTROID_CHECK(resident_ == nullptr);  // no training while frozen
  PRESTROID_CHECK_EQ(grad_output.dim(0), input_cache_.dim(0));
  PRESTROID_CHECK_EQ(grad_output.dim(1), out_features_);
  // Each gradient term is materialized in a workspace and then added with a
  // single +=, matching the historical temp-then-accumulate float order even
  // when gradients accumulate across multiple Backward calls.
  MatMulTransposeAInto(&weight_grad_tmp_, input_cache_, grad_output, ctx_);
  weight_grad_ += weight_grad_tmp_;
  bias_grad_tmp_.ResetShape({out_features_});
  bias_grad_tmp_.Fill(0.0f);
  SumRowsAccumulate(&bias_grad_tmp_, grad_output, ctx_);
  bias_grad_ += bias_grad_tmp_;
  MatMulTransposeBInto(&grad_input_, grad_output, weight_, ctx_);
  return grad_input_;
}

std::vector<ParamRef> Dense::Params() {
  return {{"weight", &weight_, &weight_grad_}, {"bias", &bias_, &bias_grad_}};
}

}  // namespace prestroid
