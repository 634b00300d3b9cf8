#ifndef PRESTROID_TENSOR_KERNELS_RESIDENT_WEIGHTS_H_
#define PRESTROID_TENSOR_KERNELS_RESIDENT_WEIGHTS_H_

#include <cstddef>
#include <vector>

#include "tensor/execution_context.h"
#include "tensor/kernels/gemm_kernels.h"
#include "tensor/tensor.h"

namespace prestroid {

/// A layer's GEMM weight operand frozen into the blocked kernels' packed
/// panel layout.
///
/// The training path re-packs B panels on every MatMul*Into call — correct
/// for training-sized batches where packing amortizes over many rows, but
/// the serving hot path is m <= 32, where per-call packing dominates the
/// GEMM itself. Building a ResidentWeights once per layer moves that work to
/// model-attach time, so serving never repacks per request. The image is
/// exactly the GemmPackB panel set MatMul*Into builds per call, so Gemm()
/// output is bit-identical to the MatMul*Into path (same kernel, same pack,
/// same ISA). A training tree-conv layer holds one too
/// and repacks it before every forward (Pack), so its forward runs the same
/// TreeWindowGemm as the frozen one.
///
/// Only Build() and Pack() write the image, so between packs one
/// ResidentWeights may be shared by concurrent readers.
class ResidentWeights {
 public:
  /// An empty image; Pack() fills it.
  ResidentWeights() = default;

  /// Builds from row-major fp32 weights [k, n]. The source tensor is not
  /// retained.
  static ResidentWeights Build(const Tensor& weights);

  /// Repacks the image from `weights` [k, n], reusing its storage
  /// (allocation-free once warm): a training layer packs its current
  /// weights this way before each forward.
  void Pack(const Tensor& weights);

  /// Bytes held by the packed panel image.
  size_t resident_bytes() const { return packed_.size() * sizeof(float); }

  /// out = a @ W + bias (row broadcast); a is [m, k] row-major, out [m, n].
  /// Deterministic at any thread count (k-ascending accumulation, disjoint
  /// row ranges). Does its own op/flop accounting like MatMulBiasInto. `ctx`
  /// must be non-null (layers always carry at least the serial context).
  void Gemm(Tensor* out, const Tensor& a, const Tensor& bias,
            ExecutionContext* ctx) const;

  /// out[r] = max(0, [x[r] | x[left[r]] | x[right[r]]] @ W + bias) for
  /// `rows` rows, with W built from the stacked tree-convolution kernels
  /// [W_self; W_left; W_right] ([3 * in, n]) and x read only through its
  /// nonzeros (GemmTreeWindowRows). Bit-identical to max(0, Gemm()) over
  /// the gathered windows; counts the multiply-adds it issues, 2 flops
  /// per window nonzero and output column, plus the epilogue.
  void TreeWindowGemm(Tensor* out, size_t rows, const RowNonzeros& x,
                      const int* left, const int* right, const Tensor& bias,
                      ExecutionContext* ctx) const;

 private:
  size_t rows_ = 0;  // k
  size_t cols_ = 0;  // n
  std::vector<float> packed_;  // GemmPackB panel image
};

}  // namespace prestroid

#endif  // PRESTROID_TENSOR_KERNELS_RESIDENT_WEIGHTS_H_
