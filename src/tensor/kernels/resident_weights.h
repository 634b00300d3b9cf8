#ifndef PRESTROID_TENSOR_KERNELS_RESIDENT_WEIGHTS_H_
#define PRESTROID_TENSOR_KERNELS_RESIDENT_WEIGHTS_H_

#include <cstddef>
#include <vector>

#include "tensor/execution_context.h"
#include "tensor/kernels/gemm_kernels.h"
#include "tensor/tensor.h"

namespace prestroid {

/// A layer's GEMM weight operand in the blocked kernels' packed panel
/// layout (the GemmPackB image), the one form Dense and TreeConvLayer run
/// their forward through.
///
/// A training layer repacks its current weights before every forward
/// (Pack, allocation-free once warm). A frozen serving layer packs them
/// once and reuses the panel: the serving hot path is m <= 32, where
/// per-call packing would dominate the GEMM itself. Either way the forward
/// runs the same kernel on the same image at the same row grain, so
/// freezing changes no bits.
///
/// Only Pack() writes the image, so between packs one ResidentWeights may
/// be shared by concurrent readers.
class ResidentWeights {
 public:
  /// An empty image; Pack() fills it.
  ResidentWeights() = default;

  /// (Re)packs the image from row-major fp32 weights [k, n], reusing its
  /// storage (allocation-free once warm). The source tensor is not retained.
  void Pack(const Tensor& weights);

  /// Bytes held by the packed panel image.
  size_t resident_bytes() const { return packed_.size() * sizeof(float); }

  /// out = a @ W + bias (row broadcast); a is [m, k] row-major, out [m, n].
  /// Deterministic at any thread count (k-ascending accumulation, disjoint
  /// row ranges). Counts one op and 2 m k n + m n flops (the product and
  /// the bias). `ctx` must be non-null (layers always carry at least the
  /// serial context).
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
