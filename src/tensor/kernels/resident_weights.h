#ifndef PRESTROID_TENSOR_KERNELS_RESIDENT_WEIGHTS_H_
#define PRESTROID_TENSOR_KERNELS_RESIDENT_WEIGHTS_H_

#include <cstddef>
#include <vector>

#include "tensor/execution_context.h"
#include "tensor/kernels/gemm_kernels.h"
#include "tensor/tensor.h"

namespace prestroid {

/// A layer's GEMM weight operand frozen into the blocked backend's packed
/// panel layout.
///
/// The training path re-packs B panels on every MatMul*Into call — correct
/// for training-sized batches where packing amortizes over many rows, but
/// the serving hot path is m <= 32, where per-call packing dominates the
/// GEMM itself. Building a ResidentWeights once per layer moves that work to
/// model-attach time, so serving never repacks per request. The image is
/// exactly the GemmPackB panel set the blocked backend would build per call,
/// so Gemm() output is bit-identical to the blocked MatMul*Into path (same
/// kernel, same pack, same ISA).
///
/// Immutable after Build(), so one ResidentWeights may be shared by
/// concurrent readers.
class ResidentWeights {
 public:
  /// Builds from row-major fp32 weights [k, n]. The source tensor is not
  /// retained.
  static ResidentWeights Build(const Tensor& weights);

  /// Bytes held by the packed panel image.
  size_t resident_bytes() const { return packed_.size() * sizeof(float); }

  /// out = a @ W (+ bias)(+ ReLU); a is [m, k] row-major, out [m, n].
  /// Deterministic at any thread count (k-ascending accumulation, disjoint
  /// row ranges). Does its own op/flop accounting like MatMul*Into. `ctx`
  /// must be non-null (layers always carry at least the serial context).
  void Gemm(Tensor* out, const Tensor& a, const Tensor* bias,
            GemmEpilogue epilogue, ExecutionContext* ctx) const;

 private:
  ResidentWeights() = default;

  size_t rows_ = 0;  // k
  size_t cols_ = 0;  // n
  std::vector<float> packed_;  // GemmPackB panel image
};

}  // namespace prestroid

#endif  // PRESTROID_TENSOR_KERNELS_RESIDENT_WEIGHTS_H_
