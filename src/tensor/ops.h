#ifndef PRESTROID_TENSOR_OPS_H_
#define PRESTROID_TENSOR_OPS_H_

#include "tensor/execution_context.h"
#include "tensor/kernels/gemm_kernels.h"
#include "tensor/tensor.h"

namespace prestroid {

// ---------------------------------------------------------------------------
// Destination-passing ops.
//
// Each *Into op writes its result into `out`, resizing it via ResetShape
// (allocation-free once the workspace is warm), and routes work through
// `ctx`, which must be non-null (a layer always carries at least
// ExecutionContext::Serial()): kernels parallelize over independent output
// rows with the context's ParallelFor, and the context's flop/op counters
// are updated. The GEMM-family ops run the blocked kernels
// (tensor/kernels/), at the ISA instantiation the process picked at startup.
// A forward product with a bias runs through a layer's packed panel instead
// (ResidentWeights::Gemm).
//
// Determinism contract (DESIGN.md §5.2-§5.3): every parallel kernel keeps
// the per-element floating-point accumulation order of its serial run
// (reductions always run k-ascending for each output element), so results
// are bit-identical at ANY thread count, not merely close.
// ---------------------------------------------------------------------------

/// out = a^T @ b (a is [k, m], b is [k, n]).
void MatMulTransposeAInto(Tensor* out, const Tensor& a, const Tensor& b,
                          ExecutionContext* ctx);

/// out += a @ b for a sparse a ([m, k], row i's nonzeros in `a`) and a
/// dense b ([k, n]); `out` must already be [m, n]. Each output element sums
/// its row's nonzero terms in ascending k from zero and is added onto `out`
/// (GemmSparseRowsAccumulate). Parallel over rows of `out`, so bit-identical
/// at any thread count. On an `out` holding no -0 and a finite b it equals
/// the blocked GEMM's accumulate mode over the dense a bit for bit
/// (DESIGN.md §5.3). Counts 2 flops per nonzero and column.
void SparseMatMulAccumulate(Tensor* out, const RowNonzeros& a, const Tensor& b,
                            ExecutionContext* ctx);

/// out = a @ b^T (a is [m, k], b is [n, k]).
void MatMulTransposeBInto(Tensor* out, const Tensor& a, const Tensor& b,
                          ExecutionContext* ctx);

/// out = a * b elementwise; `out` may not alias the inputs.
void MulInto(Tensor* out, const Tensor& a, const Tensor& b,
             ExecutionContext* ctx);

/// out += column-wise sum of `a` ([m, n] -> [n]); parallel over columns, row
/// order preserved per column. `out` must already be [n].
void SumRowsAccumulate(Tensor* out, const Tensor& a, ExecutionContext* ctx);

/// Elementwise activations into a workspace; `out` may alias `a`.
void ReluInto(Tensor* out, const Tensor& a, ExecutionContext* ctx);
void SigmoidInto(Tensor* out, const Tensor& a, ExecutionContext* ctx);

}  // namespace prestroid

#endif  // PRESTROID_TENSOR_OPS_H_
