#ifndef PRESTROID_TENSOR_OPS_H_
#define PRESTROID_TENSOR_OPS_H_

#include "tensor/execution_context.h"
#include "tensor/tensor.h"

namespace prestroid {

/// Matrix multiply: a is [m, k], b is [k, n] -> [m, n].
Tensor MatMul(const Tensor& a, const Tensor& b);

/// MatMul where `a` is transposed: a is [k, m], b is [k, n] -> [m, n].
Tensor MatMulTransposeA(const Tensor& a, const Tensor& b);

/// MatMul where `b` is transposed: a is [m, k], b is [n, k] -> [m, n].
Tensor MatMulTransposeB(const Tensor& a, const Tensor& b);

/// Transpose of a rank-2 tensor.
Tensor Transpose(const Tensor& a);

/// Elementwise arithmetic; shapes must match exactly.
Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor Scale(const Tensor& a, float s);

/// Adds row-vector `bias` [n] to every row of `a` [m, n].
Tensor AddRowBroadcast(const Tensor& a, const Tensor& bias);

/// Column-wise sum of a rank-2 tensor: [m, n] -> [n].
Tensor SumRows(const Tensor& a);

/// Row-wise mean of a rank-2 tensor: [m, n] -> [n] (mean over axis 0).
Tensor MeanRows(const Tensor& a);

/// Elementwise max over axis 0 of rank-2 tensor: [m, n] -> [n].
Tensor MaxRows(const Tensor& a);

/// Elementwise min over axis 0 of rank-2 tensor: [m, n] -> [n].
Tensor MinRows(const Tensor& a);

/// Elementwise unary helpers.
Tensor Relu(const Tensor& a);
Tensor Sigmoid(const Tensor& a);
Tensor TanhT(const Tensor& a);

// ---------------------------------------------------------------------------
// Destination-passing variants.
//
// Each *Into op writes its result into `out`, resizing it via ResetShape
// (allocation-free once the workspace is warm), and routes work through
// `ctx`: kernels parallelize over independent output rows with the context's
// ParallelFor, and the context's flop/op counters are updated. `ctx` may be
// null, which means serial execution with no counters.
//
// The GEMM-family ops dispatch on the context's kernel backend to one
// of two backends (tensor/kernels/): the historical `scalar` loops or the
// register-tiled `blocked` micro-kernels. A null ctx always runs scalar.
//
// Determinism contract (DESIGN.md §5.2-§5.3): within EITHER backend, every
// parallel kernel preserves the per-element floating-point accumulation
// order of its serial counterpart (reductions always run k-ascending for
// each output element), so results are bit-identical to serial at ANY
// thread count, not merely close. Across backends the accumulation order
// differs (register blocking vs zero-skip scalar), so scalar and blocked
// agree to ~1e-5 relative, with `scalar` reproducing the pre-kernel-layer
// releases bit-for-bit. The return-by-value ops above are thin wrappers
// over these.
// ---------------------------------------------------------------------------

/// out = a @ b. Cache-blocked over the reduction dim, parallel over rows.
void MatMulInto(Tensor* out, const Tensor& a, const Tensor& b,
                ExecutionContext* ctx);

/// out = a @ b + bias (row broadcast), fused into the GEMM epilogue. On the
/// scalar backend this is bit-identical to MatMulInto followed by
/// AddRowBroadcastInPlace (same per-element float order), with one pass
/// fewer over `out`.
void MatMulBiasInto(Tensor* out, const Tensor& a, const Tensor& b,
                    const Tensor& bias, ExecutionContext* ctx);

/// out = max(0, a @ b + bias): the bias+ReLU epilogue fused likewise.
void MatMulBiasReluInto(Tensor* out, const Tensor& a, const Tensor& b,
                        const Tensor& bias, ExecutionContext* ctx);

/// out = a^T @ b (a is [k, m], b is [k, n]).
void MatMulTransposeAInto(Tensor* out, const Tensor& a, const Tensor& b,
                          ExecutionContext* ctx);

/// out += a^T @ b. `out` must already be [m, n]; used for gradient
/// accumulation across subtrees/timesteps without a temp tensor.
void MatMulTransposeAAccumulate(Tensor* out, const Tensor& a, const Tensor& b,
                                ExecutionContext* ctx);

/// out = a @ b^T (a is [m, k], b is [n, k]).
void MatMulTransposeBInto(Tensor* out, const Tensor& a, const Tensor& b,
                          ExecutionContext* ctx);

/// out = a^T, blocked for cache locality, parallel over source rows.
void TransposeInto(Tensor* out, const Tensor& a, ExecutionContext* ctx);

/// Elementwise into-variants; `out` may not alias the inputs except where
/// noted. AddRowBroadcastInPlace mutates `a` directly (the common case after
/// a MatMulInto).
void AddInto(Tensor* out, const Tensor& a, const Tensor& b,
             ExecutionContext* ctx);
void MulInto(Tensor* out, const Tensor& a, const Tensor& b,
             ExecutionContext* ctx);
void AddRowBroadcastInPlace(Tensor* a, const Tensor& bias,
                            ExecutionContext* ctx);

/// out += column-wise sum of `a` ([m, n] -> [n]); parallel over columns, row
/// order preserved per column. `out` must already be [n].
void SumRowsAccumulate(Tensor* out, const Tensor& a, ExecutionContext* ctx);

/// Elementwise activations into a workspace; `out` may alias `a`.
void ReluInto(Tensor* out, const Tensor& a, ExecutionContext* ctx);
void SigmoidInto(Tensor* out, const Tensor& a, ExecutionContext* ctx);
void TanhInto(Tensor* out, const Tensor& a, ExecutionContext* ctx);

}  // namespace prestroid

#endif  // PRESTROID_TENSOR_OPS_H_
