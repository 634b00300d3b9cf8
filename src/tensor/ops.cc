#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

#include "tensor/kernels/gemm_kernels.h"
#include "util/logging.h"

namespace prestroid {

namespace {

/// Rows [0, m) of C (+)= A @ B on the blocked kernel, C row-major [m, n].
/// Logical A ([m, k]) and B ([k, n]) are read through their strides
/// (gemm_kernels.h); B is packed into scratch panels once and shared by
/// every row chunk, so each output element is one k-ascending sum whatever
/// the thread count.
void BlockedGemm(size_t m, size_t k, size_t n, const float* a, size_t rsa,
                 size_t csa, const float* b, size_t rsb, size_t csb, float* c,
                 bool accumulate, ExecutionContext* ctx) {
  Tensor packed = ctx->AcquireScratch({GemmPackedBSize(k, n)});
  GemmPackB(k, n, b, rsb, csb, packed.data());
  const float* pb = packed.data();
  ctx->ParallelFor(0, m, RowGrain(2 * k * n), [&](size_t i0, size_t i1) {
    GemmBlockedRows(i0, i1, k, n, a, rsa, csa, pb, c, n, /*bias=*/nullptr,
                    accumulate);
  });
  ctx->ReleaseScratch(std::move(packed));
}

/// Elementwise out[i] = fn(a[i]) over [0, size), `flops_per_element` counted
/// per element; `out` may alias `a`.
template <typename Fn>
void UnaryInto(Tensor* out, const Tensor& a, size_t flops_per_element,
               ExecutionContext* ctx, Fn fn) {
  PRESTROID_CHECK(ctx != nullptr);
  if (out != &a) out->ResetShape(a.shape());
  const float* ap = a.data();
  float* op = out->data();
  ctx->AddOp();
  ctx->AddFlops(flops_per_element * a.size());
  ctx->ParallelFor(0, a.size(), RowGrain(flops_per_element),
                   [&](size_t lo, size_t hi) {
                     for (size_t i = lo; i < hi; ++i) op[i] = fn(ap[i]);
                   });
}

}  // namespace

void MatMulTransposeAInto(Tensor* out, const Tensor& a, const Tensor& b,
                          ExecutionContext* ctx) {
  PRESTROID_CHECK(ctx != nullptr);
  PRESTROID_CHECK_EQ(a.rank(), 2u);
  PRESTROID_CHECK_EQ(b.rank(), 2u);
  PRESTROID_CHECK_EQ(a.dim(0), b.dim(0));
  const size_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  out->ResetShape({m, n});
  out->Fill(0.0f);
  ctx->AddOp();
  ctx->AddFlops(2ull * k * m * n);
  // a is [k, m]; logical operand row i is column i of a, i.e. strides
  // (rsa=1, csa=m). The k-complete register block is added onto the zeroed
  // out in one pass, so parallel chunks stay deterministic at any thread
  // count.
  BlockedGemm(m, k, n, a.data(), /*rsa=*/1, /*csa=*/m, b.data(), /*rsb=*/n,
              /*csb=*/1, out->data(), /*accumulate=*/true, ctx);
}

void SparseMatMulAccumulate(Tensor* out, const RowNonzeros& a, const Tensor& b,
                            ExecutionContext* ctx) {
  PRESTROID_CHECK(ctx != nullptr);
  PRESTROID_CHECK_EQ(b.rank(), 2u);
  PRESTROID_CHECK_EQ(out->rank(), 2u);
  PRESTROID_CHECK_EQ(out->dim(1), b.dim(1));
  const size_t m = out->dim(0), k = b.dim(0), n = b.dim(1);
  const uint64_t terms = a.begin[m] - a.begin[0];
  ctx->AddOp();
  ctx->AddFlops(2 * terms * n);
  Tensor packed = ctx->AcquireScratch({GemmPackedBSize(k, n)});
  GemmPackB(k, n, b.data(), /*rsb=*/n, /*csb=*/1, packed.data());
  const float* pb = packed.data();
  float* op = out->data();
  ctx->ParallelFor(0, m, RowGrain(2 * (terms / std::max<size_t>(1, m) + 1) * n),
                   [&](size_t i0, size_t i1) {
                     GemmSparseRowsAccumulate(i0, i1, k, n, a, pb, op, n);
                   });
  ctx->ReleaseScratch(std::move(packed));
}

void MatMulTransposeBInto(Tensor* out, const Tensor& a, const Tensor& b,
                          ExecutionContext* ctx) {
  PRESTROID_CHECK(ctx != nullptr);
  PRESTROID_CHECK_EQ(a.rank(), 2u);
  PRESTROID_CHECK_EQ(b.rank(), 2u);
  PRESTROID_CHECK_EQ(a.dim(1), b.dim(1));
  const size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  out->ResetShape({m, n});
  ctx->AddOp();
  ctx->AddFlops(2ull * m * k * n);
  // b is [n, k]; the packed image of the logical [k, n] right operand reads
  // element (kk, j) from b[j * k + kk], i.e. strides (rsb=1, csb=k).
  BlockedGemm(m, k, n, a.data(), /*rsa=*/k, /*csa=*/1, b.data(), /*rsb=*/1,
              /*csb=*/k, out->data(), /*accumulate=*/false, ctx);
}

void MulInto(Tensor* out, const Tensor& a, const Tensor& b,
             ExecutionContext* ctx) {
  PRESTROID_CHECK(ctx != nullptr);
  PRESTROID_CHECK_EQ(a.size(), b.size());
  out->ResetShape(a.shape());
  const float* ap = a.data();
  const float* bp = b.data();
  float* op = out->data();
  ctx->AddOp();
  ctx->AddFlops(a.size());
  ctx->ParallelFor(0, a.size(), RowGrain(1), [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) op[i] = ap[i] * bp[i];
  });
}

void SumRowsAccumulate(Tensor* out, const Tensor& a, ExecutionContext* ctx) {
  PRESTROID_CHECK(ctx != nullptr);
  PRESTROID_CHECK_EQ(a.rank(), 2u);
  const size_t m = a.dim(0), n = a.dim(1);
  PRESTROID_CHECK_EQ(out->size(), n);
  const float* ap = a.data();
  float* op = out->data();
  ctx->AddOp();
  ctx->AddFlops(static_cast<uint64_t>(m) * n);
  // Each chunk owns a disjoint column range; every column still accumulates
  // its rows in ascending order, so this matches the serial result exactly.
  ctx->ParallelFor(0, n, RowGrain(m), [&](size_t j0, size_t j1) {
    for (size_t i = 0; i < m; ++i) {
      const float* row = ap + i * n;
      for (size_t j = j0; j < j1; ++j) op[j] += row[j];
    }
  });
}

void ReluInto(Tensor* out, const Tensor& a, ExecutionContext* ctx) {
  UnaryInto(out, a, 1, ctx, [](float v) { return std::max(0.0f, v); });
}

void SigmoidInto(Tensor* out, const Tensor& a, ExecutionContext* ctx) {
  UnaryInto(out, a, 4, ctx,
            [](float v) { return 1.0f / (1.0f + std::exp(-v)); });
}

}  // namespace prestroid
