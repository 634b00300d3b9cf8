#include "tensor/kernels/resident_weights.h"

#include "util/logging.h"

namespace prestroid {

void ResidentWeights::Pack(const Tensor& weights) {
  PRESTROID_CHECK_EQ(weights.rank(), 2u);
  rows_ = weights.dim(0);
  cols_ = weights.dim(1);
  packed_.resize(GemmPackedBSize(rows_, cols_));
  GemmPackB(rows_, cols_, weights.data(), /*rsb=*/cols_, /*csb=*/1,
            packed_.data());
}

void ResidentWeights::Gemm(Tensor* out, const Tensor& a, const Tensor& bias,
                           ExecutionContext* ctx) const {
  PRESTROID_CHECK(ctx != nullptr);
  PRESTROID_CHECK_EQ(a.rank(), 2u);
  PRESTROID_CHECK_EQ(a.dim(1), rows_);
  const size_t m = a.dim(0), k = rows_, n = cols_;
  PRESTROID_CHECK_EQ(bias.size(), n);
  out->ResetShape({m, n});
  const float* ap = a.data();
  const float* biasp = bias.data();
  const float* pb = packed_.data();
  float* op = out->data();
  ctx->AddOp();
  ctx->AddFlops(2ull * m * k * n + 1ull * m * n);
  ctx->ParallelFor(0, m, RowGrain(2 * k * n), [&](size_t i0, size_t i1) {
    GemmBlockedRows(i0, i1, k, n, ap, /*rsa=*/k, /*csa=*/1, pb, op, n, biasp,
                    /*accumulate=*/false);
  });
}

void ResidentWeights::TreeWindowGemm(Tensor* out, size_t rows,
                                     const RowNonzeros& x, const int* left,
                                     const int* right, const Tensor& bias,
                                     ExecutionContext* ctx) const {
  PRESTROID_CHECK(ctx != nullptr);
  PRESTROID_CHECK_EQ(rows_ % 3, 0u);
  PRESTROID_CHECK_EQ(bias.size(), cols_);
  const size_t in = rows_ / 3, n = cols_;
  out->ResetShape({rows, n});
  uint64_t terms = 0;
  for (size_t r = 0; r < rows; ++r) {
    terms += x.begin[r + 1] - x.begin[r];
    if (left[r] >= 0) terms += x.begin[left[r] + 1] - x.begin[left[r]];
    if (right[r] >= 0) terms += x.begin[right[r] + 1] - x.begin[right[r]];
  }
  ctx->AddOp();
  ctx->AddFlops(2 * terms * n + 2ull * rows * n);
  const float* biasp = bias.data();
  const float* pb = packed_.data();
  float* op = out->data();
  // Same row chunks as Gemm: a row's result never depends on its chunk.
  ctx->ParallelFor(0, rows, RowGrain(2 * rows_ * n),
                   [&](size_t r0, size_t r1) {
                     GemmTreeWindowRows(r0, r1, in, n, x, left, right, pb, op,
                                        n, biasp);
                   });
}

}  // namespace prestroid
