#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

#include "tensor/kernels/gemm_kernels.h"
#include "util/logging.h"

namespace prestroid {

namespace {

/// Rows-per-chunk floor so ParallelFor never splits work finer than roughly
/// this many flops per chunk — tiny shapes stay inline on the caller.
constexpr size_t kGrainFlops = 1u << 15;

size_t RowGrain(size_t row_cost_flops) {
  return std::max<size_t>(1, kGrainFlops / std::max<size_t>(1, row_cost_flops));
}

constexpr size_t kTransposeBlock = 64;

/// True when `ctx` routes its ops to the blocked kernel backend. Ops
/// invoked without a context always take the scalar reference path.
bool UseBlocked(const ExecutionContext* ctx) {
  return ctx != nullptr && ctx->kernel() == KernelBackend::kBlocked;
}

/// Shared body of MatMul / MatMulBias / MatMulBiasRelu: out = a @ b with the
/// requested fused epilogue, routed to the backend `ctx` selects.
void MatMulEpilogueInto(Tensor* out, const Tensor& a, const Tensor& b,
                        const Tensor* bias, GemmEpilogue epilogue,
                        ExecutionContext* ctx) {
  PRESTROID_CHECK_EQ(a.rank(), 2u);
  PRESTROID_CHECK_EQ(b.rank(), 2u);
  PRESTROID_CHECK_EQ(a.dim(1), b.dim(0));
  const size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  if (bias != nullptr) PRESTROID_CHECK_EQ(bias->size(), n);
  out->ResetShape({m, n});
  const float* ap = a.data();
  const float* bp = b.data();
  const float* biasp = bias != nullptr ? bias->data() : nullptr;
  float* op = out->data();
  if (ctx != nullptr) {
    ctx->AddOp();
    uint64_t flops = 2ull * m * k * n;
    // The epilogue flops match the separate broadcast/relu passes they fuse.
    if (epilogue == GemmEpilogue::kBias) flops += 1ull * m * n;
    if (epilogue == GemmEpilogue::kBiasRelu) flops += 2ull * m * n;
    ctx->AddFlops(flops);
  }
  const size_t grain = RowGrain(2 * k * n);
  if (UseBlocked(ctx)) {
    Tensor packed = ctx->AcquireScratch({GemmPackedBSize(k, n)});
    GemmPackB(k, n, bp, /*rsb=*/n, /*csb=*/1, packed.data());
    const float* pb = packed.data();
    ctx->ParallelFor(0, m, grain, [&](size_t i0, size_t i1) {
      GemmBlockedRows(i0, i1, k, n, ap, /*rsa=*/k, /*csa=*/1, pb, op, n, biasp,
                      epilogue, /*accumulate=*/false);
    });
    ctx->ReleaseScratch(std::move(packed));
    return;
  }
  auto kernel = [&](size_t i0, size_t i1) {
    GemmScalarRows(i0, i1, k, n, ap, bp, op, biasp, epilogue);
  };
  if (ctx != nullptr) {
    ctx->ParallelFor(0, m, grain, kernel);
  } else {
    kernel(0, m);
  }
}

}  // namespace

// --- Destination-passing kernels -------------------------------------------

void MatMulInto(Tensor* out, const Tensor& a, const Tensor& b,
                ExecutionContext* ctx) {
  MatMulEpilogueInto(out, a, b, nullptr, GemmEpilogue::kNone, ctx);
}

void MatMulBiasInto(Tensor* out, const Tensor& a, const Tensor& b,
                    const Tensor& bias, ExecutionContext* ctx) {
  MatMulEpilogueInto(out, a, b, &bias, GemmEpilogue::kBias, ctx);
}

void MatMulBiasReluInto(Tensor* out, const Tensor& a, const Tensor& b,
                        const Tensor& bias, ExecutionContext* ctx) {
  MatMulEpilogueInto(out, a, b, &bias, GemmEpilogue::kBiasRelu, ctx);
}

void MatMulTransposeAAccumulate(Tensor* out, const Tensor& a, const Tensor& b,
                                ExecutionContext* ctx) {
  PRESTROID_CHECK_EQ(a.rank(), 2u);
  PRESTROID_CHECK_EQ(b.rank(), 2u);
  PRESTROID_CHECK_EQ(a.dim(0), b.dim(0));
  const size_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  PRESTROID_CHECK_EQ(out->rank(), 2u);
  PRESTROID_CHECK_EQ(out->dim(0), m);
  PRESTROID_CHECK_EQ(out->dim(1), n);
  const float* ap = a.data();
  const float* bp = b.data();
  float* op = out->data();
  if (ctx != nullptr) {
    ctx->AddOp();
    ctx->AddFlops(2ull * k * m * n);
  }
  const size_t grain = RowGrain(2 * k * n);
  if (UseBlocked(ctx)) {
    // a is [k, m]; logical operand row i is column i of a, i.e. strides
    // (rsa=1, csa=m). The k-complete register block is added onto out in one
    // pass, so parallel chunks stay deterministic at any thread count.
    Tensor packed = ctx->AcquireScratch({GemmPackedBSize(k, n)});
    GemmPackB(k, n, bp, /*rsb=*/n, /*csb=*/1, packed.data());
    const float* pb = packed.data();
    ctx->ParallelFor(0, m, grain, [&](size_t i0, size_t i1) {
      GemmBlockedRows(i0, i1, k, n, ap, /*rsa=*/1, /*csa=*/m, pb, op, n,
                      nullptr, GemmEpilogue::kNone, /*accumulate=*/true);
    });
    ctx->ReleaseScratch(std::move(packed));
    return;
  }
  // Parallel over the rows of `out` (columns of `a`); within each chunk the
  // reduction runs kk-outer, matching the historical serial loop exactly.
  auto kernel = [&](size_t i0, size_t i1) {
    GemmTransposeAScalarCols(i0, i1, k, m, n, ap, bp, op);
  };
  if (ctx != nullptr) {
    ctx->ParallelFor(0, m, grain, kernel);
  } else {
    kernel(0, m);
  }
}

void MatMulTransposeAInto(Tensor* out, const Tensor& a, const Tensor& b,
                          ExecutionContext* ctx) {
  PRESTROID_CHECK_EQ(a.rank(), 2u);
  const size_t m = a.dim(1);
  const size_t n = b.dim(1);
  out->ResetShape({m, n});
  out->Fill(0.0f);
  MatMulTransposeAAccumulate(out, a, b, ctx);
}

void MatMulTransposeBInto(Tensor* out, const Tensor& a, const Tensor& b,
                          ExecutionContext* ctx) {
  PRESTROID_CHECK_EQ(a.rank(), 2u);
  PRESTROID_CHECK_EQ(b.rank(), 2u);
  PRESTROID_CHECK_EQ(a.dim(1), b.dim(1));
  const size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  out->ResetShape({m, n});
  const float* ap = a.data();
  const float* bp = b.data();
  float* op = out->data();
  if (ctx != nullptr) {
    ctx->AddOp();
    ctx->AddFlops(2ull * m * k * n);
  }
  const size_t grain = RowGrain(2 * k * n);
  if (UseBlocked(ctx)) {
    // b is [n, k]; the packed image of the logical [k, n] right operand
    // reads element (kk, j) from b[j * k + kk], i.e. strides (rsb=1, csb=k).
    Tensor packed = ctx->AcquireScratch({GemmPackedBSize(k, n)});
    GemmPackB(k, n, bp, /*rsb=*/1, /*csb=*/k, packed.data());
    const float* pb = packed.data();
    ctx->ParallelFor(0, m, grain, [&](size_t i0, size_t i1) {
      GemmBlockedRows(i0, i1, k, n, ap, /*rsa=*/k, /*csa=*/1, pb, op, n,
                      nullptr, GemmEpilogue::kNone, /*accumulate=*/false);
    });
    ctx->ReleaseScratch(std::move(packed));
    return;
  }
  auto kernel = [&](size_t i0, size_t i1) {
    GemmTransposeBScalarRows(i0, i1, k, n, ap, bp, op);
  };
  if (ctx != nullptr) {
    ctx->ParallelFor(0, m, grain, kernel);
  } else {
    kernel(0, m);
  }
}

void TransposeInto(Tensor* out, const Tensor& a, ExecutionContext* ctx) {
  PRESTROID_CHECK_EQ(a.rank(), 2u);
  const size_t m = a.dim(0), n = a.dim(1);
  out->ResetShape({n, m});
  const float* ap = a.data();
  float* op = out->data();
  if (ctx != nullptr) ctx->AddOp();
  auto kernel = [&](size_t i0, size_t i1) {
    for (size_t j0 = 0; j0 < n; j0 += kTransposeBlock) {
      const size_t j1 = std::min(n, j0 + kTransposeBlock);
      for (size_t i = i0; i < i1; ++i) {
        for (size_t j = j0; j < j1; ++j) op[j * m + i] = ap[i * n + j];
      }
    }
  };
  if (ctx != nullptr) {
    ctx->ParallelFor(0, m, RowGrain(n), kernel);
  } else {
    kernel(0, m);
  }
}

void AddInto(Tensor* out, const Tensor& a, const Tensor& b,
             ExecutionContext* ctx) {
  PRESTROID_CHECK_EQ(a.size(), b.size());
  out->ResetShape(a.shape());
  const float* ap = a.data();
  const float* bp = b.data();
  float* op = out->data();
  if (ctx != nullptr) {
    ctx->AddOp();
    ctx->AddFlops(a.size());
  }
  auto kernel = [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) op[i] = ap[i] + bp[i];
  };
  if (ctx != nullptr) {
    ctx->ParallelFor(0, a.size(), kGrainFlops, kernel);
  } else {
    kernel(0, a.size());
  }
}

void MulInto(Tensor* out, const Tensor& a, const Tensor& b,
             ExecutionContext* ctx) {
  PRESTROID_CHECK_EQ(a.size(), b.size());
  out->ResetShape(a.shape());
  const float* ap = a.data();
  const float* bp = b.data();
  float* op = out->data();
  if (ctx != nullptr) {
    ctx->AddOp();
    ctx->AddFlops(a.size());
  }
  auto kernel = [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) op[i] = ap[i] * bp[i];
  };
  if (ctx != nullptr) {
    ctx->ParallelFor(0, a.size(), kGrainFlops, kernel);
  } else {
    kernel(0, a.size());
  }
}

void AddRowBroadcastInPlace(Tensor* a, const Tensor& bias,
                            ExecutionContext* ctx) {
  PRESTROID_CHECK_EQ(a->rank(), 2u);
  PRESTROID_CHECK_EQ(bias.size(), a->dim(1));
  const size_t m = a->dim(0), n = a->dim(1);
  float* ap = a->data();
  const float* bp = bias.data();
  if (ctx != nullptr) {
    ctx->AddOp();
    ctx->AddFlops(static_cast<uint64_t>(m) * n);
  }
  auto kernel = [&](size_t i0, size_t i1) {
    for (size_t i = i0; i < i1; ++i) {
      float* row = ap + i * n;
      for (size_t j = 0; j < n; ++j) row[j] += bp[j];
    }
  };
  if (ctx != nullptr) {
    ctx->ParallelFor(0, m, RowGrain(n), kernel);
  } else {
    kernel(0, m);
  }
}

void SumRowsAccumulate(Tensor* out, const Tensor& a, ExecutionContext* ctx) {
  PRESTROID_CHECK_EQ(a.rank(), 2u);
  const size_t m = a.dim(0), n = a.dim(1);
  PRESTROID_CHECK_EQ(out->size(), n);
  const float* ap = a.data();
  float* op = out->data();
  if (ctx != nullptr) {
    ctx->AddOp();
    ctx->AddFlops(static_cast<uint64_t>(m) * n);
  }
  // Each chunk owns a disjoint column range; every column still accumulates
  // its rows in ascending order, so this matches the serial result exactly.
  auto kernel = [&](size_t j0, size_t j1) {
    for (size_t i = 0; i < m; ++i) {
      const float* row = ap + i * n;
      for (size_t j = j0; j < j1; ++j) op[j] += row[j];
    }
  };
  if (ctx != nullptr) {
    ctx->ParallelFor(0, n, RowGrain(m), kernel);
  } else {
    kernel(0, n);
  }
}

void ReluInto(Tensor* out, const Tensor& a, ExecutionContext* ctx) {
  if (out != &a) out->ResetShape(a.shape());
  const float* ap = a.data();
  float* op = out->data();
  if (ctx != nullptr) {
    ctx->AddOp();
    ctx->AddFlops(a.size());
  }
  auto kernel = [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) op[i] = std::max(0.0f, ap[i]);
  };
  if (ctx != nullptr) {
    ctx->ParallelFor(0, a.size(), kGrainFlops, kernel);
  } else {
    kernel(0, a.size());
  }
}

void SigmoidInto(Tensor* out, const Tensor& a, ExecutionContext* ctx) {
  if (out != &a) out->ResetShape(a.shape());
  const float* ap = a.data();
  float* op = out->data();
  if (ctx != nullptr) {
    ctx->AddOp();
    ctx->AddFlops(4ull * a.size());
  }
  auto kernel = [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      op[i] = 1.0f / (1.0f + std::exp(-ap[i]));
    }
  };
  if (ctx != nullptr) {
    ctx->ParallelFor(0, a.size(), kGrainFlops / 4, kernel);
  } else {
    kernel(0, a.size());
  }
}

void TanhInto(Tensor* out, const Tensor& a, ExecutionContext* ctx) {
  if (out != &a) out->ResetShape(a.shape());
  const float* ap = a.data();
  float* op = out->data();
  if (ctx != nullptr) {
    ctx->AddOp();
    ctx->AddFlops(4ull * a.size());
  }
  auto kernel = [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) op[i] = std::tanh(ap[i]);
  };
  if (ctx != nullptr) {
    ctx->ParallelFor(0, a.size(), kGrainFlops / 4, kernel);
  } else {
    kernel(0, a.size());
  }
}

// --- Return-by-value wrappers ----------------------------------------------

Tensor MatMul(const Tensor& a, const Tensor& b) {
  Tensor out;
  MatMulInto(&out, a, b, nullptr);
  return out;
}

Tensor MatMulTransposeA(const Tensor& a, const Tensor& b) {
  Tensor out;
  MatMulTransposeAInto(&out, a, b, nullptr);
  return out;
}

Tensor MatMulTransposeB(const Tensor& a, const Tensor& b) {
  Tensor out;
  MatMulTransposeBInto(&out, a, b, nullptr);
  return out;
}

Tensor Transpose(const Tensor& a) {
  Tensor out;
  TransposeInto(&out, a, nullptr);
  return out;
}

Tensor Add(const Tensor& a, const Tensor& b) {
  Tensor out = a;
  out += b;
  return out;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  Tensor out = a;
  out -= b;
  return out;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  PRESTROID_CHECK_EQ(a.size(), b.size());
  Tensor out = a;
  for (size_t i = 0; i < out.size(); ++i) out[i] *= b[i];
  return out;
}

Tensor Scale(const Tensor& a, float s) {
  Tensor out = a;
  out *= s;
  return out;
}

Tensor AddRowBroadcast(const Tensor& a, const Tensor& bias) {
  Tensor out = a;
  AddRowBroadcastInPlace(&out, bias, nullptr);
  return out;
}

Tensor SumRows(const Tensor& a) {
  PRESTROID_CHECK_EQ(a.rank(), 2u);
  Tensor out({a.dim(1)});
  SumRowsAccumulate(&out, a, nullptr);
  return out;
}

Tensor MeanRows(const Tensor& a) {
  Tensor out = SumRows(a);
  PRESTROID_CHECK_GT(a.dim(0), 0u);
  out *= 1.0f / static_cast<float>(a.dim(0));
  return out;
}

Tensor MaxRows(const Tensor& a) {
  PRESTROID_CHECK_EQ(a.rank(), 2u);
  PRESTROID_CHECK_GT(a.dim(0), 0u);
  const size_t m = a.dim(0), n = a.dim(1);
  Tensor out({n});
  for (size_t j = 0; j < n; ++j) out[j] = a.At(0, j);
  for (size_t i = 1; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) out[j] = std::max(out[j], a.At(i, j));
  }
  return out;
}

Tensor MinRows(const Tensor& a) {
  PRESTROID_CHECK_EQ(a.rank(), 2u);
  PRESTROID_CHECK_GT(a.dim(0), 0u);
  const size_t m = a.dim(0), n = a.dim(1);
  Tensor out({n});
  for (size_t j = 0; j < n; ++j) out[j] = a.At(0, j);
  for (size_t i = 1; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) out[j] = std::min(out[j], a.At(i, j));
  }
  return out;
}

Tensor Relu(const Tensor& a) {
  Tensor out;
  ReluInto(&out, a, nullptr);
  return out;
}

Tensor Sigmoid(const Tensor& a) {
  Tensor out;
  SigmoidInto(&out, a, nullptr);
  return out;
}

Tensor TanhT(const Tensor& a) {
  Tensor out;
  TanhInto(&out, a, nullptr);
  return out;
}

}  // namespace prestroid
