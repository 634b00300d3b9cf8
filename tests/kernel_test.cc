#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "nn/dense.h"
#include "nn/tree_conv.h"
#include "tensor/aligned_buffer.h"
#include "tensor/execution_context.h"
#include "tensor/kernels/gemm_kernels.h"
#include "tensor/kernels/kernel_backend.h"
#include "tensor/kernels/resident_weights.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/random.h"

namespace prestroid {
namespace {

// Shapes chosen to hit every micro-kernel edge: single rows/columns, sizes
// straddling the MR/NR tiles (64, 65), and small odd primes.
const size_t kOddSizes[] = {1, 3, 7, 17, 64, 65};

/// Relative 1e-5 comparison (absolute below magnitude 1), the documented
/// scalar-vs-blocked parity envelope (DESIGN.md §5.3).
void ExpectAllClose(const Tensor& got, const Tensor& want,
                    const char* what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    const double tol =
        1e-5 * std::max(1.0, std::abs(static_cast<double>(want[i])));
    ASSERT_NEAR(got[i], want[i], tol) << what << " element " << i;
  }
}

void Pin(ExecutionContext* ctx, KernelBackend backend) {
  ctx->set_kernel(backend);
}

// ---------------------------------------------------------------------------
// Kernel backend selection
// ---------------------------------------------------------------------------

TEST(KernelBackendTest, ParseAndNameRoundTrip) {
  EXPECT_EQ(ParseKernelBackend("scalar"), KernelBackend::kScalar);
  EXPECT_EQ(ParseKernelBackend("blocked"), KernelBackend::kBlocked);
  EXPECT_FALSE(ParseKernelBackend("avx9000").has_value());
  EXPECT_FALSE(ParseKernelBackend("").has_value());
  EXPECT_STREQ(KernelBackendName(KernelBackend::kScalar), "scalar");
  EXPECT_STREQ(KernelBackendName(KernelBackend::kBlocked), "blocked");
}

TEST(KernelBackendTest, ContextCarriesItsOwnBackend) {
  ExecutionContext a(1), b(1);
  EXPECT_EQ(a.kernel(), DefaultKernelBackend());
  a.set_kernel(KernelBackend::kScalar);
  b.set_kernel(KernelBackend::kBlocked);
  EXPECT_EQ(a.kernel(), KernelBackend::kScalar);
  EXPECT_EQ(b.kernel(), KernelBackend::kBlocked);
}

TEST(KernelEnvTest, ParseKernelEnvAcceptsKnownAndUnsetValues) {
  EXPECT_EQ(ParseKernelEnv(nullptr).ValueOrDie(), KernelBackend::kBlocked);
  EXPECT_EQ(ParseKernelEnv("scalar").ValueOrDie(), KernelBackend::kScalar);
  EXPECT_EQ(ParseKernelEnv("blocked").ValueOrDie(), KernelBackend::kBlocked);
}

TEST(KernelEnvTest, ParseKernelEnvRejectsTyposListingAcceptedSet) {
  const Result<KernelBackend> parsed = ParseKernelEnv("blokced");
  ASSERT_FALSE(parsed.ok());
  const Status& status = parsed.status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("blokced"), std::string::npos);
  EXPECT_NE(status.message().find("scalar"), std::string::npos);
  EXPECT_NE(status.message().find("blocked"), std::string::npos);
}

TEST(KernelEnvDeathTest, DefaultBackendFailsOnATypo) {
  // DefaultKernelBackend() resolves once per process; the threadsafe style
  // re-executes the binary, so the child resolves it fresh, after the typo.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        setenv("PRESTROID_KERNEL", "blokced", 1);
        ExecutionContext ctx(1);
      },
      "accepted values: scalar, blocked");
}

// ---------------------------------------------------------------------------
// GEMM parity: blocked vs scalar across odd shapes and all operand layouts
// ---------------------------------------------------------------------------

TEST(GemmParityTest, MatMulAcrossOddShapes) {
  Rng rng(101);
  for (size_t m : kOddSizes) {
    for (size_t k : kOddSizes) {
      for (size_t n : kOddSizes) {
        const Tensor a = Tensor::Random({m, k}, &rng);
        const Tensor b = Tensor::Random({k, n}, &rng);
        ExecutionContext scalar(1), blocked(1);
        Pin(&scalar, KernelBackend::kScalar);
        Pin(&blocked, KernelBackend::kBlocked);
        Tensor ref, got;
        MatMulInto(&ref, a, b, &scalar);
        MatMulInto(&got, a, b, &blocked);
        ExpectAllClose(got, ref, "matmul");
      }
    }
  }
}

TEST(GemmParityTest, FusedBiasAndBiasReluAcrossOddShapes) {
  Rng rng(102);
  for (size_t m : kOddSizes) {
    for (size_t n : kOddSizes) {
      const size_t k = 17;
      const Tensor a = Tensor::Random({m, k}, &rng);
      const Tensor b = Tensor::Random({k, n}, &rng);
      const Tensor bias = Tensor::Random({n}, &rng);
      ExecutionContext scalar(1), blocked(1);
      Pin(&scalar, KernelBackend::kScalar);
      Pin(&blocked, KernelBackend::kBlocked);
      Tensor ref, got;
      MatMulBiasInto(&ref, a, b, bias, &scalar);
      MatMulBiasInto(&got, a, b, bias, &blocked);
      ExpectAllClose(got, ref, "matmul+bias");
      MatMulBiasReluInto(&ref, a, b, bias, &scalar);
      MatMulBiasReluInto(&got, a, b, bias, &blocked);
      ExpectAllClose(got, ref, "matmul+bias+relu");
      for (size_t i = 0; i < got.size(); ++i) ASSERT_GE(got[i], 0.0f);
    }
  }
}

TEST(GemmParityTest, FusedBiasMatchesUnfusedComposition) {
  Rng rng(103);
  const Tensor a = Tensor::Random({33, 21}, &rng);
  const Tensor b = Tensor::Random({21, 19}, &rng);
  const Tensor bias = Tensor::Random({19}, &rng);
  for (KernelBackend backend :
       {KernelBackend::kScalar, KernelBackend::kBlocked}) {
    ExecutionContext ctx(1);
    Pin(&ctx, backend);
    Tensor fused, unfused;
    MatMulBiasInto(&fused, a, b, bias, &ctx);
    MatMulInto(&unfused, a, b, &ctx);
    AddRowBroadcastInPlace(&unfused, bias, &ctx);
    // Same backend, same accumulation order: the fusion itself must be
    // bit-exact, not merely close.
    ASSERT_EQ(fused.shape(), unfused.shape());
    for (size_t i = 0; i < fused.size(); ++i) {
      ASSERT_EQ(fused[i], unfused[i]) << "element " << i;
    }
  }
}

TEST(GemmParityTest, TransposeAAcrossOddShapes) {
  Rng rng(104);
  for (size_t m : kOddSizes) {
    for (size_t n : kOddSizes) {
      const size_t k = 23;
      const Tensor a = Tensor::Random({k, m}, &rng);
      const Tensor b = Tensor::Random({k, n}, &rng);
      ExecutionContext scalar(1), blocked(1);
      Pin(&scalar, KernelBackend::kScalar);
      Pin(&blocked, KernelBackend::kBlocked);
      Tensor ref, got;
      MatMulTransposeAInto(&ref, a, b, &scalar);
      MatMulTransposeAInto(&got, a, b, &blocked);
      ExpectAllClose(got, ref, "matmul-transpose-a");
    }
  }
}

TEST(GemmParityTest, TransposeAAccumulateAddsOntoExisting) {
  Rng rng(105);
  const Tensor a = Tensor::Random({13, 7}, &rng);
  const Tensor b = Tensor::Random({13, 9}, &rng);
  ExecutionContext scalar(1), blocked(1);
  Pin(&scalar, KernelBackend::kScalar);
  Pin(&blocked, KernelBackend::kBlocked);
  Tensor ref = Tensor::Full({7, 9}, 2.5f);
  Tensor got = Tensor::Full({7, 9}, 2.5f);
  MatMulTransposeAAccumulate(&ref, a, b, &scalar);
  MatMulTransposeAAccumulate(&got, a, b, &blocked);
  ExpectAllClose(got, ref, "matmul-transpose-a-accumulate");
}

TEST(GemmParityTest, TransposeBAcrossOddShapes) {
  Rng rng(106);
  for (size_t m : kOddSizes) {
    for (size_t n : kOddSizes) {
      const size_t k = 31;
      const Tensor a = Tensor::Random({m, k}, &rng);
      const Tensor b = Tensor::Random({n, k}, &rng);
      ExecutionContext scalar(1), blocked(1);
      Pin(&scalar, KernelBackend::kScalar);
      Pin(&blocked, KernelBackend::kBlocked);
      Tensor ref, got;
      MatMulTransposeBInto(&ref, a, b, &scalar);
      MatMulTransposeBInto(&got, a, b, &blocked);
      ExpectAllClose(got, ref, "matmul-transpose-b");
    }
  }
}

TEST(GemmParityTest, EmptyAndZeroRowEdges) {
  Rng rng(107);
  ExecutionContext blocked(1);
  Pin(&blocked, KernelBackend::kBlocked);
  // m == 0: empty output, no kernel invocations on data.
  {
    const Tensor a({0, 5});
    const Tensor b = Tensor::Random({5, 4}, &rng);
    Tensor out;
    MatMulInto(&out, a, b, &blocked);
    EXPECT_EQ(out.dim(0), 0u);
    EXPECT_EQ(out.dim(1), 4u);
  }
  // All-zero A rows: the blocked kernel has no data-dependent skip, so this
  // must still produce exact zeros (0 * x + 0 * y ... is exactly 0).
  {
    const Tensor a({4, 6});
    const Tensor b = Tensor::Random({6, 3}, &rng);
    Tensor out;
    MatMulInto(&out, a, b, &blocked);
    for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], 0.0f);
  }
  // k == 0 degenerate reduction: product is zero, epilogue still applies.
  {
    const Tensor a({3, 0});
    const Tensor b({0, 5});
    const Tensor bias = Tensor::Random({5}, &rng);
    Tensor out;
    MatMulBiasInto(&out, a, b, bias, &blocked);
    ASSERT_EQ(out.dim(0), 3u);
    for (size_t r = 0; r < 3; ++r) {
      for (size_t c = 0; c < 5; ++c) EXPECT_EQ(out.At(r, c), bias[c]);
    }
  }
}

TEST(GemmParityTest, BlockedBitIdenticalAcrossThreadCounts) {
  Rng rng(108);
  const Tensor a = Tensor::Random({65, 37}, &rng);
  const Tensor b = Tensor::Random({37, 41}, &rng);
  ExecutionContext one(1);
  Pin(&one, KernelBackend::kBlocked);
  Tensor ref;
  MatMulInto(&ref, a, b, &one);
  for (size_t threads : {2u, 4u}) {
    ExecutionContext ctx(threads);
    Pin(&ctx, KernelBackend::kBlocked);
    Tensor got;
    MatMulInto(&got, a, b, &ctx);
    // The register block accumulates the full reduction per output element,
    // so chunk boundaries cannot change a bit.
    ASSERT_EQ(got.size(), ref.size());
    for (size_t i = 0; i < ref.size(); ++i) ASSERT_EQ(got[i], ref[i]);
  }
}

// ---------------------------------------------------------------------------
// Layer parity: dense and tree-conv forward/backward
// ---------------------------------------------------------------------------

TEST(LayerParityTest, DenseForwardBackwardAcrossBackends) {
  for (size_t batch : {1, 7, 65}) {
    Rng rng_a(201), rng_b(201), data_rng(202);
    Dense scalar_layer(17, 9, &rng_a);
    Dense blocked_layer(17, 9, &rng_b);
    ExecutionContext scalar(1), blocked(1);
    Pin(&scalar, KernelBackend::kScalar);
    Pin(&blocked, KernelBackend::kBlocked);
    scalar_layer.set_context(&scalar);
    blocked_layer.set_context(&blocked);
    const Tensor input = Tensor::Random({batch, 17}, &data_rng);
    const Tensor grad = Tensor::Random({batch, 9}, &data_rng);
    ExpectAllClose(blocked_layer.Forward(input), scalar_layer.Forward(input),
                   "dense forward");
    ExpectAllClose(blocked_layer.Backward(grad), scalar_layer.Backward(grad),
                   "dense backward grad_input");
    auto sp = scalar_layer.Params();
    auto bp = blocked_layer.Params();
    ASSERT_EQ(sp.size(), bp.size());
    for (size_t p = 0; p < sp.size(); ++p) {
      ExpectAllClose(*bp[p].grad, *sp[p].grad, sp[p].name.c_str());
    }
  }
}

TreeStructure MakeTreeStructure(size_t batch, size_t nodes) {
  TreeStructure s;
  s.left.assign(batch, std::vector<int>(nodes, -1));
  s.right.assign(batch, std::vector<int>(nodes, -1));
  s.mask.assign(batch, std::vector<float>(nodes, 1.0f));
  for (size_t b = 0; b < batch; ++b) {
    for (size_t i = 0; 2 * i + 1 < nodes; ++i) {
      s.left[b][i] = static_cast<int>(2 * i + 1);
      // Leave some right children null so the zero-window path is covered.
      if (2 * i + 2 < nodes && (i + b) % 3 != 0) {
        s.right[b][i] = static_cast<int>(2 * i + 2);
      }
    }
  }
  return s;
}

TEST(LayerParityTest, TreeConvForwardBackwardAcrossBackends) {
  for (size_t batch : {1, 5}) {
    for (size_t nodes : {1, 3, 9}) {
      const size_t in_dim = 7, out_dim = 11;
      const TreeStructure structure = MakeTreeStructure(batch, nodes);
      Rng rng_a(301), rng_b(301), data_rng(302);
      TreeConvLayer scalar_layer(in_dim, out_dim, &rng_a);
      TreeConvLayer blocked_layer(in_dim, out_dim, &rng_b);
      ExecutionContext scalar(1), blocked(1);
      Pin(&scalar, KernelBackend::kScalar);
      Pin(&blocked, KernelBackend::kBlocked);
      scalar_layer.set_context(&scalar);
      blocked_layer.set_context(&blocked);
      const Tensor features = Tensor::Random({batch, nodes, in_dim}, &data_rng);
      const Tensor grad = Tensor::Random({batch, nodes, out_dim}, &data_rng);
      ExpectAllClose(blocked_layer.Forward(features, structure),
                     scalar_layer.Forward(features, structure),
                     "tree-conv forward");
      ExpectAllClose(blocked_layer.Backward(grad), scalar_layer.Backward(grad),
                     "tree-conv backward grad_input");
      auto sp = scalar_layer.Params();
      auto bp = blocked_layer.Params();
      ASSERT_EQ(sp.size(), bp.size());
      for (size_t p = 0; p < sp.size(); ++p) {
        ExpectAllClose(*bp[p].grad, *sp[p].grad, sp[p].name.c_str());
      }
    }
  }
}

TEST(LayerParityTest, TreeConvBlockedBitIdenticalAcrossThreadCounts) {
  const size_t batch = 9, nodes = 7, in_dim = 6, out_dim = 5;
  const TreeStructure structure = MakeTreeStructure(batch, nodes);
  Rng data_rng(311);
  const Tensor features = Tensor::Random({batch, nodes, in_dim}, &data_rng);
  const Tensor grad = Tensor::Random({batch, nodes, out_dim}, &data_rng);
  Rng rng_a(312), rng_b(312);
  TreeConvLayer one_layer(in_dim, out_dim, &rng_a);
  TreeConvLayer four_layer(in_dim, out_dim, &rng_b);
  ExecutionContext one(1), four(4);
  Pin(&one, KernelBackend::kBlocked);
  Pin(&four, KernelBackend::kBlocked);
  one_layer.set_context(&one);
  four_layer.set_context(&four);
  const Tensor& out1 = one_layer.Forward(features, structure);
  const Tensor& out4 = four_layer.Forward(features, structure);
  for (size_t i = 0; i < out1.size(); ++i) ASSERT_EQ(out4[i], out1[i]);
  const Tensor& gx1 = one_layer.Backward(grad);
  const Tensor& gx4 = four_layer.Backward(grad);
  for (size_t i = 0; i < gx1.size(); ++i) ASSERT_EQ(gx4[i], gx1[i]);
  auto p1 = one_layer.Params();
  auto p4 = four_layer.Params();
  for (size_t p = 0; p < p1.size(); ++p) {
    const Tensor& g1 = *p1[p].grad;
    const Tensor& g4 = *p4[p].grad;
    for (size_t i = 0; i < g1.size(); ++i) ASSERT_EQ(g4[i], g1[i]);
  }
}

// ---------------------------------------------------------------------------
// Resident (frozen) fp32 weights: bit-identical to the blocked backend
// ---------------------------------------------------------------------------

TEST(ResidentWeightsTest, Fp32IsBitIdenticalToBlockedPath) {
  Rng rng(21);
  ExecutionContext ctx(1);
  Pin(&ctx, KernelBackend::kBlocked);
  for (size_t m : {1, 8, 32}) {
    for (size_t k : {7, 64}) {
      for (size_t n : {5, 65}) {
        const Tensor a = Tensor::Random({m, k}, &rng);
        const Tensor b = Tensor::Random({k, n}, &rng);
        const Tensor bias = Tensor::Random({n}, &rng);
        Tensor want, got;
        MatMulBiasInto(&want, a, b, bias, &ctx);
        const ResidentWeights rw = ResidentWeights::Build(b);
        EXPECT_EQ(rw.resident_bytes(), GemmPackedBSize(k, n) * sizeof(float));
        rw.Gemm(&got, a, &bias, GemmEpilogue::kBias, &ctx);
        ASSERT_EQ(got.shape(), want.shape());
        for (size_t i = 0; i < want.size(); ++i) {
          ASSERT_EQ(got[i], want[i]) << "element " << i;
        }
      }
    }
  }
}

TEST(ResidentWeightsTest, FrozenLayersMatchTheBlockedForwardOnEitherBackend) {
  const size_t batch = 5, nodes = 9, in_dim = 7, out_dim = 11;
  const TreeStructure structure = MakeTreeStructure(batch, nodes);
  Rng data_rng(321);
  const Tensor features = Tensor::Random({batch, nodes, in_dim}, &data_rng);
  const Tensor rows = Tensor::Random({batch, in_dim}, &data_rng);
  ExecutionContext blocked(1);
  Pin(&blocked, KernelBackend::kBlocked);
  Rng rng_ref(322);
  TreeConvLayer conv_ref(in_dim, out_dim, &rng_ref);
  Dense dense_ref(in_dim, out_dim, &rng_ref);
  conv_ref.set_context(&blocked);
  dense_ref.set_context(&blocked);
  dense_ref.SetTraining(false);
  const Tensor conv_want = conv_ref.Forward(features, structure);
  const Tensor dense_want = dense_ref.Forward(rows);

  // The frozen forward takes the blocked im2col path with pre-packed panels
  // even on a scalar context, so it matches the blocked reference bit for
  // bit on both backends.
  for (KernelBackend backend :
       {KernelBackend::kScalar, KernelBackend::kBlocked}) {
    ExecutionContext ctx(1);
    Pin(&ctx, backend);
    Rng rng(322);
    TreeConvLayer conv(in_dim, out_dim, &rng);
    Dense dense(in_dim, out_dim, &rng);
    conv.set_context(&ctx);
    dense.set_context(&ctx);
    dense.SetTraining(false);
    EXPECT_EQ(conv.resident_weight_bytes(), 0u);
    conv.FreezeWeights();
    dense.FreezeWeights();
    EXPECT_GT(conv.resident_weight_bytes(), 0u);
    EXPECT_GT(dense.resident_weight_bytes(), 0u);
    const Tensor& conv_got = conv.Forward(features, structure);
    for (size_t i = 0; i < conv_want.size(); ++i) {
      ASSERT_EQ(conv_got[i], conv_want[i]) << "tree conv element " << i;
    }
    const Tensor& dense_got = dense.Forward(rows);
    for (size_t i = 0; i < dense_want.size(); ++i) {
      ASSERT_EQ(dense_got[i], dense_want[i]) << "dense element " << i;
    }
    conv.ThawWeights();
    dense.ThawWeights();
    EXPECT_EQ(conv.resident_weight_bytes(), 0u);
    EXPECT_EQ(dense.resident_weight_bytes(), 0u);
  }
}

TEST(ResidentWeightsDeathTest, BackwardOnAFrozenLayerFails) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const TreeStructure structure = MakeTreeStructure(2, 3);
  Rng rng(331);
  const Tensor features = Tensor::Random({2, 3, 4}, &rng);
  const Tensor grad = Tensor::Random({2, 3, 5}, &rng);
  TreeConvLayer conv(4, 5, &rng);
  conv.FreezeWeights();
  conv.Forward(features, structure);
  EXPECT_DEATH(conv.Backward(grad), "resident_");

  const Tensor rows = Tensor::Random({2, 4}, &rng);
  const Tensor dense_grad = Tensor::Random({2, 5}, &rng);
  Dense dense(4, 5, &rng);
  dense.Forward(rows);  // training-mode forward fills the input cache
  dense.FreezeWeights();
  EXPECT_DEATH(dense.Backward(dense_grad), "resident_");
}

// ---------------------------------------------------------------------------
// Aligned storage invariants
// ---------------------------------------------------------------------------

bool IsAligned(const void* p) {
  return reinterpret_cast<uintptr_t>(p) % AlignedBuffer::kAlignment == 0;
}

TEST(AlignedStorageTest, TensorDataIsAlwaysCacheLineAligned) {
  Rng rng(401);
  for (size_t n : {1, 3, 15, 16, 17, 64, 1000}) {
    Tensor t = Tensor::Random({n}, &rng);
    EXPECT_TRUE(IsAligned(t.data())) << "size " << n;
    Tensor copy = t;
    EXPECT_TRUE(IsAligned(copy.data()));
    Tensor moved = std::move(copy);
    EXPECT_TRUE(IsAligned(moved.data()));
    moved.ResetShape({n + 13});
    EXPECT_TRUE(IsAligned(moved.data()));
  }
  // Scratch-arena tensors carry the same guarantee.
  ExecutionContext ctx(1);
  Tensor scratch = ctx.AcquireScratch({37});
  EXPECT_TRUE(IsAligned(scratch.data()));
  ctx.ReleaseScratch(std::move(scratch));
}

TEST(AlignedStorageTest, BufferResizePreservesPrefixAndZeroFillsGrowth) {
  AlignedBuffer buf(5);
  for (size_t i = 0; i < 5; ++i) buf[i] = static_cast<float>(i + 1);
  buf.resize(80);
  EXPECT_TRUE(IsAligned(buf.data()));
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(buf[i], static_cast<float>(i + 1));
  for (size_t i = 5; i < 80; ++i) EXPECT_EQ(buf[i], 0.0f);
  // Shrink keeps the allocation; regrow within capacity re-zeroes the tail
  // (vector semantics).
  buf[10] = 42.0f;
  buf.resize(8);
  const size_t cap = buf.capacity();
  buf.resize(12);
  EXPECT_EQ(buf.capacity(), cap);
  EXPECT_EQ(buf[10], 0.0f);
  // Capacity is always a whole number of cache lines.
  EXPECT_EQ(buf.capacity() % AlignedBuffer::kPadFloats, 0u);
}

TEST(AlignedStorageTest, ReshapeInPlaceKeepsDataPointerAndBits) {
  Rng rng(402);
  Tensor t = Tensor::Random({6, 8}, &rng);
  const float* before = t.data();
  std::vector<float> snapshot(t.data(), t.data() + t.size());
  t.ReshapeInPlace({48});
  EXPECT_EQ(t.data(), before);
  t.ReshapeInPlace({2, 3, 8});
  EXPECT_EQ(t.data(), before);
  EXPECT_EQ(t.rank(), 3u);
  for (size_t i = 0; i < snapshot.size(); ++i) EXPECT_EQ(t[i], snapshot[i]);
}

// ---------------------------------------------------------------------------
// Raw kernel entry points (pack layout edges)
// ---------------------------------------------------------------------------

TEST(BlockedKernelTest, PackBZeroPadsPartialStrips) {
  const size_t k = 3;
  const size_t n = 2;  // far below any NR, so most of the strip is padding
  std::vector<float> b = {1, 2, 3, 4, 5, 6};  // [3, 2] row-major
  std::vector<float> packed(GemmPackedBSize(k, n), -1.0f);
  GemmPackB(k, n, b.data(), n, 1, packed.data());
  // One strip of width NR; element (kk, jj) lives at kk * NR + jj.
  const size_t nr = GemmPackedBSize(1, 1);  // k=1, n=1 -> exactly NR floats
  for (size_t kk = 0; kk < k; ++kk) {
    EXPECT_EQ(packed[kk * nr + 0], b[kk * n + 0]);
    EXPECT_EQ(packed[kk * nr + 1], b[kk * n + 1]);
    for (size_t jj = n; jj < nr; ++jj) EXPECT_EQ(packed[kk * nr + jj], 0.0f);
  }
}

TEST(BlockedKernelTest, RowTileIsPositive) {
  EXPECT_GE(GemmBlockedRowTile(), 1u);
}

}  // namespace
}  // namespace prestroid
