#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "nn/dense.h"
#include "nn/tree_conv.h"
#include "tensor/aligned_buffer.h"
#include "tensor/execution_context.h"
#include "tensor/kernels/gemm_kernels.h"
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
/// envelope between the blocked kernels and the naive oracles below
/// (DESIGN.md §5.3).
void ExpectAllClose(const Tensor& got, const Tensor& want,
                    const char* what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    const double tol =
        1e-5 * std::max(1.0, std::abs(static_cast<double>(want[i])));
    ASSERT_NEAR(got[i], want[i], tol) << what << " element " << i;
  }
}

// ---------------------------------------------------------------------------
// In-test oracles: plain loops with none of the blocked kernels' tiling,
// packing or zero skipping.
// ---------------------------------------------------------------------------

/// a @ b with a [m, k] ([k, m] with transpose_a) and b [k, n] ([n, k] with
/// transpose_b): each element sums its k terms in ascending k from zero,
/// one float multiply and add per term.
Tensor NaiveMatMul(const Tensor& a, const Tensor& b, bool transpose_a = false,
                   bool transpose_b = false) {
  const size_t m = transpose_a ? a.dim(1) : a.dim(0);
  const size_t k = transpose_a ? a.dim(0) : a.dim(1);
  const size_t n = transpose_b ? b.dim(0) : b.dim(1);
  EXPECT_EQ(transpose_b ? b.dim(1) : b.dim(0), k);
  Tensor c({m, n});
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (size_t kk = 0; kk < k; ++kk) {
        const float av = transpose_a ? a.At(kk, i) : a.At(i, kk);
        const float bv = transpose_b ? b.At(j, kk) : b.At(kk, j);
        acc += av * bv;
      }
      c.At(i, j) = acc;
    }
  }
  return c;
}

/// c[i, j] += bias[j].
void AddBias(Tensor* c, const Tensor& bias) {
  for (size_t i = 0; i < c->dim(0); ++i) {
    for (size_t j = 0; j < c->dim(1); ++j) c->At(i, j) += bias[j];
  }
}

/// a @ b (+ bias, when non-null) by the blocked kernel itself, serially: b
/// packed into a fresh panel, every row in one GemmBlockedRows call.
Tensor KernelGemm(const Tensor& a, const Tensor& b, const Tensor* bias) {
  const size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  std::vector<float> packed(GemmPackedBSize(k, n));
  GemmPackB(k, n, b.data(), /*rsb=*/n, /*csb=*/1, packed.data());
  Tensor c({m, n});
  GemmBlockedRows(0, m, k, n, a.data(), /*rsa=*/k, /*csa=*/1, packed.data(),
                  c.data(), n, bias != nullptr ? bias->data() : nullptr,
                  /*accumulate=*/false);
  return c;
}

/// a @ b + bias through a packed panel (ResidentWeights::Pack + Gemm), the
/// path a Dense forward runs.
Tensor PanelGemm(const Tensor& a, const Tensor& b, const Tensor& bias,
                 ExecutionContext* ctx) {
  ResidentWeights panel;
  panel.Pack(b);
  Tensor out;
  panel.Gemm(&out, a, bias, ctx);
  return out;
}

/// Column sums of a [m, n], rows ascending.
Tensor ColumnSums(const Tensor& a) {
  Tensor sums({a.dim(1)});
  for (size_t i = 0; i < a.dim(0); ++i) {
    for (size_t j = 0; j < a.dim(1); ++j) sums[j] += a.At(i, j);
  }
  return sums;
}

/// `batch` trees of `nodes` rows each, in the ragged row layout.
TreeStructure MakeTreeStructure(size_t batch, size_t nodes) {
  TreeStructure s;
  s.left.assign(batch * nodes, -1);
  s.right.assign(batch * nodes, -1);
  s.mask.assign(batch * nodes, 1.0f);
  for (size_t b = 0; b <= batch; ++b) s.offsets.push_back(b * nodes);
  for (size_t b = 0; b < batch; ++b) {
    const int base = static_cast<int>(b * nodes);
    for (size_t i = 0; 2 * i + 1 < nodes; ++i) {
      s.left[b * nodes + i] = base + static_cast<int>(2 * i + 1);
      // Leave some right children null so the zero-window path is covered.
      if (2 * i + 2 < nodes && (i + b) % 3 != 0) {
        s.right[b * nodes + i] = base + static_cast<int>(2 * i + 2);
      }
    }
  }
  return s;
}

/// Each row's (self, left, right) input rows gathered into one [rows, 3*in]
/// matrix, zeros for a null child: the im2col lowering of the tree conv.
Tensor GatherWindows(const Tensor& x, const TreeStructure& structure,
                     size_t in) {
  const size_t rows = structure.num_rows();
  Tensor windows({rows, 3 * in});
  for (size_t r = 0; r < rows; ++r) {
    const int window[3] = {static_cast<int>(r), structure.left[r],
                           structure.right[r]};
    for (size_t p = 0; p < 3; ++p) {
      if (window[p] < 0) continue;
      std::memcpy(windows.data() + r * 3 * in + p * in,
                  x.data() + static_cast<size_t>(window[p]) * in,
                  in * sizeof(float));
    }
  }
  return windows;
}

/// The layer's [W_self; W_left; W_right] ([3*in, out]).
Tensor StackedKernels(TreeConvLayer* layer) {
  const size_t wsz = layer->in_features() * layer->out_features();
  Tensor stacked({3 * layer->in_features(), layer->out_features()});
  std::vector<ParamRef> params = layer->Params();
  for (size_t p = 0; p < 3; ++p) {
    std::memcpy(stacked.data() + p * wsz, params[p].value->data(),
                wsz * sizeof(float));
  }
  return stacked;
}

// ---------------------------------------------------------------------------
// GEMM parity: the blocked kernels vs the naive oracle across odd shapes and
// all operand layouts
// ---------------------------------------------------------------------------

TEST(GemmParityTest, MatMulAcrossOddShapes) {
  Rng rng(101);
  for (size_t m : kOddSizes) {
    for (size_t k : kOddSizes) {
      for (size_t n : kOddSizes) {
        const Tensor a = Tensor::Random({m, k}, &rng);
        const Tensor b = Tensor::Random({k, n}, &rng);
        ExpectAllClose(KernelGemm(a, b, nullptr), NaiveMatMul(a, b),
                       "matmul");
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
      ExecutionContext ctx(1);
      Tensor want = NaiveMatMul(a, b);
      AddBias(&want, bias);
      Tensor got = PanelGemm(a, b, bias, &ctx);
      ExpectAllClose(got, want, "matmul+bias");
      ReluInto(&got, got, &ctx);
      for (size_t i = 0; i < want.size(); ++i) want[i] = std::max(0.0f, want[i]);
      ExpectAllClose(got, want, "matmul+bias+relu");
      for (size_t i = 0; i < got.size(); ++i) ASSERT_GE(got[i], 0.0f);
    }
  }
}

TEST(GemmParityTest, FusedBiasMatchesUnfusedComposition) {
  Rng rng(103);
  const Tensor a = Tensor::Random({33, 21}, &rng);
  const Tensor b = Tensor::Random({21, 19}, &rng);
  const Tensor bias = Tensor::Random({19}, &rng);
  ExecutionContext ctx(1);
  const Tensor fused = PanelGemm(a, b, bias, &ctx);
  Tensor unfused = KernelGemm(a, b, nullptr);
  AddBias(&unfused, bias);
  // Same kernel, same accumulation order: the fusion itself must be
  // bit-exact, not merely close.
  ASSERT_EQ(fused.shape(), unfused.shape());
  for (size_t i = 0; i < fused.size(); ++i) {
    ASSERT_EQ(fused[i], unfused[i]) << "element " << i;
  }
}

TEST(GemmParityTest, TransposeAAcrossOddShapes) {
  Rng rng(104);
  for (size_t m : kOddSizes) {
    for (size_t n : kOddSizes) {
      const size_t k = 23;
      const Tensor a = Tensor::Random({k, m}, &rng);
      const Tensor b = Tensor::Random({k, n}, &rng);
      ExecutionContext ctx(1);
      Tensor got;
      MatMulTransposeAInto(&got, a, b, &ctx);
      ExpectAllClose(got, NaiveMatMul(a, b, /*transpose_a=*/true),
                     "matmul-transpose-a");
    }
  }
}

TEST(GemmParityTest, TransposeAOverwritesStaleOutput) {
  // The kernel accumulates onto the output, so the op must zero it first:
  // a stale workspace's values may not leak into the product.
  Rng rng(105);
  const Tensor a = Tensor::Random({13, 7}, &rng);
  const Tensor b = Tensor::Random({13, 9}, &rng);
  ExecutionContext ctx(1);
  Tensor got = Tensor::Full({7, 9}, 2.5f);
  MatMulTransposeAInto(&got, a, b, &ctx);
  ExpectAllClose(got, NaiveMatMul(a, b, /*transpose_a=*/true),
                 "matmul-transpose-a over a stale output");
}

TEST(GemmParityTest, TransposeBAcrossOddShapes) {
  Rng rng(106);
  for (size_t m : kOddSizes) {
    for (size_t n : kOddSizes) {
      const size_t k = 31;
      const Tensor a = Tensor::Random({m, k}, &rng);
      const Tensor b = Tensor::Random({n, k}, &rng);
      ExecutionContext ctx(1);
      Tensor got;
      MatMulTransposeBInto(&got, a, b, &ctx);
      ExpectAllClose(got,
                     NaiveMatMul(a, b, /*transpose_a=*/false,
                                 /*transpose_b=*/true),
                     "matmul-transpose-b");
    }
  }
}

TEST(GemmParityTest, EmptyAndZeroRowEdges) {
  Rng rng(107);
  ExecutionContext blocked(1);
  // m == 0: empty output, no kernel invocations on data.
  {
    const Tensor a({0, 5});
    const Tensor b = Tensor::Random({5, 4}, &rng);
    const Tensor out = PanelGemm(a, b, Tensor({4}), &blocked);
    EXPECT_EQ(out.dim(0), 0u);
    EXPECT_EQ(out.dim(1), 4u);
  }
  // All-zero A rows: the blocked kernel has no data-dependent skip, so this
  // must still produce exact zeros (0 * x + 0 * y ... is exactly 0).
  {
    const Tensor a({4, 6});
    const Tensor b = Tensor::Random({6, 3}, &rng);
    const Tensor out = KernelGemm(a, b, nullptr);
    for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], 0.0f);
  }
  // k == 0 degenerate reduction: product is zero, epilogue still applies.
  {
    const Tensor a({3, 0});
    const Tensor b({0, 5});
    const Tensor bias = Tensor::Random({5}, &rng);
    const Tensor out = PanelGemm(a, b, bias, &blocked);
    ASSERT_EQ(out.dim(0), 3u);
    for (size_t r = 0; r < 3; ++r) {
      for (size_t c = 0; c < 5; ++c) EXPECT_EQ(out.At(r, c), bias[c]);
    }
  }
}

TEST(GemmParityDeathTest, OpsRequireAContext) {
  // There is no serial fallback behind a null context: every op CHECKs it.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Rng rng(109);
  const Tensor a = Tensor::Random({3, 4}, &rng);
  const Tensor b = Tensor::Random({4, 5}, &rng);
  Tensor out;
  EXPECT_DEATH(MatMulTransposeAInto(&out, a, a, nullptr), "ctx != nullptr");
  EXPECT_DEATH(MatMulTransposeBInto(&out, a, a, nullptr), "ctx != nullptr");
  EXPECT_DEATH(ReluInto(&out, a, nullptr), "ctx != nullptr");
}

TEST(GemmParityTest, BlockedBitIdenticalAcrossThreadCounts) {
  Rng rng(108);
  const Tensor a = Tensor::Random({65, 37}, &rng);
  const Tensor b = Tensor::Random({37, 41}, &rng);
  const Tensor bias = Tensor::Random({41}, &rng);
  ExecutionContext one(1);
  const Tensor ref = PanelGemm(a, b, bias, &one);
  for (size_t threads : {2u, 4u}) {
    ExecutionContext ctx(threads);
    const Tensor got = PanelGemm(a, b, bias, &ctx);
    // The register block accumulates the full reduction per output element,
    // so chunk boundaries cannot change a bit.
    ASSERT_EQ(got.size(), ref.size());
    for (size_t i = 0; i < ref.size(); ++i) ASSERT_EQ(got[i], ref[i]);
  }
}

// ---------------------------------------------------------------------------
// Layer parity: dense and tree-conv forward/backward against the oracles
// ---------------------------------------------------------------------------

TEST(LayerParityTest, DenseForwardBackwardMatchesNaiveOracle) {
  for (size_t batch : {1, 7, 65}) {
    Rng rng(201), data_rng(202);
    Dense layer(17, 9, &rng);
    layer.bias() = Tensor::Random({9}, &data_rng);
    ExecutionContext ctx(1);
    layer.set_context(&ctx);
    const Tensor input = Tensor::Random({batch, 17}, &data_rng);
    const Tensor grad = Tensor::Random({batch, 9}, &data_rng);
    Tensor want_y = NaiveMatMul(input, layer.weight());
    AddBias(&want_y, layer.bias());
    ExpectAllClose(layer.Forward(input), want_y, "dense forward");
    ExpectAllClose(layer.Backward(grad),
                   NaiveMatMul(grad, layer.weight(), /*transpose_a=*/false,
                               /*transpose_b=*/true),
                   "dense backward grad_input");
    // A fresh layer's gradients are zero, so after one Backward they hold
    // this batch's terms.
    const std::vector<ParamRef> params = layer.Params();
    ASSERT_EQ(params.size(), 2u);
    ExpectAllClose(*params[0].grad,
                   NaiveMatMul(input, grad, /*transpose_a=*/true), "weight");
    ExpectAllClose(*params[1].grad, ColumnSums(grad), "bias");
  }
}

TEST(LayerParityTest, TreeConvForwardBackwardMatchesNaiveOracle) {
  for (size_t batch : {1, 5}) {
    for (size_t nodes : {1, 3, 9}) {
      const size_t in_dim = 7, out_dim = 11;
      const TreeStructure structure = MakeTreeStructure(batch, nodes);
      const size_t rows = structure.num_rows();
      Rng rng(301), data_rng(302);
      TreeConvLayer layer(in_dim, out_dim, &rng);
      ExecutionContext ctx(1);
      layer.set_context(&ctx);
      const Tensor features = Tensor::Random({batch, nodes, in_dim}, &data_rng);
      const Tensor grad = Tensor::Random({batch, nodes, out_dim}, &data_rng);
      Tensor x = features;
      x.ReshapeInPlace({rows, in_dim});
      Tensor gy = grad;
      gy.ReshapeInPlace({rows, out_dim});

      // Forward: max(0, windows @ [W_s; W_l; W_r] + b).
      const Tensor windows = GatherWindows(x, structure, in_dim);
      const Tensor stacked = StackedKernels(&layer);
      Tensor want_y = NaiveMatMul(windows, stacked);
      AddBias(&want_y, *layer.Params()[3].value);
      for (size_t i = 0; i < want_y.size(); ++i) {
        want_y[i] = std::max(0.0f, want_y[i]);
      }
      ExpectAllClose(layer.Forward(features, structure), want_y,
                     "tree-conv forward");

      // Backward: the gradient masked by y > 0; the stacked weight gradient
      // windows^T @ gy; the input gradient gy @ [W_s; W_l; W_r]^T scattered
      // through the window map.
      Tensor masked({rows, out_dim});
      for (size_t i = 0; i < masked.size(); ++i) {
        masked[i] = want_y[i] > 0.0f ? gy[i] : 0.0f;
      }
      const Tensor window_grad = NaiveMatMul(masked, stacked,
                                             /*transpose_a=*/false,
                                             /*transpose_b=*/true);
      Tensor want_gx({rows, in_dim});
      for (size_t r = 0; r < rows; ++r) {
        const int window[3] = {static_cast<int>(r), structure.left[r],
                               structure.right[r]};
        for (size_t p = 0; p < 3; ++p) {
          if (window[p] < 0) continue;
          for (size_t i = 0; i < in_dim; ++i) {
            want_gx.At(static_cast<size_t>(window[p]), i) +=
                window_grad.At(r, p * in_dim + i);
          }
        }
      }
      ExpectAllClose(layer.Backward(grad), want_gx,
                     "tree-conv backward grad_input");
      const Tensor stacked_grad =
          NaiveMatMul(windows, masked, /*transpose_a=*/true);
      const std::vector<ParamRef> params = layer.Params();
      const size_t wsz = in_dim * out_dim;
      for (size_t p = 0; p < 3; ++p) {
        Tensor slice({in_dim, out_dim});
        std::memcpy(slice.data(), stacked_grad.data() + p * wsz,
                    wsz * sizeof(float));
        ExpectAllClose(*params[p].grad, slice, params[p].name.c_str());
      }
      ExpectAllClose(*params[3].grad, ColumnSums(masked), "bias");
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
// The gathered-window (im2col) oracle for the blocked tree conv
// ---------------------------------------------------------------------------

/// max(0, windows @ [W_self; W_left; W_right] + b) as one blocked GEMM with
/// the fused bias, then the ReLU.
Tensor GatheredWindowForward(TreeConvLayer* layer, const Tensor& x,
                             const TreeStructure& structure,
                             ExecutionContext* blocked) {
  Tensor out = PanelGemm(GatherWindows(x, structure, layer->in_features()),
                         StackedKernels(layer), *layer->Params()[3].value,
                         blocked);
  ReluInto(&out, out, blocked);
  return out;
}

/// The stacked weight gradient windows^T @ (gy masked by y > 0) as one
/// blocked A^T GEMM.
Tensor GatheredWindowWeightGradient(const Tensor& x, const Tensor& y,
                                    const Tensor& gy,
                                    const TreeStructure& structure, size_t in,
                                    ExecutionContext* blocked) {
  Tensor masked(y.shape());
  for (size_t i = 0; i < masked.size(); ++i) {
    masked[i] = y[i] > 0.0f ? gy[i] : 0.0f;
  }
  Tensor wg;
  MatMulTransposeAInto(&wg, GatherWindows(x, structure, in), masked, blocked);
  return wg;
}

void ExpectSameBits(const Tensor& got, const Tensor& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(std::signbit(got[i]), std::signbit(want[i]))
        << what << " element " << i;
    ASSERT_EQ(got[i], want[i]) << what << " element " << i;
  }
}

// ---------------------------------------------------------------------------
// Resident (frozen) fp32 weights: bit-identical to the blocked kernel
// ---------------------------------------------------------------------------

TEST(ResidentWeightsTest, Fp32IsBitIdenticalToBlockedPath) {
  Rng rng(21);
  ExecutionContext ctx(1);
  for (size_t m : {1, 8, 32}) {
    for (size_t k : {7, 64}) {
      for (size_t n : {5, 65}) {
        const Tensor a = Tensor::Random({m, k}, &rng);
        const Tensor b = Tensor::Random({k, n}, &rng);
        const Tensor bias = Tensor::Random({n}, &rng);
        const Tensor want = KernelGemm(a, b, &bias);
        ResidentWeights rw;
        rw.Pack(b);
        EXPECT_EQ(rw.resident_bytes(), GemmPackedBSize(k, n) * sizeof(float));
        Tensor got;
        rw.Gemm(&got, a, bias, &ctx);
        ASSERT_EQ(got.shape(), want.shape());
        for (size_t i = 0; i < want.size(); ++i) {
          ASSERT_EQ(got[i], want[i]) << "element " << i;
        }
      }
    }
  }
}

TEST(ResidentWeightsTest, FrozenLayersMatchTheThawedForward) {
  const size_t batch = 5, nodes = 9, in_dim = 7, out_dim = 11;
  const TreeStructure structure = MakeTreeStructure(batch, nodes);
  Rng data_rng(321);
  const Tensor features = Tensor::Random({batch, nodes, in_dim}, &data_rng);
  const Tensor rows = Tensor::Random({batch, in_dim}, &data_rng);
  ExecutionContext ctx(1);
  Rng rng_ref(322);
  TreeConvLayer conv_ref(in_dim, out_dim, &rng_ref);
  Dense dense_ref(in_dim, out_dim, &rng_ref);
  dense_ref.set_context(&ctx);
  dense_ref.SetTraining(false);
  const Tensor conv_want =
      GatheredWindowForward(&conv_ref, features, structure, &ctx);
  const Tensor dense_want = dense_ref.Forward(rows);

  // The frozen forward runs the same kernels on panels packed once, so it
  // matches the repacking reference bit for bit.
  Rng rng(322);
  TreeConvLayer conv(in_dim, out_dim, &rng);
  Dense dense(in_dim, out_dim, &rng);
  conv.set_context(&ctx);
  dense.set_context(&ctx);
  dense.SetTraining(false);
  conv.FreezeWeights();
  dense.FreezeWeights();
  const Tensor& conv_got = conv.Forward(features, structure);
  for (size_t i = 0; i < conv_want.size(); ++i) {
    ASSERT_EQ(conv_got[i], conv_want[i]) << "tree conv element " << i;
  }
  const Tensor& dense_got = dense.Forward(rows);
  for (size_t i = 0; i < dense_want.size(); ++i) {
    ASSERT_EQ(dense_got[i], dense_want[i]) << "dense element " << i;
  }
}

/// `items` plans of three trees each, sized {nodes, 0, 3}: the middle tree
/// is empty, as for a plan with fewer sub-trees than K. Each tree is a
/// heap-ordered binary tree whose right children are partly missing.
TreeStructure MakePlanBatch(size_t items, size_t nodes) {
  TreeStructure s;
  s.offsets.push_back(0);
  for (size_t item = 0; item < items; ++item) {
    for (size_t count : {nodes, size_t{0}, size_t{3}}) {
      const int base = static_cast<int>(s.left.size());
      for (size_t i = 0; i < count; ++i) {
        const bool has_left = 2 * i + 1 < count;
        const bool has_right = 2 * i + 2 < count && (i + item) % 3 != 0;
        s.left.push_back(has_left ? base + static_cast<int>(2 * i + 1) : -1);
        s.right.push_back(has_right ? base + static_cast<int>(2 * i + 2) : -1);
        s.mask.push_back(1.0f);
      }
      s.offsets.push_back(s.left.size());
    }
  }
  return s;
}

/// Rows shaped like the featurizer's: [operator 1-hot | predicate block |
/// table 1-hot], cycling operator, predicate, table and all-zero Ø rows.
/// Predicate blocks hold an exact -0.0 and an exact +0.0 among random
/// values, and every eleventh row has a -0.0 in its operator block (an
/// operator row's 1 becomes -0.0).
Tensor FeaturizerRows(size_t rows, size_t ops, size_t pred, size_t tables,
                      Rng* rng) {
  const size_t width = ops + pred + tables;
  Tensor x({rows, width});
  for (size_t r = 0; r < rows; ++r) {
    float* row = x.data() + r * width;
    const size_t slot = static_cast<size_t>(rng->UniformInt(0, 1000));
    switch (r % 4) {
      case 0: row[slot % ops] = 1.0f; break;
      case 1:
        for (size_t i = 0; i < pred; ++i) {
          row[ops + i] = static_cast<float>(rng->Uniform(-1.0, 1.0));
        }
        row[ops + slot % pred] = -0.0f;
        row[ops + (slot + 1) % pred] = 0.0f;
        break;
      case 2: row[ops + pred + slot % tables] = 1.0f; break;
      default: break;  // Ø
    }
    if (r % 11 == 10) row[slot % ops] = -0.0f;
  }
  return x;
}

TEST(TreeConvKernelTest, NonzeroListsMatchTheGatheredWindowGemmsBitForBit) {
  // A thawed blocked trunk of two layers reads only nonzeros in its forward
  // and its weight gradients; the oracle gathers full windows into blocked
  // GEMMs. Same weights, same bits: featurizer rows with -0.0 entries and
  // all-zero Ø rows, missing children, empty trees, the first layer at 32
  // and at the GRAB model's 512 channels, and a second layer reading the
  // first one's ReLU outputs.
  const size_t ops = 13, pred = 32, tables = 40, in = ops + pred + tables;
  for (size_t out : {32, 512}) {
    for (size_t items : {1, 32}) {
      for (size_t nodes : {1, 9, 15}) {
        const TreeStructure structure = MakePlanBatch(items, nodes);
        Rng data_rng(361 + nodes + items);
        const Tensor x = FeaturizerRows(structure.num_rows(), ops, pred,
                                        tables, &data_rng);
        const Tensor grad =
            Tensor::Random({structure.num_rows(), out}, &data_rng);
        ExecutionContext ctx(1);
        Rng rng(362);
        TreeConvLayer first(in, out, &rng);
        TreeConvLayer second(out, out, &rng);
        first.set_context(&ctx);
        second.set_context(&ctx);
        // Nonzero biases, so the epilogue is exercised as well.
        for (TreeConvLayer* layer : {&first, &second}) {
          Rng bias_rng(363);
          Tensor& bias = *layer->Params()[3].value;
          for (size_t o = 0; o < out; ++o) {
            bias[o] = static_cast<float>(bias_rng.Uniform(-0.1, 0.1));
          }
        }
        const Tensor& y1 = first.Forward(x, structure);
        ExpectSameBits(y1, GatheredWindowForward(&first, x, structure, &ctx),
                       "first layer forward");
        const Tensor& y2 = second.Forward(y1, structure);
        ExpectSameBits(y2, GatheredWindowForward(&second, y1, structure, &ctx),
                       "second layer forward");

        // Fresh layers hold zero gradients, so after one Backward each
        // position's gradient is its slice of the stacked oracle.
        const Tensor g1 = second.Backward(grad);
        first.Backward(g1);
        const Tensor want2 = GatheredWindowWeightGradient(y1, y2, grad,
                                                          structure, out, &ctx);
        const Tensor want1 =
            GatheredWindowWeightGradient(x, y1, g1, structure, in, &ctx);
        for (auto [layer, want] :
             {std::pair{&first, &want1}, std::pair{&second, &want2}}) {
          const std::vector<ParamRef> params = layer->Params();
          const size_t wsz = layer->in_features() * out;
          for (size_t p = 0; p < 3; ++p) {
            Tensor slice({layer->in_features(), out});
            std::memcpy(slice.data(), want->data() + p * wsz,
                        wsz * sizeof(float));
            ExpectSameBits(*params[p].grad, slice, params[p].name.c_str());
          }
        }
      }
    }
  }
}

TEST(ResidentWeightsTest, FrozenFirstLayerMatchesTheResidentGemmBitForBit) {
  // The frozen forward reads only nonzeros; the oracle gathers full windows
  // into the blocked GEMM. Same weights, same bits, including the
  // 512-channel layer of the paper's GRAB model and a dense second layer
  // reading the first one's ReLU outputs.
  const size_t ops = 13, pred = 32, tables = 40, in = ops + pred + tables;
  for (size_t out : {32, 512}) {
    for (size_t items : {1, 32}) {
      for (size_t nodes : {1, 9, 15}) {
        const TreeStructure structure = MakePlanBatch(items, nodes);
        Rng data_rng(341 + nodes + items);
        const Tensor x = FeaturizerRows(structure.num_rows(), ops, pred,
                                        tables, &data_rng);
        ExecutionContext ctx(1);
        Rng rng(342);
        TreeConvLayer first(in, out, &rng);
        TreeConvLayer second(out, out, &rng);
        first.set_context(&ctx);
        second.set_context(&ctx);
        // Nonzero biases, so the epilogue is exercised as well.
        for (TreeConvLayer* layer : {&first, &second}) {
          Rng bias_rng(343);
          Tensor& bias = *layer->Params()[3].value;
          for (size_t o = 0; o < out; ++o) {
            bias[o] = static_cast<float>(bias_rng.Uniform(-0.1, 0.1));
          }
        }
        const Tensor want = GatheredWindowForward(&first, x, structure, &ctx);
        const Tensor want2 =
            GatheredWindowForward(&second, want, structure, &ctx);
        first.FreezeWeights();
        second.FreezeWeights();
        ctx.ResetStats();
        const Tensor& got = first.Forward(x, structure);
        const uint64_t flops = ctx.stats().flops;
        ASSERT_EQ(got.shape(), want.shape());
        for (size_t i = 0; i < want.size(); ++i) {
          ASSERT_EQ(std::signbit(got[i]), std::signbit(want[i]))
              << "out " << out << " items " << items << " element " << i;
          ASSERT_EQ(got[i], want[i])
              << "out " << out << " items " << items << " element " << i;
        }
        const Tensor& got2 = second.Forward(got, structure);
        for (size_t i = 0; i < want2.size(); ++i) {
          ASSERT_EQ(got2[i], want2[i]) << "second layer element " << i;
          ASSERT_EQ(std::signbit(got2[i]), std::signbit(want2[i]));
        }
        // ExecStats counts the multiply-adds issued: one per window nonzero
        // and output column, plus the bias+ReLU epilogue.
        auto nonzeros = [&](int row) {
          size_t count = 0;
          if (row < 0) return count;
          for (size_t i = 0; i < in; ++i) {
            count += x[static_cast<size_t>(row) * in + i] != 0.0f;
          }
          return count;
        };
        uint64_t terms = 0;
        for (size_t r = 0; r < structure.num_rows(); ++r) {
          terms += nonzeros(static_cast<int>(r)) +
                   nonzeros(structure.left[r]) + nonzeros(structure.right[r]);
        }
        EXPECT_EQ(flops, 2 * terms * out + 2ull * structure.num_rows() * out);
      }
    }
  }
}

TEST(ResidentWeightsTest, FrozenFirstLayerKeepsNaNAndInfinityInputs) {
  // Only exact zeros are skipped: a NaN or an infinity in a row still
  // reaches every output its window touches, as in the dense GEMM.
  const TreeStructure structure = MakePlanBatch(2, 7);
  Rng data_rng(351);
  Tensor x = FeaturizerRows(structure.num_rows(), 5, 8, 6, &data_rng);
  x[1 * 19 + 7] = std::nanf("");
  x[4 * 19 + 2] = std::numeric_limits<float>::infinity();
  ExecutionContext ctx(1);
  Rng rng(352);
  TreeConvLayer conv(19, 24, &rng);
  conv.set_context(&ctx);
  const Tensor want = GatheredWindowForward(&conv, x, structure, &ctx);
  conv.FreezeWeights();
  const Tensor& got = conv.Forward(x, structure);
  for (size_t i = 0; i < want.size(); ++i) {
    if (std::isnan(want[i])) {
      ASSERT_TRUE(std::isnan(got[i])) << "element " << i;
    } else {
      ASSERT_EQ(got[i], want[i]) << "element " << i;
    }
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
  EXPECT_DEATH(conv.Backward(grad), "frozen_");

  const Tensor rows = Tensor::Random({2, 4}, &rng);
  const Tensor dense_grad = Tensor::Random({2, 5}, &rng);
  Dense dense(4, 5, &rng);
  dense.Forward(rows);  // training-mode forward fills the input cache
  dense.FreezeWeights();
  EXPECT_DEATH(dense.Backward(dense_grad), "frozen_");
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
