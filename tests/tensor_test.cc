#include <gtest/gtest.h>

#include <cmath>

#include "tensor/kernels/resident_weights.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/random.h"

namespace prestroid {
namespace {

TEST(TensorTest, ZeroInitialized) {
  Tensor t({2, 3});
  EXPECT_EQ(t.size(), 6u);
  EXPECT_EQ(t.rank(), 2u);
  for (size_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(TensorTest, ConstructFromData) {
  Tensor t({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(t.At(0, 0), 1.0f);
  EXPECT_EQ(t.At(0, 1), 2.0f);
  EXPECT_EQ(t.At(1, 0), 3.0f);
  EXPECT_EQ(t.At(1, 1), 4.0f);
}

TEST(TensorTest, ThreeDimAccess) {
  Tensor t({2, 3, 4});
  t.At(1, 2, 3) = 7.0f;
  EXPECT_EQ(t[1 * 12 + 2 * 4 + 3], 7.0f);
}

TEST(TensorTest, ReshapePreservesData) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = t.Reshape({3, 2});
  EXPECT_EQ(r.At(2, 1), 6.0f);
  EXPECT_EQ(r.size(), t.size());
}

TEST(TensorTest, FillAndScale) {
  Tensor t({4});
  t.Fill(2.0f);
  t *= 3.0f;
  EXPECT_EQ(t.Sum(), 24.0f);
  EXPECT_EQ(t.Mean(), 6.0f);
}

TEST(TensorTest, AddSubInPlace) {
  Tensor a({3}, {1, 2, 3});
  Tensor b({3}, {4, 5, 6});
  a += b;
  EXPECT_TRUE(a.AllClose(Tensor({3}, {5, 7, 9})));
  a -= b;
  EXPECT_TRUE(a.AllClose(Tensor({3}, {1, 2, 3})));
}

TEST(TensorTest, MinMax) {
  Tensor t({4}, {-1, 5, 2, 0});
  EXPECT_EQ(t.Min(), -1.0f);
  EXPECT_EQ(t.Max(), 5.0f);
}

TEST(TensorTest, AllCloseShapeMismatch) {
  Tensor a({2, 2});
  Tensor b({4});
  EXPECT_FALSE(a.AllClose(b));
}

TEST(TensorTest, GlorotWithinLimit) {
  Rng rng(1);
  Tensor w = Tensor::GlorotUniform(100, 50, &rng);
  float limit = std::sqrt(6.0f / 150.0f);
  EXPECT_LE(w.Max(), limit);
  EXPECT_GE(w.Min(), -limit);
  EXPECT_NEAR(w.Mean(), 0.0f, 0.01f);
}

TEST(TensorTest, ToStringTruncates) {
  Tensor t({100});
  std::string s = t.ToString(4);
  EXPECT_NE(s.find("..."), std::string::npos);
  EXPECT_NE(s.find("Tensor[100]"), std::string::npos);
}

/// a @ b + bias through b's packed panel, the forward product of a Dense
/// layer.
Tensor PanelMatMul(const Tensor& a, const Tensor& b, const Tensor& bias,
                   ExecutionContext* ctx) {
  ResidentWeights panel;
  panel.Pack(b);
  Tensor out;
  panel.Gemm(&out, a, bias, ctx);
  return out;
}

TEST(OpsTest, MatMulKnownValues) {
  ExecutionContext ctx(1);
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = PanelMatMul(a, b, Tensor({2}), &ctx);
  EXPECT_TRUE(c.AllClose(Tensor({2, 2}, {58, 64, 139, 154})));
}

/// The transpose of a rank-2 tensor.
Tensor Transposed(const Tensor& a) {
  Tensor t({a.dim(1), a.dim(0)});
  for (size_t i = 0; i < a.dim(0); ++i) {
    for (size_t j = 0; j < a.dim(1); ++j) t.At(j, i) = a.At(i, j);
  }
  return t;
}

// Property sweep: MatMulTransposeA/B agree with MatMul over explicitly
// transposed operands.
class MatMulParamTest : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatMulParamTest, TransposedVariantsAgree) {
  auto [m, k, n] = GetParam();
  Rng rng(static_cast<uint64_t>(m * 100 + k * 10 + n));
  Tensor a = Tensor::Random({static_cast<size_t>(m), static_cast<size_t>(k)}, &rng);
  Tensor b = Tensor::Random({static_cast<size_t>(k), static_cast<size_t>(n)}, &rng);
  ExecutionContext ctx(1);
  const Tensor expected =
      PanelMatMul(a, b, Tensor({static_cast<size_t>(n)}), &ctx);
  Tensor got_a, got_b;
  MatMulTransposeAInto(&got_a, Transposed(a), b, &ctx);
  MatMulTransposeBInto(&got_b, a, Transposed(b), &ctx);
  EXPECT_TRUE(got_a.AllClose(expected, 1e-4f));
  EXPECT_TRUE(got_b.AllClose(expected, 1e-4f));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatMulParamTest,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(2, 3, 4),
                      std::make_tuple(7, 5, 3), std::make_tuple(16, 16, 16),
                      std::make_tuple(1, 32, 8), std::make_tuple(10, 1, 10)));

TEST(OpsTest, MatMulBiasBroadcastsOverRows) {
  ExecutionContext ctx(1);
  Tensor a({2, 1}, {1, 2});
  Tensor b({1, 3}, {1, 1, 1});
  Tensor bias({3}, {1, 2, 3});
  Tensor out = PanelMatMul(a, b, bias, &ctx);
  EXPECT_TRUE(out.AllClose(Tensor({2, 3}, {2, 3, 4, 3, 4, 5})));
}

TEST(OpsTest, RowReductions) {
  ExecutionContext ctx(1);
  Tensor a({3, 2}, {1, 4, 2, 5, 3, 6});
  Tensor sums({2}, {10, 20});
  SumRowsAccumulate(&sums, a, &ctx);
  EXPECT_TRUE(sums.AllClose(Tensor({2}, {16, 35})));
}

TEST(OpsTest, ElementwiseActivations) {
  ExecutionContext ctx(1);
  Tensor a({4}, {-2, -0.5, 0.5, 2});
  Tensor r, s;
  ReluInto(&r, a, &ctx);
  EXPECT_TRUE(r.AllClose(Tensor({4}, {0, 0, 0.5, 2})));
  SigmoidInto(&s, Tensor({1}, {0}), &ctx);
  EXPECT_NEAR(s[0], 0.5f, 1e-6f);
  // In place: `out` may alias `a`.
  ReluInto(&a, a, &ctx);
  EXPECT_TRUE(a.AllClose(r));
}

TEST(OpsTest, MulElementwise) {
  ExecutionContext ctx(1);
  Tensor a({3}, {1, 2, 3});
  Tensor b({3}, {4, 5, 6});
  Tensor out;
  MulInto(&out, a, b, &ctx);
  EXPECT_TRUE(out.AllClose(Tensor({3}, {4, 10, 18})));
}

TEST(ShapeTest, ShapeSizeAndString) {
  EXPECT_EQ(ShapeSize({2, 3, 4}), 24u);
  EXPECT_EQ(ShapeSize({}), 0u);
  EXPECT_EQ(ShapeToString({2, 3}), "[2, 3]");
}

}  // namespace
}  // namespace prestroid
