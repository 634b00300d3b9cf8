#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "core/subtree_model.h"
#include "nn/conv1d.h"
#include "nn/tree_conv.h"
#include "tensor/execution_context.h"
#include "tensor/kernels/resident_weights.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace prestroid {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, PartitionIsDeterministicAndCoversRange) {
  ThreadPool pool(4);
  const auto parts = pool.Partition(0, 100, 1);
  ASSERT_FALSE(parts.empty());
  EXPECT_LE(parts.size(), pool.num_threads());
  size_t cursor = 0;
  for (const auto& [b, e] : parts) {
    EXPECT_EQ(b, cursor);
    EXPECT_LT(b, e);
    cursor = e;
  }
  EXPECT_EQ(cursor, 100u);
  // Same arguments, same pool size -> identical chunk boundaries.
  EXPECT_EQ(parts, pool.Partition(0, 100, 1));
}

TEST(ThreadPoolTest, PartitionRespectsGrain) {
  ThreadPool pool(8);
  // 10 items at grain 4 -> at most ceil(10/4) = 3 chunks.
  const auto parts = pool.Partition(0, 10, 4);
  EXPECT_LE(parts.size(), 3u);
}

TEST(ThreadPoolTest, EmptyRangeNeverInvokesBody) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.ParallelFor(5, 5, 1, [&](size_t, size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, GrainLargerThanRangeRunsSingleChunk) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  size_t seen_begin = 99, seen_end = 0;
  pool.ParallelFor(3, 10, 1000, [&](size_t b, size_t e) {
    ++calls;
    seen_begin = b;
    seen_end = e;
  });
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(seen_begin, 3u);
  EXPECT_EQ(seen_end, 10u);
}

TEST(ThreadPoolTest, EveryIndexVisitedExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> visits(1000);
  pool.ParallelFor(0, visits.size(), 1, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) ++visits[i];
  });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(0, 100, 1,
                                [&](size_t b, size_t) {
                                  if (b == 0) {
                                    throw std::runtime_error("chunk failed");
                                  }
                                }),
               std::runtime_error);
  // The pool must still be usable after an exception.
  std::atomic<int> sum{0};
  pool.ParallelFor(0, 10, 1, [&](size_t b, size_t e) {
    sum += static_cast<int>(e - b);
  });
  EXPECT_EQ(sum.load(), 10);
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  std::atomic<int> inner_total{0};
  pool.ParallelFor(0, 8, 1, [&](size_t ob, size_t oe) {
    for (size_t i = ob; i < oe; ++i) {
      // A nested call must not deadlock; it degrades to a single inline chunk.
      pool.ParallelFor(0, 4, 1, [&](size_t b, size_t e) {
        inner_total += static_cast<int>(e - b);
      });
    }
  });
  EXPECT_EQ(inner_total.load(), 8 * 4);
}

TEST(ThreadPoolTest, SingleThreadPoolSpawnsNoWorkers) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  int calls = 0;
  pool.ParallelFor(0, 10, 1, [&](size_t b, size_t e) {
    ++calls;
    EXPECT_EQ(b, 0u);
    EXPECT_EQ(e, 10u);
  });
  EXPECT_EQ(calls, 1);
}

// ---------------------------------------------------------------------------
// ExecutionContext
// ---------------------------------------------------------------------------

TEST(ExecutionContextTest, SerialContextHasOneThreadAndRunsInline) {
  ExecutionContext* serial = ExecutionContext::Serial();
  ASSERT_NE(serial, nullptr);
  EXPECT_EQ(serial->num_threads(), 1u);
  int calls = 0;
  serial->ParallelFor(0, 7, 1, [&](size_t b, size_t e) {
    ++calls;
    EXPECT_EQ(b, 0u);
    EXPECT_EQ(e, 7u);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ExecutionContextTest, ScratchIsZeroFilledAndRecycled) {
  ExecutionContext ctx(1);
  Tensor first = ctx.AcquireScratch({4, 8});
  for (size_t i = 0; i < first.size(); ++i) EXPECT_EQ(first[i], 0.0f);
  first.Fill(3.0f);
  const uint64_t allocated = ctx.stats().scratch_bytes_allocated;
  EXPECT_EQ(allocated, 4u * 8u * sizeof(float));
  ctx.ReleaseScratch(std::move(first));

  // Re-acquiring an equal shape must reuse the freed buffer (no new
  // allocation counted) and hand it back zeroed.
  Tensor second = ctx.AcquireScratch({4, 8});
  EXPECT_EQ(ctx.stats().scratch_bytes_allocated, allocated);
  for (size_t i = 0; i < second.size(); ++i) EXPECT_EQ(second[i], 0.0f);
  ctx.ReleaseScratch(std::move(second));
}

TEST(ExecutionContextTest, PeakScratchTracksConcurrentCheckouts) {
  ExecutionContext ctx(1);
  Tensor a = ctx.AcquireScratch({10});
  Tensor b = ctx.AcquireScratch({20});
  EXPECT_EQ(ctx.stats().peak_scratch_bytes, 30u * sizeof(float));
  ctx.ReleaseScratch(std::move(a));
  ctx.ReleaseScratch(std::move(b));
  // Peak is a high-water mark; releasing does not lower it.
  EXPECT_EQ(ctx.stats().peak_scratch_bytes, 30u * sizeof(float));
}

TEST(ExecutionContextTest, OpsRecordFlopsAndInvocations) {
  ExecutionContext ctx(1);
  Rng rng(3);
  Tensor a = Tensor::Random({4, 5}, &rng);
  Tensor b = Tensor::Random({6, 5}, &rng);
  Tensor out;
  MatMulTransposeBInto(&out, a, b, &ctx);
  EXPECT_EQ(ctx.stats().op_invocations, 1u);
  EXPECT_EQ(ctx.stats().flops, 2u * 4u * 5u * 6u);
  ctx.ResetStats();
  EXPECT_EQ(ctx.stats().flops, 0u);
}

// ---------------------------------------------------------------------------
// Serial-vs-parallel parity
// ---------------------------------------------------------------------------

TEST(ParallelParityTest, MatMulBitIdenticalAcrossThreadCounts) {
  // The Dense forward product: a @ W + bias through W's packed panel.
  Rng rng(11);
  const Tensor a = Tensor::Random({37, 53}, &rng);
  const Tensor b = Tensor::Random({53, 29}, &rng);
  const Tensor bias = Tensor::Random({29}, &rng);
  ResidentWeights panel;
  panel.Pack(b);
  ExecutionContext one(1);
  Tensor serial;
  panel.Gemm(&serial, a, bias, &one);
  for (size_t threads : {2u, 4u}) {
    ExecutionContext ctx(threads);
    Tensor parallel;
    panel.Gemm(&parallel, a, bias, &ctx);
    ASSERT_EQ(parallel.size(), serial.size());
    // Per-element accumulation order is preserved, so the result is
    // bit-identical at any thread count (see DESIGN.md).
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i], serial[i]) << "element " << i;
    }
  }
}

TEST(ParallelParityTest, TransposeAndElementwiseBitIdentical) {
  Rng rng(12);
  const Tensor a = Tensor::Random({31, 45}, &rng);
  const Tensor b = Tensor::Random({31, 45}, &rng);
  ExecutionContext one(1), four(4);
  // The transposed GEMMs (A^T B and A B^T) and the elementwise ops, each run
  // on a serial and a 4-thread context.
  auto run = [&](ExecutionContext* ctx) {
    std::vector<Tensor> out(5);
    MatMulTransposeAInto(&out[0], a, b, ctx);
    MatMulTransposeBInto(&out[1], a, b, ctx);
    ReluInto(&out[2], a, ctx);
    SigmoidInto(&out[3], a, ctx);
    MulInto(&out[4], a, b, ctx);
    return out;
  };
  const std::vector<Tensor> serial = run(&one);
  const std::vector<Tensor> parallel = run(&four);
  for (size_t t = 0; t < serial.size(); ++t) {
    ASSERT_EQ(parallel[t].shape(), serial[t].shape()) << "op " << t;
    for (size_t i = 0; i < serial[t].size(); ++i) {
      EXPECT_EQ(parallel[t][i], serial[t][i]) << "op " << t << "[" << i << "]";
    }
  }
}

TEST(ParallelParityTest, TreeConvBitIdenticalToSerial) {
  const size_t batch = 13, nodes = 7, in_dim = 6, out_dim = 5;
  // `batch` ragged trees of `nodes` rows each.
  TreeStructure structure;
  structure.left.assign(batch * nodes, -1);
  structure.right.assign(batch * nodes, -1);
  structure.mask.assign(batch * nodes, 1.0f);
  for (size_t b = 0; b <= batch; ++b) structure.offsets.push_back(b * nodes);
  for (size_t b = 0; b < batch; ++b) {
    const int base = static_cast<int>(b * nodes);
    for (size_t i = 0; 2 * i + 2 < nodes; ++i) {
      structure.left[b * nodes + i] = base + static_cast<int>(2 * i + 1);
      structure.right[b * nodes + i] = base + static_cast<int>(2 * i + 2);
    }
  }
  Rng data_rng(21);
  const Tensor features = Tensor::Random({batch, nodes, in_dim}, &data_rng);
  const Tensor grad = Tensor::Random({batch, nodes, out_dim}, &data_rng);

  // Two identically seeded layers, one serial and one on 4 threads.
  Rng rng_a(22), rng_b(22);
  TreeConvLayer serial_conv(in_dim, out_dim, &rng_a);
  TreeConvLayer parallel_conv(in_dim, out_dim, &rng_b);
  ExecutionContext one(1), ctx(4);
  serial_conv.set_context(&one);
  parallel_conv.set_context(&ctx);

  const Tensor& serial_out = serial_conv.Forward(features, structure);
  const Tensor& parallel_out = parallel_conv.Forward(features, structure);
  ASSERT_EQ(serial_out.size(), parallel_out.size());
  for (size_t i = 0; i < serial_out.size(); ++i) {
    // Forward preserves per-element accumulation order: bit-identical.
    EXPECT_EQ(parallel_out[i], serial_out[i]);
  }

  const Tensor& serial_gx = serial_conv.Backward(grad);
  const Tensor& parallel_gx = parallel_conv.Backward(grad);
  for (size_t i = 0; i < serial_gx.size(); ++i) {
    EXPECT_EQ(parallel_gx[i], serial_gx[i]);
  }
  // Weight gradients split the work by rows of the stacked gradient, each
  // element one chain in ascending batch row: bit-identical too.
  auto serial_params = serial_conv.Params();
  auto parallel_params = parallel_conv.Params();
  ASSERT_EQ(serial_params.size(), parallel_params.size());
  for (size_t p = 0; p < serial_params.size(); ++p) {
    const Tensor& sg = *serial_params[p].grad;
    const Tensor& pg = *parallel_params[p].grad;
    ASSERT_EQ(sg.size(), pg.size());
    for (size_t i = 0; i < sg.size(); ++i) {
      EXPECT_EQ(pg[i], sg[i]) << serial_params[p].name << "[" << i << "]";
    }
  }
}

TEST(ParallelParityTest, Conv1dMatchesSerialWithin1e6) {
  const size_t batch = 9, time = 12, in_dim = 5, window = 3, filters = 4;
  Rng data_rng(31);
  const Tensor input = Tensor::Random({batch, time, in_dim}, &data_rng);
  const Tensor grad =
      Tensor::Random({batch, time - window + 1, filters}, &data_rng);

  Rng rng_a(32), rng_b(32);
  Conv1d serial_conv(in_dim, window, filters, &rng_a);
  Conv1d parallel_conv(in_dim, window, filters, &rng_b);
  ExecutionContext ctx(4);
  parallel_conv.set_context(&ctx);

  const Tensor& serial_out = serial_conv.Forward(input);
  const Tensor& parallel_out = parallel_conv.Forward(input);
  for (size_t i = 0; i < serial_out.size(); ++i) {
    EXPECT_EQ(parallel_out[i], serial_out[i]);
  }
  const Tensor& serial_gx = serial_conv.Backward(grad);
  const Tensor& parallel_gx = parallel_conv.Backward(grad);
  for (size_t i = 0; i < serial_gx.size(); ++i) {
    EXPECT_EQ(parallel_gx[i], serial_gx[i]);
  }
  auto serial_params = serial_conv.Params();
  auto parallel_params = parallel_conv.Params();
  ASSERT_EQ(serial_params.size(), parallel_params.size());
  for (size_t p = 0; p < serial_params.size(); ++p) {
    const Tensor& sg = *serial_params[p].grad;
    const Tensor& pg = *parallel_params[p].grad;
    for (size_t i = 0; i < sg.size(); ++i) {
      const double tol =
          1e-6 * std::max(1.0, std::abs(static_cast<double>(sg[i])));
      EXPECT_NEAR(pg[i], sg[i], tol);
    }
  }
}

// ---------------------------------------------------------------------------
// Golden regression: a fixed-seed 3-epoch training run against constants
// captured (at %.17g) from the historical pre-kernel-layer implementation.
// The blocked kernels reorder bias and gradient-split accumulation and
// contract multiply-adds on the AVX2 instantiation, so they reproduce that
// run within 1e-5 relative (DESIGN.md §5.3). The test keeps the history
// anchor; the bit-level pins are AccuracyGate and the answer digests.
// ---------------------------------------------------------------------------

constexpr double kGoldenLosses[3] = {0.064611684694643665,
                                     0.039771022257837581,
                                     0.046904540164086544};
constexpr float kGoldenPred0 = 0.273728698f;
constexpr float kGoldenPred11 = 0.224260077f;

/// Runs the fixed-seed 3-epoch training workload on `ctx` and returns the
/// per-epoch losses plus two probe predictions.
void RunGoldenWorkload(ExecutionContext* ctx, double losses[3], float* pred0,
                       float* pred11) {
  core::SubtreeModelConfig config;
  config.feature_dim = 8;
  config.node_limit = 4;
  config.num_subtrees = 3;
  config.conv_channels = {16, 16};
  config.dense_units = {8};
  config.dropout = 0.1f;
  config.batch_norm = true;
  config.learning_rate = 1e-3f;
  config.seed = 42;
  core::SubtreeModel model(config);
  model.SetExecutionContext(ctx);

  Rng data_rng(7);
  for (int s = 0; s < 12; ++s) {
    std::vector<core::TreeFeatures> subtrees;
    const size_t ntrees = 1 + (static_cast<size_t>(s) % 3);
    for (size_t t = 0; t < ntrees; ++t) {
      core::TreeFeatures tf;
      const size_t nodes = 2 + ((static_cast<size_t>(s) + t) % 3);
      tf.features = Tensor::Random({nodes, 8}, &data_rng);
      tf.left.assign(nodes, -1);
      tf.right.assign(nodes, -1);
      tf.left[0] = 1;
      if (nodes >= 3) tf.right[0] = 2;
      tf.votes.assign(nodes, 1.0f);
      subtrees.push_back(std::move(tf));
    }
    model.AddSample(std::move(subtrees), 0.05f + 0.07f * static_cast<float>(s));
  }

  std::vector<size_t> indices(12);
  std::iota(indices.begin(), indices.end(), 0);
  for (int epoch = 0; epoch < 3; ++epoch) {
    losses[epoch] = model.TrainEpoch(indices, 4);
  }
  std::vector<float> preds = model.Predict(indices);
  *pred0 = preds[0];
  *pred11 = preds[11];
}

TEST(GoldenRegressionTest, BlockedBackendReproducesGoldenWithin1e5Relative) {
  ExecutionContext ctx(1);
  double losses[3];
  float pred0 = 0.0f, pred11 = 0.0f;
  RunGoldenWorkload(&ctx, losses, &pred0, &pred11);
  for (int epoch = 0; epoch < 3; ++epoch) {
    const double tol = 1e-5 * std::max(1.0, std::abs(kGoldenLosses[epoch]));
    EXPECT_NEAR(losses[epoch], kGoldenLosses[epoch], tol) << "epoch " << epoch;
  }
  // Per-op parity with the naive oracles is 1e-5 (enforced in kernel_test);
  // three epochs of Adam steps amplify that through the weight trajectory,
  // so the post-training probe predictions carry a wider documented 1e-3
  // envelope.
  EXPECT_NEAR(pred0, kGoldenPred0,
              1e-3 * std::max(1.0f, std::abs(kGoldenPred0)));
  EXPECT_NEAR(pred11, kGoldenPred11,
              1e-3 * std::max(1.0f, std::abs(kGoldenPred11)));
  EXPECT_GT(ctx.stats().flops, 0u);
}

TEST(ParallelParityTest, SameThreadCountIsRunToRunDeterministic) {
  Rng rng(41);
  const Tensor a = Tensor::Random({64, 48}, &rng);
  const Tensor b = Tensor::Random({48, 32}, &rng);
  const Tensor bias = Tensor::Random({32}, &rng);
  ResidentWeights panel;
  panel.Pack(b);
  ExecutionContext ctx(4);
  Tensor first, second;
  panel.Gemm(&first, a, bias, &ctx);
  panel.Gemm(&second, a, bias, &ctx);
  for (size_t i = 0; i < first.size(); ++i) EXPECT_EQ(first[i], second[i]);
}

}  // namespace
}  // namespace prestroid
