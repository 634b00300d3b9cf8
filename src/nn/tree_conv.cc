#include "nn/tree_conv.h"

#include <cstring>
#include <limits>

#include "tensor/ops.h"
#include "util/logging.h"

namespace prestroid {

TreeConvLayer::TreeConvLayer(size_t in_features, size_t out_features, Rng* rng)
    : in_features_(in_features),
      out_features_(out_features),
      w_self_(Tensor::GlorotUniform(in_features, out_features, rng)),
      w_left_(Tensor::GlorotUniform(in_features, out_features, rng)),
      w_right_(Tensor::GlorotUniform(in_features, out_features, rng)),
      bias_({out_features}),
      w_self_grad_({in_features, out_features}),
      w_left_grad_({in_features, out_features}),
      w_right_grad_({in_features, out_features}),
      bias_grad_({out_features}) {}

Tensor& TreeConvLayer::Forward(const Tensor& features,
                               const TreeStructure& structure) {
  LayerTimer timer(ctx_, LayerKind::kTreeConv, /*backward=*/false);
  PRESTROID_CHECK_GE(features.rank(), 2u);
  PRESTROID_CHECK_EQ(features.dim(features.rank() - 1), in_features_);
  PRESTROID_CHECK_EQ(features.size(), structure.num_rows() * in_features_);
  PRESTROID_CHECK_EQ(structure.right.size(), structure.num_rows());
  PRESTROID_CHECK_EQ(structure.mask.size(), structure.num_rows());
  PRESTROID_CHECK(!structure.offsets.empty());
  PRESTROID_CHECK_EQ(structure.offsets.back(), structure.num_rows());
  input_ = &features;
  structure_ = &structure;

  // Each input row is read through its nonzeros instead of gathering
  // 3*in-wide windows: featurizer rows hold one 1-hot entry, a 32-wide
  // predicate block or nothing, and a ReLU layer's outputs are mostly zero
  // too. A thawed layer repacks its panel from the current weights; a frozen
  // one reuses the panel FreezeWeights packed.
  if (!frozen_) {
    StackWeights();
    panel_.Pack(wcat_);
  }
  CollectNonzeros();
  panel_.TreeWindowGemm(&output_, structure.num_rows(),
                        {nz_begin_.data(), nz_index_.data(), nz_value_.data()},
                        structure.left.data(), structure.right.data(), bias_,
                        ctx_);
  return output_;
}

Tensor& TreeConvLayer::Backward(const Tensor& grad_output) {
  LayerTimer timer(ctx_, LayerKind::kTreeConv, /*backward=*/true);
  PRESTROID_CHECK(!frozen_);  // no training while frozen
  PRESTROID_CHECK(structure_ != nullptr);
  const TreeStructure& structure = *structure_;
  const size_t rows = structure.num_rows();
  const size_t in = in_features_;
  const size_t kc = 3 * in;
  PRESTROID_CHECK_EQ(grad_output.dim(grad_output.rank() - 1), out_features_);
  PRESTROID_CHECK_EQ(grad_output.size(), rows * out_features_);
  PRESTROID_CHECK_EQ(output_.dim(0), rows);

  // ReLU derivative: only rows/features that came out positive pass their
  // gradient back into the convolution.
  grad_pre_.ResetShape({rows, out_features_});
  const float* go = grad_output.data();
  const float* y = output_.data();
  float* gp = grad_pre_.data();
  ctx_->ParallelFor(0, grad_pre_.size(), 4096, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) gp[i] = y[i] > 0.0f ? go[i] : 0.0f;
  });

  // Weight gradients: d[W_self; W_left; W_right] = windows^T @ gy over the
  // windows' nonzeros, onto a zeroed buffer, then split-added into the
  // per-position accumulators.
  CollectWindowColumns();
  wgcat_.ResetShape({kc, out_features_});
  wgcat_.Fill(0.0f);
  SparseMatMulAccumulate(
      &wgcat_, {wt_begin_.data(), wt_row_.data(), wt_value_.data()},
      grad_pre_, ctx_);
  const size_t wsz = in_features_ * out_features_;
  const float* wg = wgcat_.data();
  float* gs = w_self_grad_.data();
  float* gl = w_left_grad_.data();
  float* gr = w_right_grad_.data();
  for (size_t i = 0; i < wsz; ++i) gs[i] += wg[i];
  for (size_t i = 0; i < wsz; ++i) gl[i] += wg[wsz + i];
  for (size_t i = 0; i < wsz; ++i) gr[i] += wg[2 * wsz + i];

  bias_tmp_.ResetShape({out_features_});
  bias_tmp_.Fill(0.0f);
  SumRowsAccumulate(&bias_tmp_, grad_pre_, ctx_);
  bias_grad_ += bias_tmp_;

  if (!input_gradient_) {
    grad_input_.ResetShape({0, in});
    return grad_input_;
  }
  // Input gradients in window space: gxp = gy @ wcat^T, then scatter-added
  // back through the window map. Trees own disjoint row ranges of
  // grad_input_ (children always live in their own tree), so the scatter
  // parallelizes over trees with a fixed within-tree row order —
  // deterministic at any thread count. Weights are unchanged since Forward,
  // so restacking wcat_ here keeps the pair self-contained.
  grad_input_.ResetShape({rows, in});
  grad_input_.Fill(0.0f);
  StackWeights();
  MatMulTransposeBInto(&gxp_, grad_pre_, wcat_, ctx_);
  const float* gxp = gxp_.data();
  float* gx_base = grad_input_.data();
  ctx_->ParallelFor(0, structure.num_trees(), 1, [&](size_t t0, size_t t1) {
    for (size_t r = structure.offsets[t0]; r < structure.offsets[t1]; ++r) {
      const float* g = gxp + r * kc;
      float* gx_self = gx_base + r * in;
      for (size_t i = 0; i < in; ++i) gx_self[i] += g[i];
      const int l = structure.left[r];
      if (l >= 0) {
        float* gx = gx_base + static_cast<size_t>(l) * in;
        for (size_t i = 0; i < in; ++i) gx[i] += g[in + i];
      }
      const int rc = structure.right[r];
      if (rc >= 0) {
        float* gx = gx_base + static_cast<size_t>(rc) * in;
        for (size_t i = 0; i < in; ++i) gx[i] += g[2 * in + i];
      }
    }
  });
  return grad_input_;
}

void TreeConvLayer::CollectNonzeros() {
  const size_t rows = structure_->num_rows();
  const size_t in = in_features_;
  const float* x = input_->data();
  PRESTROID_CHECK_LE(rows * in, size_t{UINT32_MAX});  // RowNonzeros indices
  nz_begin_.resize(rows + 1);
  nz_index_.resize(rows * in);
  nz_value_.resize(rows * in);
  uint32_t count = 0;
  auto collect = [&](const float* row, size_t i0, size_t i1) {
    // Branch-free: every element is written at the next free slot, which
    // only a nonzero keeps, so a ReLU output's random zero pattern costs no
    // mispredicted branches. -0.0 is skipped too: its product is as exactly
    // zero as +0.0's.
    for (size_t i = i0; i < i1; ++i) {
      nz_index_[count] = static_cast<uint32_t>(i);
      nz_value_[count] = row[i];
      count += row[i] != 0.0f;
    }
  };
  for (size_t r = 0; r < rows; ++r) {
    nz_begin_[r] = count;
    const float* row = x + r * in;
    // Most 8-wide chunks are all (signed) zeros: one OR over their bits,
    // sign shifted out, skips them without a compare per element.
    size_t i = 0;
    for (; i + 8 <= in; i += 8) {
      uint32_t bits = 0;
      for (size_t j = 0; j < 8; ++j) {
        uint32_t word = 0;
        std::memcpy(&word, row + i + j, sizeof(word));
        bits |= word << 1;
      }
      if (bits != 0) collect(row, i, i + 8);
    }
    collect(row, i, in);
  }
  nz_begin_[rows] = count;
}

void TreeConvLayer::StackWeights() {
  const size_t wsz = in_features_ * out_features_;
  wcat_.ResetShape({3 * in_features_, out_features_});
  std::memcpy(wcat_.data(), w_self_.data(), wsz * sizeof(float));
  std::memcpy(wcat_.data() + wsz, w_left_.data(), wsz * sizeof(float));
  std::memcpy(wcat_.data() + 2 * wsz, w_right_.data(), wsz * sizeof(float));
}

void TreeConvLayer::FreezeWeights() {
  StackWeights();
  panel_.Pack(wcat_);
  frozen_ = true;
}

void TreeConvLayer::CollectWindowColumns() {
  const TreeStructure& structure = *structure_;
  const size_t rows = structure.num_rows();
  const size_t in = in_features_;
  PRESTROID_CHECK_EQ(nz_begin_.size(), rows + 1);
  PRESTROID_CHECK_LE(3 * rows * in, size_t{UINT32_MAX});  // wt_* indices
  // Counting sort by stacked-kernel row: count each row's terms, then place
  // them walking the batch rows in ascending order.
  auto for_each_term = [&](auto&& visit) {
    for (size_t r = 0; r < rows; ++r) {
      const int window[3] = {static_cast<int>(r), structure.left[r],
                             structure.right[r]};
      for (size_t p = 0; p < 3; ++p) {
        if (window[p] < 0) continue;
        const size_t q = static_cast<size_t>(window[p]);
        for (size_t e = nz_begin_[q]; e < nz_begin_[q + 1]; ++e) {
          visit(r, p * in + nz_index_[e], nz_value_[e]);
        }
      }
    }
  };
  wt_begin_.assign(3 * in + 1, 0);
  for_each_term([&](size_t, size_t k, float) { ++wt_begin_[k + 1]; });
  for (size_t k = 0; k < 3 * in; ++k) wt_begin_[k + 1] += wt_begin_[k];
  wt_row_.resize(wt_begin_[3 * in]);
  wt_value_.resize(wt_begin_[3 * in]);
  // wt_begin_[k] is row k's next free slot while placing; afterwards it
  // holds row k + 1's start, so shifting it back restores the offsets.
  for_each_term([&](size_t r, size_t k, float v) {
    const uint32_t slot = wt_begin_[k]++;
    wt_row_[slot] = static_cast<uint32_t>(r);
    wt_value_[slot] = v;
  });
  for (size_t k = 3 * in; k > 0; --k) wt_begin_[k] = wt_begin_[k - 1];
  wt_begin_[0] = 0;
}

std::vector<ParamRef> TreeConvLayer::Params() {
  return {{"w_self", &w_self_, &w_self_grad_},
          {"w_left", &w_left_, &w_left_grad_},
          {"w_right", &w_right_, &w_right_grad_},
          {"bias", &bias_, &bias_grad_}};
}

size_t TreeConvLayer::NumParameters() {
  size_t total = 0;
  for (ParamRef& p : Params()) total += p.value->size();
  return total;
}

Tensor& MaskedDynamicPooling::Forward(const Tensor& features,
                                      const TreeStructure& structure) {
  LayerTimer timer(ctx_, LayerKind::kPooling, /*backward=*/false);
  PRESTROID_CHECK_EQ(features.rank(), 2u);
  PRESTROID_CHECK_EQ(features.dim(0), structure.num_rows());
  const size_t trees = structure.num_trees();
  const size_t dims = features.dim(1);
  rows_ = structure.num_rows();
  argmax_.assign(trees * dims, -1);

  output_.ResetShape({trees, dims});
  ctx_->ParallelFor(0, trees, 8, [&](size_t t0, size_t t1) {
    for (size_t t = t0; t < t1; ++t) {
      // Row-outer walk over the tree's range; the output row holds the
      // running maxima. Per feature this is the same strict-> scan in row
      // order as a per-feature loop, so ties and NaN resolve identically.
      float* best = output_.data() + t * dims;
      int* best_row = argmax_.data() + t * dims;
      for (size_t d = 0; d < dims; ++d) {
        best[d] = -std::numeric_limits<float>::infinity();
      }
      for (size_t r = structure.offsets[t]; r < structure.offsets[t + 1];
           ++r) {
        if (structure.mask[r] == 0.0f) continue;
        const float* row = features.data() + r * dims;
        for (size_t d = 0; d < dims; ++d) {
          if (row[d] > best[d]) {
            best[d] = row[d];
            best_row[d] = static_cast<int>(r);
          }
        }
      }
      // A feature no voting row beat (none voted, or all -inf/NaN) pools
      // to zero.
      for (size_t d = 0; d < dims; ++d) {
        if (best_row[d] < 0) best[d] = 0.0f;
      }
    }
  });
  return output_;
}

Tensor& MaskedDynamicPooling::Backward(const Tensor& grad_output) {
  LayerTimer timer(ctx_, LayerKind::kPooling, /*backward=*/true);
  PRESTROID_CHECK_EQ(grad_output.rank(), 2u);
  const size_t trees = grad_output.dim(0);
  const size_t dims = grad_output.dim(1);
  PRESTROID_CHECK_EQ(argmax_.size(), trees * dims);
  grad_input_.ResetShape({rows_, dims});
  grad_input_.Fill(0.0f);
  const float* g = grad_output.data();
  float* gi = grad_input_.data();
  ctx_->ParallelFor(0, trees, 8, [&](size_t t0, size_t t1) {
    for (size_t t = t0; t < t1; ++t) {
      for (size_t d = 0; d < dims; ++d) {
        const int r = argmax_[t * dims + d];
        if (r >= 0) gi[static_cast<size_t>(r) * dims + d] = g[t * dims + d];
      }
    }
  });
  return grad_input_;
}

}  // namespace prestroid
