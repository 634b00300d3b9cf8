#ifndef PRESTROID_NN_TREE_CONV_H_
#define PRESTROID_NN_TREE_CONV_H_

#include <cstdint>
#include <vector>

#include "nn/layer.h"
#include "tensor/kernels/resident_weights.h"
#include "util/random.h"

namespace prestroid {

/// Structural view of a batch of binary trees in the ragged row layout.
///
/// Every real plan node of the batch is one row of the feature matrix
/// [rows, F]; tree t owns the contiguous rows [offsets[t], offsets[t+1]),
/// root first. Absent trees (a query with fewer than K sub-trees) own an
/// empty range. `left[r]` / `right[r]` give the *batch* row of row r's
/// children, or -1 for a null child (the Ø nodes of the O-T-P re-cast); a
/// child always lies inside its parent's tree range, which is what lets the
/// layers below parallelize over trees. No padding rows exist: the paper's
/// 0-padding to N nodes per tree is the accounting rule behind the footprint
/// figures (cloud/footprint.h, SubtreeModel::InputBytesPerBatch), not the
/// execution layout.
struct TreeStructure {
  std::vector<size_t> offsets;  // [trees + 1], offsets[0] == 0
  std::vector<int> left;        // [rows]
  std::vector<int> right;       // [rows]
  /// The sub-tree *votes* of Algorithm 1, one per row: a vote of 0 masks a
  /// real node out of dynamic pooling.
  std::vector<float> mask;      // [rows]

  size_t num_trees() const { return offsets.empty() ? 0 : offsets.size() - 1; }
  size_t num_rows() const { return left.size(); }
};

/// Tree convolution with triangular kernels (Mou et al. 2016), the
/// parent/left-child/right-child sliding window used by Neo and Prestroid,
/// with the ReLU that follows it in every Prestroid trunk fused in:
///
///   out[r] = max(0, x[r] W_self + x[left(r)] W_left + x[right(r)] W_right + b)
///
/// Null children contribute zero. Input [rows, in] -> output [rows, out]
/// over the ragged rows of a TreeStructure (an input of any rank whose
/// leading dims multiply to `rows`, e.g. [trees, nodes, in] for equal-sized
/// trees, is read as [rows, in]; so is a gradient). Forward keeps pointers to its
/// input and structure instead of copying them, so both must stay alive and
/// unmodified until Backward() completes. Backward masks the incoming
/// gradient by output > 0 (the ReLU derivative).
///
/// One lowering, shared by training and serving: the window product over
/// each input row's nonzero list. The three position kernels are stacked
/// into one [3*in, out] operand and packed into GEMM panels; each output row
/// sums the nonzeros of its (self, left, right) input rows against that
/// panel, with the bias+ReLU epilogue (GemmTreeWindowRows). Backward takes
/// the stacked weight gradient from the same nonzero lists, per
/// stacked-kernel row in ascending batch row (SparseMatMulAccumulate), and
/// the input gradient from one gy W^T GEMM scattered back through the window
/// map. Featurizer rows are mostly exact zeros (a 1-hot operator block, a
/// predicate Word2Vec block, a 1-hot table block; Ø rows all zero), and so
/// are most of a ReLU layer's outputs; skipping only exact-zero terms gives
/// the bits of the gathered-window (im2col) GEMMs, forward and weight
/// gradient (DESIGN.md §5.3). Every step partitions disjoint output rows, so
/// the bits do not depend on the thread count.
///
/// A row's result depends only on its own window, never on which other rows
/// share the batch, so a plan's answer is the same alone or batched.
/// The layer packs its stacked kernels before every Forward; FreezeWeights
/// packs them once for serving and Forward reuses that panel, so freezing
/// changes no bits. Backward while frozen CHECK-fails.
class TreeConvLayer {
 public:
  TreeConvLayer(size_t in_features, size_t out_features, Rng* rng);

  TreeConvLayer(const TreeConvLayer&) = delete;
  TreeConvLayer& operator=(const TreeConvLayer&) = delete;

  Tensor& Forward(const Tensor& features, const TreeStructure& structure);
  /// Returns dL/d(features). Accumulates weight gradients.
  Tensor& Backward(const Tensor& grad_output);

  /// Whether Backward computes dL/d(features) (the default). Without it
  /// Backward only accumulates weight gradients and returns an empty
  /// [0, in] tensor; a trunk's first layer, whose input is constant
  /// featurizer rows, needs no input gradient.
  void set_input_gradient(bool wanted) { input_gradient_ = wanted; }

  /// Binds the execution context (null rebinds the serial default).
  void set_context(ExecutionContext* ctx) {
    ctx_ = ctx != nullptr ? ctx : ExecutionContext::Serial();
  }

  std::vector<ParamRef> Params();
  size_t NumParameters();

  /// Packs the current stacked kernels once; later forwards skip the
  /// repack. Calling it again repacks.
  void FreezeWeights();

  size_t in_features() const { return in_features_; }
  size_t out_features() const { return out_features_; }

 private:
  /// Stacks the position kernels into wcat_.
  void StackWeights();
  /// Each input row's nonzeros into nz_*.
  void CollectNonzeros();
  /// The stacked weight gradient's sparse left operand (windows^T) into
  /// wt_*: for every stacked-kernel row p * in + i, the batch rows r whose
  /// window position p reads a nonzero input i, ascending in r.
  void CollectWindowColumns();

  size_t in_features_;
  size_t out_features_;
  Tensor w_self_, w_left_, w_right_;  // each [in, out]
  Tensor bias_;                       // [out]
  Tensor w_self_grad_, w_left_grad_, w_right_grad_;
  Tensor bias_grad_;
  bool input_gradient_ = true;
  // The last Forward's operands, borrowed until Backward.
  const Tensor* input_ = nullptr;
  const TreeStructure* structure_ = nullptr;
  ExecutionContext* ctx_ = ExecutionContext::Serial();
  Tensor output_;     // [rows, out], post-ReLU
  Tensor grad_pre_;   // [rows, out] gradient masked by output_ > 0
  Tensor grad_input_;
  // Workspaces, reused across batches once warm.
  Tensor wcat_;          // [3*in, out] stacked (self, left, right) kernels
  Tensor wgcat_;         // [3*in, out] stacked weight gradients
  Tensor gxp_;           // [rows, 3*in] window-space input gradients
  Tensor bias_tmp_;      // [out] per-call bias-gradient accumulator
  // wcat_ as GEMM panels: repacked per Forward until FreezeWeights packs
  // it for the last time.
  ResidentWeights panel_;
  bool frozen_ = false;
  // The last Forward's input rows in RowNonzeros form (nz_begin_ [rows + 1]),
  // kept for Backward.
  std::vector<uint32_t> nz_begin_;
  std::vector<uint32_t> nz_index_;
  std::vector<float> nz_value_;
  // windows^T in RowNonzeros form (wt_begin_ [3*in + 1], index = batch row),
  // built by Backward.
  std::vector<uint32_t> wt_begin_;
  std::vector<uint32_t> wt_row_;
  std::vector<float> wt_value_;
};

/// One-way dynamic pooling with vote bit-masking (paper Section 4.1):
/// elementwise max over each tree's rows restricted to rows whose vote is
/// nonzero. [rows, features] -> [trees, features]. A tree with no voting row
/// (or no rows at all) pools to the zero vector. Ties keep the first row
/// (strict >), and NaN never wins.
class MaskedDynamicPooling {
 public:
  Tensor& Forward(const Tensor& features, const TreeStructure& structure);
  Tensor& Backward(const Tensor& grad_output);

  void set_context(ExecutionContext* ctx) {
    ctx_ = ctx != nullptr ? ctx : ExecutionContext::Serial();
  }

 private:
  std::vector<int> argmax_;  // [trees*features] batch row of max, -1 if none
  size_t rows_ = 0;
  ExecutionContext* ctx_ = ExecutionContext::Serial();
  Tensor output_;
  Tensor grad_input_;
};

}  // namespace prestroid

#endif  // PRESTROID_NN_TREE_CONV_H_
