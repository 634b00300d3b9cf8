#ifndef PRESTROID_CORE_MODEL_BLOCKS_H_
#define PRESTROID_CORE_MODEL_BLOCKS_H_

#include <memory>
#include <vector>

#include "nn/activations.h"
#include "nn/batch_norm.h"
#include "nn/dense.h"
#include "nn/dropout.h"
#include "nn/layer.h"
#include "nn/tree_conv.h"

namespace prestroid::core {

/// Stack of tree-convolution layers with ReLU between them — the shared
/// convolution trunk of the Prestroid sub-tree and full-tree models
/// (3 x 512 kernels for Grab-Traces, 3 x 128 for TPC-DS; Section 5.2).
///
/// Forward/Backward return references into the last layer's workspace (see
/// Layer); intermediate activations flow between layers by reference with no
/// copies.
class TreeConvStack {
 public:
  TreeConvStack(size_t input_dim, const std::vector<size_t>& channels,
                Rng* rng);

  TreeConvStack(const TreeConvStack&) = delete;
  TreeConvStack& operator=(const TreeConvStack&) = delete;

  /// [batch, nodes, input_dim] -> [batch, nodes, channels.back()].
  const Tensor& Forward(const Tensor& features, const TreeStructure& structure);
  const Tensor& Backward(const Tensor& grad_output);

  /// Binds the execution context on every layer of the stack.
  void BindContext(ExecutionContext* ctx);

  std::vector<ParamRef> Params();
  size_t NumParameters();
  size_t output_dim() const { return output_dim_; }
  size_t num_layers() const { return convs_.size(); }

  /// Appends the stack's freezable layers (every TreeConvLayer) in forward
  /// order (see CostModel::CollectFreezableLayers).
  void CollectFreezableLayers(std::vector<FreezableLayer*>* out);

 private:
  size_t output_dim_;
  std::vector<std::unique_ptr<TreeConvLayer>> convs_;
  std::vector<std::unique_ptr<ReluLayer>> relus_;
};

/// Configuration of the dense regression head.
struct DenseHeadConfig {
  size_t input_dim = 0;
  /// Hidden widths; the paper uses {128, 64} (Grab) / {32, 8} (TPC-DS).
  std::vector<size_t> hidden = {128, 64};
  float dropout = 0.1f;
  bool batch_norm = true;
  /// Output units. 1 for the paper's single-objective (total CPU time);
  /// the multi-objective extension predicts several normalized profiler
  /// metrics at once (CPU, peak memory, input bytes).
  size_t outputs = 1;
};

/// Dense layers with ReLU (+ optional batch-norm and dropout) ending in a
/// single sigmoid unit, matching the paper's prediction head.
class DenseHead {
 public:
  DenseHead(const DenseHeadConfig& config, Rng* rng);

  DenseHead(const DenseHead&) = delete;
  DenseHead& operator=(const DenseHead&) = delete;

  /// [batch, input_dim] -> [batch, outputs], each in (0, 1).
  const Tensor& Forward(const Tensor& input);
  const Tensor& Backward(const Tensor& grad_output);
  void SetTraining(bool training);

  /// Binds the execution context on every layer of the head.
  void BindContext(ExecutionContext* ctx);

  std::vector<ParamRef> Params();
  /// Non-trainable buffers (batch-norm running statistics).
  std::vector<ParamRef> State();
  size_t NumParameters();

  /// Appends the head's freezable layers (every Dense) in forward order
  /// (see CostModel::CollectFreezableLayers).
  void CollectFreezableLayers(std::vector<FreezableLayer*>* out);

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace prestroid::core

#endif  // PRESTROID_CORE_MODEL_BLOCKS_H_
