#ifndef PRESTROID_NN_LAYER_H_
#define PRESTROID_NN_LAYER_H_

#include <string>
#include <vector>

#include "tensor/execution_context.h"
#include "tensor/tensor.h"

namespace prestroid {

/// A trainable parameter and its gradient accumulator. Both tensors are owned
/// by the layer; the optimizer mutates `value` in place.
struct ParamRef {
  std::string name;
  Tensor* value;
  Tensor* grad;
};

/// Base class for feed-forward layers with explicit backpropagation.
///
/// Layers cache whatever they need from Forward() to compute Backward(), so a
/// layer instance processes one batch at a time (standard for this style of
/// hand-rolled NN substrate).
///
/// Forward/Backward return references to layer-owned workspace tensors that
/// stay valid until the next call on the same layer: once warm, a training
/// step performs no per-call tensor allocation. Callers that need to keep a
/// result must copy it. Kernels run through the bound ExecutionContext
/// (set_context); the default is the process-wide serial context, so
/// unbound layers behave exactly like the pre-context substrate.
class Layer {
 public:
  virtual ~Layer();

  Layer() = default;
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  /// Computes the layer output for `input`. The reference is to an internal
  /// workspace, invalidated by the next Forward call.
  virtual Tensor& Forward(const Tensor& input) = 0;

  /// Given dL/d(output), accumulates parameter gradients and returns
  /// dL/d(input) (internal workspace, invalidated by the next Backward).
  /// Must be called after Forward on the same batch.
  virtual Tensor& Backward(const Tensor& grad_output) = 0;

  /// Binds the execution context used by this layer's kernels. Passing null
  /// rebinds the serial default. The context must outlive the layer's use.
  void set_context(ExecutionContext* ctx) {
    ctx_ = ctx != nullptr ? ctx : ExecutionContext::Serial();
  }
  ExecutionContext* context() const { return ctx_; }

  /// Trainable parameters (empty for stateless layers).
  virtual std::vector<ParamRef> Params() { return {}; }

  /// Non-trainable buffers that must survive serialization (e.g. batch-norm
  /// running statistics). The `grad` field aliases `value` and is unused.
  virtual std::vector<ParamRef> State() { return {}; }

  /// Switches train/eval behaviour (dropout, batch-norm).
  virtual void SetTraining(bool training) { training_ = training; }
  bool training() const { return training_; }

  /// Zeroes all parameter gradients.
  void ZeroGrad();

  /// Total number of trainable scalars (used for the paper's
  /// parameter-count comparisons, e.g. WCNN-100 = 363,301 params).
  size_t NumParameters();

 protected:
  bool training_ = true;
  ExecutionContext* ctx_ = ExecutionContext::Serial();
};

/// A layer whose eval-mode GEMM weights can be frozen into resident fp32
/// panels (tensor/kernels/resident_weights.h) for serving: Dense and
/// TreeConvLayer. Models expose them through CostModel::CollectFreezableLayers.
class FreezableLayer {
 public:
  virtual ~FreezableLayer() = default;

  /// Packs the current weights once; eval-mode forwards then run the
  /// resident GEMM, bit-identical to the blocked backend. Training must not
  /// run while frozen — Backward() CHECK-fails. Calling it again repacks.
  virtual void FreezeWeights() = 0;

  /// Drops the resident panels; forwards follow the context's backend again.
  virtual void ThawWeights() = 0;

  /// Bytes of the resident panels; 0 while thawed.
  virtual size_t resident_weight_bytes() const = 0;
};

/// Sums parameter counts across a set of layers.
size_t TotalParameters(const std::vector<Layer*>& layers);

}  // namespace prestroid

#endif  // PRESTROID_NN_LAYER_H_
