#include "core/model_blocks.h"

#include "util/logging.h"

namespace prestroid::core {

TreeConvStack::TreeConvStack(size_t input_dim,
                             const std::vector<size_t>& channels, Rng* rng) {
  PRESTROID_CHECK(!channels.empty());
  size_t in = input_dim;
  for (size_t out : channels) {
    convs_.push_back(std::make_unique<TreeConvLayer>(in, out, rng));
    relus_.push_back(std::make_unique<ReluLayer>());
    in = out;
  }
  output_dim_ = in;
}

const Tensor& TreeConvStack::Forward(const Tensor& features,
                                     const TreeStructure& structure) {
  const Tensor* x = &features;
  for (size_t i = 0; i < convs_.size(); ++i) {
    x = &convs_[i]->Forward(*x, structure);
    x = &relus_[i]->Forward(*x);
  }
  return *x;
}

const Tensor& TreeConvStack::Backward(const Tensor& grad_output) {
  const Tensor* grad = &grad_output;
  for (size_t i = convs_.size(); i-- > 0;) {
    grad = &relus_[i]->Backward(*grad);
    grad = &convs_[i]->Backward(*grad);
  }
  return *grad;
}

void TreeConvStack::BindContext(ExecutionContext* ctx) {
  for (auto& conv : convs_) conv->set_context(ctx);
  for (auto& relu : relus_) relu->set_context(ctx);
}

std::vector<ParamRef> TreeConvStack::Params() {
  std::vector<ParamRef> params;
  for (auto& conv : convs_) {
    for (ParamRef& p : conv->Params()) params.push_back(p);
  }
  return params;
}

size_t TreeConvStack::NumParameters() {
  size_t total = 0;
  for (ParamRef& p : Params()) total += p.value->size();
  return total;
}

void TreeConvStack::CollectFreezableLayers(
    std::vector<FreezableLayer*>* out) {
  for (auto& conv : convs_) out->push_back(conv.get());
}

DenseHead::DenseHead(const DenseHeadConfig& config, Rng* rng) {
  PRESTROID_CHECK_GT(config.input_dim, 0u);
  size_t in = config.input_dim;
  for (size_t width : config.hidden) {
    layers_.push_back(std::make_unique<Dense>(in, width, rng));
    if (config.batch_norm) {
      layers_.push_back(std::make_unique<BatchNorm1d>(width));
    }
    layers_.push_back(std::make_unique<ReluLayer>());
    if (config.dropout > 0.0f) {
      layers_.push_back(std::make_unique<Dropout>(config.dropout, rng));
    }
    in = width;
  }
  PRESTROID_CHECK_GT(config.outputs, 0u);
  layers_.push_back(std::make_unique<Dense>(in, config.outputs, rng));
  layers_.push_back(std::make_unique<SigmoidLayer>());
}

const Tensor& DenseHead::Forward(const Tensor& input) {
  const Tensor* x = &input;
  for (auto& layer : layers_) x = &layer->Forward(*x);
  return *x;
}

const Tensor& DenseHead::Backward(const Tensor& grad_output) {
  const Tensor* grad = &grad_output;
  for (size_t i = layers_.size(); i-- > 0;) {
    grad = &layers_[i]->Backward(*grad);
  }
  return *grad;
}

void DenseHead::SetTraining(bool training) {
  for (auto& layer : layers_) layer->SetTraining(training);
}

void DenseHead::BindContext(ExecutionContext* ctx) {
  for (auto& layer : layers_) layer->set_context(ctx);
}

std::vector<ParamRef> DenseHead::Params() {
  std::vector<ParamRef> params;
  for (auto& layer : layers_) {
    for (ParamRef& p : layer->Params()) params.push_back(p);
  }
  return params;
}

std::vector<ParamRef> DenseHead::State() {
  std::vector<ParamRef> state;
  for (auto& layer : layers_) {
    for (ParamRef& p : layer->State()) state.push_back(p);
  }
  return state;
}

size_t DenseHead::NumParameters() {
  size_t total = 0;
  for (ParamRef& p : Params()) total += p.value->size();
  return total;
}

void DenseHead::CollectFreezableLayers(std::vector<FreezableLayer*>* out) {
  for (auto& layer : layers_) {
    if (auto* dense = dynamic_cast<Dense*>(layer.get())) out->push_back(dense);
  }
}

}  // namespace prestroid::core
