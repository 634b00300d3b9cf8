#include "nn/layer.h"

namespace prestroid {

Layer::~Layer() = default;

void Layer::ZeroGrad() {
  for (ParamRef& p : Params()) p.grad->Fill(0.0f);
}

size_t Layer::NumParameters() {
  size_t total = 0;
  for (ParamRef& p : Params()) total += p.value->size();
  return total;
}

}  // namespace prestroid
