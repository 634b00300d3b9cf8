#include "nn/optimizer.h"

#include <cmath>
#include <istream>
#include <ostream>
#include <string>

#include "util/logging.h"

namespace prestroid {

AdamOptimizer::AdamOptimizer(float lr, float beta1, float beta2, float epsilon)
    : lr_(lr), beta1_(beta1), beta2_(beta2), epsilon_(epsilon) {}

void AdamOptimizer::Register(const std::vector<ParamRef>& params) {
  for (const ParamRef& p : params) {
    PRESTROID_CHECK(p.value != nullptr);
    PRESTROID_CHECK(p.grad != nullptr);
    PRESTROID_CHECK_EQ(p.value->size(), p.grad->size());
    params_.push_back(p);
  }
}

void AdamOptimizer::ZeroGrad() {
  for (ParamRef& p : params_) p.grad->Fill(0.0f);
}

void AdamOptimizer::Step() {
  if (m_.size() != params_.size()) {
    m_.clear();
    v_.clear();
    for (ParamRef& p : params_) {
      m_.emplace_back(p.value->shape());
      v_.emplace_back(p.value->shape());
    }
  }
  ++t_;
  const float bias1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bias2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  for (size_t k = 0; k < params_.size(); ++k) {
    Tensor& value = *params_[k].value;
    Tensor& grad = *params_[k].grad;
    Tensor& m = m_[k];
    Tensor& v = v_[k];
    for (size_t i = 0; i < value.size(); ++i) {
      const float g = grad[i];
      m[i] = beta1_ * m[i] + (1.0f - beta1_) * g;
      v[i] = beta2_ * v[i] + (1.0f - beta2_) * g * g;
      const float m_hat = m[i] / bias1;
      const float v_hat = v[i] / bias2;
      value[i] -= lr_ * m_hat / (std::sqrt(v_hat) + epsilon_);
    }
  }
}

void AdamOptimizer::SerializeState(std::ostream& os) const {
  os << "adam " << t_ << " " << lr_ << " " << m_.size() << "\n";
  auto dump = [&os](const std::vector<Tensor>& tensors) {
    for (const Tensor& t : tensors) {
      os << t.size();
      for (size_t i = 0; i < t.size(); ++i) os << " " << t[i];
      os << "\n";
    }
  };
  dump(m_);
  dump(v_);
}

Status AdamOptimizer::DeserializeState(std::istream& is) {
  std::string tag;
  int64_t t = 0;
  float lr = 0.0f;
  size_t count = 0;
  is >> tag >> t >> lr >> count;
  if (is.fail() || tag != "adam") {
    return Status::ParseError("bad adam state record");
  }
  if (count != 0 && count != params_.size()) {
    return Status::ParseError(
        "adam moment count does not match registered parameters");
  }
  std::vector<Tensor> m, v;
  auto read = [&](std::vector<Tensor>* out) -> Status {
    out->reserve(count);
    for (size_t k = 0; k < count; ++k) {
      size_t numel = 0;
      is >> numel;
      if (is.fail() || numel != params_[k].value->size()) {
        return Status::ParseError("adam moment shape mismatch");
      }
      Tensor tensor(params_[k].value->shape());
      for (size_t i = 0; i < numel; ++i) is >> tensor[i];
      out->push_back(std::move(tensor));
    }
    if (is.fail()) return Status::ParseError("truncated adam state");
    return Status::OK();
  };
  PRESTROID_RETURN_NOT_OK(read(&m));
  PRESTROID_RETURN_NOT_OK(read(&v));
  t_ = t;
  lr_ = lr;
  m_ = std::move(m);
  v_ = std::move(v);
  return Status::OK();
}

}  // namespace prestroid
