#ifndef PRESTROID_NN_OPTIMIZER_H_
#define PRESTROID_NN_OPTIMIZER_H_

#include <iosfwd>
#include <vector>

#include "nn/layer.h"
#include "util/status.h"

namespace prestroid {

/// Adam (Kingma & Ba 2014) — the optimizer the paper uses for all models —
/// over a flat parameter list. Register parameters once (ownership stays
/// with the layers), then call Step() after each backward pass and
/// ZeroGrad() before the next one.
class AdamOptimizer {
 public:
  explicit AdamOptimizer(float lr, float beta1 = 0.9f, float beta2 = 0.999f,
                         float epsilon = 1e-8f);

  AdamOptimizer(const AdamOptimizer&) = delete;
  AdamOptimizer& operator=(const AdamOptimizer&) = delete;

  /// Adds the parameters of a layer (or explicit refs) to the update set.
  void Register(const std::vector<ParamRef>& params);

  /// Applies one update from the accumulated gradients.
  void Step();

  /// Clears all registered gradients.
  void ZeroGrad();

  /// Registered parameter references (e.g. for checkpointing).
  const std::vector<ParamRef>& params() const { return params_; }

  float lr() const { return lr_; }
  void set_lr(float lr) { lr_ = lr; }

  /// Writes the full optimizer state — step counter, learning rate, and the
  /// first/second moment tensors — as one text record, so a training
  /// checkpoint resumes with identical update dynamics.
  void SerializeState(std::ostream& os) const;
  /// Restores a record written by SerializeState. The moment tensors must
  /// match the registered parameter shapes; ParseError otherwise.
  Status DeserializeState(std::istream& is);

 private:
  std::vector<ParamRef> params_;
  float lr_, beta1_, beta2_, epsilon_;
  int64_t t_ = 0;
  std::vector<Tensor> m_, v_;
};

}  // namespace prestroid

#endif  // PRESTROID_NN_OPTIMIZER_H_
