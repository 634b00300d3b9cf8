#ifndef PRESTROID_NN_TRAINER_H_
#define PRESTROID_NN_TRAINER_H_

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "nn/layer.h"
#include "util/random.h"
#include "util/status.h"

namespace prestroid {

/// Abstract interface every query-cost regressor implements (the Prestroid
/// tree-CNN, in its sub-tree and full-tree forms, and the M-MSCN / WCNN
/// baselines). Each model
/// owns its featurized copy of the dataset; sample indices select rows.
/// Targets are the normalized labels in [0, 1] (see core/label_transform.h).
class CostModel {
 public:
  virtual ~CostModel();

  CostModel() = default;
  CostModel(const CostModel&) = delete;
  CostModel& operator=(const CostModel&) = delete;

  virtual std::string name() const = 0;
  virtual size_t num_samples() const = 0;

  /// Runs one epoch of mini-batch training over the given sample indices
  /// (already shuffled by the caller); returns the mean training loss.
  virtual double TrainEpoch(const std::vector<size_t>& indices,
                            size_t batch_size) = 0;

  /// Predicts normalized costs for the given samples (eval mode).
  virtual std::vector<float> Predict(const std::vector<size_t>& indices) = 0;

  /// Total trainable parameter count (for paper-style model-size reports).
  virtual size_t NumParameters() const = 0;

  /// Trainable parameters, used by the trainer to checkpoint/restore the
  /// best-validation weights. An empty list disables checkpointing.
  virtual std::vector<ParamRef> Params() { return {}; }

  /// Non-trainable buffers that serialization must also carry (e.g.
  /// batch-norm running statistics).
  virtual std::vector<ParamRef> State() { return {}; }

  /// Multiplies the optimizer learning rate by `factor`; used by the
  /// trainer's divergence recovery (roll back + halve LR). Models without a
  /// tunable optimizer ignore it.
  virtual void ScaleLearningRate(float factor) { (void)factor; }

  /// Binds the execution context (thread pool + scratch arena + counters)
  /// that the model's kernels run through. Passing null rebinds the serial
  /// default. Default no-op for models without tensor kernels (e.g. SVR).
  virtual void SetExecutionContext(ExecutionContext* ctx) { (void)ctx; }

  /// The bound context, or null for models that don't track one. The trainer
  /// uses it to report per-epoch flop counts in verbose logs.
  virtual ExecutionContext* execution_context() { return nullptr; }

  /// Optimizer state (e.g. Adam moments + step counter) for crash-safe
  /// training snapshots. Default: stateless (nothing written, restore is a
  /// no-op on an empty record).
  virtual void SerializeOptimizerState(std::ostream& os) const { (void)os; }
  virtual Status DeserializeOptimizerState(std::istream& is) {
    (void)is;
    return Status::OK();
  }
};

/// Configuration for the early-stopping training loop. The paper trains with
/// ADAM, batch size 64 (unless stated otherwise) and early stopping.
struct TrainConfig {
  size_t batch_size = 64;
  size_t max_epochs = 200;
  /// Stop when validation MSE has not improved for `patience` epochs.
  size_t patience = 8;
  /// Minimum improvement to reset patience.
  double min_delta = 1e-6;
  uint64_t shuffle_seed = 17;
  bool verbose = false;

  // --- Fault tolerance ---------------------------------------------------
  /// On a NaN/Inf epoch loss the trainer rolls the weights back to the best
  /// checkpoint (or the initial weights if none yet), multiplies the
  /// learning rate by `nan_lr_backoff`, and retries the epoch — at most
  /// `nan_retry_limit` times across the whole run before giving up
  /// (TrainResult::diverged).
  size_t nan_retry_limit = 3;
  float nan_lr_backoff = 0.5f;

  // --- Crash-safe snapshots ----------------------------------------------
  /// When non-empty and snapshot_every > 0, an on-disk snapshot (weights +
  /// optimizer state + shuffle RNG + epoch counters) is written atomically
  /// every `snapshot_every` epochs. A failed snapshot write logs a warning
  /// and training continues.
  std::string snapshot_path;
  size_t snapshot_every = 0;
  /// Resume from snapshot_path if it exists and is intact; a missing or
  /// corrupt snapshot logs a warning and training starts fresh.
  bool resume = false;
};

/// Outcome of one training run.
struct TrainResult {
  size_t epochs_run = 0;          // total epochs executed
  size_t best_epoch = 0;          // 1-based epoch with lowest val MSE
  double best_val_mse = 0.0;      // normalized-space MSE at best epoch
  std::vector<double> train_loss_history;
  std::vector<double> val_mse_history;
  double total_train_seconds = 0.0;
  double mean_epoch_seconds = 0.0;
  /// Fault-tolerance outcome: NaN/Inf epochs recovered by rollback, and
  /// whether the run was abandoned because retries were exhausted (the best
  /// checkpoint so far is still restored into the model).
  size_t nan_rollbacks = 0;
  bool diverged = false;
  /// First epoch executed in this call (> 1 when resumed from a snapshot).
  /// Histories cover only epochs run in this call.
  size_t start_epoch = 1;
};

/// Epoch counters carried inside a training snapshot.
struct TrainSnapshotMeta {
  size_t epoch = 0;       // last completed epoch
  size_t best_epoch = 0;  // 1-based epoch with lowest val MSE so far
  double best_val_mse = 0.0;
  size_t since_best = 0;  // epochs since the last improvement
};

/// Atomically writes a crash-safe training snapshot: current weights,
/// best-so-far weights, non-trainable state, optimizer state, shuffle RNG
/// state, and epoch counters (artifact container of util/artifact_io.h).
Status SaveTrainingSnapshot(const std::string& path, CostModel* model,
                            const TrainSnapshotMeta& meta,
                            const Rng& shuffle_rng,
                            const std::vector<Tensor>& best_weights);

/// Restores a snapshot written by SaveTrainingSnapshot into `model`,
/// `shuffle_rng`, and `best_weights`. kDataCorruption if the file fails
/// integrity checks; ParseError if it does not match the model architecture.
Result<TrainSnapshotMeta> LoadTrainingSnapshot(const std::string& path,
                                               CostModel* model,
                                               Rng* shuffle_rng,
                                               std::vector<Tensor>* best_weights);

/// Mean squared error between predictions and targets.
double MeanSquaredError(const std::vector<float>& pred,
                        const std::vector<float>& target);

/// Trains `model` on `train_indices`, monitoring MSE over `val_indices`
/// against `val_targets` (normalized), with early stopping.
TrainResult TrainWithEarlyStopping(CostModel* model,
                                   const std::vector<size_t>& train_indices,
                                   const std::vector<size_t>& val_indices,
                                   const std::vector<float>& val_targets,
                                   const TrainConfig& config);

}  // namespace prestroid

#endif  // PRESTROID_NN_TRAINER_H_
