#ifndef PRESTROID_SERVE_MODEL_MANAGER_H_
#define PRESTROID_SERVE_MODEL_MANAGER_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cost/serving_estimator.h"
#include "plan/plan_node.h"
#include "serve/sharded_runtime.h"
#include "util/status.h"

namespace prestroid::serve {

/// Lifecycle stage of a model artifact moving through the hot-swap pipeline:
///
///   CANDIDATE --load+CRC--> SHADOW --replay validation--> ACTIVE
///        |                     |                            |
///        +--corrupt artifact---+--regression on replay      +--post-swap
///           -> REJECTED           -> REJECTED                  q-error
///                                                              regression
///                                                              within the
///                                                              probation
///                                                              window
///                                                              -> ROLLED_BACK
///
/// Every transition keeps the previously ACTIVE model serving until the new
/// one has fully replaced it, and retains it afterwards for instant rollback
/// — a swap can therefore never widen the estimator's degradation chain
/// (model -> log-binning -> global mean).
enum class ModelLifecycle {
  kCandidate = 0,  // artifact produced, not yet validated
  kShadow,         // loaded; being scored against the replay buffer
  kActive,         // promoted and serving traffic
  kRolledBack,     // demoted after a post-swap q-error regression
  kRejected,       // failed artifact validation or shadow validation
};

const char* ModelLifecycleToString(ModelLifecycle stage);

/// Prediction q-error: max(pred/actual, actual/pred), the standard accuracy
/// metric for learned cost/cardinality estimators. Both operands are clamped
/// away from zero; any non-finite input yields +inf (maximally wrong), so a
/// NaN-spewing model always trips the drift/rollback gates instead of
/// poisoning the quantiles silently.
double QError(double predicted, double actual);

/// Rolling window of prediction q-errors with promotion-time baseline
/// quantiles. Drift is judged by comparing the window's p95 against the
/// baseline p95.
class DriftDetector {
 public:
  explicit DriftDetector(size_t window);

  void Record(double qerror);
  /// Quantile over the current window contents (1.0 when empty: a perfect,
  /// information-free prior).
  double Percentile(double pct) const;
  size_t count() const { return filled_; }
  bool WindowFull() const { return filled_ >= window_; }
  void ResetWindow();

  void SetBaseline(double p50, double p95);
  void ClearBaseline();
  bool has_baseline() const { return has_baseline_; }
  double baseline_p50() const { return baseline_p50_; }
  double baseline_p95() const { return baseline_p95_; }

 private:
  size_t window_;
  std::vector<double> ring_;
  size_t next_ = 0;
  size_t filled_ = 0;
  double baseline_p50_ = 0.0;
  double baseline_p95_ = 0.0;
  bool has_baseline_ = false;
};

/// Policy knobs of the hot-swap state machine.
struct ModelManagerConfig {
  /// Rolling q-error window feeding drift detection and probation.
  size_t drift_window = 128;
  /// Drift is flagged when the rolling p95 exceeds baseline p95 * this.
  double drift_threshold = 2.0;
  /// Labeled observations after a swap during which a q-error regression
  /// triggers automatic rollback; surviving the window confirms the model
  /// and re-baselines the drift detector on its observed accuracy.
  size_t probation_window = 64;
  /// Rollback fires when the post-swap rolling p95 exceeds the pre-swap
  /// baseline p95 * this.
  double rollback_qerr = 2.0;
  /// Minimum post-swap observations before probation judges the new model
  /// (quantiles over a couple of samples are noise).
  size_t min_probation = 8;
  /// Held-out replay buffer capacity (most recent model-tier observations).
  size_t replay_capacity = 256;
  /// Minimum replay entries required to shadow-validate a candidate while a
  /// model is already active. (With no active model, promotion is a
  /// bootstrap and skips shadow validation.)
  size_t min_replay = 8;
  /// Candidate p95 q-error on the replay buffer must be <= active p95 * this
  /// for promotion.
  double shadow_tolerance = 1.10;
};

/// One promotion attempt's outcome.
struct SwapReport {
  ModelLifecycle outcome = ModelLifecycle::kRejected;
  /// Why a kRejected attempt failed (kDataCorruption for a bad artifact,
  /// kInvalidArgument for a shadow-validation regression); OK on promotion.
  Status detail;
  double candidate_p95 = 0.0;  // candidate q-error p95 over the replay buffer
  double active_p95 = 0.0;     // active model's observed p95 on the same rows
  size_t replay_size = 0;      // rows scored (0 = bootstrap promotion)
  uint64_t version = 0;        // active-model version after the attempt
};

/// Drift/lifecycle counters; merged into cost::ServingStats by MergedStats.
struct ModelManagerStats {
  size_t observations = 0;         // labeled observations fed in
  size_t model_observations = 0;   // of those, answered by the model tier
  size_t swaps = 0;                // successful promotions
  size_t rollbacks = 0;            // automatic + manual rollbacks
  size_t rejected_candidates = 0;  // failed load or shadow validation
  size_t swap_failures = 0;        // runtime swap aborted (crash mid-swap)
  size_t drift_flags = 0;          // observations where the drift gate held
  double qerr_p50 = 0.0;           // rolling window quantiles
  double qerr_p95 = 0.0;
  double baseline_p50 = 0.0;
  double baseline_p95 = 0.0;
  uint64_t active_version = 0;     // bumped on every successful promotion
  bool in_probation = false;
  bool drift_detected = false;     // sticky until the next promotion
};

/// Zero-downtime model lifecycle manager over the serving tier
/// (ShardedServingRuntime, one or more shards): drift detection on rolling
/// prediction-error quantiles, shadow validation of candidate artifacts
/// against a held-out replay buffer, atomic promotion through
/// ShardedServingRuntime::SwapPipelines (one pipeline instance loaded per
/// shard, exchanged all-or-nothing), and automatic rollback on post-swap
/// regression (the previous ACTIVE models are retained in memory, so rollback
/// needs no disk I/O).
///
/// Thread-safety: all public methods may be called from any thread; the
/// manager serializes itself and only ever takes the runtime's locks while
/// holding its own (never the reverse), so it composes with concurrent
/// Submit/StatsSnapshot traffic.
class ModelManager {
 public:
  ModelManager(ShardedServingRuntime* runtime, ModelManagerConfig config = {});

  /// Feeds one labeled observation: the estimate previously served for
  /// `plan` (prediction + tier) and the ground-truth cost that later became
  /// known. Model-tier observations drive the drift window and the replay
  /// buffer (the plan is deep-copied; the caller keeps ownership). During
  /// probation this is also where automatic rollback fires.
  void ObserveLabeled(const plan::PlanNode& plan, double predicted_minutes,
                      double actual_minutes, cost::ServingTier tier);

  /// True when the rolling q-error p95 exceeds the drift threshold over the
  /// baseline. Sticky until the next successful promotion, so a caller
  /// polling between retrain intervals cannot miss a transient spike.
  bool DriftDetected() const;

  /// Runs one CANDIDATE -> SHADOW -> ACTIVE promotion attempt over the
  /// artifact at `candidate_path`:
  ///   1. container CRC validation + load (corrupt/truncated/legacy-v1
  ///      artifacts are rejected with kDataCorruption; the active model is
  ///      untouched);
  ///   2. shadow validation on the replay buffer (a regressing candidate is
  ///      reported as kRejected, never swapped);
  ///   3. atomic swap via ShardedServingRuntime::SwapPipelines — one pipeline
  ///      instance is loaded from the artifact per shard (instance 0 is the
  ///      one that shadow-validated) and every shard switches in one
  ///      all-or-nothing transaction — retaining the previous models for
  ///      rollback and entering the probation window.
  /// Only environmental/load failures surface as an error Status; a
  /// validation rejection is a normal outcome (SwapReport::kRejected).
  Result<SwapReport> TryPromote(const std::string& candidate_path);

  /// Swaps the retained previous models back in on every shard (instant, no
  /// disk I/O). kInvalidArgument when no previous model is retained.
  Status Rollback(const std::string& reason);

  ModelManagerStats StatsSnapshot() const;

  /// The runtime's (cross-shard merged) ServingStats with the manager's
  /// lifecycle/drift fields merged in — the one-call summary the CLI and
  /// tests print.
  cost::ServingStats MergedStats() const;

  const ModelManagerConfig& config() const { return config_; }

 private:
  struct ReplayEntry {
    plan::PlanNodePtr plan;
    double actual_minutes;
    double active_predicted;  // what the then-active model answered
  };

  /// Rollback without re-locking (mu_ already held).
  Status RollbackLocked(const std::string& reason);

  /// True when a real (non-null) previous model set is retained.
  bool HasPreviousLocked() const {
    return !previous_.empty() && previous_[0] != nullptr;
  }

  ShardedServingRuntime* runtime_;
  ModelManagerConfig config_;

  mutable std::mutex mu_;
  DriftDetector drift_;
  std::deque<ReplayEntry> replay_;
  /// Rollback targets, one per shard (empty = nothing retained).
  std::vector<std::unique_ptr<core::PrestroidPipeline>> previous_;
  double pre_swap_baseline_p50_ = 0.0;
  double pre_swap_baseline_p95_ = 0.0;
  bool in_probation_ = false;
  size_t post_swap_observations_ = 0;
  bool drift_detected_ = false;
  ModelManagerStats stats_;
};

}  // namespace prestroid::serve

#endif  // PRESTROID_SERVE_MODEL_MANAGER_H_
