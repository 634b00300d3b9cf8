#include "serve/model_manager.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "util/artifact_io.h"
#include "util/logging.h"

namespace prestroid::serve {

const char* ModelLifecycleToString(ModelLifecycle stage) {
  switch (stage) {
    case ModelLifecycle::kCandidate:
      return "CANDIDATE";
    case ModelLifecycle::kShadow:
      return "SHADOW";
    case ModelLifecycle::kActive:
      return "ACTIVE";
    case ModelLifecycle::kRolledBack:
      return "ROLLED_BACK";
    case ModelLifecycle::kRejected:
      return "REJECTED";
  }
  return "?";
}

double QError(double predicted, double actual) {
  if (!std::isfinite(predicted) || !std::isfinite(actual)) {
    return std::numeric_limits<double>::infinity();
  }
  constexpr double kFloor = 1e-6;
  const double p = std::max(std::fabs(predicted), kFloor);
  const double a = std::max(std::fabs(actual), kFloor);
  return std::max(p / a, a / p);
}

DriftDetector::DriftDetector(size_t window)
    : window_(std::max<size_t>(window, 1)), ring_(window_, 0.0) {}

void DriftDetector::Record(double qerror) {
  ring_[next_] = qerror;
  next_ = (next_ + 1) % window_;
  filled_ = std::min(filled_ + 1, window_);
}

double DriftDetector::Percentile(double pct) const {
  if (filled_ == 0) return 1.0;
  std::vector<double> sorted(ring_.begin(),
                             ring_.begin() + static_cast<long>(filled_));
  std::sort(sorted.begin(), sorted.end());
  const double rank = pct / 100.0 * static_cast<double>(filled_);
  size_t idx = rank <= 1.0 ? 0 : static_cast<size_t>(std::ceil(rank)) - 1;
  idx = std::min(idx, filled_ - 1);
  return sorted[idx];
}

void DriftDetector::ResetWindow() {
  next_ = 0;
  filled_ = 0;
}

void DriftDetector::SetBaseline(double p50, double p95) {
  baseline_p50_ = p50;
  baseline_p95_ = p95;
  has_baseline_ = true;
}

void DriftDetector::ClearBaseline() {
  baseline_p50_ = 0.0;
  baseline_p95_ = 0.0;
  has_baseline_ = false;
}

ModelManager::ModelManager(ShardedServingRuntime* runtime,
                           ModelManagerConfig config)
    : runtime_(runtime),
      config_(config),
      drift_(std::max<size_t>(config.drift_window, 1)) {
  PRESTROID_CHECK(runtime_ != nullptr);
}

void ModelManager::ObserveLabeled(const plan::PlanNode& plan,
                                  double predicted_minutes,
                                  double actual_minutes,
                                  cost::ServingTier tier) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.observations;
  if (tier != cost::ServingTier::kModel) return;
  ++stats_.model_observations;

  const double qerr = QError(predicted_minutes, actual_minutes);
  drift_.Record(qerr);

  replay_.push_back(
      ReplayEntry{plan.Clone(), actual_minutes, predicted_minutes});
  while (replay_.size() > config_.replay_capacity) replay_.pop_front();

  // First full window with no baseline yet: the model's own observed
  // accuracy becomes the reference every later window is judged against.
  if (!drift_.has_baseline() && drift_.WindowFull()) {
    drift_.SetBaseline(drift_.Percentile(50.0), drift_.Percentile(95.0));
  }

  if (in_probation_) {
    ++post_swap_observations_;
    if (post_swap_observations_ >= config_.min_probation &&
        pre_swap_baseline_p95_ > 0.0 &&
        drift_.Percentile(95.0) >
            config_.rollback_qerr * pre_swap_baseline_p95_) {
      const Status rolled = RollbackLocked("post-swap q-error regression");
      if (!rolled.ok()) {
        PRESTROID_LOG(Error) << "automatic rollback failed: "
                             << rolled.ToString();
      }
      return;
    }
    if (post_swap_observations_ >= config_.probation_window) {
      // Probation survived: the new model is confirmed and its observed
      // accuracy becomes the drift baseline going forward.
      in_probation_ = false;
      post_swap_observations_ = 0;
      drift_.SetBaseline(drift_.Percentile(50.0), drift_.Percentile(95.0));
    }
  }

  if (drift_.has_baseline() && drift_.baseline_p95() > 0.0 &&
      drift_.count() >= config_.min_probation &&
      drift_.Percentile(95.0) >
          config_.drift_threshold * drift_.baseline_p95()) {
    ++stats_.drift_flags;
    drift_detected_ = true;
  }
}

bool ModelManager::DriftDetected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return drift_detected_;
}

Result<SwapReport> ModelManager::TryPromote(const std::string& candidate_path) {
  std::lock_guard<std::mutex> lock(mu_);
  SwapReport report;

  // CANDIDATE -> SHADOW gate: the artifact container must checksum-validate
  // and load before the candidate is allowed anywhere near traffic. A
  // corrupt, truncated, or unreadable artifact is a rejection — the active
  // model keeps serving, untouched.
  double candidate_p50 = 0.0;
  Status valid = ValidateArtifactFile(candidate_path);
  if (valid.ok()) {
    auto loaded = core::PrestroidPipeline::LoadFile(candidate_path);
    if (!loaded.ok()) {
      valid = loaded.status();
    } else {
      std::unique_ptr<core::PrestroidPipeline> candidate = std::move(*loaded);

      // SHADOW -> ACTIVE gate: score the candidate on the held-out replay
      // buffer and compare against the q-errors the active model actually
      // achieved on the same plans (recorded at observation time, so the
      // active model is never touched from this thread).
      if (replay_.size() >= config_.min_replay) {
        DriftDetector candidate_err(replay_.size());
        DriftDetector active_err(replay_.size());
        for (const ReplayEntry& entry : replay_) {
          auto pred = candidate->PredictPlan(*entry.plan);
          candidate_err.Record(pred.ok()
                                   ? QError(*pred, entry.actual_minutes)
                                   : std::numeric_limits<double>::infinity());
          active_err.Record(
              QError(entry.active_predicted, entry.actual_minutes));
        }
        candidate_p50 = candidate_err.Percentile(50.0);
        report.candidate_p95 = candidate_err.Percentile(95.0);
        report.active_p95 = active_err.Percentile(95.0);
        report.replay_size = replay_.size();
        if (!std::isfinite(report.candidate_p95) ||
            report.candidate_p95 >
                report.active_p95 * config_.shadow_tolerance) {
          valid = Status::InvalidArgument(
              "shadow validation: candidate q-error p95 " +
              std::to_string(report.candidate_p95) + " vs active " +
              std::to_string(report.active_p95) + " over " +
              std::to_string(replay_.size()) + " replayed plans");
        }
      }
      // else: bootstrap promotion — too little labeled evidence to judge the
      // candidate, so it promotes and the probation window judges it live.

      if (valid.ok()) {
        // One pipeline instance per shard, all from the same validated
        // artifact: instance 0 is the one shadow validation scored; the
        // rest are loaded now so the cross-shard exchange is a pure memory
        // operation. A load failure here is environmental (the artifact
        // already validated) and aborts before any shard is touched.
        std::vector<std::unique_ptr<core::PrestroidPipeline>> candidates;
        candidates.push_back(std::move(candidate));
        for (size_t i = 1; i < runtime_->ShardCount(); ++i) {
          auto extra = core::PrestroidPipeline::LoadFile(candidate_path);
          if (!extra.ok()) {
            ++stats_.swap_failures;
            return extra.status();
          }
          candidates.push_back(std::move(*extra));
        }
        auto swapped = runtime_->SwapPipelines(std::move(candidates),
                                               /*is_rollback=*/false);
        if (!swapped.ok()) {
          ++stats_.swap_failures;
          return swapped.status();
        }
        previous_ = std::move(*swapped);
        pre_swap_baseline_p50_ = drift_.baseline_p50();
        pre_swap_baseline_p95_ = drift_.baseline_p95();
        drift_detected_ = false;
        drift_.ResetWindow();
        if (report.replay_size > 0) {
          // The candidate's replay accuracy is the best available prior for
          // its live baseline; probation then refines it (or rolls back).
          drift_.SetBaseline(candidate_p50, report.candidate_p95);
        } else {
          drift_.ClearBaseline();
        }
        in_probation_ = HasPreviousLocked() && pre_swap_baseline_p95_ > 0.0;
        post_swap_observations_ = 0;
        ++stats_.swaps;
        ++stats_.active_version;
        report.outcome = ModelLifecycle::kActive;
        report.version = stats_.active_version;
        return report;
      }
    }
  }

  ++stats_.rejected_candidates;
  report.outcome = ModelLifecycle::kRejected;
  report.detail = valid;
  report.version = stats_.active_version;
  return report;
}

Status ModelManager::Rollback(const std::string& reason) {
  std::lock_guard<std::mutex> lock(mu_);
  return RollbackLocked(reason);
}

Status ModelManager::RollbackLocked(const std::string& reason) {
  if (!HasPreviousLocked()) {
    return Status::InvalidArgument("no previous model retained for rollback (" +
                                   reason + ")");
  }
  auto swapped =
      runtime_->SwapPipelines(std::move(previous_), /*is_rollback=*/true);
  previous_.clear();
  if (!swapped.ok()) {
    ++stats_.swap_failures;
    return swapped.status();
  }
  // The demoted models are discarded — re-promoting a model that just failed
  // probation would need fresh evidence (a new candidate artifact) anyway.
  in_probation_ = false;
  post_swap_observations_ = 0;
  drift_.ResetWindow();
  if (pre_swap_baseline_p95_ > 0.0) {
    drift_.SetBaseline(pre_swap_baseline_p50_, pre_swap_baseline_p95_);
  } else {
    drift_.ClearBaseline();
  }
  ++stats_.rollbacks;
  PRESTROID_LOG(Warning) << "model rolled back: " << reason;
  return Status::OK();
}

ModelManagerStats ModelManager::StatsSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  ModelManagerStats out = stats_;
  out.qerr_p50 = drift_.Percentile(50.0);
  out.qerr_p95 = drift_.Percentile(95.0);
  out.baseline_p50 = drift_.baseline_p50();
  out.baseline_p95 = drift_.baseline_p95();
  out.in_probation = in_probation_;
  out.drift_detected = drift_detected_;
  return out;
}

cost::ServingStats ModelManager::MergedStats() const {
  // Lock-order discipline: the runtime snapshot takes each shard's
  // serve_mu_/queue_mu_, and promotion paths hold mu_ -> serve locks — so
  // take the runtime snapshot BEFORE locking mu_.
  cost::ServingStats stats = runtime_->StatsSnapshot();
  std::lock_guard<std::mutex> lock(mu_);
  stats.rejected_candidates = stats_.rejected_candidates;
  stats.drift_flags = stats_.drift_flags;
  stats.drift_qerr_p50 = drift_.Percentile(50.0);
  stats.drift_qerr_p95 = drift_.Percentile(95.0);
  stats.drift_baseline_p95 = drift_.baseline_p95();
  return stats;
}

}  // namespace prestroid::serve
