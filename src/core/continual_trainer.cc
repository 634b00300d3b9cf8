#include "core/continual_trainer.h"

#include <cmath>
#include <utility>

#include "util/random.h"

namespace prestroid::core {

namespace {

/// Smallest buffer a retrain will split: 80/20 over this still leaves a
/// couple of validation rows for early stopping.
constexpr size_t kMinRetrainRecords = 10;

workload::QueryRecord CloneRecord(const workload::QueryRecord& record) {
  workload::QueryRecord copy;
  copy.id = record.id;
  copy.day = record.day;
  copy.template_id = record.template_id;
  copy.sql = record.sql;
  copy.plan = record.plan == nullptr ? nullptr : record.plan->Clone();
  copy.metrics = record.metrics;
  return copy;
}

}  // namespace

ContinualTrainer::ContinualTrainer(ContinualTrainerConfig config)
    : config_(std::move(config)) {}

void ContinualTrainer::AddRecord(const workload::QueryRecord& record) {
  // CPU minutes are positive: a label <= 0 would fail LabelTransform::Fit
  // (a log transform) on every retrain until it aged out of the buffer.
  if (record.plan == nullptr ||
      !std::isfinite(record.metrics.total_cpu_minutes) ||
      record.metrics.total_cpu_minutes <= 0) {
    return;
  }
  buffer_.push_back(CloneRecord(record));
  if (config_.max_buffer > 0 && buffer_.size() > config_.max_buffer) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() +
                      static_cast<long>(buffer_.size() - config_.max_buffer));
  }
  ++since_retrain_;
}

bool ContinualTrainer::RetrainDue() const {
  return since_retrain_ >= config_.retrain_interval &&
         buffer_.size() >= kMinRetrainRecords;
}

Result<CandidateReport> ContinualTrainer::RetrainCandidate() {
  if (buffer_.size() < kMinRetrainRecords) {
    return Status::InvalidArgument(
        "continual retrain needs at least " +
        std::to_string(kMinRetrainRecords) + " buffered records, have " +
        std::to_string(buffer_.size()));
  }

  // A fresh shuffle per retrain (seeded deterministically off the retrain
  // ordinal) so successive candidates don't validate on the same rows.
  Rng rng(config_.pipeline.seed + 0x9e3779b9u * (retrain_count_ + 1));
  workload::DatasetSplits splits =
      workload::SplitRandom(buffer_.size(), 0.8, 0.2, &rng);

  PRESTROID_ASSIGN_OR_RETURN(
      std::unique_ptr<PrestroidPipeline> pipeline,
      PrestroidPipeline::Fit(buffer_, splits.train, config_.pipeline));

  TrainResult train = pipeline->Train(splits, config_.train);
  if (train.diverged) {
    // Exhausted NaN-recovery retries: the weights are whatever checkpoint
    // survived, but a run that could not finish is not promotion evidence.
    // Publish nothing — the active model keeps serving.
    return Status::Internal(
        "continual retrain diverged after " +
        std::to_string(train.nan_rollbacks) +
        " NaN rollback(s); candidate not published");
  }

  CandidateReport report;
  report.train = train;
  report.records_used = buffer_.size();
  report.val_mse_minutes = pipeline->EvaluateMseMinutes(splits.val);
  report.artifact_path = config_.candidate_path;
  PRESTROID_RETURN_NOT_OK(pipeline->SaveFile(config_.candidate_path));

  since_retrain_ = 0;
  ++retrain_count_;
  return report;
}

}  // namespace prestroid::core
