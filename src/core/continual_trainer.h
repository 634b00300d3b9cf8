#ifndef PRESTROID_CORE_CONTINUAL_TRAINER_H_
#define PRESTROID_CORE_CONTINUAL_TRAINER_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "nn/trainer.h"
#include "util/status.h"
#include "workload/trace.h"

namespace prestroid::core {

/// Policy for the shadow retraining loop feeding the hot-swap pipeline.
struct ContinualTrainerConfig {
  /// Pipeline architecture for retrained candidates (typically the same
  /// shape the serving model was trained with).
  PipelineConfig pipeline;
  /// Training-loop settings; snapshot_path/snapshot_every/resume engage the
  /// existing crash-safe snapshot machinery, so an interrupted retrain
  /// resumes instead of restarting.
  TrainConfig train;
  /// A retrain becomes due every time this many fresh labeled records have
  /// accumulated since the last candidate.
  size_t retrain_interval = 256;
  /// Sliding buffer of the freshest labeled records retraining draws from
  /// (oldest evicted first). Bounds both memory and per-retrain cost.
  size_t max_buffer = 4096;
  /// Where RetrainCandidate publishes its artifact (SaveFile; atomic
  /// temp+fsync+rename with CRC, so the serving side can never load a
  /// half-written candidate).
  std::string candidate_path = "candidate.ppl";
};

/// One published candidate artifact.
struct CandidateReport {
  std::string artifact_path;
  TrainResult train;
  size_t records_used = 0;
  /// MSE in minutes^2 on the retrain's own validation partition.
  double val_mse_minutes = 0.0;
};

/// Shadow trainer for continual learning: accumulates fresh labeled query
/// records (e.g. from the serving loop once ground-truth costs arrive),
/// periodically refits and retrains a candidate pipeline on the freshest
/// window, and publishes it as a CRC-checksummed artifact for
/// serve::ModelManager::TryPromote to validate and hot-swap.
///
/// A retrain that diverges (NaN retries exhausted) publishes nothing and
/// returns an error — a known-bad model never becomes a candidate. Not
/// thread-safe; confine to the control thread that also drives promotion.
class ContinualTrainer {
 public:
  explicit ContinualTrainer(ContinualTrainerConfig config);

  /// Buffers a deep copy of one labeled record (the caller keeps ownership).
  /// Records with non-finite or non-positive labels are ignored — the
  /// estimate endpoint rejects them upstream, but tolerant trace ingest
  /// still admits a zero label, and a direct caller gets the same shield.
  void AddRecord(const workload::QueryRecord& record);

  size_t buffered() const { return buffer_.size(); }

  /// True once retrain_interval fresh records have arrived since the last
  /// RetrainCandidate call (and the buffer is big enough to split).
  bool RetrainDue() const;

  /// Fits + trains a candidate on the buffered records and saves it to
  /// config().candidate_path. Errors (too little data, divergence, failed
  /// save) leave no artifact behind.
  Result<CandidateReport> RetrainCandidate();

  const ContinualTrainerConfig& config() const { return config_; }

 private:
  ContinualTrainerConfig config_;
  std::vector<workload::QueryRecord> buffer_;
  size_t since_retrain_ = 0;
  size_t retrain_count_ = 0;
};

}  // namespace prestroid::core

#endif  // PRESTROID_CORE_CONTINUAL_TRAINER_H_
