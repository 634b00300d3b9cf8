#ifndef PRESTROID_BENCH_BENCH_COMMON_H_
#define PRESTROID_BENCH_BENCH_COMMON_H_

#include <memory>
#include <string>
#include <vector>

#include "baselines/log_binning.h"
#include "baselines/mscn.h"
#include "baselines/svr.h"
#include "baselines/wcnn.h"
#include "cloud/cost_optimizer.h"
#include "core/pipeline.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "workload/dataset.h"
#include "workload/tpcds_templates.h"
#include "workload/trace.h"

namespace prestroid::bench {

/// Scale knobs shared by all benchmark harnesses. The default ("small")
/// configuration reproduces every experiment's *shape* in minutes of CPU
/// time; set PRESTROID_BENCH_SCALE=full for paper-sized runs (19,876 Grab /
/// 5,153 TPC-DS queries, 512-channel convolutions, P_f up to 300 — expect
/// many hours on CPU).
struct BenchScale {
  bool full = false;
  // Dataset sizes.
  size_t grab_queries = 400;
  size_t tpcds_queries = 240;
  size_t tpcds_templates = 27;
  size_t num_tables = 80;
  int num_days = 60;
  // Model sizes (paper values at full scale).
  std::vector<size_t> grab_conv = {32, 32, 32};
  std::vector<size_t> grab_dense = {32, 16};
  std::vector<size_t> tpcds_conv = {16, 16, 16};
  std::vector<size_t> tpcds_dense = {16, 8};
  size_t mscn_units_grab = 32;
  size_t mscn_units_tpcds = 12;
  size_t wcnn_small_filters = 12;  // "WCNN-100" at small scale
  size_t wcnn_large_filters = 24;  // "WCNN-250" at small scale
  size_t wcnn_embed = 24;
  // P_f ladder standing in for the paper's {100, 200, 300} / {50, 100}.
  size_t pf_small = 16;
  size_t pf_mid = 24;
  size_t pf_large = 32;
  // Training budget.
  size_t max_epochs = 20;
  size_t patience = 5;
  size_t batch_size = 64;
  float dl_learning_rate = 3e-3f;
};

/// Resolves the scale from PRESTROID_BENCH_SCALE ("small" default, "full").
BenchScale GetBenchScale();

/// A generated dataset plus its splits.
struct BenchDataset {
  workload::GeneratedSchema schema;
  std::vector<workload::QueryRecord> records;
  workload::DatasetSplits splits;
  core::LabelTransform transform;
  std::vector<float> targets;       // normalized, index-aligned
  std::vector<double> cpu_minutes;  // index-aligned
};

/// Grab-Traces-like dataset (random 8/1/1 split).
BenchDataset BuildGrabDataset(const BenchScale& scale, uint64_t seed = 1001);

/// TPC-DS-like dataset (template-level 8/1/1 split).
BenchDataset BuildTpcdsDataset(const BenchScale& scale, uint64_t seed = 2002);

/// Outcome of training + evaluating one model.
struct ModelRun {
  std::string name;
  double test_mse_minutes = 0.0;
  size_t best_epoch = 0;
  double mean_epoch_seconds = 0.0;  // measured CPU wall time
  size_t num_parameters = 0;
  /// Test-split q-error percentiles (serve::QError, nearest rank).
  double qerror_p50 = 0.0;
  double qerror_p95 = 0.0;
  /// Prestroid pipelines only: the execution counters of the whole Train()
  /// call (per-layer wall clock included) and the epochs it ran.
  ExecStats train_stats;
  size_t epochs_run = 0;
  /// Kept alive for follow-up predictions (nullptr for non-pipeline models).
  std::unique_ptr<core::PrestroidPipeline> pipeline;
};

/// Trains a Prestroid pipeline variant. `use_subtrees=false` gives Full-P_f.
ModelRun RunPrestroid(const BenchDataset& data, const BenchScale& scale,
                      bool grab_profile, size_t node_limit, size_t subtrees,
                      size_t pf, bool use_subtrees, uint64_t seed = 7);

ModelRun RunMscn(const BenchDataset& data, const BenchScale& scale,
                 bool grab_profile, uint64_t seed = 7);
ModelRun RunWcnn(const BenchDataset& data, const BenchScale& scale,
                 size_t filters, const std::string& name, uint64_t seed = 7);
ModelRun RunLogBins(const BenchDataset& data, size_t bins);
ModelRun RunSvr(const BenchDataset& data, bool grab_profile);

/// Paper-scale compute/footprint descriptors (Figures 6, 7, 9, Table 3):
/// always use the paper's true dimensions — they are analytic, so no
/// training cost is incurred regardless of bench scale.
struct PaperModelSpec {
  std::string name;
  size_t trees_per_sample;  // K (1 for full trees)
  size_t nodes_padded;      // N, or the dataset-max tree size for full trees
  size_t feature_dim;       // |OPR|+1 + P_f + |TBL|+1
  std::vector<size_t> conv_channels;
  std::vector<size_t> dense_units;
  size_t epochs;            // convergence epochs from Table 2a
};

/// The paper's Grab-Traces model zoo with the measured max tree size
/// substituted for the full-tree padding target.
std::vector<PaperModelSpec> PaperGrabSpecs(size_t full_tree_max_nodes,
                                           size_t num_tables);

}  // namespace prestroid::bench

#endif  // PRESTROID_BENCH_BENCH_COMMON_H_
