#include "bench_common.h"

#include <cmath>
#include <cstdlib>

#include "plan/plan_stats.h"
#include "serve/model_manager.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace prestroid::bench {

BenchScale GetBenchScale() {
  BenchScale scale;
  const char* env = std::getenv("PRESTROID_BENCH_SCALE");
  if (env != nullptr && std::string(env) == "full") {
    scale.full = true;
    scale.grab_queries = 19876;
    scale.tpcds_queries = 5153;
    scale.tpcds_templates = 81;
    scale.num_tables = 240;
    scale.grab_conv = {512, 512, 512};
    scale.grab_dense = {128, 64};
    scale.tpcds_conv = {128, 128, 128};
    scale.tpcds_dense = {32, 8};
    scale.mscn_units_grab = 256;
    scale.mscn_units_tpcds = 24;
    scale.wcnn_small_filters = 100;
    scale.wcnn_large_filters = 250;
    scale.wcnn_embed = 100;
    scale.pf_small = 100;
    scale.pf_mid = 200;
    scale.pf_large = 300;
    scale.max_epochs = 100;
    scale.patience = 8;
    scale.dl_learning_rate = 1e-4f;
  }
  return scale;
}

namespace {

void FinishDataset(BenchDataset* data) {
  data->cpu_minutes = workload::CpuMinutesOf(data->records);
  PRESTROID_CHECK(data->transform.Fit(data->cpu_minutes).ok());
  data->targets = data->transform.NormalizeAll(data->cpu_minutes);
}

}  // namespace

BenchDataset BuildGrabDataset(const BenchScale& scale, uint64_t seed) {
  BenchDataset data;
  workload::SchemaGenConfig schema_config;
  schema_config.num_tables = scale.num_tables;
  schema_config.num_days = scale.num_days;
  schema_config.seed = seed;
  data.schema = workload::GenerateSchema(schema_config);

  workload::TraceConfig trace_config;
  trace_config.num_queries = scale.grab_queries;
  trace_config.num_days = scale.num_days;
  trace_config.seed = seed + 1;
  data.records =
      workload::GenerateGrabTrace(data.schema, trace_config).ValueOrDie();

  Rng rng(seed + 2);
  data.splits = workload::SplitRandom(data.records.size(), 0.8, 0.1, &rng);
  FinishDataset(&data);
  return data;
}

BenchDataset BuildTpcdsDataset(const BenchScale& scale, uint64_t seed) {
  BenchDataset data;
  data.schema = workload::GenerateTpcdsSchema(10.0);
  workload::TpcdsWorkloadConfig trace_config;
  trace_config.num_templates = scale.tpcds_templates;
  trace_config.num_queries = scale.tpcds_queries;
  trace_config.seed = seed;
  data.records =
      workload::GenerateTpcdsTrace(data.schema, trace_config).ValueOrDie();
  Rng rng(seed + 1);
  data.splits = workload::SplitByTemplate(data.records, 0.8, 0.1, &rng);
  FinishDataset(&data);
  return data;
}

namespace {

/// Fills run->qerror_p50/p95 from normalized test predictions.
void SetQErrors(ModelRun* run, const std::vector<float>& predicted_norm,
                const std::vector<double>& actual_minutes,
                const core::LabelTransform& transform) {
  serve::DriftDetector qerrors(predicted_norm.size());
  for (size_t i = 0; i < predicted_norm.size(); ++i) {
    qerrors.Record(serve::QError(transform.Denormalize(predicted_norm[i]),
                                 actual_minutes[i]));
  }
  run->qerror_p50 = qerrors.Percentile(50.0);
  run->qerror_p95 = qerrors.Percentile(95.0);
}

}  // namespace

ModelRun RunPrestroid(const BenchDataset& data, const BenchScale& scale,
                      bool grab_profile, size_t node_limit, size_t subtrees,
                      size_t pf, bool use_subtrees, uint64_t seed) {
  core::PipelineConfig config;
  config.word2vec.dim = pf;
  config.word2vec.min_count = scale.full ? 10 : 2;
  config.word2vec.epochs = 5;
  config.sampler.node_limit = node_limit;
  config.sampler.conv_layers = 3;
  config.num_subtrees = subtrees;
  config.use_subtrees = use_subtrees;
  config.conv_channels = grab_profile ? scale.grab_conv : scale.tpcds_conv;
  config.dense_units = grab_profile ? scale.grab_dense : scale.tpcds_dense;
  config.learning_rate = scale.dl_learning_rate;
  config.seed = seed;

  auto pipeline =
      core::PrestroidPipeline::Fit(data.records, data.splits.train, config)
          .ValueOrDie();
  TrainConfig train_config;
  train_config.max_epochs = scale.max_epochs;
  train_config.patience = scale.patience;
  train_config.batch_size = scale.batch_size;
  train_config.shuffle_seed = seed * 31 + 5;
  pipeline->execution_context()->ResetStats();
  TrainResult result = pipeline->Train(data.splits, train_config);

  ModelRun run;
  run.train_stats = pipeline->execution_context()->stats();
  run.epochs_run = result.epochs_run;
  run.name = pipeline->ModelName();
  run.test_mse_minutes = pipeline->EvaluateMseMinutes(data.splits.test);
  std::vector<double> actual;
  for (size_t idx : data.splits.test) actual.push_back(data.cpu_minutes[idx]);
  SetQErrors(&run, pipeline->model()->Predict(data.splits.test), actual,
             data.transform);
  run.best_epoch = result.best_epoch;
  run.mean_epoch_seconds = result.mean_epoch_seconds;
  run.num_parameters = pipeline->model()->NumParameters();
  run.pipeline = std::move(pipeline);
  return run;
}

namespace {

/// Shared driver for the CostModel-interface baselines.
ModelRun RunCostModel(CostModel* model, const BenchDataset& data,
                      const BenchScale& scale, uint64_t seed) {
  TrainConfig train_config;
  train_config.max_epochs = scale.max_epochs;
  train_config.patience = scale.patience;
  train_config.batch_size = scale.batch_size;
  train_config.shuffle_seed = seed * 17 + 3;
  std::vector<float> val_targets;
  for (size_t idx : data.splits.val) val_targets.push_back(data.targets[idx]);
  TrainResult result = TrainWithEarlyStopping(
      model, data.splits.train, data.splits.val, val_targets, train_config);

  std::vector<float> pred = model->Predict(data.splits.test);
  std::vector<double> actual;
  for (size_t idx : data.splits.test) actual.push_back(data.cpu_minutes[idx]);

  ModelRun run;
  run.name = model->name();
  run.test_mse_minutes = core::MseMinutes(pred, actual, data.transform);
  SetQErrors(&run, pred, actual, data.transform);
  run.best_epoch = result.best_epoch;
  run.mean_epoch_seconds = result.mean_epoch_seconds;
  run.num_parameters = model->NumParameters();
  return run;
}

}  // namespace

ModelRun RunMscn(const BenchDataset& data, const BenchScale& scale,
                 bool grab_profile, uint64_t seed) {
  baselines::MscnConfig config;
  config.hidden_units =
      grab_profile ? scale.mscn_units_grab : scale.mscn_units_tpcds;
  config.learning_rate = grab_profile ? 1e-3f : 1e-4f;
  if (!scale.full) config.learning_rate = scale.dl_learning_rate;
  config.seed = seed;
  baselines::MscnModel model(config);
  PRESTROID_CHECK(model.Fit(data.records, data.splits.train, data.targets).ok());
  return RunCostModel(&model, data, scale, seed);
}

ModelRun RunWcnn(const BenchDataset& data, const BenchScale& scale,
                 size_t filters, const std::string& name, uint64_t seed) {
  baselines::WcnnConfig config;
  config.embed_dim = scale.wcnn_embed;
  config.filters_per_window = filters;
  config.learning_rate = scale.full ? 1e-3f : scale.dl_learning_rate;
  config.name = name;
  config.seed = seed;
  baselines::WcnnModel model(config);
  PRESTROID_CHECK(model.Fit(data.records, data.splits.train, data.targets).ok());
  return RunCostModel(&model, data, scale, seed);
}

ModelRun RunLogBins(const BenchDataset& data, size_t bins) {
  std::vector<double> node_counts;
  node_counts.reserve(data.records.size());
  for (const workload::QueryRecord& record : data.records) {
    node_counts.push_back(static_cast<double>(
        plan::ComputePlanStats(*record.plan).node_count));
  }
  std::vector<double> train_nodes;
  std::vector<float> train_targets;
  for (size_t idx : data.splits.train) {
    train_nodes.push_back(node_counts[idx]);
    train_targets.push_back(data.targets[idx]);
  }
  baselines::LogBinningModel model(bins);
  PRESTROID_CHECK(model.Fit(train_nodes, train_targets).ok());

  std::vector<float> pred;
  std::vector<double> actual;
  for (size_t idx : data.splits.test) {
    pred.push_back(model.Predict(node_counts[idx]));
    actual.push_back(data.cpu_minutes[idx]);
  }
  ModelRun run;
  run.name = StrFormat("Log bins (B=%zu)", bins);
  run.test_mse_minutes = core::MseMinutes(pred, actual, data.transform);
  SetQErrors(&run, pred, actual, data.transform);
  return run;
}

ModelRun RunSvr(const BenchDataset& data, bool grab_profile) {
  std::vector<std::vector<float>> rows;
  rows.reserve(data.records.size());
  for (const workload::QueryRecord& record : data.records) {
    rows.push_back(baselines::SvrPlanFeatures(*record.plan, record.sql));
  }
  // Standardize features (z-score with train statistics): the polynomial
  // kernel saturates on raw log-scale magnitudes.
  const size_t dim = rows[0].size();
  std::vector<double> mean(dim, 0.0), var(dim, 0.0);
  for (size_t idx : data.splits.train) {
    for (size_t j = 0; j < dim; ++j) mean[j] += rows[idx][j];
  }
  for (size_t j = 0; j < dim; ++j) {
    mean[j] /= static_cast<double>(data.splits.train.size());
  }
  for (size_t idx : data.splits.train) {
    for (size_t j = 0; j < dim; ++j) {
      double d = rows[idx][j] - mean[j];
      var[j] += d * d;
    }
  }
  for (size_t j = 0; j < dim; ++j) {
    var[j] = std::sqrt(var[j] / static_cast<double>(data.splits.train.size()) +
                       1e-8);
  }
  for (std::vector<float>& row : rows) {
    for (size_t j = 0; j < dim; ++j) {
      row[j] = static_cast<float>((row[j] - mean[j]) / var[j]);
    }
  }
  std::vector<std::vector<float>> train_rows;
  std::vector<float> train_targets;
  for (size_t idx : data.splits.train) {
    train_rows.push_back(rows[idx]);
    train_targets.push_back(data.targets[idx]);
  }
  baselines::SvrConfig config;
  if (grab_profile) {
    config.kernel.type = baselines::KernelType::kPolynomial;
    config.kernel.degree = 4;
    config.kernel.gamma = 1.0 / static_cast<double>(dim);
    config.kernel.coef0 = 1.0;
  } else {
    config.kernel.type = baselines::KernelType::kSigmoid;
    config.kernel.gamma = 0.5 / static_cast<double>(dim);
    config.kernel.coef0 = 0.0;
    config.learning_rate = 0.004;
  }
  config.epochs = 150;
  baselines::Svr model(config);
  PRESTROID_CHECK(
      model.Fit(baselines::StackFeatures(train_rows), train_targets).ok());

  std::vector<float> pred;
  std::vector<double> actual;
  for (size_t idx : data.splits.test) {
    pred.push_back(model.Predict(rows[idx].data()));
    actual.push_back(data.cpu_minutes[idx]);
  }
  ModelRun run;
  run.name = StrFormat("SVR (%s)",
                       baselines::KernelTypeToString(config.kernel.type));
  run.test_mse_minutes = core::MseMinutes(pred, actual, data.transform);
  SetQErrors(&run, pred, actual, data.transform);
  return run;
}

std::vector<PaperModelSpec> PaperGrabSpecs(size_t full_tree_max_nodes,
                                           size_t num_tables) {
  // Node-feature width: |OPR|+1 + P_f + |TBL|+1 with ~12 operator labels.
  auto feat = [num_tables](size_t pf) { return 13 + pf + num_tables + 1; };
  const std::vector<size_t> conv = {512, 512, 512};
  const std::vector<size_t> dense = {128, 64};
  return {
      {"Prestroid (15-9-300)", 9, 15, feat(300), conv, dense, 49},
      {"Prestroid (32-11-200)", 11, 32, feat(200), conv, dense, 41},
      {"Full-100", 1, full_tree_max_nodes, feat(100), conv, dense, 52},
      {"Full-300", 1, full_tree_max_nodes, feat(300), conv, dense, 51},
  };
}

}  // namespace prestroid::bench
