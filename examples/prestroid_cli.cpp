// prestroid_cli — command-line front end over the public API, covering the
// full production workflow:
//
//   prestroid_cli gen-trace --queries 300 --tables 40 --days 30
//                 --seed 7 --out /tmp/trace.txt
//   prestroid_cli train     --trace /tmp/trace.txt --out /tmp/model.ppl
//                 [--full] [--n 15] [--k 9] [--pf 32] [--epochs 25]
//                 [--snapshot-every 5] [--snapshot /tmp/train.ckpt] [--resume]
//   prestroid_cli predict   --model /tmp/model.ppl --trace /tmp/new.txt
//                 [--limit 10]
//   prestroid_cli serve     --model /tmp/model.ppl --trace /tmp/new.txt
//                 [--deadline-ms 50] [--no-model] [--limit 20]
//                 [--max-batch 32] [--queue-depth 256]
//                 [--cache-entries 1024]
//                 [--shards 1] [--tenants 1]
//                 [--tenant-quota T:INFLIGHT[:BYTES][,T:...]]
//                 [--memory-budget BYTES] [--retrain-interval N]
//                 [--listen HOST:PORT]
//   prestroid_cli estimate  --connect HOST:PORT --trace /tmp/new.txt
//   prestroid_cli explain   --trace /tmp/trace.txt [--index 0]
//
// gen-trace writes the on-disk trace format (SQL + EXPLAIN text + profiler
// metrics per query); train fits and serializes a pipeline (crash-safe: the
// model artifact and the periodic training snapshots are written atomically,
// and --resume continues an interrupted run from the last snapshot); predict
// loads a saved pipeline and scores a trace's plans without retraining;
// serve runs the batched serving tier (serve::ShardedServingRuntime, one
// shard by default) over the fault-tolerant ServingEstimator — governor,
// tenant-quota and memory admission, bounded shard queues, dynamic
// micro-batching, plan-fingerprint answer caching, per-request deadline,
// and the model -> log-binning -> global-mean degradation chain. Without
// --listen it replays the trace and reports which tier answered each query;
// with --listen it answers POST /estimate over HTTP until SIGTERM. In either
// mode --retrain-interval runs the continual-learning loop (shadow
// retraining, drift detection, shadow-validated zero-downtime hot-swap with
// automatic rollback). estimate is the resilient client for a --listen
// server; explain pretty-prints one record's logical plan and O-T-P
// statistics.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <future>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/continual_trainer.h"
#include "core/pipeline.h"
#include "cost/serving_estimator.h"
#include "net/estimate_service.h"
#include "net/http_server.h"
#include "net/listener.h"
#include "net/resilient_client.h"
#include "net/signal_handler.h"
#include "serve/model_manager.h"
#include "serve/sharded_runtime.h"
#include "serve/tenant_quota.h"
#include "tensor/kernels/gemm_kernels.h"
#include "util/artifact_io.h"
#include "util/histogram.h"
#include "otp/otp_tree.h"
#include "plan/plan_stats.h"
#include "plan/plan_text.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"
#include "workload/dataset.h"
#include "workload/trace.h"

using namespace prestroid;  // CLI tool; the library never does this

namespace {

/// Minimal --flag value parser.
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    // A flag followed by a non-flag token takes it as a value; otherwise it
    // is boolean. This keeps `--resume --epochs 30` and `--epochs 30
    // --resume` equivalent.
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) continue;
      present_.insert(key.substr(2));
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[key.substr(2)] = argv[i + 1];
        ++i;
      }
    }
  }

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  long GetInt(const std::string& key, long fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    // Checked parse: `--epochs 2x` or an overflowing value is a usage error,
    // not a silent strtol truncation.
    int64_t value = 0;
    if (!ParseInt64(it->second, &value) ||
        value < std::numeric_limits<long>::min() ||
        value > std::numeric_limits<long>::max()) {
      std::cerr << "invalid integer for --" << key << ": '" << it->second
                << "'\n";
      std::exit(2);
    }
    return static_cast<long>(value);
  }
  /// A count or size flag: GetInt, but a value outside [min, max] is a
  /// usage error too (a negative one would wrap to a huge size_t, a count the
  /// library needs at least one of would abort on its CHECK, and one past a
  /// flag's cap would wrap a narrower type or run until killed).
  size_t GetCount(const std::string& key, size_t fallback, size_t min = 0,
                  size_t max = std::numeric_limits<size_t>::max()) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    const long value = GetInt(key, 0);
    if (value < 0 || static_cast<size_t>(value) < min ||
        static_cast<size_t>(value) > max) {
      std::cerr << "invalid count for --" << key << ": '" << it->second
                << "' (must be >= " << min;
      if (max != std::numeric_limits<size_t>::max()) {
        std::cerr << " and <= " << max;
      }
      std::cerr << ")\n";
      std::exit(2);
    }
    return static_cast<size_t>(value);
  }
  double GetDouble(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    char* end = nullptr;
    const double value = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0' || !std::isfinite(value)) {
      std::cerr << "invalid number for --" << key << ": '" << it->second
                << "'\n";
      std::exit(2);
    }
    return value;
  }
  bool Has(const std::string& key) const { return present_.count(key) > 0; }
  /// Every --flag given on the command line, without the leading dashes.
  const std::set<std::string>& names() const { return present_; }

 private:
  std::map<std::string, std::string> values_;
  std::set<std::string> present_;
};

int Fail(const Status& status) {
  std::cerr << "error: " << status.ToString() << "\n";
  return 1;
}

/// Plan resource budget from --max-plan-nodes / --max-plan-depth.
plan::PlanLimits PlanLimitsFromFlags(const Flags& flags) {
  plan::PlanLimits limits;
  limits.max_nodes = flags.GetCount("max-plan-nodes", limits.max_nodes);
  limits.max_depth = flags.GetCount("max-plan-depth", limits.max_depth);
  return limits;
}

/// The tolerant ingest of train and serve: limits from --max-plan-*, an
/// optional --quarantine-file, and `lanes` parsing lanes.
workload::IngestOptions IngestOptionsFromFlags(const Flags& flags,
                                               size_t lanes) {
  workload::IngestOptions options;
  options.plan_limits = PlanLimitsFromFlags(flags);
  options.quarantine_path = flags.Get("quarantine-file", "");
  options.lanes = lanes;
  return options;
}

/// Tolerant trace ingestion shared by train and serve: hostile records are
/// quarantined instead of failing the run, and each accepted record goes to
/// `sink`. A trace with no accepted record is an error.
Result<workload::IngestStats> IngestTrace(
    const workload::IngestOptions& options, const std::string& trace_path,
    const workload::RecordSink& sink) {
  auto stats = workload::ReadTraceFileTolerant(trace_path, options, sink);
  if (!stats.ok()) return stats.status();
  if (stats->quarantined > 0) {
    std::cout << "ingest: " << stats->Summary();
    if (!options.quarantine_path.empty()) {
      std::cout << " -> " << options.quarantine_path;
    }
    std::cout << "\n";
  }
  if (stats->accepted == 0) {
    return Status::InvalidArgument("no usable records in " + trace_path +
                                   " (all quarantined: " + stats->Summary() +
                                   ")");
  }
  return stats;
}

/// gen-trace caps: five times the paper's 19,876-query trace, a schema far
/// wider than any experiment's, and a day count the generator's int holds.
constexpr size_t kMaxTraceQueries = 100000;
constexpr size_t kMaxSchemaTables = 10000;
constexpr size_t kMaxTraceDays = std::numeric_limits<int>::max();

int GenTrace(const Flags& flags) {
  // Every count is checked before any generation starts.
  workload::SchemaGenConfig schema_config;
  schema_config.num_tables = flags.GetCount("tables", 40, 1, kMaxSchemaTables);
  schema_config.num_days =
      static_cast<int>(flags.GetCount("days", 30, 1, kMaxTraceDays));
  schema_config.seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  workload::TraceConfig trace_config;
  trace_config.num_queries =
      flags.GetCount("queries", 300, 0, kMaxTraceQueries);
  workload::GeneratedSchema schema = workload::GenerateSchema(schema_config);

  trace_config.num_days = schema_config.num_days;
  trace_config.seed = schema_config.seed + 1;
  auto records = workload::GenerateGrabTrace(schema, trace_config);
  if (!records.ok()) return Fail(records.status());

  const std::string out = flags.Get("out", "trace.txt");
  Status written = workload::WriteTraceFile(out, *records);
  if (!written.ok()) return Fail(written);
  std::cout << "wrote " << records->size() << " queries to " << out << "\n";
  return 0;
}

/// Train's --threads cap: far past any host's cores, and below where the
/// pool's worker threads would exhaust a process's thread limit.
constexpr size_t kMaxTrainThreads = 256;

int Train(const Flags& flags) {
  const std::string trace_path = flags.Get("trace", "");
  if (trace_path.empty()) {
    std::cerr << "train requires --trace <file>\n";
    return 2;
  }
  // --threads 1 (default) reproduces the single-threaded results exactly;
  // --threads 0 uses all hardware threads. The ingest parses on as many.
  const size_t threads = flags.GetCount("threads", 1, 0, kMaxTrainThreads);
  std::vector<workload::QueryRecord> records;
  auto ingested = IngestTrace(
      IngestOptionsFromFlags(flags, threads == 0
                                        ? ThreadPool::HardwareConcurrency()
                                        : threads),
      trace_path, [&](workload::QueryRecord&& record) {
        records.push_back(std::move(record));
      });
  if (!ingested.ok()) return Fail(ingested.status());
  std::cout << "loaded " << records.size() << " queries from " << trace_path
            << "\n";

  Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 11)));
  workload::DatasetSplits splits =
      workload::SplitRandom(records.size(), 0.8, 0.1, &rng);

  core::PipelineConfig config;
  config.use_subtrees = !flags.Has("full");
  config.sampler.node_limit = flags.GetCount("n", 15);
  config.num_subtrees = flags.GetCount("k", 9, 1);
  config.word2vec.dim = flags.GetCount("pf", 32, 1);
  config.word2vec.min_count = 2;
  config.conv_channels.assign(3, flags.GetCount("conv", 32, 1));
  config.dense_units = {flags.GetCount("conv", 32, 1), 16};
  config.learning_rate = 3e-3f;
  config.threads = threads;
  config.plan_limits = PlanLimitsFromFlags(flags);
  auto pipeline = core::PrestroidPipeline::Fit(records, splits.train, config);
  if (!pipeline.ok()) return Fail(pipeline.status());

  TrainConfig train_config;
  train_config.batch_size = flags.GetCount("batch", 32, 1);
  train_config.max_epochs = flags.GetCount("epochs", 25);
  train_config.patience = 6;
  // Crash-safe snapshots: default the checkpoint path next to --out so
  // `--resume` after an interruption needs no extra flags.
  train_config.snapshot_every = flags.GetCount("snapshot-every", 0);
  train_config.resume = flags.Has("resume");
  if (train_config.snapshot_every > 0 || train_config.resume) {
    train_config.snapshot_path =
        flags.Get("snapshot", flags.Get("out", "model.ppl") + ".ckpt");
    if (train_config.snapshot_every == 0) train_config.snapshot_every = 5;
  }
  TrainResult result = (*pipeline)->Train(splits, train_config);
  if (result.start_epoch > 1) {
    std::cout << "resumed training at epoch " << result.start_epoch << "\n";
  }
  if (result.nan_rollbacks > 0) {
    std::cout << "recovered from " << result.nan_rollbacks
              << " non-finite epoch(s)"
              << (result.diverged ? " (diverged; kept best checkpoint)" : "")
              << "\n";
  }
  std::cout << (*pipeline)->ModelName() << ": " << result.epochs_run
            << " epochs (best " << result.best_epoch << "), test MSE "
            << StrFormat("%.2f",
                         (*pipeline)->EvaluateMseMinutes(splits.test))
            << " min^2\n";
  const ExecutionContext* exec_ctx = (*pipeline)->execution_context();
  const ExecStats& exec_stats = exec_ctx->stats();
  std::cout << StrFormat(
      "exec: threads=%zu isa=%s flops=%llu op_invocations=%llu "
      "peak_scratch_bytes=%llu\n",
      exec_ctx->num_threads(), GemmBlockedIsaName(),
      static_cast<unsigned long long>(exec_stats.flops),
      static_cast<unsigned long long>(exec_stats.op_invocations),
      static_cast<unsigned long long>(exec_stats.peak_scratch_bytes));

  const std::string out = flags.Get("out", "model.ppl");
  Status saved = (*pipeline)->SaveFile(out);
  if (!saved.ok()) return Fail(saved);
  std::cout << "saved pipeline to " << out << "\n";

  std::cout << StrFormat("summary: trained=%zu quarantined=%zu\n",
                         records.size(), ingested->quarantined);
  return 0;
}

int Predict(const Flags& flags) {
  const std::string model_path = flags.Get("model", "");
  const std::string trace_path = flags.Get("trace", "");
  if (model_path.empty() || trace_path.empty()) {
    std::cerr << "predict requires --model <file> --trace <file>\n";
    return 2;
  }
  auto pipeline = core::PrestroidPipeline::LoadFile(model_path);
  if (!pipeline.ok()) return Fail(pipeline.status());
  auto records = workload::ReadTraceFile(trace_path);
  if (!records.ok()) return Fail(records.status());

  const size_t limit =
      std::min<size_t>(records->size(), flags.GetCount("limit", 20));
  TablePrinter table({"query", "predicted (min)", "actual (min)", "error"});
  double se = 0.0;
  for (size_t i = 0; i < limit; ++i) {
    auto predicted = (*pipeline)->PredictPlan(*(*records)[i].plan);
    if (!predicted.ok()) return Fail(predicted.status());
    double actual = (*records)[i].metrics.total_cpu_minutes;
    se += (*predicted - actual) * (*predicted - actual);
    table.AddRow({StrFormat("q%zu", i), StrFormat("%.2f", *predicted),
                  StrFormat("%.2f", actual),
                  StrFormat("%+.2f", *predicted - actual)});
  }
  table.Print(std::cout);
  std::cout << StrFormat("MSE over %zu queries: %.2f min^2\n", limit,
                         se / static_cast<double>(limit));
  return 0;
}

/// Checked base-10 parse; rejects empty, trailing junk, and overflow (same
/// contract as the Flags integer parser).
bool ParseSize(const std::string& text, size_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0') return false;
  *out = static_cast<size_t>(value);
  return true;
}

/// Parses "--tenant-quota T:INFLIGHT[:BYTES][,T:...]" and installs each
/// quota. Returns false (with a usage message) on a malformed spec.
bool ApplyTenantQuotas(const std::string& spec,
                       serve::ShardedServingRuntime& runtime) {
  for (const std::string& entry : Split(spec, ',')) {
    if (entry.empty()) continue;
    const std::vector<std::string> parts = Split(entry, ':');
    size_t tenant = 0;
    serve::TenantQuota quota;
    const bool well_formed =
        parts.size() >= 2 && parts.size() <= 3 &&
        ParseSize(parts[0], &tenant) &&
        ParseSize(parts[1], &quota.max_in_flight) &&
        (parts.size() < 3 || ParseSize(parts[2], &quota.max_scratch_bytes));
    if (!well_formed) {
      std::cerr << "invalid --tenant-quota entry '" << entry
                << "' (want T:INFLIGHT[:BYTES])\n";
      return false;
    }
    runtime.SetTenantQuota(static_cast<serve::TenantId>(tenant), quota);
  }
  return true;
}

/// The continual-learning loop behind --retrain-interval N: served queries
/// become labeled observations, a shadow trainer periodically retrains a
/// candidate on the freshest window, and the model manager shadow-validates
/// and hot-swaps it into the running tier — with drift detection, probation,
/// and automatic rollback. Driven from one thread at a time.
class ContinualLoop {
 public:
  /// One served query with its measured cost (record.metrics).
  struct Observation {
    const workload::QueryRecord* record;
    cost::ServingEstimate estimate;
  };

  ContinualLoop(const Flags& flags, size_t retrain_interval,
                serve::ShardedServingRuntime* runtime)
      : manager_(runtime, ManagerConfig(flags)),
        trainer_(TrainerConfig(flags, retrain_interval,
                               runtime->config().shard.plan_limits)) {}

  size_t retrain_interval() const {
    return trainer_.config().retrain_interval;
  }

  /// Observes each labeled query and buffers it for retraining; then, if a
  /// retrain is due, trains a candidate and tries to promote it.
  void Feed(const std::vector<Observation>& observations) {
    for (const Observation& obs : observations) {
      manager_.ObserveLabeled(*obs.record->plan, obs.estimate.cpu_minutes,
                              obs.record->metrics.total_cpu_minutes,
                              obs.estimate.tier);
      trainer_.AddRecord(*obs.record);
    }
    if (!trainer_.RetrainDue()) return;
    auto candidate = trainer_.RetrainCandidate();
    if (!candidate.ok()) {
      std::cerr << "retrain failed (active model keeps serving): "
                << candidate.status().ToString() << "\n";
      return;
    }
    auto report = manager_.TryPromote(candidate->artifact_path);
    if (!report.ok()) {
      std::cerr << "promotion failed (active model keeps serving): "
                << report.status().ToString() << "\n";
      return;
    }
    std::cout << StrFormat(
        "candidate %s: %s (q-error p95 candidate=%.2f active=%.2f over "
        "%zu replayed, version=%llu)\n",
        candidate->artifact_path.c_str(),
        serve::ModelLifecycleToString(report->outcome), report->candidate_p95,
        report->active_p95, report->replay_size,
        static_cast<unsigned long long>(report->version));
  }

  cost::ServingStats MergedStats() const { return manager_.MergedStats(); }

 private:
  static serve::ModelManagerConfig ManagerConfig(const Flags& flags) {
    serve::ModelManagerConfig config;
    config.drift_threshold = flags.GetDouble("drift-threshold", 2.0);
    config.probation_window = flags.GetCount("probation-window", 64);
    config.rollback_qerr = flags.GetDouble("rollback-qerr", 2.0);
    return config;
  }

  static core::ContinualTrainerConfig TrainerConfig(
      const Flags& flags, size_t retrain_interval,
      const plan::PlanLimits& plan_limits) {
    core::ContinualTrainerConfig config;
    config.pipeline.use_subtrees = !flags.Has("full");
    config.pipeline.sampler.node_limit = flags.GetCount("n", 15);
    config.pipeline.num_subtrees = flags.GetCount("k", 9, 1);
    config.pipeline.word2vec.dim = flags.GetCount("pf", 32, 1);
    config.pipeline.word2vec.min_count = 2;
    config.pipeline.conv_channels.assign(3, flags.GetCount("conv", 32, 1));
    config.pipeline.dense_units = {flags.GetCount("conv", 32, 1), 16};
    config.pipeline.learning_rate = 3e-3f;
    config.pipeline.plan_limits = plan_limits;
    config.train.batch_size = 32;
    config.train.max_epochs = flags.GetCount("retrain-epochs", 10);
    config.train.patience = 4;
    config.retrain_interval = retrain_interval;
    const std::string model_path = flags.Get("model", "");
    config.candidate_path = flags.Get(
        "candidate",
        (model_path.empty() ? std::string("model.ppl") : model_path) +
            ".candidate");
    // Interrupted retrains resume from their last snapshot instead of
    // restarting (the existing crash-safe training machinery).
    config.train.snapshot_path = config.candidate_path + ".ckpt";
    config.train.snapshot_every = 5;
    config.train.resume = true;
    return config;
  }

  serve::ModelManager manager_;
  core::ContinualTrainer trainer_;
};

/// Offline replay (serve without --listen): submits the trace's first
/// --limit plans, spread round-robin over --tenants synthetic tenants, and
/// prints one row per query.
///
/// Plans go in a window at a time so the micro-batcher sees batches. On
/// kResourceExhausted (full queue, tenant quota, or memory budget) the
/// oldest outstanding request is drained and the submit retried —
/// closed-loop backpressure. A shed with nothing outstanding is terminal for
/// that query (its quota cannot free itself): the row is marked "shed" and
/// the run continues. A governor reject (kInvalidArgument) marks the row
/// "rejected". With a continual loop the window is the retrain interval, and
/// each window's answers are fed back as labeled observations — the trace's
/// measured cost is the ground truth that in production arrives once the
/// query finishes executing.
int ReplayTrace(const Flags& flags,
                const std::vector<workload::QueryRecord>& records,
                size_t tenants, serve::ShardedServingRuntime& runtime,
                ContinualLoop* loop) {
  const size_t limit =
      std::min<size_t>(records.size(), flags.GetCount("limit", 20));
  const size_t window = loop != nullptr ? loop->retrain_interval() : limit;
  std::vector<cost::ServingEstimate> estimates(limit);
  std::vector<std::string> refused(limit);
  for (size_t window_start = 0; window_start < limit;
       window_start += window) {
    const size_t window_end = std::min(limit, window_start + window);
    std::deque<std::pair<size_t, std::future<cost::ServingEstimate>>> in_flight;
    auto settle_oldest = [&] {
      estimates[in_flight.front().first] = in_flight.front().second.get();
      in_flight.pop_front();
    };
    for (size_t i = window_start; i < window_end; ++i) {
      const auto tenant = static_cast<serve::TenantId>(i % tenants);
      for (;;) {
        auto submitted = runtime.Submit(*records[i].plan, 0.0, tenant);
        if (submitted.ok()) {
          in_flight.emplace_back(i, std::move(*submitted));
          break;
        }
        const StatusCode code = submitted.status().code();
        if (code == StatusCode::kResourceExhausted && !in_flight.empty()) {
          settle_oldest();
          continue;
        }
        if (code == StatusCode::kInvalidArgument) {
          refused[i] = "rejected";
        } else if (code == StatusCode::kResourceExhausted) {
          refused[i] = "shed";
        } else {
          return Fail(submitted.status());
        }
        std::cerr << "q" << i << " " << refused[i] << ": "
                  << submitted.status().message() << "\n";
        break;
      }
    }
    while (!in_flight.empty()) settle_oldest();
    if (loop == nullptr) continue;
    std::vector<ContinualLoop::Observation> observations;
    for (size_t i = window_start; i < window_end; ++i) {
      if (refused[i].empty()) {
        observations.push_back({&records[i], estimates[i]});
      }
    }
    loop->Feed(observations);
  }

  TablePrinter table({"query", "tenant", "estimate (min)", "actual (min)",
                      "tier", "latency (ms)"});
  for (size_t i = 0; i < limit; ++i) {
    const std::string query = StrFormat("q%zu", i);
    const std::string tenant = StrFormat("%zu", i % tenants);
    const std::string actual =
        StrFormat("%.2f", records[i].metrics.total_cpu_minutes);
    if (!refused[i].empty()) {
      table.AddRow({query, tenant, "-", actual, refused[i], "-"});
      continue;
    }
    table.AddRow({query, tenant, StrFormat("%.2f", estimates[i].cpu_minutes),
                  actual, cost::ServingTierToString(estimates[i].tier),
                  StrFormat("%.3f", estimates[i].latency_ms)});
  }
  table.Print(std::cout);
  runtime.Shutdown();
  return 0;
}

/// Network mode (serve --listen HOST:PORT): the serving tier behind the
/// poll-based HTTP front end (DESIGN.md §5.9). With a continual loop, served
/// queries that arrive with an X-Actual-Cpu-Minutes label flow through a
/// queue into one background thread that feeds the loop — keeping all
/// lifecycle machinery single-threaded while the event loop keeps answering.
/// SIGTERM/SIGINT triggers a graceful drain: stop accepting, flush in-flight
/// batches, then return so the caller prints the summary and exits 0.
int ListenAndServe(const Flags& flags, const std::string& host, uint16_t port,
                   serve::ShardedServingRuntime& runtime, ContinualLoop* loop) {
  net::SignalHandler signals;
  Status installed = signals.Install();
  if (!installed.ok()) return Fail(installed);

  const plan::PlanLimits& plan_limits = runtime.config().shard.plan_limits;
  net::HttpServerConfig server_config;
  server_config.host = host;
  server_config.port = port;
  server_config.max_connections = flags.GetCount("max-connections", 256);
  server_config.max_body_bytes = plan_limits.max_plan_bytes;
  server_config.drain_timeout_ms = flags.GetCount("drain-timeout-ms", 5000);
  server_config.header_timeout_ms = flags.GetCount("header-timeout-ms", 10000);
  server_config.idle_timeout_ms = flags.GetCount("idle-timeout-ms", 60000);
  net::HttpServer server(server_config);
  Status bound = server.Start();
  if (!bound.ok()) return Fail(bound);

  net::EstimateServiceConfig service_config;
  service_config.plan_limits = plan_limits;
  net::EstimateService service(&runtime, service_config);

  std::mutex obs_mu;
  std::condition_variable obs_cv;
  std::deque<std::pair<workload::QueryRecord, cost::ServingEstimate>> obs_queue;
  bool obs_stop = false;
  std::thread retrain_thread;
  if (loop != nullptr) {
    service.SetLabeledObservationHook(
        [&](plan::PlanNodePtr plan, const cost::ServingEstimate& estimate,
            double actual) {
          workload::QueryRecord record;
          record.plan = std::move(plan);
          record.metrics.total_cpu_minutes = actual;
          {
            std::lock_guard<std::mutex> lock(obs_mu);
            obs_queue.emplace_back(std::move(record), estimate);
          }
          obs_cv.notify_one();
        });
    retrain_thread = std::thread([&]() {
      for (;;) {
        std::pair<workload::QueryRecord, cost::ServingEstimate> obs;
        {
          std::unique_lock<std::mutex> lock(obs_mu);
          obs_cv.wait(lock, [&]() { return obs_stop || !obs_queue.empty(); });
          if (obs_queue.empty()) return;  // stop and drained
          obs = std::move(obs_queue.front());
          obs_queue.pop_front();
        }
        loop->Feed({{&obs.first, obs.second}});
      }
    });
  }
  service.RegisterRoutes(&server);

  std::cout << StrFormat(
      "serving on %s:%u (shards=%zu, max-connections=%zu%s)\n", host.c_str(),
      static_cast<unsigned>(server.port()), runtime.ShardCount(),
      server_config.max_connections,
      loop != nullptr ? ", continual retraining on" : "");
  std::cout << "POST /estimate | GET /healthz | GET /metrics | "
               "SIGTERM drains\n";

  Status ran = server.Run(signals.drain_fd());

  // Shutdown order matters: stop the retrain thread (it borrows nothing from
  // the runtime), then Shutdown() the runtime (resolves every queued
  // future), and only then release the service's parked plans.
  if (retrain_thread.joinable()) {
    {
      std::lock_guard<std::mutex> lock(obs_mu);
      obs_stop = true;
    }
    obs_cv.notify_one();
    retrain_thread.join();
  }
  runtime.Shutdown();
  service.Shutdown();
  if (!ran.ok()) return Fail(ran);

  const net::HttpServerStats http = server.StatsSnapshot();
  std::cout << StrFormat(
      "drained in %.1fms (forced closes: %zu)\n", server.drain_latency_ms(),
      static_cast<size_t>(http.forced_drain_closes));
  std::cout << StrFormat(
      "http: requests=%zu accepted=%zu rejected=%zu aborted=%zu "
      "drain-rejects=%zu\n",
      static_cast<size_t>(http.requests),
      static_cast<size_t>(http.connections_accepted),
      static_cast<size_t>(http.connections_rejected),
      static_cast<size_t>(http.connections_aborted),
      static_cast<size_t>(http.draining_rejects));
  return 0;
}

/// Exit summary shared by both serve modes: tiers, queue/cache, latency,
/// shards/tenants/memory, and — with a continual loop — the lifecycle line.
void PrintServeSummary(const serve::ShardedServingRuntime& runtime,
                       const ContinualLoop* loop, size_t quarantined) {
  const cost::ServingStats stats =
      loop == nullptr ? runtime.StatsSnapshot() : loop->MergedStats();
  const LatencyHistogram latency = runtime.LatencySnapshot();
  const MemoryTrackerStats memory = runtime.MemorySnapshot();
  const std::vector<serve::TenantCounters> tenants = runtime.TenantSnapshot();
  std::cout << StrFormat(
      "tiers: model=%zu log-binning=%zu global-mean=%zu | "
      "rejects=%zu deadline-skips=%zu deadline-misses=%zu model-errors=%zu\n",
      stats.by_tier[0], stats.by_tier[1], stats.by_tier[2],
      stats.validation_rejects, stats.deadline_skips, stats.deadline_misses,
      stats.model_errors);
  const size_t cache_lookups = stats.cache_hits + stats.cache_misses;
  std::cout << StrFormat(
      "queue: high-watermark=%zu rejected=%zu limit-rejects=%zu "
      "quarantined=%zu | cache: hits=%zu misses=%zu "
      "evictions=%zu hit-rate=%.1f%%\n",
      stats.queue_high_watermark, stats.rejected_requests, stats.limit_rejects,
      quarantined, stats.cache_hits, stats.cache_misses, stats.cache_evictions,
      cache_lookups == 0
          ? 0.0
          : 100.0 * static_cast<double>(stats.cache_hits) /
                static_cast<double>(cache_lookups));
  std::cout << StrFormat(
      "latency: p50=%.3fms p95=%.3fms p99=%.3fms (n=%zu)\n",
      latency.Percentile(50.0), latency.Percentile(95.0),
      latency.Percentile(99.0), latency.count());
  std::cout << StrFormat(
      "shards: %zu | tenants: %zu quota-sheds=%zu memory-denied=%zu | "
      "memory: in-use=%zuB peak=%zuB\n",
      runtime.ShardCount(), tenants.size(), stats.quota_sheds,
      stats.memory_denied, memory.in_use_bytes, memory.peak_bytes);
  for (const serve::TenantCounters& t : tenants) {
    std::cout << StrFormat(
        "  tenant %u: admitted=%zu quota-sheds=%zu\n",
        static_cast<unsigned>(t.tenant), t.admitted, t.quota_sheds);
  }
  if (loop != nullptr) {
    std::cout << StrFormat(
        "lifecycle: swaps=%zu rollbacks=%zu rejected-candidates=%zu "
        "drift-flags=%zu | q-error p50=%.2f p95=%.2f baseline-p95=%.2f\n",
        stats.model_swaps, stats.model_rollbacks, stats.rejected_candidates,
        stats.drift_flags, stats.drift_qerr_p50, stats.drift_qerr_p95,
        stats.drift_baseline_p95);
  }
}

/// Each serve shard loads its own copy of the model and runs a worker thread.
constexpr size_t kMaxShards = 64;
/// Caps on serve's other counts: far past any useful setting, and below
/// where a per-shard cache, queue or batch, or the replay's tenant ids (a
/// uint32), would outgrow the host or wrap.
constexpr size_t kMaxCacheEntries = size_t{1} << 24;
constexpr size_t kMaxQueueDepth = size_t{1} << 20;
constexpr size_t kMaxBatch = 4096;
constexpr size_t kMaxTenants = 65536;
/// serve parses its trace on a lane per CPU it may run on, up to this many:
/// a window of records is parsed in about a millisecond, so more lanes
/// would mostly start and wake threads.
constexpr size_t kMaxIngestLanes = 8;

/// serve: one estimator and model instance per --shards shard behind the
/// fingerprint-routed, tenant-quota'd ShardedServingRuntime, the optional
/// continual loop, then either the HTTP service (--listen) or the offline
/// replay of the trace, and one exit summary.
int Serve(const Flags& flags) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  const std::string model_path = flags.Get("model", "");
  const std::string trace_path = flags.Get("trace", "");
  if (trace_path.empty()) {
    std::cerr << "serve requires --trace <file> (and ideally --model <file>)\n";
    return 2;
  }
  const bool listen = flags.Has("listen");
  std::string host;
  uint16_t port = 0;
  if (listen) {
    Status listen_spec =
        net::ParseHostPort(flags.Get("listen", ""), &host, &port);
    if (!listen_spec.ok()) return Fail(listen_spec);
  }

  // The flags read here are checked before any work, so a usage error
  // exits 2 at once, and never while the model loader runs. The rest
  // (--tenant-quota, --limit, the retrain and server flags) are read after
  // the loader has been joined. Queue depth, batch size and the replay's
  // tenant count are each at least one.
  serve::ShardedRuntimeConfig config;
  config.shards = flags.GetCount("shards", 1, 1, kMaxShards);
  config.shard.queue_depth =
      flags.GetCount("queue-depth", 256, 1, kMaxQueueDepth);
  config.shard.max_batch = flags.GetCount("max-batch", 32, 1, kMaxBatch);
  config.shard.cache_entries =
      flags.GetCount("cache-entries", 1024, 0, kMaxCacheEntries);
  config.shard.plan_limits = PlanLimitsFromFlags(flags);
  config.memory_budget_bytes = flags.GetCount("memory-budget", 0);
  const size_t tenants = flags.GetCount("tenants", 1, 1, kMaxTenants);
  const size_t retrain_interval = flags.GetCount("retrain-interval", 0);
  workload::IngestOptions ingest_options = IngestOptionsFromFlags(
      flags, std::min(ThreadPool::HardwareConcurrency(), kMaxIngestLanes));
  // A listening server needs only each plan's node count, so its ingest
  // checks the plans without building them; the offline replay replays
  // them.
  ingest_options.build_plans = !listen;
  cost::ServingLimits limits;
  limits.default_deadline_ms =
      static_cast<double>(flags.GetInt("deadline-ms", 50));

  // The set-up line gives each phase its own time: trace ingest, fallback
  // fit (summed over shards), model load (summed over shards, on its own
  // thread alongside the ingest), runtime start, and the wall time from
  // here until serving.
  auto ms_since = [](Clock::time_point from) {
    return std::chrono::duration<double, std::milli>(Clock::now() - from)
        .count();
  };

  // Each shard's model instance loads on the loader thread while the trace
  // is ingested. The jthread joins on every way out of this function; the
  // first corrupt load ends the loading.
  std::vector<Result<std::unique_ptr<core::PrestroidPipeline>>> pipelines;
  double load_ms = 0.0;
  std::jthread loader;
  if (!model_path.empty() && !flags.Has("no-model")) {
    pipelines.reserve(config.shards);
    loader = std::jthread([&] {
      const Clock::time_point began = Clock::now();
      for (size_t s = 0; s < config.shards; ++s) {
        pipelines.push_back(core::PrestroidPipeline::LoadFile(model_path));
        if (pipelines.back().status().code() == StatusCode::kDataCorruption) {
          break;
        }
      }
      load_ms = ms_since(began);
    });
  }

  // One pass over the trace feeds the fallback samples; only the offline
  // replay keeps its records, to replay them. So a listening server holds
  // the model and the samples, never the trace's plans.
  cost::FallbackSamples samples;
  std::vector<workload::QueryRecord> records;
  Clock::time_point phase = Clock::now();
  auto ingested =
      IngestTrace(ingest_options, trace_path,
                  [&](workload::QueryRecord&& record) {
                    samples.Add(record);
                    if (!listen) records.push_back(std::move(record));
                  });
  const double ingest_ms = ms_since(phase);
  if (!ingested.ok()) return Fail(ingested.status());
  if (loader.joinable()) loader.join();

  // One estimator per shard: fallbacks fitted from the shared samples plus
  // an independent model instance. A *missing* model artifact degrades
  // serving instead of killing it (the fallback tiers keep answering), but a
  // *corrupt* one fails fast: LoadFile CRC-validates the container, and
  // serving from an artifact store that corrupts data would hide real damage.
  if (!pipelines.empty() &&
      pipelines.back().status().code() == StatusCode::kDataCorruption) {
    return Fail(pipelines.back().status());
  }
  if (!pipelines.empty() && !pipelines.front().ok()) {
    std::cerr << "warning: model tier unavailable ("
              << pipelines.front().status().ToString()
              << "); serving degraded\n";
  }
  std::vector<std::unique_ptr<cost::ServingEstimator>> estimators;
  std::vector<cost::ServingEstimator*> raw_estimators;
  double fit_ms = 0.0;
  for (size_t s = 0; s < config.shards; ++s) {
    auto estimator = std::make_unique<cost::ServingEstimator>(limits);
    phase = Clock::now();
    Status fitted = estimator->FitFallbacks(samples);
    fit_ms += ms_since(phase);
    if (!fitted.ok()) return Fail(fitted);
    if (s < pipelines.size() && pipelines[s].ok()) {
      estimator->AttachPipeline(std::move(*pipelines[s]));
    }
    raw_estimators.push_back(estimator.get());
    estimators.push_back(std::move(estimator));
  }

  phase = Clock::now();
  serve::ShardedServingRuntime runtime(raw_estimators, config);
  if (!ApplyTenantQuotas(flags.Get("tenant-quota", ""), runtime)) return 2;
  Status started = runtime.Start();
  if (!started.ok()) return Fail(started);
  std::cout << StrFormat(
      "setup: ingest=%.1fms fallback-fit=%.1fms model-load=%.1fms "
      "runtime-start=%.1fms ready=%.1fms (shards=%zu)\n",
      ingest_ms, fit_ms, load_ms, ms_since(phase), ms_since(start),
      config.shards);

  std::unique_ptr<ContinualLoop> loop;
  if (retrain_interval > 0) {
    loop = std::make_unique<ContinualLoop>(flags, retrain_interval, &runtime);
  }

  const int code =
      listen ? ListenAndServe(flags, host, port, runtime, loop.get())
             : ReplayTrace(flags, records, tenants, runtime, loop.get());
  if (code != 0) return code;
  PrintServeSummary(runtime, loop.get(), ingested->quarantined);
  return 0;
}

int Explain(const Flags& flags) {
  const std::string trace_path = flags.Get("trace", "");
  if (trace_path.empty()) {
    std::cerr << "explain requires --trace <file>\n";
    return 2;
  }
  auto records = workload::ReadTraceFile(trace_path);
  if (!records.ok()) return Fail(records.status());
  const size_t index = flags.GetCount("index", 0);
  if (index >= records->size()) {
    std::cerr << "index out of range (trace has " << records->size()
              << " queries)\n";
    return 2;
  }
  const workload::QueryRecord& record = (*records)[index];
  std::cout << "SQL:\n  " << record.sql << "\n\n";
  std::cout << "Logical plan:\n" << plan::PlanToText(*record.plan);
  plan::PlanStats stats = plan::ComputePlanStats(*record.plan);
  auto tree = otp::RecastPlan(*record.plan);
  if (!tree.ok()) return Fail(tree.status());
  std::cout << "\nplan: " << stats.node_count << " nodes, depth "
            << stats.max_depth << ", " << stats.num_joins << " join(s) | "
            << "O-T-P tree: " << tree->node_count << " nodes, depth "
            << tree->max_depth << "\n";
  std::cout << StrFormat(
      "measured: %.2f CPU min, %.3f GB peak memory, %.2f GB input\n",
      record.metrics.total_cpu_minutes, record.metrics.peak_memory_gb,
      record.metrics.input_gb);
  return 0;
}

// ---------------------------------------------------------------------------
// estimate: resilient client against a running `serve --listen` instance —
// retry with full-jitter backoff under a total deadline budget, per-attempt
// socket timeouts, and a half-open circuit breaker (DESIGN.md §5.10).
int EstimateCmd(const Flags& flags) {
  const std::string connect = flags.Get("connect", "");
  if (connect.empty()) {
    std::cerr << "estimate requires --connect HOST:PORT\n";
    return 2;
  }
  std::string host;
  uint16_t port = 0;
  Status parsed = net::ParseHostPort(connect, &host, &port);
  if (!parsed.ok()) return Fail(parsed);
  if (host.empty()) host = "127.0.0.1";

  net::EstimateRequest request;
  if (flags.Has("sql")) {
    request.body = flags.Get("sql", "");
    request.sql = true;
  } else if (flags.Has("plan")) {
    const std::string path = flags.Get("plan", "");
    auto text = ReadFileToString(path);
    if (!text.ok()) {
      std::cerr << "cannot read plan file: " << path << "\n";
      return 1;
    }
    request.body = std::move(text).value();
  } else if (flags.Has("trace")) {
    auto records = workload::ReadTraceFile(flags.Get("trace", ""));
    if (!records.ok()) return Fail(records.status());
    const size_t index = flags.GetCount("index", 0);
    if (index >= records->size()) {
      std::cerr << StrFormat("--index %zu out of range (%zu records)\n",
                             index, records->size());
      return 1;
    }
    request.body = plan::PlanToText(*(*records)[index].plan);
  } else {
    std::cerr << "estimate requires one of --sql, --plan, or --trace\n";
    return 2;
  }
  if (flags.Has("actual-cpu-minutes")) {
    request.actual_cpu_minutes = flags.GetDouble("actual-cpu-minutes", 0.0);
  }
  request.idempotency_key = flags.Get("idempotency-key", "");
  if (flags.Has("tenant")) {
    request.tenant = static_cast<uint32_t>(flags.GetInt("tenant", 0));
  }

  net::RetryPolicy policy;
  policy.max_attempts = flags.GetCount("retries", 3) + 1;
  policy.initial_backoff_ms = flags.GetDouble("backoff-ms", 10.0);
  policy.max_backoff_ms = flags.GetDouble("max-backoff-ms", 2000.0);
  policy.attempt_timeout_ms = flags.GetDouble("attempt-timeout-ms", 1000.0);
  policy.deadline_budget_ms = flags.GetDouble("deadline-ms", 5000.0);
  policy.jitter_seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  net::CircuitBreakerConfig breaker;
  breaker.failure_threshold = flags.GetDouble("circuit-threshold", 0.5);
  breaker.open_cooldown_ms = flags.GetDouble("circuit-cooldown-ms", 1000.0);

  net::EstimateClient client(host, port, policy, breaker);
  const long count = flags.GetInt("count", 1);
  int exit_code = 0;
  for (long i = 0; i < count; ++i) {
    auto reply = client.Estimate(request);
    if (!reply.ok()) {
      std::cerr << "request failed: " << reply.status().ToString() << "\n";
      exit_code = 1;
      continue;
    }
    if (reply->code == 200) {
      std::cout << StrFormat(
          "cpu_minutes=%.6g tier=%s degraded=%s attempts=%zu "
          "elapsed_ms=%.2f\n",
          reply->cpu_minutes, reply->tier.c_str(),
          reply->degraded ? "true" : "false", reply->attempts,
          reply->elapsed_ms);
    } else {
      std::cout << StrFormat("HTTP %d after %zu attempt(s): %s\n",
                             reply->code, reply->attempts,
                             reply->body.c_str());
      exit_code = 1;
    }
  }
  const net::EstimateClientStats stats = client.stats();
  std::cerr << StrFormat(
      "client: attempts=%llu retries=%llu transport_errors=%llu "
      "retryable_statuses=%llu retry_after_honored=%llu "
      "deadline_exhausted=%llu breaker{state=%s opens=%llu half_opens=%llu "
      "closes=%llu short_circuits=%llu}\n",
      static_cast<unsigned long long>(stats.attempts),
      static_cast<unsigned long long>(stats.retries),
      static_cast<unsigned long long>(stats.transport_errors),
      static_cast<unsigned long long>(stats.retryable_statuses),
      static_cast<unsigned long long>(stats.retry_after_honored),
      static_cast<unsigned long long>(stats.deadline_exhausted),
      net::CircuitStateName(stats.breaker_state),
      static_cast<unsigned long long>(stats.breaker.opens),
      static_cast<unsigned long long>(stats.breaker.half_opens),
      static_cast<unsigned long long>(stats.breaker.closes),
      static_cast<unsigned long long>(stats.breaker.short_circuits));
  return exit_code;
}

int Usage() {
  std::cerr
      << "usage: prestroid_cli <command> [--flag value ...]\n"
         "  gen-trace --queries N --tables T --days D --seed S --out FILE\n"
         "            (N <= 100000, T <= 10000)\n"
         "  train     --trace FILE --out FILE [--full] [--n N] [--k K]\n"
         "            [--pf P] [--conv C] [--epochs E] [--batch B]\n"
         "            [--threads T (1=serial, 0=all cores)]\n"
         "            [--snapshot-every N] [--snapshot FILE] [--resume]\n"
         "            [--max-plan-nodes N] [--max-plan-depth D]\n"
         "            [--quarantine-file FILE]\n"
         "  predict   --model FILE --trace FILE [--limit N]\n"
         "  serve     --model FILE --trace FILE [--deadline-ms MS]\n"
         "            [--no-model] [--limit N] [--max-batch B]\n"
         "            [--queue-depth Q]\n"
         "            [--cache-entries C (per-shard answer cache: recurring\n"
         "             plans skip the queue and the model; 0=off)]\n"
         "            [--max-plan-nodes N] [--max-plan-depth D]\n"
         "            [--quarantine-file FILE]\n"
         "            [--retrain-interval N (0=off; N served+labeled\n"
         "             queries per shadow retrain + hot-swap attempt)]\n"
         "            [--retrain-epochs E] [--candidate FILE]\n"
         "            [--drift-threshold X] [--probation-window N]\n"
         "            [--rollback-qerr X]\n"
         "            [--full] [--n N] [--k K] [--pf P] [--conv C]\n"
         "            (shape of retrained candidates)\n"
         "            [--shards S (1 to 64, default 1)]\n"
         "            [--tenants K (offline: spread queries over K tenants)]\n"
         "            [--tenant-quota T:INFLIGHT[:BYTES][,T:...]]\n"
         "            [--memory-budget BYTES (0=account only)]\n"
         "            [--listen HOST:PORT (HTTP service: POST /estimate,\n"
         "             GET /healthz, GET /metrics; SIGTERM drains)]\n"
         "            [--max-connections N (default 256)]\n"
         "            [--drain-timeout-ms T (default 5000)]\n"
         "            [--header-timeout-ms T (default 10000)]\n"
         "            [--idle-timeout-ms T (default 60000; 0=off;\n"
         "             silently closes idle keep-alive connections)]\n"
         "  estimate  --connect HOST:PORT (--sql \"SELECT...\" |\n"
         "            --plan FILE | --trace FILE [--index I])\n"
         "            [--count N] [--retries R (default 3)]\n"
         "            [--backoff-ms MS (default 10, full jitter)]\n"
         "            [--max-backoff-ms MS] [--attempt-timeout-ms MS]\n"
         "            [--deadline-ms MS (total budget, default 5000)]\n"
         "            [--circuit-threshold F (default 0.5)]\n"
         "            [--circuit-cooldown-ms MS] [--seed S]\n"
         "            [--tenant T] [--actual-cpu-minutes X]\n"
         "            [--idempotency-key K (required to retry labeled\n"
         "             posts after bytes hit the wire)]\n"
         "  explain   --trace FILE [--index I]\n";
  return 2;
}

/// One CLI command and every flag it reads. main rejects any other flag, so
/// a typo or a removed flag fails loudly instead of being ignored.
struct Command {
  const char* name;
  int (*run)(const Flags&);
  std::set<std::string> flags;
};

const std::vector<Command>& Commands() {
  // train and serve also read IngestTrace's flags (max-plan-*,
  // quarantine-file); serve reads ContinualLoop's retrain flags (model shape
  // included), ReplayTrace's and ListenAndServe's.
  static const std::vector<Command> kCommands = {
      {"gen-trace", GenTrace, {"queries", "tables", "days", "seed", "out"}},
      {"train", Train,
       {"trace", "out", "seed", "full", "n", "k", "pf", "conv", "threads",
        "batch", "epochs", "snapshot-every", "snapshot", "resume",
        "max-plan-nodes", "max-plan-depth", "quarantine-file"}},
      {"predict", Predict, {"model", "trace", "limit"}},
      {"serve", Serve,
       {"model", "trace", "listen", "shards", "deadline-ms", "no-model",
        "queue-depth", "max-batch", "cache-entries", "memory-budget",
        "tenant-quota", "retrain-interval", "retrain-epochs", "candidate",
        "drift-threshold", "probation-window", "rollback-qerr", "full", "n",
        "k", "pf", "conv", "tenants", "limit", "max-connections",
        "drain-timeout-ms", "header-timeout-ms", "idle-timeout-ms",
        "max-plan-nodes", "max-plan-depth", "quarantine-file"}},
      {"estimate", EstimateCmd,
       {"connect", "sql", "plan", "trace", "index", "actual-cpu-minutes",
        "idempotency-key", "tenant", "retries", "backoff-ms",
        "max-backoff-ms", "attempt-timeout-ms", "deadline-ms", "seed",
        "circuit-threshold", "circuit-cooldown-ms", "count"}},
      {"explain", Explain, {"trace", "index"}},
  };
  return kCommands;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  Flags flags(argc, argv, 2);
  for (const Command& candidate : Commands()) {
    if (command != candidate.name) continue;
    for (const std::string& name : flags.names()) {
      if (candidate.flags.count(name) == 0) {
        std::cerr << "unknown flag --" << name << " for " << command << "\n";
        return Usage();
      }
    }
    return candidate.run(flags);
  }
  return Usage();
}
