#include "inputs.h"

#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "plan/plan_text.h"
#include "util/random.h"
#include "wire.h"
#include "workload/schema_generator.h"

namespace perfbench {

using prestroid::Result;
using prestroid::Rng;
using prestroid::Status;
namespace workload = prestroid::workload;

namespace {

// The warehouse schema is the same at every seed (`prestroid_cli gen-trace`'s
// default schema seed), as a production warehouse's tables outlive any one
// query log; the seed draws the queries. Schema-level differences would
// otherwise move every timing at once (plan sizes, predicate vocabulary).
// Held-out ad-hoc queries come from the same schema under trace seeds the
// training trace never uses.
constexpr uint64_t kSchemaSeed = 7;
constexpr size_t kServingModelEpochs = 8;
constexpr uint64_t kHeldOutSeedOffset = 1000003;

workload::GeneratedSchema WarehouseSchema() {
  workload::SchemaGenConfig config;
  config.num_tables = 40;
  config.num_days = 30;
  config.seed = kSchemaSeed;
  return workload::GenerateSchema(config);
}

Result<std::vector<workload::QueryRecord>> Generate(
    const workload::GeneratedSchema& schema, uint64_t trace_seed,
    size_t queries) {
  workload::TraceConfig config;
  config.num_queries = queries;
  config.num_days = 30;
  config.seed = trace_seed;
  return workload::GenerateGrabTrace(schema, config);
}

}  // namespace

prestroid::core::PipelineConfig CliPipelineConfig() {
  prestroid::core::PipelineConfig config;
  config.use_subtrees = true;
  config.sampler.node_limit = 15;
  config.num_subtrees = 9;
  config.word2vec.dim = 32;
  config.word2vec.min_count = 2;
  config.conv_channels.assign(3, 32);
  config.dense_units = {32, 16};
  config.learning_rate = 3e-3f;
  config.threads = 1;
  return config;
}

Result<std::vector<workload::QueryRecord>> WriteSeededTrace(
    uint64_t seed, const std::string& path) {
  PRESTROID_ASSIGN_OR_RETURN(std::vector<workload::QueryRecord> records,
                             Generate(WarehouseSchema(), seed, kTraceQueries));
  PRESTROID_RETURN_NOT_OK(workload::WriteTraceFile(path, records));
  return records;
}

workload::DatasetSplits SeededSplits(uint64_t seed, size_t records) {
  Rng rng(seed * 2654435761ULL + 11);
  return workload::SplitRandom(records, 0.8, 0.1, &rng);
}

Result<ServingInputs> PrepareServing(ServingKind kind, uint64_t seed,
                                     const std::string& dir,
                                     size_t stream_length) {
  ServingInputs inputs;
  inputs.trace_path = dir + "/trace.txt";
  inputs.model_path = dir + "/model.ppl";
  PRESTROID_ASSIGN_OR_RETURN(std::vector<workload::QueryRecord> records,
                             WriteSeededTrace(seed, inputs.trace_path));
  const workload::DatasetSplits splits = SeededSplits(seed, records.size());

  // The serving model: `prestroid_cli train`'s default shape and schedule
  // (batch 32, patience 6) on this trace, but at most kServingModelEpochs
  // epochs to keep preparation short; its accuracy is reported, not bounded.
  PRESTROID_ASSIGN_OR_RETURN(
      std::unique_ptr<prestroid::core::PrestroidPipeline> pipeline,
      prestroid::core::PrestroidPipeline::Fit(records, splits.train,
                                              CliPipelineConfig()));
  prestroid::TrainConfig train_config;
  train_config.batch_size = 32;
  train_config.max_epochs = kServingModelEpochs;
  train_config.patience = 6;
  pipeline->Train(splits, train_config);
  PRESTROID_RETURN_NOT_OK(pipeline->SaveFile(inputs.model_path));

  Rng rng(seed ^ 0x5DEECE66DULL);
  if (kind == ServingKind::kRecurringPlans) {
    // The pool takes evenly spaced size quantiles of the training split, so
    // it has the trace's long-tailed size distribution at every seed.
    std::vector<size_t> train = splits.train;
    if (train.size() < kRecurringPool) {
      return Status::Internal("training split smaller than the plan pool");
    }
    std::vector<size_t> text_bytes(records.size(), 0);
    for (size_t index : train) {
      text_bytes[index] = prestroid::plan::PlanToText(*records[index].plan).size();
    }
    std::stable_sort(train.begin(), train.end(),
                     [&](size_t a, size_t b) { return text_bytes[a] < text_bytes[b]; });
    std::vector<size_t> pool;
    for (size_t i = 0; i < kRecurringPool; ++i) {
      pool.push_back(train[(2 * i + 1) * train.size() / (2 * kRecurringPool)]);
    }
    for (size_t index : pool) {
      ServingItem item;
      item.body = prestroid::plan::PlanToText(*records[index].plan);
      item.label_minutes = records[index].metrics.total_cpu_minutes;
      inputs.items.push_back(std::move(item));
    }
    // Warm-up sends every pool plan once so the measured stream starts from
    // a full cache, as a long-running server would.
    inputs.warmup = inputs.items.size();
  } else {
    PRESTROID_ASSIGN_OR_RETURN(
        std::vector<workload::QueryRecord> held_out,
        Generate(WarehouseSchema(), seed + kHeldOutSeedOffset,
                 kAdhocPool + kAdhocPool / 4));
    std::unordered_set<std::string> seen;
    for (const workload::QueryRecord& record : records) seen.insert(record.sql);
    for (workload::QueryRecord& record : held_out) {
      if (inputs.items.size() == kAdhocPool) break;
      if (!seen.insert(record.sql).second) continue;
      ServingItem item;
      item.body = record.sql;
      item.sql = true;
      item.label_minutes = record.metrics.total_cpu_minutes;
      inputs.items.push_back(std::move(item));
    }
    if (inputs.items.size() < kAdhocPool) {
      return Status::Internal("not enough distinct held-out queries");
    }
    // Warm-up runs the server's lazy paths on 256 queries; a full pass over
    // the pool (four times the cache) follows before any repeat.
    inputs.warmup = 256;
  }
  // Both streams cycle through the pool in one seeded order.
  std::vector<size_t> order(inputs.items.size());
  std::iota(order.begin(), order.end(), 0);
  rng.Shuffle(&order);
  while (inputs.stream.size() < inputs.warmup + stream_length) {
    inputs.stream.push_back(order[inputs.stream.size() % order.size()]);
  }
  for (ServingItem& item : inputs.items) {
    item.request = BuildPost(
        "/estimate", item.sql ? "application/sql" : "text/plain", item.body);
  }
  return inputs;
}

}  // namespace perfbench
