#include "training_layers.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "inputs.h"
#include "spans.h"
#include "stats.h"
#include "util/random.h"
#include "workload/dataset.h"

namespace perfbench {
namespace {

namespace core = prestroid::core;
namespace workload = prestroid::workload;

// Epochs trained: the served model's schedule. Fixed so the losses repeat
// bit for bit at a given seed.
constexpr size_t kEpochs = 8;
// Set-ups (ingest plus Fit) timed; the figures are their medians. The first
// comes before the first epoch, the others after the trained pipeline was
// released.
constexpr size_t kSetups = 5;
// The repeatability check fits a second pipeline from the same inputs and
// trains it kCheckEpochs epochs in the same order; its losses and its test
// predictions must equal the first pipeline's after as many epochs, bit for
// bit.
constexpr size_t kCheckEpochs = 2;

double SpanSeconds(const SpanRecorder& spans, int64_t index) {
  const Span& s = spans.spans()[static_cast<size_t>(index)];
  return static_cast<double>(s.end_ns - s.start_ns) / 1e9;
}

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// True when both vectors hold the same doubles, bit for bit.
bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (Bits(a[i]) != Bits(b[i])) return false;
  }
  return true;
}

uint64_t EpochSeed(uint64_t seed) { return seed * 0x9E3779B97F4A7C15ULL + 17; }

}  // namespace

void MeasureTrainingLayers(const RunOptions& options,
                           const std::string& trace_path,
                           const std::string& spans_path, RunReport* report) {
  SpanRecorder spans;
  const int64_t root = spans.Begin("training", -1, 0);
  std::vector<double> ingest_s;
  std::vector<double> fit_s;
  // One timed set-up: ingest the trace, split it and Fit. Its records and
  // splits go to the caller, or are dropped with a null destination.
  auto set_up = [&](std::vector<workload::QueryRecord>* records_out,
                    workload::DatasetSplits* splits_out)
      -> std::unique_ptr<core::PrestroidPipeline> {
    const int64_t setup = spans.Begin("setup", root, 0);
    const int64_t ingest = spans.Begin("workload.ingest", setup, 0);
    auto ingested =
        workload::ReadTraceFileTolerant(trace_path, workload::IngestOptions{});
    spans.End(ingest);
    if (!ingested.ok() || ingested->records.empty()) {
      spans.End(setup);
      report->Violation("trace ingest failed");
      return nullptr;
    }
    const workload::DatasetSplits splits =
        SeededSplits(options.seed, ingested->records.size());
    const int64_t fit = spans.Begin("core.fit", setup, 0);
    auto fitted = core::PrestroidPipeline::Fit(ingested->records, splits.train,
                                               CliPipelineConfig());
    spans.End(fit);
    spans.End(setup);
    if (!fitted.ok()) {
      report->Violation("Fit failed: " + fitted.status().ToString());
      return nullptr;
    }
    ingest_s.push_back(SpanSeconds(spans, ingest));
    fit_s.push_back(SpanSeconds(spans, fit));
    if (records_out != nullptr) *records_out = std::move(ingested->records);
    if (splits_out != nullptr) *splits_out = splits;
    return std::move(fitted).value();
  };

  std::vector<workload::QueryRecord> records;
  workload::DatasetSplits splits;
  std::unique_ptr<core::PrestroidPipeline> pipeline = set_up(&records, &splits);
  if (pipeline == nullptr) return;

  prestroid::CostModel* model = pipeline->model();
  prestroid::ExecutionContext* exec = pipeline->execution_context();
  prestroid::Rng shuffle(EpochSeed(options.seed));
  std::vector<size_t> order = splits.train;
  std::vector<double> epoch_ms;
  std::vector<double> epoch_flops;
  std::vector<double> losses;
  std::vector<double> check_predictions;
  uint64_t total_flops = 0;
  double total_epoch_s = 0.0;
  const int64_t epochs_span = spans.Begin("epochs", root, 0);
  for (size_t epoch = 0; epoch < kEpochs; ++epoch) {
    shuffle.Shuffle(&order);
    const uint64_t flops_before = exec->stats().flops;
    const int64_t span = spans.Begin("core.train_epoch", epochs_span, epoch);
    const double loss = model->TrainEpoch(order, 32);
    spans.End(span);
    const double seconds = SpanSeconds(spans, span);
    const uint64_t flops = exec->stats().flops - flops_before;
    epoch_ms.push_back(seconds * 1e3);
    epoch_flops.push_back(static_cast<double>(flops));
    losses.push_back(loss);
    total_flops += flops;
    total_epoch_s += seconds;
    if (!std::isfinite(loss)) {
      report->Violation("epoch " + std::to_string(epoch + 1) +
                        " has a non-finite training loss");
    }
    if (epoch + 1 == kCheckEpochs) {
      check_predictions = pipeline->PredictMinutes(splits.test);
    }
  }
  spans.End(epochs_span);
  const uint64_t peak_scratch_bytes = exec->stats().peak_scratch_bytes;
  pipeline.reset();
  while (ingest_s.size() < kSetups) {
    if (set_up(nullptr, nullptr) == nullptr) return;
  }
  spans.End(root);

  // Repeatability: the same inputs, Fit and epoch order must give the same
  // losses and test predictions, bit for bit.
  {
    auto again = core::PrestroidPipeline::Fit(records, splits.train,
                                              CliPipelineConfig());
    if (!again.ok()) {
      report->Violation("repeat Fit failed: " + again.status().ToString());
      return;
    }
    prestroid::Rng again_shuffle(EpochSeed(options.seed));
    std::vector<size_t> again_order = splits.train;
    std::vector<double> again_losses;
    for (size_t epoch = 0; epoch < kCheckEpochs; ++epoch) {
      again_shuffle.Shuffle(&again_order);
      again_losses.push_back((*again)->model()->TrainEpoch(again_order, 32));
    }
    const std::vector<double> first_losses(losses.begin(),
                                           losses.begin() + kCheckEpochs);
    const bool same = SameBits(again_losses, first_losses) &&
                      SameBits((*again)->PredictMinutes(splits.test),
                               check_predictions);
    std::printf("repeatability: %zu epochs retrained from the same seed: %s\n",
                kCheckEpochs, same ? "bit-identical" : "DIFFERENT");
    if (!same) {
      report->Violation("retraining from the same seed gave different losses or "
                        "test predictions");
    }
  }

  std::printf("training: %zu plans, %zu epochs, epoch median %.1fms | set-up "
              "median of %zu: ingest %.4fs, fit %.4fs\n",
              order.size(), kEpochs, Median(epoch_ms), ingest_s.size(),
              Median(ingest_s), Median(fit_s));
  report->Add("workload.ingest_s", Median(ingest_s), "s");
  report->Add("core.fit_s", Median(fit_s), "s");
  report->Add("tensor.train_gflops",
              static_cast<double>(total_flops) / 1e9 / total_epoch_s, "GFLOP/s");
  report->Add("tensor.train_flops_per_epoch", Median(epoch_flops), "count");
  report->Add("tensor.peak_scratch_bytes",
              static_cast<double>(peak_scratch_bytes), "bytes");
  if (!spans.Write(spans_path)) {
    report->Violation("cannot write span file " + spans_path);
  } else {
    std::printf("training spans written to %s\n", spans_path.c_str());
  }
}

}  // namespace perfbench
