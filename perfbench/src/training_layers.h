#ifndef PERFBENCH_TRAINING_LAYERS_H_
#define PERFBENCH_TRAINING_LAYERS_H_

#include <string>

#include "report.h"

namespace perfbench {

/// Per-layer training figures for a serving workload's traced run: ingests
/// the workload's trace file, fits the pipeline in the CLI's default shape
/// with one thread, and trains a fixed number of epochs through
/// CostModel::TrainEpoch (no early stopping), timing each public call.
/// Reports workload.ingest_s, core.fit_s, tensor.train_gflops,
/// tensor.train_flops_per_epoch and tensor.peak_scratch_bytes, writes the
/// spans to `spans_path`, and checks that every loss is finite and that
/// training repeats bit for bit. Runs in process, with no server running.
void MeasureTrainingLayers(const RunOptions& options,
                           const std::string& trace_path,
                           const std::string& spans_path, RunReport* report);

}  // namespace perfbench

#endif  // PERFBENCH_TRAINING_LAYERS_H_
