// Reproduces Figure 6: (top) average per-batch memory footprint at batch 32
// and (bottom) per-epoch training time, for M-MSCN, WCNN, the Prestroid
// sub-tree configurations and the full-tree baselines.
//
// Two views are printed:
//   1. paper-scale ANALYTIC footprints/epoch-times on a V100 using the
//      paper's exact dimensions (P_f 300/200, 512-ch convs, full trees
//      padded to 1945 nodes) — these reproduce the 13.5x / 5.8x footprint
//      and 3.45x / 2.6x epoch-time ratios;
//   2. MEASURED per-batch input bytes of the models actually fitted on the
//      generated trace at the current bench scale, and their measured
//      per-layer epoch time (ExecStats wall clock). Input bytes follow the
//      paper's padded accounting; the trunk itself runs only real plan
//      nodes, so measured epochs do not pay the full-tree padding the
//      analytic view charges.
#include <algorithm>
#include <iostream>

#include "bench_common.h"
#include "cloud/epoch_time_model.h"
#include "cloud/footprint.h"
#include "util/table_printer.h"

namespace prestroid::bench {
namespace {

int Run() {
  BenchScale scale = GetBenchScale();
  std::cout << "== Figure 6: per-batch memory footprint (batch 32) and epoch "
               "time ==\n\n";

  // --- View 1: paper-scale analytic model. ---
  const size_t kPaperBatch = 32;
  const size_t kPaperSamples = 19876 * 8 / 10;  // training partition
  const size_t kFullTreePad = 1945;             // paper Section 5.4
  const cloud::GpuSpec v100 = cloud::TeslaV100();

  std::cout << "-- paper-scale analytic (V100, batch 32, full trees padded "
               "to 1945 nodes) --\n";
  TablePrinter paper({"Model", "input MB/batch", "total MB/batch",
                      "epoch time (min)"});
  double sub15_mb = 0, sub32_mb = 0, full300_mb = 0;
  double sub15_t = 0, sub32_t = 0, full300_t = 0;
  for (const PaperModelSpec& spec : PaperGrabSpecs(kFullTreePad, 240)) {
    cloud::BatchFootprint fp = cloud::TreeModelFootprint(
        kPaperBatch, spec.trees_per_sample, spec.nodes_padded,
        spec.feature_dim, spec.conv_channels, spec.dense_units);
    cloud::ModelComputeProfile profile = cloud::TreeModelComputeProfile(
        spec.trees_per_sample, spec.nodes_padded, spec.feature_dim,
        spec.conv_channels, spec.dense_units);
    double epoch_min =
        cloud::EstimateEpochSeconds(kPaperSamples, kPaperBatch, fp, profile,
                                    v100) /
        60.0;
    paper.AddRow({spec.name, StrFormat("%.2f", fp.input_mb()),
                  StrFormat("%.1f", fp.total_mb()),
                  StrFormat("%.2f", epoch_min)});
    if (spec.name == "Prestroid (15-9-300)") {
      sub15_mb = fp.input_mb();
      sub15_t = epoch_min;
    } else if (spec.name == "Prestroid (32-11-200)") {
      sub32_mb = fp.input_mb();
      sub32_t = epoch_min;
    } else if (spec.name == "Full-300") {
      full300_mb = fp.input_mb();
      full300_t = epoch_min;
    }
  }
  paper.Print(std::cout);
  std::cout << StrFormat(
      "\nfootprint reduction vs Full-300: %.1fx (15-9-300, paper 13.5x), "
      "%.1fx (32-11-200, paper 5.8x)\n",
      full300_mb / sub15_mb, full300_mb / sub32_mb);
  std::cout << StrFormat(
      "epoch speedup   vs Full-300: %.2fx (15-9-300, paper 3.45x), "
      "%.2fx (32-11-200, paper 2.6x)\n\n",
      full300_t / sub15_t, full300_t / sub32_t);

  // --- View 2: measured per-batch bytes of fitted models. ---
  std::cout << "-- measured input bytes/batch of models fitted at bench "
               "scale --\n";
  BenchDataset data = BuildGrabDataset(scale);

  baselines::MscnConfig mscn_config;
  mscn_config.hidden_units = scale.mscn_units_grab;
  baselines::MscnModel mscn(mscn_config);
  PRESTROID_CHECK(mscn.Fit(data.records, data.splits.train, data.targets).ok());
  baselines::WcnnConfig wcnn_config;
  wcnn_config.embed_dim = scale.wcnn_embed;
  wcnn_config.filters_per_window = scale.wcnn_small_filters;
  baselines::WcnnModel wcnn(wcnn_config);
  PRESTROID_CHECK(wcnn.Fit(data.records, data.splits.train, data.targets).ok());

  ModelRun sub15 = RunPrestroid(data, scale, true, 15, 9, scale.pf_large, true);
  ModelRun sub32 = RunPrestroid(data, scale, true, 32, 11, scale.pf_mid, true);
  ModelRun full = RunPrestroid(data, scale, true, 15, 9, scale.pf_large, false);

  TablePrinter measured({"Model", "input MB/batch(32)", "measured epoch s"});
  auto mb = [](size_t bytes) {
    return StrFormat("%.3f", static_cast<double>(bytes) / 1e6);
  };
  measured.AddRow({"M-MSCN", mb(mscn.InputBytesPerBatch(32)), "-"});
  measured.AddRow({"WCNN", mb(wcnn.InputBytesPerBatch(32)), "-"});
  measured.AddRow({sub15.name, mb(sub15.pipeline->InputBytesPerBatch(32)),
                   StrFormat("%.2f", sub15.mean_epoch_seconds)});
  measured.AddRow({sub32.name, mb(sub32.pipeline->InputBytesPerBatch(32)),
                   StrFormat("%.2f", sub32.mean_epoch_seconds)});
  measured.AddRow({full.name, mb(full.pipeline->InputBytesPerBatch(32)),
                   StrFormat("%.2f", full.mean_epoch_seconds)});
  measured.Print(std::cout);
  std::cout << StrFormat(
      "\nmeasured footprint reduction vs full tree: %.1fx / %.1fx; measured "
      "epoch speedup: %.2fx / %.2fx\n",
      static_cast<double>(full.pipeline->InputBytesPerBatch(32)) /
          static_cast<double>(sub15.pipeline->InputBytesPerBatch(32)),
      static_cast<double>(full.pipeline->InputBytesPerBatch(32)) /
          static_cast<double>(sub32.pipeline->InputBytesPerBatch(32)),
      full.mean_epoch_seconds / sub15.mean_epoch_seconds,
      full.mean_epoch_seconds / sub32.mean_epoch_seconds);

  // Per-layer wall clock of each Train() call (validation forwards
  // included), per epoch.
  std::cout << "\n-- measured per-layer epoch time (ms/epoch, fwd+bwd) --\n";
  TablePrinter layers({"Model", "tree-conv fwd", "tree-conv bwd", "pooling",
                       "dense head", "loss", "optimizer", "total"});
  auto epoch_ms = [](const ModelRun& run) {
    std::vector<double> ms;
    double total = 0.0;
    for (size_t k = 0; k < kNumLayerKinds; ++k) {
      const LayerKind kind = static_cast<LayerKind>(k);
      const double fwd = static_cast<double>(run.train_stats.forward_ns_of(kind));
      const double bwd =
          static_cast<double>(run.train_stats.backward_ns_of(kind));
      const double epochs = static_cast<double>(std::max<size_t>(run.epochs_run, 1));
      if (kind == LayerKind::kTreeConv) {
        ms.push_back(fwd / 1e6 / epochs);
        ms.push_back(bwd / 1e6 / epochs);
      } else {
        ms.push_back((fwd + bwd) / 1e6 / epochs);
      }
      total += (fwd + bwd) / 1e6 / epochs;
    }
    ms.push_back(total);
    return ms;
  };
  for (const ModelRun* run : {&sub15, &sub32, &full}) {
    std::vector<std::string> row = {run->name};
    for (double ms : epoch_ms(*run)) row.push_back(StrFormat("%.2f", ms));
    layers.AddRow(row);
  }
  layers.Print(std::cout);
  const double full_ms = epoch_ms(full).back();
  std::cout << StrFormat(
      "\nmeasured layer-time ratio full/sub-tree: %.2fx (%s) / %.2fx (%s); "
      "analytic padded paper-scale: %.2fx\n",
      full_ms / epoch_ms(sub15).back(), sub15.name.c_str(),
      full_ms / epoch_ms(sub32).back(), sub32.name.c_str(),
      full300_t / sub15_t);
  std::cout << "\nFindings to reproduce: WCNN has the smallest inputs, "
               "M-MSCN large sparse ones;\nsub-tree batches are an order of "
               "magnitude smaller in the padded accounting, and\nthe "
               "analytic view reproduces the paper's padded epoch-time gap. "
               "Measured epochs run\nonly real plan nodes, so full-tree "
               "training no longer pays its padding and the\nmeasured gap "
               "is much smaller than the analytic one (it may invert).\n";
  return 0;
}

}  // namespace
}  // namespace prestroid::bench

int main() { return prestroid::bench::Run(); }
