// Reproduces Table 2(a): test MSE (minutes^2) on the Grab-Traces-like
// dataset for Log bins, SVR, M-MSCN, WCNN x2, Prestroid-Full x2 and two
// Prestroid sub-tree configurations (paper notation N-K-P_f).
//
// At the default "small" scale the model widths and P_f values are scaled
// down (see bench_common.h); set PRESTROID_BENCH_SCALE=full for the paper's
// exact hyper-parameters.
#include <iostream>

#include "bench_common.h"
#include "util/table_printer.h"

namespace prestroid::bench {
namespace {

int Run() {
  BenchScale scale = GetBenchScale();
  std::cout << "== Table 2(a): MSE on Grab-Traces-like dataset ==\n";
  std::cout << "(paper ordering: LogBins 96.91 > SVR 106.16 > M-MSCN 66.35 > "
               "WCNN ~50 ~ Full ~48-51 > Prestroid sub-trees 46-49)\n\n";
  BenchDataset data = BuildGrabDataset(scale);
  std::cout << "dataset: " << data.records.size() << " queries, "
            << data.splits.train.size() << "/" << data.splits.val.size() << "/"
            << data.splits.test.size() << " split\n\n";

  std::vector<ModelRun> runs;
  runs.push_back(RunLogBins(data, scale.full ? 1000 : 60));
  runs.push_back(RunSvr(data, /*grab_profile=*/true));
  runs.push_back(RunMscn(data, scale, /*grab_profile=*/true));
  runs.push_back(RunWcnn(data, scale, scale.wcnn_small_filters,
                         StrFormat("WCNN-%zu", scale.wcnn_small_filters)));
  runs.push_back(RunWcnn(data, scale, scale.wcnn_large_filters,
                         StrFormat("WCNN-%zu", scale.wcnn_large_filters)));
  runs.push_back(RunPrestroid(data, scale, true, 15, 9, scale.pf_small,
                              /*use_subtrees=*/false));  // Full-small
  runs.push_back(RunPrestroid(data, scale, true, 15, 9, scale.pf_large,
                              /*use_subtrees=*/false));  // Full-large
  runs.push_back(RunPrestroid(data, scale, true, 15, 9, scale.pf_large,
                              /*use_subtrees=*/true));   // (15-9-Pf)
  runs.push_back(RunPrestroid(data, scale, true, 32, 11, scale.pf_mid,
                              /*use_subtrees=*/true));   // (32-11-Pf)

  TablePrinter table({"Model", "Epoch", "MSE (min^2)", "q-err p50",
                      "q-err p95", "params", "epoch secs (CPU)"});
  for (const ModelRun& run : runs) {
    table.AddRow({run.name,
                  run.best_epoch == 0 ? "-" : std::to_string(run.best_epoch),
                  StrFormat("%.2f", run.test_mse_minutes),
                  StrFormat("%.2f", run.qerror_p50),
                  StrFormat("%.2f", run.qerror_p95),
                  run.num_parameters == 0 ? "-"
                                          : std::to_string(run.num_parameters),
                  run.mean_epoch_seconds == 0.0
                      ? "-"
                      : StrFormat("%.2f", run.mean_epoch_seconds)});
  }
  table.Print(std::cout);

  // Shape checks the paper's discussion makes.
  double naive_best =
      std::min(runs[0].test_mse_minutes, runs[1].test_mse_minutes);
  double subtree_best = std::min(runs[7].test_mse_minutes,
                                 runs[8].test_mse_minutes);
  std::cout << "\nShape check: best sub-tree MSE "
            << StrFormat("%.2f", subtree_best) << " vs best naive "
            << StrFormat("%.2f", naive_best)
            << (subtree_best < naive_best ? "  [OK: DL wins on diverse data]"
                                          : "  [MISMATCH]")
            << "\n";
  return 0;
}

}  // namespace
}  // namespace prestroid::bench

int main() { return prestroid::bench::Run(); }
