#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// What one invocation measured and whether its outputs were right.
struct RunReport {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  /// Requests or epochs attempted, and how many of them failed.
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<Metric> metrics;
  /// Correctness violations; any entry makes the run incorrect.
  std::vector<std::string> violations;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  void Violation(const std::string& what) { violations.push_back(what); }
};

/// Settings every workload receives from the command line.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for this run's generated inputs and logs.
  std::string work_dir;
  /// The prestroid_cli binary that serves.
  std::string cli_path;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
