#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// Percentile of exact samples, by linear interpolation between the two
/// closest ranks of the sorted samples (the "R-7" definition numpy uses by
/// default). `q` is in [0, 100]. Returns 0 for an empty sample. The input
/// need not be sorted.
double Percentile(std::vector<double> samples, double q);

/// Same as Percentile, over samples the caller already sorted ascending.
double PercentileSorted(const std::vector<double>& sorted, double q);

/// Median (Percentile 50).
double Median(std::vector<double> samples);

/// A percentile together with the sample it came from: how many samples
/// there were and how many lie strictly above the reported value. The
/// benchmark only trusts a percentile with at least ten samples beyond it.
struct PercentileReport {
  double value = 0.0;
  size_t count = 0;
  size_t beyond = 0;
};
PercentileReport ReportPercentile(const std::vector<double>& sorted, double q);

/// "p90=1.234ms (n=8000, 800 beyond)".
std::string FormatPercentile(const char* label, const PercentileReport& report,
                             const char* unit);

/// q-error of an estimate against its label: max(e/a, a/e), both clamped
/// away from zero so a zero estimate gives a large finite error.
double QError(double estimate, double actual);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
