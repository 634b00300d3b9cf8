#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double PercentileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double clamped = std::clamp(q, 0.0, 100.0);
  const double rank = clamped / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double Percentile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  return PercentileSorted(samples, q);
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0);
}

PercentileReport ReportPercentile(const std::vector<double>& sorted,
                                  double q) {
  PercentileReport report;
  report.value = PercentileSorted(sorted, q);
  report.count = sorted.size();
  report.beyond = static_cast<size_t>(
      sorted.end() - std::upper_bound(sorted.begin(), sorted.end(),
                                      report.value));
  return report;
}

std::string FormatPercentile(const char* label, const PercentileReport& report,
                             const char* unit) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer), "%s=%.4f%s (n=%zu, %zu beyond)", label,
                report.value, unit, report.count, report.beyond);
  return buffer;
}

double QError(double estimate, double actual) {
  constexpr double kFloor = 1e-6;
  const double e = std::max(estimate, kFloor);
  const double a = std::max(actual, kFloor);
  return std::max(e / a, a / e);
}

}  // namespace perfbench
