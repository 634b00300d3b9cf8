#include "steal.h"

#include <cstdio>

namespace perfbench {

CpuTicks ReadCpuTicks() {
  CpuTicks ticks;
  std::FILE* stat = std::fopen("/proc/stat", "r");
  if (stat == nullptr) return ticks;
  char label[8] = {0};
  double field[8] = {0};
  // user nice system idle iowait irq softirq steal
  if (std::fscanf(stat, "%7s %lf %lf %lf %lf %lf %lf %lf %lf", label, &field[0],
                  &field[1], &field[2], &field[3], &field[4], &field[5],
                  &field[6], &field[7]) == 9) {
    for (double f : field) ticks.total += f;
    ticks.steal = field[7];
  }
  std::fclose(stat);
  return ticks;
}

double StealShare(const CpuTicks& before, const CpuTicks& after) {
  const double total = after.total - before.total;
  return total > 0 ? (after.steal - before.steal) / total : 0.0;
}

}  // namespace perfbench
