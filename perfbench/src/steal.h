#ifndef PERFBENCH_STEAL_H_
#define PERFBENCH_STEAL_H_

namespace perfbench {

/// Host CPU time stolen from this machine's virtual CPUs, and all CPU time,
/// in clock ticks since boot (the "cpu" line of /proc/stat). Steal is time
/// the hypervisor gave other guests while this machine wanted to run: it
/// comes from the host, never from the program under test.
struct CpuTicks {
  double steal = 0.0;
  double total = 0.0;
};

/// Zeros when /proc/stat is unreadable.
CpuTicks ReadCpuTicks();

/// Share of the CPU time between two readings that the host stole.
double StealShare(const CpuTicks& before, const CpuTicks& after);

}  // namespace perfbench

#endif  // PERFBENCH_STEAL_H_
