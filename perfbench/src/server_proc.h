#ifndef PERFBENCH_SERVER_PROC_H_
#define PERFBENCH_SERVER_PROC_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// A server child process (`prestroid_cli serve --listen ...`). The
/// destructor kills and reaps a child that is still running, so no process
/// outlives the benchmark.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Spawns `argv` with stdout and stderr appended to `log_path`, then polls
  /// GET /healthz on `port` until it answers 200. Returns false if the child
  /// exits or `timeout_s` passes first. `setup_s` receives the time from
  /// just before fork() to the first 200.
  bool Start(const std::vector<std::string>& argv, const std::string& log_path,
             uint16_t port, double timeout_s, double* setup_s);

  /// Peak resident set (VmHWM) of the running child, in MiB; 0 if unknown.
  double PeakRssMb() const;

  /// SIGTERM (graceful drain), then waits up to `timeout_s` before SIGKILL.
  /// Returns true when the child exited 0 on SIGTERM.
  bool Stop(double timeout_s);

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }

 private:
  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SERVER_PROC_H_
