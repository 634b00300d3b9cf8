#include "server_proc.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include "wire.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Waits for the child up to `timeout_s`; returns true and fills `status`
// once it has been reaped.
bool WaitFor(pid_t pid, double timeout_s, int* status) {
  const Clock::time_point give_up =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  for (;;) {
    const pid_t done = ::waitpid(pid, status, WNOHANG);
    if (done == pid) return true;
    if (done < 0) return true;  // already reaped
    if (Clock::now() >= give_up) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

}  // namespace

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
}

bool ServerProcess::Start(const std::vector<std::string>& argv,
                          const std::string& log_path, uint16_t port,
                          double timeout_s, double* setup_s) {
  std::vector<char*> args;
  for (const std::string& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log_fd < 0) return false;

  const Clock::time_point begin = Clock::now();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(log_fd);
    return false;
  }
  if (pid == 0) {
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execv(args[0], args.data());
    std::_Exit(127);
  }
  ::close(log_fd);
  pid_ = pid;
  port_ = port;

  const std::string healthz = BuildGet("/healthz");
  const Clock::time_point give_up =
      begin + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(timeout_s));
  while (Clock::now() < give_up) {
    WireResponse response;
    if (Exchange(port, healthz, 1000, &response) && response.status == 200) {
      *setup_s = std::chrono::duration<double>(Clock::now() - begin).count();
      return true;
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  return false;
}

double ServerProcess::PeakRssMb() const {
  if (pid_ <= 0) return 0.0;
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

bool ServerProcess::Stop(double timeout_s) {
  if (pid_ <= 0) return false;
  ::kill(pid_, SIGTERM);
  int status = 0;
  bool clean = false;
  if (WaitFor(pid_, timeout_s, &status)) {
    clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  } else {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
  }
  pid_ = -1;
  return clean;
}

}  // namespace perfbench
