#include "net/signal_handler.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>

#include "net/listener.h"

namespace prestroid::net {

namespace {

// Process-global handler state. POSIX signal handlers cannot carry a
// closure, so the one installed SignalHandler parks its pipe fd here;
// sig_atomic_t/atomics keep the handler async-signal-safe.
std::atomic<int> g_write_fd{-1};
std::atomic<bool> g_drain_requested{false};
struct sigaction g_prev_term;
struct sigaction g_prev_int;
bool g_installed = false;

void OnSignal(int /*signo*/) {
  // async-signal-safe: one atomic store + one write(2). A full pipe is fine
  // — the loop only needs the fd to become readable once.
  g_drain_requested.store(true, std::memory_order_relaxed);
  const int fd = g_write_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 1;
    [[maybe_unused]] ssize_t ignored = ::write(fd, &byte, 1);
  }
}

}  // namespace

SignalHandler::~SignalHandler() { Uninstall(); }

Status SignalHandler::Install() {
  if (g_installed) {
    return Status::FailedPrecondition(
        "a SignalHandler is already installed in this process");
  }
  int fds[2];
  if (::pipe(fds) != 0) return Status::FromErrno("pipe", errno);
  Status nonblocking = SetNonBlocking(fds[0]);
  if (nonblocking.ok()) nonblocking = SetNonBlocking(fds[1]);
  if (!nonblocking.ok()) {
    ::close(fds[0]);
    ::close(fds[1]);
    return nonblocking;
  }
  pipe_read_fd_ = fds[0];
  g_write_fd.store(fds[1], std::memory_order_relaxed);
  g_drain_requested.store(false, std::memory_order_relaxed);

  struct sigaction action;
  sigemptyset(&action.sa_mask);
  action.sa_handler = OnSignal;
  // No SA_RESTART: poll() must wake with EINTR so the loop re-checks the
  // drain flag promptly even if the pipe write raced.
  action.sa_flags = 0;
  sigaction(SIGTERM, &action, &g_prev_term);
  sigaction(SIGINT, &action, &g_prev_int);
  // Ignore SIGPIPE process-wide: peer resets surface as EPIPE write errors.
  signal(SIGPIPE, SIG_IGN);

  g_installed = true;
  installed_ = true;
  return Status::OK();
}

bool SignalHandler::drain_requested() const {
  return g_drain_requested.load(std::memory_order_relaxed);
}

void SignalHandler::Uninstall() {
  if (!installed_) return;
  sigaction(SIGTERM, &g_prev_term, nullptr);
  sigaction(SIGINT, &g_prev_int, nullptr);
  const int write_fd = g_write_fd.exchange(-1, std::memory_order_relaxed);
  if (write_fd >= 0) ::close(write_fd);
  if (pipe_read_fd_ >= 0) {
    ::close(pipe_read_fd_);
    pipe_read_fd_ = -1;
  }
  g_installed = false;
  installed_ = false;
}

}  // namespace prestroid::net
