#ifndef PRESTROID_NET_SIGNAL_HANDLER_H_
#define PRESTROID_NET_SIGNAL_HANDLER_H_

#include "util/status.h"

namespace prestroid::net {

/// Turns SIGTERM/SIGINT into a poll-able drain request via the classic
/// self-pipe trick: the (async-signal-safe) handler writes one byte to a
/// non-blocking pipe whose read end the server's event loop polls. SIGPIPE
/// is set to SIG_IGN for the process lifetime — a peer closing mid-write
/// must surface as EPIPE from write(2) (-> kUnavailable), never kill the
/// process.
///
/// At most one instance may be installed at a time (the handlers reference
/// process-global state). The destructor restores the previous SIGTERM/
/// SIGINT dispositions, so tests can install and tear down repeatedly.
class SignalHandler {
 public:
  SignalHandler() = default;
  ~SignalHandler();
  SignalHandler(const SignalHandler&) = delete;
  SignalHandler& operator=(const SignalHandler&) = delete;

  /// Creates the pipe and installs the SIGTERM/SIGINT/SIGPIPE dispositions.
  /// kFailedPrecondition if another instance is already installed.
  Status Install();

  /// The poll-able fd: readable once a drain has been requested by a
  /// signal. -1 before Install.
  int drain_fd() const { return pipe_read_fd_; }

  /// True once a signal has fired.
  bool drain_requested() const;

 private:
  void Uninstall();

  bool installed_ = false;
  int pipe_read_fd_ = -1;
};

}  // namespace prestroid::net

#endif  // PRESTROID_NET_SIGNAL_HANDLER_H_
