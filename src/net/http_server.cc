#include "net/http_server.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace prestroid::net {

namespace {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Drains a wakeup pipe so level-triggered poll stops reporting it readable.
void DrainPipe(int fd) {
  char buf[64];
  while (::read(fd, buf, sizeof(buf)) > 0) {
  }
}

}  // namespace

HttpServer::WakePipe::~WakePipe() {
  if (read_fd_ >= 0) ::close(read_fd_);
  if (write_fd_ >= 0) ::close(write_fd_);
}

Status HttpServer::WakePipe::Open() {
  int fds[2];
  if (::pipe(fds) != 0) return Status::FromErrno("pipe", errno);
  read_fd_ = fds[0];
  write_fd_ = fds[1];
  PRESTROID_RETURN_NOT_OK(SetNonBlocking(read_fd_));
  return SetNonBlocking(write_fd_);
}

void HttpServer::WakePipe::Signal() const {
  if (write_fd_ < 0) return;
  // A full pipe (EAGAIN) is already readable, which is all a wakeup needs.
  const char byte = 1;
  [[maybe_unused]] ssize_t ignored = ::write(write_fd_, &byte, 1);
}

void HttpServer::WakePipe::Drain() const { DrainPipe(read_fd_); }

HttpServer::HttpServer(HttpServerConfig config)
    : config_(std::move(config)),
      completion_pipe_(std::make_shared<WakePipe>()),
      completion_pipe_opened_(completion_pipe_->Open()) {}

HttpServer::~HttpServer() {
  for (auto& conn : conns_) {
    if (conn->fd >= 0) ::close(conn->fd);
  }
}

void HttpServer::Route(const std::string& method, const std::string& path,
                       HttpHandler handler) {
  routes_.push_back(Route_{method, path, std::move(handler)});
}

Status HttpServer::Start() {
  PRESTROID_RETURN_NOT_OK(completion_pipe_opened_);
  PRESTROID_RETURN_NOT_OK(drain_pipe_.Open());
  return listener_.Listen(config_.host, config_.port);
}

void HttpServer::RequestDrain() { drain_pipe_.Signal(); }

std::function<void()> HttpServer::CompletionNotifier() const {
  return [pipe = completion_pipe_]() { pipe->Signal(); };
}

HttpServerStats HttpServer::StatsSnapshot() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

void HttpServer::CountResponse(int code) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.responses_by_code[code];
}

void HttpServer::BeginDrain() {
  if (draining_) return;
  draining_ = true;
  drain_begin_ = Clock::now();
  drain_deadline_ =
      drain_begin_ + std::chrono::milliseconds(config_.drain_timeout_ms);
  listener_.Close();
  // Final read pass: bytes the kernel already buffered for us belong to
  // requests sent before the drain — pull them in so they get served rather
  // than cut. Requests parsed after this pass are answered 503.
  for (auto& conn : conns_) {
    if (conn->fd >= 0 && !conn->read_closed) {
      if (!ReadAvailable(*conn)) {
        ::close(conn->fd);
        conn->fd = -1;
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.connections_aborted;
        --stats_.connections_active;
      }
    }
  }
}

bool HttpServer::ReadAvailable(Connection& conn) {
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn.in.append(buf, static_cast<size_t>(n));
      conn.last_activity = Clock::now();
      continue;
    }
    if (n == 0) {
      conn.read_closed = true;
      return true;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    return false;
  }
}

void HttpServer::EnqueueResponse(Connection& conn,
                                 const HttpResponse& response,
                                 bool keep_alive) {
  const bool persist = keep_alive && !response.close;
  CountResponse(response.code);
  conn.out += SerializeResponse(response, persist);
  if (!persist) conn.close_after_write = true;
  // A response is activity too: the idle clock measures silence since the
  // last request *or* reply, not time spent computing a slow estimate.
  conn.last_activity = Clock::now();
}

void HttpServer::Dispatch(Connection& conn, const HttpRequest& request) {
  const Route_* match = nullptr;
  bool path_exists = false;
  for (const auto& route : routes_) {
    if (route.path != request.path) continue;
    path_exists = true;
    if (route.method == request.method) {
      match = &route;
      break;
    }
  }
  if (match == nullptr) {
    HttpResponse response =
        path_exists
            ? ErrorResponse(405, "method not allowed for " + request.path)
            : ErrorResponse(404, "no such endpoint: " + request.path);
    EnqueueResponse(conn, response, request.KeepAlive());
    return;
  }
  HandlerResult result = match->handler(request);
  if (auto* pending = std::get_if<PendingResponse>(&result)) {
    // Poll once: work that finished on the spot (an answer-cache hit) is
    // written in this loop pass instead of waiting for a wakeup.
    HttpResponse response;
    if (!pending->poll(&response)) {
      conn.pending = std::move(*pending);
      conn.pending_keep_alive = request.KeepAlive();
      return;
    }
    result = std::move(response);
  }
  EnqueueResponse(conn, std::get<HttpResponse>(result), request.KeepAlive());
}

void HttpServer::ProcessBuffered(Connection& conn) {
  HttpParser parser(config_.max_header_bytes, config_.max_body_bytes);
  while (!conn.pending && !conn.close_after_write && !conn.in.empty()) {
    HttpRequest request;
    const HttpParser::ParseState state = parser.TryParse(&conn.in, &request);
    if (state == HttpParser::ParseState::kNeedMore) break;
    if (state == HttpParser::ParseState::kError) {
      // The byte stream may be unsynchronized after a protocol error; the
      // error response always closes.
      EnqueueResponse(conn,
                      ErrorResponse(parser.error_code(),
                                    parser.error_message()),
                      /*keep_alive=*/false);
      conn.in.clear();
      break;
    }
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.requests;
    }
    conn.last_activity = Clock::now();
    if (draining_) {
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.draining_rejects;
      }
      EnqueueResponse(conn, ErrorResponse(503, "server is draining"),
                      /*keep_alive=*/false);
      break;
    }
    Dispatch(conn, request);
  }
}

bool HttpServer::FlushWrites(Connection& conn) {
  while (conn.out_off < conn.out.size()) {
    const ssize_t n =
        ::send(conn.fd, conn.out.data() + conn.out_off,
               conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    return false;  // EPIPE/ECONNRESET: the peer is gone
  }
  conn.out.clear();
  conn.out_off = 0;
  return true;
}

Status HttpServer::Run(int drain_fd) {
  if (!listener_.listening()) {
    return Status::FailedPrecondition("HttpServer::Start must succeed first");
  }

  std::vector<struct pollfd> pollfds;
  // conn_slot[i] is the index into pollfds for conns_[i], or -1.
  std::vector<int> conn_slot;

  for (;;) {
    pollfds.clear();
    conn_slot.assign(conns_.size(), -1);

    pollfds.push_back({drain_pipe_.read_fd(), POLLIN, 0});
    pollfds.push_back({completion_pipe_->read_fd(), POLLIN, 0});
    const int external_slot = drain_fd >= 0 ? static_cast<int>(pollfds.size())
                                            : -1;
    if (drain_fd >= 0) pollfds.push_back({drain_fd, POLLIN, 0});
    const int listener_slot =
        listener_.listening() && conns_.size() < config_.max_connections + 8
            ? static_cast<int>(pollfds.size())
            : -1;
    if (listener_slot >= 0) pollfds.push_back({listener_.fd(), POLLIN, 0});

    for (size_t i = 0; i < conns_.size(); ++i) {
      Connection& conn = *conns_[i];
      if (conn.fd < 0) continue;
      short events = 0;
      if (!conn.pending && !conn.close_after_write && !conn.read_closed &&
          !draining_) {
        events |= POLLIN;
      }
      if (conn.out_off < conn.out.size()) events |= POLLOUT;
      conn_slot[i] = static_cast<int>(pollfds.size());
      pollfds.push_back({conn.fd, events, 0});
    }

    // Pending responses resolve off-thread and wake the loop through the
    // completion pipe, so the timeout only has to enforce header and idle
    // timeouts and the drain deadline.
    const int timeout_ms = draining_ ? 10 : 50;
    const int ready = ::poll(pollfds.data(),
                             static_cast<nfds_t>(pollfds.size()), timeout_ms);
    if (ready < 0 && errno != EINTR && errno != EAGAIN) {
      return Status::FromErrno("poll", errno);
    }

    const Clock::time_point now = Clock::now();

    // Completion wakeups: emptied before the connection pass below polls
    // every pending response, so a completion signalled after this point
    // leaves the pipe readable for the next poll().
    if (pollfds[1].revents & POLLIN) completion_pipe_->Drain();

    // Drain wakeups (internal pipe, external SignalHandler fd, or EINTR from
    // a signal delivery that raced the pipe write).
    if (pollfds[0].revents & POLLIN) {
      drain_pipe_.Drain();
      BeginDrain();
    }
    if (external_slot >= 0 && (pollfds[external_slot].revents & POLLIN)) {
      DrainPipe(drain_fd);
      BeginDrain();
    }

    // Accept everything queued on the listener.
    if (!draining_ && listener_slot >= 0 &&
        (pollfds[listener_slot].revents & POLLIN)) {
      for (;;) {
        Result<int> client = listener_.Accept();
        if (!client.ok()) break;  // kResourceExhausted: queue empty
        if (conns_.size() >= config_.max_connections) {
          {
            std::lock_guard<std::mutex> lock(stats_mu_);
            ++stats_.connections_rejected;
          }
          // Best-effort shed: tell the client why before hanging up.
          const std::string wire = SerializeResponse(
              ErrorResponse(503, "connection limit reached"),
              /*keep_alive=*/false);
          [[maybe_unused]] ssize_t ignored =
              ::send(*client, wire.data(), wire.size(), MSG_NOSIGNAL);
          CountResponse(503);
          ::close(*client);
          continue;
        }
        auto conn = std::make_unique<Connection>();
        conn->fd = *client;
        conn->last_activity = now;
        conns_.push_back(std::move(conn));
        conn_slot.push_back(-1);
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.connections_accepted;
        ++stats_.connections_active;
      }
    }

    // Per-connection work: read, resolve pendings, parse, write, close.
    for (size_t i = 0; i < conns_.size(); ++i) {
      Connection& conn = *conns_[i];
      if (conn.fd < 0) continue;
      const short revents =
          conn_slot[i] >= 0 ? pollfds[conn_slot[i]].revents : 0;

      auto abort_conn = [&]() {
        ::close(conn.fd);
        conn.fd = -1;
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.connections_aborted;
        --stats_.connections_active;
      };
      auto close_conn = [&]() {
        ::close(conn.fd);
        conn.fd = -1;
        std::lock_guard<std::mutex> lock(stats_mu_);
        --stats_.connections_active;
      };

      if ((revents & (POLLIN | POLLHUP | POLLERR)) && !conn.read_closed &&
          !conn.pending && !draining_) {
        if (!ReadAvailable(conn)) {
          abort_conn();
          continue;
        }
      }

      if (conn.pending) {
        HttpResponse response;
        if (conn.pending->poll(&response)) {
          conn.pending.reset();
          EnqueueResponse(conn, response, conn.pending_keep_alive);
        }
      }
      if (!conn.pending) ProcessBuffered(conn);

      if (conn.out_off < conn.out.size() && !FlushWrites(conn)) {
        abort_conn();
        continue;
      }

      const bool response_done = conn.out_off >= conn.out.size();
      if (response_done && !conn.pending) {
        if (conn.close_after_write) {
          close_conn();
        } else if (conn.read_closed) {
          // Peer EOF with nothing owed. Leftover bytes were a partial
          // request the client abandoned.
          if (conn.in.empty()) {
            close_conn();
          } else {
            abort_conn();
          }
        } else if (draining_) {
          close_conn();
        } else if (!conn.in.empty() &&
                   MsBetween(conn.last_activity, now) >
                       static_cast<double>(config_.header_timeout_ms)) {
          // Slowloris guard: a request has been partially sent for too long.
          {
            std::lock_guard<std::mutex> lock(stats_mu_);
            ++stats_.header_timeouts;
          }
          EnqueueResponse(conn, ErrorResponse(408, "request timed out"),
                          /*keep_alive=*/false);
        } else if (conn.in.empty() && config_.idle_timeout_ms > 0 &&
                   MsBetween(conn.last_activity, now) >
                       static_cast<double>(config_.idle_timeout_ms)) {
          // Idle keep-alive reaping: nothing is buffered and nothing is
          // owed, so close silently — a 408 here would desynchronize a
          // client that is about to send its next request. The close is
          // counted first, so a snapshot that sees the idle close also sees
          // the connection gone.
          close_conn();
          {
            std::lock_guard<std::mutex> lock(stats_mu_);
            ++stats_.idle_closes;
          }
          continue;
        }
      }
    }

    // Sweep closed connections.
    conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                [](const std::unique_ptr<Connection>& c) {
                                  return c->fd < 0;
                                }),
                 conns_.end());

    if (draining_) {
      if (conns_.empty()) break;
      if (now >= drain_deadline_) {
        for (auto& conn : conns_) {
          ::close(conn->fd);
          conn->fd = -1;
          std::lock_guard<std::mutex> lock(stats_mu_);
          ++stats_.forced_drain_closes;
          --stats_.connections_active;
        }
        conns_.clear();
        break;
      }
    }
  }

  drain_latency_ms_ = MsBetween(drain_begin_, Clock::now());
  return Status::OK();
}

}  // namespace prestroid::net
