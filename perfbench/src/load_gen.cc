#include "load_gen.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <deque>
#include <limits>

#include "wire.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

struct Connection {
  int fd = -1;
  bool busy = false;
  size_t request = 0;
  const std::string* out = nullptr;
  size_t out_offset = 0;
  ResponseReader reader;
};

void CloseConnection(Connection* conn) {
  if (conn->fd >= 0) ::close(conn->fd);
  conn->fd = -1;
  conn->busy = false;
  conn->out = nullptr;
  conn->reader = ResponseReader();
}

bool OpenConnection(uint16_t port, Connection* conn) {
  conn->fd = ConnectLoopback(port);
  if (conn->fd < 0) return false;
  const int flags = ::fcntl(conn->fd, F_GETFL, 0);
  ::fcntl(conn->fd, F_SETFL, flags | O_NONBLOCK);
  return true;
}

// Writes as much of the pending request as the socket takes. Returns false
// on a transport error.
bool Flush(Connection* conn) {
  while (conn->out != nullptr && conn->out_offset < conn->out->size()) {
    const ssize_t n =
        ::send(conn->fd, conn->out->data() + conn->out_offset,
               conn->out->size() - conn->out_offset, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_offset += static_cast<size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

bool ParseEstimateBody(const std::string& body, double* cpu_minutes,
                       bool* model_tier) {
  const size_t key = body.find("\"cpu_minutes\":");
  if (key == std::string::npos) return false;
  const char* begin = body.c_str() + key + std::strlen("\"cpu_minutes\":");
  char* end = nullptr;
  *cpu_minutes = std::strtod(begin, &end);
  if (end == begin) return false;
  *model_tier = body.find("\"tier\": \"model\"") != std::string::npos;
  return true;
}

OpenLoopRun RunOpenLoop(const OpenLoopConfig& config,
                        const std::vector<const std::string*>& requests) {
  // Sub-millisecond wakeups: the default 50 us timer slack would show up as
  // generator lateness.
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);

  OpenLoopRun run;
  const size_t n = requests.size();
  run.results.resize(n);
  for (size_t i = 0; i < n; ++i) run.results[i].request = i;
  if (n == 0) return run;

  std::vector<Connection> conns(config.connections);
  for (Connection& conn : conns) OpenConnection(config.port, &conn);

  const double interval_s = 1.0 / config.rate;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  auto due = [&](size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(interval_s *
                                                     static_cast<double>(i)));
  };
  const Clock::time_point last_due = due(n - 1);
  const Clock::time_point give_up =
      last_due + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(config.drain_timeout_s));

  std::deque<size_t> waiting;
  size_t next = 0;
  size_t completed = 0;

  auto finish = [&](size_t request, Outcome outcome, double cpu_minutes,
                    Clock::time_point now) {
    RequestResult& r = run.results[request];
    r.outcome = outcome;
    r.cpu_minutes = cpu_minutes;
    r.latency_ms =
        std::chrono::duration<double, std::milli>(now - due(request)).count();
    ++r.finishes;
    ++completed;
  };

  std::vector<pollfd> pollfds;
  std::vector<size_t> poll_conn;
  for (;;) {
    Clock::time_point now = Clock::now();
    while (next < n && due(next) <= now) {
      run.results[next].late_ms =
          std::chrono::duration<double, std::milli>(now - due(next)).count();
      waiting.push_back(next++);
    }

    for (Connection& conn : conns) {
      if (waiting.empty()) break;
      if (conn.busy) continue;
      if (conn.fd < 0 && !OpenConnection(config.port, &conn)) {
        finish(waiting.front(), Outcome::kTransport,
               std::numeric_limits<double>::quiet_NaN(), now);
        waiting.pop_front();
        continue;
      }
      conn.busy = true;
      conn.request = waiting.front();
      waiting.pop_front();
      conn.out = requests[conn.request];
      conn.out_offset = 0;
      if (!Flush(&conn)) {
        finish(conn.request, Outcome::kTransport,
               std::numeric_limits<double>::quiet_NaN(), now);
        CloseConnection(&conn);
      }
    }

    if (completed == n) break;
    now = Clock::now();
    if (next == n && now >= give_up) {
      for (Connection& conn : conns) {
        if (conn.busy) {
          finish(conn.request, Outcome::kTransport,
                 std::numeric_limits<double>::quiet_NaN(), now);
          CloseConnection(&conn);
        }
      }
      for (size_t request : waiting) {
        finish(request, Outcome::kTransport,
               std::numeric_limits<double>::quiet_NaN(), now);
      }
      waiting.clear();
      break;
    }

    pollfds.clear();
    poll_conn.clear();
    for (size_t c = 0; c < conns.size(); ++c) {
      if (!conns[c].busy) continue;
      short events = POLLIN;
      if (conns[c].out_offset < conns[c].out->size()) events |= POLLOUT;
      pollfds.push_back(pollfd{conns[c].fd, events, 0});
      poll_conn.push_back(c);
    }
    const Clock::time_point wake =
        next < n ? due(next) : give_up;
    const auto wait = wake > now ? wake - now : Clock::duration::zero();
    if (!waiting.empty() && pollfds.size() < conns.size()) {
      continue;  // an idle connection can take a waiting request right away
    }
    timespec ts{};
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
    ts.tv_sec = static_cast<time_t>(ns / 1000000000);
    ts.tv_nsec = static_cast<long>(ns % 1000000000);
    const int ready = ::ppoll(pollfds.data(), pollfds.size(), &ts, nullptr);
    if (ready <= 0) continue;

    now = Clock::now();
    char chunk[16384];
    for (size_t p = 0; p < pollfds.size(); ++p) {
      if (pollfds[p].revents == 0) continue;
      Connection& conn = conns[poll_conn[p]];
      bool failed = false;
      if ((pollfds[p].revents & POLLOUT) != 0 && !Flush(&conn)) failed = true;
      if (!failed && (pollfds[p].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        for (;;) {
          const ssize_t got = ::recv(conn.fd, chunk, sizeof(chunk), 0);
          if (got > 0) {
            conn.reader.Append(chunk, static_cast<size_t>(got));
            continue;
          }
          if (got < 0 && errno == EINTR) continue;
          if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          failed = true;  // orderly close or reset
          break;
        }
        WireResponse response;
        const ResponseReader::State state = conn.reader.Next(&response);
        if (state == ResponseReader::State::kResponse) {
          double minutes = std::numeric_limits<double>::quiet_NaN();
          bool model_tier = false;
          Outcome outcome = Outcome::kNon200;
          if (response.status == 200) {
            outcome = ParseEstimateBody(response.body, &minutes, &model_tier)
                          ? (model_tier ? Outcome::kOk : Outcome::kDegraded)
                          : Outcome::kNon200;
          }
          finish(conn.request, outcome, minutes, now);
          conn.busy = false;
          conn.out = nullptr;
          // A response with bytes after it, or a closed stream, leaves the
          // connection unusable for the next request.
          if (!conn.reader.empty() || failed) CloseConnection(&conn);
          continue;
        }
        if (state == ResponseReader::State::kError) failed = true;
      }
      if (failed && conn.busy) {
        finish(conn.request, Outcome::kTransport,
               std::numeric_limits<double>::quiet_NaN(), now);
        CloseConnection(&conn);
      }
    }
  }
  for (Connection& conn : conns) CloseConnection(&conn);
  return run;
}

}  // namespace perfbench
