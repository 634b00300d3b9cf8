#include "wire.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>

namespace perfbench {

std::string BuildPost(const std::string& path, const std::string& content_type,
                      const std::string& body) {
  std::string request = "POST " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  request += "Content-Type: " + content_type + "\r\n";
  request += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  request += body;
  return request;
}

std::string BuildGet(const std::string& path) {
  return "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
}

namespace {

bool IEquals(const char* a, size_t n, const char* b) {
  if (std::strlen(b) != n) return false;
  for (size_t i = 0; i < n; ++i) {
    char x = a[i];
    if (x >= 'A' && x <= 'Z') x = static_cast<char>(x - 'A' + 'a');
    if (x != b[i]) return false;
  }
  return true;
}

}  // namespace

ResponseReader::State ResponseReader::Next(WireResponse* out) {
  const size_t header_end = buffer_.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    if (buffer_.size() > (64u << 10)) {
      error_ = "response header larger than 64 KiB";
      return State::kError;
    }
    return State::kNeedMore;
  }
  // Status line: "HTTP/1.1 200 OK".
  if (buffer_.compare(0, 5, "HTTP/") != 0) {
    error_ = "not an HTTP response";
    return State::kError;
  }
  const size_t space = buffer_.find(' ');
  if (space == std::string::npos || space + 4 > header_end) {
    error_ = "malformed status line";
    return State::kError;
  }
  const int status = std::atoi(buffer_.c_str() + space + 1);
  if (status < 100 || status > 599) {
    error_ = "bad status code";
    return State::kError;
  }
  long long content_length = -1;
  size_t line = buffer_.find("\r\n") + 2;
  while (line < header_end) {
    const size_t eol = buffer_.find("\r\n", line);
    const size_t colon = buffer_.find(':', line);
    if (colon != std::string::npos && colon < eol) {
      const char* name = buffer_.data() + line;
      const size_t name_len = colon - line;
      size_t value = colon + 1;
      while (value < eol && buffer_[value] == ' ') ++value;
      if (IEquals(name, name_len, "content-length")) {
        char* end = nullptr;
        content_length = std::strtoll(buffer_.c_str() + value, &end, 10);
        if (content_length < 0 || content_length > (64ll << 20)) {
          error_ = "bad Content-Length";
          return State::kError;
        }
      } else if (IEquals(name, name_len, "transfer-encoding")) {
        error_ = "chunked responses are not expected";
        return State::kError;
      }
    }
    line = eol + 2;
  }
  if (content_length < 0) {
    error_ = "response without Content-Length";
    return State::kError;
  }
  const size_t body_begin = header_end + 4;
  const size_t total = body_begin + static_cast<size_t>(content_length);
  if (buffer_.size() < total) return State::kNeedMore;
  out->status = status;
  out->body.assign(buffer_, body_begin, static_cast<size_t>(content_length));
  buffer_.erase(0, total);
  return State::kResponse;
}

int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool Exchange(uint16_t port, const std::string& request, int timeout_ms,
              WireResponse* out) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  const int fd = ConnectLoopback(port);
  if (fd < 0) return false;
  bool ok = false;
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  ResponseReader reader;
  char chunk[16384];
  while (sent == request.size()) {
    const int left = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now())
            .count());
    if (left <= 0) break;
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, left);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) break;
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    reader.Append(chunk, static_cast<size_t>(n));
    const ResponseReader::State state = reader.Next(out);
    if (state == ResponseReader::State::kError) break;
    if (state == ResponseReader::State::kResponse) {
      ok = true;
      break;
    }
  }
  ::close(fd);
  return ok;
}

uint16_t PickFreePort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  uint16_t port = 0;
  socklen_t len = sizeof(addr);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port = ntohs(addr.sin_port);
  }
  ::close(fd);
  return port;
}

}  // namespace perfbench
