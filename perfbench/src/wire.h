#ifndef PERFBENCH_WIRE_H_
#define PERFBENCH_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace perfbench {

/// Serializes one HTTP/1.1 POST with a Content-Length body. Keep-alive is the
/// HTTP/1.1 default, so no Connection header is sent.
std::string BuildPost(const std::string& path, const std::string& content_type,
                      const std::string& body);

/// Serializes one HTTP/1.1 GET.
std::string BuildGet(const std::string& path);

/// One parsed response.
struct WireResponse {
  int status = 0;
  std::string body;
};

/// Incremental reader of HTTP/1.1 responses framed by Content-Length (the
/// only framing the server under test emits). Feed it bytes as they arrive;
/// Next() pops complete responses in order.
class ResponseReader {
 public:
  enum class State { kNeedMore, kResponse, kError };

  void Append(const char* data, size_t size) { buffer_.append(data, size); }
  /// Pops the next complete response into `out`. kError means the stream is
  /// not a response this reader understands; error() says why.
  State Next(WireResponse* out);
  const std::string& error() const { return error_; }
  bool empty() const { return buffer_.empty(); }

 private:
  std::string buffer_;
  std::string error_;
};

/// Opens a blocking loopback TCP connection to 127.0.0.1:`port`. Returns the
/// fd, or -1 (errno set) on failure.
int ConnectLoopback(uint16_t port);

/// One blocking request/response exchange on a fresh connection, bounded by
/// `timeout_ms`. Returns false on a transport error or timeout.
bool Exchange(uint16_t port, const std::string& request, int timeout_ms,
              WireResponse* out);

/// Asks the kernel for a currently free loopback port.
uint16_t PickFreePort();

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_H_
