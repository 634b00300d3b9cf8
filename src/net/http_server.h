#ifndef PRESTROID_NET_HTTP_SERVER_H_
#define PRESTROID_NET_HTTP_SERVER_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "net/http.h"
#include "net/listener.h"
#include "util/status.h"

namespace prestroid::net {

/// Connection and request policy of the HTTP front end.
struct HttpServerConfig {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read it back via port() after Start().
  uint16_t port = 0;
  /// Hard cap on simultaneously open client connections. Connections over
  /// the cap are answered with a best-effort 503 and closed immediately —
  /// bounded state, visible shedding.
  size_t max_connections = 256;
  /// Per-request read limits (the HttpParser bounds). The CLI ties
  /// max_body_bytes to PlanLimits::max_plan_bytes so the wire can never
  /// deliver a plan the governor would not admit.
  size_t max_header_bytes = 16 << 10;
  size_t max_body_bytes = 64 << 20;
  /// A connection that has sent part of a request but not completed it
  /// within this window is answered 408 and closed (slowloris guard).
  size_t header_timeout_ms = 10000;
  /// A keep-alive connection with *no* partial request buffered that stays
  /// silent this long is closed without a response (idle reaping — distinct
  /// from the header-assembly guard above, and 408-free: there is nothing to
  /// answer). 0 disables idle reaping.
  size_t idle_timeout_ms = 60000;
  /// After a drain begins, in-flight work gets this long to finish before
  /// remaining connections are force-closed.
  size_t drain_timeout_ms = 5000;
};

/// Monotonic counters of the HTTP layer (exported at /metrics). The
/// `connections_active` field is a point-in-time gauge.
struct HttpServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_rejected = 0;  // over max_connections, shed with 503
  uint64_t connections_aborted = 0;   // peer closed mid-request or I/O error
  uint64_t header_timeouts = 0;       // slowloris closes (408)
  uint64_t idle_closes = 0;           // keep-alive connections reaped silent
  uint64_t requests = 0;              // complete requests parsed
  uint64_t draining_rejects = 0;      // requests answered 503 during drain
  uint64_t forced_drain_closes = 0;   // connections cut at the drain deadline
  std::map<int, uint64_t> responses_by_code;
  size_t connections_active = 0;      // gauge
};

/// A deferred response: the handler has dispatched work (e.g. a Submit into
/// the serving runtime) and the event loop polls for completion. `poll` must
/// be non-blocking and is called from the event-loop thread only: once right
/// after the handler returns (work that finished on the spot is written in
/// the same loop pass), then whenever the server's CompletionNotifier fires,
/// and at the loop's idle tick. Once it returns true (filling *out) it is
/// never called again.
struct PendingResponse {
  std::function<bool(HttpResponse* out)> poll;
};

using HandlerResult = std::variant<HttpResponse, PendingResponse>;
using HttpHandler = std::function<HandlerResult(const HttpRequest&)>;

/// Poll-based single-threaded HTTP/1.1 server.
///
/// One event-loop thread owns every connection: accept, read, parse,
/// dispatch, and write all happen on the thread that calls Run(). Handlers
/// therefore never need locks of their own; concurrency comes from deferred
/// responses — a handler that returns PendingResponse (the /estimate path)
/// yields the loop while the serving runtime's batch workers do the heavy
/// lifting, so many connections progress while estimates are in flight and
/// concurrent requests micro-batch naturally inside the runtime. Completions
/// are event-driven: the worker that resolves a pending response calls
/// CompletionNotifier(), which wakes poll() through a self-pipe; the loop
/// never spins on a timer while responses are pending.
///
/// Requests on one connection are answered strictly in order (HTTP/1.1
/// pipelining); a pending response parks the connection's parser until it
/// resolves.
///
/// Graceful drain (SIGTERM/SIGINT via a SignalHandler fd, or RequestDrain()
/// from any thread): the listener closes, each connection's already-received
/// bytes get one final parse pass, every in-flight and already-parsed
/// request is served to completion, later requests are answered 503, and
/// Run() returns once every connection has flushed and closed — or after
/// drain_timeout_ms, force-closing stragglers. EINTR-safe throughout;
/// SIGPIPE must be ignored (SignalHandler::Install does this).
class HttpServer {
 public:
  explicit HttpServer(HttpServerConfig config = {});
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Registers a handler for an exact (method, path) pair. Unknown paths get
  /// 404, known paths with a different method get 405. Register before
  /// Run().
  void Route(const std::string& method, const std::string& path,
             HttpHandler handler);

  /// Binds and listens (resolving an ephemeral port). Fails with
  /// kAlreadyExists when the address is taken.
  Status Start();

  /// The bound port; valid after Start().
  uint16_t port() const { return listener_.port(); }

  /// Runs the event loop on the calling thread until a drain completes.
  /// `drain_fd` (optional) is an external wakeup fd — readable means "begin
  /// graceful drain" (wire a SignalHandler's drain_fd here).
  Status Run(int drain_fd = -1);

  /// Thread-safe: asks the loop to begin a graceful drain.
  void RequestDrain();

  /// Returns a thread-safe callback that wakes the event loop so it re-polls
  /// every pending response. Whatever resolves a PendingResponse off the
  /// loop thread calls it once the result is ready (EstimateService installs
  /// it on the serving runtime). It has its own pipe, separate from the
  /// drain wakeup, and stays safe to call after the server is destroyed.
  std::function<void()> CompletionNotifier() const;

  /// Thread-safe counter snapshot.
  HttpServerStats StatsSnapshot() const;

  /// Milliseconds from drain request to loop exit; 0 before a drain
  /// completed. Valid after Run() returns.
  double drain_latency_ms() const { return drain_latency_ms_; }

  const HttpServerConfig& config() const { return config_; }

 private:
  struct Connection {
    int fd = -1;
    std::string in;        // received, not yet parsed
    std::string out;       // serialized responses awaiting write
    size_t out_off = 0;
    std::optional<PendingResponse> pending;
    bool pending_keep_alive = true;
    bool close_after_write = false;
    bool read_closed = false;  // peer sent EOF
    std::chrono::steady_clock::time_point last_activity;
  };

  struct Route_ {
    std::string method;
    std::string path;
    HttpHandler handler;
  };

  void BeginDrain();
  /// Reads everything currently available on `conn`; returns false when the
  /// connection died and was not kept for flushing.
  bool ReadAvailable(Connection& conn);
  /// Parses and dispatches requests from conn.in until a pending response,
  /// an error, or exhaustion.
  void ProcessBuffered(Connection& conn);
  void Dispatch(Connection& conn, const HttpRequest& request);
  void EnqueueResponse(Connection& conn, const HttpResponse& response,
                       bool keep_alive);
  /// Writes as much of conn.out as the socket accepts; returns false when
  /// the connection errored and must be closed.
  bool FlushWrites(Connection& conn);
  void CloseConnection(size_t index, bool aborted);
  void CountResponse(int code);

  HttpServerConfig config_;
  TcpListener listener_;
  std::vector<Route_> routes_;
  std::vector<std::unique_ptr<Connection>> conns_;

  /// A nonblocking self-pipe: any thread may Signal(), the loop polls
  /// read_fd() and Drain()s it.
  class WakePipe {
   public:
    WakePipe() = default;
    ~WakePipe();
    WakePipe(const WakePipe&) = delete;
    WakePipe& operator=(const WakePipe&) = delete;

    Status Open();
    void Signal() const;
    void Drain() const;
    int read_fd() const { return read_fd_; }

   private:
    int read_fd_ = -1;
    int write_fd_ = -1;
  };

  // Thread-safe RequestDrain wakeups; readable means "begin draining".
  WakePipe drain_pipe_;
  // Completion wakeups. Opened in the constructor, before any notifier can
  // exist, and shared with every notifier so it outlives the server if they
  // do.
  std::shared_ptr<WakePipe> completion_pipe_;
  Status completion_pipe_opened_;

  bool draining_ = false;
  std::chrono::steady_clock::time_point drain_deadline_;
  std::chrono::steady_clock::time_point drain_begin_;
  double drain_latency_ms_ = 0.0;

  mutable std::mutex stats_mu_;
  HttpServerStats stats_;
};

}  // namespace prestroid::net

#endif  // PRESTROID_NET_HTTP_SERVER_H_
