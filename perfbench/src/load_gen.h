#ifndef PERFBENCH_LOAD_GEN_H_
#define PERFBENCH_LOAD_GEN_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// How one request ended. Every request sent lands in exactly one class.
enum class Outcome {
  kOk,         // HTTP 200 answered by the model tier
  kDegraded,   // HTTP 200 from a fallback tier
  kNon200,     // any other HTTP status
  kTransport,  // connect/send/recv failure, or no answer before the cut-off
};

struct RequestResult {
  /// Index into the request list the run was given.
  size_t request = 0;
  Outcome outcome = Outcome::kTransport;
  /// From the scheduled send time to the last response byte.
  double latency_ms = 0.0;
  /// From the scheduled send time to when the generator noticed it was due.
  double late_ms = 0.0;
  /// Parsed from a 200 body; NaN otherwise.
  double cpu_minutes = 0.0;
  /// How many times the generator settled this request; exactly 1 when the
  /// generator's bookkeeping is right.
  size_t finishes = 0;
};

struct OpenLoopConfig {
  uint16_t port = 0;
  /// Offered rate, requests per second, evenly spaced.
  double rate = 1000.0;
  /// Keep-alive connections; each carries at most one request at a time.
  size_t connections = 4;
  /// After the last scheduled send, how long outstanding requests may take
  /// before they count as transport failures.
  double drain_timeout_s = 5.0;
};

struct OpenLoopRun {
  /// One entry per request scheduled, in schedule order.
  std::vector<RequestResult> results;
};

/// Open-loop load: request i is due at i / rate seconds after the start,
/// whether or not earlier requests were answered. One thread drives all
/// connections over non-blocking sockets; a request that finds no idle
/// connection waits in a FIFO and its wait counts in its latency.
/// `requests` holds complete serialized HTTP requests.
OpenLoopRun RunOpenLoop(const OpenLoopConfig& config,
                        const std::vector<const std::string*>& requests);

/// Parses `"cpu_minutes": X` and `"tier": "model"` out of an estimate body.
/// Returns false when the body has no cpu_minutes.
bool ParseEstimateBody(const std::string& body, double* cpu_minutes,
                       bool* model_tier);

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_GEN_H_
