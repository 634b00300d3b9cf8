#include "serving_workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "load_gen.h"
#include "replay.h"
#include "server_proc.h"
#include "stats.h"
#include "steal.h"
#include "training_layers.h"
#include "wire.h"

namespace perfbench {
namespace {

// The fixed-rate phase runs in segments of kSegmentSeconds. A segment is
// disturbed when the host stole more than kMaxSteal of the machine's CPU
// time meanwhile (see steal.h), or when the generator itself noticed 1% of
// its requests more than kMaxLateMs after they were due: either way the
// machine, not the server, set the timing. A run of S seconds sends
// segments until S seconds of undisturbed ones ran, or kMaxSegmentsFactor
// times that many segments; its latency percentiles are medians over the
// least disturbed S seconds of them. With S = 20 that is 20 to 25 segments.
constexpr double kSegmentSeconds = 1.0;
constexpr double kMaxSteal = 0.01;
constexpr double kMaxLateMs = 1.0;
constexpr double kMaxSegmentsFactor = 1.25;
// Served answers must match the in-process model within the batched ==
// single parity of DESIGN.md section 5.4.
constexpr double kParityRelTol = 1e-5;
// Requests the traced replay walks through the layers.
constexpr size_t kReplayRequests = 2000;

// The fixed phase offers a little under half of what the default server
// sustains on each workload (about 2000/s on recurring_plans and 1400/s on
// adhoc_sql on a 4-core x86-64 box).
double FixedRate(ServingKind kind) {
  return kind == ServingKind::kRecurringPlans ? 900.0 : 600.0;
}

size_t Connections() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<size_t>(hw == 0 ? 1 : hw, 1, 4);
}

const char* KindName(ServingKind kind) {
  return kind == ServingKind::kRecurringPlans ? "recurring_plans" : "adhoc_sql";
}

struct Tally {
  size_t sent = 0;
  size_t ok = 0;
  size_t degraded = 0;
  size_t non200 = 0;
  size_t transport = 0;
  /// Latency of every request sent, sorted; failures count as +inf, so a
  /// failed request lands above every percentile.
  std::vector<double> latency_ms;
  std::vector<double> late_ms;

  double OkShare() const {
    return sent == 0 ? 0.0 : static_cast<double>(ok) / static_cast<double>(sent);
  }
};

Tally Count(const std::vector<const OpenLoopRun*>& runs) {
  Tally tally;
  for (const OpenLoopRun* run : runs) {
    for (const RequestResult& r : run->results) {
      ++tally.sent;
      switch (r.outcome) {
        case Outcome::kOk: ++tally.ok; break;
        case Outcome::kDegraded: ++tally.degraded; break;
        case Outcome::kNon200: ++tally.non200; break;
        case Outcome::kTransport: ++tally.transport; break;
      }
      tally.latency_ms.push_back(r.outcome == Outcome::kOk
                                     ? r.latency_ms
                                     : std::numeric_limits<double>::infinity());
      tally.late_ms.push_back(r.late_ms);
    }
  }
  std::sort(tally.latency_ms.begin(), tally.latency_ms.end());
  std::sort(tally.late_ms.begin(), tally.late_ms.end());
  return tally;
}

// One stretch of the seeded stream sent at a fixed rate.
struct Phase {
  size_t first = 0;  // position in inputs.stream
  OpenLoopRun run;
  double steal = 0.0;    // share of CPU time the host stole meanwhile
  double late_p99 = 0.0; // the generator's own lateness, ms

  bool Disturbed() const { return steal > kMaxSteal || late_p99 > kMaxLateMs; }
  // Orders phases from least to most disturbed.
  static bool Calmer(const Phase* a, const Phase* b) {
    return std::max(a->steal / kMaxSteal, a->late_p99 / kMaxLateMs) <
           std::max(b->steal / kMaxSteal, b->late_p99 / kMaxLateMs);
  }
};

class Sender {
 public:
  Sender(const ServingInputs& inputs, uint16_t port)
      : inputs_(inputs), port_(port) {}

  Phase Send(double rate, size_t count) {
    Phase phase;
    phase.first = cursor_;
    std::vector<const std::string*> requests;
    for (size_t i = 0; i < count && cursor_ < inputs_.stream.size(); ++i) {
      requests.push_back(&inputs_.items[inputs_.stream[cursor_++]].request);
    }
    OpenLoopConfig config;
    config.port = port_;
    config.rate = rate;
    config.connections = Connections();
    const CpuTicks before = ReadCpuTicks();
    phase.run = RunOpenLoop(config, requests);
    phase.steal = StealShare(before, ReadCpuTicks());
    std::vector<double> late;
    for (const RequestResult& r : phase.run.results) late.push_back(r.late_ms);
    phase.late_p99 = Percentile(late, 99.0);
    return phase;
  }

 private:
  const ServingInputs& inputs_;
  uint16_t port_;
  size_t cursor_ = 0;
};

// Counter values from a Prometheus text scrape, keyed by the full series
// name including labels.
std::map<std::string, double> Scrape(uint16_t port) {
  std::map<std::string, double> series;
  WireResponse response;
  if (!Exchange(port, BuildGet("/metrics"), 2000, &response) ||
      response.status != 200) {
    return series;
  }
  size_t pos = 0;
  while (pos < response.body.size()) {
    size_t eol = response.body.find('\n', pos);
    if (eol == std::string::npos) eol = response.body.size();
    const std::string line = response.body.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    series[line.substr(0, space)] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return series;
}

// Sum of the prestroid_http_responses_total series; with `non200_only`,
// of the codes other than 200.
double Responses(const std::map<std::string, double>& series, bool non200_only) {
  double total = 0.0;
  const std::string prefix = "prestroid_http_responses_total{";
  for (const auto& [name, value] : series) {
    if (name.rfind(prefix, 0) != 0) continue;
    if (non200_only && name.find("\"200\"") != std::string::npos) continue;
    total += value;
  }
  return total;
}

double Delta(const std::map<std::string, double>& before,
             const std::map<std::string, double>& after, const std::string& name) {
  auto a = after.find(name);
  auto b = before.find(name);
  return (a == after.end() ? 0.0 : a->second) - (b == before.end() ? 0.0 : b->second);
}

std::vector<std::string> ServeArgv(const RunOptions& options,
                                   const ServingInputs& inputs, uint16_t port) {
  return {options.cli_path, "serve",  "--model",
          inputs.model_path, "--trace", inputs.trace_path,
          "--listen",        "127.0.0.1:" + std::to_string(port)};
}

// Starts a server on a fresh port; returns false (with a violation) when it
// never became healthy.
bool StartServer(const RunOptions& options, const ServingInputs& inputs,
                 ServerProcess* server, double* setup_s, RunReport* report) {
  const uint16_t port = PickFreePort();
  if (port == 0 ||
      !server->Start(ServeArgv(options, inputs, port),
                     options.work_dir + "/server.log", port, 60.0, setup_s)) {
    report->Violation("server did not become healthy (see server.log)");
    return false;
  }
  return true;
}

// The generator must settle every request it was given exactly once.
void CheckAccounting(const Phase& phase, RunReport* report) {
  size_t unsettled = 0;
  for (const RequestResult& r : phase.run.results) {
    if (r.finishes != 1) ++unsettled;
  }
  if (unsettled > 0) {
    report->Violation(std::to_string(unsettled) +
                      " requests not settled exactly once by the generator");
  }
}

// Between two /metrics scrapes the server must have parsed and answered
// exactly the requests the generator got answers to, plus one scrape (each
// scrape counts its own request but not its own response), and sent the
// same number of non-200 statuses.
void CheckServerCounts(const std::map<std::string, double>& before,
                       const std::map<std::string, double>& after,
                       const Tally& t, const char* label, RunReport* report) {
  const double answered = static_cast<double>(t.ok + t.degraded + t.non200);
  const double parsed =
      Delta(before, after, "prestroid_http_requests_total") - 1.0;
  const double responded = Responses(after, false) - Responses(before, false) - 1.0;
  const double non200 = Responses(after, true) - Responses(before, true);
  std::printf("%s: server parsed %.0f, answered %.0f (%.0f non-200); generator "
              "got %.0f answers (%zu non-200)\n",
              label, parsed, responded, non200, answered, t.non200);
  if (parsed != answered || responded != answered ||
      non200 != static_cast<double>(t.non200)) {
    report->Violation(std::string(label) +
                      ": server request/response counters disagree with the "
                      "answers the generator received");
  }
}

// Every 200 answer must equal the in-process model's answer for its item.
void CheckParity(const ServingInputs& inputs, const std::vector<Phase>& phases,
                 RunReport* report) {
  std::vector<bool> needed(inputs.items.size(), false);
  for (const Phase& phase : phases) {
    for (const RequestResult& r : phase.run.results) {
      if (r.outcome == Outcome::kOk) {
        needed[inputs.stream[phase.first + r.request]] = true;
      }
    }
  }
  auto reference = ReferenceAnswers(inputs, needed);
  if (!reference.ok()) {
    report->Violation("reference answers failed: " + reference.status().ToString());
    return;
  }
  size_t checked = 0;
  size_t mismatched = 0;
  for (const Phase& phase : phases) {
    for (const RequestResult& r : phase.run.results) {
      if (r.outcome != Outcome::kOk) continue;
      const double want = (*reference)[inputs.stream[phase.first + r.request]];
      ++checked;
      if (!(std::fabs(r.cpu_minutes - want) <=
            kParityRelTol * std::max(std::fabs(want), 1e-12))) {
        if (mismatched++ < 3) {
          std::printf("parity mismatch: served %.9g, in-process %.9g\n",
                      r.cpu_minutes, want);
        }
      }
    }
  }
  std::printf("parity: %zu served answers checked, %zu mismatched\n", checked,
              mismatched);
  if (mismatched > 0) {
    report->Violation(std::to_string(mismatched) +
                      " served answers differ from the in-process model");
  }
}

struct Accuracy {
  double qerror_p50 = 0.0;
  double qerror_p95 = 0.0;
  double mse = 0.0;
};

Accuracy ServedAccuracy(const ServingInputs& inputs,
                        const std::vector<const Phase*>& phases) {
  std::vector<double> qerrors;
  double squared = 0.0;
  for (const Phase* phase : phases) {
    for (const RequestResult& r : phase->run.results) {
      if (r.outcome != Outcome::kOk) continue;
      const double label =
          inputs.items[inputs.stream[phase->first + r.request]].label_minutes;
      qerrors.push_back(QError(r.cpu_minutes, label));
      squared += (r.cpu_minutes - label) * (r.cpu_minutes - label);
    }
  }
  Accuracy accuracy;
  if (qerrors.empty()) return accuracy;
  accuracy.qerror_p50 = Percentile(qerrors, 50.0);
  accuracy.qerror_p95 = Percentile(qerrors, 95.0);
  accuracy.mse = squared / static_cast<double>(qerrors.size());
  return accuracy;
}

void PrintPhase(const char* label, double rate, const Tally& t) {
  std::printf(
      "%s @ %.0f/s: sent=%zu ok=%zu degraded=%zu non200=%zu transport=%zu | %s "
      "%s %s | generator %s\n",
      label, rate, t.sent, t.ok, t.degraded, t.non200, t.transport,
      FormatPercentile("p50", ReportPercentile(t.latency_ms, 50.0), "ms").c_str(),
      FormatPercentile("p90", ReportPercentile(t.latency_ms, 90.0), "ms").c_str(),
      FormatPercentile("p99", ReportPercentile(t.latency_ms, 99.0), "ms").c_str(),
      FormatPercentile("late_p99", ReportPercentile(t.late_ms, 99.0), "ms").c_str());
}

}  // namespace

void RunServingWorkload(ServingKind kind, const RunOptions& options,
                        RunReport* report) {
  const double rate = FixedRate(kind);
  const size_t segment_count = static_cast<size_t>(rate * kSegmentSeconds);
  const size_t calm_wanted = std::max<size_t>(
      1, static_cast<size_t>(options.seconds / kSegmentSeconds + 0.5));
  const size_t max_segments = static_cast<size_t>(
      static_cast<double>(calm_wanted) * kMaxSegmentsFactor);

  auto prepared = PrepareServing(kind, options.seed, options.work_dir,
                                 max_segments * segment_count);
  if (!prepared.ok()) {
    report->Violation("input preparation failed: " + prepared.status().ToString());
    return;
  }
  const ServingInputs& inputs = *prepared;
  std::vector<double> body_bytes;
  for (const ServingItem& item : inputs.items) {
    body_bytes.push_back(static_cast<double>(item.body.size()));
  }
  std::printf(
      "%s: %zu distinct bodies (bytes p50=%.0f p99=%.0f max=%.0f), %zu requests "
      "prepared, %zu connections\n",
      KindName(kind), inputs.items.size(), Percentile(body_bytes, 50.0),
      Percentile(body_bytes, 99.0), Percentile(body_bytes, 100.0),
      inputs.stream.size(), Connections());

  // Set-up time is spawn to first healthy /healthz. The server that takes
  // the load gives the first sample. Untraced, one more server is spawned
  // and stopped after every fixed-rate segment while the loaded one idles,
  // so the median spans the whole run rather than one moment of a machine
  // whose speed drifts.
  ServerProcess server;
  std::vector<double> setups(1, 0.0);
  if (!StartServer(options, inputs, &server, &setups[0], report)) return;
  auto sample_setup = [&]() {
    ServerProcess extra;
    double setup_s = 0.0;
    if (!StartServer(options, inputs, &extra, &setup_s, report)) return false;
    setups.push_back(setup_s);
    if (!extra.Stop(10.0)) {
      report->Violation("server did not drain cleanly on SIGTERM");
    }
    return true;
  };
  const uint16_t port = server.port();
  Sender sender(inputs, port);

  // Every phase ever sent, for accounting and the parity check. Reserved
  // up front so references into it stay valid.
  std::vector<Phase> phases;
  phases.reserve(1 + max_segments);
  auto send = [&](size_t count) -> const Phase& {
    phases.push_back(sender.Send(rate, count));
    CheckAccounting(phases.back(), report);
    return phases.back();
  };
  const auto scrape_start = Scrape(port);
  const Phase& warmup = send(inputs.warmup);
  const auto scrape_before = Scrape(port);
  CheckServerCounts(scrape_start, scrape_before, Count({&warmup.run}), "warm-up",
                    report);

  // Fixed-rate phase.
  std::vector<const Phase*> segments;
  size_t calm = 0;
  while (calm < calm_wanted && segments.size() < max_segments) {
    segments.push_back(&send(segment_count));
    if (!segments.back()->Disturbed()) ++calm;
    if (!options.trace && !sample_setup()) return;
  }
  const auto scrape_after = Scrape(port);
  std::vector<const OpenLoopRun*> segment_runs;
  for (const Phase* segment : segments) segment_runs.push_back(&segment->run);
  const Tally fixed_tally = Count(segment_runs);
  CheckServerCounts(scrape_before, scrape_after, fixed_tally, "fixed", report);
  report->attempted += fixed_tally.sent;
  report->failed += fixed_tally.sent - fixed_tally.ok;
  std::vector<const Phase*> least_disturbed = segments;
  std::stable_sort(least_disturbed.begin(), least_disturbed.end(), Phase::Calmer);
  least_disturbed.resize(std::min(least_disturbed.size(), calm_wanted));
  std::vector<double> segment_p50;
  std::vector<double> segment_p90;
  std::printf("fixed-rate segments (steal, generator late_p99):");
  for (const Phase* segment : segments) {
    std::printf(" %.1f%%/%.2fms", 100.0 * segment->steal, segment->late_p99);
  }
  std::printf("\n");
  for (const Phase* segment : least_disturbed) {
    const Tally t = Count({&segment->run});
    segment_p50.push_back(PercentileSorted(t.latency_ms, 50.0));
    segment_p90.push_back(PercentileSorted(t.latency_ms, 90.0));
  }
  PrintPhase("fixed", rate, fixed_tally);
  const double p50 = Median(segment_p50);
  const double p90 = Median(segment_p90);
  std::printf("fixed: median over %zu least disturbed segments of %zu: p50=%.4fms "
              "p90=%.4fms\n",
              least_disturbed.size(), segments.size(), p50, p90);
  std::printf("setup (spawn to first healthy /healthz), %zu spawns:", setups.size());
  for (double setup_s : setups) std::printf(" %.4f", setup_s);
  std::printf(" s | median %.4fs\n", Median(setups));
  const Accuracy accuracy = ServedAccuracy(inputs, segments);
  std::printf("served accuracy: qerror p50=%.4f p95=%.4f (n=%zu) mse=%.4f min^2\n",
              accuracy.qerror_p50, accuracy.qerror_p95, fixed_tally.ok,
              accuracy.mse);

  if (options.trace) {
    const double hits = Delta(scrape_before, scrape_after,
                              "prestroid_serving_cache_hits_total");
    const double misses = Delta(scrape_before, scrape_after,
                                "prestroid_serving_cache_misses_total");
    report->Add("net.non200",
                Responses(scrape_after, true) - Responses(scrape_before, true),
                "count");
    report->Add("serve.cache_hit_ratio",
                hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
    report->Add("serve.rejected_requests",
                Delta(scrape_before, scrape_after,
                      "prestroid_serving_queue_rejects_total"),
                "count");
    report->Add("gen.late_p99_ms", PercentileSorted(fixed_tally.late_ms, 99.0), "ms");
    report->Add("core.qerror_p50", accuracy.qerror_p50, "ratio");
    report->Add("core.qerror_p95", accuracy.qerror_p95, "ratio");
    report->Add("core.mse", accuracy.mse, "min2");
  } else {
    // p90 is printed, not reported: a few percent of CPU time stolen by the
    // host moves it by up to 2x, far past any bound.
    report->Add("setup_s", Median(setups), "s");
    report->Add("latency_p50_ms", p50, "ms");
    report->Add("ok_share", fixed_tally.OkShare(), "ratio");
    report->Add("peak_rss_mb", server.PeakRssMb(), "MB");
  }
  if (!server.Stop(10.0)) {
    report->Violation("server did not drain cleanly on SIGTERM");
  }
  CheckParity(inputs, phases, report);

  if (options.trace) {
    const std::string spans_path =
        options.work_dir + "/../spans-" + KindName(kind) + ".tsv";
    const prestroid::Status replayed = TracedServingReplay(
        inputs, inputs.warmup,
        std::min<size_t>(kReplayRequests, calm_wanted * segment_count), p50,
        spans_path, report);
    if (!replayed.ok()) {
      report->Violation("traced replay failed: " + replayed.ToString());
    } else {
      std::printf("spans written to %s\n", spans_path.c_str());
    }
    // The training layers, on this workload's trace, with no server running.
    MeasureTrainingLayers(options, inputs.trace_path,
                          options.work_dir + "/../spans-" + KindName(kind) +
                              "-training.tsv",
                          report);
  }
}

}  // namespace perfbench
