#ifndef PRESTROID_UTIL_FAULT_INJECTION_H_
#define PRESTROID_UTIL_FAULT_INJECTION_H_

#include <cstddef>
#include <cstdint>

namespace prestroid {

/// Places in the library instrumented for deterministic fault injection.
/// Production code asks `FaultInjector::Global().ShouldFail(site)` at each
/// site; with nothing armed every query is a cheap no-op returning false.
enum class FaultSite {
  /// One write(2) chunk inside AtomicWriteFile. Arming a short write here
  /// truncates the chunk; arming a failure makes the write return EIO.
  kArtifactWrite = 0,
  /// The fsync before the atomic rename.
  kArtifactSync,
  /// The final rename(2) that publishes the artifact.
  kArtifactRename,
  /// One epoch's training loss inside TrainWithEarlyStopping. Arming a
  /// failure here replaces the epoch loss with NaN (simulates divergence).
  kTrainEpochLoss,
  /// One syscall inside artifact read/write (open/read/write). Arming a
  /// failure here makes that syscall report EINTR, exercising the bounded
  /// retry-with-backoff path; arming with repeat exhausts the retry budget.
  kArtifactEintr,
  /// The critical section of ShardedServingRuntime::SwapPipelines. Arming a
  /// failure here aborts the swap before any shard is touched (simulates a
  /// crash mid-swap): every shard's active model, answer cache, and
  /// generation are left intact.
  kModelSwap,
  /// The connect(2) performed by net::FaultConnectTcp (used by HttpClient).
  /// Arming a failure here refuses the connection (ECONNREFUSED) without
  /// ever dialing the peer.
  kNetConnect,
  /// One send(2) inside net::FaultSend. What happens when the fault fires is
  /// chosen by net::NetFaultOptions::send_mode (mid-stream RST, short write).
  kNetSend,
  /// One recv(2) inside net::FaultRecv. What happens when the fault fires is
  /// chosen by net::NetFaultOptions::recv_mode (RST, truncated response,
  /// clamped partial read, byte-level delay).
  kNetRecv,
};

inline constexpr size_t kNumFaultSites = 9;

/// Deterministic, test-driven fault injector (singleton). Each site keeps a
/// hit counter; a site armed with `trigger_after` fires on the
/// (trigger_after+1)-th hit and, when `repeat` is set, on every hit after.
///
/// Not thread-safe by design: the harness is driven from single-threaded
/// tests, and keeping it lock-free guarantees zero cost on hot paths when
/// disarmed.
class FaultInjector {
 public:
  static FaultInjector& Global();

  /// Arms `site` to fail once its hit counter passes `trigger_after`.
  void ArmFailure(FaultSite site, size_t trigger_after = 0,
                  bool repeat = false);

  /// Arms kArtifactWrite to truncate each affected write to `max_bytes`.
  /// Combined with ArmFailure semantics: the short write happens at the
  /// armed trigger point.
  void ArmShortWrite(size_t max_bytes, size_t trigger_after = 0);

  /// Disarms every site and zeroes all hit counters.
  void Reset();

  /// Called by instrumented production code. Counts one hit at `site` and
  /// returns true when an armed fault fires.
  bool ShouldFail(FaultSite site);

  /// Bytes to actually write when a kArtifactWrite fault fires as a short
  /// write instead of an outright failure; SIZE_MAX means "fail, don't
  /// truncate".
  size_t short_write_bytes() const { return short_write_bytes_; }

  bool armed(FaultSite site) const;
  size_t hits(FaultSite site) const;

 private:
  FaultInjector() = default;

  struct SiteState {
    bool armed = false;
    bool repeat = false;
    size_t trigger_after = 0;
    size_t hit_count = 0;
    size_t fired = 0;
  };

  SiteState sites_[kNumFaultSites];
  size_t short_write_bytes_ = static_cast<size_t>(-1);
};

/// RAII guard for tests: resets the global injector on construction and
/// destruction so faults never leak across test cases.
class ScopedFaultInjection {
 public:
  ScopedFaultInjection() { FaultInjector::Global().Reset(); }
  ~ScopedFaultInjection() { FaultInjector::Global().Reset(); }
  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;
};

}  // namespace prestroid

#endif  // PRESTROID_UTIL_FAULT_INJECTION_H_
