#ifndef PRESTROID_UTIL_MEMORY_TRACKER_H_
#define PRESTROID_UTIL_MEMORY_TRACKER_H_

#include <atomic>
#include <cstddef>

namespace prestroid {

/// Snapshot of a MemoryTracker's counters at one instant.
struct MemoryTrackerStats {
  size_t in_use_bytes = 0;
  size_t peak_bytes = 0;
  size_t budget_bytes = 0;  // 0 = unlimited
  size_t denied = 0;        // TryCharge calls refused over budget
};

/// Lock-free byte accounting with an optional hard budget.
///
/// Chargers call TryCharge before allocating and Release after freeing; a
/// charge that would push in-use past the budget is refused and counted, so
/// the caller can shed that request instead of letting one heavy consumer
/// grow the process until the OOM killer picks a victim. A budget of 0 means
/// "account but never refuse" — the tracker is then pure observability.
///
/// Thread-safe: all members are atomics; TryCharge uses a CAS loop so two
/// racing charges can never jointly exceed the budget.
class MemoryTracker {
 public:
  explicit MemoryTracker(size_t budget_bytes = 0) : budget_(budget_bytes) {}

  MemoryTracker(const MemoryTracker&) = delete;
  MemoryTracker& operator=(const MemoryTracker&) = delete;

  /// Attempts to account `bytes`; false (and a denied tick) when the budget
  /// would be exceeded. Zero-byte charges always succeed.
  bool TryCharge(size_t bytes) {
    if (bytes == 0) return true;
    size_t current = in_use_.load(std::memory_order_relaxed);
    for (;;) {
      const size_t next = current + bytes;
      if (budget_ != 0 && (next > budget_ || next < current)) {
        denied_.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      if (in_use_.compare_exchange_weak(current, next,
                                        std::memory_order_relaxed)) {
        UpdatePeak(next);
        return true;
      }
    }
  }

  /// Returns `bytes` previously charged. Releasing more than is in use
  /// clamps to zero (a double-release bug should not wrap the counter).
  void Release(size_t bytes) {
    size_t current = in_use_.load(std::memory_order_relaxed);
    for (;;) {
      const size_t next = current >= bytes ? current - bytes : 0;
      if (in_use_.compare_exchange_weak(current, next,
                                        std::memory_order_relaxed)) {
        return;
      }
    }
  }

  size_t in_use() const { return in_use_.load(std::memory_order_relaxed); }
  size_t peak() const { return peak_.load(std::memory_order_relaxed); }
  size_t denied() const { return denied_.load(std::memory_order_relaxed); }
  size_t budget() const { return budget_; }

  MemoryTrackerStats Snapshot() const {
    MemoryTrackerStats stats;
    stats.in_use_bytes = in_use();
    stats.peak_bytes = peak();
    stats.budget_bytes = budget_;
    stats.denied = denied();
    return stats;
  }

 private:
  void UpdatePeak(size_t next) {
    size_t peak = peak_.load(std::memory_order_relaxed);
    while (next > peak &&
           !peak_.compare_exchange_weak(peak, next,
                                        std::memory_order_relaxed)) {
    }
  }

  size_t budget_;
  std::atomic<size_t> in_use_{0};
  std::atomic<size_t> peak_{0};
  std::atomic<size_t> denied_{0};
};

}  // namespace prestroid

#endif  // PRESTROID_UTIL_MEMORY_TRACKER_H_
