#include "util/fault_injection.h"

#include <chrono>
#include <thread>

namespace prestroid {

FaultInjector& FaultInjector::Global() {
  static FaultInjector instance;
  return instance;
}

void FaultInjector::ArmFailure(FaultSite site, size_t trigger_after,
                               bool repeat) {
  SiteState& state = sites_[static_cast<size_t>(site)];
  state.armed = true;
  state.repeat = repeat;
  state.trigger_after = trigger_after;
  state.hit_count = 0;
  state.fired = 0;
}

void FaultInjector::ArmShortWrite(size_t max_bytes, size_t trigger_after) {
  ArmFailure(FaultSite::kArtifactWrite, trigger_after);
  short_write_bytes_ = max_bytes;
}

void FaultInjector::ArmStall(FaultSite site, double ms) {
  stall_ms_[static_cast<size_t>(site)].store(ms);
}

void FaultInjector::Reset() {
  for (SiteState& state : sites_) state = SiteState();
  for (std::atomic<double>& stall : stall_ms_) stall.store(0.0);
  short_write_bytes_ = static_cast<size_t>(-1);
}

bool FaultInjector::ShouldFail(FaultSite site) {
  SiteState& state = sites_[static_cast<size_t>(site)];
  if (!state.armed) return false;
  const size_t hit = state.hit_count++;
  if (hit < state.trigger_after) return false;
  if (!state.repeat && state.fired > 0) return false;
  ++state.fired;
  return true;
}

void FaultInjector::Stall(FaultSite site) {
  const double ms = stall_ms_[static_cast<size_t>(site)].load();
  if (ms > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
  }
}

bool FaultInjector::armed(FaultSite site) const {
  return sites_[static_cast<size_t>(site)].armed;
}

size_t FaultInjector::hits(FaultSite site) const {
  return sites_[static_cast<size_t>(site)].hit_count;
}

}  // namespace prestroid
