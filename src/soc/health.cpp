#include "soc/health.h"

#include <sstream>

namespace aesifc::soc {

// Windows with fewer terminated operations than this are too noisy for the
// rate thresholds (one timeout out of one op would read as 100%); they still
// count toward the wedged-window streak.
constexpr std::uint64_t kMinWindowOps = 4;

std::string toString(HealthState s) {
  switch (s) {
    case HealthState::Healthy: return "healthy";
    case HealthState::Degraded: return "degraded";
    case HealthState::Quarantined: return "quarantined";
    case HealthState::Probation: return "probation";
  }
  return "?";
}

HealthMonitor::HealthMonitor(HealthConfig cfg) : cfg_{cfg} {}

unsigned HealthMonitor::entries(HealthState s) const {
  unsigned n = 0;
  for (const auto& t : transitions_) {
    if (t.to == s) ++n;
  }
  return n;
}

void HealthMonitor::moveTo(HealthState to, std::uint64_t cycle,
                           std::string reason) {
  if (to == state_) return;
  transitions_.push_back({state_, to, cycle, std::move(reason)});
  state_ = to;
  if (to == HealthState::Quarantined) quarantined_since_ = cycle;
  if (to != HealthState::Degraded) clean_windows_ = 0;
  if (to == HealthState::Healthy) wedged_windows_ = 0;
}

HealthState HealthMonitor::onWindow(
    const accel::SessionTelemetry& window_delta, std::uint64_t cycle) {
  // Quarantine and probation are left via residency + canaries, not via
  // traffic windows (fallback traffic says nothing about the hardware).
  if (state_ == HealthState::Quarantined || state_ == HealthState::Probation)
    return state_;
  const std::uint64_t ok = window_delta.ok;
  const std::uint64_t transient = window_delta.transientFailures();
  const std::uint64_t ops = ok + transient;
  if (ops == 0) return state_;

  const double rate =
      static_cast<double>(transient) / static_cast<double>(ops);
  if (ok == 0) {
    ++wedged_windows_;
  } else {
    wedged_windows_ = 0;
  }

  std::ostringstream why;
  why << "window: ops=" << ops << " ok=" << ok << " transient-rate=" << rate;

  if (wedged_windows_ >= cfg_.wedged_windows) {
    moveTo(HealthState::Quarantined, cycle,
           why.str() + " (" + std::to_string(wedged_windows_) +
               " wedged windows)");
  } else if (ops < kMinWindowOps) {
    // Too few samples for the rate to mean anything; wait for more traffic.
  } else if (rate > cfg_.quarantine_threshold) {
    moveTo(HealthState::Quarantined, cycle,
           why.str() + " > quarantine threshold");
  } else if (rate > cfg_.degrade_threshold) {
    clean_windows_ = 0;
    moveTo(HealthState::Degraded, cycle, why.str() + " > degrade threshold");
  } else if (state_ == HealthState::Degraded) {
    if (++clean_windows_ >= cfg_.recovery_windows) {
      moveTo(HealthState::Healthy, cycle,
             why.str() + " (" + std::to_string(clean_windows_) +
                 " clean windows)");
    }
  }
  return state_;
}

bool HealthMonitor::tryBeginProbation(std::uint64_t cycle) {
  if (state_ != HealthState::Quarantined) return false;
  if (cycle < quarantined_since_ + cfg_.quarantine_residency_cycles)
    return false;
  moveTo(HealthState::Probation, cycle, "quarantine residency elapsed");
  return true;
}

void HealthMonitor::onCanaryVerdict(bool all_passed, std::uint64_t cycle) {
  if (state_ != HealthState::Probation) return;
  if (all_passed) {
    moveTo(HealthState::Healthy, cycle, "all canary probes passed");
  } else {
    moveTo(HealthState::Quarantined, cycle, "canary probe failed");
  }
}

void HealthMonitor::forceQuarantine(std::uint64_t cycle,
                                    const std::string& reason) {
  if (state_ == HealthState::Quarantined) return;
  moveTo(HealthState::Quarantined, cycle, reason);
}

}  // namespace aesifc::soc
