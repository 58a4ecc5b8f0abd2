#pragma once
// Accelerator health-state machine driven by an error-budget window over
// the drivers' SessionTelemetry. The service layer samples its sessions'
// telemetry once per window and feeds the delta here; the monitor decides
// which verdicts count and whether the hardware path is trustworthy enough
// to carry traffic.
//
//   Healthy ──(window error rate > degrade threshold)──▶ Degraded
//   Degraded ──(clean windows)──▶ Healthy
//   Healthy/Degraded ──(rate > quarantine threshold, or failure streak,
//                       or escaped-fault signal)──▶ Quarantined
//   Quarantined ──(residency elapsed)──▶ Probation
//   Probation ──(all canary probes pass)──▶ Healthy
//   Probation ──(any canary fails)──▶ Quarantined (residency restarts)
//
// The monitor is deliberately pure bookkeeping: it never touches the
// device. The service owns the consequences (shedding, circuit breaking,
// canary probing) and reports every transition to the accelerator's
// security event ring so hardware and service events share one timeline.

#include <cstdint>
#include <string>
#include <vector>

#include "accel/driver.h"

namespace aesifc::soc {

enum class HealthState { Healthy, Degraded, Quarantined, Probation };

std::string toString(HealthState s);

struct HealthConfig {
  // Error-budget window: the service feeds one sample per this many cycles.
  std::uint64_t window_cycles = 1024;
  // Transient failures (timeouts + fault aborts + drops) per completed
  // operation in one window above which the hardware is taken out of
  // rotation. Above kDegradeThreshold (0.10, health.cpp) it is suspect.
  double quarantine_threshold = 0.50;
  // Clean windows (rate <= degrade) needed to climb Degraded -> Healthy.
  unsigned recovery_windows = 2;
  // Minimum cycles to sit quarantined before canaries may probe.
  std::uint64_t quarantine_residency_cycles = 2048;
};

class HealthMonitor {
 public:
  explicit HealthMonitor(HealthConfig cfg);

  struct Transition {
    HealthState from;
    HealthState to;
    std::uint64_t cycle = 0;
    std::string reason;
  };

  HealthState state() const { return state_; }
  const HealthConfig& config() const { return cfg_; }
  const std::vector<Transition>& transitions() const { return transitions_; }
  // Count of entries into `s` (quarantine flaps, probation attempts, ...).
  unsigned entries(HealthState s) const;

  // One error-budget window worth of telemetry: the verdicts the driver
  // sessions reached since the previous sample. Only verdicts about device
  // health count: the transient failures (timeouts, fault aborts, drops)
  // over those plus the Ok ones. Suppressed, Rejected and AuthFailed are
  // deterministic verdicts about labels, keys and messages, and counting
  // them would dilute the rate exactly when the service is churning through
  // key re-provisions. Returns the (possibly new) state.
  HealthState onWindow(const accel::SessionTelemetry& window_delta,
                       std::uint64_t cycle);

  // True once the quarantine residency has elapsed and canaries may run.
  // Calling this moves Quarantined -> Probation so the service runs probes
  // exactly once per probation round.
  bool tryBeginProbation(std::uint64_t cycle);

  // Verdict of a full canary round (all key slots probed).
  void onCanaryVerdict(bool all_passed, std::uint64_t cycle);

  // Hard signal that bypasses the window (e.g. a golden-model mismatch on
  // the hardware path): straight to Quarantined.
  void forceQuarantine(std::uint64_t cycle, const std::string& reason);

 private:
  void moveTo(HealthState to, std::uint64_t cycle, std::string reason);

  HealthConfig cfg_;
  HealthState state_ = HealthState::Healthy;
  unsigned clean_windows_ = 0;
  unsigned wedged_windows_ = 0;
  std::uint64_t quarantined_since_ = 0;
  std::vector<Transition> transitions_;
};

}  // namespace aesifc::soc
