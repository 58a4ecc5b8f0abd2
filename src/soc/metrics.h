#pragma once
// Channel-leakage and performance metrics used by the security experiments:
// empirical mutual information between discrete sequences (how many bits
// per observation a covert channel carries), correlation, and latency
// statistics.

#include <cstdint>
#include <string>
#include <vector>

#include "common/counters.h"

namespace aesifc::soc {

// Empirical mutual information I(X;Y) in bits between two equal-length
// sequences of small non-negative integers.
double mutualInformationBits(const std::vector<int>& x,
                             const std::vector<int>& y);

// Pearson correlation coefficient; 0 when either side is constant or when
// fewer than two samples are given (a correlation needs variance on both
// sides to be meaningful).
double pearson(const std::vector<double>& x, const std::vector<double>& y);

// Nearest-rank percentile (q in [0, 100]) over the samples; the q-th
// percentile is the smallest sample such that at least q% of the samples
// are <= it. Returns 0.0 on an empty sample set.
double percentile(std::vector<std::uint64_t> samples, double q);

// Which standard-deviation estimator latencyStats reports. Population
// (divide by N) is the default: the samples are usually the complete set of
// observed completions for the run being reported. Sample (divide by N-1,
// Bessel's correction) is for callers treating the run as a draw from a
// larger population — e.g. projecting a smoke run onto full-length traffic.
enum class StddevKind { Population, Sample };

struct LatencyStats {
  double mean = 0.0;
  // Standard deviation under the estimator the caller selected (population
  // by default — see StddevKind). 0 for count < 2 in either mode.
  double stddev = 0.0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  std::size_t count = 0;
  // Nearest-rank percentiles; equal to the single sample when count == 1
  // and 0 when the sample set is empty (count == 0, like every other
  // field — an empty run reports all-zero stats, never NaN).
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;

  static constexpr auto counterFields() {
    using L = LatencyStats;
    using counters::field;
    return std::tuple{
        field("count", &L::count), field("mean", &L::mean),
        field("stddev", &L::stddev), field("min", &L::min),
        field("max", &L::max), field("p50", &L::p50), field("p95", &L::p95),
        field("p99", &L::p99)};
  }
  std::string toJson() const { return counters::toJson(*this); }
};

LatencyStats latencyStats(const std::vector<std::uint64_t>& samples,
                          StddevKind kind = StddevKind::Population);

// Robustness scorecard for a fault campaign: the accelerator's fault
// counters plus the driver's retry telemetry, with the derived rates the
// experiments report. Deliberately decoupled from the accelerator types so
// reports can be aggregated across runs.
struct RobustnessStats {
  std::uint64_t faults_injected = 0;
  std::uint64_t faults_detected = 0;
  std::uint64_t faults_recovered = 0;
  std::uint64_t fault_aborts = 0;   // blocks squashed fail-secure
  std::uint64_t retries = 0;        // driver resubmissions
  std::uint64_t timeouts = 0;       // watchdog expiries
  std::uint64_t drops = 0;          // overflow / bus losses

  // Detected / injected. The zero-denominator case (a quiet, fault-free
  // run) reports 1.0 by convention: nothing was missed. Note the rate can
  // exceed 1.0 when a single injected fault is detected at more than one
  // point of use (e.g. a corrupted slot caught at submit AND by the scrub
  // ring) — callers comparing campaigns should treat it as a ratio of
  // counters, not a probability.
  double detectionRate() const {
    return faults_injected == 0
               ? 1.0
               : static_cast<double>(faults_detected) /
                     static_cast<double>(faults_injected);
  }
  // Recovered / detected; the zero-denominator case (nothing detected)
  // reports 1.0 by convention — nothing detected means nothing was left
  // unrecovered. Like detectionRate, a ratio of counters, not a
  // probability.
  double recoveryRate() const {
    return faults_detected == 0
               ? 1.0
               : static_cast<double>(faults_recovered) /
                     static_cast<double>(faults_detected);
  }
  static constexpr auto counterFields() {
    using R = RobustnessStats;
    using counters::derived;
    using counters::field;
    return std::tuple{
        field("faults_injected", &R::faults_injected),
        field("faults_detected", &R::faults_detected),
        field("faults_recovered", &R::faults_recovered),
        field("fault_aborts", &R::fault_aborts),
        field("retries", &R::retries),
        field("timeouts", &R::timeouts),
        field("drops", &R::drops),
        derived("detection_rate",
                [](std::ostream& os, const R& r) { os << r.detectionRate(); }),
        derived("recovery_rate",
                [](std::ostream& os, const R& r) { os << r.recoveryRate(); })};
  }
  std::string toJson() const { return counters::toJson(*this); }

  // Aggregate campaign scorecards (across seeds, phases, or tenants); the
  // derived rates recompute from the summed raw counters.
  RobustnessStats& operator+=(const RobustnessStats& o) {
    return counters::addTo(*this, o);
  }
};
static_assert(counters::listsEveryByte<RobustnessStats>());

}  // namespace aesifc::soc
