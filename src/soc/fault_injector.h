#pragma once
// Seeded fault-injection campaigns against the accelerator: single-event
// upsets (one bit flip per event) in the pipeline stage data/tag registers,
// the key scratchpad and its tag array, the round-key RAM and the config
// registers, plus host-interface perturbations (dropped or duplicated
// responses, a receiver that goes stuck-not-ready, spurious submits from a
// confused or malicious bus master).
//
// The injector sits between clock edges: either register it with
// `acc.setTickHook([&]{ inj.tick(); })` (works even when an AccelSession
// owns the clock) or call `tick()` manually between `acc.tick()` calls.
// At most one fault lands per cycle, so the per-cycle
// scrub rings in the hardened accelerator see every upset before a second
// one can mask it. Every event is recorded; `report()` reconciles the
// injection log against the accelerator's detection counters so a campaign
// ends with a per-site injected / detected / recovered / escaped table.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "accel/accelerator.h"
#include "accel/driver.h"
#include "common/counters.h"
#include "common/rng.h"
#include "soc/dma.h"

namespace aesifc::soc {

// One descriptor or completion ring the injector may corrupt: `slots`
// records of `stride` bytes starting at `base` in attached host memory.
struct RingRange {
  std::size_t base = 0;
  unsigned slots = 0;
  unsigned stride = kDescBytes;
};

struct FaultCampaignConfig {
  std::uint64_t seed = 1;
  double fault_rate = 0.01;    // per-cycle probability of one fault event
  bool hw_faults = true;       // bit flips in device state
  bool host_faults = true;     // interface perturbations
  unsigned stuck_cycles = 48;  // receiver-not-ready hold time
};

struct FaultRecord {
  std::uint64_t cycle = 0;
  accel::FaultSite site{};
  unsigned index = 0;  // stage / cell / slot / register / user
  // Hardware sites: the flipped bit. HostSpuriousSubmit: key_slot*2+decrypt
  // (the spurious request's shape, so a replay rebuilds the same request).
  unsigned bit = 0;
  bool applied = false;  // false: target empty or out of range, no state hit
};

// One-line-per-event text form of an injection log — the replay trace. A
// failing campaign dumps this; feeding it back through a replay-mode
// FaultInjector re-lands every event on the same cycle at the same site, so
// a failure reproduces exactly in a debugger without re-rolling the RNG.
std::string traceToString(const std::vector<FaultRecord>& records);
// Inverse of traceToString. Throws std::invalid_argument on a malformed
// line or unknown site name.
std::vector<FaultRecord> parseTrace(const std::string& text);

// End-of-campaign reconciliation. `injected`/`applied` come from the
// injector's own log; `detected`/`recovered`/`aborted` are read back from
// the accelerator. `escaped[site]` is the number of applied upsets at a
// hardware site the device never noticed — the fail-secure goal is zero for
// the tag arrays (fast scrub ring) and zero-after-settling for the slow
// ring sites.
struct FaultCampaignReport {
  std::vector<FaultRecord> records;
  std::array<std::uint64_t, accel::kHwFaultSites> injected_by_site{};
  std::array<std::uint64_t, accel::kHwFaultSites> applied_by_site{};
  std::array<std::uint64_t, accel::kHwFaultSites> detected_by_site{};
  std::uint64_t injected = 0;
  std::uint64_t applied = 0;
  std::uint64_t host_drops = 0;
  std::uint64_t host_duplicates = 0;
  std::uint64_t host_stuck = 0;
  std::uint64_t host_spurious = 0;
  std::uint64_t host_ring_desc = 0;  // bit flips landed in descriptor rings
  std::uint64_t host_ring_comp = 0;  // bit flips landed in completion rings
  std::uint64_t detected = 0;   // accelerator parity detections
  std::uint64_t recovered = 0;  // scrubbed with no request casualties
  std::uint64_t aborted = 0;    // blocks squashed fail-secure

  std::uint64_t escaped(unsigned site) const {
    const auto a = applied_by_site[site];
    const auto d = detected_by_site[site];
    return a > d ? a - d : 0;
  }
  static constexpr auto counterFields() {
    using R = FaultCampaignReport;
    using counters::derived;
    using counters::field;
    return std::tuple{
        field("injected", &R::injected), field("applied", &R::applied),
        field("detected", &R::detected), field("recovered", &R::recovered),
        field("aborted", &R::aborted),
        derived("host", [](std::ostream& os, const R& r) {
          counters::writeJson(
              os, r,
              std::tuple{field("drops", &R::host_drops),
                         field("duplicates", &R::host_duplicates),
                         field("stuck", &R::host_stuck),
                         field("spurious", &R::host_spurious),
                         field("ring_desc", &R::host_ring_desc),
                         field("ring_comp", &R::host_ring_comp)});
        }),
        derived("sites", [](std::ostream& os, const R& r) {
          os << '[';
          for (unsigned s = 0; s < accel::kHwFaultSites; ++s) {
            os << (s ? "," : "") << "{\"site\":\""
               << toString(static_cast<accel::FaultSite>(s))
               << "\",\"injected\":" << r.injected_by_site[s]
               << ",\"applied\":" << r.applied_by_site[s]
               << ",\"detected\":" << r.detected_by_site[s]
               << ",\"escaped\":" << r.escaped(s) << "}";
          }
          os << ']';
        })};
  }
  std::string toJson() const { return counters::toJson(*this); }
};

class FaultInjector {
 public:
  // `users` are the host-interface targets for drop/duplicate/stuck-ready
  // perturbations and the principals impersonated by spurious submits.
  FaultInjector(accel::AesAccelerator& acc, FaultCampaignConfig cfg,
                std::vector<unsigned> users);

  // Replay mode: re-inject a recorded trace instead of rolling the RNG.
  // Events land on the cycles recorded in the trace (tick() compares
  // against acc.cycle(), so drive the same workload for a faithful rerun).
  // `stuck_cycles` still comes from `cfg`.
  FaultInjector(accel::AesAccelerator& acc, FaultCampaignConfig cfg,
                std::vector<unsigned> users, std::vector<FaultRecord> trace);

  // Arm the RingDescriptor/RingCompletion sites: bit flips land in the
  // given rings of `mem` (the DMA descriptor-ring campaigns attach the
  // rings they built). Without this call those sites never roll, and a
  // replayed trace containing them records applied=false.
  // FaultRecord encoding for ring sites: index = range << 16 | slot,
  // bit = bit offset within the slot's record.
  void attachRingMemory(HostMemory* mem, std::vector<RingRange> desc_rings,
                        std::vector<RingRange> comp_rings);

  // Roll for (at most) one fault this cycle — or, in replay mode, land
  // every trace event recorded for this cycle. Call before acc.tick().
  void tick();
  // Restore any receiver lines the injector is currently holding down
  // (call when the campaign's fault phase ends, before draining).
  void releaseStuckReceivers();

  std::uint64_t injected() const { return injected_; }
  bool replaying() const { return replay_; }
  // The injection log so far (the replay trace of this run).
  const std::vector<FaultRecord>& trace() const { return records_; }
  FaultCampaignReport report() const;

 private:
  void injectHw();
  void injectHost();
  void applyRecord(FaultRecord rec);
  void replayTick();

  accel::AesAccelerator& acc_;
  FaultCampaignConfig cfg_;
  std::vector<unsigned> users_;
  Rng rng_;
  std::vector<FaultRecord> records_;
  std::uint64_t injected_ = 0;
  std::uint64_t host_drops_ = 0;
  std::uint64_t host_duplicates_ = 0;
  std::uint64_t host_stuck_ = 0;
  std::uint64_t host_spurious_ = 0;
  std::uint64_t host_ring_desc_ = 0;
  std::uint64_t host_ring_comp_ = 0;
  std::uint64_t spurious_seq_ = 0;
  HostMemory* ring_mem_ = nullptr;
  std::vector<RingRange> desc_rings_;
  std::vector<RingRange> comp_rings_;
  // (user, release_cycle) for receivers currently forced not-ready.
  std::vector<std::pair<unsigned, std::uint64_t>> stuck_;
  bool replay_ = false;
  std::vector<FaultRecord> replay_trace_;
  std::size_t replay_next_ = 0;
};

// --- The device fault campaign ------------------------------------------
//
// One seeded campaign over a Protected accelerator: a supervisor and three
// tenants, each with its own key, run 40 rounds while a FaultInjector rolls
// at `fault_rate` every cycle. Each round every tenant offers one block
// through its AccelSession (a decrypt with probability 0.4), and every
// fourth round a GCM seal. A tenant whose op comes back Rejected (its slot
// was zeroized fail-secure) reloads its key before its next op. Every
// released block and tag is compared with golden AES/GCM. After the rounds
// the injector stops and the device settles for 64 cycles, so the slow
// scrub rings finish before the report is read.

// The configurations bench_fault_campaign prints and CI gates.
inline constexpr std::uint64_t kGatedCampaignSeed = 2019;
inline constexpr std::array<double, 4> kGatedCampaignRates{0.0, 0.005, 0.02,
                                                           0.05};
inline constexpr std::array<bool, 2> kGatedCampaignHardened{false, true};
// Event-log cap of the campaign's accelerator.
inline constexpr unsigned kCampaignEventLogCap = 256;

struct DeviceCampaignReport {
  std::uint64_t ops = 0;  // block ops offered
  std::uint64_t ok = 0;
  std::uint64_t gcm_ops = 0;  // GCM seals offered
  std::uint64_t gcm_ok = 0;
  // Released output that differs from golden AES / GCM. A faulted op may
  // abort, but the hardened device may never release wrong data: both
  // stay 0 there.
  std::uint64_t wrong_block_releases = 0;
  std::uint64_t wrong_tag_releases = 0;
  std::uint64_t device_cycles = 0;  // the rounds, without the settle
  std::uint64_t retries = 0;        // driver resubmissions
  std::uint64_t dropped = 0;        // accelerator overflow drops
  // FaultDetected + FaultScrubbed events: equals campaign.detected when the
  // accelerator's telemetry is consistent.
  std::uint64_t fault_events = 0;
  std::uint64_t events_logged = 0;    // at most kCampaignEventLogCap
  accel::SessionTelemetry telemetry;  // the sessions' terminal verdicts
  FaultCampaignReport campaign;       // its `records` are the replay trace

  static constexpr auto counterFields() {
    using R = DeviceCampaignReport;
    using counters::field;
    return std::tuple{
        field("ops", &R::ops), field("ok", &R::ok),
        field("gcm_ops", &R::gcm_ops), field("gcm_ok", &R::gcm_ok),
        field("wrong_block_releases", &R::wrong_block_releases),
        field("wrong_tag_releases", &R::wrong_tag_releases),
        field("device_cycles", &R::device_cycles),
        field("retries", &R::retries), field("dropped", &R::dropped),
        field("fault_events", &R::fault_events),
        field("events_logged", &R::events_logged),
        field("telemetry", &R::telemetry), field("campaign", &R::campaign)};
  }
  std::string toJson() const { return counters::toJson(*this); }
};

DeviceCampaignReport runDeviceFaultCampaign(std::uint64_t seed,
                                            double fault_rate, bool hardened);

}  // namespace aesifc::soc
