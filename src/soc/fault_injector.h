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
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "accel/accelerator.h"
#include "accel/driver.h"
#include "aes/cipher.h"
#include "common/counters.h"
#include "common/rng.h"
#include "soc/dma.h"
#include "soc/service.h"
#include "soc/workload.h"

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
  // A fault event flips a bit of device state with probability 0.7 and
  // perturbs the host interface otherwise; false makes every event an
  // interface perturbation.
  bool hw_faults = true;
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
  // Released output that differs from golden AES / GCM (the oracle's
  // wrong_outputs and wrong_tags). A faulted op may abort, but the hardened
  // device may never release wrong data: both stay 0 there.
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

  // The fail-secure verdict on a hardened run: one line per broken
  // invariant, empty when all hold. No wrong block or tag released; every
  // offered op ended in exactly one driver verdict; some op succeeded; no
  // injected tag upset escaped the every-cycle scrub ring; the detections
  // match the FaultDetected + FaultScrubbed events; the event ring kept
  // within its cap.
  std::string violations() const;
};

DeviceCampaignReport runDeviceFaultCampaign(std::uint64_t seed,
                                            double fault_rate, bool hardened);

// --- The service fault campaign -----------------------------------------
//
// One seeded campaign over the multi-tenant service (the Fig. 2 SoC
// serving tenants who distrust each other). Four tenants t0..t3 (category
// i + 1, key slot i + 1, key byte j = 0x40 + 29 i + j, queue depth 6) share
// one accelerator (output buffer 16, event log 512) behind an AccelService
// (watermark 48, quota 2, 2 requeues, health window 512 cycles, quarantine
// at 0.40, 1 recovery window, residency 1024, healthy driver options
// {400, 2, 8}). Each round, every tenant with fewer than 5 queued offers one
// block drawn from Rng{42}, the service pumps once, and every completion is
// fetched. Three phases:
//   healthy   400 rounds on a clean device;
//   storm     a FaultInjector (seed 777, rate 0.10, stuck receivers for
//             1500 cycles) until the breaker quarantines the device, at
//             most 3000 rounds;
//   recovery  the storm ends, the fallback serves until probation canaries
//             re-admit the hardware (at most 4000 rounds), then 200 rounds.
// Every offer and fetched completion goes through a soc::Oracle, which only
// observes.

// One phase's record. Counts are cumulative from the campaign's start
// except `ok` and `cycles`, which cover the phase alone.
struct ServiceCampaignPhase {
  std::string phase;
  std::uint64_t ok = 0;      // Ok completions fetched in the phase
  std::uint64_t cycles = 0;  // device cycles the phase took
  std::uint64_t min_tenant_ok = 0;  // AccelService::completedOf over tenants
  std::uint64_t max_tenant_ok = 0;
  HealthState health = HealthState::Healthy;  // at the phase's end
  ServiceStats service;
  Conservation conservation;  // every offer; still_queued at the phase's end
  // The oracle's counts (OracleCounts), all 0 on a correct service but
  // `unresolved`, the admitted tickets not yet fetched.
  std::uint64_t wrong_outputs = 0;
  std::uint64_t duplicate_resolutions = 0;
  std::uint64_t unknown_tickets = 0;
  std::uint64_t out_of_order = 0;
  std::uint64_t unresolved = 0;

  double blocksPerCycle() const {
    return cycles ? static_cast<double>(ok) / cycles : 0.0;
  }

  static constexpr auto counterFields() {
    using P = ServiceCampaignPhase;
    using counters::derived;
    using counters::field;
    return std::tuple{
        field("phase", &P::phase,
              [](std::ostream& os, const std::string& v) {
                os << '"' << v << '"';
              }),
        field("ok", &P::ok), field("cycles", &P::cycles),
        derived("blocks_per_cycle",
                [](std::ostream& os, const P& p) {
                  char buf[32];
                  std::snprintf(buf, sizeof buf, "%.4f", p.blocksPerCycle());
                  os << buf;
                }),
        field("min_tenant_ok", &P::min_tenant_ok),
        field("max_tenant_ok", &P::max_tenant_ok),
        field("health", &P::health,
              [](std::ostream& os, HealthState v) {
                os << '"' << toString(v) << '"';
              }),
        field("service", &P::service),
        field("conservation", &P::conservation),
        field("wrong_outputs", &P::wrong_outputs),
        field("duplicate_resolutions", &P::duplicate_resolutions),
        field("unknown_tickets", &P::unknown_tickets),
        field("out_of_order", &P::out_of_order),
        field("unresolved", &P::unresolved)};
  }
  std::string toJson() const { return counters::toJson(*this); }
};

struct ServiceCampaignReport {
  // healthy, storm, recovery. The canary rounds are in the recovery
  // record's `service`.
  std::array<ServiceCampaignPhase, 3> phases;
  std::vector<HealthMonitor::Transition> transitions;  // the monitor's
  std::uint64_t health_events = 0;  // ServiceHealth events on the device ring
  unsigned probation_entries = 0;
};

// The campaign's SoC and its traffic. The bench's timing loops drive it
// round by round; runServiceCampaign() drives it through the three phases.
class ServiceCampaign {
 public:
  ServiceCampaign();
  // The service holds the device's address.
  ServiceCampaign(const ServiceCampaign&) = delete;
  ServiceCampaign& operator=(const ServiceCampaign&) = delete;

  // One round: offer, pump, fetch and check. Returns the Ok completions
  // fetched.
  std::uint64_t round();

  accel::AesAccelerator& device() { return acc_; }
  AccelService& service() { return svc_; }
  const std::vector<unsigned>& users() const { return users_; }

 private:
  friend ServiceCampaignReport runServiceCampaign();
  // The record of a phase that fetched `ok` Ok completions in `cycles`
  // device cycles, as of now.
  ServiceCampaignPhase record(std::string phase, std::uint64_t ok,
                              std::uint64_t cycles) const;

  accel::AesAccelerator acc_;
  AccelService svc_;
  std::vector<unsigned> users_;
  Rng traffic_{42};
  Oracle oracle_;
};

ServiceCampaignReport runServiceCampaign();

// --- The chaos campaign ---------------------------------------------------
//
// `users` users (keys drawn from Rng{seed}) share one accelerator (output
// buffer 512, large enough that nothing is dropped) in `mode`. Each submits
// `per_user` random blocks (a decrypt with probability 0.4, offered with
// probability 0.7 while it has fewer than 2 pending) while every receiver
// flips its readiness with probability 0.1 per cycle, for at most
// 1000 x per_user cycles; then the receivers open and the device flushes
// for at most 4000 cycles. Every response goes through a soc::Oracle.
struct ChaosReport {
  OracleCounts oracle;
  Conservation conservation;
  std::uint64_t blocks = 0;   // users x per_user
  std::uint64_t dropped = 0;  // overflow-buffer drops

  // One line per broken invariant, empty when all hold: the oracle found
  // nothing, every block came back Ok and none was dropped.
  std::string violations() const;
};

ChaosReport runChaosCampaign(accel::SecurityMode mode, std::uint64_t seed,
                             unsigned users, unsigned per_user);

// --- The migration storm --------------------------------------------------
//
// One storm of `rounds` rounds. Eight tenants share a three-shard pool
// (batch 4, quota 16) under a supervisor that may grow it to five shards.
// Each round every tenant offers 12 blocks, then one storm ingredient is
// drawn: a round-key upset on a random shard (3 in 8), a forced quarantine
// of one (2 in 8), an explicit migration of a random tenant (1 in 8), or
// none. The supervisor polls and the pool pumps four times; every eighth
// round, and after the final drain, every completion is fetched through a
// soc::Oracle.
struct MigrationStormReport {
  OracleCounts oracle;
  // Requests that reached a serve path under a stale or zeroized key.
  std::uint64_t wrong_key_uses = 0;
  std::uint64_t migrations = 0;  // committed
  // Audit pairing: shards whose MigrationBegun events are not each closed
  // by a Committed or an Aborted, and the Committed and KeyZeroized events
  // over all rings (each committed migration stamps both rings once).
  std::uint64_t unpaired_shards = 0;
  std::uint64_t committed_events = 0;
  std::uint64_t zeroized_events = 0;

  // One line per broken invariant, empty when all hold.
  std::string violations() const;
};

MigrationStormReport runMigrationStorm(std::uint64_t seed, unsigned rounds);

}  // namespace aesifc::soc
