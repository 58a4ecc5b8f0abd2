// Pins every counter struct's JSON byte for byte, its field-wise sum, and
// the service's per-window telemetry difference. Each all-uint64 struct is
// filled word by word with distinct values, so a dropped, duplicated or
// reordered field changes the JSON below.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "../bench/conservation.h"
#include "accel/driver.h"
#include "common/rng.h"
#include "soc/attacks.h"
#include "soc/dma.h"
#include "soc/fault_injector.h"
#include "soc/metrics.h"
#include "soc/service.h"

namespace aesifc::soc {
namespace {

constexpr std::size_t kWords = sizeof(std::uint64_t);

// Fill a struct of uint64_t counters with base, base+1, ... in layout order.
template <class T>
T distinct(std::uint64_t base) {
  static_assert(std::is_trivially_copyable_v<T> && sizeof(T) % kWords == 0);
  std::array<std::uint64_t, sizeof(T) / kWords> v;
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = base + i;
  T t;
  std::memcpy(static_cast<void*>(&t), v.data(), sizeof t);
  return t;
}

template <class T>
std::array<std::uint64_t, sizeof(T) / kWords> words(const T& t) {
  std::array<std::uint64_t, sizeof(T) / kWords> v;
  std::memcpy(v.data(), static_cast<const void*>(&t), sizeof t);
  return v;
}

// a += b must add every word of b into a.
template <class T>
void expectWordwiseSum(std::uint64_t base_a, std::uint64_t base_b) {
  T a = distinct<T>(base_a);
  const T b = distinct<T>(base_b);
  a += b;
  const auto got = words(a);
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(got[i], base_a + base_b + 2 * i) << "word " << i;
}

DmaRingStats ringStats(std::uint64_t base) {
  DmaRingStats s = distinct<DmaRingStats>(base);
  s.by_error.fill(0);
  s.by_error[static_cast<unsigned>(DmaError::BadRange)] = base + 200;
  s.by_error[kDmaErrors - 1] = base + 300;
  return s;
}

RingCampaignReport ringReport(std::uint64_t base) {
  RingCampaignReport r;
  r.descriptors = static_cast<unsigned>(base);
  r.completed_ok = base + 1;
  r.refused = base + 2;
  r.unresolved = base + 3;
  r.wrong_plaintext_releases = base + 4;
  r.cross_label_writes = base + 5;
  r.partial_writes = base + 6;
  r.watchdog_fires = base + 7;
  r.recoveries = base + 8;
  r.ring_resets = base + 9;
  r.ring_faults = base + 10;
  r.corrupt_completions = base + 11;
  r.duplicate_completions = base + 12;
  r.submit_retries = base + 13;
  r.reset_isolation_failures = base + 14;
  r.ring = ringStats(base + 100);
  return r;
}

std::vector<std::uint64_t> topCounters(const RingCampaignReport& r) {
  return {r.descriptors,
          r.completed_ok,
          r.refused,
          r.unresolved,
          r.wrong_plaintext_releases,
          r.cross_label_writes,
          r.partial_writes,
          r.watchdog_fires,
          r.recoveries,
          r.ring_resets,
          r.ring_faults,
          r.corrupt_completions,
          r.duplicate_completions,
          r.submit_retries,
          r.reset_isolation_failures};
}

TEST(CounterJson, ServiceStats) {
  EXPECT_EQ(distinct<ServiceStats>(1).toJson(),
            R"({"offered":1,"admitted":2,"rejected_queue_full":3,)"
            R"("rejected_backpressure":4,"shed":5,"completed_hw":6,)"
            R"("completed_fallback":7,"fallback_suppressed":8,)"
            R"("hw_transient_failures":9,"requeues":10,"batched_runs":11,)"
            R"("batched_blocks":12,"batch_fallbacks":13,)"
            R"("canary_rounds":14,"canary_failures":15,)"
            R"("key_reprovisions":16,"aead_offered":17,)"
            R"("aead_admitted":18,"aead_completed_hw":19,)"
            R"("aead_completed_fallback":20,"aead_auth_failed":21,)"
            R"("wrong_key_uses":22,"dma_ring_runs":23,)"
            R"("dma_ring_blocks":24,"dma_ring_fallbacks":25})");
}

TEST(CounterJson, DmaRingStatsListsOnlyNonzeroErrors) {
  EXPECT_EQ(ringStats(1).toJson(),
            R"({"doorbells":1,"idle_polls":2,"descriptors_fetched":3,)"
            R"("segments_fetched":4,"completed_ok":5,"refused":6,)"
            R"("blocks":7,"watchdog_fires":8,"recoveries":9,)"
            R"("block_resubmits":10,"torn_ownership":11,)"
            R"("checksum_rejects":12,"stale_generation":13,)"
            R"("comp_stall_cycles":14,"comp_overflow_drops":15,)"
            R"("cross_label_writes":16,"ring_resets":17,)"
            R"("errors":{"bad-range":201,"rejected":301}})");
  EXPECT_EQ(DmaRingStats{}.toJson(),
            R"({"doorbells":0,"idle_polls":0,"descriptors_fetched":0,)"
            R"("segments_fetched":0,"completed_ok":0,"refused":0,)"
            R"("blocks":0,"watchdog_fires":0,"recoveries":0,)"
            R"("block_resubmits":0,"torn_ownership":0,"checksum_rejects":0,)"
            R"("stale_generation":0,"comp_stall_cycles":0,)"
            R"("comp_overflow_drops":0,"cross_label_writes":0,)"
            R"("ring_resets":0,"errors":{}})");
}

TEST(CounterJson, RingCampaignReportNestsRingStats) {
  EXPECT_EQ(ringReport(1).toJson(),
            R"({"descriptors":1,"completed_ok":2,"refused":3,)"
            R"("unresolved":4,"wrong_plaintext_releases":5,)"
            R"("cross_label_writes":6,"partial_writes":7,)"
            R"("watchdog_fires":8,"recoveries":9,"ring_resets":10,)"
            R"("ring_faults":11,"corrupt_completions":12,)"
            R"("duplicate_completions":13,"submit_retries":14,)"
            R"("reset_isolation_failures":15,"ring":{"doorbells":101,)"
            R"("idle_polls":102,"descriptors_fetched":103,)"
            R"("segments_fetched":104,"completed_ok":105,"refused":106,)"
            R"("blocks":107,"watchdog_fires":108,"recoveries":109,)"
            R"("block_resubmits":110,"torn_ownership":111,)"
            R"("checksum_rejects":112,"stale_generation":113,)"
            R"("comp_stall_cycles":114,"comp_overflow_drops":115,)"
            R"("cross_label_writes":116,"ring_resets":117,)"
            R"("errors":{"bad-range":301,"rejected":401}}})");
}

TEST(CounterJson, RobustnessStatsWithNonIntegralRates) {
  EXPECT_EQ(distinct<RobustnessStats>(7).toJson(),
            R"({"faults_injected":7,"faults_detected":8,)"
            R"("faults_recovered":9,"fault_aborts":10,"retries":11,)"
            R"("timeouts":12,"drops":13,"detection_rate":1.14286,)"
            R"("recovery_rate":1.125})");
  EXPECT_EQ(RobustnessStats{}.toJson(),
            R"({"faults_injected":0,"faults_detected":0,)"
            R"("faults_recovered":0,"fault_aborts":0,"retries":0,)"
            R"("timeouts":0,"drops":0,"detection_rate":1,"recovery_rate":1})");
}

TEST(CounterJson, LatencyStats) {
  LatencyStats s;
  s.mean = 1234567.891;
  s.stddev = 3.14159265;
  s.min = 7;
  s.max = 99;
  s.count = 42;
  s.p50 = 11;
  s.p95 = 60.25;
  s.p99 = 98;
  EXPECT_EQ(s.toJson(),
            R"({"count":42,"mean":1.23457e+06,"stddev":3.14159,"min":7,)"
            R"("max":99,"p50":11,"p95":60.25,"p99":98})");
}

TEST(CounterJson, FaultCampaignReportWithPerSiteCounts) {
  FaultCampaignReport r;
  r.injected = 101;
  r.applied = 102;
  r.host_drops = 103;
  r.host_duplicates = 104;
  r.host_stuck = 105;
  r.host_spurious = 106;
  r.host_ring_desc = 107;
  r.host_ring_comp = 108;
  r.detected = 109;
  r.recovered = 110;
  r.aborted = 111;
  for (unsigned s = 0; s < accel::kHwFaultSites; ++s) {
    r.injected_by_site[s] = 10 * s + 1;
    r.applied_by_site[s] = 10 * s + 2;
    // Odd sites detect more than was applied: escaped clamps to 0.
    r.detected_by_site[s] = s % 2 ? 10 * s + 3 : s;
  }
  EXPECT_EQ(r.toJson(),
            R"({"injected":101,"applied":102,"detected":109,)"
            R"("recovered":110,"aborted":111,"host":{"drops":103,)"
            R"("duplicates":104,"stuck":105,"spurious":106,"ring_desc":107,)"
            R"("ring_comp":108},"sites":[{"site":"stage-data","injected":1,)"
            R"("applied":2,"detected":0,"escaped":2},{"site":"stage-tag",)"
            R"("injected":11,"applied":12,"detected":13,"escaped":0},)"
            R"({"site":"scratch-cell","injected":21,"applied":22,)"
            R"("detected":2,"escaped":20},{"site":"scratch-tag",)"
            R"("injected":31,"applied":32,"detected":33,"escaped":0},)"
            R"({"site":"round-key","injected":41,"applied":42,"detected":4,)"
            R"("escaped":38},{"site":"config-reg","injected":51,)"
            R"("applied":52,"detected":53,"escaped":0},)"
            R"({"site":"ghash-stage","injected":61,"applied":62,)"
            R"("detected":6,"escaped":56},{"site":"ghash-stage-tag",)"
            R"("injected":71,"applied":72,"detected":73,"escaped":0},)"
            R"({"site":"ghash-acc","injected":81,"applied":82,"detected":8,)"
            R"("escaped":74},{"site":"ghash-key-table","injected":91,)"
            R"("applied":92,"detected":93,"escaped":0}]})");
}

TEST(CounterJson, Conservation) {
  EXPECT_EQ(distinct<bench::Conservation>(3).toJson(),
            R"({"offered":3,"ok":4,"suppressed":5,"shed":6,"rejected":7,)"
            R"("failed":8,"still_queued":9})");
}

TEST(CounterSum, AllUint64StructsAddWordByWord) {
  expectWordwiseSum<ServiceStats>(1, 1000);
  expectWordwiseSum<DmaRingStats>(5, 7000);
  expectWordwiseSum<RobustnessStats>(2, 300);
  expectWordwiseSum<accel::SessionTelemetry>(9, 40);
}

TEST(CounterSum, RingCampaignReportAddsTopLevelAndNestedRing) {
  RingCampaignReport a = ringReport(1);
  const RingCampaignReport b = ringReport(500);
  const auto ta = topCounters(a), tb = topCounters(b);
  const auto ra = words(a.ring), rb = words(b.ring);
  a += b;
  const auto ts = topCounters(a);
  for (std::size_t i = 0; i < ts.size(); ++i)
    EXPECT_EQ(ts[i], ta[i] + tb[i]) << "field " << i;
  const auto rs = words(a.ring);
  for (std::size_t i = 0; i < rs.size(); ++i)
    EXPECT_EQ(rs[i], ra[i] + rb[i]) << "ring word " << i;
}

// The service's health windows see the per-window difference of its
// sessions' cumulative telemetry. Every window-driven transition reason
// prints that window's ops and ok counts, so a difference taken against the
// wrong base (or none) changes the reasons below.
TEST(CounterWindow, HealthWindowsSeeTelemetryDifferences) {
  accel::AcceleratorConfig ac;
  ac.out_buffer_depth = 16;
  ac.event_log_cap = 512;
  accel::AesAccelerator acc{ac};
  ServiceConfig cfg;
  cfg.global_high_watermark = 48;
  cfg.quota_per_round = 2;
  cfg.max_requeues = 2;
  cfg.health.window_cycles = 512;
  cfg.health.quarantine_threshold = 0.40;
  cfg.health.recovery_windows = 1;
  cfg.health.quarantine_residency_cycles = 1024;
  cfg.healthy_opts = {.timeout_cycles = 400, .max_retries = 2,
                      .backoff_cycles = 8};
  AccelService svc{acc, cfg};
  acc.addUser(lattice::Principal::supervisor());
  constexpr unsigned kTenants = 4;
  std::vector<unsigned> users;
  for (unsigned t = 0; t < kTenants; ++t) {
    const unsigned u =
        acc.addUser(lattice::Principal::user("t" + std::to_string(t), t + 1));
    users.push_back(u);
    TenantSpec spec;
    spec.user = u;
    spec.key_slot = t + 1;
    spec.key.resize(16);
    for (unsigned i = 0; i < 16; ++i)
      spec.key[i] = static_cast<std::uint8_t>(0x40 + 29 * t + i);
    spec.key_conf = lattice::Conf::category(t + 1);
    spec.queue_depth = 6;
    svc.addTenant(spec);
  }
  Rng traffic{42};
  auto drive = [&](unsigned rounds) {
    for (unsigned r = 0; r < rounds; ++r) {
      for (unsigned t = 0; t < kTenants; ++t) {
        if (svc.queued(t) >= 5) continue;
        aes::Block pt;
        const auto bits = traffic.bits(128).toBytes();
        for (unsigned i = 0; i < 16; ++i) pt[i] = bits[i];
        svc.submit(t, pt);
      }
      svc.pump();
      for (unsigned t = 0; t < kTenants; ++t)
        while (svc.fetch(t)) {
        }
    }
  };

  drive(400);  // healthy: ok accumulates over many windows
  FaultCampaignConfig storm_cfg;
  storm_cfg.seed = 777;
  storm_cfg.fault_rate = 0.10;
  storm_cfg.stuck_cycles = 1500;
  FaultInjector storm{acc, storm_cfg, users};
  acc.setTickHook([&] { storm.tick(); });
  for (unsigned g = 0; svc.health() != HealthState::Quarantined && g < 3000;
       ++g)
    drive(1);
  acc.setTickHook(nullptr);
  storm.releaseStuckReceivers();
  for (unsigned g = 0; svc.health() != HealthState::Healthy && g < 4000; ++g)
    drive(1);
  drive(200);

  std::string reasons;
  for (const auto& tr : svc.monitor().transitions())
    reasons += toString(tr.from) + "->" + toString(tr.to) + "@" +
               std::to_string(tr.cycle) + ": " + tr.reason + "\n";
  EXPECT_EQ(reasons,
            "healthy->degraded@51431: window: ops=4 ok=3 "
            "transient-rate=0.25 > degrade threshold\n"
            "degraded->healthy@53071: window: ops=8 ok=8 "
            "transient-rate=0 (1 clean windows)\n"
            "healthy->degraded@74333: window: ops=7 ok=6 "
            "transient-rate=0.142857 > degrade threshold\n"
            "degraded->healthy@76147: window: ops=13 ok=13 "
            "transient-rate=0 (1 clean windows)\n"
            "healthy->degraded@80720: window: ops=9 ok=8 "
            "transient-rate=0.111111 > degrade threshold\n"
            "degraded->healthy@81685: window: ops=4 ok=4 "
            "transient-rate=0 (1 clean windows)\n"
            "healthy->degraded@122295: window: ops=4 ok=3 "
            "transient-rate=0.25 > degrade threshold\n"
            "degraded->healthy@122947: window: ops=8 ok=8 "
            "transient-rate=0 (1 clean windows)\n"
            "healthy->degraded@124794: window: ops=4 ok=3 "
            "transient-rate=0.25 > degrade threshold\n"
            "degraded->quarantined@126886: window: ops=4 ok=2 "
            "transient-rate=0.5 > quarantine threshold\n"
            "quarantined->probation@127973: quarantine residency elapsed\n"
            "probation->healthy@128097: all canary probes passed\n");
}

}  // namespace
}  // namespace aesifc::soc
