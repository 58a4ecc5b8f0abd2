// Acceptance test for the multi-tenant service layer: four tenants drive an
// overloaded service while a seeded fault campaign runs at 1e-3/cycle, then
// a fault storm wedges the device. Required outcomes:
//   * no tenant starves — every tenant completes at least its fair share;
//   * the breaker trips (quarantine) during the storm and traffic keeps
//     completing on the software fallback;
//   * the hardware is re-admitted via probation canaries within the test
//     budget and serves traffic again;
//   * zero golden-model mismatches across every path (hardware, fallback);
//   * every admitted ticket resolves exactly once (no losses, no dupes).

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "aes/cipher.h"
#include "soc/fault_injector.h"
#include "soc/service.h"

namespace aesifc::soc {
namespace {

using accel::AcceleratorConfig;
using accel::AesAccelerator;
using lattice::Conf;
using lattice::Principal;

constexpr unsigned kTenants = 4;
constexpr unsigned kBlocksPerTenant = 48;

struct Expect {
  unsigned tenant;
  aes::Block pt;
};

TEST(ServiceOverload, FourTenantsWithFaultsNoStarvationQuarantineRecovers) {
  AcceleratorConfig acfg;
  acfg.out_buffer_depth = 16;
  acfg.event_log_cap = 512;
  AesAccelerator acc{acfg};
  acc.addUser(Principal::supervisor());

  ServiceConfig cfg;
  cfg.overflow = OverflowPolicy::ShedOldest;
  cfg.global_high_watermark = 48;
  cfg.quota_per_round = 2;
  cfg.max_requeues = 2;
  cfg.health.window_cycles = 512;
  cfg.health.degrade_threshold = 0.10;
  cfg.health.quarantine_threshold = 0.40;
  cfg.health.wedged_windows = 2;
  cfg.health.recovery_windows = 1;
  cfg.health.quarantine_residency_cycles = 1024;
  cfg.healthy_opts = {.timeout_cycles = 400, .max_retries = 2,
                      .backoff_cycles = 8};
  cfg.degraded_opts = {.timeout_cycles = 150, .max_retries = 1,
                       .backoff_cycles = 8};
  cfg.canary_opts = {.timeout_cycles = 400, .max_retries = 1,
                     .backoff_cycles = 8};
  AccelService svc{acc, cfg};

  std::vector<unsigned> users;
  std::vector<aes::ExpandedKey> golden;
  for (unsigned t = 0; t < kTenants; ++t) {
    const unsigned u =
        acc.addUser(Principal::user("t" + std::to_string(t), t + 1));
    users.push_back(u);
    TenantSpec spec;
    spec.user = u;
    spec.key_slot = t + 1;
    spec.key.resize(16);
    for (unsigned i = 0; i < 16; ++i)
      spec.key[i] = static_cast<std::uint8_t>(0x40 + 29 * t + i);
    spec.key_conf = Conf::category(t + 1);
    spec.queue_depth = 6;
    svc.addTenant(spec);
    golden.push_back(aes::expandKey(spec.key, aes::KeySize::Aes128));
  }

  // Background fault environment: 1e-3/cycle across all sites.
  FaultCampaignConfig fcfg;
  fcfg.seed = 1234;
  fcfg.fault_rate = 1e-3;
  FaultInjector background{acc, fcfg, users};
  acc.setTickHook([&] { background.tick(); });

  Rng traffic_rng{99};
  std::map<std::uint64_t, Expect> expect;  // admitted tickets awaiting a verdict
  std::set<std::uint64_t> resolved;
  std::vector<unsigned> offered(kTenants, 0);
  std::vector<std::uint64_t> ok_count(kTenants, 0);
  std::uint64_t mismatches = 0;

  auto offerTraffic = [&](unsigned limit) {
    for (unsigned t = 0; t < kTenants; ++t) {
      if (offered[t] >= limit) continue;
      if (svc.queued(t) >= 5) continue;  // don't pointlessly self-shed
      aes::Block pt;
      const auto bits = traffic_rng.bits(128).toBytes();
      for (unsigned i = 0; i < 16; ++i) pt[i] = bits[i];
      const auto res = svc.submit(t, pt);
      if (res.admitted) {
        expect[res.ticket] = {t, pt};
        ++offered[t];
      }
    }
  };

  auto drain = [&] {
    for (unsigned t = 0; t < kTenants; ++t) {
      while (auto c = svc.fetch(t)) {
        // Exactly-once: a ticket must never resolve twice.
        ASSERT_TRUE(resolved.insert(c->ticket).second)
            << "ticket " << c->ticket << " resolved twice";
        if (c->status == CompletionStatus::Shed) {
          expect.erase(c->ticket);
          continue;
        }
        auto it = expect.find(c->ticket);
        ASSERT_NE(it, expect.end());
        ASSERT_EQ(it->second.tenant, t);
        if (c->status == CompletionStatus::Ok) {
          const aes::Block want =
              aes::encryptBlock(it->second.pt, golden[t]);
          if (c->data != want) ++mismatches;
          ++ok_count[t];
        }
        expect.erase(it);
      }
    }
  };

  // --- Phase 1: steady overload under background faults -------------------
  unsigned guard = 0;
  auto allOffered = [&] {
    for (unsigned t = 0; t < kTenants; ++t)
      if (offered[t] < kBlocksPerTenant) return false;
    return true;
  };
  while ((!allOffered() || svc.totalQueued() > 0) && guard++ < 4000) {
    offerTraffic(kBlocksPerTenant);
    svc.pump();
    drain();
  }
  ASSERT_TRUE(allOffered()) << "phase 1 never finished offering";

  // --- Phase 2: fault storm — the device goes effectively unusable --------
  // Stuck-receiver holds must outlast the driver's whole retry budget
  // (timeout 400 x 3 attempts + backoff), or every op still ends Ok and no
  // window ever looks unhealthy.
  FaultCampaignConfig storm_cfg;
  storm_cfg.seed = 777;
  storm_cfg.fault_rate = 0.10;
  storm_cfg.host_faults = true;
  storm_cfg.stuck_cycles = 1500;
  FaultInjector storm{acc, storm_cfg, users};
  acc.setTickHook([&] { storm.tick(); });

  // The storm phase offers unbounded traffic: the error budget needs a
  // steady stream of terminal verdicts to measure the device against.
  for (unsigned t = 0; t < kTenants; ++t) offered[t] = 0;
  guard = 0;
  while (svc.health() != HealthState::Quarantined && guard++ < 3000) {
    offerTraffic(~0u);
    svc.pump();
    drain();
  }
  ASSERT_EQ(svc.health(), HealthState::Quarantined)
      << "storm never tripped the breaker";

  // --- Phase 3: storm ends; service must recover via probation ------------
  acc.setTickHook(nullptr);
  storm.releaseStuckReceivers();
  background.releaseStuckReceivers();

  for (unsigned t = 0; t < kTenants; ++t) offered[t] = 0;
  guard = 0;
  while (svc.health() != HealthState::Healthy && guard++ < 4000) {
    offerTraffic(kBlocksPerTenant);
    svc.pump();
    drain();
  }
  ASSERT_EQ(svc.health(), HealthState::Healthy)
      << "hardware was never re-admitted";
  EXPECT_GE(svc.monitor().entries(HealthState::Probation), 1u);
  EXPECT_GE(svc.stats().canary_rounds, 1u);

  // Finish the remaining traffic on the recovered hardware.
  guard = 0;
  while ((!allOffered() || svc.totalQueued() > 0) && guard++ < 4000) {
    offerTraffic(kBlocksPerTenant);
    svc.pump();
    drain();
  }
  svc.runUntilIdle(1u << 16);
  drain();

  // --- Verdicts ------------------------------------------------------------
  EXPECT_EQ(mismatches, 0u) << "golden-model mismatch on a served block";

  // Fallback actually carried traffic while quarantined.
  EXPECT_GE(svc.stats().completed_fallback, 1u);
  // Hardware served again after recovery.
  EXPECT_GE(svc.stats().completed_hw, 1u);

  // No tenant starved: every tenant completed at least half of the smallest
  // per-tenant offered volume (quota fairness under round-robin serving).
  std::uint64_t min_ok = ok_count[0], max_ok = ok_count[0];
  for (unsigned t = 0; t < kTenants; ++t) {
    min_ok = std::min(min_ok, ok_count[t]);
    max_ok = std::max(max_ok, ok_count[t]);
    EXPECT_GE(ok_count[t], kBlocksPerTenant / 2)
        << "tenant " << t << " starved (" << ok_count[t] << " ok)";
  }
  // Fair-share spread: the best-served tenant got at most ~2x the worst.
  EXPECT_GE(2 * min_ok + 8, max_ok);

  // Every admitted ticket resolved (nothing lost, nothing stuck).
  EXPECT_TRUE(expect.empty()) << expect.size() << " tickets never resolved";

  // The incident is on the shared event ring.
  EXPECT_EQ(acc.eventCount(accel::SecurityEventKind::ServiceHealth),
            svc.monitor().transitions().size());
}

}  // namespace
}  // namespace aesifc::soc
