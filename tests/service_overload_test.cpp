// Acceptance test for the multi-tenant service layer, over the service
// campaign (soc::runServiceCampaign): four tenants overload the service,
// then a fault storm wedges the device. Required outcomes:
//   * no tenant starves — every tenant completes at least half its fair
//     share of the Ok blocks;
//   * the breaker trips (quarantine) during the storm and traffic keeps
//     completing on the software fallback;
//   * the hardware is re-admitted via probation canaries and serves
//     traffic again;
//   * zero golden-model mismatches across every path (hardware, fallback);
//   * every admitted ticket resolves exactly once and in per-tenant order
//     (no losses, no dupes), as the campaign oracle counts it.

#include <gtest/gtest.h>

#include "soc/fault_injector.h"

namespace aesifc::soc {
namespace {

TEST(ServiceOverload, FourTenantsWithFaultsNoStarvationQuarantineRecovers) {
  constexpr unsigned kTenants = 4;
  const ServiceCampaignReport r = runServiceCampaign();
  const auto& [healthy, storm, recovery] = r.phases;

  for (const auto& p : r.phases) {
    EXPECT_EQ(p.wrong_outputs, 0u)
        << p.phase << ": golden-model mismatch on a served block";
    EXPECT_EQ(p.duplicate_resolutions, 0u) << p.phase;
    EXPECT_EQ(p.unknown_tickets, 0u) << p.phase;
    EXPECT_EQ(p.out_of_order, 0u) << p.phase;
    // The oracle and the service agree on what is still queued.
    EXPECT_EQ(p.unresolved, p.conservation.still_queued) << p.phase;
    EXPECT_GT(p.ok, 0u) << p.phase;
  }
  EXPECT_EQ(healthy.health, HealthState::Healthy);
  ASSERT_EQ(storm.health, HealthState::Quarantined)
      << "storm never tripped the breaker";
  ASSERT_EQ(recovery.health, HealthState::Healthy)
      << "hardware was never re-admitted";
  EXPECT_GE(r.probation_entries, 1u);
  EXPECT_GE(recovery.service.canary_rounds, 1u);

  // Fallback carried traffic while quarantined, and the hardware served
  // again after recovery.
  EXPECT_GE(recovery.service.completed_fallback, 1u);
  EXPECT_GT(recovery.service.completed_hw, storm.service.completed_hw);

  // The phases count Ok blocks only, and together every one fetched.
  EXPECT_EQ(healthy.ok + storm.ok + recovery.ok, recovery.conservation.ok);
  EXPECT_EQ(recovery.conservation.ok, recovery.service.completed_hw +
                                          recovery.service.completed_fallback);

  // No tenant starved: each completed at least half its fair share of the
  // Ok blocks, and the best-served got at most ~2x the worst.
  EXPECT_GE(2 * kTenants * recovery.min_tenant_ok, recovery.conservation.ok);
  EXPECT_GE(2 * recovery.min_tenant_ok + 8, recovery.max_tenant_ok);

  // Every admitted ticket resolved (nothing lost, nothing stuck).
  EXPECT_EQ(recovery.unresolved, 0u);

  // The incident is on the shared event ring.
  EXPECT_EQ(r.health_events, r.transitions.size());
}

}  // namespace
}  // namespace aesifc::soc
