// Nightly soak suite (ctest label: soak). Two long-horizon runs that are too
// slow for the per-commit job but catch slow-burn defects: a extended chaos
// workload (randomized receiver readiness, mixed modes, hundreds of blocks
// per user) and a 20-seed sweep of the device fault campaign
// (soc::runDeviceFaultCampaign). Both enforce the same invariants as their
// tier-1 cousins — every delivered block matches the requester's own golden
// AES result, every driver call terminates, and no injected tag upset
// escapes the scrub rings.

#include <gtest/gtest.h>

#include "chaos_checks.h"
#include "device_campaign_checks.h"
#include "soc/fault_injector.h"

namespace aesifc::accel {
namespace {

// --- Long chaos run ---------------------------------------------------------

TEST(Soak, LongChaosAllTrafficCorrectCompleteAndOrdered) {
  // 4 users at 4x the tier-1 chaos volume per user.
  for (const std::uint64_t seed : {101ull, 202ull, 303ull})
    expectChaosTrafficCorrect(SecurityMode::Protected, seed, /*users=*/4,
                              /*per_user=*/400);
}

// --- 20-seed fault campaign sweep ------------------------------------------

TEST(Soak, TwentySeedFaultCampaignNeverLeaksAndAlwaysTerminates) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const double rate = (seed % 2) ? 0.01 : 0.03;
    soc::expectFailSecure(
        soc::runDeviceFaultCampaign(seed, rate, /*hardened=*/true),
        "seed " + std::to_string(seed));
  }
}

}  // namespace
}  // namespace aesifc::accel
