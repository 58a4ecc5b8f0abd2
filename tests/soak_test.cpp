// Nightly soak suite (ctest label: soak). Two long sweeps that are too slow
// for the per-commit job but catch defects that show once in thousands of
// seeds: the chaos workload (randomized receiver readiness, hundreds of
// blocks per user) over 50000 seeds, and the device fault campaign
// (soc::runDeviceFaultCampaign) over 80000 seeds. Both enforce the same
// invariants as their tier-1 cousins — every delivered block matches the
// requester's own golden AES result, every driver call terminates, and no
// injected tag upset escapes the scrub rings.

#include <gtest/gtest.h>

#include "chaos_checks.h"
#include "device_campaign_checks.h"
#include "soc/fault_injector.h"

namespace aesifc::accel {
namespace {

// --- Long chaos run ---------------------------------------------------------

TEST(Soak, LongChaosAllTrafficCorrectCompleteAndOrdered) {
  // 4 users at 4x the tier-1 chaos volume per user. Much longer runs per
  // seed overflow the 512-entry output buffer (at 4000 blocks per user,
  // seed 7 drops a block), which the chaos checks rule out, so the sweep
  // grows in seeds.
  for (std::uint64_t seed = 1; seed <= 50000; ++seed)
    expectChaosTrafficCorrect(SecurityMode::Protected, seed, /*users=*/4,
                              /*per_user=*/400);
}

// --- Fault campaign sweep ---------------------------------------------------

TEST(Soak, FaultCampaignSweepNeverLeaksAndAlwaysTerminates) {
  for (std::uint64_t seed = 1; seed <= 80000; ++seed) {
    const double rate = (seed % 2) ? 0.01 : 0.03;
    soc::expectFailSecure(
        soc::runDeviceFaultCampaign(seed, rate, /*hardened=*/true),
        "seed " + std::to_string(seed));
  }
}

}  // namespace
}  // namespace aesifc::accel
