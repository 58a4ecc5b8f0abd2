// Nightly soak suite (ctest label: soak). Two long sweeps that are too slow
// for the per-commit job but catch defects that show once in thousands of
// seeds: the chaos campaign (soc::runChaosCampaign: randomized receiver
// readiness, hundreds of blocks per user) over 50000 seeds, and the device
// fault campaign (soc::runDeviceFaultCampaign) over 80000 seeds. Both hold
// the same invariants as their tier-1 cousins, read from the report's
// violations(): the campaign oracle (soc::Oracle) finds every delivered
// block to be the requester's own golden result, once and in order, every
// driver call terminates, and no injected tag upset escapes the scrub
// rings.

#include <gtest/gtest.h>

#include "soc/fault_injector.h"

namespace aesifc::accel {
namespace {

// --- Long chaos run ---------------------------------------------------------

TEST(Soak, LongChaosAllTrafficCorrectCompleteAndOrdered) {
  // 4 users at 4x the tier-1 chaos volume per user. Much longer runs per
  // seed overflow the 512-entry output buffer (at 4000 blocks per user,
  // seed 7 drops a block), which the campaign reports as a violation, so
  // the sweep grows in seeds.
  for (std::uint64_t seed = 1; seed <= 50000; ++seed) {
    EXPECT_EQ(soc::runChaosCampaign(SecurityMode::Protected, seed,
                                    /*users=*/4, /*per_user=*/400)
                  .violations(),
              "")
        << "seed " << seed;
  }
}

// --- Fault campaign sweep ---------------------------------------------------

TEST(Soak, FaultCampaignSweepNeverLeaksAndAlwaysTerminates) {
  for (std::uint64_t seed = 1; seed <= 80000; ++seed) {
    const double rate = (seed % 2) ? 0.01 : 0.03;
    const auto r = soc::runDeviceFaultCampaign(seed, rate, /*hardened=*/true);
    EXPECT_EQ(r.violations(), "")
        << "seed " << seed << "\nreplay trace:\n"
        << soc::traceToString(r.campaign.records);
  }
}

}  // namespace
}  // namespace aesifc::accel
