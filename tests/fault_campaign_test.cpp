// The decisive robustness property (chaos harness + fault injection):
// under seeded fault campaigns spanning every hardware site and the host
// interface, across multiple seeds and fault rates, the Protected-mode
// accelerator never leaks across users — every released block and tag
// equals the requesting user's own golden AES/GCM result — every driver
// call terminates in a definite outcome, and every injected tag-array
// upset is detected or corrected by the parity scrub.

#include <gtest/gtest.h>

#include <string>

#include "soc/fault_injector.h"

namespace aesifc::soc {
namespace {

struct CampaignParams {
  std::uint64_t seed;
  double rate;
};

class FaultCampaignTest : public ::testing::TestWithParam<CampaignParams> {};

TEST_P(FaultCampaignTest, ProtectedModeNeverLeaksAndAlwaysTerminates) {
  const auto [seed, rate] = GetParam();
  const auto r = runDeviceFaultCampaign(seed, rate, /*hardened=*/true);
  EXPECT_EQ(r.violations(), "")
      << "seed " << seed << " rate " << rate << "\nreplay trace:\n"
      << traceToString(r.campaign.records);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndRates, FaultCampaignTest,
    ::testing::Values(CampaignParams{11, 0.002}, CampaignParams{11, 0.01},
                      CampaignParams{11, 0.05}, CampaignParams{22, 0.002},
                      CampaignParams{22, 0.01}, CampaignParams{22, 0.05},
                      CampaignParams{33, 0.002}, CampaignParams{33, 0.01},
                      CampaignParams{33, 0.05}, CampaignParams{44, 0.002},
                      CampaignParams{44, 0.01}, CampaignParams{44, 0.05}));

// The configurations bench_fault_campaign prints and CI gates. The hardened
// rows pass every fail-secure check; the unhardened rows release wrong
// blocks at every nonzero rate, so the golden comparison is seen to fire.
TEST(DeviceFaultCampaign, GatedConfigurationsHoldTheirInvariants) {
  for (const bool hardened : kGatedCampaignHardened) {
    for (const double rate : kGatedCampaignRates) {
      const auto r = runDeviceFaultCampaign(kGatedCampaignSeed, rate, hardened);
      const std::string what =
          (hardened ? "hardened rate " : "unhardened rate ") +
          std::to_string(rate);
      if (hardened) {
        EXPECT_EQ(r.violations(), "")
            << what << "\nreplay trace:\n" << traceToString(r.campaign.records);
        continue;
      }
      EXPECT_EQ(r.ops + r.gcm_ops, r.telemetry.operations()) << what;
      if (rate > 0.0) {
        EXPECT_GT(r.wrong_block_releases, 0u) << what;
      }
    }
  }
}

}  // namespace
}  // namespace aesifc::soc
