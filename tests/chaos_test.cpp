// Adversarial-environment fuzzing of the accelerator: random receiver
// readiness, random submissions from several users, both modes
// (soc::runChaosCampaign). Every response must be correct, complete, and in
// per-user order, regardless of how often the stall/buffer machinery
// engages.

#include <gtest/gtest.h>

#include <ostream>

#include "soc/fault_injector.h"

namespace aesifc::accel {
namespace {

struct ChaosParams {
  SecurityMode mode;
  std::uint64_t seed;
};

// Names each case by its contents (e.g. "Protected_seed3") instead of
// gtest's raw byte dump, which includes the struct's padding bytes.
void PrintTo(const ChaosParams& p, std::ostream* os) {
  *os << (p.mode == SecurityMode::Protected ? "Protected" : "Baseline")
      << "_seed" << p.seed;
}

class ChaosTest : public ::testing::TestWithParam<ChaosParams> {};

TEST_P(ChaosTest, AllTrafficCorrectCompleteAndOrdered) {
  const auto [mode, seed] = GetParam();
  EXPECT_EQ(soc::runChaosCampaign(mode, seed, /*users=*/3, /*per_user=*/100)
                .violations(),
            "");
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndSeeds, ChaosTest,
    ::testing::Values(ChaosParams{SecurityMode::Baseline, 1},
                      ChaosParams{SecurityMode::Baseline, 2},
                      ChaosParams{SecurityMode::Protected, 1},
                      ChaosParams{SecurityMode::Protected, 2},
                      ChaosParams{SecurityMode::Protected, 3},
                      ChaosParams{SecurityMode::Protected, 4}));

}  // namespace
}  // namespace aesifc::accel
