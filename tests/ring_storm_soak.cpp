// Nightly ring storm: long multi-seed descriptor-ring fault campaigns on
// the hardened engine. The per-commit job proves the invariants on a few
// seeds; this soak widens the net — many seeds, higher fault rates, more
// descriptors per run — looking for the rare interleaving where a corrupted
// or adversarial ring slips a wrong plaintext or a cross-label byte
// through. Any such finding is a security bug, not flake: the campaign is
// fully deterministic per seed, so a failure here reproduces exactly.

#include <gtest/gtest.h>

#include "soc/attacks.h"

namespace aesifc::soc {
namespace {

TEST(RingStormSoak, HardenedInvariantsAcrossManySeedsAndRates) {
  RingCampaignReport total;
  for (const double rate : {0.01, 0.05, 0.15}) {
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
      RingCampaignConfig cfg;
      cfg.seed = seed * 7919 + static_cast<std::uint64_t>(rate * 1000);
      cfg.descriptors = 42;
      cfg.fault_rate = rate;
      const auto rep = runRingFaultCampaign(cfg);
      EXPECT_EQ(rep.wrong_plaintext_releases, 0u)
          << "seed " << cfg.seed << " rate " << rate;
      EXPECT_EQ(rep.cross_label_writes, 0u)
          << "seed " << cfg.seed << " rate " << rate;
      EXPECT_EQ(rep.partial_writes, 0u)
          << "seed " << cfg.seed << " rate " << rate;
      EXPECT_EQ(rep.reset_isolation_failures, 0u)
          << "seed " << cfg.seed << " rate " << rate;
      total += rep;
    }
  }
  // Breadth checks: the storm exercised every defense it certifies.
  EXPECT_GT(total.completed_ok, 0u);
  EXPECT_GT(total.refused, 0u);
  EXPECT_GT(total.watchdog_fires, 0u);
  EXPECT_GT(total.recoveries, 0u);
  EXPECT_GT(total.ring_faults, 0u);
  EXPECT_GT(total.ring.checksum_rejects, 0u);
  EXPECT_GT(total.ring.torn_ownership, 0u);
  EXPECT_EQ(total.ring.comp_overflow_drops, 0u);  // hardened never drops
  EXPECT_EQ(total.descriptors,
            total.completed_ok + total.refused + total.unresolved);
  SUCCEED() << total.toJson();
}

// Scripted scenarios off: pure random bit-flip pressure at a high rate, the
// closest model to radiation/rowhammer-style corruption of ring pages.
TEST(RingStormSoak, RandomCorruptionOnlyPressure) {
  for (std::uint64_t seed = 100; seed < 116; ++seed) {
    RingCampaignConfig cfg;
    cfg.seed = seed;
    cfg.descriptors = 32;
    cfg.fault_rate = 0.25;
    cfg.scripted_scenarios = false;
    const auto rep = runRingFaultCampaign(cfg);
    EXPECT_EQ(rep.wrong_plaintext_releases, 0u) << "seed " << seed;
    EXPECT_EQ(rep.cross_label_writes, 0u) << "seed " << seed;
    EXPECT_EQ(rep.partial_writes, 0u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace aesifc::soc
