// Nightly migration-storm soak (ctest label: soak): the storm of the
// tier-1 sweep in pool_elastic_test.cpp (soc::runMigrationStorm) at far
// more seeds and rounds, so hardware faults, forced quarantines,
// supervisor evacuations, hot-adds and explicit tenant migrations
// interleave with sustained traffic for hundreds of rounds. Every seed
// holds the report's violations(): the campaign oracle finds each tenant's
// results golden, once and in order, no request is served under a stale
// key, and the migration audit events pair up.

#include <gtest/gtest.h>

#include "soc/fault_injector.h"

namespace aesifc::soc {
namespace {

TEST(MigrationStormSoak, ManySeedStormHoldsAllInvariants) {
  std::uint64_t migrations = 0;
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    const MigrationStormReport r = runMigrationStorm(seed, /*rounds=*/1000);
    EXPECT_EQ(r.violations(), "") << "seed " << seed;
    migrations += r.migrations;
  }
  EXPECT_GT(migrations, 0u) << "the storms never migrated a tenant";
}

}  // namespace
}  // namespace aesifc::soc
