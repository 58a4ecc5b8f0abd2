// Nightly migration-storm soak (ctest label: soak): the storm of the
// tier-1 sweep in pool_elastic_test.cpp at far more seeds and rounds, so
// hardware faults, forced quarantines, supervisor evacuations, hot-adds and
// explicit tenant migrations interleave with sustained traffic for
// hundreds of rounds. The invariants every seed holds are listed at
// expectMigrationStormHolds (migration_storm_checks.h).

#include <gtest/gtest.h>

#include "migration_storm_checks.h"

namespace aesifc::soc {
namespace {

TEST(MigrationStormSoak, ManySeedStormHoldsAllInvariants) {
  expectMigrationStormHolds(/*seeds=*/500, /*rounds=*/1000);
}

}  // namespace
}  // namespace aesifc::soc
