// Nightly migration-storm soak (ctest label: soak). A long-horizon sweep —
// far more seeds, rounds, and traffic than the tier-1 cousin in
// pool_elastic_test.cpp — in which hardware faults, forced quarantines,
// supervisor evacuations, hot-adds, and explicit tenant migrations all
// interleave with sustained traffic for hundreds of rounds.
//
// Invariants enforced every seed:
//  * wrong_key_uses == 0 — no request ever reaches a serve path under a
//    stale or zeroized key, no matter how migrations interleave with storms.
//  * Conservation — every admitted request resolves exactly once (fetched
//    completion count matches the admitted count per tenant).
//  * Correctness spot-check — delivered Ok blocks match the tenant's own
//    golden software AES.
//  * Audit pairing — MigrationBegun/KeyZeroized/Committed counts agree
//    across the pool (each successful migration stamps each kind twice:
//    once per ring), and every Begun is closed by a Committed or an
//    Aborted.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "accel/key_store.h"
#include "aes/cipher.h"
#include "common/rng.h"
#include "soc/pool.h"
#include "soc/supervisor.h"

namespace aesifc::soc {
namespace {

using accel::FaultSite;
using accel::SecurityEventKind;

std::vector<std::uint8_t> keyOf(unsigned tenant) {
  std::vector<std::uint8_t> k(16);
  for (unsigned i = 0; i < 16; ++i)
    k[i] = static_cast<std::uint8_t>(0x40 + 13 * tenant + i);
  return k;
}

aes::Block blockOf(std::uint8_t seed) {
  aes::Block b;
  for (unsigned i = 0; i < 16; ++i)
    b[i] = static_cast<std::uint8_t>(seed + 3 * i);
  return b;
}

unsigned poolEventCount(EnginePool& pool, SecurityEventKind kind) {
  unsigned n = 0;
  for (unsigned s = 0; s < pool.shards(); ++s) {
    for (const auto& e : pool.shardEngine(s).events()) {
      if (e.kind == kind) ++n;
    }
  }
  return n;
}

TEST(MigrationStormSoak, FortySeedStormHoldsAllInvariants) {
  constexpr unsigned kSeeds = 40;
  constexpr unsigned kTenants = 8;
  constexpr unsigned kRounds = 60;

  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    PoolConfig cfg;
    cfg.shards = 3;
    cfg.service.batch_size = 4;
    cfg.service.quota_per_round = 16;
    cfg.service.global_high_watermark = 4096;
    cfg.service.health.quarantine_residency_cycles = 512;
    // The audit-pairing assertions below count ring entries, so the ring
    // must hold the whole storm without overflowing.
    cfg.engine.event_log_cap = 1u << 16;
    EnginePool pool{cfg};

    std::vector<unsigned> ids;
    std::vector<aes::ExpandedKey> golden;
    for (unsigned t = 0; t < kTenants; ++t) {
      PoolTenantSpec spec;
      spec.name = "soak-" + std::to_string(t);
      spec.category = (t % 14) + 1;
      spec.key = keyOf(t);
      spec.queue_depth = 64;
      const auto r = pool.addTenant(spec);
      ASSERT_TRUE(r.placed);
      ids.push_back(r.tenant);
      golden.push_back(aes::expandKey(keyOf(t), aes::KeySize::Aes128));
    }

    SupervisorConfig scfg;
    scfg.max_shards = 5;
    PoolSupervisor sup{pool, scfg};
    Rng rng{0x50a4c0deull * seed};

    std::vector<std::uint64_t> admitted(kTenants, 0), fetched(kTenants, 0);
    std::vector<std::uint8_t> last_seed(kTenants, 0);

    auto drainFetches = [&] {
      for (unsigned t = 0; t < kTenants; ++t) {
        while (auto c = pool.fetch(ids[t])) {
          ++fetched[t];
          if (c->status == CompletionStatus::Ok) {
            // Spot-check payloads: an Ok completion must be SOME golden
            // encryption of this tenant's recent plaintext space.
            bool match = false;
            for (unsigned s = 0; s < 256 && !match; ++s) {
              match = (c->data == aes::encryptBlock(
                                      blockOf(static_cast<std::uint8_t>(s)),
                                      golden[t]));
            }
            EXPECT_TRUE(match) << "seed " << seed << " tenant " << t;
          }
        }
      }
    };

    for (unsigned round = 0; round < kRounds; ++round) {
      // Sustained traffic.
      for (unsigned i = 0; i < 12; ++i) {
        for (unsigned t = 0; t < kTenants; ++t) {
          const auto ps = static_cast<std::uint8_t>(rng.next());
          last_seed[t] = ps;
          if (pool.submit(ids[t], blockOf(ps)).admitted) ++admitted[t];
        }
      }

      // Storm ingredients, randomly interleaved.
      const std::uint64_t dice = rng.next() % 8;
      const unsigned shard = static_cast<unsigned>(rng.next() % pool.shards());
      if (dice < 3 && !pool.shardRetired(shard)) {
        (void)pool.shardEngine(shard).injectFault(
            FaultSite::RoundKey, 1 + (rng.next() % 6),
            static_cast<unsigned>(rng.next() % 128));
      } else if (dice < 5 && !pool.shardRetired(shard)) {
        pool.shardService(shard).forceQuarantine("soak storm");
      } else if (dice == 5) {
        // Explicit migration of a random tenant to wherever fits.
        const unsigned t = static_cast<unsigned>(rng.next() % kTenants);
        if (const auto dst = pool.pickTargetShard(ids[t], {})) {
          (void)pool.migrateTenant(ids[t], *dst);
        }
      }

      sup.poll();
      for (unsigned p = 0; p < 4; ++p) pool.pump();
      if (round % 8 == 7) drainFetches();
    }

    pool.runUntilIdle(800000);
    drainFetches();

    for (unsigned t = 0; t < kTenants; ++t) {
      EXPECT_EQ(fetched[t], admitted[t]) << "seed " << seed << " tenant " << t;
    }
    const ServiceStats agg = pool.aggregateStats();
    EXPECT_EQ(agg.wrong_key_uses, 0u) << "seed " << seed;

    // Audit pairing: each committed migration stamped each kind into two
    // rings.
    const auto& ps = pool.poolStats();
    EXPECT_EQ(poolEventCount(pool, SecurityEventKind::MigrationCommitted),
              2 * ps.migrations)
        << "seed " << seed;
    EXPECT_EQ(poolEventCount(pool, SecurityEventKind::MigrationKeyZeroized),
              2 * ps.migrations)
        << "seed " << seed;
    EXPECT_EQ(poolEventCount(pool, SecurityEventKind::MigrationBegun),
              poolEventCount(pool, SecurityEventKind::MigrationCommitted) +
                  poolEventCount(pool, SecurityEventKind::MigrationAborted))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace aesifc::soc
