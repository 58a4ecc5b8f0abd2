#pragma once
// The migration storm the pool's tier-1 sweep (pool_elastic_test.cpp) and
// its nightly soak (migration_storm_soak.cpp) both run, with the invariants
// every seed must hold.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "aes/cipher.h"
#include "common/rng.h"
#include "soc/pool.h"
#include "soc/supervisor.h"

namespace aesifc::soc {

// `seeds` storms of `rounds` rounds each. Eight tenants share a three-shard
// pool (batch 4, quota 16) under a supervisor that may grow it to five
// shards. Each round every tenant offers 12 blocks, then one storm
// ingredient is drawn: a round-key upset on a random shard (3 in 8), a
// forced quarantine of one (2 in 8), an explicit migration of a random
// tenant (1 in 8), or none. The supervisor polls and the pool pumps four
// times; every eighth round, and after the final drain, every completion
// is fetched. Every seed must hold:
//  * wrong_key_uses == 0: no request ever reaches a serve path under a
//    stale or zeroized key, however migrations interleave with storms;
//  * conservation: each tenant fetches exactly as many completions as it
//    had requests admitted;
//  * every Ok block is golden AES, under the tenant's own key, of a
//    plaintext from its traffic;
//  * audit pairing: in every shard's ring each MigrationBegun is closed by
//    a Committed or an Aborted, and each committed migration stamps
//    Committed and KeyZeroized once into each of its two rings.
inline void expectMigrationStormHolds(unsigned seeds, unsigned rounds) {
  constexpr unsigned kTenants = 8;
  std::uint64_t migrations = 0;  // over all seeds
  // Tenant traffic is blockOf(one random byte).
  auto blockOf = [](std::uint8_t seed) {
    aes::Block b;
    for (unsigned i = 0; i < 16; ++i)
      b[i] = static_cast<std::uint8_t>(seed + 3 * i);
    return b;
  };

  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    PoolConfig cfg;
    cfg.shards = 3;
    cfg.service.batch_size = 4;
    cfg.service.quota_per_round = 16;
    cfg.service.global_high_watermark = 4096;
    cfg.service.health.quarantine_residency_cycles = 512;
    EnginePool pool{cfg};

    std::vector<unsigned> ids;
    // Tenant t's golden ciphertext of every plaintext it may send.
    std::vector<std::set<aes::Block>> golden(kTenants);
    for (unsigned t = 0; t < kTenants; ++t) {
      PoolTenantSpec spec;
      spec.name = "tenant-" + std::to_string(t);
      spec.category = (t % 14) + 1;
      spec.key.resize(16);
      for (unsigned i = 0; i < 16; ++i)
        spec.key[i] = static_cast<std::uint8_t>(0x40 + 13 * t + i);
      spec.queue_depth = 64;
      const auto r = pool.addTenant(spec);
      ASSERT_TRUE(r.placed);
      ids.push_back(r.tenant);
      const auto ek = aes::expandKey(spec.key, aes::KeySize::Aes128);
      for (unsigned s = 0; s < 256; ++s)
        golden[t].insert(
            aes::encryptBlock(blockOf(static_cast<std::uint8_t>(s)), ek));
    }

    SupervisorConfig scfg;
    scfg.max_shards = 5;
    PoolSupervisor sup{pool, scfg};
    Rng rng{0x50a4c0deull * seed};

    std::vector<std::uint64_t> admitted(kTenants, 0), fetched(kTenants, 0);
    auto drainFetches = [&] {
      for (unsigned t = 0; t < kTenants; ++t) {
        while (auto c = pool.fetch(ids[t])) {
          ++fetched[t];
          if (c->status == CompletionStatus::Ok) {
            EXPECT_EQ(golden[t].count(c->data), 1u) << "tenant " << t;
          }
        }
      }
    };

    for (unsigned round = 0; round < rounds; ++round) {
      for (unsigned i = 0; i < 12; ++i) {
        for (unsigned t = 0; t < kTenants; ++t) {
          const auto ps = static_cast<std::uint8_t>(rng.next());
          if (pool.submit(ids[t], blockOf(ps)).admitted) ++admitted[t];
        }
      }

      const std::uint64_t dice = rng.next() % 8;
      const unsigned shard = static_cast<unsigned>(rng.next() % pool.shards());
      if (dice < 3 && !pool.shardRetired(shard)) {
        (void)pool.shardEngine(shard).injectFault(
            accel::FaultSite::RoundKey, 1 + (rng.next() % 6),
            static_cast<unsigned>(rng.next() % 128));
      } else if (dice < 5 && !pool.shardRetired(shard)) {
        pool.shardService(shard).forceQuarantine("storm seed " +
                                                 std::to_string(seed));
      } else if (dice == 5) {
        const unsigned t = static_cast<unsigned>(rng.next() % kTenants);
        if (const auto dst = pool.pickTargetShard(ids[t], {}))
          (void)pool.migrateTenant(ids[t], *dst);
      }

      sup.poll();
      for (unsigned p = 0; p < 4; ++p) pool.pump();
      if (round % 8 == 7) drainFetches();
    }

    pool.runUntilIdle(800000);
    drainFetches();

    for (unsigned t = 0; t < kTenants; ++t)
      EXPECT_EQ(fetched[t], admitted[t]) << "tenant " << t;
    EXPECT_EQ(pool.aggregateStats().wrong_key_uses, 0u);

    using accel::SecurityEventKind;
    std::uint64_t committed = 0, zeroized = 0;
    for (unsigned s = 0; s < pool.shards(); ++s) {
      const auto& eng = pool.shardEngine(s);
      EXPECT_EQ(eng.eventCount(SecurityEventKind::MigrationBegun),
                eng.eventCount(SecurityEventKind::MigrationCommitted) +
                    eng.eventCount(SecurityEventKind::MigrationAborted))
          << "shard " << s;
      committed += eng.eventCount(SecurityEventKind::MigrationCommitted);
      zeroized += eng.eventCount(SecurityEventKind::MigrationKeyZeroized);
    }
    EXPECT_EQ(committed, 2 * pool.poolStats().migrations);
    EXPECT_EQ(zeroized, 2 * pool.poolStats().migrations);
    migrations += pool.poolStats().migrations;
  }
  EXPECT_GT(migrations, 0u) << "the storms never migrated a tenant";
}

}  // namespace aesifc::soc
