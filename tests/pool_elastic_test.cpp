// Elastic self-healing pool coverage: rendezvous remap minimality under
// shard hot-add, the audited migrate-tenant handshake (load-before-zeroize,
// paired events in both rings, post-migration refusal at the source), shard
// retirement, the supervisor's evacuation/hot-add policy, and a 16-seed
// fault sweep asserting the core invariant wrong_key_uses == 0 through
// migration storms.

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
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

aes::Block patternBlock(std::uint8_t seed) {
  aes::Block b;
  for (unsigned i = 0; i < 16; ++i)
    b[i] = static_cast<std::uint8_t>(seed + 3 * i);
  return b;
}

PoolConfig poolConfig(unsigned shards, unsigned batch) {
  PoolConfig cfg;
  cfg.shards = shards;
  cfg.service.batch_size = batch;
  cfg.service.quota_per_round = 16;
  cfg.service.global_high_watermark = 4096;
  return cfg;
}

unsigned addTenantN(EnginePool& pool, unsigned n) {
  PoolTenantSpec spec;
  spec.name = "tenant-" + std::to_string(n);
  spec.category = (n % 14) + 1;
  spec.key = keyOf(n);
  spec.queue_depth = 64;
  const PlaceResult r = pool.addTenant(spec);
  EXPECT_TRUE(r.placed);
  return r.tenant;
}

// Arrival-order local id of a pool tenant inside its shard's service (valid
// for pools that have not migrated the earlier tenants off that shard).
unsigned localOf(const EnginePool& pool, unsigned tenant) {
  unsigned local = 0;
  for (unsigned t = 0; t < tenant; ++t) {
    if (pool.shardOf(t) == pool.shardOf(tenant)) ++local;
  }
  return local;
}

unsigned validSlots(const accel::AesAccelerator& eng) {
  unsigned n = 0;
  for (unsigned s = 0; s < accel::kRoundKeySlots; ++s) {
    if (eng.roundKeys().valid(s)) ++n;
  }
  return n;
}

unsigned countEvents(const accel::AesAccelerator& eng,
                     SecurityEventKind kind) {
  unsigned n = 0;
  for (const auto& e : eng.events()) {
    if (e.kind == kind) ++n;
  }
  return n;
}

// --- Rendezvous placement under hot-add ------------------------------------

TEST(PoolElastic, HotAddRemapsOnlyTenantsWhoseHomeIsTheNewShard) {
  EnginePool pool{poolConfig(4, 1)};
  const unsigned kNames = 96;
  std::vector<unsigned> before;
  for (unsigned i = 0; i < kNames; ++i) {
    before.push_back(pool.placementOf("tenant-" + std::to_string(i)));
  }
  const unsigned added = pool.addShard();
  EXPECT_EQ(added, 4u);
  EXPECT_EQ(pool.activeShards(), 5u);

  unsigned moved = 0;
  for (unsigned i = 0; i < kNames; ++i) {
    const unsigned after = pool.placementOf("tenant-" + std::to_string(i));
    if (after != before[i]) {
      // HRW property: a name only moves when its top weight IS the new
      // shard — never between two pre-existing shards.
      EXPECT_EQ(after, added) << "name " << i << " moved " << before[i]
                              << " -> " << after;
      ++moved;
    }
  }
  // Expected remap fraction is 1/5; allow generous slack but require both
  // that SOME tenants adopt the new shard and that most stay put.
  EXPECT_GT(moved, 0u);
  EXPECT_LT(moved, kNames / 2);
}

TEST(PoolElastic, RetiredShardLeavesPlacementSet) {
  EnginePool pool{poolConfig(3, 1)};
  const unsigned victim = 1;
  ASSERT_TRUE(pool.retireShard(victim));
  EXPECT_TRUE(pool.shardRetired(victim));
  EXPECT_EQ(pool.activeShards(), 2u);
  for (unsigned i = 0; i < 64; ++i) {
    EXPECT_NE(pool.placementOf("n" + std::to_string(i)), victim);
  }
}

// --- Migration handshake ----------------------------------------------------

TEST(PoolElastic, MigrationUnderInFlightBatchesMatchesGoldenRun) {
  // Two identically-built pools, identical traffic; one migrates its first
  // tenant mid-stream. Every completion (status, served_by, payload, order)
  // must be bit-identical to the golden no-migration run — migration is
  // invisible in the data plane.
  auto run = [](bool migrate) {
    EnginePool pool{poolConfig(2, 8)};
    const unsigned kTenants = 4, kBlocks = 24;
    std::vector<unsigned> ids;
    for (unsigned t = 0; t < kTenants; ++t) ids.push_back(addTenantN(pool, t));
    // First half of the traffic, left queued (in-flight batches).
    for (unsigned i = 0; i < kBlocks / 2; ++i) {
      for (unsigned t = 0; t < kTenants; ++t) {
        EXPECT_TRUE(
            pool.submit(ids[t],
                        patternBlock(static_cast<std::uint8_t>(16 * t + i)))
                .admitted);
      }
    }
    if (migrate) {
      const unsigned src = pool.shardOf(ids[0]);
      const unsigned dst = 1 - src;
      const auto r = pool.migrateTenant(ids[0], dst);
      EXPECT_TRUE(r.moved) << toString(r.error);
      EXPECT_EQ(pool.shardOf(ids[0]), dst);
    }
    // Second half lands post-migration (on the new shard for tenant 0).
    for (unsigned i = kBlocks / 2; i < kBlocks; ++i) {
      for (unsigned t = 0; t < kTenants; ++t) {
        EXPECT_TRUE(
            pool.submit(ids[t],
                        patternBlock(static_cast<std::uint8_t>(16 * t + i)))
                .admitted);
      }
    }
    pool.runUntilIdle(200000);
    EXPECT_EQ(pool.aggregateStats().wrong_key_uses, 0u);

    std::vector<std::vector<std::uint8_t>> out;
    for (unsigned t = 0; t < kTenants; ++t) {
      std::vector<std::uint8_t> lane;
      while (auto c = pool.fetch(ids[t])) {
        EXPECT_EQ(c->status, CompletionStatus::Ok);
        lane.push_back(static_cast<std::uint8_t>(c->served_by ==
                                                 ServedBy::Hardware));
        lane.insert(lane.end(), c->data.begin(), c->data.end());
      }
      out.push_back(std::move(lane));
    }
    return out;
  };

  const auto golden = run(false);
  const auto migrated = run(true);
  ASSERT_EQ(golden.size(), migrated.size());
  for (std::size_t t = 0; t < golden.size(); ++t) {
    EXPECT_EQ(golden[t], migrated[t]) << "tenant lane " << t;
    EXPECT_EQ(golden[t].size(), 24u * 17u);  // 24 blocks, 1 + 16 bytes each
  }
}

TEST(PoolElastic, MigrationZeroizesSourceAndAuditsBothRings) {
  EnginePool pool{poolConfig(2, 4)};
  const unsigned kTenants = 4;
  std::vector<unsigned> ids;
  for (unsigned t = 0; t < kTenants; ++t) ids.push_back(addTenantN(pool, t));
  const unsigned mover = ids[0];
  const unsigned src = pool.shardOf(mover);
  const unsigned dst = 1 - src;
  const unsigned src_local = localOf(pool, mover);
  const unsigned src_valid_before = validSlots(pool.shardEngine(src));

  // Some in-flight work so drain + quiesce actually have something to do.
  for (unsigned i = 0; i < 8; ++i) {
    ASSERT_TRUE(pool.submit(mover, patternBlock(i)).admitted);
  }

  const auto r = pool.migrateTenant(mover, dst);
  ASSERT_TRUE(r.moved) << toString(r.error);

  // Zeroize-at-source, verified through the key store itself: exactly one
  // slot lost its valid bit.
  EXPECT_EQ(validSlots(pool.shardEngine(src)), src_valid_before - 1);

  // The audit triple is present in BOTH rings.
  for (unsigned shard : {src, dst}) {
    EXPECT_EQ(countEvents(pool.shardEngine(shard),
                          SecurityEventKind::MigrationBegun), 1u)
        << "shard " << shard;
    EXPECT_EQ(countEvents(pool.shardEngine(shard),
                          SecurityEventKind::MigrationKeyZeroized), 1u)
        << "shard " << shard;
    EXPECT_EQ(countEvents(pool.shardEngine(shard),
                          SecurityEventKind::MigrationCommitted), 1u)
        << "shard " << shard;
  }

  // Read-back refusal at the source: the retired local tenant is refused at
  // admission (typed verdict), and nothing ever reached a serve path under
  // the dead slot.
  EXPECT_FALSE(pool.shardService(src).tenantActive(src_local));
  const auto refused = pool.shardService(src).submit(src_local, patternBlock(9));
  EXPECT_FALSE(refused.admitted);
  EXPECT_EQ(refused.error, AdmitError::TenantRetired);

  // Pre-migration completions (drained at the source) all surface, then the
  // tenant keeps serving from the destination.
  unsigned fetched = 0;
  while (pool.fetch(mover).has_value()) ++fetched;
  EXPECT_EQ(fetched, 8u);
  ASSERT_TRUE(pool.submit(mover, patternBlock(10)).admitted);
  pool.runUntilIdle(100000);
  auto c = pool.fetch(mover);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->status, CompletionStatus::Ok);
  const auto golden = aes::expandKey(keyOf(0), aes::KeySize::Aes128);
  EXPECT_EQ(c->data, aes::encryptBlock(patternBlock(10), golden));
  EXPECT_EQ(pool.aggregateStats().wrong_key_uses, 0u);
  EXPECT_EQ(pool.poolStats().migrations, 1u);
}

TEST(PoolElastic, MigrationRefusalsAreTypedAndLeaveSourceServing) {
  EnginePool pool{poolConfig(2, 1)};
  const unsigned a = addTenantN(pool, 0);
  EXPECT_EQ(pool.migrateTenant(a, pool.shardOf(a)).error,
            MigrateError::SameShard);
  EXPECT_EQ(pool.migrateTenant(99, 0).error, MigrateError::UnknownTenant);

  // Fill the other shard's seven tenant slots so it cannot accept the move.
  const unsigned other = 1 - pool.shardOf(a);
  for (unsigned n = 100; pool.tenantsOn(other) < accel::kRoundKeySlots - 1;
       ++n) {
    PoolTenantSpec spec;
    spec.name = "filler-" + std::to_string(n);
    spec.category = (n % 14) + 1;
    spec.key = keyOf(n);
    const auto r = pool.addTenant(spec);
    ASSERT_TRUE(r.placed);
  }
  EXPECT_EQ(pool.migrateTenant(a, other).error, MigrateError::TargetFull);

  // After every refusal the source still serves.
  ASSERT_TRUE(pool.submit(a, patternBlock(1)).admitted);
  pool.runUntilIdle(100000);
  auto c = pool.fetch(a);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->status, CompletionStatus::Ok);
  EXPECT_EQ(pool.aggregateStats().wrong_key_uses, 0u);
}

TEST(PoolElastic, QuiesceTimeoutRollbackLeavesNoKeyOnTheTarget) {
  EnginePool pool{poolConfig(2, 1)};
  const unsigned a = addTenantN(pool, 0);
  const unsigned src = pool.shardOf(a);
  const unsigned dst = 1 - src;
  accel::AesAccelerator& src_eng = pool.shardEngine(src);
  const TenantSpec spec = pool.shardService(src).tenantSpec(localOf(pool, a));

  // One block in flight on the source slot that cannot leave the pipe: its
  // receiver is held not-ready, so the slot never goes idle.
  src_eng.setReceiverReady(spec.user, false);
  accel::BlockRequest req;
  req.req_id = 1000;
  req.user = spec.user;
  req.key_slot = spec.key_slot;
  req.data = patternBlock(1);
  ASSERT_TRUE(src_eng.submit(req));
  src_eng.tick();

  EXPECT_EQ(pool.migrateTenant(a, dst).error, MigrateError::QuiesceTimeout);
  // The rollback leaves no copy of the key on the target: its slot is
  // invalid and both staging cells are zero.
  const accel::AesAccelerator& dst_eng = pool.shardEngine(dst);
  EXPECT_FALSE(dst_eng.roundKeys().valid(1));
  EXPECT_EQ(dst_eng.scratchpad().rawCell(0), 0u);
  EXPECT_EQ(dst_eng.scratchpad().rawCell(1), 0u);

  // Once the receiver is released the tenant still serves from its source.
  src_eng.setReceiverReady(spec.user, true);
  ASSERT_EQ(pool.shardOf(a), src);
  ASSERT_TRUE(pool.submit(a, patternBlock(2)).admitted);
  pool.runUntilIdle(100000);
  auto c = pool.fetch(a);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->status, CompletionStatus::Ok);
  const auto golden = aes::expandKey(keyOf(0), aes::KeySize::Aes128);
  EXPECT_EQ(c->data, aes::encryptBlock(patternBlock(2), golden));
}

// The quiesce barrier runs on the pool's migration budget, not the key
// ledger's 256-cycle rotation default: a GCM op that holds the source slot
// for over 512 cycles delays the migration but does not fail it.
TEST(PoolElastic, MigrationQuiesceOutlastsALongInFlightGcmOp) {
  EnginePool pool{poolConfig(2, 1)};
  const unsigned a = addTenantN(pool, 0);
  const unsigned src = pool.shardOf(a);
  accel::AesAccelerator& src_eng = pool.shardEngine(src);
  const TenantSpec spec = pool.shardService(src).tenantSpec(localOf(pool, a));

  accel::GcmRequest op;
  op.req_id = 77;
  op.user = spec.user;
  op.key_slot = spec.key_slot;
  op.iv.assign(12, 0x24);
  op.data.assign(512 * 16, 0x5a);
  ASSERT_EQ(src_eng.submitGcm(op), accel::GcmSubmit::Accepted);
  src_eng.tick();
  ASSERT_TRUE(src_eng.keySlotBusy(spec.key_slot));

  const std::uint64_t before = src_eng.cycle();
  const MigrateResult r = pool.migrateTenant(a, 1 - src);
  EXPECT_TRUE(r.moved) << toString(r.error);
  EXPECT_GT(src_eng.cycle() - before, 512u);
  EXPECT_FALSE(src_eng.roundKeys().valid(spec.key_slot));
  EXPECT_EQ(pool.shardOf(a), 1 - src);
}

// Slots 1 and 5 stage their keys through the same cell pair, and slot 5's
// load re-tagged (and scrubbed) it. Zeroizing slot 1's key must leave those
// cells to their new owner: a legitimate migration logs no blocked write.
TEST(PoolElastic, MigrationOffASharedCellPairLogsNoBlockedWrite) {
  EnginePool pool{poolConfig(2, 1)};
  for (unsigned t = 0; t < 12; ++t) addTenantN(pool, t);
  std::optional<unsigned> victim;
  for (unsigned t = 0; t < pool.tenants() && !victim; ++t) {
    const unsigned sh = pool.shardOf(t);
    if (pool.tenantsOn(sh) >= 5 &&
        pool.shardService(sh).tenantSpec(localOf(pool, t)).key_slot == 1)
      victim = t;
  }
  ASSERT_TRUE(victim.has_value());
  const unsigned src = pool.shardOf(*victim);
  ASSERT_TRUE(pool.migrateTenant(*victim, 1 - src).moved);
  const accel::AesAccelerator& src_eng = pool.shardEngine(src);
  EXPECT_EQ(src_eng.eventCount(SecurityEventKind::ScratchpadWriteBlocked), 0u);
  EXPECT_FALSE(src_eng.roundKeys().valid(1));
  EXPECT_TRUE(src_eng.roundKeys().valid(5));  // the pair's new owner serves
}

TEST(PoolElastic, RetireShardEvacuatesZeroizesAndKeepsTenantsServing) {
  EnginePool pool{poolConfig(3, 4)};
  const unsigned kTenants = 6;
  std::vector<unsigned> ids;
  for (unsigned t = 0; t < kTenants; ++t) ids.push_back(addTenantN(pool, t));
  // Retire whichever shard hosts tenant 0.
  const unsigned victim = pool.shardOf(ids[0]);
  ASSERT_TRUE(pool.retireShard(victim));
  EXPECT_TRUE(pool.shardRetired(victim));
  // Every key slot on the retired engine is zeroized (slot 0 included —
  // nothing was ever loaded there, the rest scrubbed on the way out).
  EXPECT_EQ(validSlots(pool.shardEngine(victim)), 0u);
  EXPECT_TRUE(pool.tenantsOnShard(victim).empty());

  // All tenants still serve, bit-exact, from their new homes.
  for (unsigned t = 0; t < kTenants; ++t) {
    EXPECT_NE(pool.shardOf(ids[t]), victim);
    ASSERT_TRUE(pool.submit(ids[t], patternBlock(t)).admitted);
  }
  pool.runUntilIdle(200000);
  for (unsigned t = 0; t < kTenants; ++t) {
    auto c = pool.fetch(ids[t]);
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(c->status, CompletionStatus::Ok);
    const auto golden = aes::expandKey(keyOf(t), aes::KeySize::Aes128);
    EXPECT_EQ(c->data, aes::encryptBlock(patternBlock(t), golden));
  }
  EXPECT_EQ(pool.aggregateStats().wrong_key_uses, 0u);
  EXPECT_EQ(pool.poolStats().shards_retired, 1u);
}

// --- Supervisor policy ------------------------------------------------------

TEST(PoolSupervisorPolicy, QuarantineTriggersEvacuationToHealthyShards) {
  EnginePool pool{poolConfig(3, 4)};
  std::vector<unsigned> ids;
  for (unsigned t = 0; t < 6; ++t) ids.push_back(addTenantN(pool, t));
  PoolSupervisor sup{pool, SupervisorConfig{}};

  // Pick a shard that actually hosts tenants and quarantine it.
  unsigned sick = 0;
  for (unsigned s = 0; s < pool.shards(); ++s) {
    if (!pool.tenantsOnShard(s).empty()) { sick = s; break; }
  }
  const auto evacuees = pool.tenantsOnShard(sick);
  ASSERT_FALSE(evacuees.empty());
  pool.shardService(sick).forceQuarantine("policy test");

  const auto rep = sup.poll();
  EXPECT_EQ(rep.evacuated, evacuees.size());
  EXPECT_EQ(rep.evacuation_failures, 0u);
  EXPECT_TRUE(pool.tenantsOnShard(sick).empty());
  for (unsigned t : evacuees) EXPECT_NE(pool.shardOf(t), sick);

  // Idempotent: a second poll finds nothing left to move.
  const auto rep2 = sup.poll();
  EXPECT_EQ(rep2.evacuated, 0u);
  EXPECT_EQ(pool.aggregateStats().wrong_key_uses, 0u);
}

TEST(PoolSupervisorPolicy, SustainedBackpressureHotAddsWithHysteresis) {
  PoolConfig cfg = poolConfig(1, 1);
  cfg.service.global_high_watermark = 8;  // tiny: easy to overrun
  EnginePool pool{cfg};
  const unsigned a = addTenantN(pool, 0);
  SupervisorConfig scfg;
  scfg.pressure_streak = 3;
  scfg.cooldown_polls = 4;
  scfg.max_shards = 2;
  PoolSupervisor sup{pool, scfg};

  // Each round overruns the watermark (fresh backpressure rejections), so
  // the streak builds; the hot-add must fire on the streak-th poll, not the
  // first.
  unsigned added_at = 0;
  for (unsigned round = 1; round <= 6; ++round) {
    for (unsigned i = 0; i < 32; ++i) {
      (void)pool.submit(a, patternBlock(i));
    }
    const auto rep = sup.poll();
    if (rep.shard_added && added_at == 0) added_at = round;
    pool.runUntilIdle(100000);
  }
  EXPECT_EQ(added_at, scfg.pressure_streak);
  EXPECT_EQ(pool.activeShards(), 2u);
  // max_shards caps further growth even under continued pressure.
  EXPECT_EQ(sup.stats().shards_added, 1u);
}

// --- Migration storms under fault injection ---------------------------------

// The core invariant, swept across seeds: whatever order faults, quarantine,
// evacuation, and traffic interleave in, no request ever reaches a serve
// path under a stale or zeroized key.
TEST(PoolElastic, SixteenSeedFaultSweepMigrationStormKeepsWrongKeyUsesZero) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    PoolConfig cfg = poolConfig(3, 4);
    cfg.service.health.quarantine_residency_cycles = 512;
    EnginePool pool{cfg};
    std::vector<unsigned> ids;
    for (unsigned t = 0; t < 6; ++t) ids.push_back(addTenantN(pool, t));
    PoolSupervisor sup{pool, SupervisorConfig{}};
    Rng rng{0x57085708u ^ seed};

    std::vector<std::uint64_t> admitted(ids.size(), 0);
    for (unsigned round = 0; round < 12; ++round) {
      // Traffic burst.
      for (unsigned i = 0; i < 8; ++i) {
        for (std::size_t t = 0; t < ids.size(); ++t) {
          if (pool.submit(ids[t], patternBlock(static_cast<std::uint8_t>(
                                      rng.next())))
                  .admitted) {
            ++admitted[t];
          }
        }
      }
      // Random hardware fault on a random shard, sometimes escalated to a
      // forced quarantine (the storm).
      const unsigned shard =
          static_cast<unsigned>(rng.next() % pool.shards());
      if (!pool.shardRetired(shard)) {
        (void)pool.shardEngine(shard).injectFault(
            FaultSite::RoundKey, 1 + (rng.next() % 6),
            static_cast<unsigned>(rng.next() % 128));
        if (rng.next() % 2 == 0) {
          pool.shardService(shard).forceQuarantine("storm seed " +
                                                   std::to_string(seed));
        }
      }
      sup.poll();
      for (unsigned p = 0; p < 4; ++p) pool.pump();
    }
    pool.runUntilIdle(400000);

    // Every admitted request resolves exactly once, and the invariant held.
    for (std::size_t t = 0; t < ids.size(); ++t) {
      std::uint64_t fetched = 0;
      while (pool.fetch(ids[t]).has_value()) ++fetched;
      EXPECT_EQ(fetched, admitted[t]) << "seed " << seed << " tenant " << t;
    }
    EXPECT_EQ(pool.aggregateStats().wrong_key_uses, 0u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace aesifc::soc
