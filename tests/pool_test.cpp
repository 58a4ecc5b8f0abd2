// EnginePool coverage: residency-capped placement and capacity limits, batched
// correctness against the golden software AES, per-shard fault isolation
// (a fault in shard 0's key store never perturbs shard 1), and the
// timing-leak argument for batching — one tenant's completion-cycle
// sequence is invariant under another tenant's plaintexts — and the drain
// crew's parallel waves match the serial drain bit for bit.

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "accel/key_store.h"
#include "aes/cipher.h"
#include "aes/gcm.h"
#include "soc/pool.h"

namespace aesifc::soc {
namespace {

using accel::FaultSite;

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
  spec.category = n + 1;
  spec.key = keyOf(n);
  spec.queue_depth = 64;
  const PlaceResult r = pool.addTenant(spec);
  EXPECT_TRUE(r.placed);
  return r.tenant;
}

TEST(PoolPlacement, StickyDeterministicAndSpillBounded) {
  EnginePool a{poolConfig(4, 1)};
  EnginePool b{poolConfig(4, 1)};
  for (unsigned t = 0; t < 12; ++t) {
    addTenantN(a, t);
    addTenantN(b, t);
  }
  // Placement is a pure function of the tenant names and arrival order —
  // two pools built identically agree shard-for-shard.
  for (unsigned t = 0; t < 12; ++t) EXPECT_EQ(a.shardOf(t), b.shardOf(t));

  // The residency cap keeps arrivals level: no shard holds more than one
  // tenant above any other.
  std::size_t mn = a.tenantsOn(0), mx = a.tenantsOn(0);
  for (unsigned s = 1; s < a.shards(); ++s) {
    mn = std::min(mn, a.tenantsOn(s));
    mx = std::max(mx, a.tenantsOn(s));
  }
  EXPECT_LE(mx - mn, 1u);
}

// Eight arrivals on four shards land two per shard, although five of the
// names share one rendezvous home: a closed-loop wave lasts as long as its
// most crowded shard needs.
TEST(PoolPlacement, ResidencyCapSpreadsArrivalsEvenly) {
  EnginePool pool{poolConfig(4, 1)};
  for (unsigned t = 0; t < 8; ++t) addTenantN(pool, t);
  for (unsigned s = 0; s < pool.shards(); ++s) {
    EXPECT_EQ(pool.tenantsOn(s), 2u) << "shard " << s;
  }
}

TEST(PoolPlacement, CapacityIsSevenTenantsPerShardThenTypedRejection) {
  EnginePool pool{poolConfig(2, 1)};
  const std::size_t cap =
      2 * (accel::kRoundKeySlots - 1);  // slot 0 reserved per shard
  for (unsigned t = 0; t < cap; ++t) addTenantN(pool, t);
  EXPECT_LE(pool.tenantsOn(0), accel::kRoundKeySlots - 1);
  EXPECT_LE(pool.tenantsOn(1), accel::kRoundKeySlots - 1);
  // A full pool is a typed verdict, not an exception — a gateway can shed
  // the tenant gracefully.
  PoolTenantSpec spec;
  spec.name = "tenant-overflow";
  spec.category = 15;
  spec.key = keyOf(static_cast<unsigned>(cap));
  const PlaceResult r = pool.addTenant(spec);
  EXPECT_FALSE(r.placed);
  EXPECT_EQ(r.error, PlaceError::PoolFull);
  EXPECT_EQ(pool.tenants(), cap);  // nothing half-placed
}

// A shard's key ledger hands out every slot but the supervisor's, and the
// seven keys stay intact although their loads share the eight staging cells.
TEST(PoolPlacement, ShardLedgerHoldsSevenTenantKeys) {
  EnginePool pool{poolConfig(1, 1)};
  const unsigned kCap = accel::kRoundKeySlots - 1;
  for (unsigned t = 0; t < kCap; ++t) addTenantN(pool, t);
  const KeyManager& keys = pool.shardService(0).keys();
  EXPECT_EQ(keys.activeSessions(), kCap);
  EXPECT_FALSE(keys.freeSlot().has_value());
  for (unsigned t = 0; t < kCap; ++t) {
    const auto* s = keys.session(pool.shardService(0).tenantSpec(t).user);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->slot, t + 1);  // slots in arrival order
  }
  PoolTenantSpec spec;
  spec.name = "tenant-overflow";
  spec.key = keyOf(kCap);
  EXPECT_EQ(pool.addTenant(spec).error, PlaceError::PoolFull);

  for (unsigned t = 0; t < kCap; ++t)
    ASSERT_TRUE(pool.submit(t, patternBlock(t)).admitted);
  pool.runUntilIdle(100000);
  for (unsigned t = 0; t < kCap; ++t) {
    const auto c = pool.fetch(t);
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(c->status, CompletionStatus::Ok);
    const auto golden = aes::expandKey(keyOf(t), aes::KeySize::Aes128);
    EXPECT_EQ(c->data, aes::encryptBlock(patternBlock(t), golden))
        << "tenant " << t;
  }
}

TEST(PoolBatch, BatchedResultsMatchGoldenAesInSubmissionOrder) {
  EnginePool pool{poolConfig(2, 16)};
  const unsigned kTenants = 4, kBlocks = 24;
  std::vector<unsigned> ids;
  std::vector<aes::ExpandedKey> golden;
  for (unsigned t = 0; t < kTenants; ++t) {
    ids.push_back(addTenantN(pool, t));
    golden.push_back(aes::expandKey(keyOf(t), aes::KeySize::Aes128));
  }
  for (unsigned i = 0; i < kBlocks; ++i) {
    for (unsigned t = 0; t < kTenants; ++t) {
      const auto r = pool.submit(
          ids[t], patternBlock(static_cast<std::uint8_t>(16 * t + i)));
      ASSERT_TRUE(r.admitted);
    }
  }
  pool.runUntilIdle(100000);

  for (unsigned t = 0; t < kTenants; ++t) {
    // Completions surface oldest-first in exactly submission order, each
    // equal to the golden software AES of the matching plaintext.
    for (unsigned i = 0; i < kBlocks; ++i) {
      auto c = pool.fetch(ids[t]);
      ASSERT_TRUE(c.has_value()) << "tenant " << t << " block " << i;
      EXPECT_EQ(c->status, CompletionStatus::Ok);
      EXPECT_EQ(c->served_by, ServedBy::Hardware);
      const aes::Block expect = aes::encryptBlock(
          patternBlock(static_cast<std::uint8_t>(16 * t + i)), golden[t]);
      EXPECT_EQ(c->data, expect);
    }
    EXPECT_FALSE(pool.fetch(ids[t]).has_value());
  }

  const ServiceStats s = pool.aggregateStats();
  EXPECT_EQ(s.completed_hw, kTenants * kBlocks);
  EXPECT_GT(s.batched_runs, 0u);
  EXPECT_GT(s.batched_blocks, 0u);
}

TEST(PoolIsolation, FaultInShardZeroNeverPerturbsShardOne) {
  EnginePool pool{poolConfig(2, 8)};
  // Fill both shards, then pick one victim tenant per shard.
  std::vector<unsigned> ids;
  for (unsigned t = 0; t < 6; ++t) ids.push_back(addTenantN(pool, t));
  unsigned on0 = 0, on1 = 0;
  bool have0 = false, have1 = false;
  for (unsigned id : ids) {
    if (pool.shardOf(id) == 0 && !have0) { on0 = id; have0 = true; }
    if (pool.shardOf(id) == 1 && !have1) { on1 = id; have1 = true; }
  }
  ASSERT_TRUE(have0 && have1) << "expected tenants on both shards";

  // Flip a round-key bit in shard 0's key store — shard 1 has its own RAM.
  ASSERT_TRUE(pool.shardEngine(0).injectFault(FaultSite::RoundKey, 1, 5));

  const aes::ExpandedKey golden1 =
      aes::expandKey(keyOf(on1), aes::KeySize::Aes128);
  for (unsigned i = 0; i < 8; ++i) {
    ASSERT_TRUE(pool.submit(on0, patternBlock(i)).admitted);
    ASSERT_TRUE(pool.submit(on1, patternBlock(i)).admitted);
  }
  pool.runUntilIdle(100000);

  // Shard 1's tenant is bit-exact golden AES, served by hardware, with no
  // fault activity anywhere on its engine.
  for (unsigned i = 0; i < 8; ++i) {
    auto c = pool.fetch(on1);
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(c->status, CompletionStatus::Ok);
    EXPECT_EQ(c->served_by, ServedBy::Hardware);
    EXPECT_EQ(c->data, aes::encryptBlock(patternBlock(i), golden1));
  }
  EXPECT_EQ(pool.shardEngine(1).stats().faults_detected, 0u);
  EXPECT_EQ(pool.shardEngine(1).stats().fault_aborted, 0u);
  // Shard 0 detected (and fail-secure-handled) the injected fault.
  EXPECT_GE(pool.shardEngine(0).stats().faults_detected, 1u);
  // Shard 0's tenant still resolves every block one way or another (Ok
  // after scrub/reprovision, or an explicit fail-secure verdict).
  unsigned resolved0 = 0;
  while (pool.fetch(on0).has_value()) ++resolved0;
  EXPECT_EQ(resolved0, 8u);
}

// The batching timing-leak argument: tenant B's completion-cycle sequence
// must not depend on tenant A's DATA. (It may depend on A's traffic
// volume — that is the scheduler's public round-robin, not a secret.)
TEST(PoolTiming, CompletionCyclesInvariantUnderOtherTenantsPlaintexts) {
  auto run = [](std::uint8_t a_seed) {
    EnginePool pool{poolConfig(1, 8)};  // one shard => A and B co-resident
    const unsigned a = addTenantN(pool, 0);
    const unsigned b = addTenantN(pool, 1);
    for (unsigned i = 0; i < 16; ++i) {
      EXPECT_TRUE(
          pool.submit(a, patternBlock(static_cast<std::uint8_t>(a_seed + i)))
              .admitted);
      EXPECT_TRUE(pool.submit(b, patternBlock(i)).admitted);
    }
    pool.runUntilIdle(100000);
    std::vector<std::uint64_t> cycles;
    while (auto c = pool.fetch(b)) {
      EXPECT_EQ(c->status, CompletionStatus::Ok);
      cycles.push_back(c->complete_cycle);
    }
    return cycles;
  };
  const auto base = run(0x00);
  const auto other = run(0xa7);
  ASSERT_EQ(base.size(), 16u);
  EXPECT_EQ(base, other);
}

// The same argument on the descriptor ring, where A's and B's 64-block runs
// overlap in the pipe: B's completion cycles may depend on the issue
// schedule, never on A's plaintexts or A's key.
TEST(PoolTiming, RingOverlapCompletionCyclesInvariantUnderOtherTenantsData) {
  struct Outcome {
    std::vector<std::uint64_t> b_cycles;
    std::uint64_t a_cycle = 0;
  };
  auto run = [](std::uint8_t a_seed, std::uint8_t a_key) {
    PoolConfig cfg = poolConfig(1, 64);  // one shard => A and B co-resident
    cfg.service.quota_per_round = 64;
    cfg.service.use_dma_ring = true;
    EnginePool pool{cfg};
    PoolTenantSpec spec;
    spec.name = "tenant-a";
    spec.category = 1;
    spec.key = keyOf(a_key);
    spec.queue_depth = 64;
    const unsigned a = pool.addTenant(spec).tenant;
    const unsigned b = addTenantN(pool, 1);
    for (unsigned i = 0; i < 64; ++i) {
      EXPECT_TRUE(
          pool.submit(a, patternBlock(static_cast<std::uint8_t>(a_seed + i)))
              .admitted);
      EXPECT_TRUE(pool.submit(b, patternBlock(static_cast<std::uint8_t>(i)))
                      .admitted);
    }
    pool.runUntilIdle(100000);
    Outcome o;
    while (auto c = pool.fetch(a)) o.a_cycle = c->complete_cycle;
    while (auto c = pool.fetch(b)) {
      EXPECT_EQ(c->status, CompletionStatus::Ok);
      o.b_cycles.push_back(c->complete_cycle);
    }
    EXPECT_EQ(pool.aggregateStats().dma_ring_runs, 2u);
    return o;
  };
  const Outcome base = run(0x00, 0);
  const Outcome other = run(0xa7, 5);
  ASSERT_EQ(base.b_cycles.size(), 64u);
  EXPECT_EQ(base.b_cycles, other.b_cycles);
  // The runs overlapped: the second finished one descriptor slot (K + 3
  // cycles) after the first, not a whole K + 34-cycle transfer later.
  const std::uint64_t gap = base.b_cycles.back() > base.a_cycle
                                ? base.b_cycles.back() - base.a_cycle
                                : base.a_cycle - base.b_cycles.back();
  EXPECT_EQ(gap, 64u + 3u);
}

// The same argument for AEAD ops overlapped on the GCM sequencer: A's and
// B's seals and opens share the sequencer and the pipe in one round. B's
// completion cycles may depend on A's op lengths, never on A's key,
// plaintexts, AAD bytes, IVs, or whether A's open tags verify.
TEST(PoolTiming, GcmOverlapCompletionCyclesInvariantUnderOtherTenantsData) {
  struct Outcome {
    std::vector<std::uint64_t> b_cycles;
    std::uint64_t a_cycle = 0;
  };
  const unsigned blocks[] = {24, 8, 40, 16};
  const std::size_t aad_bytes[] = {0, 20, 32, 7};
  auto run = [&](std::uint8_t a_seed, unsigned a_key, bool a_tags_valid) {
    EnginePool pool{poolConfig(1, 1)};  // one shard => A and B co-resident
    PoolTenantSpec spec;
    spec.name = "tenant-a";
    spec.category = 1;
    spec.key = keyOf(a_key);
    const unsigned a = pool.addTenant(spec).tenant;
    const unsigned b = addTenantN(pool, 1);
    auto bytes = [](std::size_t n, std::uint8_t seed) {
      std::vector<std::uint8_t> v(n);
      for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<std::uint8_t>(seed + 7 * i);
      return v;
    };
    for (unsigned i = 0; i < 4; ++i) {
      for (const unsigned t : {a, b}) {
        const bool is_a = t == a;
        const auto seed =
            static_cast<std::uint8_t>((is_a ? a_seed : 0x33) + 16 * i);
        const auto pt = bytes(16 * blocks[i], seed);
        const auto aad = bytes(aad_bytes[i], seed + 1);
        const auto iv = bytes(12, seed + 2);
        if (i % 2 == 0) {
          EXPECT_TRUE(pool.submitSeal(t, pt, aad, iv).admitted);
          continue;
        }
        const auto key = aes::expandKey(keyOf(is_a ? a_key : 1),
                                        aes::KeySize::Aes128);
        auto sealed = aes::gcmEncrypt(pt, aad, key, iv);
        if (is_a && !a_tags_valid) sealed.tag[5] ^= 0x20;
        EXPECT_TRUE(
            pool.submitOpen(t, sealed.ciphertext, aad, sealed.tag, iv)
                .admitted);
      }
    }
    pool.runUntilIdle(100000);
    Outcome o;
    while (auto c = pool.fetchAead(a)) o.a_cycle = c->complete_cycle;
    while (auto c = pool.fetchAead(b)) {
      EXPECT_EQ(c->status, CompletionStatus::Ok);
      o.b_cycles.push_back(c->complete_cycle);
    }
    return o;
  };
  const Outcome base = run(0x00, 0, true);
  const Outcome other = run(0xa7, 5, false);
  ASSERT_EQ(base.b_cycles.size(), 4u);
  EXPECT_EQ(base.b_cycles, other.b_cycles);
  EXPECT_EQ(base.a_cycle, other.a_cycle);
  // The ops overlapped: the pipe interleaves A's and B's blocks, so B's
  // last op (16 blocks) finished one issue slot after A's, not 16 blocks
  // plus a ~35-cycle J0/GHASH tail later as when each op ran alone.
  ASSERT_GT(base.b_cycles.back(), base.a_cycle);
  EXPECT_EQ(base.b_cycles.back() - base.a_cycle, 1u);
}

// Two pools built and driven identically, one draining on the crew and one
// serially, agree on every completion, every shard's clock and event count
// and the aggregate counters — across a hot-add (the crew grows) and a
// retirement (a worker idles) between waves.
TEST(PoolDrain, CrewMatchesSerialDrainAcrossResizes) {
  auto make = [](bool parallel) {
    PoolConfig cfg = poolConfig(3, 16);
    cfg.parallel_drain = parallel;
    return std::make_unique<EnginePool>(cfg);
  };
  auto crew = make(true);
  auto serial = make(false);
  std::vector<unsigned> ids;
  auto addBoth = [&](unsigned n) {
    const unsigned id = addTenantN(*crew, n);
    EXPECT_EQ(addTenantN(*serial, n), id);
    EXPECT_EQ(crew->shardOf(id), serial->shardOf(id));
    ids.push_back(id);
  };
  for (unsigned n = 0; n < 6; ++n) addBoth(n);

  for (unsigned wave = 0; wave < 6; ++wave) {
    if (wave == 2) {
      EXPECT_EQ(crew->addShard(), serial->addShard());
      addBoth(6);
      addBoth(7);
    }
    if (wave == 4) {
      const unsigned victim = crew->shardOf(ids[0]);
      ASSERT_TRUE(crew->retireShard(victim));
      ASSERT_TRUE(serial->retireShard(victim));
    }
    std::size_t offered = 0;
    for (unsigned t : ids) {
      const unsigned blocks = 1 + (wave * 7 + t * 5) % 40;
      const bool decrypt = (wave + t) % 3 == 0;
      for (unsigned i = 0; i < blocks; ++i) {
        const aes::Block b =
            patternBlock(static_cast<std::uint8_t>(wave * 31 + t + i));
        const bool admitted = crew->submit(t, b, decrypt).admitted;
        EXPECT_EQ(serial->submit(t, b, decrypt).admitted, admitted);
        if (admitted) ++offered;
      }
    }
    crew->runUntilIdle(1u << 20);
    serial->runUntilIdle(1u << 20);
    std::size_t fetched = 0;
    for (unsigned t : ids) {
      while (auto c = crew->fetch(t)) {
        const auto s = serial->fetch(t);
        ASSERT_TRUE(s.has_value()) << "wave " << wave << " tenant " << t;
        EXPECT_EQ(c->ticket, s->ticket);
        EXPECT_EQ(c->status, s->status);
        EXPECT_EQ(c->status, CompletionStatus::Ok);
        EXPECT_EQ(c->data, s->data);
        EXPECT_EQ(c->submit_cycle, s->submit_cycle);
        EXPECT_EQ(c->complete_cycle, s->complete_cycle);
        ++fetched;
      }
      EXPECT_FALSE(serial->fetch(t).has_value());
    }
    EXPECT_EQ(fetched, offered) << "wave " << wave;
  }
  ASSERT_EQ(crew->shards(), serial->shards());
  for (unsigned s = 0; s < crew->shards(); ++s) {
    EXPECT_EQ(crew->shardEngine(s).cycle(), serial->shardEngine(s).cycle())
        << "shard " << s;
    EXPECT_EQ(crew->shardEngine(s).events().size(),
              serial->shardEngine(s).events().size())
        << "shard " << s;
  }
  EXPECT_EQ(crew->aggregateStats().toJson(), serial->aggregateStats().toJson());

  // The crew is parked now; tearing the pool down wakes and joins it.
  const auto t0 = std::chrono::steady_clock::now();
  crew.reset();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
}

}  // namespace
}  // namespace aesifc::soc
