#include "soc/workload.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace aesifc::soc {
namespace {

using accel::AcceleratorConfig;
using accel::AesAccelerator;
using accel::SecurityMode;

AcceleratorConfig cfgOf(SecurityMode mode, bool coarse = false) {
  AcceleratorConfig c;
  c.mode = mode;
  c.coarse_grained = coarse;
  return c;
}

TEST(Workload, ProtectedMultiTenantTrafficIsCorrect) {
  AesAccelerator acc{cfgOf(SecurityMode::Protected)};
  const auto setup = setupTenants(acc, 3);
  WorkloadConfig w;
  w.blocks_per_user = 128;
  const auto r = runSharedWorkload(acc, setup, w);
  EXPECT_TRUE(r.all_correct) << r.mismatches << " mismatches";
  EXPECT_EQ(r.blocks_completed, 3u * 128u);
}

TEST(Workload, BaselineMultiTenantTrafficIsCorrect) {
  AesAccelerator acc{cfgOf(SecurityMode::Baseline)};
  const auto setup = setupTenants(acc, 3);
  WorkloadConfig w;
  w.blocks_per_user = 128;
  const auto r = runSharedWorkload(acc, setup, w);
  EXPECT_TRUE(r.all_correct);
}

TEST(Workload, ProtectionCostsNoThroughput) {
  // Section 4: protection has no impact on the clock or the pipeline rate;
  // in cycle terms the protected accelerator matches the baseline.
  WorkloadConfig w;
  w.blocks_per_user = 256;

  AesAccelerator base{cfgOf(SecurityMode::Baseline)};
  const auto bs = setupTenants(base, 3);
  const auto br = runSharedWorkload(base, bs, w);

  AesAccelerator prot{cfgOf(SecurityMode::Protected)};
  const auto ps = setupTenants(prot, 3);
  const auto pr = runSharedWorkload(prot, ps, w);

  EXPECT_TRUE(br.all_correct);
  EXPECT_TRUE(pr.all_correct);
  EXPECT_NEAR(static_cast<double>(pr.cycles), static_cast<double>(br.cycles),
              br.cycles * 0.02);
}

TEST(Workload, FineGrainedBeatsCoarseGrained) {
  // The motivation of Section 1: coarse-grained sharing drains the deep
  // pipeline on every user switch.
  WorkloadConfig w;
  w.blocks_per_user = 64;

  AesAccelerator fine{cfgOf(SecurityMode::Protected, /*coarse=*/false)};
  const auto fs = setupTenants(fine, 3);
  const auto fr = runSharedWorkload(fine, fs, w);

  AesAccelerator coarse{cfgOf(SecurityMode::Protected, /*coarse=*/true)};
  const auto cs = setupTenants(coarse, 3);
  const auto cr = runSharedWorkload(coarse, cs, w);

  EXPECT_TRUE(fr.all_correct);
  EXPECT_TRUE(cr.all_correct);
  EXPECT_GT(fr.blocks_per_cycle, cr.blocks_per_cycle * 1.2)
      << "fine=" << fr.blocks_per_cycle << " coarse=" << cr.blocks_per_cycle;
}

TEST(Workload, SaturatedPipelineApproachesOneBlockPerCycle) {
  AesAccelerator acc{cfgOf(SecurityMode::Protected)};
  const auto setup = setupTenants(acc, 4);
  WorkloadConfig w;
  w.blocks_per_user = 512;
  const auto r = runSharedWorkload(acc, setup, w);
  EXPECT_TRUE(r.all_correct);
  // 4 users x 2-deep submit windows keep the arbiter busy most cycles.
  EXPECT_GT(r.blocks_per_cycle, 0.8);
}

TEST(Workload, LatencyNeverBelowPipelineDepth) {
  AesAccelerator acc{cfgOf(SecurityMode::Protected)};
  const auto setup = setupTenants(acc, 2);
  WorkloadConfig w;
  w.blocks_per_user = 64;
  const auto r = runSharedWorkload(acc, setup, w);
  EXPECT_GE(r.latency.min, 30u);
}

TEST(Workload, SetupRejectsTooManyTenants) {
  AesAccelerator acc{cfgOf(SecurityMode::Protected)};
  EXPECT_THROW(setupTenants(acc, 12), std::invalid_argument);
}

// --- Closed-loop wave driver over the engine pool ---------------------------

PoolConfig wavePool(std::size_t high_watermark) {
  PoolConfig cfg;
  cfg.shards = 2;
  cfg.service.batch_size = 4;
  cfg.service.quota_per_round = 16;
  cfg.service.global_high_watermark = high_watermark;
  cfg.service.overflow = OverflowPolicy::RejectNew;
  return cfg;
}

// Queue depth 8, so a tenant offering more items than that is refused and
// tops up again in a later wave.
std::vector<unsigned> addWaveTenants(EnginePool& pool, unsigned tenants) {
  std::vector<unsigned> ids;
  for (unsigned t = 0; t < tenants; ++t) {
    PoolTenantSpec spec;
    spec.name = "wave-" + std::to_string(t);
    spec.category = t + 1;
    spec.key.assign(16, static_cast<std::uint8_t>(0x30 + t));
    spec.queue_depth = 8;
    const PlaceResult placed = pool.addTenant(spec);
    EXPECT_TRUE(placed.placed);
    ids.push_back(placed.tenant);
  }
  return ids;
}

void expectIdentity(const Conservation& c) {
  EXPECT_EQ(c.offered, c.ok + c.suppressed + c.shed + c.rejected + c.failed +
                           c.still_queued)
      << c.toJson();
}

// Each tenant's completions reach on_done in ticket order, and every item
// comes back once.
struct TicketOrder {
  std::vector<std::uint64_t> last;
  std::vector<unsigned> seen;
  explicit TicketOrder(std::size_t tenants) : last(tenants), seen(tenants) {}
  void note(unsigned t, std::uint64_t ticket) {
    EXPECT_GT(ticket, last.at(t)) << "tenant " << t;
    last[t] = ticket;
    ++seen[t];
  }
};

TEST(ClosedWaves, BlockRunConservesEveryOffer) {
  EnginePool pool{wavePool(4096)};
  const auto ids = addWaveTenants(pool, 4);
  constexpr unsigned kPerTenant = 20;
  TicketOrder order{ids.size()};
  const Conservation c = runClosedWaves(
      pool, ids, kPerTenant,
      [&](unsigned t, unsigned i) {
        aes::Block b{};
        b[0] = static_cast<std::uint8_t>(i);
        b[1] = static_cast<std::uint8_t>(t);
        return pool.submit(ids[t], b);
      },
      [&](unsigned t, const Completion& done) { order.note(t, done.ticket); });
  expectIdentity(c);
  EXPECT_EQ(c.ok, ids.size() * kPerTenant);
  EXPECT_GT(c.rejected, 0u);  // the depth-8 queues refused and were retried
  EXPECT_EQ(c.still_queued, 0u);
  EXPECT_EQ(c.offered, pool.aggregateStats().offered);
  for (const unsigned n : order.seen) EXPECT_EQ(n, kPerTenant);
}

TEST(ClosedWaves, AeadRunConservesEveryOffer) {
  EnginePool pool{wavePool(4096)};
  const auto ids = addWaveTenants(pool, 4);
  constexpr unsigned kPerTenant = 12;
  TicketOrder order{ids.size()};
  const Conservation c = runClosedWaves(
      pool, ids, kPerTenant,
      [&](unsigned t, unsigned i) {
        const std::vector<std::uint8_t> pt(32, static_cast<std::uint8_t>(i));
        const std::vector<std::uint8_t> iv(12, static_cast<std::uint8_t>(t));
        return pool.submitSeal(ids[t], pt, {}, iv);
      },
      [&](unsigned t, const AeadCompletion& done) {
        order.note(t, done.ticket);
        EXPECT_EQ(done.data.size(), 32u);
      });
  expectIdentity(c);
  EXPECT_EQ(c.ok, ids.size() * kPerTenant);
  EXPECT_EQ(c.still_queued, 0u);
  EXPECT_EQ(c.offered, pool.aggregateStats().aead_offered);
  for (const unsigned n : order.seen) EXPECT_EQ(n, kPerTenant);
}

// A pool that refuses every submit (high watermark 0: Backpressure) brings
// nothing back, so the driver stops after one wave and every offer is a
// rejection.
TEST(ClosedWaves, StuckPoolEndsAfterOneWave) {
  EnginePool pool{wavePool(0)};
  const auto ids = addWaveTenants(pool, 3);
  unsigned offers = 0, completions = 0;
  const Conservation c = runClosedWaves(
      pool, ids, 5,
      [&](unsigned t, unsigned) {
        ++offers;
        return pool.submit(ids[t], aes::Block{});
      },
      [&](unsigned, const Completion&) { ++completions; });
  expectIdentity(c);
  EXPECT_EQ(offers, ids.size());  // one refused offer per tenant, one wave
  EXPECT_EQ(completions, 0u);
  EXPECT_EQ(c.offered, ids.size());
  EXPECT_EQ(c.rejected, c.offered);
  EXPECT_EQ(c.still_queued, 0u);
  EXPECT_EQ(pool.aggregateStats().rejected_backpressure, c.offered);
}

}  // namespace
}  // namespace aesifc::soc
