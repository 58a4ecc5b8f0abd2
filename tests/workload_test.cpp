#include "soc/workload.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "aes/cipher.h"
#include "aes/gcm.h"

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
  EXPECT_EQ(r.oracle, OracleCounts{}) << r.oracle.toJson();
  EXPECT_EQ(r.blocks_completed, 3u * 128u);
}

// A response the workload never asked for (another bus master's block on a
// tenant's port) is counted by the oracle as an unknown ticket, not skipped.
TEST(Workload, StrayResponseCountsAsUnknownTicket) {
  AesAccelerator acc{cfgOf(SecurityMode::Protected)};
  const auto setup = setupTenants(acc, 2);
  ASSERT_TRUE(acc.submit(accel::BlockRequest{1u << 30, setup.users[1],
                                             setup.key_slots[1], false, {}}));
  WorkloadConfig w;
  w.blocks_per_user = 16;
  const auto r = runSharedWorkload(acc, setup, w);
  EXPECT_EQ(r.oracle.unknown_tickets, 1u) << r.oracle.toJson();
  EXPECT_EQ(r.oracle.wrong_outputs + r.oracle.out_of_order, 0u);
  EXPECT_FALSE(r.all_correct);
}

TEST(Workload, BaselineMultiTenantTrafficIsCorrect) {
  AesAccelerator acc{cfgOf(SecurityMode::Baseline)};
  const auto setup = setupTenants(acc, 3);
  WorkloadConfig w;
  w.blocks_per_user = 128;
  const auto r = runSharedWorkload(acc, setup, w);
  EXPECT_TRUE(r.all_correct);
  EXPECT_EQ(r.oracle, OracleCounts{}) << r.oracle.toJson();
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

// An oracle over addWaveTenants' keys. Each tenant's completions must reach
// on_done golden, once and in ticket order, and the oracle's identity must
// equal the one runClosedWaves returns.
Oracle waveOracle(std::size_t tenants) {
  Oracle o;
  for (unsigned t = 0; t < tenants; ++t)
    o.addTenant(std::vector<std::uint8_t>(16, 0x30 + t));
  return o;
}

void expectOracleAgrees(const Oracle& o, const Conservation& c) {
  EXPECT_EQ(o.counts(), OracleCounts{}) << o.counts().toJson();
  EXPECT_EQ(o.conservation(c.still_queued).toJson(), c.toJson());
}

TEST(ClosedWaves, BlockRunConservesEveryOffer) {
  EnginePool pool{wavePool(4096)};
  const auto ids = addWaveTenants(pool, 4);
  constexpr unsigned kPerTenant = 20;
  Oracle oracle = waveOracle(ids.size());
  const Conservation c = runClosedWaves(
      pool, ids, kPerTenant,
      [&](unsigned t, unsigned i) {
        aes::Block b{};
        b[0] = static_cast<std::uint8_t>(i);
        b[1] = static_cast<std::uint8_t>(t);
        const SubmitResult res = pool.submit(ids[t], b);
        oracle.offer(t, res.admitted, res.ticket, b);
        return res;
      },
      [&](unsigned t, const Completion& done) { oracle.check(t, done); });
  expectIdentity(c);
  expectOracleAgrees(oracle, c);
  EXPECT_EQ(c.ok, ids.size() * kPerTenant);
  EXPECT_GT(c.rejected, 0u);  // the depth-8 queues refused and were retried
  EXPECT_EQ(c.still_queued, 0u);
  EXPECT_EQ(c.offered, pool.aggregateStats().offered);
}

TEST(ClosedWaves, AeadRunConservesEveryOffer) {
  EnginePool pool{wavePool(4096)};
  const auto ids = addWaveTenants(pool, 4);
  constexpr unsigned kPerTenant = 12;
  Oracle oracle = waveOracle(ids.size());
  const Conservation c = runClosedWaves(
      pool, ids, kPerTenant,
      [&](unsigned t, unsigned i) {
        const std::vector<std::uint8_t> pt(32, static_cast<std::uint8_t>(i));
        const std::vector<std::uint8_t> iv(12, static_cast<std::uint8_t>(t));
        const SubmitResult res = pool.submitSeal(ids[t], pt, {}, iv);
        oracle.offerSeal(t, res.admitted, res.ticket, pt, {}, iv);
        return res;
      },
      [&](unsigned t, const AeadCompletion& done) { oracle.check(t, done); });
  expectIdentity(c);
  expectOracleAgrees(oracle, c);
  EXPECT_EQ(c.ok, ids.size() * kPerTenant);
  EXPECT_EQ(c.still_queued, 0u);
  EXPECT_EQ(c.offered, pool.aggregateStats().aead_offered);
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

// --- The campaign oracle -----------------------------------------------------

// Tenant 0 under key 0x30.., with an encrypt of b0 = {0, ...} and a decrypt
// of b1 = {1, 0, ...} admitted under tickets 7 and 8.
struct OracleFixture : ::testing::Test {
  const std::vector<std::uint8_t> key = std::vector<std::uint8_t>(16, 0x30);
  const aes::ExpandedKey ek = aes::expandKey(key, aes::KeySize::Aes128);
  const aes::Block b0{}, b1{1};
  Oracle o;
  void SetUp() override {
    o.addTenant(key);
    o.offer(0, true, 7, b0);
    o.offer(0, true, 8, b1, /*decrypt=*/true);
  }
  Completion ok(std::uint64_t ticket, const aes::Block& data) const {
    Completion c;
    c.ticket = ticket;
    c.data = data;
    return c;
  }
  Completion ok0() const { return ok(7, aes::encryptBlock(b0, ek)); }
  Completion ok1() const { return ok(8, aes::decryptBlock(b1, ek)); }
};

TEST_F(OracleFixture, GoldenInOrderCompletionsCountNothing) {
  o.check(0, ok0());
  o.check(0, ok1());
  EXPECT_EQ(o.counts(), OracleCounts{}) << o.counts().toJson();
  EXPECT_EQ(o.outstanding(0), 0u);
}

TEST_F(OracleFixture, WrongOkDataIsAWrongOutput) {
  Completion c = ok0();
  c.data[5] ^= 1;
  o.check(0, c);
  EXPECT_EQ(o.counts().wrong_outputs, 1u);
  // A non-Ok completion carries no data to check.
  o.check(0, 8, CompletionStatus::FaultAborted, aes::Block{});
  EXPECT_EQ(o.counts().wrong_outputs, 1u);
}

TEST_F(OracleFixture, WrongSealTagIsAWrongTag) {
  const std::vector<std::uint8_t> msg(20, 0x5a), iv(12, 0x01);
  o.offerSeal(0, true, 9, msg, {}, iv);
  o.check(0, ok0());
  o.check(0, ok1());
  const auto want = aes::gcmEncrypt(msg, {}, ek, iv);
  AeadCompletion c;
  c.ticket = 9;
  c.data = want.ciphertext;
  c.tag = want.tag;
  c.tag[0] ^= 0x80;
  o.check(0, c);
  EXPECT_EQ(o.counts().wrong_tags, 1u);
  EXPECT_EQ(o.counts().wrong_outputs, 0u);
}

TEST_F(OracleFixture, SecondFetchOfATicketIsADuplicate) {
  o.check(0, ok0());
  o.check(0, ok0());
  EXPECT_EQ(o.counts().duplicate_resolutions, 1u);
  EXPECT_EQ(o.counts().unknown_tickets, 0u);
}

TEST_F(OracleFixture, TicketNeverAdmittedToTheFetcherIsUnknown) {
  o.addTenant(key);
  o.check(1, ok0());  // tenant 0's ticket, fetched by tenant 1
  o.check(0, ok(99, aes::Block{}));
  EXPECT_EQ(o.counts().unknown_tickets, 2u);
  EXPECT_EQ(o.outstanding(0), 2u);
}

TEST_F(OracleFixture, YoungerTicketFetchedFirstIsOutOfOrder) {
  o.check(0, ok1());
  o.check(0, ok0());
  EXPECT_EQ(o.counts().out_of_order, 1u);
  EXPECT_EQ(o.counts().wrong_outputs, 0u);  // each still matched its item
}

TEST_F(OracleFixture, UnfetchedTicketsAreUnresolved) {
  o.check(0, ok0());
  EXPECT_EQ(o.counts().unresolved, 1u);
  EXPECT_EQ(o.conservation(1).still_queued, 1u);
}

TEST(Oracle, StatusesFillTheirConservationBuckets) {
  const std::vector<std::uint8_t> key(16, 0);
  const aes::Block golden = aes::encryptBlock(
      aes::Block{}, aes::expandKey(key, aes::KeySize::Aes128));
  Oracle o;
  o.addTenant(key);
  o.offer(0, false, 0, aes::Block{});  // refused: rejected at the offer
  const CompletionStatus all[] = {
      CompletionStatus::Ok,       CompletionStatus::Suppressed,
      CompletionStatus::TimedOut, CompletionStatus::FaultAborted,
      CompletionStatus::Dropped,  CompletionStatus::Rejected,
      CompletionStatus::Shed,     CompletionStatus::AuthFailed};
  std::uint64_t ticket = 0;
  for (const CompletionStatus st : all) {
    o.offer(0, true, ++ticket, aes::Block{});
    o.check(0, ticket, st, golden);
  }
  EXPECT_EQ(o.conservation().toJson(),
            R"({"offered":9,"ok":1,"suppressed":1,"shed":1,"rejected":2,)"
            R"("failed":4,"still_queued":0})");
  EXPECT_EQ(o.counts(), OracleCounts{}) << o.counts().toJson();
}

}  // namespace
}  // namespace aesifc::soc
