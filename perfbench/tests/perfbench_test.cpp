// Tests of the benchmark itself: a mis-counting benchmark is a correctness
// bug, so its percentile rules, its conservation identity and its seeded
// schedule are pinned here. Run with `python3 perfbench/run.py --self-test`.

#include <gtest/gtest.h>

#include <numeric>

#include "bench_core.h"
#include "layers.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::vector<std::uint64_t> oneTo(std::uint64_t n) {
  std::vector<std::uint64_t> v(n);
  std::iota(v.begin(), v.end(), 1);
  return v;
}

TEST(Percentile, NearestRank) {
  EXPECT_EQ(percentile(oneTo(100), 500), 50u);
  EXPECT_EQ(percentile(oneTo(100), 990), 99u);
  EXPECT_EQ(percentile(oneTo(100), 1000), 100u);
  EXPECT_EQ(percentile(oneTo(1000), 990), 990u);
  EXPECT_EQ(percentile(oneTo(7), 500), 4u);
  EXPECT_EQ(percentile({42}, 990), 42u);
  EXPECT_EQ(percentile({}, 500), 0u);
  // Order of the input does not matter.
  EXPECT_EQ(percentile({9, 1, 5, 3, 7}, 500), 5u);
}

TEST(Percentile, TenSamplesBeyondTheRank) {
  EXPECT_FALSE(percentileSupported(999, 990));
  EXPECT_TRUE(percentileSupported(1000, 990));
  EXPECT_FALSE(percentileSupported(19, 500));
  EXPECT_TRUE(percentileSupported(20, 500));
  EXPECT_FALSE(percentileSupported(0, 500));
}

TEST(Percentile, MedianOfDoubles) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Percentile, QuantileOfDoublesUsesTheSameRank) {
  const std::vector<double> v = {5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 8.0, 7.0, 6.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(v, 900), 9.0);  // nearest rank: the 9th of 10
  EXPECT_DOUBLE_EQ(quantile(v, 500), 5.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1000), 10.0);
  EXPECT_DOUBLE_EQ(quantile({}, 900), 0.0);
}

Accounting balanced() {
  Accounting a;
  a.svc_offered = a.submits = 110;
  a.svc_refused = a.refused = 6;
  a.svc_ok = a.ok = 90;
  a.suppressed = 5;
  a.rejected = 2;
  a.failed = 3;
  a.still_queued = 4;
  return a;
}

TEST(Conservation, BalancedRunPasses) {
  EXPECT_TRUE(balanced().violations().empty());
}

TEST(Conservation, OneUnaccountedRequestFails) {
  Accounting a = balanced();
  a.svc_offered = a.submits = 111;
  const auto v = a.violations();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].find("offered ="), std::string::npos);
}

TEST(Conservation, SourcesMustAgree) {
  Accounting a = balanced();
  a.ok -= 1;  // the benchmark lost a completion the service delivered
  a.failed += 1;
  const auto v = a.violations();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].find("service ok"), std::string::npos);
}

TEST(Conservation, ShedTicketsFailEvenWhenBalanced) {
  Accounting a = balanced();
  a.ok -= 10;
  a.svc_ok -= 10;
  a.shed = a.svc_shed = 10;
  const auto v = a.violations();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].find("shed"), std::string::npos);
}

TEST(Schedule, SameSeedSameSchedule) {
  OpenLoopParams p;
  p.horizon = 5000;
  const auto a = openLoopSchedule(7, p);
  const auto b = openLoopSchedule(7, p);
  ASSERT_FALSE(a.bursts.empty());
  EXPECT_EQ(a, b);
  EXPECT_NE(a, openLoopSchedule(8, p));
}

TEST(Schedule, RateBurstsAndOrder) {
  OpenLoopParams p;
  p.horizon = 200000;
  const auto s = openLoopSchedule(3, p);
  std::uint64_t blocks = 0, decrypts = 0;
  for (std::size_t i = 0; i < s.bursts.size(); ++i) {
    const Burst& b = s.bursts[i];
    blocks += b.count;
    decrypts += b.decrypt;
    EXPECT_GE(b.count, p.min_burst);
    EXPECT_LE(b.count, p.max_burst);
    EXPECT_LE(b.first + b.count, s.blocks.size());
    EXPECT_LT(b.due, p.horizon);
    EXPECT_LT(b.tenant, p.tenants);
    if (i) {
      EXPECT_LE(s.bursts[i - 1].due, b.due);
    }
  }
  EXPECT_EQ(blocks, s.blocks.size());
  const double rate = static_cast<double>(blocks) / p.horizon;
  EXPECT_NEAR(rate, p.blocks_per_cycle, 0.05 * p.blocks_per_cycle);
  EXPECT_NEAR(static_cast<double>(decrypts) / s.bursts.size(), p.decrypt_share,
              0.05);
}

WorkloadSpec small(const std::string& name) {
  WorkloadSpec w = workloadByName(name);
  w.blocks_per_tenant = 256;
  w.open.horizon = 6000;
  w.aead_ops_per_tenant = 12;
  return w;
}

TEST(Episode, EveryWorkloadBalancesAndVerifies) {
  for (const auto& name : workloadNames()) {
    SCOPED_TRACE(name);
    const EpisodeResult r = runEpisode(small(name), 11);
    EXPECT_TRUE(r.acct.violations().empty());
    EXPECT_EQ(r.wrong_outputs, 0u);
    EXPECT_GT(r.ops, 0u);
    EXPECT_EQ(r.ok_ops, r.ops);
    EXPECT_EQ(r.latency.size(), r.ok_ops);
    EXPECT_GT(r.slowestShardCycles(), 0u);
  }
}

TEST(Episode, DeviceCyclesRepeatExactly) {
  for (const auto& name : workloadNames()) {
    SCOPED_TRACE(name);
    const EpisodeResult a = runEpisode(small(name), 5);
    const EpisodeResult b = runEpisode(small(name), 5);
    EXPECT_EQ(a.shard_cycles, b.shard_cycles);
    EXPECT_EQ(a.latency, b.latency);
  }
}

TEST(Episode, ShedOldestConfigurationFailsTheIdentityCheck) {
  WorkloadSpec w = small("bulk_ecb");
  w.pool.service.overflow = aesifc::soc::OverflowPolicy::ShedOldest;
  w.queue_depth = 8;
  w.pool.service.global_high_watermark = 1u << 20;
  const EpisodeResult r = runEpisode(w, 11);
  EXPECT_GT(r.acct.svc_shed, 0u);
  EXPECT_LT(r.ok_ops, r.ops);
  const auto v = r.acct.violations();
  ASSERT_FALSE(v.empty());
  EXPECT_NE(v.back().find("shed"), std::string::npos);
  EXPECT_EQ(r.wrong_outputs, 0u);  // what did complete Ok is still right
}

TEST(Episode, TracedEpisodeReportsEveryLayer) {
  const WorkloadSpec w = small("mixed_open");
  LayerProbe probe{w};
  const EpisodeResult r = runEpisode(w, 2, &probe);
  EXPECT_TRUE(r.acct.violations().empty());
  std::vector<std::string> failures;
  const auto m = probe.report(0.05, failures);
  EXPECT_TRUE(failures.empty());
  auto value = [&m](const std::string& name) {
    for (const auto& x : m)
      if (x.name == name) return x.value;
    ADD_FAILURE() << "missing " << name;
    return 0.0;
  };
  EXPECT_GT(value("service.mean_run_blocks"), 1.0);
  EXPECT_GT(value("engine.issue_util"), 0.0);
  EXPECT_GE(value("driver.cycles_over_ideal"), 1.0);
  EXPECT_LT(value("ring.lost_cycles_per_desc"), 80.0);
  EXPECT_EQ(value("engine.suppressed"), 0.0);
}

TEST(Anchors, PaperIdentitiesHold) {
  EXPECT_EQ(loneBlockResidency(), 30u);
  EXPECT_EQ(protectionExtraCycles(3), 0u);
}

}  // namespace
}  // namespace perfbench
