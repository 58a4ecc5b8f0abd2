// Reproduces the Section 4 performance claims: the 30-stage pipeline takes
// one block per cycle (51.2 Gbps at the prototype's 400 MHz), protection
// costs no cycles, and fine-grained sharing beats the coarse-grained
// (drain-between-users) policy the paper's introduction argues against.
// The engine-pool matrix runs its closed-loop waves through
// soc::runClosedWaves, which returns each record's conservation identity,
// and checks every completion through soc::Oracle.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "accel/driver.h"
#include "soc/metrics.h"
#include "soc/pool.h"
#include "soc/workload.h"

namespace {

using namespace aesifc;
using accel::AcceleratorConfig;
using accel::AesAccelerator;
using accel::SecurityMode;
using bench::envOr;
using bench::smokeMode;

soc::WorkloadResult run(SecurityMode mode, bool coarse, unsigned users,
                        unsigned blocks) {
  AcceleratorConfig cfg;
  cfg.mode = mode;
  cfg.coarse_grained = coarse;
  AesAccelerator acc{cfg};
  const auto setup = soc::setupTenants(acc, users);
  soc::WorkloadConfig w;
  w.blocks_per_user = blocks;
  return soc::runSharedWorkload(acc, setup, w);
}

void printThroughput() {
  std::printf("==============================================================\n");
  std::printf("Reproduction of Sec. 4 performance (throughput & latency)\n");
  std::printf("==============================================================\n");
  std::printf("Paper: 1 block/cycle, 30-cycle latency, 51.2 Gbps @ 400 MHz\n\n");
  std::printf("%-10s %-9s %-7s %-9s %-12s %-12s %-10s %-9s\n", "design",
              "sharing", "users", "blocks", "cycles", "blocks/cyc",
              "Gbps@400", "lat(avg)");

  struct Row {
    SecurityMode mode;
    bool coarse;
    unsigned users;
  };
  const Row rows[] = {
      {SecurityMode::Baseline, false, 4},  {SecurityMode::Protected, false, 4},
      {SecurityMode::Baseline, true, 4},   {SecurityMode::Protected, true, 4},
      {SecurityMode::Protected, false, 1}, {SecurityMode::Protected, false, 2},
  };
  for (const auto& row : rows) {
    const unsigned blocks = 512;
    const auto r = run(row.mode, row.coarse, row.users, blocks);
    const double gbps = r.blocks_per_cycle * 128.0 * 400e6 / 1e9;
    std::printf("%-10s %-9s %-7u %-9llu %-12llu %-12.3f %-10.1f %-9.1f%s\n",
                row.mode == SecurityMode::Baseline ? "baseline" : "protected",
                row.coarse ? "coarse" : "fine", row.users,
                static_cast<unsigned long long>(r.blocks_completed),
                static_cast<unsigned long long>(r.cycles), r.blocks_per_cycle,
                gbps, r.latency.mean, r.all_correct ? "" : "  [MISMATCH!]");
  }
  std::printf(
      "\nFine-grained sharing sustains ~1 block/cycle => ~51.2 Gbps at the\n"
      "prototype clock; coarse-grained sharing pays a 30-cycle drain per\n"
      "user switch. Protection costs no cycles (same rows).\n\n");

  // Fig. 1 at system level: one AES-256-capable engine serving mixed key
  // sizes concurrently (shorter schedules pass through the spare stages).
  AcceleratorConfig cfg;
  cfg.max_rounds = 14;
  AesAccelerator acc{cfg};
  const unsigned sup = acc.addUser(lattice::Principal::supervisor());
  (void)sup;
  const unsigned a = acc.addUser(lattice::Principal::user("a128", 1));
  const unsigned b = acc.addUser(lattice::Principal::user("b256", 2));
  std::vector<std::uint8_t> k128(16, 0x11), k256(32, 0x22);
  accel::loadKeyBytes(acc, a, 1, 0, k128, aes::KeySize::Aes128,
                      lattice::Conf::category(1));
  accel::loadKeyBytes(acc, b, 2, 2, k256, aes::KeySize::Aes256,
                      lattice::Conf::category(2));
  std::uint64_t id = 1, done = 0;
  const std::uint64_t t0 = acc.cycle();
  for (unsigned i = 0; i < 512; ++i) {
    acc.submit({id++, i % 2 ? b : a, i % 2 ? 2u : 1u, false, {}});
    acc.tick();
    while (acc.fetchOutput(a)) ++done;
    while (acc.fetchOutput(b)) ++done;
  }
  acc.run(60);
  while (acc.fetchOutput(a)) ++done;
  while (acc.fetchOutput(b)) ++done;
  const double bpc = static_cast<double>(done) / (acc.cycle() - t0);
  std::printf("Mixed AES-128 + AES-256 tenants on one 42-stage engine:\n"
              "  %llu blocks in %llu cycles = %.3f blocks/cycle "
              "(uniform 42-cycle latency)\n\n",
              static_cast<unsigned long long>(done),
              static_cast<unsigned long long>(acc.cycle() - t0), bpc);
}

// --- Engine-pool throughput matrix -----------------------------------------------
//
// The committed baseline (bench/BENCH_throughput.json): shards x batch_size
// sweep over the sharded EnginePool, closed-loop with a fixed tenant set.
// Two throughput views per cell: blocks per wall-second (host simulation
// speed) and blocks per device cycle of the slowest shard (what real
// silicon would see — shards are independent hardware and run in parallel).
// Admission is RejectNew, so a full queue refuses the submit (the driver
// retries it next wave) instead of shedding an admitted block, and only Ok
// completions count as work. After the clock stops, every completion goes
// through the campaign oracle, whose counts the record carries flat
// (wrong_outputs ... unresolved, all 0).

struct PoolRunResult {
  std::uint64_t blocks = 0;         // Ok completions
  std::uint64_t not_ok = 0;         // completions with any other status
  std::uint64_t device_cycles = 0;  // slowest shard's cycle counter
  double wall_seconds = 0.0;
  soc::LatencyStats latency;  // submit->complete, device cycles
  soc::ServiceStats stats;
  soc::Conservation cons;
  soc::OracleCounts oracle;  // every completion, checked after the clock
};

PoolRunResult runPool(unsigned shards, unsigned batch, unsigned tenants,
                      unsigned blocks_per_tenant) {
  soc::PoolConfig cfg;
  cfg.shards = shards;
  cfg.service.batch_size = batch;
  cfg.service.quota_per_round = batch < 16 ? 16 : batch;
  cfg.service.global_high_watermark = 1u << 20;
  cfg.service.overflow = soc::OverflowPolicy::RejectNew;
  soc::EnginePool pool{cfg};
  const std::vector<unsigned> ids = bench::addTenants(pool, tenants);

  // Closed loop in waves (soc::runClosedWaves): queues stay deep enough
  // for batching to engage, and latency still covers the queue wait, not
  // just the pipe.
  std::vector<std::uint64_t> lat;
  lat.reserve(static_cast<std::size_t>(tenants) * blocks_per_tenant);
  soc::Oracle oracle = bench::tenantOracle(tenants);
  std::vector<std::pair<unsigned, soc::Completion>> fetched;
  PoolRunResult r;
  const auto t0 = std::chrono::steady_clock::now();
  r.cons = soc::runClosedWaves(
      pool, ids, blocks_per_tenant,
      [&](unsigned t, unsigned i) {
        aes::Block b{};
        for (unsigned j = 0; j < 16; ++j)
          b[j] = static_cast<std::uint8_t>(i + 7 * j + t);
        const soc::SubmitResult res = pool.submit(ids[t], b);
        oracle.offer(t, res.admitted, res.ticket, b);
        return res;
      },
      [&](unsigned t, const soc::Completion& c) {
        fetched.emplace_back(t, c);
        if (c.status != soc::CompletionStatus::Ok) {
          ++r.not_ok;
          return;
        }
        ++r.blocks;
        lat.push_back(c.complete_cycle - c.submit_cycle);
      });
  r.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  for (const auto& [t, c] : fetched) oracle.check(t, c);
  r.oracle = oracle.counts();
  r.device_cycles = pool.maxShardCycle();
  r.latency = soc::latencyStats(lat);
  r.stats = pool.aggregateStats();
  return r;
}

void printPoolThroughput() {
  const unsigned blocks = envOr("AESIFC_BENCH_BLOCKS", smokeMode() ? 8 : 256);
  const unsigned tenants = 6;  // fits a single shard (7 slots) for the 1-shard cell
  std::printf("==============================================================\n");
  std::printf("Engine pool: shards x batch_size throughput matrix\n");
  std::printf("==============================================================\n");
  std::printf("%u tenants, %u blocks each, closed loop, sticky-hash placement\n\n",
              tenants, blocks);
  std::printf("%-7s %-6s %-9s %-11s %-12s %-12s %-8s %-8s %-8s\n", "shards",
              "batch", "blocks", "dev-cycles", "blk/dev-cyc", "blk/sec",
              "p50", "p95", "p99");

  double base_bps = 0.0;  // 1 shard, batch 1 — the unsharded unbatched floor
  for (const unsigned shards : {1u, 2u, 4u, 8u}) {
    for (const unsigned batch : {1u, 4u, 16u, 64u}) {
      const auto r = runPool(shards, batch, tenants, blocks);
      const double bpc = r.device_cycles
                             ? static_cast<double>(r.blocks) /
                                   static_cast<double>(r.device_cycles)
                             : 0.0;
      const double bps =
          r.wall_seconds > 0.0
              ? static_cast<double>(r.blocks) / r.wall_seconds
              : 0.0;
      if (shards == 1 && batch == 1) base_bps = bps;
      std::printf("%-7u %-6u %-9llu %-11llu %-12.3f %-12.0f %-8.0f %-8.0f %-8.0f\n",
                  shards, batch, static_cast<unsigned long long>(r.blocks),
                  static_cast<unsigned long long>(r.device_cycles), bpc, bps,
                  r.latency.p50, r.latency.p95, r.latency.p99);
      std::printf(
          "JSON {\"bench\":\"throughput_pool\",\"shards\":%u,\"batch\":%u,"
          "\"tenants\":%u,\"blocks\":%llu,\"not_ok\":%llu,"
          "\"device_cycles\":%llu,"
          "\"blocks_per_device_cycle\":%.4f,\"blocks_per_sec\":%.1f,"
          "\"wall_seconds\":%.4f,\"speedup_vs_1shard_batch1\":%.2f,"
          "\"latency\":%s,\"stats\":%s,\"conservation\":%s,%s}\n",
          shards, batch, tenants, static_cast<unsigned long long>(r.blocks),
          static_cast<unsigned long long>(r.not_ok),
          static_cast<unsigned long long>(r.device_cycles), bpc, bps,
          r.wall_seconds, base_bps > 0.0 ? bps / base_bps : 0.0,
          r.latency.toJson().c_str(), r.stats.toJson().c_str(),
          r.cons.toJson().c_str(),
          bench::jsonMembers(r.oracle.toJson()).c_str());
    }
  }
  std::printf(
      "\nBatching fills the 30-stage pipe (K blocks in ~K+30 shard cycles\n"
      "instead of K x 31); sharding multiplies that by independent engines\n"
      "whose device cycles run concurrently in silicon.\n\n");
}

void BM_ProtectedFineGrained(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        run(SecurityMode::Protected, false,
            static_cast<unsigned>(state.range(0)), 128));
  }
}
BENCHMARK(BM_ProtectedFineGrained)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_BaselineFineGrained(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(run(SecurityMode::Baseline, false, 4, 128));
  }
}
BENCHMARK(BM_BaselineFineGrained)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  printThroughput();
  printPoolThroughput();
  // AESIFC_BENCH_SMOKE: CI keep-alive mode — the tables above already ran
  // (at tiny scale); skip the Google Benchmark timing loops entirely.
  if (smokeMode()) return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
