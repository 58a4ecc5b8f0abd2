// DMA data-path study: the descriptor-ring engine against the service batch
// path (MMIO and ring-routed), batch 1/4/16/64, plus the seeded
// descriptor-ring fault campaign whose two invariants
// (wrong_plaintext_releases == 0, cross_label_writes == 0) CI gates via
// tools/bench_gate.py --assert-zero.
//
// Records (stdout lines prefixed `JSON `):
//   {"bench":"dma_path","path":p,"batch":b,...}  one per path x batch cell.
//     `amortization_floor` states the analytic claim the ring path must
//     keep: with >= 16 blocks per descriptor, total ring overhead (fetch,
//     validation, completion) stays under 80 cycles per descriptor, i.e.
//     blocks_per_device_cycle >= batch / (batch + 80). Zero for cells the
//     claim doesn't cover (small batches, non-ring paths).
//   {"bench":"dma_ring_campaign","seed":s,...}   16 hardened seeds; CI
//     asserts the invariant fields are zero in every record.
//   {"bench":"dma_ring_campaign_unhardened",...} the control: the same
//     campaign on the unhardened engine, violations expected and reported.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "accel/accelerator.h"
#include "accel/driver.h"
#include "aes/modes.h"
#include "common/rng.h"
#include "soc/attacks.h"
#include "soc/dma.h"
#include "soc/service.h"

namespace {

using aesifc::accel::AcceleratorConfig;
using aesifc::accel::AesAccelerator;
using aesifc::accel::SecurityMode;
using aesifc::lattice::Principal;
using namespace aesifc::soc;

constexpr unsigned kBatches[] = {1, 4, 16, 64};
constexpr unsigned kTotalBlocks = 256;  // per cell, matching other benches

struct PathResult {
  std::uint64_t blocks = 0;
  std::uint64_t device_cycles = 0;
  double throughput() const {
    return device_cycles ? static_cast<double>(blocks) / device_cycles : 0.0;
  }
};

struct Rig {
  AesAccelerator acc{AcceleratorConfig{SecurityMode::Protected, 10, 64,
                                       false}};
  unsigned alice = 0;
  std::vector<std::uint8_t> key;
  HostMemory mem{64 * 1024};

  Rig() {
    alice = acc.addUser(Principal::user("alice", 1));
    aesifc::Rng rng{0xd3a};
    key.resize(16);
    for (auto& b : key) b = static_cast<std::uint8_t>(rng.next());
    if (!aesifc::accel::loadKey128(acc, alice, 1, 0, key,
                                   acc.principal(alice).authority.c)) {
      std::abort();
    }
    mem.setPageLabel(0, mem.size(), acc.principal(alice).authority);
    std::vector<std::uint8_t> data(16 * 1024);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
    mem.writeBytes(0x4000, data);  // src staging
  }
};

// Descriptor-ring engine: one published descriptor per batch, futures
// resolved from completion events.
PathResult runRingPath(unsigned batch) {
  Rig rig;
  DmaRingEngine eng{rig.acc, rig.mem, /*hardened=*/true};
  DmaRingConfig rc;
  rc.desc_base = 0x0000;
  rc.desc_slots = 8;
  rc.chain_base = 0x400;
  rc.chain_slots = 16;
  rc.comp_base = 0x800;
  rc.comp_slots = 8;
  const unsigned ch = eng.addChannel(rc);
  DmaRingDriver drv{eng, rig.mem, ch, rc};
  PathResult r;
  const std::uint64_t start = rig.acc.cycle();
  for (unsigned done = 0; done < kTotalBlocks; done += batch) {
    DmaDescriptor d;
    d.user = rig.alice;
    d.key_slot = 1;
    d.mode = DmaMode::EcbEncrypt;
    d.src = 0x4000;
    d.dst = 0x8000;
    d.len = 16 * batch;
    const auto seq = drv.submitChain({d});
    if (!seq) std::abort();
    const auto* c = drv.wait(*seq, 1u << 20);
    if (c == nullptr || c->status != DmaError::None) std::abort();
    r.blocks += c->blocks;
  }
  r.device_cycles = rig.acc.cycle() - start;
  return r;
}

// Service batch path, MMIO (use_ring=false) or ring-routed (true).
PathResult runServicePath(unsigned batch, bool use_ring) {
  Rig rig;
  ServiceConfig cfg;
  cfg.batch_size = batch;
  cfg.quota_per_round = batch;
  cfg.global_high_watermark = 2 * batch + 8;
  cfg.use_dma_ring = use_ring;
  cfg.dma_ring_min_run = 16;
  AccelService svc{rig.acc, cfg};
  TenantSpec spec;
  spec.user = rig.alice;
  spec.key_slot = 1;
  spec.key = rig.key;
  spec.key_conf = rig.acc.principal(rig.alice).authority.c;
  spec.queue_depth = batch + 4;
  const unsigned t = svc.addTenant(spec);

  aesifc::Rng rng{0xb10c};
  PathResult r;
  const std::uint64_t start = rig.acc.cycle();
  for (unsigned done = 0; done < kTotalBlocks; done += batch) {
    for (unsigned i = 0; i < batch; ++i) {
      aesifc::aes::Block blk;
      for (auto& b : blk) b = static_cast<std::uint8_t>(rng.next());
      if (!svc.submit(t, blk).admitted) std::abort();
    }
    svc.runUntilIdle(1u << 20);
    for (unsigned i = 0; i < batch; ++i) {
      const auto c = svc.fetch(t);
      if (!c || c->status != CompletionStatus::Ok) std::abort();
      ++r.blocks;
    }
  }
  r.device_cycles = rig.acc.cycle() - start;
  return r;
}

void printPathMatrix() {
  std::printf("DMA data paths, 256 blocks/cell, blocks per device cycle\n");
  std::printf("%-14s %6s %10s %14s %10s\n", "path", "batch", "blocks",
              "device_cycles", "blk/cyc");
  const char* names[] = {"ring", "service", "service_ring"};
  for (const unsigned batch : kBatches) {
    PathResult res[3] = {runRingPath(batch), runServicePath(batch, false),
                         runServicePath(batch, true)};
    for (unsigned p = 0; p < 3; ++p) {
      const bool ring_path = (p == 0 || p == 2);
      const double floor = (ring_path && batch >= 16)
                               ? static_cast<double>(batch) / (batch + 80.0)
                               : 0.0;
      std::printf("%-14s %6u %10llu %14llu %10.4f\n", names[p], batch,
                  static_cast<unsigned long long>(res[p].blocks),
                  static_cast<unsigned long long>(res[p].device_cycles),
                  res[p].throughput());
      std::printf(
          "JSON {\"bench\":\"dma_path\",\"path\":\"%s\",\"batch\":%u,"
          "\"blocks\":%llu,\"device_cycles\":%llu,"
          "\"blocks_per_device_cycle\":%.4f,\"amortization_floor\":%.4f}\n",
          names[p], batch, static_cast<unsigned long long>(res[p].blocks),
          static_cast<unsigned long long>(res[p].device_cycles),
          res[p].throughput(), floor);
    }
  }
  std::printf("\n");
}

void printRingCampaign() {
  std::printf(
      "Hardened descriptor-ring fault campaign, 16 seeds x 21 descriptors\n"
      "(scripted scenarios: torn ownership, chain loop, OOB next, completion\n"
      "overflow, stalled ring, stale generation, TOCTOU dst rewrite, reset of\n"
      "a channel overlapping another; plus random ring/host faults at rate\n"
      "0.02)\n");
  std::printf("%6s %6s %8s %8s %6s %6s %6s %6s\n", "seed", "ok", "refused",
              "unresl", "wdog", "recov", "wrongP", "xlabel");
  RingCampaignReport total;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    RingCampaignConfig cfg;
    cfg.seed = seed;
    cfg.descriptors = 21;
    const auto rep = runRingFaultCampaign(cfg);
    std::printf("%6llu %6llu %8llu %8llu %6llu %6llu %6llu %6llu\n",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(rep.completed_ok),
                static_cast<unsigned long long>(rep.refused),
                static_cast<unsigned long long>(rep.unresolved),
                static_cast<unsigned long long>(rep.watchdog_fires),
                static_cast<unsigned long long>(rep.recoveries),
                static_cast<unsigned long long>(rep.wrong_plaintext_releases),
                static_cast<unsigned long long>(rep.cross_label_writes));
    std::printf(
        "JSON {\"bench\":\"dma_ring_campaign\",\"seed\":%llu,"
        "\"descriptors\":%u,\"completed_ok\":%llu,\"refused\":%llu,"
        "\"unresolved\":%llu,\"watchdog_fires\":%llu,\"recoveries\":%llu,"
        "\"ring_faults\":%llu,\"wrong_plaintext_releases\":%llu,"
        "\"cross_label_writes\":%llu,\"partial_writes\":%llu,"
        "\"reset_isolation_failures\":%llu}\n",
        static_cast<unsigned long long>(seed), rep.descriptors,
        static_cast<unsigned long long>(rep.completed_ok),
        static_cast<unsigned long long>(rep.refused),
        static_cast<unsigned long long>(rep.unresolved),
        static_cast<unsigned long long>(rep.watchdog_fires),
        static_cast<unsigned long long>(rep.recoveries),
        static_cast<unsigned long long>(rep.ring_faults),
        static_cast<unsigned long long>(rep.wrong_plaintext_releases),
        static_cast<unsigned long long>(rep.cross_label_writes),
        static_cast<unsigned long long>(rep.partial_writes),
        static_cast<unsigned long long>(rep.reset_isolation_failures));
    total += rep;
  }

  // The control: same campaign, unhardened engine. NOT gated (violations
  // are the point) — it documents what the hardening buys.
  RingCampaignReport un;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    RingCampaignConfig cfg;
    cfg.seed = seed;
    cfg.descriptors = 21;
    cfg.hardened = false;
    un += runRingFaultCampaign(cfg);
  }
  std::printf(
      "\nhardened:   %llu ok / %llu refused, 0 wrong-plaintext, 0 "
      "cross-label\nunhardened: %llu ok / %llu refused, %llu "
      "wrong-plaintext, %llu cross-label, %llu partial\n\n",
      static_cast<unsigned long long>(total.completed_ok),
      static_cast<unsigned long long>(total.refused),
      static_cast<unsigned long long>(un.completed_ok),
      static_cast<unsigned long long>(un.refused),
      static_cast<unsigned long long>(un.wrong_plaintext_releases),
      static_cast<unsigned long long>(un.cross_label_writes),
      static_cast<unsigned long long>(un.partial_writes));
  std::printf(
      "JSON {\"bench\":\"dma_ring_campaign_unhardened\",\"seeds\":16,"
      "\"descriptors\":%u,\"completed_ok\":%llu,\"refused\":%llu,"
      "\"wrong_plaintext_releases\":%llu,\"cross_label_writes\":%llu,"
      "\"partial_writes\":%llu}\n\n",
      un.descriptors, static_cast<unsigned long long>(un.completed_ok),
      static_cast<unsigned long long>(un.refused),
      static_cast<unsigned long long>(un.wrong_plaintext_releases),
      static_cast<unsigned long long>(un.cross_label_writes),
      static_cast<unsigned long long>(un.partial_writes));
}

void BM_RingPath(benchmark::State& state) {
  const unsigned batch = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(runRingPath(batch));
  }
}
BENCHMARK(BM_RingPath)->Arg(1)->Arg(16)->Arg(64)
    ->Unit(benchmark::kMillisecond);

void BM_RingCampaign(benchmark::State& state) {
  for (auto _ : state) {
    RingCampaignConfig cfg;
    cfg.seed = 2019;
    cfg.descriptors = 21;
    benchmark::DoNotOptimize(runRingFaultCampaign(cfg));
  }
}
BENCHMARK(BM_RingCampaign)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  printPathMatrix();
  printRingCampaign();
  // AESIFC_BENCH_SMOKE: CI keep-alive mode — the matrices and JSON records
  // above already ran; skip the Google Benchmark timing loops.
  if (aesifc::bench::smokeMode()) return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
