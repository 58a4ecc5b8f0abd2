// Reproduces Fig. 1's structure (N = 10/12/14 rounds by key length, each
// block through SubBytes/ShiftRows/MixColumns/AddRoundKey + key expansion)
// and benchmarks the software golden model plus the 3-stages-per-round
// pipeline's cycle counts.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "accel/accelerator.h"
#include "accel/driver.h"
#include "accel/pipeline.h"
#include "aes/cipher.h"
#include "aes/gcm.h"
#include "aes/ttable.h"
#include "common/rng.h"
#include "soc/service.h"

namespace {

using namespace aesifc;

unsigned pipelineLatency(aes::KeySize ks) {
  Rng rng{1};
  std::vector<std::uint8_t> key(aes::keyBytes(ks));
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.next());
  accel::RoundKeyRam ram;
  ram.store(0, aes::expandKey(key, ks), lattice::Conf::bottom(),
            lattice::Label::publicTrusted());
  accel::AesPipeline p{aes::numRounds(ks), ram};

  accel::StageSlot s;
  s.valid = true;
  s.total_rounds = aes::numRounds(ks);
  auto out = p.advance(s);  // entry edge: the block lands in stage 0
  unsigned cycles = 0;      // edges spent traversing the 3N stages
  while (!out && cycles < 100) {
    out = p.advance(std::nullopt);
    ++cycles;
  }
  return cycles;
}

void printFig1() {
  std::printf("==============================================================\n");
  std::printf("Reproduction of Fig. 1: AES flow, rounds per key size\n");
  std::printf("==============================================================\n");
  std::printf("%-10s %-8s %-12s %-16s\n", "key bits", "N", "round keys",
              "pipeline cycles");
  for (const auto ks :
       {aes::KeySize::Aes128, aes::KeySize::Aes192, aes::KeySize::Aes256}) {
    std::printf("%-10u %-8u %-12u %-16u\n", aes::keyBytes(ks) * 8,
                aes::numRounds(ks), aes::numRounds(ks) + 1,
                pipelineLatency(ks));
  }
  std::printf("(3 micro-op stages per round: N=10 gives the paper's 30-cycle"
              " latency)\n\n");
}

void BM_EncryptBlock(benchmark::State& state) {
  const auto ks = static_cast<aes::KeySize>(state.range(0));
  Rng rng{2};
  std::vector<std::uint8_t> key(aes::keyBytes(ks));
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.next());
  const auto ek = aes::expandKey(key, ks);
  aes::Block pt{};
  for (auto _ : state) {
    benchmark::DoNotOptimize(aes::encryptBlock(pt, ek));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_EncryptBlock)
    ->Arg(static_cast<int>(aes::KeySize::Aes128))
    ->Arg(static_cast<int>(aes::KeySize::Aes192))
    ->Arg(static_cast<int>(aes::KeySize::Aes256));

void BM_DecryptBlock(benchmark::State& state) {
  Rng rng{3};
  std::vector<std::uint8_t> key(16);
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.next());
  const auto ek = aes::expandKey(key, aes::KeySize::Aes128);
  aes::Block ct{};
  for (auto _ : state) {
    benchmark::DoNotOptimize(aes::decryptBlock(ct, ek));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_DecryptBlock);

// The word-wise kernels the pipe finishes a block with at its exit:
// rounds 1..N after the entry AddRoundKey (compare BM_EncryptBlock, the
// byte-wise reference). Decryption goes through Td tables and unmixes
// each round key as it reads it.
template <auto kRounds>
void BM_RoundsWordWise(benchmark::State& state) {
  const auto ks = static_cast<aes::KeySize>(state.range(0));
  Rng rng{5};
  std::vector<std::uint8_t> key(aes::keyBytes(ks));
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.next());
  const auto ek = aes::expandKey(key, ks);
  aes::State s{};
  for (auto _ : state) {
    kRounds(s, ek.round_keys, ek.rounds());
    benchmark::DoNotOptimize(s);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_RoundsWordWise<aes::encryptRounds>)
    ->Name("BM_EncryptRoundsWordWise")
    ->Arg(static_cast<int>(aes::KeySize::Aes128))
    ->Arg(static_cast<int>(aes::KeySize::Aes256));
BENCHMARK(BM_RoundsWordWise<aes::decryptRounds>)
    ->Name("BM_DecryptRoundsWordWise")
    ->Arg(static_cast<int>(aes::KeySize::Aes128))
    ->Arg(static_cast<int>(aes::KeySize::Aes256));

// One 32-step Shoup multiply by H, the work the GHASH unit's four stages
// share per block.
void BM_GhashKeyMul(benchmark::State& state) {
  Rng rng{6};
  aes::Tag128 h{}, x{};
  for (auto& b : h) b = static_cast<std::uint8_t>(rng.next());
  for (auto& b : x) b = static_cast<std::uint8_t>(rng.next());
  const aes::GhashKey gk{h};
  for (auto _ : state) {
    x = gk.mul(x);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_GhashKeyMul);

// One hardened accelerator tick with a full pipe: a tenant keeps its input
// queue fed and fetches its output every cycle, the busy tick a serving
// shard pays. Arg 1 decrypts.
void BM_AcceleratorTick(benchmark::State& state) {
  accel::AesAccelerator acc{accel::AcceleratorConfig{}};
  const unsigned u = acc.addUser(lattice::Principal::user("alice", 1));
  const std::vector<std::uint8_t> key(16, 0x2b);
  if (!accel::loadKey128(acc, u, 1, 0, key, lattice::Conf::category(1))) {
    state.SkipWithError("key load refused");
    return;
  }
  const bool decrypt = state.range(0) != 0;
  std::uint64_t id = 1;
  std::vector<accel::BlockResponse> out;
  for (auto _ : state) {
    if (acc.pendingInputs(u) < 2)
      acc.submit(accel::BlockRequest{id++, u, 1, decrypt, {}});
    acc.tick();
    out.clear();
    acc.fetchOutputs(u, out);
  }
  state.counters["stages_occupied"] = acc.pipeline().validCount();
}
BENCHMARK(BM_AcceleratorTick)->Arg(0)->Arg(1);

// One session run on a hardened engine of range(1) blocks (5 is
// mixed_open's mean run length; a run of K blocks takes K + 30 cycles).
// With no hook the device takes the run whole and one run span carries
// it; range(0) = 1 attaches a no-op tick hook, which turns spans off, so
// the run is submitted and ticked cycle by cycle.
void BM_SessionShortRun(benchmark::State& state) {
  accel::AesAccelerator acc{accel::AcceleratorConfig{}};
  const unsigned u = acc.addUser(lattice::Principal::user("alice", 1));
  const std::vector<std::uint8_t> key(16, 0x2b);
  if (!accel::loadKey128(acc, u, 1, 0, key, lattice::Conf::category(1))) {
    state.SkipWithError("key load refused");
    return;
  }
  if (state.range(0) != 0) acc.setTickHook([] {});
  accel::AccelSession session{acc, u, 1};
  const std::vector<aes::Block> blocks(
      static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.encryptBlocks(blocks));
  }
  state.counters["cycles_per_run"] = benchmark::Counter(
      static_cast<double>(acc.cycle()) /
      static_cast<double>(state.iterations()));
}
BENCHMARK(BM_SessionShortRun)
    ->ArgNames({"hook", "blocks"})
    ->ArgsProduct({{0, 1}, {5, 64}});

// One scheduling round of a service with two tenants and nothing queued:
// the idle cycle every pump pays (run(1), a quiet span on an idle engine)
// plus the round's queue scan.
void BM_ServicePumpIdle(benchmark::State& state) {
  accel::AesAccelerator acc{accel::AcceleratorConfig{}};
  soc::AccelService svc{acc, soc::ServiceConfig{}};
  acc.addUser(lattice::Principal::supervisor());
  for (unsigned t = 0; t < 2; ++t) {
    soc::TenantSpec spec;
    spec.user = acc.addUser(lattice::Principal::user("t", t + 1));
    spec.key_slot = t + 1;
    spec.key.assign(16, static_cast<std::uint8_t>(0x2b + t));
    spec.key_conf = lattice::Conf::category(t + 1);
    svc.addTenant(spec);
  }
  const std::uint64_t c0 = acc.cycle();
  for (auto _ : state) {
    benchmark::DoNotOptimize(svc.pump());
  }
  state.counters["cycles_per_pump"] = benchmark::Counter(
      static_cast<double>(acc.cycle() - c0) /
      static_cast<double>(state.iterations()));
}
BENCHMARK(BM_ServicePumpIdle);

// One 4-block GCM seal (96-bit IV, no AAD) through a session on a hardened
// engine: the per-op cost of the AEAD path, H derived once up front.
void BM_GcmSealShort(benchmark::State& state) {
  accel::AesAccelerator acc{accel::AcceleratorConfig{}};
  const unsigned u = acc.addUser(lattice::Principal::user("alice", 1));
  const std::vector<std::uint8_t> key(16, 0x2b);
  if (!accel::loadKey128(acc, u, 1, 0, key, lattice::Conf::category(1))) {
    state.SkipWithError("key load refused");
    return;
  }
  accel::AccelSession session{acc, u, 1};
  const std::vector<std::uint8_t> pt(64, 0x3c), iv(12, 0x5d);
  if (!session.gcmSeal(pt, {}, iv)) {
    state.SkipWithError("seal failed");
    return;
  }
  const std::uint64_t c0 = acc.cycle();
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.gcmSeal(pt, {}, iv));
  }
  state.counters["cycles_per_op"] = benchmark::Counter(
      static_cast<double>(acc.cycle() - c0) /
      static_cast<double>(state.iterations()));
}
BENCHMARK(BM_GcmSealShort);

void BM_KeyExpansion(benchmark::State& state) {
  const auto ks = static_cast<aes::KeySize>(state.range(0));
  std::vector<std::uint8_t> key(aes::keyBytes(ks), 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(aes::expandKey(key, ks));
  }
}
BENCHMARK(BM_KeyExpansion)
    ->Arg(static_cast<int>(aes::KeySize::Aes128))
    ->Arg(static_cast<int>(aes::KeySize::Aes256));

void BM_PipelineAdvance(benchmark::State& state) {
  Rng rng{4};
  std::vector<std::uint8_t> key(16);
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.next());
  accel::RoundKeyRam ram;
  ram.store(0, aes::expandKey(key, aes::KeySize::Aes128),
            lattice::Conf::bottom(), lattice::Label::publicTrusted());
  accel::AesPipeline p{10, ram};
  accel::StageSlot s;
  s.valid = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.advance(s));
  }
  // Each advance is one simulated 2.5 ns cycle of the 30-stage pipeline.
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_PipelineAdvance);

}  // namespace

int main(int argc, char** argv) {
  printFig1();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
