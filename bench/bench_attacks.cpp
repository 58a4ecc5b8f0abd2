// Reproduces the attack scenarios of Sections 2.1 and 3.1-3.2 end to end:
// scratchpad overflow (Fig. 5), debug-port key theft ([10]), key misuse /
// master-key declassification (3.2.2), and config tampering (3.2.4) — each
// against the baseline (succeeds) and the protected design (blocked).

#include <benchmark/benchmark.h>

#include <cstdio>

#include "soc/attacks.h"

namespace {

using namespace aesifc;
using accel::SecurityMode;

const char* yn(bool b) { return b ? "yes" : "no"; }

void printAttacks() {
  std::printf("==============================================================\n");
  std::printf("Attack gallery: baseline vs protected\n");
  std::printf("==============================================================\n");

  for (const auto mode : {SecurityMode::Baseline, SecurityMode::Protected}) {
    const char* name =
        mode == SecurityMode::Baseline ? "BASELINE" : "PROTECTED";
    std::printf("\n[%s]\n", name);

    const auto ov = soc::runScratchpadOverflow(mode);
    std::printf(
        "  Fig.5 scratchpad overflow : overflow write landed=%s, Alice key "
        "corrupted=%s, blocked events=%zu\n",
        yn(ov.overflow_write_succeeded), yn(ov.alice_key_corrupted),
        ov.blocked_events);

    const auto dbg = soc::runDebugPortAttack(mode);
    std::printf(
        "  debug-port key theft      : Eve enabled debug=%s, full key "
        "recovered=%s, supervisor read ok=%s\n",
        yn(dbg.eve_enabled_debug), yn(dbg.key_recovered),
        yn(dbg.supervisor_read_ok));

    const auto mis = soc::runKeyMisuseAttack(mode);
    std::printf(
        "  key misuse (Sec 3.2.2)    : master-key output released=%s, "
        "Alice-key output released=%s, own key ok=%s, supervisor master "
        "ok=%s, declass rejected=%zu\n",
        yn(mis.master_key_output_released), yn(mis.alice_key_output_released),
        yn(mis.own_key_ok), yn(mis.supervisor_master_ok),
        mis.declass_rejected);
    std::printf(
        "  key-slot overwrite        : Alice slot overwritten=%s, master "
        "slot overwritten=%s\n",
        yn(mis.alice_slot_overwritten), yn(mis.master_slot_overwritten));

    const auto cfg = soc::runConfigTamper(mode);
    std::printf(
        "  config tamper (Sec 3.2.4) : Eve write landed=%s, supervisor write "
        "landed=%s, public read ok=%s\n",
        yn(cfg.eve_write_landed), yn(cfg.supervisor_write_landed),
        yn(cfg.eve_read_ok));

    const auto dma = soc::runDmaTheftAttack(mode);
    std::printf(
        "  DMA theft (Fig. 2)        : Alice plaintext stolen=%s, src read "
        "blocked=%s, dst write blocked=%s, legit DMA ok=%s\n",
        yn(dma.alice_plaintext_stolen), yn(dma.src_read_blocked),
        yn(dma.dst_write_blocked), yn(dma.legit_dma_ok));
  }
  std::printf("\n");
}

void BM_ScratchpadOverflow(benchmark::State& state) {
  const auto mode = state.range(0) ? SecurityMode::Protected
                                   : SecurityMode::Baseline;
  for (auto _ : state) {
    benchmark::DoNotOptimize(soc::runScratchpadOverflow(mode));
  }
}
BENCHMARK(BM_ScratchpadOverflow)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_KeyMisuse(benchmark::State& state) {
  const auto mode = state.range(0) ? SecurityMode::Protected
                                   : SecurityMode::Baseline;
  for (auto _ : state) {
    benchmark::DoNotOptimize(soc::runKeyMisuseAttack(mode));
  }
}
BENCHMARK(BM_KeyMisuse)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  printAttacks();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
