// Runs every attack from the paper against both accelerator builds and
// narrates the outcomes: the stall covert channel (Fig. 8), the scratchpad
// buffer overflow (Fig. 5), debug-port key theft, master-key misuse and
// key-slot overwrite (Section 3.2.2), configuration tampering (Section
// 3.2.4), and cross-user DMA theft. Exits 1 if an attack lands on the
// protected design or fails to land on the baseline.
//
// Build & run:  ./build/examples/attack_gallery

#include <cstdio>

#include "soc/attacks.h"

using namespace aesifc;
using accel::SecurityMode;

namespace {

void banner(const char* s) {
  std::printf("\n=== %s "
              "=====================================================\n",
              s);
}

// Attack outcomes that differ from the expected ones: every attack lands
// on the baseline and is blocked by the protected design.
int mismatches = 0;

void expectLanded(SecurityMode mode, bool landed) {
  if (landed != (mode == SecurityMode::Baseline)) ++mismatches;
}

}  // namespace

int main() {
  banner("1. Covert timing channel through pipeline stalls (Fig. 8)");
  for (const auto mode : {SecurityMode::Baseline, SecurityMode::Protected}) {
    const auto r = soc::runTimingChannelAttack(mode);
    std::printf(
        "  %-10s Eve decodes Alice's secret with %.0f%% accuracy "
        "(%.3f bits of mutual information per window)\n",
        mode == SecurityMode::Baseline ? "baseline:" : "protected:",
        100.0 * r.accuracy, r.mi_bits);
    expectLanded(mode, r.mi_bits >= 0.05);
  }
  std::printf("  The protected design denies cross-level stalls and parks\n"
              "  Alice's outputs in the overflow buffer instead.\n");

  banner("2. Key scratchpad buffer overflow (Fig. 5)");
  for (const auto mode : {SecurityMode::Baseline, SecurityMode::Protected}) {
    const auto r = soc::runScratchpadOverflow(mode);
    std::printf("  %-10s overflowing write %s; Alice's key %s\n",
                mode == SecurityMode::Baseline ? "baseline:" : "protected:",
                r.overflow_write_succeeded ? "LANDED" : "blocked",
                r.alice_key_corrupted ? "CORRUPTED" : "intact");
    expectLanded(mode, r.overflow_write_succeeded || r.alice_key_corrupted);
  }

  banner("3. Debug peripheral key theft (trace-buffer attack)");
  for (const auto mode : {SecurityMode::Baseline, SecurityMode::Protected}) {
    const auto r = soc::runDebugPortAttack(mode);
    std::printf(
        "  %-10s Eve %s the debug port; full AES key %s; supervisor "
        "debug access %s\n",
        mode == SecurityMode::Baseline ? "baseline:" : "protected:",
        r.eve_enabled_debug ? "ENABLED" : "could not enable",
        r.key_recovered ? "RECOVERED" : "safe",
        r.supervisor_read_ok ? "works" : "broken");
    expectLanded(mode, r.eve_enabled_debug || r.key_recovered);
  }

  banner("4. Inappropriate key use / master key (Section 3.2.2)");
  for (const auto mode : {SecurityMode::Baseline, SecurityMode::Protected}) {
    const auto r = soc::runKeyMisuseAttack(mode);
    std::printf(
        "  %-10s master-key oracle %s; foreign-key decryption %s; "
        "legitimate use %s\n",
        mode == SecurityMode::Baseline ? "baseline:" : "protected:",
        r.master_key_output_released ? "OPEN" : "closed (declass rejected)",
        r.alice_key_output_released ? "WORKS FOR EVE" : "suppressed",
        r.own_key_ok && r.supervisor_master_ok ? "unaffected" : "BROKEN");
    std::printf(
        "  %-10s Eve's key stored over Alice's slot %s; over the master "
        "slot %s\n",
        mode == SecurityMode::Baseline ? "baseline:" : "protected:",
        r.alice_slot_overwritten ? "LANDED" : "refused (owner rule)",
        r.master_slot_overwritten ? "LANDED" : "refused (owner rule)");
    expectLanded(mode, r.master_key_output_released ||
                           r.alice_key_output_released);
    expectLanded(mode, r.alice_slot_overwritten || r.master_slot_overwritten);
  }

  banner("5. Configuration register tampering (Section 3.2.4)");
  for (const auto mode : {SecurityMode::Baseline, SecurityMode::Protected}) {
    const auto r = soc::runConfigTamper(mode);
    std::printf(
        "  %-10s unprivileged write %s; supervisor write %s; public "
        "reads %s\n",
        mode == SecurityMode::Baseline ? "baseline:" : "protected:",
        r.eve_write_landed ? "LANDED" : "blocked",
        r.supervisor_write_landed ? "works" : "broken",
        r.eve_read_ok ? "work" : "broken");
    expectLanded(mode, r.eve_write_landed);
  }

  banner("6. Cross-user DMA buffer theft (Fig. 2's DMA block)");
  for (const auto mode : {SecurityMode::Baseline, SecurityMode::Protected}) {
    const auto r = soc::runDmaTheftAttack(mode);
    std::printf(
        "  %-10s Alice's plaintext %s via DMA; foreign-page writes %s; "
        "Alice's own DMA %s (%.1f cyc/block)\n",
        mode == SecurityMode::Baseline ? "baseline:" : "protected:",
        r.alice_plaintext_stolen ? "STOLEN" : "safe",
        r.dst_write_blocked ? "blocked" : "LAND",
        r.legit_dma_ok ? "works" : "broken", r.cycles_per_block);
    expectLanded(mode, r.alice_plaintext_stolen || !r.dst_write_blocked);
  }

  if (mismatches != 0) {
    std::printf("\nMISMATCH: %d attack outcome(s) differ from \"lands on "
                "the baseline, blocked when protected\".\n",
                mismatches);
    return 1;
  }
  std::printf("\nAll six attack families succeed against the baseline and "
              "are blocked by the IFC-protected design.\n");
  return 0;
}
