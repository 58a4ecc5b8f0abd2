#pragma once
// Attack drivers reproducing the vulnerability scenarios of Sections 2.1
// and 3.1-3.2 against the behavioral accelerator, in both Baseline and
// Protected modes. Each driver returns a structured result the tests and
// benches assert on: the baseline must exhibit the attack, the protected
// design must block it.

#include <cstdint>
#include <string>
#include <vector>

#include "accel/types.h"
#include "common/counters.h"
#include "soc/dma.h"
#include "soc/metrics.h"

namespace aesifc::soc {

// --- Section 3.2.5 / Fig. 8: stall covert timing channel ---------------------
// Alice modulates her receiver readiness with a secret bit string; Eve
// streams blocks and decodes the secret from her own completion counts.
struct TimingChannelParams {
  unsigned secret_bits = 48;
  unsigned window = 64;  // cycles per secret bit
  std::uint64_t seed = 1;
};

struct TimingChannelResult {
  double mi_bits = 0.0;   // mutual information secret->decoded, per bit
  double accuracy = 0.0;  // fraction of secret bits Eve recovers
  LatencyStats eve_latency;
  std::uint64_t stalled_cycles = 0;
  std::uint64_t denied_stalls = 0;
};

TimingChannelResult runTimingChannelAttack(accel::SecurityMode mode,
                                           const TimingChannelParams& p = {});

// --- Ablation: acceptance-delay channel ------------------------------------------
// Eve sends one sparse probe per window while only Alice's traffic is in
// flight; if Alice's granted stall may delay Eve's *acceptance* (stage-only
// meet, the paper's literal Fig. 8 rule), Eve's probe latency decodes
// Alice's secret. Our strengthened rule (meet over stages AND waiting
// inputs) closes it.
struct AcceptanceDelayResult {
  double mi_bits = 0.0;
  double accuracy = 0.0;
  LatencyStats probe_latency;
  std::uint64_t stalled_cycles = 0;
  std::uint64_t denied_stalls = 0;
};

AcceptanceDelayResult runAcceptanceDelayAttack(bool meet_includes_inputs,
                                               const TimingChannelParams& p = {});

// --- Section 3.2.3 / Fig. 5: scratchpad buffer overflow ----------------------
// Eve is allocated two cells but writes three, clobbering Alice's key cell.
struct OverflowResult {
  bool overflow_write_succeeded = false;  // the out-of-authority write landed
  bool alice_key_corrupted = false;       // Alice's re-expanded key is wrong
  std::size_t blocked_events = 0;
};

OverflowResult runScratchpadOverflow(accel::SecurityMode mode);

// --- Section 2.1 [10]: debug peripheral key theft -----------------------------
// Eve (a) tries to enable the debug port herself and (b) reads Alice's
// in-flight round-0 state while knowing the plaintext, recovering the key.
struct DebugPortResult {
  bool eve_enabled_debug = false;   // config tamper landed
  bool key_recovered = false;       // recovered key equals Alice's key
  bool supervisor_read_ok = false;  // legitimate high-conf read still works
  std::size_t blocked_events = 0;
};

DebugPortResult runDebugPortAttack(accel::SecurityMode mode);

// --- Section 3.2.2: inappropriate key use -------------------------------------
// Eve encrypts with the master key (slot 0) and decrypts with Alice's key.
struct KeyMisuseResult {
  bool master_key_output_released = false;  // Eve got ciphertext under master key
  bool alice_key_output_released = false;   // Eve decrypted with Alice's key
  bool supervisor_master_ok = false;        // supervisor may use the master key
  bool own_key_ok = false;                  // normal operation is unaffected
  std::size_t declass_rejected = 0;
};

KeyMisuseResult runKeyMisuseAttack(accel::SecurityMode mode);

// --- Fig. 2's DMA block: cross-user buffer theft -------------------------------
// Eve publishes a descriptor on her own ring channel asking the DMA engine
// to encrypt *Alice's* plaintext buffer under Eve's own key into Eve's
// buffer, then decrypts it offline — plaintext theft through a peripheral
// (Table 1 row 4) rather than the datapath.
struct DmaTheftResult {
  bool alice_plaintext_stolen = false;  // Eve recovered Alice's buffer
  bool src_read_blocked = false;        // protected engine refused the read
  bool dst_write_blocked = false;       // ...and writes into Alice's pages
  bool legit_dma_ok = false;            // Alice's own DMA still works
  double cycles_per_block = 0.0;        // legitimate DMA, publish to
                                        // completion (pipe fill included)
};

DmaTheftResult runDmaTheftAttack(accel::SecurityMode mode);

// --- DMA descriptor-ring fault campaign ----------------------------------------
// Seeded robustness campaign against the descriptor-ring data path: a
// tenant streams scatter-gather transfers through a DmaRingEngine while a
// FaultInjector flips bits in the descriptor/completion rings and perturbs
// the host interface, optionally interleaved with scripted adversarial
// scenarios (torn ownership, chain loops, OOB next-pointers, a TOCTOU
// destination rewrite, completion-queue overflow, a stalled ring, stale
// generations after a ring reset, and one reset of a channel whose tail
// overlaps a second channel's blocks in the pipe). Two independent oracles
// judge every transfer: an Ok completion whose destination bytes differ
// from the software-computed golden is a wrong-plaintext release, and any
// byte that changes in another tenant's pages is a cross-label write. The
// hardened engine must end every run with both counters at zero; the
// unhardened engine demonstrably does not.
struct RingCampaignConfig {
  std::uint64_t seed = 1;
  unsigned descriptors = 48;      // transfers pushed through the ring
  double fault_rate = 0.02;       // per-cycle host/ring fault probability
  bool hardened = true;           // hardened ring engine vs conventional
  bool scripted_scenarios = true; // deterministic adversarial interleave
  std::uint64_t watchdog_cycles = 512;  // ring watchdog (kept tight for pace)
};

struct RingCampaignReport {
  unsigned descriptors = 0;       // transfers submitted
  std::uint64_t completed_ok = 0; // resolved Ok, destination verified
  std::uint64_t refused = 0;      // resolved with a typed DmaError
  std::uint64_t unresolved = 0;   // future never resolved (ring reset used)
  std::uint64_t wrong_plaintext_releases = 0;  // Ok but dst != golden
  std::uint64_t cross_label_writes = 0;  // engine stat + victim-page diffs
  std::uint64_t partial_writes = 0;      // refused/unresolved but dst moved
  std::uint64_t watchdog_fires = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t ring_resets = 0;
  std::uint64_t ring_faults = 0;  // bit flips landed in ring memory
  std::uint64_t corrupt_completions = 0;   // driver checksum rejections
  std::uint64_t duplicate_completions = 0; // exactly-once dedups
  std::uint64_t submit_retries = 0;  // submits retried after backpressure
  // The overlap-reset scenario abandoned more than the reset channel's
  // chain (the other channel was refused, stalled or resubmitted a block).
  std::uint64_t reset_isolation_failures = 0;
  DmaRingStats ring;              // engine-side counters

  static constexpr auto counterFields() {
    using R = RingCampaignReport;
    using counters::field;
    return std::tuple{
        field("descriptors", &R::descriptors),
        field("completed_ok", &R::completed_ok), field("refused", &R::refused),
        field("unresolved", &R::unresolved),
        field("wrong_plaintext_releases", &R::wrong_plaintext_releases),
        field("cross_label_writes", &R::cross_label_writes),
        field("partial_writes", &R::partial_writes),
        field("watchdog_fires", &R::watchdog_fires),
        field("recoveries", &R::recoveries),
        field("ring_resets", &R::ring_resets),
        field("ring_faults", &R::ring_faults),
        field("corrupt_completions", &R::corrupt_completions),
        field("duplicate_completions", &R::duplicate_completions),
        field("submit_retries", &R::submit_retries),
        field("reset_isolation_failures", &R::reset_isolation_failures),
        field("ring", &R::ring)};
  }
  std::string toJson() const { return counters::toJson(*this); }
  RingCampaignReport& operator+=(const RingCampaignReport& o) {
    return counters::addTo(*this, o);
  }
};

RingCampaignReport runRingFaultCampaign(const RingCampaignConfig& cfg = {});

// --- Section 3.2.4: configuration tampering -----------------------------------
struct ConfigTamperResult {
  bool eve_write_landed = false;
  bool supervisor_write_landed = false;
  bool eve_read_ok = false;  // reads stay allowed for everyone
  std::size_t blocked_events = 0;
};

ConfigTamperResult runConfigTamper(accel::SecurityMode mode);

}  // namespace aesifc::soc
