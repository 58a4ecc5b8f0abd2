#pragma once
// Shared types of the accelerator model: operating mode, security events,
// request/response records crossing the host interface.

#include <cstdint>
#include <string>
#include <vector>

#include "aes/block.h"
#include "aes/gcm.h"
#include "lattice/label.h"
#include "lattice/tag.h"

namespace aesifc::accel {

using lattice::HwTag;
using lattice::Label;
using lattice::Principal;

// Baseline reproduces the unprotected high-throughput accelerator of
// Section 4; Protected adds the security tags, runtime checkers, the
// meet-gated stall rule and output overflow buffer, and nonmalleable
// declassification at the pipeline exit.
enum class SecurityMode { Baseline, Protected };

enum class SecurityEventKind {
  ScratchpadWriteBlocked,
  ScratchpadReadBlocked,
  DebugReadBlocked,
  ConfigWriteBlocked,
  DeclassifyRejected,
  StallDenied,
  OutputBufferOverflow,
  KeySlotBlocked,
  FaultDetected,   // parity mismatch caught at point of use; fail-secure
  FaultScrubbed,   // parity mismatch caught by the background scrub pass
  ServiceHealth,   // service-layer health-state transition (soc::AccelService)
  AuthTagMismatch, // GCM open failed authentication (a verdict, not a fault)
  // Tenant-migration audit trail (soc::EnginePool). The three kinds are
  // emitted pairwise into BOTH the source and destination shards' rings so
  // either ring alone tells the whole handover story in cycle order:
  // Begun -> (key live at target) -> KeyZeroized (source slot destroyed)
  // -> Committed. Load-at-target strictly precedes zeroize-at-source.
  MigrationBegun,
  MigrationKeyZeroized,
  MigrationCommitted,
  // Tagged DMA descriptor-ring path (soc::DmaRingEngine). The ring lives in
  // untrusted host memory, so refusals (malformed/corrupted descriptors,
  // label denials, torn ownership) and recoveries (watchdog quiesce ->
  // resync -> resubmit, ring resets) are first-class security events.
  DmaRingViolation,
  DmaRingRecovery,
};

inline constexpr unsigned kSecurityEventKinds = 17;

std::string toString(SecurityEventKind k);

// Hardware fault-injection sites (the state a single-event upset can hit)
// plus the host-interface perturbations the fault campaigns exercise.
enum class FaultSite {
  StageData,     // pipeline stage data register
  StageTag,      // pipeline stage tag register (Fig. 7)
  ScratchCell,   // key scratchpad data cell (Fig. 5)
  ScratchTag,    // key scratchpad tag array (Fig. 5)
  RoundKey,      // round-key RAM word
  ConfigReg,     // configuration register (Section 3.2.4)
  GhashStage,    // GHASH multiplier stage x/z registers
  GhashStageTag, // GHASH multiplier stage tag register
  GhashAcc,      // GHASH stream lane accumulator
  GhashKeyTable, // GHASH H-power table word
  HostDrop,      // response lost on the host interface
  HostDuplicate, // response replayed on the host interface
  HostStuckReceiver,   // receiver-ready deasserted and held
  HostSpuriousSubmit,  // garbage request injected at the submit port
  RingDescriptor,      // bit flip in a DMA descriptor-ring slot (host memory)
  RingCompletion,      // bit flip in a DMA completion-ring slot (host memory)
};

inline constexpr unsigned kHwFaultSites = 10;   // first 10 enumerators
inline constexpr unsigned kHostFaultSites = 6;  // the remaining host sites

std::string toString(FaultSite s);

// Even-parity bit over a 64-bit word (the per-cell / per-register parity
// the hardened design stores alongside protected state).
constexpr bool parity64(std::uint64_t v) {
  v ^= v >> 32;
  v ^= v >> 16;
  v ^= v >> 8;
  v ^= v >> 4;
  v ^= v >> 2;
  v ^= v >> 1;
  return (v & 1) != 0;
}

// Parity over both category masks of a label — the tag-array parity bit.
inline bool labelParity(const Label& l) {
  return parity64(static_cast<std::uint64_t>(l.c.cats.mask()) |
                  (static_cast<std::uint64_t>(l.i.cats.mask()) << 16));
}

// Flip one bit of a tag register: bits 0..15 are the confidentiality
// categories, 16..31 the integrity categories (the fault ports' layout).
inline void flipLabelBit(Label& l, unsigned bit) {
  const auto flip = [](lattice::CatSet c, unsigned b) {
    return lattice::CatSet{static_cast<std::uint16_t>(c.mask() ^ (1u << b))};
  };
  if (bit < 16) {
    l.c = lattice::Conf{flip(l.c.cats, bit)};
  } else {
    l.i = lattice::Integ{flip(l.i.cats, bit - 16)};
  }
}

struct SecurityEvent {
  SecurityEventKind kind;
  std::uint64_t cycle = 0;
  unsigned user = 0;
  std::string detail;

  std::string toString() const;
};

// One block submitted for encryption/decryption.
struct BlockRequest {
  std::uint64_t req_id = 0;
  unsigned user = 0;
  unsigned key_slot = 0;  // round-key RAM slot to use
  bool decrypt = false;
  aes::Block data{};
};

// One completed block delivered to a user's output queue.
struct BlockResponse {
  std::uint64_t req_id = 0;
  unsigned user = 0;
  aes::Block data{};
  std::uint64_t accept_cycle = 0;    // cycle the pipeline accepted it
  std::uint64_t complete_cycle = 0;  // cycle it exited (or left the buffer)
  bool suppressed = false;  // protected mode refused to declassify the output
  bool fault_aborted = false;  // squashed by the fail-secure fault path
  bool dropped = false;        // overflow buffer full; completion record only
};

// One authenticated-encryption operation submitted to the GCM sequencer.
// `data` is plaintext for a seal, ciphertext for an open; sizes need not be
// block-aligned (SP 800-38D partial final blocks are handled on-device).
struct GcmRequest {
  std::uint64_t req_id = 0;
  unsigned user = 0;
  unsigned key_slot = 0;
  bool open = false;  // false: seal (encrypt+tag); true: open (verify+decrypt)
  std::vector<std::uint8_t> iv;   // any non-zero length; 12 bytes is fast path
  std::vector<std::uint8_t> aad;
  std::vector<std::uint8_t> data;
  aes::Tag128 tag{};  // expected tag (open only)
};

// Terminal outcome of a GCM operation. Exactly one of the flag fields is
// set on failure; on success `data` holds ciphertext (seal) or plaintext
// (open) and `tag` the computed auth tag (seal only — an open never echoes
// a tag, it only verdicts).
struct GcmResponse {
  std::uint64_t req_id = 0;
  unsigned user = 0;
  std::vector<std::uint8_t> data;
  aes::Tag128 tag{};
  std::uint64_t accept_cycle = 0;
  std::uint64_t complete_cycle = 0;
  bool suppressed = false;    // declassification of the result was refused
  bool fault_aborted = false; // a fault hit the op's state; nothing released
  bool auth_failed = false;   // open only: tag mismatch (verdict, not fault)
};

}  // namespace aesifc::accel
