#pragma once
// On-device tagged GHASH unit: a pipelined GF(2^128) multiply-accumulate
// engine that extends the paper's Fig. 7 tag-travel scheme to the
// authentication half of AES-GCM. The multiplier reuses the host
// `aes::GhashKey` 4-bit-table (Shoup) algorithm, split across
// `kGhashStages` pipeline stages of 8 nibble-steps each via
// `GhashKey::mulSteps` — so the staged hardware model is bit-identical to
// the host path by construction.
//
// Throughput: one block per cycle at full rate. The serial GHASH Horner
// recurrence y = (y ^ b)·H has a d-cycle data hazard in a d-stage
// multiplier, so each stream keeps d = kGhashLanes interleaved lane
// accumulators: block i (0-based) lands in lane i mod d and multiplies by
// H^d — except the last block of each lane, which multiplies by
// H^(n - i) (in [1, d]); the final digest is then simply the XOR of the
// lanes, with no corrective pass. This requires the stream's total block
// count to be declared when the stream opens (the GCM sequencer always
// knows it).
//
// Security tags travel exactly as in the AES pipe: each stage slot carries
// a label; a stream's running label is the join of the H-table label and
// every absorbed block's label; the digest leaves the unit only through a
// nonmalleable declassification check (same Eq. 1 rule as ciphertext at
// the pipeline exit) or through `digestInternal`, which keeps the label.
//
// Fail-secure hardening mirrors the AES datapath: parity on stage x/z and
// tag registers, parity over each stream's lane accumulators + label, and
// a checksum over each H-power table (checked at point of use on every
// issue and by the slow scrub ring). Any mismatch faults the stream —
// a faulted stream can never release a digest.

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "accel/key_store.h"
#include "accel/types.h"
#include "aes/gcm.h"

namespace aesifc::accel {

inline constexpr unsigned kGhashStages = 4;  // multiplier pipeline depth
// Interleaved accumulator lanes per stream; equal to the stage count so a
// lane's writeback always lands before the lane's next issue reads it.
inline constexpr unsigned kGhashLanes = kGhashStages;
// H-table slots mirror the round-key RAM slots one-to-one: slot i holds
// H = E(K_i, 0^128) for the AES key in round-key slot i.
inline constexpr unsigned kGhashKeySlots = kRoundKeySlots;
inline constexpr unsigned kGhashStreams = 8;    // concurrent hash streams
inline constexpr unsigned kGhashFifoDepth = 8;  // per-stream absorb FIFO

struct GhashStageSlot {
  bool valid = false;
  unsigned stream = 0;
  unsigned lane = 0;
  unsigned key_slot = 0;
  unsigned power = 0;  // selects H^(power+1) for this multiply
  aes::Tag128 x{};     // multiplicand (lane accumulator ^ absorbed block)
  aes::Tag128 z{};     // partial product, advanced 8 nibble-steps per stage
  Label tag{};         // per-stage security tag (Fig. 7, extended)
  // Hardening: parity over x||z (rewritten with each stage's datapath) and
  // over the tag register (written once at issue).
  bool data_parity = false;
  bool tag_parity = false;
};

// One fail-secure detection inside the unit, reported to the accelerator
// (which owns the event log and fault counters).
struct GhashScrubFinding {
  FaultSite site = FaultSite::GhashStage;
  unsigned index = 0;  // stage / stream / key slot, per site
  unsigned user = 0;
  std::string detail;
};

class GhashUnit {
 public:
  explicit GhashUnit(bool hardened) : hardened_{hardened} {}

  // --- H-key slots -----------------------------------------------------------
  // Install hash subkey H for `key_slot` (the sequencer derives it
  // on-device as E(K, 0^128)); builds the H^1..H^d power tables, which
  // become usable `kGhashLanes` cycles later (the table-build latency).
  // `label` is the key's label: join(conf of K, integrity of its owner).
  void loadH(unsigned key_slot, const aes::Tag128& h, Label label,
             std::uint64_t now);
  // Drop the H tables for a slot (AES key store/clear/zeroize voids them);
  // any open stream bound to the slot faults, any in-flight stage squashes.
  void invalidateKey(unsigned key_slot);
  bool keyValid(unsigned key_slot) const;
  bool keyReady(unsigned key_slot, std::uint64_t now) const;
  const Label& keyLabel(unsigned key_slot) const;

  // --- Streams ---------------------------------------------------------------
  // Open a hash stream of exactly `total_blocks` 16-byte blocks over the
  // H of `key_slot`. `label` is the submitting user's data label; the
  // stream label starts at join(label, label(H)). Returns nullopt when no
  // stream slot is free or the key slot holds no valid H.
  std::optional<unsigned> openStream(unsigned user, unsigned key_slot,
                                     std::uint64_t total_blocks, Label label);
  // Absorb the next block (FIFO-ordered). False when the stream is not
  // accepting (full FIFO, faulted, or all blocks already absorbed).
  bool absorb(unsigned stream, const aes::Tag128& block, const Label& label);
  std::size_t fifoSpace(unsigned stream) const;
  bool open(unsigned stream) const { return streams_.at(stream).open; }
  bool done(unsigned stream) const;  // every block issued and written back
  bool faulted(unsigned stream) const { return streams_.at(stream).faulted; }
  unsigned streamUser(unsigned stream) const {
    return streams_.at(stream).user;
  }
  const Label& streamLabel(unsigned stream) const {
    return streams_.at(stream).label;
  }

  // Digest without declassification — for internal consumers (J0
  // derivation) whose result stays tagged inside the device.
  aes::Tag128 digestInternal(unsigned stream) const;

  enum class ReleaseStatus { NotReady, Faulted, Refused, Ok };
  struct ReleaseResult {
    ReleaseStatus status = ReleaseStatus::NotReady;
    aes::Tag128 digest{};
    std::string reason;  // declassify-refusal reason, for the event log
  };
  // Release the digest to `p`: the same nonmalleable declassification as
  // ciphertext at the pipeline exit — label (c, i) may leave as
  // (bottom, i) only if checkDeclassify allows it for `p`. A hardened
  // release also re-verifies the stream's accumulator parity at this point
  // of use (Faulted if it fails; nothing is released).
  ReleaseResult release(unsigned stream, const Principal& p);
  void closeStream(unsigned stream);

  // Meet over the confidentiality of all in-flight stage tags and open
  // stream labels — folded into the accelerator's Fig. 8 stall meet, so a
  // stall request must also be unobservable to every pending hash stream.
  lattice::Conf meetConf() const;

  // One clock: write back the exiting multiply, shift the stages, issue at
  // most one block (round-robin over ready streams). Returns point-of-use
  // detections (hardened H-table checksum at issue). Frozen during
  // accelerator stall cycles, like the AES pipe.
  std::vector<GhashScrubFinding> tick(std::uint64_t now);

  // --- Fault-injection ports (no parity/checksum restamp) --------------------
  bool faultFlipStageBit(unsigned stage, unsigned bit);     // 0..255 over x||z
  bool faultFlipStageTagBit(unsigned stage, unsigned bit);  // 0..31
  bool faultFlipAccBit(unsigned stream, unsigned bit);  // 0..128*lanes-1
  bool faultFlipKeyTableBit(unsigned slot, unsigned bit);  // over all tables
  bool faultFlipKeyLabelBit(unsigned slot, unsigned bit);  // 0..31

  // --- Fail-secure scrub (driven by the accelerator's scrub pass) ------------
  // Fast ring: every stage and stream comparator, every cycle.
  std::vector<GhashScrubFinding> scrubFast();
  // Slow ring: one H-key slot per visit.
  std::optional<GhashScrubFinding> scrubKeySlot(unsigned slot);

  // --- Telemetry / test access ----------------------------------------------
  std::uint64_t blocksProcessed() const { return blocks_; }
  unsigned activeStreams() const;
  bool anyValid() const;
  const GhashStageSlot& stage(unsigned i) const { return stages_.at(i); }

 private:
  struct KeySlot {
    bool valid = false;
    std::uint64_t ready_at = 0;  // table-build completion cycle
    std::vector<aes::GhashKey> powers;  // H^1 .. H^kGhashLanes
    Label label{};
    std::uint64_t checksum = 0;  // over every table byte + the label
  };

  struct Stream {
    bool open = false;
    unsigned user = 0;
    unsigned key_slot = 0;
    Label label{};
    std::uint64_t total = 0;     // declared block count
    std::uint64_t absorbed = 0;  // pushed into the FIFO
    std::uint64_t issued = 0;    // entered the multiplier
    std::uint64_t written = 0;   // writebacks completed
    std::array<aes::Tag128, kGhashLanes> lanes{};
    std::deque<aes::Tag128> fifo;
    bool faulted = false;
    bool parity = false;  // over the lane accumulators + label
  };

  GhashStageSlot computeStage(unsigned idx, GhashStageSlot s) const;
  void restampStream(Stream& st);
  bool streamParityOk(const Stream& st) const;
  void faultStream(unsigned sid);
  std::uint64_t keyChecksum(const KeySlot& k) const;
  // No stage holds a block and no stream is open.
  bool idle() const;

  bool hardened_;
  std::array<KeySlot, kGhashKeySlots> keys_{};
  std::array<Stream, kGhashStreams> streams_{};
  std::array<GhashStageSlot, kGhashStages> stages_{};
  unsigned issue_rr_ = 0;
  std::uint64_t blocks_ = 0;
};

}  // namespace aesifc::accel
