#pragma once
// The deeply pipelined AES datapath (Section 3.1, Fig. 7): three micro-op
// stages per round (SubBytes; ShiftRows [+ MixColumns]; AddRoundKey), so an
// AES-128 engine is 30 stages deep, accepts one block per cycle, and
// completes a block in 30 cycles — matching the paper's prototype. Blocks
// from different users (and different directions, and different key sizes
// up to the configured maximum) can be in flight simultaneously; each stage
// slot carries the block's security tag, which is the hardware of Fig. 7's
// per-stage tag registers.

#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "accel/key_store.h"
#include "accel/types.h"

namespace aesifc::accel {

struct StageSlot {
  bool valid = false;
  aes::State state{};
  unsigned key_slot = 0;
  unsigned total_rounds = 10;  // rounds this block actually needs
  bool decrypt = false;
  std::uint64_t req_id = 0;
  unsigned user = 0;
  std::uint64_t accept_cycle = 0;
  Label tag{};  // per-stage security tag (Fig. 7)
  // GCM sequencer routing: an internal block (H derivation, E(K,J0), CTR
  // keystream) is handed back to the sequencer at the pipeline exit instead
  // of a user output queue — and is never declassified there; the single
  // declassification of a GCM op happens when the op's result is released.
  bool gcm_internal = false;
  unsigned gcm_op = 0;        // owning sequencer op slot
  std::uint8_t gcm_role = 0;  // accel::GcmRole
  std::uint32_t gcm_aux = 0;  // role-specific index (CTR block position)
  // Hardening: parity over the stage data register (rewritten by each
  // stage's datapath together with the data) and over the tag register
  // (written once at acceptance; tags are immutable in flight).
  bool data_parity = false;
  bool tag_parity = false;
};

// Parity over a 16-byte AES state — the per-stage data parity bit.
bool stateParity(const aes::State& s);

// (Re)stamp both parity bits from the slot's current contents.
void stampParity(StageSlot& s);

class AesPipeline {
 public:
  AesPipeline(unsigned max_rounds, const RoundKeyRam& keys);

  unsigned depth() const { return static_cast<unsigned>(stages_.size()); }
  unsigned maxRounds() const { return max_rounds_; }

  bool anyValid() const { return occupancy_ != 0; }
  unsigned validCount() const {
    return static_cast<unsigned>(std::popcount(occupancy_));
  }
  // Bit i is set exactly when logical stage i holds a valid block.
  std::uint64_t occupancy() const { return occupancy_; }
  // Stage indices are logical: 0 is the entry stage, depth() - 1 the final
  // one, whatever register currently holds them.
  const StageSlot& stage(unsigned i) const { return stages_[slotIndex(i)]; }
  const StageSlot& finalStage() const { return stage(depth() - 1); }

  // --- Fail-secure hardening -------------------------------------------------
  // True when the stage is empty or both parity bits match its contents.
  bool stageParityOk(unsigned i) const;
  // Squash a stage: zeroize the data register and invalidate the slot (the
  // block is aborted; the accelerator reports the outcome to its user).
  void squash(unsigned i);

  // Fault-injection ports (flip without restamping parity). Return false
  // when the stage is empty.
  bool faultFlipStageDataBit(unsigned stage, unsigned bit);   // bit 0..127
  bool faultFlipStageTagBit(unsigned stage, unsigned bit);    // bit 0..31

  // Meet (greatest lower bound in the confidentiality order) over the tags
  // of all occupied stages — the Fig. 8 stall-gating value. Top when empty.
  lattice::Conf meetConf() const;

  // Shift the pipeline by one stage. `input`, if present, is a freshly
  // accepted block *before* the entry AddRoundKey (which this call applies).
  // Returns the slot leaving the final stage, if any.
  std::optional<StageSlot> advance(std::optional<StageSlot> input);

 private:
  // Register holding logical stage `i` (throws std::out_of_range past the
  // final stage).
  std::size_t slotIndex(unsigned i) const;
  // Apply the micro-op of stage `idx` to a slot entering it, in place.
  void compute(unsigned idx, StageSlot& s) const;
  void applyEntry(StageSlot& s) const;

  unsigned max_rounds_;
  const RoundKeyRam& keys_;
  // A ring of stage registers: logical stage i lives in
  // stages_[(head_ + i) % depth()], so advancing rotates head_ instead of
  // copying every slot down the pipe.
  std::vector<StageSlot> stages_;
  std::size_t head_ = 0;
  // Logical occupancy: bit i mirrors stage(i).valid, so a tick computes
  // only the occupied stages and an empty pipe costs next to nothing.
  std::uint64_t occupancy_ = 0;
};

}  // namespace aesifc::accel
