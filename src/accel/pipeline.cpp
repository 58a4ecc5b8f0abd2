#include "accel/pipeline.h"

#include <cassert>
#include <cstring>
#include <stdexcept>

#include "aes/block.h"

namespace aesifc::accel {

AesPipeline::AesPipeline(unsigned max_rounds, const RoundKeyRam& keys)
    : max_rounds_{max_rounds}, keys_{keys}, stages_(3 * max_rounds) {
  assert(max_rounds >= 1);
  assert(depth() <= 64);  // one occupancy bit per stage
}

std::size_t AesPipeline::slotIndex(unsigned i) const {
  const std::size_t n = stages_.size();
  if (i >= n) throw std::out_of_range("AesPipeline: no such stage");
  const std::size_t p = head_ + i;
  return p < n ? p : p - n;
}

bool stateParity(const aes::State& s) {
  // Parity of all 128 bits: fold the two halves, then one 64-bit parity.
  std::uint64_t lo, hi;
  std::memcpy(&lo, s.data(), 8);
  std::memcpy(&hi, s.data() + 8, 8);
  return parity64(lo ^ hi);
}

void stampParity(StageSlot& s) {
  s.data_parity = stateParity(s.state);
  s.tag_parity = labelParity(s.tag);
}

bool AesPipeline::stageParityOk(unsigned i) const {
  const StageSlot& s = stage(i);
  if (!s.valid) return true;
  return s.data_parity == stateParity(s.state) &&
         s.tag_parity == labelParity(s.tag);
}

void AesPipeline::squash(unsigned i) {
  StageSlot& s = stages_[slotIndex(i)];
  s = StageSlot{};
  stampParity(s);
  occupancy_ &= ~(std::uint64_t{1} << i);
}

bool AesPipeline::faultFlipStageDataBit(unsigned stage, unsigned bit) {
  StageSlot& s = stages_[slotIndex(stage % depth())];
  if (!s.valid || bit >= 128) return false;
  s.state[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  return true;
}

bool AesPipeline::faultFlipStageTagBit(unsigned stage, unsigned bit) {
  StageSlot& s = stages_[slotIndex(stage % depth())];
  if (!s.valid || bit >= 32) return false;
  flipLabelBit(s.tag, bit);
  return true;
}

lattice::Conf AesPipeline::meetConf() const {
  lattice::Conf m = lattice::Conf::top();  // identity of the meet
  for (std::uint64_t occ = occupancy_; occ != 0; occ &= occ - 1) {
    m = m.meet(stage(static_cast<unsigned>(std::countr_zero(occ))).tag.c);
  }
  return m;
}

void AesPipeline::applyEntry(StageSlot& s) const {
  // Entry AddRoundKey: rk[0] for encryption, rk[n] for decryption.
  const unsigned n = s.total_rounds;
  const auto& rk = keys_.roundKey(s.key_slot, s.decrypt ? n : 0);
  aes::addRoundKey(s.state, rk);
  s.data_parity = stateParity(s.state);
}

void AesPipeline::compute(unsigned idx, StageSlot& s) const {
  if (!s.valid) return;
  const unsigned r = idx / 3 + 1;  // round this stage performs
  const unsigned op = idx % 3;
  const unsigned n = s.total_rounds;
  if (r > n) return;  // pass-through stage for shorter key schedules

  if (!s.decrypt) {
    switch (op) {
      case 0:
        aes::subBytes(s.state);
        break;
      case 1:
        aes::shiftRows(s.state);
        if (r < n) aes::mixColumns(s.state);
        break;
      case 2:
        aes::addRoundKey(s.state, keys_.roundKey(s.key_slot, r));
        break;
    }
  } else {
    switch (op) {
      case 0:
        aes::invShiftRows(s.state);
        break;
      case 1:
        aes::invSubBytes(s.state);
        break;
      case 2:
        aes::addRoundKey(s.state, keys_.roundKey(s.key_slot, n - r));
        if (r < n) aes::invMixColumns(s.state);
        break;
    }
  }
  // The stage register writes its parity bit together with the data; a
  // fault flips the register *after* the write and is caught at the next
  // parity check.
  s.data_parity = stateParity(s.state);
}

std::optional<StageSlot> AesPipeline::advance(std::optional<StageSlot> input) {
  const std::size_t n = stages_.size();
  const std::uint64_t final_bit = std::uint64_t{1} << (n - 1);
  std::optional<StageSlot> out;
  if (occupancy_ & final_bit) out = std::move(stages_[slotIndex(depth() - 1)]);

  // The final stage's register becomes the new stage 0; every occupied slot
  // moves one logical stage on and gets that stage's micro-op in place.
  // Empty registers are never written by a micro-op, so skipping them is
  // exact.
  head_ = head_ == 0 ? n - 1 : head_ - 1;
  occupancy_ = (occupancy_ & ~final_bit) << 1;
  for (std::uint64_t occ = occupancy_; occ != 0; occ &= occ - 1) {
    const unsigned i = static_cast<unsigned>(std::countr_zero(occ));
    compute(i, stages_[slotIndex(i)]);
  }
  StageSlot& first = stages_[head_];
  if (input.has_value()) {
    first = std::move(*input);
    applyEntry(first);
    compute(0, first);
  } else {
    first = StageSlot{};
  }
  if (first.valid) occupancy_ |= 1;
  return out;
}

}  // namespace aesifc::accel
