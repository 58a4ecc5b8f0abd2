#include "accel/pipeline.h"

#include <cassert>
#include <stdexcept>

#include "aes/block.h"
#include "aes/ttable.h"

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

bool stateParity(const aes::State& s) { return parity64(fold128(s)); }

void stampParity(StageSlot& s) {
  s.data_parity = stateParity(s.state);
  s.tag_parity = labelParity(s.tag);
}

StageSlot AesPipeline::stage(unsigned i) const {
  StageSlot s = meta(i);
  if (s.lazy) replay(i, s);
  return s;
}

bool AesPipeline::stageParityOk(unsigned i) const {
  const StageSlot& s = meta(i);
  const std::uint64_t bit = std::uint64_t{1} << i;
  if ((suspect_ & bit) == 0 || !s.valid) return true;
  if ((!s.lazy && s.data_parity != stateParity(s.state)) ||
      s.tag_parity != labelParity(s.tag))
    return false;
  suspect_ &= ~bit;
  return true;
}

void AesPipeline::squash(unsigned i) {
  StageSlot& s = stages_[slotIndex(i)];
  s = StageSlot{};
  stampParity(s);
  const std::uint64_t keep = ~(std::uint64_t{1} << i);
  occupancy_ &= keep;
  eager_ &= keep;
  suspect_ &= keep;
}

bool AesPipeline::faultFlipStageDataBit(unsigned stage, unsigned bit) {
  const unsigned i = stage % depth();
  StageSlot& s = stages_[slotIndex(i)];
  if (!s.valid || bit >= 128) return false;
  materialize(i);
  s.state[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  suspect_ |= std::uint64_t{1} << i;
  return true;
}

bool AesPipeline::faultFlipStageTagBit(unsigned stage, unsigned bit) {
  const unsigned i = stage % depth();
  StageSlot& s = stages_[slotIndex(i)];
  if (!s.valid || bit >= 32) return false;
  flipLabelBit(s.tag, bit);
  suspect_ |= std::uint64_t{1} << i;
  return true;
}

void AesPipeline::materializeKeySlot(unsigned key_slot) {
  for (std::uint64_t lazy = occupancy_ & ~eager_; lazy != 0;
       lazy &= lazy - 1) {
    const unsigned i = static_cast<unsigned>(std::countr_zero(lazy));
    if (meta(i).key_slot == key_slot) materialize(i);
  }
}

lattice::Conf AesPipeline::meetConf() const {
  lattice::Conf m = lattice::Conf::top();  // identity of the meet
  for (std::uint64_t occ = occupancy_; occ != 0; occ &= occ - 1) {
    m = m.meet(meta(static_cast<unsigned>(std::countr_zero(occ))).tag.c);
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

void AesPipeline::replay(unsigned i, StageSlot& s) const {
  for (unsigned j = 0; j <= i; ++j) compute(j, s);
  s.lazy = false;
}

void AesPipeline::materialize(unsigned i) {
  StageSlot& s = stages_[slotIndex(i)];
  if (!s.lazy) return;
  replay(i, s);
  eager_ |= std::uint64_t{1} << i;
}

void AesPipeline::finish(StageSlot& s) const {
  const auto& rk = keys_.slot(s.key_slot).key.round_keys;
  if (s.decrypt) {
    aes::decryptRounds(s.state, rk, s.total_rounds);
  } else {
    aes::encryptRounds(s.state, rk, s.total_rounds);
  }
  s.data_parity = stateParity(s.state);
  s.lazy = false;
}

std::optional<StageSlot> AesPipeline::advance(std::optional<StageSlot> input) {
  const std::size_t n = stages_.size();
  const std::uint64_t final_bit = std::uint64_t{1} << (n - 1);
  std::optional<StageSlot> out;
  if (occupancy_ & final_bit) {
    out = std::move(stages_[slotIndex(depth() - 1)]);
    if (out->lazy) finish(*out);
  }

  // The final stage's register becomes the new stage 0; every occupied slot
  // moves one logical stage on, and each eager one gets that stage's
  // micro-op in place. Empty registers are never written by a micro-op, so
  // skipping them is exact.
  head_ = head_ == 0 ? n - 1 : head_ - 1;
  occupancy_ = (occupancy_ & ~final_bit) << 1;
  eager_ = (eager_ & ~final_bit) << 1;
  suspect_ = (suspect_ & ~final_bit) << 1;
  for (std::uint64_t occ = eager_; occ != 0; occ &= occ - 1) {
    const unsigned i = static_cast<unsigned>(std::countr_zero(occ));
    compute(i, stages_[slotIndex(i)]);
  }
  StageSlot& first = stages_[head_];
  if (input.has_value()) {
    assert(input->total_rounds <= max_rounds_);
    first = std::move(*input);
    applyEntry(first);
    first.lazy = first.valid;
  } else {
    first = StageSlot{};
  }
  if (first.valid) occupancy_ |= 1;
  return out;
}

void AesPipeline::rotate(std::uint64_t cycles) {
  const std::size_t n = stages_.size();
  assert(eager_ == 0);
  assert(occupancy_ == 0 || cycles <= n - std::bit_width(occupancy_));
  head_ = (head_ + n - cycles % n) % n;
  if (occupancy_ != 0) {
    occupancy_ <<= cycles;
    suspect_ <<= cycles;
  }
}

}  // namespace aesifc::accel
