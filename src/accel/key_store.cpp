#include "accel/key_store.h"

#include <cstring>

namespace aesifc::accel {

// The checksum of reset state is not zero, so power-on must stamp the
// digests to match the zeroed storage or the first scrub visit would
// "detect" corruption in never-written cells/slots.
KeyScratchpad::KeyScratchpad(SecurityMode mode) : mode_{mode} {
  for (auto& s : cell_sum_) s = checksumStep(kChecksumBasis, 0);
}

bool KeyScratchpad::configureCells(unsigned base, unsigned count,
                                   const Label& l) {
  if (count > kScratchpadCells || base > kScratchpadCells - count)
    return false;
  for (unsigned i = 0; i < count; ++i) {
    tags_[base + i] = l;
    tag_parity_[base + i] = labelParity(l);
    tag_suspect_ &= static_cast<std::uint8_t>(~(1u << (base + i)));
    // A cell handed to a new owner starts empty: re-tagging without a scrub
    // would let the new owner expand the previous owner's key words under
    // its own label. The unprotected baseline keeps the stale data.
    if (mode_ == SecurityMode::Protected) {
      cells_[base + i] = 0;
      cell_sum_[base + i] = checksumStep(kChecksumBasis, 0);
    }
  }
  return true;
}

bool KeyScratchpad::writeCell(unsigned idx, std::uint64_t value,
                              const Label& requester) {
  if (idx >= kScratchpadCells) return false;
  // Writing is a flow from the requester into the cell: the requester's
  // label must flow to the cell's tag.
  if (mode_ == SecurityMode::Protected && !requester.flowsTo(tags_[idx])) {
    return false;
  }
  cells_[idx] = value;
  cell_sum_[idx] = checksumStep(kChecksumBasis, value);
  return true;
}

std::optional<std::uint64_t> KeyScratchpad::readCell(
    unsigned idx, const Label& requester) const {
  if (idx >= kScratchpadCells) return std::nullopt;
  // Reading is a confidentiality flow from the cell to the requester; it
  // does not assert trust, so only the confidentiality order is checked.
  if (mode_ == SecurityMode::Protected &&
      !tags_[idx].c.flowsTo(requester.c)) {
    return std::nullopt;
  }
  return cells_[idx];
}

bool KeyScratchpad::cellParityOk(unsigned idx) const {
  return checksumStep(kChecksumBasis, cells_.at(idx)) == cell_sum_.at(idx);
}

bool KeyScratchpad::tagParityOk(unsigned idx) const {
  const Label& tag = tags_.at(idx);
  const auto bit = static_cast<std::uint8_t>(1u << idx);
  if ((tag_suspect_ & bit) == 0) return true;
  if (labelParity(tag) != tag_parity_[idx]) return false;
  tag_suspect_ &= static_cast<std::uint8_t>(~bit);
  return true;
}

void KeyScratchpad::failSecure(unsigned idx) {
  cells_.at(idx) = 0;
  cell_sum_.at(idx) = checksumStep(kChecksumBasis, 0);
  // Quarantine: unreadable by everyone (top confidentiality); a corrupted
  // tag must only ever fail upward, never toward public.
  tags_.at(idx) = Label{lattice::Conf::top(), lattice::Integ::bottom()};
  tag_parity_.at(idx) = labelParity(tags_.at(idx));
  tag_suspect_ &= static_cast<std::uint8_t>(~(1u << idx));
}

bool KeyScratchpad::faultFlipCellBit(unsigned idx, unsigned bit) {
  if (idx >= kScratchpadCells || bit >= 64) return false;
  cells_[idx] ^= std::uint64_t{1} << bit;
  return true;
}

bool KeyScratchpad::faultFlipTagBit(unsigned idx, unsigned bit) {
  if (idx >= kScratchpadCells || bit >= 32) return false;
  flipLabelBit(tags_[idx], bit);
  tag_suspect_ |= static_cast<std::uint8_t>(1u << idx);
  return true;
}

RoundKeyRam::RoundKeyRam() {
  for (unsigned s = 0; s < kRoundKeySlots; ++s)
    sum_[s] = computeChecksum(slots_[s]);
  verified_.fill(true);
}

void RoundKeyRam::store(unsigned slot, aes::ExpandedKey key,
                        lattice::Conf key_conf, const Label& owner) {
  auto& s = slots_.at(slot);
  s.valid = true;
  s.key = std::move(key);
  s.key_conf = key_conf;
  s.owner = owner;
  sum_.at(slot) = computeChecksum(s);
  verified_[slot] = true;
}

void RoundKeyRam::clear(unsigned slot) {
  slots_.at(slot) = KeySlot{};
  sum_.at(slot) = computeChecksum(slots_.at(slot));
  verified_[slot] = true;
}

std::uint64_t RoundKeyRam::computeChecksum(const KeySlot& s) const {
  // Round keys fold 8 bytes per step. Each step is a bijection of h for a
  // fixed word (odd multiplier) and of the word for a fixed h, so corruption
  // confined to one 64-bit word always changes the digest.
  std::uint64_t h = kChecksumBasis;
  for (const auto& rk : s.key.round_keys) {
    std::uint64_t lo, hi;
    std::memcpy(&lo, rk.data(), 8);
    std::memcpy(&hi, rk.data() + 8, 8);
    h = checksumStep(checksumStep(h, lo), hi);
  }
  h = checksumStep(h, s.key_conf.cats.mask());
  h = checksumStep(h, s.owner.c.cats.mask());
  h = checksumStep(h, static_cast<std::uint64_t>(s.owner.i.cats.mask()) << 1 |
                          (s.valid ? 1 : 0));
  return h;
}

bool RoundKeyRam::slotParityOk(unsigned slot) const {
  if (verified_.at(slot)) return true;
  verified_[slot] = computeChecksum(slots_[slot]) == sum_[slot];
  return verified_[slot];
}

bool RoundKeyRam::faultFlipKeyBit(unsigned slot, unsigned round, unsigned byte,
                                  unsigned bit) {
  auto& s = slots_.at(slot % kRoundKeySlots);
  if (!s.valid || bit >= 8 || byte >= 16) return false;
  if (round >= s.key.round_keys.size()) return false;
  s.key.round_keys[round][byte] ^= static_cast<std::uint8_t>(1u << bit);
  verified_[slot % kRoundKeySlots] = false;
  return true;
}

bool RoundKeyRam::faultFlipMetaBit(unsigned slot, unsigned bit) {
  auto& s = slots_.at(slot % kRoundKeySlots);
  if (bit < 32) {
    flipLabelBit(s.owner, bit);
  } else if (bit < 48) {
    const unsigned b = bit - 32;
    s.key_conf = lattice::Conf{lattice::CatSet{
        static_cast<std::uint16_t>(s.key_conf.cats.mask() ^ (1u << b))}};
  } else if (bit == 48) {
    s.valid = !s.valid;
  } else {
    return false;
  }
  verified_[slot % kRoundKeySlots] = false;
  return true;
}

}  // namespace aesifc::accel
