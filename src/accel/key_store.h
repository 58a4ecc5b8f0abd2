#pragma once
// Key storage: the 512-bit key scratchpad of Fig. 5 (eight 64-bit cells,
// each with an associated security tag) feeding a round-key RAM whose slots
// hold expanded keys (the accelerator expands a key once at load time; the
// pipeline then reads per-round keys by slot, which is what lets blocks of
// different users be in flight concurrently).
//
// In Protected mode every cell access is tag-checked before it happens:
// a buffer overrun that would overwrite another user's key is blocked and
// reported, exactly the Fig. 5 scenario. In Baseline mode the checks are
// skipped — the scratchpad behaves like the unprotected design the paper's
// baseline models.

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "aes/key_schedule.h"
#include "accel/types.h"

namespace aesifc::accel {

inline constexpr unsigned kScratchpadCells = 8;   // 8 x 64 bits = 512 bits
inline constexpr unsigned kRoundKeySlots = 8;     // expanded-key RAM slots

class KeyScratchpad {
 public:
  explicit KeyScratchpad(SecurityMode mode);

  // Arbiter-side: (re)assign the security level of a range of cells before
  // a user writes its key (the paper's "arbiter accepts the request and
  // configures the cells with l(Eve)"). In Protected mode the cells are
  // zeroed too, so a re-tag never hands the previous owner's words over.
  // Returns false, changing nothing, when the range runs past the cells.
  bool configureCells(unsigned base, unsigned count, const Label& l);

  // Returns false (and does not write) if the requester's label does not
  // match the cell's tag in Protected mode.
  bool writeCell(unsigned idx, std::uint64_t value, const Label& requester);

  // Returns nullopt if the requester may not read the cell.
  std::optional<std::uint64_t> readCell(unsigned idx,
                                        const Label& requester) const;

  // Raw access for expansion hardware / tests (no checks).
  std::uint64_t rawCell(unsigned idx) const { return cells_.at(idx); }
  const Label& cellLabel(unsigned idx) const { return tags_.at(idx); }

  // --- Fail-secure hardening -------------------------------------------------
  // Each cell stores a checksum word over its data (modelling a per-cell
  // CRC/SECDED word) and a parity bit over its tag, written together with
  // the protected state. Tags are swept by the every-cycle fast scrub ring,
  // so one parity bit suffices there (at most one upset can land between
  // checks); cell data is only visited by the slow ring, where upsets can
  // accumulate — a full checksum keeps multi-bit corruption detectable.
  bool cellParityOk(unsigned idx) const;
  // Only a fault port writes a tag without restamping its parity bit, so
  // only a tag one wrote since it last matched is compared again.
  bool tagParityOk(unsigned idx) const;
  // Bit i is set when a fault port wrote cell i's tag since its parity
  // last matched: the only tags whose check can fail.
  std::uint8_t suspectTags() const { return tag_suspect_; }
  // Fail-secure response to a parity mismatch: zeroize the cell and force
  // its tag *upward* to the quarantine point (top confidentiality, bottom
  // integrity) so a corrupted tag can never declassify the cell. The cell
  // stays quarantined until the arbiter re-runs configureCells.
  void failSecure(unsigned idx);

  // Fault-injection ports (model single-event upsets; parity is *not*
  // updated). Return false when the target does not exist.
  bool faultFlipCellBit(unsigned idx, unsigned bit);
  bool faultFlipTagBit(unsigned idx, unsigned bit);  // bit 0..31 over (c,i)

 private:
  SecurityMode mode_;
  std::array<std::uint64_t, kScratchpadCells> cells_{};
  std::array<Label, kScratchpadCells> tags_{};
  std::array<std::uint64_t, kScratchpadCells> cell_sum_{};
  std::array<bool, kScratchpadCells> tag_parity_{};
  // See suspectTags(); a passing check clears the cell's bit.
  static_assert(kScratchpadCells <= 8);
  mutable std::uint8_t tag_suspect_ = 0;
};

// One expanded key with its security metadata.
struct KeySlot {
  bool valid = false;
  aes::ExpandedKey key;
  // Confidentiality of the key material itself (ck in Section 3.2.1); the
  // master key carries top.
  lattice::Conf key_conf{};
  // Label of the owner that loaded it (cu, iu).
  Label owner{};
};

class RoundKeyRam {
 public:
  RoundKeyRam();
  void store(unsigned slot, aes::ExpandedKey key, lattice::Conf key_conf,
             const Label& owner);
  void clear(unsigned slot);
  bool valid(unsigned slot) const { return slots_.at(slot).valid; }
  const KeySlot& slot(unsigned s) const { return slots_.at(s); }
  const aes::RoundKey& roundKey(unsigned slot, unsigned round) const {
    return slots_.at(slot).key.round_keys.at(round);
  }
  unsigned rounds(unsigned slot) const { return slots_.at(slot).key.rounds(); }

  // --- Fail-secure hardening -------------------------------------------------
  // One checksum word per slot over the whole expanded key plus its
  // security metadata, written at store() time (models a per-slot CRC: the
  // RAM is only integrity-checked at submit, completion, and slow-ring
  // scrub visits, so upsets can accumulate between checks — a single parity
  // bit would let an even number of flips cancel out and a corrupted key
  // serve traffic). Corruption is detected at the next check; the
  // fail-secure response (zeroization) is driven by the accelerator, which
  // also has to squash in-flight blocks referencing the slot.
  bool slotParityOk(unsigned slot) const;

  bool faultFlipKeyBit(unsigned slot, unsigned round, unsigned byte,
                       unsigned bit);
  // Flip one bit of a slot's metadata: 0..31 the owner label (as
  // flipLabelBit), 32..47 key_conf, 48 the valid bit.
  bool faultFlipMetaBit(unsigned slot, unsigned bit);

 private:
  std::uint64_t computeChecksum(const KeySlot& s) const;

  std::array<KeySlot, kRoundKeySlots> slots_{};
  std::array<std::uint64_t, kRoundKeySlots> sum_{};
  // Nothing has written the slot since its checksum last matched, so it
  // still does: a check may skip the recomputation.
  mutable std::array<bool, kRoundKeySlots> verified_{};
};

}  // namespace aesifc::accel
