#pragma once
// Key ledger: the one owner of an engine's round-key slots and key staging
// cells. Every tenant key is loaded, re-loaded, rotated, quiesced and
// zeroized through it — the service provisions and re-provisions its
// tenants here, and the engine pool migrates and retires keys here — so the
// lifecycle around the paper's key scratchpad (Fig. 5) and its zeroization
// semantics is written once.
//
// Slot 0 is left to the supervisor (the master key) by convention; a device
// holds up to kRoundKeySlots - 1 tenant keys. The staging cells are not a
// held resource: a key for slot s is staged in the two cells cellBase(s)
// names, which slots share round-robin. Every load re-tags the cells to the
// loading tenant, and a re-tag scrubs them (KeyScratchpad::configureCells),
// so a shared cell never hands one tenant's key words to another.

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

#include "accel/accelerator.h"

namespace aesifc::soc {

class KeyManager {
 public:
  struct Session {
    bool open = false;
    unsigned user = 0;
    unsigned slot = 0;
    std::array<std::uint8_t, 16> key{};  // current AES-128 key bytes
    lattice::Conf key_conf{};            // ck of the installed key
    std::uint64_t generation = 0;  // 1 at open, bumped by every rotation
  };

  explicit KeyManager(accel::AesAccelerator& acc);

  // First of the two scratchpad cells a key for `slot` is staged in.
  static unsigned cellBase(unsigned slot);

  // Lowest free tenant slot, or nullopt when every slot is taken.
  std::optional<unsigned> freeSlot() const;

  // Claims `slot` for `user` (one session per user) and installs the
  // 16-byte `key` under `key_conf`. Fails, leaving the slot free, when
  // either is taken, the key is not 16 bytes, or the device refuses a step.
  bool openSession(unsigned user, unsigned slot,
                   std::span<const std::uint8_t> key, lattice::Conf key_conf);

  // Re-installs the session's current key, e.g. after fail-secure
  // zeroization destroyed the slot.
  bool reload(unsigned user);

  // Installs `key` into the user's slot once no in-flight block references
  // it; fails after `max_wait_cycles` ticks. Blocks submitted before the
  // rotation complete under the old key, later ones use the new one.
  bool rotate(unsigned user, std::span<const std::uint8_t> key,
              std::uint64_t max_wait_cycles = 256);

  // Ticks the device until no in-flight block or GCM op references the
  // user's slot; false after `max_wait_cycles` ticks.
  bool quiesce(unsigned user, std::uint64_t max_wait_cycles);

  // Quiesces, clears the slot, scrubs its staging cells and frees the slot.
  // False, with the session left open, when the slot never goes idle or
  // the clear is refused while the key is still installed.
  bool closeSession(unsigned user, std::uint64_t max_wait_cycles);

  // Clears every installed key, the supervisor's included, once each slot
  // is idle, and forgets every session: the device is leaving service.
  void zeroizeAll(std::uint64_t max_wait_cycles);

  // The user's open session, or nullptr.
  const Session* session(unsigned user) const;
  std::size_t activeSessions() const;

 private:
  Session* find(unsigned user);
  bool install(const Session& s);

  accel::AesAccelerator& acc_;
  std::array<Session, accel::kRoundKeySlots> slots_{};  // by slot
};

}  // namespace aesifc::soc
