#include "soc/key_manager.h"

#include <algorithm>

#include "accel/driver.h"

namespace aesifc::soc {

using accel::kRoundKeySlots;
using accel::kScratchpadCells;

KeyManager::KeyManager(accel::AesAccelerator& acc) : acc_{acc} {}

unsigned KeyManager::cellBase(unsigned slot) {
  // Slots 1, 2, 3, ... stage through cell pairs 0, 2, 4, ... and wrap.
  constexpr unsigned kPairs = kScratchpadCells / 2;
  return 2 * ((slot + kPairs - 1) % kPairs);
}

std::optional<unsigned> KeyManager::freeSlot() const {
  for (unsigned s = 1; s < kRoundKeySlots; ++s) {
    if (!slots_[s].open) return s;
  }
  return std::nullopt;
}

const KeyManager::Session* KeyManager::session(unsigned user) const {
  for (const auto& s : slots_) {
    if (s.open && s.user == user) return &s;
  }
  return nullptr;
}

KeyManager::Session* KeyManager::find(unsigned user) {
  return const_cast<Session*>(session(user));
}

std::size_t KeyManager::activeSessions() const {
  std::size_t n = 0;
  for (const auto& s : slots_) n += s.open ? 1 : 0;
  return n;
}

bool KeyManager::install(const Session& s) {
  return accel::loadKey128(acc_, s.user, s.slot, cellBase(s.slot), s.key,
                           s.key_conf);
}

bool KeyManager::openSession(unsigned user, unsigned slot,
                             std::span<const std::uint8_t> key,
                             lattice::Conf key_conf) {
  Session s{true, user, slot, {}, key_conf, 1};
  if (slot == 0 || slot >= kRoundKeySlots || slots_[slot].open ||
      find(user) != nullptr || key.size() != s.key.size())
    return false;
  std::copy(key.begin(), key.end(), s.key.begin());
  if (!install(s)) return false;
  slots_[slot] = s;
  return true;
}

bool KeyManager::reload(unsigned user) {
  const Session* s = find(user);
  return s != nullptr && install(*s);
}

bool KeyManager::quiesce(unsigned user, std::uint64_t max_wait_cycles) {
  const Session* s = find(user);
  return s != nullptr && accel::waitSlotIdle(acc_, s->slot, max_wait_cycles);
}

bool KeyManager::rotate(unsigned user, std::span<const std::uint8_t> key,
                        std::uint64_t max_wait_cycles) {
  // Updating the round-key RAM while a block of this slot is in flight
  // would corrupt it mid-encryption; drain first.
  Session* s = find(user);
  if (s == nullptr || key.size() != s->key.size() ||
      !quiesce(user, max_wait_cycles))
    return false;
  Session next = *s;
  std::copy(key.begin(), key.end(), next.key.begin());
  ++next.generation;
  if (!install(next)) return false;
  *s = next;
  return true;
}

bool KeyManager::closeSession(unsigned user, std::uint64_t max_wait_cycles) {
  Session* s = find(user);
  if (s == nullptr) return false;
  // A slot that fail-secure zeroization already cleared refuses the clear;
  // its key is gone all the same.
  if (!accel::zeroizeKey128(acc_, user, s->slot, cellBase(s->slot),
                            max_wait_cycles) &&
      acc_.roundKeys().valid(s->slot))
    return false;
  *s = Session{};
  return true;
}

void KeyManager::zeroizeAll(std::uint64_t max_wait_cycles) {
  for (unsigned s = 0; s < kRoundKeySlots; ++s) {
    if (!acc_.roundKeys().valid(s)) continue;
    accel::waitSlotIdle(acc_, s, max_wait_cycles);
    acc_.clearKey(0, s);  // user 0 is the engine's supervisor
  }
  slots_.fill(Session{});
}

}  // namespace aesifc::soc
