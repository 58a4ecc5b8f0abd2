#include "soc/key_manager.h"

#include "accel/driver.h"

namespace aesifc::soc {

using accel::kRoundKeySlots;
using accel::kScratchpadCells;

KeyManager::KeyManager(accel::AesAccelerator& acc, std::uint64_t seed)
    : acc_{acc}, rng_{seed} {
  // Slot 0 is reserved for the master key by convention.
  slot_in_use_.set(0);
}

std::vector<std::uint8_t> KeyManager::freshKey() {
  std::vector<std::uint8_t> k(16);
  for (auto& b : k) b = static_cast<std::uint8_t>(rng_.next());
  return k;
}

bool KeyManager::install(Session& s) {
  return accel::loadKey128(acc_, s.user, s.slot, s.cell_base, s.key,
                           acc_.principal(s.user).authority.c);
}

std::optional<KeyManager::Session> KeyManager::openSession(unsigned user) {
  if (sessions_.count(user)) return std::nullopt;  // one session per user

  int slot = -1;
  for (unsigned i = 0; i < kRoundKeySlots; ++i) {
    if (!slot_in_use_.test(i)) {
      slot = static_cast<int>(i);
      break;
    }
  }
  int base = -1;
  for (unsigned i = 0; i + 1 < kScratchpadCells; i += 2) {
    if (!cells_in_use_.test(i) && !cells_in_use_.test(i + 1)) {
      base = static_cast<int>(i);
      break;
    }
  }
  if (slot < 0 || base < 0) return std::nullopt;

  Session s;
  s.user = user;
  s.slot = static_cast<unsigned>(slot);
  s.cell_base = static_cast<unsigned>(base);
  s.key = freshKey();
  s.generation = 1;
  if (!install(s)) return std::nullopt;

  slot_in_use_.set(s.slot);
  cells_in_use_.set(s.cell_base);
  cells_in_use_.set(s.cell_base + 1);
  auto [it, ok] = sessions_.emplace(user, std::move(s));
  (void)ok;
  return it->second;
}

bool KeyManager::rotate(unsigned user, unsigned max_wait_cycles) {
  auto it = sessions_.find(user);
  if (it == sessions_.end()) return false;
  // A frozen session's generation is pledged to an in-flight migration;
  // rotating underneath it would invalidate the ticket's proof.
  if (it->second.exporting) return false;
  // Updating the round-key RAM while a block of this slot is in flight
  // would corrupt it mid-encryption; drain first.
  if (!accel::waitSlotIdle(acc_, it->second.slot, max_wait_cycles))
    return false;
  Session candidate = it->second;
  candidate.key = freshKey();
  candidate.generation++;
  if (!install(candidate)) return false;
  it->second = std::move(candidate);
  return true;
}

bool KeyManager::quiesceAndRelease(Session& s) {
  if (!accel::zeroizeKey128(acc_, s.user, s.slot, s.cell_base, 256))
    return false;
  slot_in_use_.reset(s.slot);
  cells_in_use_.reset(s.cell_base);
  cells_in_use_.reset(s.cell_base + 1);
  return true;
}

bool KeyManager::closeSession(unsigned user) {
  auto it = sessions_.find(user);
  if (it == sessions_.end()) return false;
  if (!quiesceAndRelease(it->second)) return false;
  sessions_.erase(it);
  return true;
}

std::optional<KeyManager::MigrationTicket> KeyManager::exportForMigration(
    unsigned user) {
  auto it = sessions_.find(user);
  if (it == sessions_.end()) return std::nullopt;
  it->second.exporting = true;
  MigrationTicket t;
  t.user = user;
  t.key = it->second.key;
  t.generation = it->second.generation;
  return t;
}

std::optional<KeyManager::Session> KeyManager::importProvisioned(
    const MigrationTicket& ticket) {
  if (ticket.key.size() != 16) return std::nullopt;
  auto imported = openSession(ticket.user);
  if (!imported.has_value()) return std::nullopt;
  // openSession installed a fresh random key to claim the resources; swap
  // in the migrated material under the ticket's next generation through the
  // same audited install path.
  auto it = sessions_.find(ticket.user);
  Session candidate = it->second;
  candidate.key = ticket.key;
  candidate.generation = ticket.generation + 1;
  if (!install(candidate)) {
    closeSession(ticket.user);
    return std::nullopt;
  }
  it->second = std::move(candidate);
  return it->second;
}

bool KeyManager::finishMigration(unsigned user,
                                 std::uint64_t imported_generation) {
  auto it = sessions_.find(user);
  if (it == sessions_.end()) return false;
  if (!it->second.exporting) return false;
  if (imported_generation != it->second.generation + 1) {
    // Proof mismatch: the target does not hold this key's next generation.
    // Unfreeze so the caller can retry the export or keep serving here.
    it->second.exporting = false;
    return false;
  }
  if (!quiesceAndRelease(it->second)) return false;
  sessions_.erase(it);
  return true;
}

const KeyManager::Session* KeyManager::session(unsigned user) const {
  auto it = sessions_.find(user);
  return it == sessions_.end() ? nullptr : &it->second;
}

}  // namespace aesifc::soc
