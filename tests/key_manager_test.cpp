#include "soc/key_manager.h"

#include <gtest/gtest.h>

#include "accel/driver.h"
#include "aes/cipher.h"
#include "common/rng.h"

namespace aesifc::soc {
namespace {

using accel::AcceleratorConfig;
using accel::AesAccelerator;
using accel::BlockRequest;
using lattice::Conf;
using lattice::Principal;

struct KmFixture : ::testing::Test {
  AesAccelerator acc{AcceleratorConfig{}};
  unsigned sup = acc.addUser(Principal::supervisor());
  unsigned alice = acc.addUser(Principal::user("alice", 1));
  unsigned bob = acc.addUser(Principal::user("bob", 2));
  KeyManager km{acc};
  Rng rng{0x6b6579};

  std::vector<std::uint8_t> freshKey() {
    std::vector<std::uint8_t> k(16);
    for (auto& b : k) b = static_cast<std::uint8_t>(rng.next());
    return k;
  }

  // Opens `user`'s session on the lowest free slot under the user's own
  // confidentiality; returns it, or nullptr when refused.
  const KeyManager::Session* open(unsigned user) {
    const auto slot = km.freeSlot();
    const Conf own = acc.principal(user).authority.c;
    if (!slot || !km.openSession(user, *slot, freshKey(), own)) return nullptr;
    return km.session(user);
  }

  // open() that must succeed.
  KeyManager::Session mustOpen(unsigned user) {
    const auto* s = open(user);
    EXPECT_NE(s, nullptr) << "user " << user;
    return s != nullptr ? *s : KeyManager::Session{};
  }

  accel::BlockResponse crypt(unsigned user, unsigned slot,
                             const aes::Block& data) {
    static std::uint64_t id = 90000;
    BlockRequest req{++id, user, slot, false, data};
    EXPECT_TRUE(acc.submit(req));
    for (unsigned i = 0; i < 200; ++i) {
      acc.tick();
      if (auto out = acc.fetchOutput(user)) return *out;
    }
    ADD_FAILURE() << "no response";
    return {};
  }
};

TEST_F(KmFixture, OpenSessionInstallsWorkingKey) {
  const auto* s = open(alice);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->generation, 1u);
  aes::Block pt{};
  const auto resp = crypt(alice, s->slot, pt);
  EXPECT_EQ(resp.data,
            aes::encryptBlock(pt, s->key.data(), aes::KeySize::Aes128));
}

TEST_F(KmFixture, SessionsGetDisjointResources) {
  const auto sa = mustOpen(alice);
  const auto sb = mustOpen(bob);
  EXPECT_NE(sa.slot, sb.slot);
  EXPECT_NE(KeyManager::cellBase(sa.slot), KeyManager::cellBase(sb.slot));
  EXPECT_NE(sa.key, sb.key);
  // Slot 0 stays reserved for the master key.
  EXPECT_NE(sa.slot, 0u);
  EXPECT_NE(sb.slot, 0u);
  const unsigned carol = acc.addUser(Principal::user("carol", 3));
  const Conf c3 = Conf::category(3);
  EXPECT_FALSE(km.openSession(carol, 0, freshKey(), c3));
  // One session per user, one user per slot.
  EXPECT_FALSE(km.openSession(alice, *km.freeSlot(), freshKey(),
                              Conf::category(1)));
  EXPECT_FALSE(km.openSession(carol, sa.slot, freshKey(), c3));
  EXPECT_EQ(km.activeSessions(), 2u);
}

TEST_F(KmFixture, ResourceExhaustionReported) {
  // Slots, not staging cells, bound a device: every load re-tags (and so
  // scrubs) its slot's cell pair, so slots share the eight cells round-robin
  // and every slot but the master key's holds a tenant key.
  std::vector<unsigned> users;
  for (unsigned i = 0; i < accel::kRoundKeySlots + 1; ++i) {
    users.push_back(acc.addUser(
        Principal::user("t" + std::to_string(i), (i % 13) + 3)));
  }
  unsigned opened = 0;
  for (unsigned u : users) opened += open(u) != nullptr ? 1 : 0;
  EXPECT_EQ(opened, accel::kRoundKeySlots - 1);
  EXPECT_FALSE(km.freeSlot().has_value());
  // Each key survives the later loads that re-used its staging cells.
  aes::Block pt{};
  for (unsigned u : users) {
    const auto* s = km.session(u);
    if (s == nullptr) continue;
    EXPECT_EQ(crypt(u, s->slot, pt).data,
              aes::encryptBlock(pt, s->key.data(), aes::KeySize::Aes128))
        << "slot " << s->slot;
  }
}

TEST_F(KmFixture, RotationChangesKeyAndGeneration) {
  const auto s1 = mustOpen(alice);
  ASSERT_TRUE(km.rotate(alice, freshKey()));
  const auto* s2 = km.session(alice);
  ASSERT_NE(s2, nullptr);
  EXPECT_EQ(s2->generation, 2u);
  EXPECT_NE(s2->key, s1.key);
  EXPECT_EQ(s2->slot, s1.slot);  // same hardware slot, new key

  aes::Block pt{};
  const auto resp = crypt(alice, s2->slot, pt);
  EXPECT_EQ(resp.data,
            aes::encryptBlock(pt, s2->key.data(), aes::KeySize::Aes128));
}

TEST_F(KmFixture, RotationWaitsForInFlightBlocks) {
  const auto s = mustOpen(alice);
  // Put a block in flight, then rotate: the old block must complete under
  // the OLD key (the manager drains before touching the slot).
  BlockRequest req{777, alice, s.slot, false, {}};
  ASSERT_TRUE(acc.submit(req));
  acc.tick();  // in stage 0 now
  ASSERT_TRUE(acc.keySlotBusy(s.slot));
  ASSERT_TRUE(km.rotate(alice, freshKey()));
  EXPECT_FALSE(acc.keySlotBusy(s.slot));

  // Collect the pre-rotation block.
  accel::BlockResponse old_resp;
  bool got = false;
  for (unsigned i = 0; i < 100 && !got; ++i) {
    if (auto out = acc.fetchOutput(alice)) {
      old_resp = *out;
      got = true;
      break;
    }
    acc.tick();
  }
  ASSERT_TRUE(got);
  aes::Block pt{};
  EXPECT_EQ(old_resp.data,
            aes::encryptBlock(pt, s.key.data(), aes::KeySize::Aes128));

  // New traffic uses the rotated key.
  const auto* s2 = km.session(alice);
  const auto new_resp = crypt(alice, s2->slot, pt);
  EXPECT_EQ(new_resp.data,
            aes::encryptBlock(pt, s2->key.data(), aes::KeySize::Aes128));
}

TEST_F(KmFixture, CloseSessionZeroizesAndFrees) {
  const auto s = mustOpen(alice);
  ASSERT_TRUE(km.closeSession(alice, 256));
  EXPECT_EQ(km.session(alice), nullptr);
  EXPECT_FALSE(acc.roundKeys().valid(s.slot));
  EXPECT_EQ(acc.scratchpad().rawCell(KeyManager::cellBase(s.slot)), 0u);
  EXPECT_EQ(acc.scratchpad().rawCell(KeyManager::cellBase(s.slot) + 1), 0u);
  // Resources are reusable.
  const auto* s2 = open(bob);
  ASSERT_NE(s2, nullptr);
  EXPECT_EQ(s2->slot, s.slot);
}

TEST_F(KmFixture, CloseSessionReleasesASlotFailSecureAlreadyCleared) {
  const auto s = mustOpen(alice);
  ASSERT_TRUE(acc.clearKey(alice, s.slot));  // as fail-secure zeroization
  EXPECT_TRUE(km.closeSession(alice, 256));
  EXPECT_EQ(km.freeSlot(), s.slot);
}

TEST_F(KmFixture, ReloadRestoresAZeroizedSlot) {
  const auto s = mustOpen(alice);
  ASSERT_TRUE(acc.clearKey(alice, s.slot));
  ASSERT_TRUE(km.reload(alice));
  EXPECT_EQ(km.session(alice)->generation, 1u);  // same key, same generation
  aes::Block pt{};
  EXPECT_EQ(crypt(alice, s.slot, pt).data,
            aes::encryptBlock(pt, s.key.data(), aes::KeySize::Aes128));
}

TEST_F(KmFixture, ZeroizeAllClearsEverySlotAndForgetsSessions) {
  ASSERT_TRUE(accel::loadKey128(acc, sup, 0, 6, freshKey(), Conf::top()));
  ASSERT_NE(open(alice), nullptr);
  ASSERT_NE(open(bob), nullptr);
  km.zeroizeAll(256);
  for (unsigned s = 0; s < accel::kRoundKeySlots; ++s)
    EXPECT_FALSE(acc.roundKeys().valid(s)) << "slot " << s;
  EXPECT_EQ(km.activeSessions(), 0u);
  EXPECT_EQ(km.freeSlot(), 1u);
}

TEST_F(KmFixture, RotateUnknownUserFails) {
  EXPECT_FALSE(km.rotate(alice, freshKey()));
  EXPECT_FALSE(km.reload(alice));
  EXPECT_FALSE(km.quiesce(alice, 256));
  EXPECT_FALSE(km.closeSession(alice, 256));
}

TEST_F(KmFixture, ContinuousTrafficAcrossRotations) {
  const auto s0 = mustOpen(alice);
  unsigned slot = s0.slot;
  for (unsigned round = 0; round < 5; ++round) {
    const auto* s = km.session(alice);
    for (unsigned i = 0; i < 4; ++i) {
      aes::Block pt{};
      for (auto& b : pt) b = static_cast<std::uint8_t>(rng.next());
      const auto resp = crypt(alice, slot, pt);
      EXPECT_EQ(resp.data,
                aes::encryptBlock(pt, s->key.data(), aes::KeySize::Aes128))
          << "round " << round;
    }
    ASSERT_TRUE(km.rotate(alice, freshKey())) << "round " << round;
  }
  EXPECT_EQ(km.session(alice)->generation, 6u);
}

}  // namespace
}  // namespace aesifc::soc
