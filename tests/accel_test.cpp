#include "accel/accelerator.h"

#include <gtest/gtest.h>

#include "accel/mmio.h"

#include "aes/cipher.h"
#include "common/rng.h"

namespace aesifc::accel {
namespace {

using lattice::Conf;
using lattice::Integ;
using lattice::Label;
using lattice::Principal;

struct AccelFixture : ::testing::TestWithParam<SecurityMode> {
  AcceleratorConfig cfg() const {
    AcceleratorConfig c;
    c.mode = GetParam();
    return c;
  }

  static std::vector<std::uint8_t> key16(std::uint8_t seed) {
    std::vector<std::uint8_t> k(16);
    for (unsigned i = 0; i < 16; ++i)
      k[i] = static_cast<std::uint8_t>(seed + 31 * i);
    return k;
  }

  static void load(AesAccelerator& acc, unsigned user, unsigned slot,
                   unsigned base, const std::vector<std::uint8_t>& key,
                   Conf conf) {
    acc.configureKeyCells(user, base, 2);
    for (unsigned c = 0; c < 2; ++c) {
      std::uint64_t w = 0;
      for (unsigned b = 0; b < 8; ++b)
        w |= static_cast<std::uint64_t>(key[8 * c + b]) << (8 * b);
      ASSERT_TRUE(acc.writeKeyCell(user, base + c, w));
    }
    ASSERT_TRUE(acc.loadKey(user, slot, base, aes::KeySize::Aes128, conf));
  }

  static BlockResponse crypt(AesAccelerator& acc, unsigned user, unsigned slot,
                             const aes::Block& data, bool decrypt = false) {
    static std::uint64_t id = 1;
    BlockRequest req{id++, user, slot, decrypt, data};
    EXPECT_TRUE(acc.submit(req));
    for (unsigned i = 0; i < 200; ++i) {
      acc.tick();
      if (auto out = acc.fetchOutput(user)) return *out;
    }
    ADD_FAILURE() << "no response";
    return {};
  }
};

TEST_P(AccelFixture, EncryptsCorrectly) {
  AesAccelerator acc{cfg()};
  const unsigned u = acc.addUser(Principal::user("alice", 1));
  const auto key = key16(0x11);
  load(acc, u, 1, 0, key, Conf::category(1));

  aes::Block pt{};
  for (unsigned i = 0; i < 16; ++i) pt[i] = static_cast<std::uint8_t>(i);
  const auto resp = crypt(acc, u, 1, pt);
  EXPECT_FALSE(resp.suppressed);
  EXPECT_EQ(resp.data, aes::encryptBlock(pt, key.data(), aes::KeySize::Aes128));
}

TEST_P(AccelFixture, DecryptsCorrectly) {
  AesAccelerator acc{cfg()};
  const unsigned u = acc.addUser(Principal::user("alice", 1));
  const auto key = key16(0x22);
  load(acc, u, 1, 0, key, Conf::category(1));

  aes::Block pt{};
  for (unsigned i = 0; i < 16; ++i) pt[i] = static_cast<std::uint8_t>(0xf0 - i);
  const auto ct = aes::encryptBlock(pt, key.data(), aes::KeySize::Aes128);
  const auto resp = crypt(acc, u, 1, ct, /*decrypt=*/true);
  EXPECT_FALSE(resp.suppressed);
  EXPECT_EQ(resp.data, pt);
}

TEST_P(AccelFixture, ThirtyCycleLatency) {
  AesAccelerator acc{cfg()};
  const unsigned u = acc.addUser(Principal::user("alice", 1));
  load(acc, u, 1, 0, key16(0x33), Conf::category(1));
  aes::Block pt{};
  const auto resp = crypt(acc, u, 1, pt);
  // Accepted the cycle after submit; 30 pipeline stages; +1 for delivery.
  EXPECT_EQ(resp.complete_cycle - resp.accept_cycle, 30u);
}

TEST_P(AccelFixture, SubmitRejectsInvalidKeySlot) {
  AesAccelerator acc{cfg()};
  const unsigned u = acc.addUser(Principal::user("alice", 1));
  BlockRequest req{1, u, 5, false, {}};
  EXPECT_FALSE(acc.submit(req));
  EXPECT_EQ(acc.eventCount(SecurityEventKind::KeySlotBlocked), 1u);
}

TEST_P(AccelFixture, SubmitRejectsOversizedKey) {
  AesAccelerator acc{cfg()};  // 10-round pipeline
  const unsigned u = acc.addUser(Principal::user("alice", 1));
  acc.configureKeyCells(u, 0, 4);
  std::vector<std::uint8_t> key(32, 0x44);
  for (unsigned c = 0; c < 4; ++c)
    ASSERT_TRUE(acc.writeKeyCell(u, c, 0x4444444444444444ULL));
  ASSERT_TRUE(acc.loadKey(u, 1, 0, aes::KeySize::Aes256, Conf::category(1)));
  BlockRequest req{1, u, 1, false, {}};
  EXPECT_FALSE(acc.submit(req));  // needs 14 rounds > 10
}

TEST_P(AccelFixture, ScratchpadOwnCellsWork) {
  AesAccelerator acc{cfg()};
  const unsigned u = acc.addUser(Principal::user("alice", 1));
  acc.configureKeyCells(u, 2, 2);
  EXPECT_TRUE(acc.writeKeyCell(u, 2, 0xdead));
  EXPECT_EQ(acc.scratchpad().rawCell(2), 0xdeadu);
}

TEST_P(AccelFixture, ConfigReadableByAll) {
  AesAccelerator acc{cfg()};
  const unsigned u = acc.addUser(Principal::user("eve", 2));
  (void)u;
  EXPECT_EQ(acc.readConfig("version"), 0x20190602u);
  EXPECT_THROW(acc.readConfig("bogus"), std::out_of_range);
}

INSTANTIATE_TEST_SUITE_P(BothModes, AccelFixture,
                         ::testing::Values(SecurityMode::Baseline,
                                           SecurityMode::Protected));

// --- Protected-only behavior ------------------------------------------------------

struct ProtectedFixture : ::testing::Test {
  AesAccelerator acc{AcceleratorConfig{SecurityMode::Protected, 10, 32, false}};
  unsigned sup = acc.addUser(Principal::supervisor());
  unsigned alice = acc.addUser(Principal::user("alice", 1));
  unsigned eve = acc.addUser(Principal::user("eve", 2));
};

TEST_F(ProtectedFixture, ScratchpadCrossUserWriteBlocked) {
  acc.configureKeyCells(alice, 2, 2);
  acc.configureKeyCells(eve, 0, 2);
  EXPECT_TRUE(acc.writeKeyCell(eve, 0, 1));
  EXPECT_FALSE(acc.writeKeyCell(eve, 2, 2));  // Alice's cell
  EXPECT_EQ(acc.eventCount(SecurityEventKind::ScratchpadWriteBlocked), 1u);
}

TEST_F(ProtectedFixture, ScratchpadCrossUserReadBlocked) {
  acc.configureKeyCells(alice, 2, 2);
  ASSERT_TRUE(acc.writeKeyCell(alice, 2, 0x1234));
  ASSERT_TRUE(acc.writeKeyCell(alice, 3, 0x5678));
  // Eve attempts to expand a "key" starting at Alice's cells.
  EXPECT_FALSE(acc.loadKey(eve, 3, 2, aes::KeySize::Aes128, Conf::category(2)));
  EXPECT_GE(acc.eventCount(SecurityEventKind::ScratchpadReadBlocked), 1u);
}

TEST_F(ProtectedFixture, SupervisorCanReadUserCells) {
  acc.configureKeyCells(alice, 2, 2);
  ASSERT_TRUE(acc.writeKeyCell(alice, 2, 0x9999));
  const auto v = acc.scratchpad().readCell(2, acc.principal(sup).authority);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 0x9999u);
}

// Fig. 5 reuse: the arbiter re-tags cells for a new owner. The previous
// owner's key words must not survive the re-tag, or the new owner could
// expand them into its own slot and encrypt under a key it never saw.
TEST_F(ProtectedFixture, RetaggedCellsDoNotCarryThePreviousOwnersKey) {
  const auto alice_key = AccelFixture::key16(0xa1);
  const auto zero_key = std::vector<std::uint8_t>(16, 0);
  auto firstRoundKey = [&](unsigned slot) {
    const aes::RoundKey& rk = acc.roundKeys().roundKey(slot, 0);
    return std::vector<std::uint8_t>(rk.begin(), rk.end());
  };

  // Direct API: Alice stages her key in cells 2-3 and expands it into
  // slot 1; Eve re-tags the cells to herself and expands them into slot 2.
  AccelFixture::load(acc, alice, 1, 2, alice_key, Conf::category(1));
  acc.configureKeyCells(eve, 2, 2);
  EXPECT_EQ(acc.scratchpad().rawCell(2), 0u);
  EXPECT_EQ(acc.scratchpad().rawCell(3), 0u);
  EXPECT_TRUE(acc.scratchpad().cellParityOk(2));
  EXPECT_TRUE(acc.scratchpad().cellParityOk(3));
  ASSERT_TRUE(acc.loadKey(eve, 2, 2, aes::KeySize::Aes128, Conf::category(2)));
  EXPECT_EQ(firstRoundKey(2), zero_key);
  aes::Block pt{};
  for (unsigned i = 0; i < 16; ++i) pt[i] = static_cast<std::uint8_t>(i);
  ASSERT_TRUE(acc.submit(BlockRequest{1, eve, 2, false, pt}));
  std::optional<BlockResponse> out;
  for (unsigned i = 0; i < 200 && !out; ++i) {
    acc.tick();
    out = acc.fetchOutput(eve);
  }
  ASSERT_TRUE(out.has_value());
  EXPECT_NE(out->data,
            aes::encryptBlock(pt, alice_key.data(), aes::KeySize::Aes128));
  EXPECT_EQ(out->data,
            aes::encryptBlock(pt, zero_key.data(), aes::KeySize::Aes128));

  // The same theft over the register interface: KEY_GO op 2 re-tags, op 4
  // expands (palette 2 = category 2).
  AccelFixture::load(acc, alice, 3, 4, alice_key, Conf::category(1));
  MmioWindow eve_win{acc, eve};
  eve_win.write(MmioWindow::kKeyArg, (2u << 8) | 4);
  eve_win.write(MmioWindow::kKeyGo, 2);
  eve_win.write(MmioWindow::kKeySlot, 4);
  eve_win.write(MmioWindow::kKeyArg, (2u << 8) | 4);
  eve_win.write(MmioWindow::kKeyGo, 4);
  ASSERT_EQ(eve_win.read(MmioWindow::kLastOpOk), 1u);
  EXPECT_EQ(firstRoundKey(4), zero_key);
  EXPECT_EQ(firstRoundKey(3), alice_key);  // Alice's own slot is untouched
}

TEST_F(ProtectedFixture, ConfigWriteRequiresSupervisor) {
  EXPECT_FALSE(acc.writeConfig(eve, "debug_enable", 1));
  EXPECT_EQ(acc.readConfig("debug_enable"), 0u);
  EXPECT_TRUE(acc.writeConfig(sup, "debug_enable", 1));
  EXPECT_EQ(acc.readConfig("debug_enable"), 1u);
  EXPECT_EQ(acc.eventCount(SecurityEventKind::ConfigWriteBlocked), 1u);
}

TEST_F(ProtectedFixture, DebugDisabledBlocksEveryone) {
  EXPECT_FALSE(acc.debugReadStage(sup, 0).has_value());
  EXPECT_GE(acc.eventCount(SecurityEventKind::DebugReadBlocked), 1u);
}

TEST_F(ProtectedFixture, OutputTagMatchesUserAndKey) {
  AccelFixture::load(acc, alice, 1, 2, AccelFixture::key16(1),
                     Conf::category(1));
  BlockRequest req{9, alice, 1, false, {}};
  ASSERT_TRUE(acc.submit(req));
  acc.tick();
  // The accepted block's stage tag joins user and key confidentiality.
  const auto& slot = acc.pipeline().stage(0);
  ASSERT_TRUE(slot.valid);
  EXPECT_EQ(slot.tag.c, Conf::category(1));
  EXPECT_EQ(slot.tag.i, Integ::category(1));
}

TEST_F(ProtectedFixture, StallGrantedWhenAlone) {
  AccelFixture::load(acc, alice, 1, 2, AccelFixture::key16(1),
                     Conf::category(1));
  acc.setReceiverReady(alice, false);
  BlockRequest req{1, alice, 1, false, {}};
  ASSERT_TRUE(acc.submit(req));
  acc.run(60);
  // Only Alice's data in flight: her stall request is honored and the block
  // waits at the end of the pipeline.
  EXPECT_GT(acc.stats().stalled_cycles, 0u);
  EXPECT_EQ(acc.stats().denied_stalls, 0u);
  EXPECT_EQ(acc.pendingOutputs(alice), 0u);
  acc.setReceiverReady(alice, true);
  acc.run(5);
  EXPECT_EQ(acc.pendingOutputs(alice), 1u);
}

TEST_F(ProtectedFixture, StallDeniedWhenLowerConfInFlight) {
  AccelFixture::load(acc, alice, 1, 2, AccelFixture::key16(1),
                     Conf::category(1));
  AccelFixture::load(acc, eve, 2, 0, AccelFixture::key16(2),
                     Conf::category(2));
  acc.setReceiverReady(alice, false);
  // Keep both users' data in flight.
  std::uint64_t id = 1;
  for (unsigned i = 0; i < 80; ++i) {
    if (acc.pendingInputs(alice) < 2)
      acc.submit(BlockRequest{id++, alice, 1, false, {}});
    if (acc.pendingInputs(eve) < 2)
      acc.submit(BlockRequest{id++, eve, 2, false, {}});
    acc.tick();
    while (acc.fetchOutput(eve)) {
    }
  }
  EXPECT_GT(acc.stats().denied_stalls, 0u);
  EXPECT_GT(acc.stats().buffered, 0u);
  EXPECT_GE(acc.eventCount(SecurityEventKind::StallDenied), 1u);
}

TEST_F(ProtectedFixture, OverflowBufferDeliversWhenReady) {
  AccelFixture::load(acc, alice, 1, 2, AccelFixture::key16(1),
                     Conf::category(1));
  AccelFixture::load(acc, eve, 2, 0, AccelFixture::key16(2),
                     Conf::category(2));
  acc.setReceiverReady(alice, false);
  std::uint64_t id = 1;
  for (unsigned i = 0; i < 60; ++i) {
    if (acc.pendingInputs(alice) < 2)
      acc.submit(BlockRequest{id++, alice, 1, false, {}});
    if (acc.pendingInputs(eve) < 2)
      acc.submit(BlockRequest{id++, eve, 2, false, {}});
    acc.tick();
  }
  ASSERT_GT(acc.stats().buffered, 0u);
  acc.setReceiverReady(alice, true);
  acc.run(static_cast<unsigned>(acc.stats().buffered) + 40);
  EXPECT_GT(acc.pendingOutputs(alice), 0u);
}

TEST_F(ProtectedFixture, BufferOverflowDropsAndCounts) {
  AesAccelerator small{AcceleratorConfig{SecurityMode::Protected, 10, 2, false}};
  const unsigned s_sup = small.addUser(Principal::supervisor());
  (void)s_sup;
  const unsigned a = small.addUser(Principal::user("alice", 1));
  const unsigned e = small.addUser(Principal::user("eve", 2));
  AccelFixture::load(small, a, 1, 2, AccelFixture::key16(1), Conf::category(1));
  AccelFixture::load(small, e, 2, 0, AccelFixture::key16(2), Conf::category(2));
  small.setReceiverReady(a, false);
  std::uint64_t id = 1;
  for (unsigned i = 0; i < 200; ++i) {
    if (small.pendingInputs(a) < 2)
      small.submit(BlockRequest{id++, a, 1, false, {}});
    if (small.pendingInputs(e) < 2)
      small.submit(BlockRequest{id++, e, 2, false, {}});
    small.tick();
    while (small.fetchOutput(e)) {
    }
  }
  EXPECT_GT(small.stats().dropped, 0u);
  EXPECT_GE(small.eventCount(SecurityEventKind::OutputBufferOverflow), 1u);
}

// --- Baseline-only behavior: the vulnerabilities exist --------------------------

TEST(BaselineAccel, StallFreezesWholePipeline) {
  AesAccelerator acc{AcceleratorConfig{SecurityMode::Baseline, 10, 32, false}};
  const unsigned alice = acc.addUser(Principal::user("alice", 1));
  const unsigned eve = acc.addUser(Principal::user("eve", 2));
  AccelFixture::load(acc, alice, 1, 2, AccelFixture::key16(1),
                     Conf::category(1));
  AccelFixture::load(acc, eve, 2, 0, AccelFixture::key16(2),
                     Conf::category(2));
  acc.setReceiverReady(alice, false);
  std::uint64_t id = 1;
  unsigned eve_outputs = 0;
  for (unsigned i = 0; i < 120; ++i) {
    if (acc.pendingInputs(alice) < 2)
      acc.submit(BlockRequest{id++, alice, 1, false, {}});
    if (acc.pendingInputs(eve) < 2)
      acc.submit(BlockRequest{id++, eve, 2, false, {}});
    acc.tick();
    while (acc.fetchOutput(eve)) ++eve_outputs;
  }
  // Alice's stall starves Eve: the covert channel of Section 3.2.5.
  EXPECT_GT(acc.stats().stalled_cycles, 50u);
  EXPECT_LT(eve_outputs, 40u);
}

}  // namespace
}  // namespace aesifc::accel
