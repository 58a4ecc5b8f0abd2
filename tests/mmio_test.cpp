#include "accel/mmio.h"

#include <gtest/gtest.h>

#include "aes/cipher.h"
#include "common/rng.h"

namespace aesifc::accel {
namespace {

using lattice::Principal;
using W = MmioWindow;

struct MmioFixture : ::testing::Test {
  AesAccelerator acc{AcceleratorConfig{}};
  unsigned sup = acc.addUser(Principal::supervisor());
  unsigned alice = acc.addUser(Principal::user("alice", 1));
  unsigned eve = acc.addUser(Principal::user("eve", 2));
  MmioWindow sup_win{acc, sup};
  MmioWindow alice_win{acc, alice};
  MmioWindow eve_win{acc, eve};
  Rng rng{77};

  // Program a 128-bit key load entirely through the register interface.
  bool mmioLoadKey(MmioWindow& win, unsigned slot, unsigned base,
                   const std::vector<std::uint8_t>& key, unsigned palette) {
    win.write(W::kKeyArg, (2u << 8) | base);  // configure 2 cells at base
    win.write(W::kKeyGo, 2);
    for (unsigned c = 0; c < 2; ++c) {
      std::uint32_t lo = 0, hi = 0;
      for (unsigned i = 0; i < 4; ++i) {
        lo |= static_cast<std::uint32_t>(key[8 * c + i]) << (8 * i);
        hi |= static_cast<std::uint32_t>(key[8 * c + 4 + i]) << (8 * i);
      }
      win.write(W::kKeyArg, base + c);
      win.write(W::kKeyLo, lo);
      win.write(W::kKeyHi, hi);
      win.write(W::kKeyGo, 1);
      if (win.read(W::kLastOpOk) == 0) return false;
    }
    win.write(W::kKeySlot, slot);
    win.write(W::kKeyArg, (palette << 8) | base);
    win.write(W::kKeyGo, 4);
    return win.read(W::kLastOpOk) == 1;
  }

  aes::Block randomBlock() {
    aes::Block b{};
    for (auto& x : b) x = static_cast<std::uint8_t>(rng.next());
    return b;
  }
};

TEST_F(MmioFixture, FullEncryptFlowThroughRegisters) {
  std::vector<std::uint8_t> key(16);
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.next());
  ASSERT_TRUE(mmioLoadKey(alice_win, 1, 0, key, 1));

  const auto pt = randomBlock();
  for (unsigned w = 0; w < 4; ++w) {
    std::uint32_t v = 0;
    for (unsigned i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(pt[4 * w + i]) << (8 * i);
    alice_win.write(W::kDataIn + 4 * w, v);
  }
  alice_win.write(W::kKeySlot, 1);
  alice_win.write(W::kCtrl, 1);  // submit encrypt
  EXPECT_EQ(alice_win.read(W::kLastOpOk), 1u);

  // Poll STATUS until the result shows up.
  unsigned waited = 0;
  while ((alice_win.read(W::kStatus) & 1u) == 0 && waited++ < 100) acc.tick();
  ASSERT_LT(waited, 100u);
  EXPECT_EQ(alice_win.read(W::kStatus) & 2u, 0u);  // not suppressed

  aes::Block out{};
  for (unsigned w = 0; w < 4; ++w) {
    const std::uint32_t v = alice_win.read(W::kDataOut + 4 * w);
    for (unsigned i = 0; i < 4; ++i)
      out[4 * w + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  EXPECT_EQ(out, aes::encryptBlock(pt, key.data(), aes::KeySize::Aes128));

  alice_win.write(W::kCtrl, 4);  // pop
  EXPECT_EQ(alice_win.read(W::kStatus) & 1u, 0u);
}

// A fail-secure abort delivers a zeroed completion record. STATUS must say
// so: a host that saw only out-ready would take the zeros for ciphertext.
TEST_F(MmioFixture, StatusFlagsAFaultAbortedHead) {
  ASSERT_TRUE(mmioLoadKey(alice_win, 1, 0, std::vector<std::uint8_t>(16, 0x5a),
                          1));
  alice_win.write(W::kKeySlot, 1);
  alice_win.write(W::kCtrl, 1);
  ASSERT_EQ(alice_win.read(W::kLastOpOk), 1u);
  acc.run(3);
  unsigned stage = acc.pipeline().depth();
  for (unsigned i = 0; i < acc.pipeline().depth(); ++i) {
    if (acc.pipeline().stage(i).valid) stage = i;
  }
  ASSERT_LT(stage, acc.pipeline().depth());
  ASSERT_TRUE(acc.injectFault(FaultSite::StageData, stage, 77));
  unsigned waited = 0;
  while ((alice_win.read(W::kStatus) & 1u) == 0 && waited++ < 100) acc.tick();
  ASSERT_LT(waited, 100u);
  // One pending output, out-ready, out-fault-aborted.
  EXPECT_EQ(alice_win.read(W::kStatus), 0x105u);
  for (unsigned w = 0; w < 4; ++w)
    EXPECT_EQ(alice_win.read(W::kDataOut + 4 * w), 0u);
}

// Eve's block under alice's key is refused at the exit: bit1 alone.
TEST_F(MmioFixture, StatusFlagsASuppressedHead) {
  ASSERT_TRUE(mmioLoadKey(alice_win, 1, 0, std::vector<std::uint8_t>(16, 0x33),
                          1));
  eve_win.write(W::kKeySlot, 1);
  eve_win.write(W::kCtrl, 1);
  ASSERT_EQ(eve_win.read(W::kLastOpOk), 1u);
  acc.run(40);
  // One pending output, out-ready, out-suppressed.
  EXPECT_EQ(eve_win.read(W::kStatus), 0x103u);
  EXPECT_EQ(eve_win.read(W::kDataOut), 0u);
}

// An overflow drop delivers a zeroed completion record too, flagged by its
// own STATUS bit. The record keeps its place in the user's order: it waits
// behind her results already in the overflow buffer and leaves after them.
TEST_F(MmioFixture, StatusFlagsADroppedHead) {
  ASSERT_TRUE(mmioLoadKey(alice_win, 1, 0, std::vector<std::uint8_t>(16, 0x11),
                          1));
  ASSERT_TRUE(
      mmioLoadKey(eve_win, 2, 2, std::vector<std::uint8_t>(16, 0x22), 2));
  alice_win.write(W::kKeySlot, 1);
  eve_win.write(W::kKeySlot, 2);
  // Alice's receiver is not ready while eve's blocks share the pipe, so the
  // Fig. 8 meet denies her stall: her results fill the overflow buffer,
  // and the first one past it comes back as a dropped record.
  acc.setReceiverReady(alice, false);
  for (unsigned i = 0; i < 400 && acc.stats().dropped == 0; ++i) {
    if (acc.pendingInputs(alice) < 2) alice_win.write(W::kCtrl, 1);
    if (acc.pendingInputs(eve) < 2) eve_win.write(W::kCtrl, 1);
    acc.tick();
  }
  ASSERT_EQ(acc.stats().dropped, 1u);
  // Nothing is out yet: the record queues behind her buffered results.
  EXPECT_EQ(alice_win.read(W::kStatus), 0u);
  acc.setReceiverReady(alice, true);
  acc.run(200);
  const std::uint32_t pending = alice_win.read(W::kStatus) >> 8;
  ASSERT_GT(pending, acc.stats().dropped);
  // Her records in request order; the first one flagged dropped comes
  // after at least one result and reads zero.
  std::uint32_t last_id = 0, results = 0, drops = 0;
  for (std::uint32_t k = 0; k < pending; ++k) {
    const std::uint32_t status = alice_win.read(W::kStatus);
    const std::uint32_t id = alice_win.read(W::kReqIdLo);
    EXPECT_GT(id, last_id);
    last_id = id;
    if (status & 8u) {
      if (drops++ == 0) {
        EXPECT_GT(results, 0u);
        EXPECT_EQ(status & 0xffu, 0x09u);  // out-ready, out-dropped
        for (unsigned w = 0; w < 4; ++w)
          EXPECT_EQ(alice_win.read(W::kDataOut + 4 * w), 0u);
      }
    } else {
      EXPECT_EQ(status & 0xffu, 0x01u);
      ++results;
    }
    alice_win.write(W::kCtrl, 4);  // pop
  }
  EXPECT_EQ(drops, acc.stats().dropped);
}

TEST_F(MmioFixture, KeyCellProtectionVisibleThroughMmio) {
  std::vector<std::uint8_t> key(16, 0x42);
  ASSERT_TRUE(mmioLoadKey(alice_win, 1, 2, key, 1));
  // Eve's window stages a write into Alice's cell 2: refused, and the
  // failure is visible in LAST_OP_OK.
  eve_win.write(W::kKeyArg, 2);
  eve_win.write(W::kKeyLo, 0xdead);
  eve_win.write(W::kKeyHi, 0xbeef);
  eve_win.write(W::kKeyGo, 1);
  EXPECT_EQ(eve_win.read(W::kLastOpOk), 0u);
}

TEST_F(MmioFixture, ConfigWindowEnforcesIntegrity) {
  EXPECT_EQ(eve_win.read(W::kCfgBase + 0xc), 0x20190602u);  // version read
  eve_win.write(W::kCfgBase + 0x0, 1);  // debug_enable tamper
  EXPECT_EQ(eve_win.read(W::kLastOpOk), 0u);
  EXPECT_EQ(eve_win.read(W::kCfgBase + 0x0), 0u);
  sup_win.write(W::kCfgBase + 0x0, 1);
  EXPECT_EQ(sup_win.read(W::kLastOpOk), 1u);
  EXPECT_EQ(alice_win.read(W::kCfgBase + 0x0), 1u);
}

TEST_F(MmioFixture, DebugWindowTagChecked) {
  std::vector<std::uint8_t> key(16, 0x55);
  ASSERT_TRUE(mmioLoadKey(alice_win, 1, 0, key, 1));
  sup_win.write(W::kCfgBase + 0x0, 1);  // supervisor enables debug

  alice_win.write(W::kKeySlot, 1);
  alice_win.write(W::kCtrl, 1);
  acc.tick();  // Alice's block in stage 0

  eve_win.write(W::kDebugStage, 0);
  EXPECT_EQ(eve_win.read(W::kDebugData), 0u);
  EXPECT_EQ(eve_win.read(W::kDebugOk), 0u);

  sup_win.write(W::kDebugStage, 0);
  (void)sup_win.read(W::kDebugData);
  EXPECT_EQ(sup_win.read(W::kDebugOk), 1u);
}

TEST_F(MmioFixture, StatusCountsPendingOutputs) {
  std::vector<std::uint8_t> key(16, 0x66);
  ASSERT_TRUE(mmioLoadKey(alice_win, 1, 0, key, 1));
  alice_win.write(W::kKeySlot, 1);
  alice_win.write(W::kCtrl, 1);
  acc.tick();
  alice_win.write(W::kCtrl, 1);
  acc.run(80);
  EXPECT_EQ((alice_win.read(W::kStatus) >> 8) & 0xffffu, 2u);
  // Request ids are monotonically increasing within the window.
  const auto id1 =
      alice_win.read(W::kReqIdLo) |
      (static_cast<std::uint64_t>(alice_win.read(W::kReqIdHi)) << 32);
  alice_win.write(W::kCtrl, 4);
  const auto id2 =
      alice_win.read(W::kReqIdLo) |
      (static_cast<std::uint64_t>(alice_win.read(W::kReqIdHi)) << 32);
  EXPECT_EQ(id2, id1 + 1);
}

// An out-of-range KEY_GO is refused through LAST_OP_OK like any other
// refusal: it never throws out of the register interface, and it changes
// nothing.
TEST_F(MmioFixture, OutOfRangeKeyGoIsRefusedNotThrown) {
  std::vector<std::uint8_t> key(16, 0x77);
  ASSERT_TRUE(mmioLoadKey(alice_win, 1, 6, key, 1));  // LAST_OP_OK = 1
  const std::uint64_t cell6 = acc.scratchpad().rawCell(6);

  // Op 2 over cells 6..8, one past the end, and over a wrapped range.
  for (const std::uint32_t arg : {(3u << 8) | 6u, (0xffu << 8) | 0xffu}) {
    alice_win.write(W::kKeyArg, arg);
    EXPECT_NO_THROW(alice_win.write(W::kKeyGo, 2));
    EXPECT_EQ(alice_win.read(W::kLastOpOk), 0u) << std::hex << arg;
  }
  EXPECT_EQ(acc.scratchpad().rawCell(6), cell6);  // not re-tagged or zeroed

  // Op 4 into KEY_SLOT 8, one past the round-key RAM.
  alice_win.write(W::kKeySlot, kRoundKeySlots);
  alice_win.write(W::kKeyArg, (1u << 8) | 6u);
  EXPECT_NO_THROW(alice_win.write(W::kKeyGo, 4));
  EXPECT_EQ(alice_win.read(W::kLastOpOk), 0u);

  // The window keeps working after both refusals.
  alice_win.write(W::kKeySlot, 2);
  alice_win.write(W::kKeyGo, 4);
  EXPECT_EQ(alice_win.read(W::kLastOpOk), 1u);
}

// No register write or read throws out of an unprivileged window, whatever
// the value, in either mode, with the debug port on or off. A debug read of
// a stage past the pipe is refused through DEBUG_OK.
TEST_F(MmioFixture, NoRegisterAccessThrows) {
  const std::uint32_t values[] = {0, 1, 2, 4, 7, 8, 29, 30, 31, 255,
                                  0xffffffffu};
  for (const SecurityMode mode :
       {SecurityMode::Baseline, SecurityMode::Protected}) {
    for (const std::uint32_t debug : {0u, 1u}) {
      AcceleratorConfig cfg;
      cfg.mode = mode;
      AesAccelerator a{cfg};
      const unsigned s = a.addUser(Principal::supervisor());
      const unsigned e = a.addUser(Principal::user("eve", 2));
      ASSERT_TRUE(a.writeConfig(s, "debug_enable", debug));
      MmioWindow win{a, e};
      for (std::uint32_t addr = 0; addr <= W::kDebugOk; addr += 4) {
        for (const std::uint32_t v : values) {
          EXPECT_NO_THROW(win.write(addr, v)) << std::hex << addr << " " << v;
          EXPECT_NO_THROW((void)win.read(addr)) << std::hex << addr << " " << v;
          a.tick();
        }
      }
      for (const std::uint32_t stage : values) {
        win.write(W::kDebugStage, stage);
        const bool past_pipe = stage >= a.pipeline().depth();
        for (unsigned w = 0; w < 4; ++w) {
          std::uint32_t data = 1;
          EXPECT_NO_THROW(data = win.read(W::kDebugData + 4 * w)) << stage;
          if (past_pipe) {
            EXPECT_EQ(data, 0u) << stage;
          }
        }
        if (past_pipe) {
          EXPECT_EQ(win.read(W::kDebugOk), 0u) << stage;
        }
      }
    }
  }
}

TEST_F(MmioFixture, UnmappedReadsReturnZero) {
  EXPECT_EQ(alice_win.read(0xffc), 0u);
  alice_win.write(0xffc, 123);  // ignored, no crash
}

}  // namespace
}  // namespace aesifc::accel
