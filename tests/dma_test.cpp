#include "soc/dma.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "accel/driver.h"
#include "aes/modes.h"
#include "common/rng.h"
#include "soc/attacks.h"

namespace aesifc::soc {
namespace {

using accel::AcceleratorConfig;
using accel::AesAccelerator;
using accel::SecurityMode;
using lattice::Conf;
using lattice::Label;
using lattice::Principal;

struct DmaFixture : ::testing::TestWithParam<SecurityMode> {
  AcceleratorConfig cfg() const {
    AcceleratorConfig c;
    c.mode = GetParam();
    return c;
  }
};

// One ring channel for `user`: 4 descriptor slots at `base`, then 4
// completion slots, labelled with the user's authority so the engine's
// both-ways ring-page rule admits the user.
constexpr std::size_t kRingSpan = 4 * kDescBytes + 4 * kCompBytes;

struct UserRing {
  AesAccelerator& acc;
  HostMemory& mem;
  std::size_t base;
  DmaRingEngine eng;
  std::unique_ptr<DmaRingDriver> drv;
  std::uint64_t cycles = 0;  // device cycles of the last run, publish to
                             // completion

  UserRing(AesAccelerator& a, HostMemory& m, unsigned user, std::size_t b)
      : acc{a}, mem{m}, base{b}, eng{a, m} {
    DmaRingConfig rc;
    rc.desc_base = base;
    rc.desc_slots = 4;
    rc.comp_base = base + 4 * kDescBytes;
    rc.comp_slots = 4;
    mem.setPageLabel(base, kRingSpan, acc.principal(user).authority);
    drv = std::make_unique<DmaRingDriver>(eng, mem, eng.addChannel(rc), rc);
  }

  // Publish one descriptor and wait for its completion record.
  DmaCompletion run(const DmaDescriptor& d) {
    const auto errors_before = eng.stats().by_error;
    const std::uint64_t start = acc.cycle();
    const auto seq = drv->submit(d);
    EXPECT_TRUE(seq.has_value());
    const DmaCompletion* c = seq ? drv->wait(*seq, 4096) : nullptr;
    cycles = acc.cycle() - start;
    if (c != nullptr) return *c;
    // A head refused before its seq field is latched (user or key slot out
    // of range) completes with seq 0, which the driver cannot match to this
    // future: read the verdict from the engine's typed counters instead.
    DmaCompletion refused{DmaError::RingStalled};
    for (unsigned e = 0; e < kDmaErrors; ++e) {
      if (eng.stats().by_error[e] != errors_before[e])
        refused.status = static_cast<DmaError>(e);
    }
    return refused;
  }

  // Every byte of host memory except the ring's own descriptor and
  // completion slots (which the engine writes on every run).
  std::vector<std::uint8_t> bytesOutsideRing() const {
    auto out = mem.readBytes(0, base);
    const auto tail = mem.readBytes(base + kRingSpan,
                                    mem.size() - base - kRingSpan);
    out.insert(out.end(), tail.begin(), tail.end());
    return out;
  }
};

TEST(HostMemory, PageLabelsCoverRanges) {
  HostMemory mem{4 * kPageBytes};
  const Label alice = Principal::user("alice", 1).authority;
  mem.setPageLabel(kPageBytes, kPageBytes + 1, alice);  // spans 2 pages
  EXPECT_EQ(mem.pageLabel(0), Label::publicTrusted());
  EXPECT_EQ(mem.pageLabel(kPageBytes), alice);
  EXPECT_EQ(mem.pageLabel(2 * kPageBytes), alice);
  EXPECT_EQ(mem.pageLabel(3 * kPageBytes), Label::publicTrusted());
}

TEST(HostMemory, PageLabelStraddlesBoundaryFromMidPage) {
  // A short span that starts mid-page and crosses into the next page must
  // label BOTH pages it touches.
  HostMemory mem{4 * kPageBytes};
  const Label alice = Principal::user("alice", 1).authority;
  mem.setPageLabel(kPageBytes - 8, 16, alice);  // 8 bytes each side
  EXPECT_EQ(mem.pageLabel(0), alice);
  EXPECT_EQ(mem.pageLabel(kPageBytes), alice);
  EXPECT_EQ(mem.pageLabel(2 * kPageBytes), Label::publicTrusted());
}

TEST(HostMemory, ZeroLengthSpanLabelsNothing) {
  HostMemory mem{2 * kPageBytes};
  const Label alice = Principal::user("alice", 1).authority;
  mem.setPageLabel(10, 0, alice);  // empty span: no page touched
  EXPECT_EQ(mem.pageLabel(0), Label::publicTrusted());
  // Even at an address past the end of memory, an empty span is a no-op
  // rather than an error or a label change.
  EXPECT_NO_THROW(mem.setPageLabel(100 * kPageBytes, 0, alice));
}

TEST(HostMemory, SetPageLabelRangeErrorsAreAtomic) {
  HostMemory mem{4 * kPageBytes};
  const Label alice = Principal::user("alice", 1).authority;
  // Span runs past the end of memory: must throw and label NO page, even
  // though its first pages are in range (atomic failure).
  EXPECT_THROW(mem.setPageLabel(kPageBytes, 10 * kPageBytes, alice),
               std::out_of_range);
  for (std::size_t p = 0; p < 4; ++p) {
    EXPECT_EQ(mem.pageLabel(p * kPageBytes), Label::publicTrusted());
  }
  // addr + len overflowing size_t must not wrap around into "in range".
  EXPECT_THROW(
      mem.setPageLabel(8, std::numeric_limits<std::size_t>::max() - 2, alice),
      std::out_of_range);
  EXPECT_THROW(mem.setPageLabel(100 * kPageBytes, 1, alice),
               std::out_of_range);
  EXPECT_EQ(mem.pageLabel(0), Label::publicTrusted());
}

TEST(HostMemory, ByteAccess) {
  HostMemory mem{1024};
  mem.writeBytes(100, {1, 2, 3});
  EXPECT_EQ(mem.read8(101), 2);
  EXPECT_EQ(mem.readBytes(100, 3), (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST_P(DmaFixture, EcbDescriptorMatchesSoftware) {
  AesAccelerator acc{cfg()};
  const unsigned u = acc.addUser(Principal::user("alice", 1));
  Rng rng{11};
  std::vector<std::uint8_t> key(16);
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.next());
  ASSERT_TRUE(accel::loadKey128(acc, u, 1, 0, key, Conf::category(1)));

  HostMemory mem{16 * 1024};
  mem.setPageLabel(0x400, 512, acc.principal(u).authority);
  mem.setPageLabel(0x800, 512, acc.principal(u).authority);
  std::vector<std::uint8_t> msg(512);
  for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next());
  mem.writeBytes(0x400, msg);

  UserRing dma{acc, mem, u, 0x2000};
  DmaDescriptor d;
  d.user = u;
  d.key_slot = 1;
  d.mode = DmaMode::EcbEncrypt;
  d.src = 0x400;
  d.dst = 0x800;
  d.len = 512;
  const auto r = dma.run(d);
  ASSERT_EQ(r.status, DmaError::None) << toString(r.status);
  EXPECT_EQ(r.blocks, 32u);
  const auto ek = aes::expandKey(key, aes::KeySize::Aes128);
  EXPECT_EQ(mem.readBytes(0x800, 512), aes::ecbEncrypt(msg, ek));

  // Decrypt it back in place.
  DmaDescriptor back = d;
  back.mode = DmaMode::EcbDecrypt;
  back.src = 0x800;
  back.dst = 0x800;
  ASSERT_EQ(dma.run(back).status, DmaError::None);
  EXPECT_EQ(mem.readBytes(0x800, 512), msg);
}

TEST_P(DmaFixture, CtrDescriptorIsInvolutive) {
  AesAccelerator acc{cfg()};
  const unsigned u = acc.addUser(Principal::user("alice", 1));
  Rng rng{12};
  std::vector<std::uint8_t> key(16);
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.next());
  ASSERT_TRUE(accel::loadKey128(acc, u, 1, 0, key, Conf::category(1)));

  HostMemory mem{8 * 1024};
  mem.setPageLabel(0x000, 0x800, acc.principal(u).authority);
  std::vector<std::uint8_t> msg(200);  // not block aligned: fine for CTR
  for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next());
  mem.writeBytes(0x100, msg);

  UserRing dma{acc, mem, u, 0x1000};
  DmaDescriptor d;
  d.user = u;
  d.key_slot = 1;
  d.mode = DmaMode::CtrCrypt;
  d.src = 0x100;
  d.dst = 0x400;
  d.len = 200;
  for (auto& b : d.ctr_iv) b = static_cast<std::uint8_t>(rng.next());
  ASSERT_EQ(dma.run(d).status, DmaError::None);
  // Software check.
  const auto ek = aes::expandKey(key, aes::KeySize::Aes128);
  aes::Iv nonce{};
  std::copy(d.ctr_iv.begin(), d.ctr_iv.end(), nonce.begin());
  EXPECT_EQ(mem.readBytes(0x400, 200), aes::ctrCrypt(msg, ek, nonce));

  DmaDescriptor inv = d;
  inv.src = 0x400;
  inv.dst = 0x600;
  ASSERT_EQ(dma.run(inv).status, DmaError::None);
  EXPECT_EQ(mem.readBytes(0x600, 200), msg);
}

TEST_P(DmaFixture, RejectsBadDescriptors) {
  AesAccelerator acc{cfg()};
  const unsigned u = acc.addUser(Principal::user("alice", 1));
  HostMemory mem{1024};
  UserRing dma{acc, mem, u, 0x200};
  DmaDescriptor d;
  d.user = u;
  d.len = 0;
  EXPECT_EQ(dma.run(d).status, DmaError::BadRange);
  d.len = 2048;
  EXPECT_EQ(dma.run(d).status, DmaError::BadRange);
  d.len = 24;  // unaligned for ECB
  EXPECT_EQ(dma.run(d).status, DmaError::UnalignedLength);
  d.len = 32;
  d.user = 99;  // no such principal
  EXPECT_EQ(dma.run(d).status, DmaError::BadDescriptor);
  d.user = u;
  d.key_slot = 999;
  EXPECT_EQ(dma.run(d).status, DmaError::BadDescriptor);
}

TEST_P(DmaFixture, RefusalsNeverPartiallyWrite) {
  AesAccelerator acc{cfg()};
  const unsigned u = acc.addUser(Principal::user("alice", 1));
  Rng rng{21};
  std::vector<std::uint8_t> key(16);
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.next());
  ASSERT_TRUE(accel::loadKey128(acc, u, 1, 0, key, Conf::category(1)));

  HostMemory mem{4 * 1024};
  mem.setPageLabel(0, 4 * 1024, acc.principal(u).authority);
  std::vector<std::uint8_t> msg(128);
  for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next());
  mem.writeBytes(0x100, msg);
  UserRing dma{acc, mem, u, 0xc00};
  const auto snapshot = dma.bytesOutsideRing();

  DmaDescriptor d;
  d.user = u;
  d.key_slot = 1;
  d.mode = DmaMode::EcbEncrypt;
  d.src = 0x100;
  d.dst = 0x140;  // overlaps [0x100, 0x180) but is not exactly in-place
  d.len = 128;
  EXPECT_EQ(dma.run(d).status, DmaError::OverlapDenied);
  EXPECT_EQ(dma.bytesOutsideRing(), snapshot);

  d.dst = 0x300;
  d.len = 120;  // unaligned for ECB
  EXPECT_EQ(dma.run(d).status, DmaError::UnalignedLength);
  EXPECT_EQ(dma.bytesOutsideRing(), snapshot);

  d.len = 128;
  d.dst = mem.size() - 64;  // runs off the end of memory
  EXPECT_EQ(dma.run(d).status, DmaError::BadRange);
  d.dst = 0x300;
  d.src = std::numeric_limits<std::size_t>::max() - 32;  // addr+len wraps
  EXPECT_EQ(dma.run(d).status, DmaError::BadRange);
  EXPECT_EQ(dma.bytesOutsideRing(), snapshot);

  // Exact in-place (src == dst) stays allowed — buffered writeback makes
  // it well-defined (EcbDescriptorMatchesSoftware decrypts in place).
  d.src = 0x100;
  d.dst = 0x100;
  EXPECT_EQ(dma.run(d).status, DmaError::None);
}

TEST_P(DmaFixture, CtrOverlapRefusedPartialAllowedExact) {
  AesAccelerator acc{cfg()};
  const unsigned u = acc.addUser(Principal::user("alice", 1));
  Rng rng{22};
  std::vector<std::uint8_t> key(16);
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.next());
  ASSERT_TRUE(accel::loadKey128(acc, u, 1, 0, key, Conf::category(1)));
  HostMemory mem{2 * 1024};
  mem.setPageLabel(0, 2 * 1024, acc.principal(u).authority);
  UserRing dma{acc, mem, u, 0x400};
  DmaDescriptor d;
  d.user = u;
  d.key_slot = 1;
  d.mode = DmaMode::CtrCrypt;
  d.src = 0x000;
  d.dst = 0x010;
  d.len = 100;  // CTR tolerates unaligned length, not partial overlap
  EXPECT_EQ(dma.run(d).status, DmaError::OverlapDenied);
  d.dst = 0x000;
  EXPECT_EQ(dma.run(d).status, DmaError::None);
}

TEST_P(DmaFixture, StreamsAtPipelineRate) {
  AesAccelerator acc{cfg()};
  const unsigned u = acc.addUser(Principal::user("alice", 1));
  Rng rng{13};
  std::vector<std::uint8_t> key(16);
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.next());
  ASSERT_TRUE(accel::loadKey128(acc, u, 1, 0, key, Conf::category(1)));
  HostMemory mem{32 * 1024};
  mem.setPageLabel(0, 32 * 1024, acc.principal(u).authority);
  UserRing dma{acc, mem, u, 0x6000};
  DmaDescriptor d;
  d.user = u;
  d.key_slot = 1;
  d.src = 0;
  d.dst = 0x4000;
  d.len = 128 * 16;
  const auto r = dma.run(d);
  ASSERT_EQ(r.status, DmaError::None);
  // ~1 block/cycle plus the 30-cycle fill: well under 2 cycles/block.
  EXPECT_LT(static_cast<double>(dma.cycles) / r.blocks, 2.0);
}

INSTANTIATE_TEST_SUITE_P(BothModes, DmaFixture,
                         ::testing::Values(SecurityMode::Baseline,
                                           SecurityMode::Protected));

// --- The attack ------------------------------------------------------------------

TEST(DmaTheft, BaselineStealsAlicePlaintext) {
  const auto r = runDmaTheftAttack(SecurityMode::Baseline);
  EXPECT_TRUE(r.alice_plaintext_stolen);
  EXPECT_TRUE(r.legit_dma_ok);
}

TEST(DmaTheft, ProtectedBlocksBothDirections) {
  const auto r = runDmaTheftAttack(SecurityMode::Protected);
  EXPECT_FALSE(r.alice_plaintext_stolen);
  EXPECT_TRUE(r.src_read_blocked);
  EXPECT_TRUE(r.dst_write_blocked);
  EXPECT_TRUE(r.legit_dma_ok);  // legitimate traffic unaffected
  EXPECT_LT(r.cycles_per_block, 4.0);
}

}  // namespace
}  // namespace aesifc::soc
