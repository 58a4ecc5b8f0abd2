// Descriptor-ring data path: protocol round-trips, validation of the ring
// as untrusted input, fail-secure recovery, and the seeded ring fault
// campaign's two invariants (no wrong-plaintext release, no cross-label
// write) on the hardened engine — with the unhardened engine as the
// demonstrably-vulnerable control.

#include "soc/dma.h"

#include <gtest/gtest.h>

#include <memory>

#include "accel/driver.h"
#include "accel/key_store.h"
#include "aes/modes.h"
#include "common/rng.h"
#include "soc/attacks.h"
#include "soc/service.h"

namespace aesifc::soc {
namespace {

using accel::AcceleratorConfig;
using accel::AesAccelerator;
using accel::SecurityMode;
using lattice::Conf;
using lattice::Label;
using lattice::Principal;

// One accelerator + one ring channel with alice's pages around it and a
// labeled victim region for eve. Rings at [0, 0x1000), alice data at
// [0x1000, 0x4000), eve at [0x4000, 0x5000).
struct RingBench {
  AesAccelerator acc;
  unsigned alice = 0, eve = 0;
  std::vector<std::uint8_t> alice_key;
  HostMemory mem{64 * 1024};
  DmaRingEngine eng;
  DmaRingConfig rc;
  unsigned ch = 0;
  std::unique_ptr<DmaRingDriver> drv;

  explicit RingBench(bool hardened = true, unsigned comp_slots = 8,
                     unsigned max_chain = 64)
      : acc{AcceleratorConfig{SecurityMode::Protected, 10, 64, false}},
        eng{acc, mem, hardened} {
    alice = acc.addUser(Principal::user("alice", 1));
    eve = acc.addUser(Principal::user("eve", 2));
    Rng rng{0x5eed};
    alice_key.resize(16);
    for (auto& b : alice_key) b = static_cast<std::uint8_t>(rng.next());
    EXPECT_TRUE(accel::loadKey128(acc, alice, 1, 0, alice_key,
                                  acc.principal(alice).authority.c));
    rc.desc_base = 0x0000;
    rc.desc_slots = 8;
    rc.chain_base = 0x400;
    rc.chain_slots = 16;
    rc.comp_base = 0x800;
    rc.comp_slots = comp_slots;
    rc.max_chain = max_chain;
    rc.watchdog_cycles = 256;
    ch = eng.addChannel(rc);
    drv = std::make_unique<DmaRingDriver>(eng, mem, ch, rc);
    const Label al = acc.principal(alice).authority;
    mem.setPageLabel(0x0000, 0x1000, al);  // rings + chain arena
    mem.setPageLabel(0x1000, 0x3000, al);  // alice src/dst staging
    mem.setPageLabel(0x4000, 0x1000, acc.principal(eve).authority);
  }

  std::vector<std::uint8_t> randomBytes(std::size_t n, std::uint64_t seed) {
    Rng rng{seed};
    std::vector<std::uint8_t> v(n);
    for (auto& b : v) b = static_cast<std::uint8_t>(rng.next());
    return v;
  }

  aes::ExpandedKey key() const {
    return aes::expandKey(alice_key, aes::KeySize::Aes128);
  }

  DmaDescriptor desc(DmaMode mode, std::size_t src, std::size_t dst,
                     std::size_t len) const {
    DmaDescriptor d;
    d.user = alice;
    d.key_slot = 1;
    d.mode = mode;
    d.src = src;
    d.dst = dst;
    d.len = len;
    return d;
  }

  const DmaCompletion* run(const std::vector<DmaDescriptor>& segs,
                           std::uint64_t budget = 8192) {
    const auto seq = drv->submitChain(segs);
    EXPECT_TRUE(seq.has_value());
    if (!seq) return nullptr;
    return drv->wait(*seq, budget);
  }
};

TEST(DmaRing, EcbChainMatchesSoftware) {
  RingBench b;
  const auto msg = b.randomBytes(3 * 160, 7);
  b.mem.writeBytes(0x1000, msg);
  // Three scatter segments into one contiguous destination.
  std::vector<DmaDescriptor> segs{
      b.desc(DmaMode::EcbEncrypt, 0x1000, 0x2000, 160),
      b.desc(DmaMode::EcbEncrypt, 0x10a0, 0x20a0, 160),
      b.desc(DmaMode::EcbEncrypt, 0x1140, 0x2140, 160)};
  const auto* c = b.run(segs);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->status, DmaError::None) << toString(c->status);
  EXPECT_EQ(c->blocks, 30u);
  EXPECT_EQ(b.mem.readBytes(0x2000, msg.size()),
            aes::ecbEncrypt(msg, b.key()));
  EXPECT_EQ(b.eng.stats().segments_fetched, 2u);  // two continuations

  // And decrypt it back in place through the same ring.
  const auto* d =
      b.run({b.desc(DmaMode::EcbDecrypt, 0x2000, 0x2000, msg.size())});
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->status, DmaError::None) << toString(d->status);
  EXPECT_EQ(b.mem.readBytes(0x2000, msg.size()), msg);
}

TEST(DmaRing, CtrChainContinuesCounterAcrossSegments) {
  RingBench b;
  const auto msg = b.randomBytes(400, 9);  // not block-aligned: CTR tail
  b.mem.writeBytes(0x1000, msg);
  aes::Iv nonce{};
  for (std::size_t i = 0; i < nonce.size(); ++i)
    nonce[i] = static_cast<std::uint8_t>(0xC0 + i);
  std::vector<DmaDescriptor> segs{
      b.desc(DmaMode::CtrCrypt, 0x1000, 0x2000, 256),
      b.desc(DmaMode::CtrCrypt, 0x1100, 0x2100, 144)};
  std::copy(nonce.begin(), nonce.end(), segs[0].ctr_iv.begin());
  const auto* c = b.run(segs);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->status, DmaError::None) << toString(c->status);
  EXPECT_EQ(b.mem.readBytes(0x2000, msg.size()),
            aes::ctrCrypt(msg, b.key(), nonce));
}

TEST(DmaRing, CtrCounterCarriesAcrossAllLowBytes) {
  // Low 8 IV bytes ff..fe: the third block's counter carries through every
  // low byte into byte 8 and wraps the 64-bit counter to zero, leaving the
  // nonce half untouched — exactly what the software CTR mode does.
  RingBench b;
  const auto msg = b.randomBytes(5 * 16, 10);
  b.mem.writeBytes(0x1000, msg);
  aes::Iv nonce{};
  for (std::size_t i = 0; i < 8; ++i)
    nonce[i] = static_cast<std::uint8_t>(0xC0 + i);
  for (std::size_t i = 8; i < 16; ++i) nonce[i] = 0xff;
  nonce[15] = 0xfe;
  DmaDescriptor d = b.desc(DmaMode::CtrCrypt, 0x1000, 0x2000, msg.size());
  std::copy(nonce.begin(), nonce.end(), d.ctr_iv.begin());
  const auto* c = b.run({d});
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->status, DmaError::None) << toString(c->status);
  EXPECT_EQ(c->blocks, 5u);
  EXPECT_EQ(b.mem.readBytes(0x2000, msg.size()),
            aes::ctrCrypt(msg, b.key(), nonce));
}

TEST(DmaRing, LabelRefusalsAreTypedAndWriteNothing) {
  RingBench b;
  b.mem.writeBytes(0x4000, b.randomBytes(64, 3));  // eve's data
  const auto eve_before = b.mem.readBytes(0x4000, 0x1000);

  // Alice's descriptor naming eve's page as source: SrcPageDenied.
  const auto* c = b.run({b.desc(DmaMode::EcbEncrypt, 0x4000, 0x2000, 64)});
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->status, DmaError::SrcPageDenied);

  // ...and as destination: DstPageDenied, and eve's bytes never move.
  b.mem.writeBytes(0x1000, b.randomBytes(64, 4));
  const auto* d = b.run({b.desc(DmaMode::EcbEncrypt, 0x1000, 0x4000, 64)});
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->status, DmaError::DstPageDenied);
  EXPECT_EQ(b.mem.readBytes(0x4000, 0x1000), eve_before);
  EXPECT_EQ(b.eng.stats().cross_label_writes, 0u);
}

TEST(DmaRing, RingPageDeniedWhenRingLabelExcludesUser) {
  // The completion ring sits on eve's pages: alice's transfer must be
  // refused before anything executes — the engine may not read a ring the
  // user cannot see nor write completions the user may not write.
  RingBench b;
  b.mem.setPageLabel(b.rc.comp_base, b.rc.comp_slots * kCompBytes,
                     b.acc.principal(b.eve).authority);
  b.mem.writeBytes(0x1000, b.randomBytes(64, 5));
  const auto seq = b.drv->submitChain(
      {b.desc(DmaMode::EcbEncrypt, 0x1000, 0x2000, 64)});
  ASSERT_TRUE(seq.has_value());
  const auto* c = b.drv->wait(*seq, 2048);
  // No completion can legally be delivered on that ring.
  EXPECT_EQ(c, nullptr);
  EXPECT_GE(b.eng.stats().by_error[static_cast<unsigned>(
                DmaError::RingPageDenied)],
            1u);
  EXPECT_EQ(b.eng.stats().completed_ok, 0u);
}

TEST(DmaRing, ChecksumMismatchRefused) {
  RingBench b;
  b.mem.writeBytes(0x1000, b.randomBytes(64, 6));
  const auto d = b.desc(DmaMode::EcbEncrypt, 0x1000, 0x2000, 64);
  writeRingDescriptor(b.mem, b.rc.desc_base, d, 0, /*seq=*/9,
                      b.eng.generation(b.ch), /*owned=*/true);
  b.mem.write32(b.rc.desc_base + 4,
                b.mem.read32(b.rc.desc_base + 4) ^ 0x10000);  // corrupt
  b.eng.doorbell(b.ch);
  for (unsigned i = 0; i < 64; ++i) b.eng.tick();
  EXPECT_EQ(
      b.eng.stats().by_error[static_cast<unsigned>(DmaError::BadChecksum)],
      1u);
  EXPECT_EQ(b.eng.stats().checksum_rejects, 1u);
  EXPECT_EQ(b.eng.stats().completed_ok, 0u);
}

TEST(DmaRing, StructurallyInvalidDescriptorsRefused) {
  struct Case {
    unsigned offset;
    std::uint64_t value;
    DmaError want;
  };
  const Case cases[] = {
      {8, 7, DmaError::BadDescriptor},            // mode out of range
      {10, 999, DmaError::BadDescriptor},         // user out of range
      {12, accel::kRoundKeySlots, DmaError::BadDescriptor},
      {16, 1u << 20, DmaError::BadRange},         // src outside memory
      {32, 24, DmaError::UnalignedLength},        // ECB len % 16 != 0
      {40, 0x900, DmaError::OobNextPointer},      // next outside arena
  };
  for (const auto& tc : cases) {
    RingBench b;
    b.mem.writeBytes(0x1000, b.randomBytes(64, 8));
    const auto d = b.desc(DmaMode::EcbEncrypt, 0x1000, 0x2000, 64);
    writeRingDescriptor(b.mem, b.rc.desc_base, d, 0, 5,
                        b.eng.generation(b.ch), true);
    // Overwrite one field, then re-seal the checksum: structure, not the
    // checksum, must catch these.
    if (tc.offset == 10 || tc.offset == 12) {
      b.mem.write32(b.rc.desc_base + 8,
                    b.mem.read32(b.rc.desc_base + 8) & 0xffffu);
      b.mem.write8(b.rc.desc_base + tc.offset,
                   static_cast<std::uint8_t>(tc.value));
      b.mem.write8(b.rc.desc_base + tc.offset + 1,
                   static_cast<std::uint8_t>(tc.value >> 8));
    } else if (tc.offset == 8) {
      b.mem.write8(b.rc.desc_base + 8, static_cast<std::uint8_t>(tc.value));
    } else {
      b.mem.write64(b.rc.desc_base + tc.offset, tc.value);
    }
    b.mem.write32(b.rc.desc_base + 4,
                  ringChecksum(b.mem, b.rc.desc_base + 8, kDescBytes - 8));
    b.eng.doorbell(b.ch);
    for (unsigned i = 0; i < 64; ++i) b.eng.tick();
    EXPECT_EQ(b.eng.stats().by_error[static_cast<unsigned>(tc.want)], 1u)
        << "field offset " << tc.offset << " expected " << toString(tc.want);
    EXPECT_EQ(b.eng.stats().completed_ok, 0u);
  }
}

TEST(DmaRing, ChainLoopAndChainTooLongRefused) {
  {
    RingBench b;
    b.mem.writeBytes(0x1000, b.randomBytes(128, 10));
    std::vector<DmaDescriptor> segs{
        b.desc(DmaMode::EcbEncrypt, 0x1000, 0x2000, 64),
        b.desc(DmaMode::EcbEncrypt, 0x1040, 0x2040, 64)};
    const auto seq = b.drv->submitChain(segs);
    ASSERT_TRUE(seq.has_value());
    // Redirect the continuation's next-pointer at itself (checksum kept
    // valid — a malicious ring, not a corrupted one).
    const std::uint64_t cont = b.mem.read64(b.rc.desc_base + 40);
    ASSERT_NE(cont, 0u);
    b.mem.write64(cont + 40, cont);
    b.mem.write32(cont + 4, ringChecksum(b.mem, cont + 8, kDescBytes - 8));
    const auto* c = b.drv->wait(*seq, 4096);
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->status, DmaError::ChainLoop) << toString(c->status);
  }
  {
    RingBench b{/*hardened=*/true, /*comp_slots=*/8, /*max_chain=*/2};
    b.mem.writeBytes(0x1000, b.randomBytes(192, 11));
    std::vector<DmaDescriptor> segs{
        b.desc(DmaMode::EcbEncrypt, 0x1000, 0x2000, 64),
        b.desc(DmaMode::EcbEncrypt, 0x1040, 0x2040, 64),
        b.desc(DmaMode::EcbEncrypt, 0x1080, 0x2080, 64)};
    const auto* c = b.run(segs, 4096);
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->status, DmaError::ChainTooLong) << toString(c->status);
  }
}

TEST(DmaRing, TornOwnershipCaughtBeforeRelease) {
  RingBench b;
  b.mem.writeBytes(0x1000, b.randomBytes(256, 12));
  const auto dst_before = b.mem.readBytes(0x2000, 256);
  const auto seq =
      b.drv->submitChain({b.desc(DmaMode::EcbEncrypt, 0x1000, 0x2000, 256)});
  ASSERT_TRUE(seq.has_value());
  for (unsigned i = 0; i < 4; ++i) b.eng.tick();  // latch completes
  // Host violates the protocol: reclaims the descriptor mid-execution.
  b.mem.write32(b.rc.desc_base,
                static_cast<std::uint32_t>(b.eng.generation(b.ch)) << 16);
  const auto* c = b.drv->wait(*seq, 8192);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->status, DmaError::TornOwnership) << toString(c->status);
  EXPECT_GE(b.eng.stats().torn_ownership, 1u);
  // Fail-secure: nothing was released into the destination.
  EXPECT_EQ(b.mem.readBytes(0x2000, 256), dst_before);
}

TEST(DmaRing, StaleGenerationRefusedAfterRingReset) {
  RingBench b;
  b.mem.writeBytes(0x1000, b.randomBytes(64, 13));
  const auto d = b.desc(DmaMode::EcbEncrypt, 0x1000, 0x2000, 64);
  const std::uint16_t old_gen = b.eng.generation(b.ch);
  b.eng.ringReset(b.ch);  // generation bumps; slot cursors rewind
  writeRingDescriptor(b.mem, b.rc.desc_base, d, 0, 3, old_gen, true);
  b.eng.doorbell(b.ch);
  for (unsigned i = 0; i < 64; ++i) b.eng.tick();
  EXPECT_GE(b.eng.stats().stale_generation, 1u);
  EXPECT_EQ(b.eng.stats().completed_ok, 0u);
}

TEST(DmaRing, CompletionOverflowParksHardenedEngine) {
  RingBench b{/*hardened=*/true, /*comp_slots=*/2};
  b.drv->setAutoPoll(false);  // host stops consuming completions
  b.mem.writeBytes(0x1000, b.randomBytes(4 * 64, 14));
  std::vector<std::uint16_t> seqs;
  for (unsigned i = 0; i < 4; ++i) {
    const auto s = b.drv->submitChain({b.desc(
        DmaMode::EcbEncrypt, 0x1000 + i * 64, 0x2000 + i * 64, 64)});
    ASSERT_TRUE(s.has_value());
    seqs.push_back(*s);
  }
  for (unsigned i = 0; i < 4096; ++i) b.eng.tick();
  // The third transfer found no free completion slot: the channel parks
  // (backpressure) instead of overwriting an unconsumed record.
  EXPECT_TRUE(b.eng.channelStalled(b.ch));
  EXPECT_GT(b.eng.stats().comp_stall_cycles, 0u);
  EXPECT_EQ(b.eng.stats().comp_overflow_drops, 0u);
  // Host resumes: every transfer resolves exactly once, none lost.
  b.drv->setAutoPoll(true);
  for (unsigned i = 0; i < 4096 && !b.eng.idle(); ++i) {
    b.eng.tick();
    b.drv->poll();
  }
  b.drv->poll();
  const auto ek = b.key();
  for (unsigned i = 0; i < 4; ++i) {
    const auto* c = b.drv->result(seqs[i]);
    ASSERT_NE(c, nullptr) << "transfer " << i << " unresolved";
    EXPECT_EQ(c->status, DmaError::None) << toString(c->status);
    const auto in = b.mem.readBytes(0x1000 + i * 64, 64);
    EXPECT_EQ(b.mem.readBytes(0x2000 + i * 64, 64), aes::ecbEncrypt(in, ek));
  }
  EXPECT_EQ(b.drv->duplicateCompletions(), 0u);
  EXPECT_EQ(b.eng.stats().comp_overflow_drops, 0u);
}

TEST(DmaRing, WatchdogRecoversStalledRingExactlyOnce) {
  RingBench b;
  b.mem.writeBytes(0x1000, b.randomBytes(128, 15));
  b.acc.setReceiverReady(b.alice, false);  // output port wedged
  const auto seq =
      b.drv->submitChain({b.desc(DmaMode::EcbEncrypt, 0x1000, 0x2000, 128)});
  ASSERT_TRUE(seq.has_value());
  for (unsigned i = 0; i < 2 * 256 + 64; ++i) b.eng.tick();
  EXPECT_GE(b.eng.stats().watchdog_fires, 1u);  // quiesce -> resync fired
  b.acc.setReceiverReady(b.alice, true);
  const auto* c = b.drv->wait(*seq, 16384);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->status, DmaError::None) << toString(c->status);
  EXPECT_GE(b.eng.stats().recoveries, 1u);
  // Idempotent resubmit: the recovery re-ran the descriptor, yet exactly
  // one completion was delivered and the output is written exactly once.
  EXPECT_EQ(b.eng.stats().completed_ok, 1u);
  EXPECT_EQ(b.drv->duplicateCompletions(), 0u);
  const auto in = b.mem.readBytes(0x1000, 128);
  EXPECT_EQ(b.mem.readBytes(0x2000, 128), aes::ecbEncrypt(in, b.key()));
}

TEST(DmaRing, ToctouDstRewriteBlockedByLatchOnHardenedOnly) {
  // Mid-flight the "host" rewrites the published descriptor's dst to point
  // into eve's pages (checksum re-sealed). The hardened engine executed
  // from its latched shadow copy and never re-reads the ring; the
  // unhardened engine re-reads dst at writeback and leaks.
  for (const bool hardened : {true, false}) {
    RingBench b{hardened};
    const auto eve_before = b.mem.readBytes(0x4000, 0x1000);
    b.mem.writeBytes(0x1000, b.randomBytes(256, 16));
    const auto seq = b.drv->submitChain(
        {b.desc(DmaMode::EcbEncrypt, 0x1000, 0x2000, 256)});
    ASSERT_TRUE(seq.has_value());
    for (unsigned i = 0; i < 4; ++i) b.eng.tick();
    b.mem.write64(b.rc.desc_base + 24, 0x4000);  // dst -> eve
    b.mem.write32(b.rc.desc_base + 4,
                  ringChecksum(b.mem, b.rc.desc_base + 8, kDescBytes - 8));
    b.drv->wait(*seq, 8192);
    if (hardened) {
      EXPECT_EQ(b.eng.stats().cross_label_writes, 0u);
      EXPECT_EQ(b.mem.readBytes(0x4000, 0x1000), eve_before);
      // The transfer itself lands at the latched (legitimate) destination.
      const auto in = b.mem.readBytes(0x1000, 256);
      EXPECT_EQ(b.mem.readBytes(0x2000, 256), aes::ecbEncrypt(in, b.key()));
    } else {
      EXPECT_GE(b.eng.stats().cross_label_writes, 1u);
      EXPECT_NE(b.mem.readBytes(0x4000, 0x1000), eve_before);
    }
  }
}

TEST(DmaRing, HardenedCampaignInvariantsHoldAcrossSeeds) {
  RingCampaignReport total;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    RingCampaignConfig cfg;
    cfg.seed = seed;
    cfg.descriptors = 21;  // 3 passes over every scripted scenario
    const auto rep = runRingFaultCampaign(cfg);
    EXPECT_EQ(rep.wrong_plaintext_releases, 0u) << "seed " << seed;
    EXPECT_EQ(rep.cross_label_writes, 0u) << "seed " << seed;
    EXPECT_EQ(rep.partial_writes, 0u) << "seed " << seed;
    EXPECT_EQ(rep.reset_isolation_failures, 0u) << "seed " << seed;
    total += rep;
  }
  // The campaign must actually exercise the machinery it certifies.
  EXPECT_GT(total.completed_ok, 0u);
  EXPECT_GT(total.refused, 0u);
  EXPECT_GT(total.watchdog_fires, 0u);
  EXPECT_GT(total.ring_faults, 0u);
  EXPECT_EQ(total.descriptors,
            total.completed_ok + total.refused + total.unresolved);
}

// A submit refused for backpressure is retried once after a drain. The
// retry's sequence number is the one to wait on and check: this seed (the
// storm soak's seed 8 at rate 0.15) takes that path, and waiting on the
// refused submit's empty sequence number made the oracle compare another
// transfer's destination.
TEST(DmaRing, BackpressureRetryTracksTheRetriedTransfer) {
  RingCampaignConfig cfg;
  cfg.seed = 63502;
  cfg.descriptors = 42;
  cfg.fault_rate = 0.15;
  const auto rep = runRingFaultCampaign(cfg);
  EXPECT_GT(rep.submit_retries, 0u);
  EXPECT_EQ(rep.wrong_plaintext_releases, 0u);
  EXPECT_EQ(rep.cross_label_writes, 0u);
  EXPECT_EQ(rep.partial_writes, 0u);
  EXPECT_EQ(rep.descriptors, rep.completed_ok + rep.refused + rep.unresolved);
}

TEST(DmaRing, UnhardenedEngineDemonstratesViolations) {
  // The control: without checksum validation, descriptor latching, and the
  // point-of-use label re-check, the same campaign produces real
  // confidentiality/integrity violations.
  RingCampaignReport total;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    RingCampaignConfig cfg;
    cfg.seed = seed;
    cfg.descriptors = 21;
    cfg.hardened = false;
    total += runRingFaultCampaign(cfg);
  }
  EXPECT_GT(total.wrong_plaintext_releases + total.cross_label_writes +
                total.partial_writes,
            0u);
}

// The checksum seals the seq field, so a head refused after it (here for
// an out-of-range user) still completes under its own sequence number and
// its future resolves instead of being dropped as a duplicate.
TEST(DmaRing, OutOfRangeUserHeadResolvesItsFutureAsBadDescriptor) {
  RingBench b;
  b.mem.writeBytes(0x1000, b.randomBytes(64, 17));
  DmaDescriptor d = b.desc(DmaMode::EcbEncrypt, 0x1000, 0x2000, 64);
  d.user = b.acc.userCount() + 5;
  const auto* c = b.run({d}, 1024);
  ASSERT_NE(c, nullptr) << "refused head completed without its seq";
  EXPECT_EQ(c->status, DmaError::BadDescriptor) << toString(c->status);
  EXPECT_EQ(c->blocks, 0u);
  EXPECT_EQ(b.drv->duplicateCompletions(), 0u);
  EXPECT_EQ(b.drv->outstanding(), 0u);
}

// N ring channels on one engine, channel i owned by users[i % users] (one
// or two users). Each channel has its own rings and staging in a
// 0x2000-byte slice labelled with its user's authority.
struct MultiRing {
  static constexpr std::size_t kSlice = 0x2000;
  AesAccelerator acc;
  std::vector<unsigned> users;
  std::vector<std::vector<std::uint8_t>> keys;  // per user, in key slot u+1
  HostMemory mem{16 * kSlice};
  DmaRingEngine eng{acc, mem};
  std::vector<unsigned> owner;  // channel -> index into users
  std::vector<std::unique_ptr<DmaRingDriver>> drvs;

  MultiRing(SecurityMode mode, unsigned channels, unsigned nusers)
      : acc{AcceleratorConfig{mode, 10, 64, false}} {
    static constexpr const char* kNames[] = {"alice", "bob"};
    Rng rng{0x0e7a};
    for (unsigned u = 0; u < nusers; ++u) {
      users.push_back(acc.addUser(Principal::user(kNames[u], u + 1)));
      keys.emplace_back(16);
      for (auto& byte : keys.back()) byte = static_cast<std::uint8_t>(rng.next());
      EXPECT_TRUE(accel::loadKey128(acc, users[u], u + 1, 2 * u, keys[u],
                                    acc.principal(users[u]).authority.c));
    }
    for (unsigned i = 0; i < channels; ++i) {
      const std::size_t base = i * kSlice;
      DmaRingConfig rc;
      rc.desc_base = base;
      rc.desc_slots = 4;
      rc.comp_base = base + 0x400;
      rc.comp_slots = 4;
      owner.push_back(i % nusers);
      mem.setPageLabel(base, kSlice,
                       acc.principal(users[owner[i]]).authority);
      drvs.push_back(std::make_unique<DmaRingDriver>(
          eng, mem, eng.addChannel(rc), rc));
    }
  }

  std::size_t src(unsigned ch) const { return ch * kSlice + 0x800; }
  std::size_t dst(unsigned ch) const { return ch * kSlice + 0x1000; }

  // Publish a k-block ECB encryption on every channel (all doorbells rung
  // before the first engine cycle), then tick until every future resolves.
  // Returns the cycles that took; the futures' seqs land in `seqs`.
  std::uint64_t runAll(unsigned k, std::vector<std::uint16_t>& seqs) {
    for (unsigned i = 0; i < drvs.size(); ++i) {
      Rng rng{100 + i};
      std::vector<std::uint8_t> msg(16 * k);
      for (auto& byte : msg) byte = static_cast<std::uint8_t>(rng.next());
      mem.writeBytes(src(i), msg);
      DmaDescriptor d;
      d.user = users[owner[i]];
      d.key_slot = owner[i] + 1;
      d.src = src(i);
      d.dst = dst(i);
      d.len = 16 * k;
      const auto seq = drvs[i]->submit(d);
      EXPECT_TRUE(seq.has_value());
      seqs.push_back(seq.value_or(0));
    }
    const std::uint64_t start = acc.cycle();
    auto all_done = [&] {
      for (unsigned i = 0; i < drvs.size(); ++i)
        if (!drvs[i]->done(seqs[i])) return false;
      return true;
    };
    for (unsigned guard = 0; guard < 100000 && !all_done(); ++guard)
      eng.tick();
    return acc.cycle() - start;
  }

  bool outputMatches(unsigned ch, unsigned k) const {
    const auto ek = aes::expandKey(keys[owner[ch]], aes::KeySize::Aes128);
    return mem.readBytes(dst(ch), 16 * k) ==
           aes::ecbEncrypt(mem.readBytes(src(ch), 16 * k), ek);
  }
};

// The overlap's cycle identity: a chain holds the fetch/issue unit for one
// scan cycle, two fetch cycles and K issue cycles, then frees it while its
// tail drains the pipe. N channels rung together therefore finish in
// N x (K + 3) + 31 cycles, a single channel in K + 34, and Protected mode
// costs the same cycles as Baseline.
TEST(RingOverlap, ChannelsRungTogetherFinishInDerivedCycleCount) {
  for (const SecurityMode mode :
       {SecurityMode::Protected, SecurityMode::Baseline}) {
    for (const unsigned n : {1u, 2u, 3u, 4u}) {
      for (const unsigned k : {1u, 16u, 64u}) {
        MultiRing r{mode, n, 2};
        std::vector<std::uint16_t> seqs;
        const std::uint64_t cycles = r.runAll(k, seqs);
        EXPECT_EQ(cycles, n * (k + 3) + 31)
            << (mode == SecurityMode::Protected ? "protected" : "baseline")
            << " n=" << n << " k=" << k;
        if (n == 1) {
          EXPECT_EQ(cycles, k + 34);
        }
        for (unsigned i = 0; i < n; ++i) {
          const auto* c = r.drvs[i]->result(seqs[i]);
          ASSERT_NE(c, nullptr);
          EXPECT_EQ(c->status, DmaError::None) << toString(c->status);
          EXPECT_TRUE(r.outputMatches(i, k)) << "channel " << i;
        }
        EXPECT_EQ(r.eng.stats().watchdog_fires, 0u);
        EXPECT_EQ(r.eng.stats().block_resubmits, 0u);
      }
    }
  }
  // And the pipe itself is untouched: a lone block still spends exactly
  // 30 cycles between acceptance and exit in both modes.
  for (const SecurityMode mode :
       {SecurityMode::Protected, SecurityMode::Baseline}) {
    MultiRing r{mode, 1, 1};
    ASSERT_TRUE(r.acc.submit({7, r.users[0], 1, false, aes::Block{}}));
    std::optional<accel::BlockResponse> out;
    for (unsigned c = 0; c < 100 && !out; ++c) {
      r.acc.tick();
      out = r.acc.fetchOutput(r.users[0]);
    }
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->complete_cycle - out->accept_cycle, 30u);
  }
}

// Two channels of ONE user collect at the same time: both chains drain the
// same output queue, so each response must be routed by request id to the
// chain that issued it. A warm-up transfer on channel 0 moves the scan
// pointer, so channel 1 issues first and channel 0 is still issuing when
// channel 1's tail leaves the pipe: a chain that took every response of
// its user and dropped the ids it did not know would lose that tail and
// stall into its watchdog.
TEST(RingOverlap, TwoChannelsOfOneUserRouteEveryBlockToItsOwnChain) {
  MultiRing r{SecurityMode::Protected, 2, 1};
  DmaDescriptor warm;
  warm.user = r.users[0];
  warm.key_slot = 1;
  warm.src = r.src(0);
  warm.dst = r.dst(0);
  warm.len = 16;
  const auto wseq = r.drvs[0]->submit(warm);
  ASSERT_TRUE(wseq.has_value());
  ASSERT_NE(r.drvs[0]->wait(*wseq, 1024), nullptr);

  std::vector<std::uint16_t> seqs;
  const unsigned k = 32;
  EXPECT_EQ(r.runAll(k, seqs), 2 * (k + 3) + 31);  // they did overlap
  for (unsigned i = 0; i < 2; ++i) {
    const auto* c = r.drvs[i]->result(seqs[i]);
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->status, DmaError::None) << toString(c->status);
    EXPECT_EQ(c->blocks, k);
    EXPECT_TRUE(r.outputMatches(i, k)) << "channel " << i;
  }
  EXPECT_EQ(r.eng.stats().watchdog_fires, 0u);
  EXPECT_EQ(r.eng.stats().block_resubmits, 0u);
  EXPECT_EQ(r.eng.stats().completed_ok, 3u);
}

TEST(DmaRing, ServiceRingPathMatchesMmioPath) {
  AesAccelerator acc{AcceleratorConfig{SecurityMode::Protected, 10, 64,
                                       false}};
  const unsigned u = acc.addUser(Principal::user("alice", 1));
  Rng rng{31};
  std::vector<std::uint8_t> key(16);
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.next());

  ServiceConfig cfg;
  cfg.batch_size = 32;
  cfg.quota_per_round = 32;  // let serveRun form a full 32-block run
  cfg.use_dma_ring = true;
  cfg.dma_ring_min_run = 16;
  AccelService svc{acc, cfg};
  TenantSpec spec;
  spec.user = u;
  spec.key_slot = 1;
  spec.key = key;
  spec.key_conf = acc.principal(u).authority.c;
  spec.queue_depth = 64;
  const unsigned t = svc.addTenant(spec);

  std::vector<aes::Block> blocks(32);
  for (auto& blk : blocks)
    for (auto& byte : blk) byte = static_cast<std::uint8_t>(rng.next());
  for (const auto& blk : blocks)
    ASSERT_TRUE(svc.submit(t, blk, /*decrypt=*/false).admitted);
  svc.runUntilIdle(1u << 20);

  const auto ek = aes::expandKey(key, aes::KeySize::Aes128);
  for (unsigned i = 0; i < 32; ++i) {
    const auto comp = svc.fetch(t);
    ASSERT_TRUE(comp.has_value()) << "completion " << i << " missing";
    EXPECT_EQ(comp->status, CompletionStatus::Ok);
    EXPECT_EQ(comp->served_by, ServedBy::Hardware);
    aes::Block want;
    aes::Bytes one(blocks[i].begin(), blocks[i].end());
    const auto enc = aes::ecbEncrypt(one, ek);
    std::copy(enc.begin(), enc.end(), want.begin());
    EXPECT_EQ(comp->data, want) << "block " << i;
  }
  EXPECT_GE(svc.stats().dma_ring_runs, 1u);
  EXPECT_GE(svc.stats().dma_ring_blocks, 16u);
  EXPECT_EQ(svc.stats().completed_hw, 32u);
}

}  // namespace
}  // namespace aesifc::soc
