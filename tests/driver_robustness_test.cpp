// Driver failure-path tests: the watchdog turns a wedged device into a
// Timeout (never a hang, never a misreported security refusal), duplicated
// responses are consumed at most once, dropped responses are recovered by
// bounded retry without double delivery, and non-retryable outcomes
// (Suppressed, Rejected) are final on the first attempt. A seeded
// session under injected faults pins every verdict, output and cycle.

#include <gtest/gtest.h>

#include <span>

#include "accel/driver.h"
#include "aes/cipher.h"
#include "common/rng.h"
#include "soc/fault_injector.h"
#include "trace_hash.h"

namespace aesifc::accel {
namespace {

using lattice::Conf;
using lattice::Principal;

std::vector<std::uint8_t> testKey() {
  std::vector<std::uint8_t> k(16);
  for (unsigned i = 0; i < 16; ++i) k[i] = static_cast<std::uint8_t>(0xa0 + i);
  return k;
}

struct Rig {
  AesAccelerator acc{AcceleratorConfig{}};
  unsigned sup;
  unsigned alice;
  aes::ExpandedKey golden = aes::expandKey(testKey(), aes::KeySize::Aes128);

  Rig() {
    sup = acc.addUser(Principal::supervisor());
    alice = acc.addUser(Principal::user("alice", 1));
    EXPECT_TRUE(loadKey128(acc, alice, 1, 0, testKey(), Conf::category(1)));
  }
};

TEST(DriverRobustness, ReceiverNeverReadyTimesOutInsteadOfHanging) {
  Rig r;
  r.acc.setReceiverReady(r.alice, false);
  SessionOptions opts;
  opts.timeout_cycles = 400;
  AccelSession s{r.acc, r.alice, 1, opts};
  const std::uint64_t before = r.acc.cycle();
  const auto res = s.encryptBlock(aes::Block{});
  EXPECT_FALSE(res.has_value());
  EXPECT_EQ(res.status(), AccelStatus::Timeout);  // not Suppressed
  EXPECT_EQ(s.retries(), 0u);
  // The watchdog bounded the wait.
  EXPECT_LE(r.acc.cycle() - before, 500u);
}

TEST(DriverRobustness, RetryAfterTimeoutDeliversExactlyOnce) {
  Rig r;
  r.acc.setReceiverReady(r.alice, false);
  SessionOptions opts;
  opts.timeout_cycles = 150;
  opts.max_retries = 2;
  opts.backoff_cycles = 8;
  AccelSession s{r.acc, r.alice, 1, opts};
  // The receiver recovers mid-call: the first attempt's response is then
  // delivered while the retry's duplicate request may also be in flight.
  r.acc.setTickHook([&] {
    if (r.acc.cycle() == 200) r.acc.setReceiverReady(r.alice, true);
  });
  aes::Block pt;
  for (auto& b : pt) b = 0x21;
  const auto res = s.encryptBlock(pt);
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(*res, aes::encryptBlock(pt, r.golden));
  EXPECT_GE(s.retries(), 1u);
  EXPECT_EQ(s.lastStatus(), AccelStatus::Ok);
  r.acc.setTickHook(nullptr);
  // The abandoned duplicate must not contaminate the next operation.
  aes::Block pt2;
  for (auto& b : pt2) b = 0x22;
  const auto res2 = s.encryptBlock(pt2);
  ASSERT_TRUE(res2.has_value());
  EXPECT_EQ(*res2, aes::encryptBlock(pt2, r.golden));
}

TEST(DriverRobustness, DuplicatedResponseConsumedAtMostOnce) {
  Rig r;
  AccelSession s{r.acc, r.alice, 1};
  bool duplicated = false;
  r.acc.setTickHook([&] {
    if (!duplicated && r.acc.pendingOutputs(r.alice) > 0) {
      ASSERT_TRUE(r.acc.injectDuplicateOutput(r.alice));
      duplicated = true;
    }
  });
  aes::Block pt;
  for (auto& b : pt) b = 0x42;
  const auto ct = s.encryptBlock(pt);
  ASSERT_TRUE(ct.has_value());
  EXPECT_EQ(*ct, aes::encryptBlock(pt, r.golden));
  EXPECT_TRUE(duplicated);
  r.acc.setTickHook(nullptr);
  // The surviving duplicate is ignored by request id; the next operation
  // still pairs with its own response.
  const auto rt = s.decryptBlock(*ct);
  ASSERT_TRUE(rt.has_value());
  EXPECT_EQ(*rt, pt);
}

TEST(DriverRobustness, DroppedResponseRecoveredByRetryWithoutDuplicate) {
  Rig r;
  SessionOptions opts;
  opts.timeout_cycles = 120;
  opts.max_retries = 2;
  opts.backoff_cycles = 4;
  AccelSession s{r.acc, r.alice, 1, opts};
  unsigned drops = 0;
  r.acc.setTickHook([&] {
    if (drops == 0 && r.acc.pendingOutputs(r.alice) > 0) {
      ASSERT_TRUE(r.acc.injectDropOutput(r.alice));
      ++drops;
    }
  });
  aes::Block pt;
  for (auto& b : pt) b = 0x77;
  const auto ct = s.encryptBlock(pt);
  ASSERT_TRUE(ct.has_value());
  EXPECT_EQ(*ct, aes::encryptBlock(pt, r.golden));
  EXPECT_EQ(drops, 1u);
  EXPECT_GE(s.retries(), 1u);
  EXPECT_GE(r.acc.stats().retries, 1u);  // driver telemetry reached device
  r.acc.setTickHook(nullptr);
}

// Watchdog x duplicate-suppression interaction: the original response of a
// request whose watchdog already expired arrives only after the retry has
// completed — and is then ALSO duplicated by the bus. The late original must
// be consumed exactly once (credited to its request, the replayed copy and
// the retry's own response discarded as stale), and nothing may leak into a
// later request's result.
TEST(DriverRobustness, LateResponseAfterExpiredWatchdogAndCompletedRetry) {
  Rig r;
  SessionOptions opts;
  opts.timeout_cycles = 120;
  opts.max_retries = 2;
  opts.backoff_cycles = 8;
  AccelSession s{r.acc, r.alice, 1, opts};

  // Hold the receiver so attempt 1's response is parked in the device.
  r.acc.setReceiverReady(r.alice, false);
  bool reopened = false;
  bool duplicated = false;
  r.acc.setTickHook([&] {
    // Reopen mid-retry: attempt 1's watchdog has long expired and attempt 2
    // is in flight. The parked original then drains FIRST (per-user FIFO) —
    // i.e. it arrives after its own watchdog gave up on it.
    if (!reopened && r.acc.cycle() >= 170) {
      r.acc.setReceiverReady(r.alice, true);
      reopened = true;
    }
    // And the bus replays it once, so two copies of the late original plus
    // the retry's response are all live at the same time.
    if (reopened && !duplicated && r.acc.pendingOutputs(r.alice) > 0) {
      ASSERT_TRUE(r.acc.injectDuplicateOutput(r.alice));
      duplicated = true;
    }
  });

  aes::Block pt;
  for (auto& b : pt) b = 0x5a;
  const auto res = s.encryptBlock(pt);
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(*res, aes::encryptBlock(pt, r.golden));
  EXPECT_TRUE(reopened);
  EXPECT_TRUE(duplicated);
  EXPECT_GE(s.retries(), 1u);
  EXPECT_EQ(s.lastStatus(), AccelStatus::Ok);
  r.acc.setTickHook(nullptr);

  // Surviving stale copies (the duplicate and/or the retry's response) must
  // not corrupt later traffic: run two more operations with distinct
  // plaintexts and check both against the golden model.
  aes::Block pt2, pt3;
  for (auto& b : pt2) b = 0x5b;
  for (auto& b : pt3) b = 0x5c;
  const auto res2 = s.encryptBlock(pt2);
  ASSERT_TRUE(res2.has_value());
  EXPECT_EQ(*res2, aes::encryptBlock(pt2, r.golden));
  const auto res3 = s.decryptBlock(*res2);
  ASSERT_TRUE(res3.has_value());
  EXPECT_EQ(*res3, pt2);
  EXPECT_NE(*res2, *res);  // sanity: distinct results, no cross-credit

  // Terminal-outcome telemetry: exactly the operations we ran, all Ok.
  EXPECT_EQ(s.telemetry().ok, 3u);
  EXPECT_EQ(s.telemetry().transientFailures(), 0u);
}

TEST(DriverRobustness, SuppressionIsFinalAndNeverRetried) {
  Rig r;
  // The supervisor provisions the master key (ck = top): a regular user's
  // result can then never be declassified to the output port.
  ASSERT_TRUE(
      loadKeyBytes(r.acc, r.sup, 5, 4, testKey(), aes::KeySize::Aes128,
                   Conf::top()));
  SessionOptions opts;
  opts.max_retries = 3;  // must NOT be spent on a security refusal
  AccelSession s{r.acc, r.alice, 5, opts};
  const auto res = s.encryptBlock(aes::Block{});
  EXPECT_FALSE(res.has_value());
  EXPECT_EQ(res.status(), AccelStatus::Suppressed);
  EXPECT_EQ(s.retries(), 0u);
  EXPECT_FALSE(isRetryable(res.status()));
}

TEST(DriverRobustness, InvalidKeySlotRejectedImmediately) {
  Rig r;
  SessionOptions opts;
  opts.max_retries = 3;
  AccelSession s{r.acc, r.alice, 6, opts};  // slot 6 was never loaded
  const std::uint64_t before = r.acc.cycle();
  const auto res = s.encryptBlock(aes::Block{});
  EXPECT_FALSE(res.has_value());
  EXPECT_EQ(res.status(), AccelStatus::Rejected);
  EXPECT_EQ(s.retries(), 0u);
  EXPECT_LE(r.acc.cycle() - before, 2u);  // no watchdog wait, no backoff
}

// One seeded session under device and host faults: block runs of 1-16
// blocks in both directions, a GCM seal after every fourth run and an open
// of what it sealed (one open with a tampered tag). The watchdog is short
// and the retry budget small, so attempts time out, fault-abort, back off
// and retry. Any change to a verdict, its output, the cycles charged, the
// retry count, the telemetry or the final device cycle moves the digest.
TEST(AccelSessionTrace, DigestIsPinned) {
  Rig r;
  soc::FaultCampaignConfig fc;
  fc.seed = 0xd1e5;
  fc.fault_rate = 0.02;
  fc.stuck_cycles = 96;
  soc::FaultInjector inj{r.acc, fc, {r.alice}};
  r.acc.setTickHook([&] { inj.tick(); });
  AccelSession s{r.acc, r.alice, 1,
                 SessionOptions{.timeout_cycles = 32, .max_retries = 1,
                                .backoff_cycles = 4}};
  Rng rng{0x7ace};
  TraceHash h;
  auto verdict = [&](AccelStatus st) {
    h.u64(static_cast<std::uint64_t>(st));
    h.u64(s.cyclesUsed());
    h.u64(s.retries());
    // A round-key upset zeroizes the slot fail-secure: provision it again.
    if (st == AccelStatus::Rejected) {
      ASSERT_TRUE(loadKey128(r.acc, r.alice, 1, 0, testKey(),
                             Conf::category(1)));
    }
  };
  for (unsigned i = 0; i < 64; ++i) {
    std::vector<aes::Block> blocks(1 + i % 16);
    for (auto& b : blocks)
      for (auto& x : b) x = static_cast<std::uint8_t>(rng.next());
    const auto run =
        i % 2 ? s.decryptBlocks(blocks) : s.encryptBlocks(blocks);
    verdict(run.status());
    if (run) {
      for (const auto& b : *run) h.bytes(b);
    }
    if (i % 4 != 3) continue;
    std::vector<std::uint8_t> pt(16 * blocks.size() - i % 5), aad(i % 7),
        iv(12);
    for (auto* v : {&pt, &aad, &iv})
      for (auto& x : *v) x = static_cast<std::uint8_t>(rng.next());
    const auto sealed = s.gcmSeal(pt, aad, iv);
    verdict(sealed.status());
    if (!sealed) continue;
    h.bytes(sealed->ciphertext);
    h.bytes(sealed->tag);
    aes::Tag128 tag = sealed->tag;
    if (i == 7) tag[3] ^= 0x40;
    const auto opened = s.gcmOpen(sealed->ciphertext, aad, tag, iv);
    verdict(opened.status());
    if (opened) {
      EXPECT_EQ(*opened, pt);
      h.bytes(*opened);
    }
  }
  const SessionTelemetry& t = s.telemetry();
  for (const auto n : {t.ok, t.suppressed, t.timeouts, t.fault_aborts,
                       t.drops, t.rejected, t.auth_failed})
    h.u64(n);
  h.u64(r.acc.cycle());
  r.acc.setTickHook(nullptr);

  EXPECT_GT(s.retries(), 0u);
  EXPECT_GT(t.timeouts, 0u);
  EXPECT_GT(t.fault_aborts + t.drops, 0u);
  EXPECT_GT(t.rejected, 0u);
  EXPECT_EQ(t.auth_failed, 1u);
  EXPECT_GT(t.ok, 64u);
  EXPECT_EQ(h.h, 0xa672f7924ef9ba1dULL) << std::hex << h.h;
}

TEST(DriverRobustness, StatusNamesAreStable) {
  EXPECT_EQ(toString(AccelStatus::Ok), "ok");
  EXPECT_EQ(toString(AccelStatus::Suppressed), "suppressed");
  EXPECT_EQ(toString(AccelStatus::Timeout), "timeout");
  EXPECT_EQ(toString(AccelStatus::FaultAborted), "fault-aborted");
  EXPECT_EQ(toString(AccelStatus::Dropped), "dropped");
  EXPECT_EQ(toString(AccelStatus::Rejected), "rejected");
  EXPECT_TRUE(isRetryable(AccelStatus::Timeout));
  EXPECT_FALSE(isRetryable(AccelStatus::Suppressed));
  EXPECT_FALSE(isRetryable(AccelStatus::Rejected));
}

}  // namespace
}  // namespace aesifc::accel
