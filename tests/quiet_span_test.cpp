// Quiet spans: AesAccelerator::skipQuiet advances the clock over cycles
// whose tick could only move lazy blocks one stage on, and the driver's
// waits, the retry backoff, waitSlotIdle and run(n) take it; a session
// attempt the device can take whole (canTakeRun) is submitted at once and
// carried by one run span (runSpan). A tick hook turns both off, so
// running the same seeded traffic once as is and once with a no-op hook
// compares the spans with tick-by-tick: every response, security event,
// stat and the final cycle must be identical, with and without a bit
// flipped before the traffic starts.

#include <gtest/gtest.h>

#include <climits>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "accel/driver.h"
#include "common/rng.h"

namespace aesifc::accel {
namespace {

using lattice::Conf;
using lattice::Principal;

constexpr unsigned kSlowRing =
    kScratchpadCells + kRoundKeySlots + 4 + kGhashKeySlots;

std::vector<std::uint8_t> keyBytes(unsigned n, std::uint8_t base) {
  std::vector<std::uint8_t> k(n);
  for (unsigned i = 0; i < n; ++i) k[i] = static_cast<std::uint8_t>(base + i);
  return k;
}

std::string hex(std::span<const std::uint8_t> b) {
  static const char* d = "0123456789abcdef";
  std::string s;
  for (const auto x : b) {
    s += d[x >> 4];
    s += d[x & 15];
  }
  return s;
}

AcceleratorConfig withMode(AcceleratorConfig cfg, SecurityMode mode) {
  cfg.mode = mode;
  return cfg;
}

// Three tenants on an AES-256-capable pipe (42 stages): t0 AES-128 in slot
// 1, t1 AES-256 in slot 2, t2 AES-128 in slot 3. t2 also submits raw
// blocks, whose responses are fetched with their cycle stamps.
struct Rig {
  AesAccelerator acc;
  unsigned t0, t1, t2;
  std::vector<std::string> log;

  explicit Rig(SecurityMode mode, bool tick_by_tick,
               AcceleratorConfig cfg = {.max_rounds = 14})
      : acc{withMode(cfg, mode)} {
    acc.addUser(Principal::supervisor());
    t0 = acc.addUser(Principal::user("t0", 1));
    t1 = acc.addUser(Principal::user("t1", 2));
    t2 = acc.addUser(Principal::user("t2", 3));
    EXPECT_TRUE(loadKeyBytes(acc, t0, 1, 0, keyBytes(16, 0x10),
                             aes::KeySize::Aes128, Conf::category(1)));
    EXPECT_TRUE(loadKeyBytes(acc, t1, 2, 2, keyBytes(32, 0x40),
                             aes::KeySize::Aes256, Conf::category(2)));
    EXPECT_TRUE(loadKeyBytes(acc, t2, 3, 6, keyBytes(16, 0x80),
                             aes::KeySize::Aes128, Conf::category(3)));
    if (tick_by_tick) acc.setTickHook([] {});
  }

  void note(const std::string& what) {
    log.push_back("cycle " + std::to_string(acc.cycle()) + " " + what);
  }
  void result(const char* what, const AccelResult<std::vector<aes::Block>>& r) {
    std::string s = std::string(what) + " " + toString(r.status());
    if (r) {
      for (const auto& b : *r) s.append(" ").append(hex(b));
    }
    note(s);
  }
  void fetchRaw(unsigned user) {
    std::vector<BlockResponse> out;
    acc.fetchOutputs(user, out);
    for (const auto& o : out) {
      note("raw req " + std::to_string(o.req_id) + " user " +
           std::to_string(o.user) + " " + toString(o.status) + " accept " +
           std::to_string(o.accept_cycle) + " complete " +
           std::to_string(o.complete_cycle) + " " + hex(o.data));
    }
  }

  // Everything the device shows: the log, the event ring, every stat and
  // per-site count, and the final cycle.
  std::vector<std::string> trace() {
    std::vector<std::string> t = log;
    for (const auto& e : acc.events()) t.push_back(e.toString());
    const auto& s = acc.stats();
    std::ostringstream os;
    for (const auto v :
         {s.accepted, s.completed, s.suppressed, s.stalled_cycles,
          s.denied_stalls, s.buffered, s.dropped, s.faults_detected,
          s.faults_recovered, s.fault_aborted, s.retries, s.gcm_ops, s.gcm_ok,
          s.gcm_suppressed, s.gcm_auth_failed, s.gcm_fault_aborted})
      os << v << ' ';
    for (const auto v : acc.faultsDetectedBySite()) os << v << ' ';
    os << "occupancy " << acc.pipeline().occupancy() << " final cycle "
       << acc.cycle();
    t.push_back(os.str());
    return t;
  }
};

void expectSameTrace(const std::vector<std::string>& fast,
                     const std::vector<std::string>& ticked) {
  ASSERT_EQ(fast.size(), ticked.size());
  for (std::size_t i = 0; i < fast.size(); ++i) EXPECT_EQ(fast[i], ticked[i]);
}

std::vector<aes::Block> randomBlocks(Rng& rng, std::size_t n) {
  std::vector<aes::Block> v(n);
  for (auto& b : v)
    for (auto& x : b) x = static_cast<std::uint8_t>(rng.next());
  return v;
}

// Seeded traffic: session runs of 1-8 blocks by t0 (AES-128) and t1
// (AES-256) in both directions, some through a session whose 4-cycle
// watchdog forces a retry with backoff; raw t2 blocks riding the pipe
// under them; t2's receiver going away for a run; idle run(n) and
// waitSlotIdle waits; and a GCM seal now and then.
std::vector<std::string> sessionTraffic(SecurityMode mode, bool tick_by_tick,
                                        std::uint64_t seed) {
  Rig r{mode, tick_by_tick};
  AccelSession s0{r.acc, r.t0, 1};
  AccelSession s1{r.acc, r.t1, 2};
  AccelSession tight{r.acc, r.t0, 1,
                     SessionOptions{.timeout_cycles = 4, .max_retries = 2,
                                    .backoff_cycles = 16}};
  Rng rng{seed};
  std::uint64_t raw_id = 1;
  for (unsigned step = 0; step < 80; ++step) {
    // Every eighth step is a forced retry.
    const unsigned pick =
        step % 8 == 7 ? 7 : static_cast<unsigned>(rng.below(12));
    const bool decrypt = rng.chance(0.5);
    const auto blocks = randomBlocks(rng, 1 + rng.below(8));
    if (pick < 4) {
      r.result("t0", decrypt ? s0.decryptBlocks(blocks)
                             : s0.encryptBlocks(blocks));
    } else if (pick < 7) {
      r.result("t1", decrypt ? s1.decryptBlocks(blocks)
                             : s1.encryptBlocks(blocks));
    } else if (pick == 7) {
      r.result("tight", decrypt ? tight.decryptBlocks(blocks)
                                : tight.encryptBlocks(blocks));
      r.note("tight retries " + std::to_string(tight.retries()));
    } else if (pick == 8) {
      for (const auto& b : blocks)
        r.acc.submit(BlockRequest{raw_id++, r.t2, 3, decrypt, b});
    } else if (pick == 9) {
      r.acc.setReceiverReady(r.t2, false);
      r.result("t0 while t2 away", s0.encryptBlocks(blocks));
      r.acc.setReceiverReady(r.t2, true);
    } else if (pick == 10) {
      r.acc.run(static_cast<unsigned>(rng.below(200)));
      r.note(std::string("slot 3 idle ") +
             (waitSlotIdle(r.acc, 3, rng.below(40)) ? "yes" : "no"));
    } else {
      const std::vector<std::uint8_t> pt(16 * blocks.size(), 0x5c);
      const auto sealed = s1.gcmSeal(pt, {}, keyBytes(12, 0x21));
      std::string line = "seal " + toString(sealed.status());
      if (sealed)
        line.append(" ").append(hex(sealed->ciphertext)).append(" ").append(
            hex(sealed->tag));
      r.note(line);
    }
    r.fetchRaw(r.t2);
  }
  r.acc.run(400);
  r.fetchRaw(r.t2);
  EXPECT_GT(tight.retries(), 0u);
  for (const auto* s : {&s0, &s1, &tight}) {
    const auto& t = s->telemetry();
    r.note("telemetry " + std::to_string(t.ok) + " " +
           std::to_string(t.timeouts) + " " + std::to_string(t.fault_aborts) +
           " cycles " + std::to_string(s->cyclesUsed()));
  }
  return r.trace();
}

class QuietSpanModes : public ::testing::TestWithParam<SecurityMode> {};

TEST_P(QuietSpanModes, SessionTrafficMatchesTickByTick) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    expectSameTrace(sessionTraffic(GetParam(), false, seed),
                    sessionTraffic(GetParam(), true, seed));
  }
}

// One bit flipped at a site, with no hook attached, just before a session
// run; the span must end before the scrub ring's visit (or not start, for
// a fast-ring site), so the detection lands on the same cycle.
struct Flip {
  const char* name;
  FaultSite site;
  unsigned index;
  unsigned bit;
};

struct FlipRun {
  std::vector<std::string> trace;
  bool landed = false;
  std::uint64_t detections = 0;  // at the flipped site
};

FlipRun runAfterFlip(SecurityMode mode, bool tick_by_tick, const Flip& flip,
                     bool wait_first) {
  FlipRun out;
  Rig r{mode, tick_by_tick};
  AccelSession s0{r.acc, r.t0, 1};
  AccelSession s2{r.acc, r.t2, 3};
  Rng rng{77};
  // An H table for slot 2 (t1's seal) and some history on the pipe.
  AccelSession s1{r.acc, r.t1, 2};
  r.note("seal " + toString(s1.gcmSeal(keyBytes(32, 1), {},
                                       keyBytes(12, 2)).status()));
  r.result("t0", s0.encryptBlocks(randomBlocks(rng, 5)));
  r.acc.run(static_cast<unsigned>(rng.below(kSlowRing)));
  // Three raw t2 blocks go lazy in the pipe.
  for (std::uint64_t id = 1; id <= 3; ++id)
    r.acc.submit(BlockRequest{id, r.t2, 3, false, randomBlocks(rng, 1)[0]});
  r.acc.run(5);
  out.landed = r.acc.injectFault(flip.site, flip.index, flip.bit);
  r.note(std::string("flip ") + flip.name);
  // The first wait after the flip is a session run's, or waitSlotIdle's
  // on the lazy t2 blocks (a wait that submits nothing first).
  if (wait_first)
    r.note(std::string("slot 3 idle ") +
           (waitSlotIdle(r.acc, 3, 200) ? "yes" : "no"));
  r.result("t0", s0.encryptBlocks(randomBlocks(rng, 5)));
  r.result("t2", s2.decryptBlocks(randomBlocks(rng, 3)));
  r.acc.run(3 * kSlowRing);
  r.fetchRaw(r.t2);
  out.detections =
      r.acc.faultsDetectedBySite()[static_cast<unsigned>(flip.site)];
  out.trace = r.trace();
  return out;
}

TEST_P(QuietSpanModes, CorruptionBeforeARunIsCaughtOnTheSameCycle) {
  const Flip flips[] = {
      {"round-key slot 2", FaultSite::RoundKey, 2, 3 * 128 + 5 * 8 + 1},
      {"scratchpad cell 4", FaultSite::ScratchCell, 4, 17},
      {"config register debug_enable", FaultSite::ConfigReg, 1, 0},
      {"H-table slot 2", FaultSite::GhashKeyTable, 2, 300},
      {"lazy stage tag", FaultSite::StageTag, 4, 7},
  };
  for (const auto& flip : flips) {
    for (const bool wait_first : {false, true}) {
      SCOPED_TRACE(std::string(flip.name) +
                   (wait_first ? ", waitSlotIdle first" : ", run first"));
      const auto fast = runAfterFlip(GetParam(), false, flip, wait_first);
      const auto ticked = runAfterFlip(GetParam(), true, flip, wait_first);
      EXPECT_TRUE(fast.landed);
      EXPECT_EQ(fast.detections, 1u);
      expectSameTrace(fast.trace, ticked.trace);
    }
  }
}

// The edges of a run span, each run as is and with a no-op hook: a
// session whose receiver is not ready (the Fig. 8 stall, or a denied stall
// into the overflow buffer), a run while another user's lazy blocks are in
// flight, a coarse-grained arbiter, stale responses with the session's
// request ids waiting in its output queue, and a retry after a dropped
// block. Each case ends with a run the device takes whole, then raw
// blocks of two users submitted on one cycle, so the arbiter pointer the
// run left decides their accept order.
enum class Edge { ReceiverNotReady, OtherUserInFlight, CoarseArbiter,
                  StaleResponses, RetryAfterDrop };

std::vector<std::string> runEdge(SecurityMode mode, bool tick_by_tick,
                                 Edge edge) {
  AcceleratorConfig cfg{.max_rounds = 14};
  if (edge == Edge::CoarseArbiter) cfg.coarse_grained = true;
  // With no buffer space, a denied stall drops the block at once.
  if (edge == Edge::RetryAfterDrop) cfg.out_buffer_depth = 0;
  Rig r{mode, tick_by_tick, cfg};
  AccelSession s0{r.acc, r.t0, 1};
  AccelSession s2{r.acc, r.t2, 3};
  AccelSession retrying{r.acc, r.t0, 1,
                        SessionOptions{.timeout_cycles = 40, .max_retries = 2,
                                       .backoff_cycles = 8}};
  Rng rng{static_cast<std::uint64_t>(edge) + 500};
  switch (edge) {
    case Edge::ReceiverNotReady:
      // Only t0's own blocks are in flight, so the stall is granted and
      // the pipe waits for the receiver until the watchdog fires.
      r.acc.setReceiverReady(r.t0, false);
      r.result("t0 away", retrying.encryptBlocks(randomBlocks(rng, 3)));
      r.acc.setReceiverReady(r.t0, true);
      r.acc.run(100);
      r.fetchRaw(r.t0);
      break;
    case Edge::OtherUserInFlight:
      for (std::uint64_t id = 1; id <= 4; ++id)
        r.acc.submit(BlockRequest{100 + id, r.t2, 3, false,
                                  randomBlocks(rng, 1)[0]});
      r.acc.run(6);
      r.result("t0", s0.encryptBlocks(randomBlocks(rng, 5)));
      r.fetchRaw(r.t2);
      break;
    case Edge::CoarseArbiter:
      r.result("t0", s0.encryptBlocks(randomBlocks(rng, 5)));
      r.acc.submit(BlockRequest{101, r.t2, 3, true, randomBlocks(rng, 1)[0]});
      r.result("t0", s0.decryptBlocks(randomBlocks(rng, 2)));
      r.fetchRaw(r.t2);
      break;
    case Edge::StaleResponses:
      // Raw t2 responses 1-3 wait unfetched; t2's session numbers its own
      // requests from 1 too.
      for (std::uint64_t id = 1; id <= 3; ++id)
        r.acc.submit(BlockRequest{id, r.t2, 3, false, randomBlocks(rng, 1)[0]});
      r.acc.run(80);
      r.result("t2", s2.encryptBlocks(randomBlocks(rng, 3)));
      r.fetchRaw(r.t2);
      r.result("t2", s2.encryptBlocks(randomBlocks(rng, 4)));
      break;
    case Edge::RetryAfterDrop:
      // t1's blocks in flight lower the meet below t0's label, so t0's
      // stall requests are denied (Protected) and its blocks dropped; once
      // t1's blocks are out the stall is granted and the attempt times out.
      for (std::uint64_t id = 1; id <= 8; ++id)
        r.acc.submit(BlockRequest{200 + id, r.t1, 2, false,
                                  randomBlocks(rng, 1)[0]});
      r.acc.setReceiverReady(r.t0, false);
      r.result("t0 away", retrying.encryptBlocks(randomBlocks(rng, 4)));
      r.note("retries " + std::to_string(retrying.retries()));
      r.acc.setReceiverReady(r.t0, true);
      r.acc.run(200);
      r.fetchRaw(r.t0);
      r.fetchRaw(r.t1);
      r.result("t0 back", retrying.encryptBlocks(randomBlocks(rng, 4)));
      break;
  }
  r.acc.run(200);
  r.fetchRaw(r.t0);
  r.fetchRaw(r.t2);
  r.result("t0 whole", s0.encryptBlocks(randomBlocks(rng, 6)));
  r.acc.submit(BlockRequest{300, r.t0, 1, false, randomBlocks(rng, 1)[0]});
  r.acc.submit(BlockRequest{301, r.t2, 3, false, randomBlocks(rng, 1)[0]});
  r.acc.run(60);
  r.fetchRaw(r.t0);
  r.fetchRaw(r.t2);
  return r.trace();
}

TEST_P(QuietSpanModes, RunSpanEdgesMatchTickByTick) {
  const std::pair<Edge, const char*> edges[] = {
      {Edge::ReceiverNotReady, "receiver not ready"},
      {Edge::OtherUserInFlight, "another user's blocks in flight"},
      {Edge::CoarseArbiter, "coarse-grained arbiter"},
      {Edge::StaleResponses, "stale responses in the output queue"},
      {Edge::RetryAfterDrop, "retry after a dropped block"},
  };
  for (const auto& [edge, name] : edges) {
    SCOPED_TRACE(name);
    expectSameTrace(runEdge(GetParam(), false, edge),
                    runEdge(GetParam(), true, edge));
  }
}

// A slow-ring upset at every distance from the cursor, just before a
// session run: the device must not take the run whole over an entry whose
// check fails, wherever the cursor stands.
TEST_P(QuietSpanModes, RunSpanChecksEverySlowRingEntry) {
  const Flip cell{"scratchpad cell 4", FaultSite::ScratchCell, 4, 17};
  for (unsigned d = 0; d < kSlowRing; ++d) {
    SCOPED_TRACE("cursor offset " + std::to_string(d));
    std::vector<std::string> traces[2];
    for (const bool ticked : {false, true}) {
      Rig r{GetParam(), ticked};
      AccelSession s0{r.acc, r.t0, 1};
      Rng rng{d};
      r.acc.run(d);
      EXPECT_TRUE(r.acc.injectFault(cell.site, cell.index, cell.bit));
      r.result("t0", s0.encryptBlocks(randomBlocks(rng, 5)));
      r.acc.run(kSlowRing);
      EXPECT_EQ(r.acc.faultsDetectedBySite()[static_cast<unsigned>(cell.site)],
                1u);
      traces[ticked] = r.trace();
    }
    expectSameTrace(traces[0], traces[1]);
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, QuietSpanModes,
                         ::testing::Values(SecurityMode::Protected,
                                           SecurityMode::Baseline),
                         [](const auto& info) {
                           return info.param == SecurityMode::Protected
                                      ? std::string("Protected")
                                      : std::string("Baseline");
                         });

// One tenant on the 30-stage pipe, its AES-128 key in slot 1.
struct Solo {
  AesAccelerator acc{AcceleratorConfig{}};
  unsigned u;
  Solo() {
    acc.addUser(Principal::supervisor());
    u = acc.addUser(Principal::user("alice", 1));
    EXPECT_TRUE(loadKey128(acc, u, 1, 0, keyBytes(16, 0xa0),
                           Conf::category(1)));
  }
  void submit(std::uint64_t id) {
    ASSERT_TRUE(acc.submit(BlockRequest{id, u, 1, false, {}}));
  }
};

// --- Run spans: the paper's K + depth anchor ------------------------------

// A session run of K blocks lasts K + depth cycles: its blocks are accepted
// on cycles c .. c+K-1, each leaves depth cycles after its accept, and the
// run ends on cycle c + K + depth. Checked for AES-128 on the 30-stage pipe
// and AES-256 on a 42-stage one, in both modes, with run spans and tick by
// tick (a hook stamps each accept and each delivery); a raw run carried by
// runSpan shows the same stamps on its responses.
TEST(QuietSpan, SessionRunOfKBlocksTakesKPlusDepthCycles) {
  for (const auto mode : {SecurityMode::Protected, SecurityMode::Baseline}) {
    for (const auto ks : {aes::KeySize::Aes128, aes::KeySize::Aes256}) {
      for (const std::uint64_t k : {1u, 5u, 64u}) {
        for (const bool ticked : {false, true}) {
          SCOPED_TRACE(std::string(mode == SecurityMode::Protected
                                       ? "Protected"
                                       : "Baseline") +
                       " AES-" + std::to_string(8 * aes::keyBytes(ks)) +
                       " K=" + std::to_string(k) +
                       (ticked ? " tick by tick" : " run span"));
          const unsigned rounds = ks == aes::KeySize::Aes128 ? 10 : 14;
          AesAccelerator acc{AcceleratorConfig{.mode = mode,
                                               .max_rounds = rounds}};
          acc.addUser(Principal::supervisor());
          const unsigned u = acc.addUser(Principal::user("alice", 1));
          const auto key = keyBytes(aes::keyBytes(ks), 0x31);
          ASSERT_TRUE(loadKeyBytes(acc, u, 1, 0, key, ks, Conf::category(1)));
          const auto ek = aes::expandKey(key, ks);
          const std::uint64_t depth = acc.pipeline().depth();
          ASSERT_EQ(depth, 3u * rounds);
          std::vector<std::uint64_t> accepts, exits;
          if (ticked) {
            acc.setTickHook([&] {
              if (acc.stats().accepted > accepts.size())
                accepts.push_back(acc.cycle());
              if (acc.stats().completed > exits.size())
                exits.push_back(acc.cycle());
            });
          }
          acc.run(13);
          Rng rng{k};
          const auto blocks = randomBlocks(rng, k);
          AccelSession session{acc, u, 1};
          const std::uint64_t c = acc.cycle();
          const auto got = session.encryptBlocks(blocks);
          ASSERT_TRUE(got.has_value());
          for (std::size_t i = 0; i < k; ++i)
            EXPECT_EQ((*got)[i], aes::encryptBlock(blocks[i], ek));
          EXPECT_EQ(acc.cycle(), c + k + depth);
          EXPECT_EQ(session.cyclesUsed(), k + depth);
          if (ticked) {
            ASSERT_EQ(accepts.size(), k);
            ASSERT_EQ(exits.size(), k);
            for (std::size_t i = 0; i < k; ++i) {
              EXPECT_EQ(accepts[i], c + i);
              EXPECT_EQ(exits[i], accepts[i] + depth);
            }
            continue;
          }
          // The same run raw, through the span's own interface.
          ASSERT_TRUE(acc.canTakeRun(u, 1));
          const std::uint64_t c2 = acc.cycle();
          for (std::size_t i = 0; i < k; ++i)
            ASSERT_TRUE(
                acc.submit(BlockRequest{1000 + i, u, 1, true, (*got)[i]}));
          EXPECT_EQ(acc.runSpan(u, UINT64_MAX), k + depth);
          std::vector<BlockResponse> out;
          ASSERT_EQ(acc.fetchOutputs(u, out), k);
          for (std::size_t i = 0; i < k; ++i) {
            EXPECT_EQ(out[i].req_id, 1000 + i);
            EXPECT_EQ(out[i].status, AccelStatus::Ok);
            EXPECT_EQ(out[i].accept_cycle, c2 + i);
            EXPECT_EQ(out[i].complete_cycle, out[i].accept_cycle + depth);
            EXPECT_EQ(out[i].data, blocks[i]);
          }
          EXPECT_EQ(acc.cycle(), c2 + k + depth);
        }
      }
    }
  }
}

// A run span stops at its limit wherever the run stands, and the device
// is where that many ticks leave it.
TEST(QuietSpan, RunSpanStopsAtItsLimit) {
  for (const std::uint64_t limit : {1u, 3u, 20u, 31u, 34u}) {
    SCOPED_TRACE("limit " + std::to_string(limit));
    Solo a, b;
    for (Solo* s : {&a, &b}) {
      ASSERT_TRUE(s->acc.canTakeRun(s->u, 1));
      for (std::uint64_t id = 1; id <= 5; ++id) s->submit(id);
    }
    EXPECT_EQ(a.acc.runSpan(a.u, limit), limit);
    for (std::uint64_t i = 0; i < limit; ++i) b.acc.tick();
    EXPECT_EQ(a.acc.cycle(), b.acc.cycle());
    EXPECT_EQ(a.acc.pendingInputs(a.u), b.acc.pendingInputs(b.u));
    EXPECT_EQ(a.acc.pipeline().occupancy(), b.acc.pipeline().occupancy());
    EXPECT_EQ(a.acc.stats().accepted, b.acc.stats().accepted);
    std::vector<BlockResponse> ra, rb;
    a.acc.fetchOutputs(a.u, ra);
    b.acc.fetchOutputs(b.u, rb);
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].complete_cycle, rb[i].complete_cycle);
      EXPECT_EQ(ra[i].data, rb[i].data);
    }
    // The rest of the run, tick by tick on both.
    a.acc.run(40);
    b.acc.run(40);
    EXPECT_EQ(a.acc.stats().completed, 5u);
    EXPECT_EQ(b.acc.stats().completed, 5u);
  }
}

TEST(QuietSpan, NoRunIsTakenWholeWhileAnythingElseCanMove) {
  Solo s;
  EXPECT_TRUE(s.acc.canTakeRun(s.u, 1));
  EXPECT_FALSE(s.acc.canTakeRun(s.u, 2));  // an empty slot is refused
  s.acc.setReceiverReady(s.u, false);
  EXPECT_FALSE(s.acc.canTakeRun(s.u, 1));
  s.acc.setReceiverReady(s.u, true);
  s.submit(1);
  EXPECT_FALSE(s.acc.canTakeRun(s.u, 1));  // input queued
  s.acc.tick();
  EXPECT_FALSE(s.acc.canTakeRun(s.u, 1));  // a block in the pipe
  s.acc.run(s.acc.pipeline().depth());
  EXPECT_EQ(s.acc.pendingOutputs(s.u), 1u);
  EXPECT_FALSE(s.acc.canTakeRun(s.u, 1));  // a response waits
  ASSERT_TRUE(s.acc.fetchOutput(s.u).has_value());
  EXPECT_TRUE(s.acc.canTakeRun(s.u, 1));
  s.acc.setTickHook([] {});
  EXPECT_FALSE(s.acc.canTakeRun(s.u, 1));
  s.acc.setTickHook(nullptr);
  ASSERT_TRUE(s.acc.injectFault(FaultSite::ConfigReg, 3, 0));
  EXPECT_FALSE(s.acc.canTakeRun(s.u, 1));  // a slow-ring check fails
}

// --- skipQuiet's own contract ----------------------------------------------

TEST(QuietSpan, LoneBlockSkipsToTheFinalStageThenTicksOut) {
  Solo a, b;
  for (Solo* s : {&a, &b}) {
    s->submit(1);
    s->acc.tick();  // accepted into stage 0
  }
  const unsigned depth = a.acc.pipeline().depth();
  EXPECT_EQ(a.acc.skipQuiet(1000), depth - 1);
  EXPECT_TRUE(a.acc.pipeline().finalStage().valid);
  for (unsigned i = 0; i < depth - 1; ++i) b.acc.tick();
  EXPECT_EQ(a.acc.cycle(), b.acc.cycle());
  a.acc.tick();
  b.acc.tick();
  const auto ra = a.acc.fetchOutput(a.u);
  const auto rb = b.acc.fetchOutput(b.u);
  ASSERT_TRUE(ra.has_value() && rb.has_value());
  EXPECT_EQ(ra->complete_cycle, rb->complete_cycle);
  EXPECT_EQ(ra->data, rb->data);
  // An empty pipe skips the whole limit.
  EXPECT_EQ(a.acc.skipQuiet(12345), 12345u);
  EXPECT_EQ(a.acc.skipQuiet(0), 0u);
}

TEST(QuietSpan, SkipsNothingWhileInputIsQueued) {
  Solo s;
  s.submit(1);
  EXPECT_EQ(s.acc.skipQuiet(100), 0u);
  s.acc.tick();
  EXPECT_GT(s.acc.skipQuiet(100), 0u);
}

TEST(QuietSpan, SkipsNothingWhileAGcmOpIsActive) {
  Solo s;
  GcmRequest req;
  req.user = s.u;
  req.key_slot = 1;
  req.iv = keyBytes(12, 3);
  req.data = keyBytes(32, 4);
  ASSERT_EQ(s.acc.submitGcm(req), GcmSubmit::Accepted);
  EXPECT_EQ(s.acc.skipQuiet(100), 0u);
  s.acc.run(200);
  ASSERT_TRUE(s.acc.fetchGcm(s.u).has_value());
  EXPECT_EQ(s.acc.skipQuiet(100), 100u);
}

TEST(QuietSpan, SkipsNothingWithAHookAttached) {
  Solo s;
  s.submit(1);
  s.acc.tick();
  unsigned calls = 0;
  s.acc.setTickHook([&] { ++calls; });
  EXPECT_EQ(s.acc.skipQuiet(100), 0u);
  s.acc.run(10);
  EXPECT_EQ(calls, 10u);  // run(n) ticks every cycle for the hook
  s.acc.setTickHook(nullptr);
  EXPECT_GT(s.acc.skipQuiet(100), 0u);
}

TEST(QuietSpan, SkipsNothingWhenTheOldestBlockIsAtTheFinalStage) {
  Solo s;
  s.submit(1);
  s.submit(2);
  s.acc.tick();
  s.acc.tick();  // blocks in stages 1 and 0
  s.acc.run(s.acc.pipeline().depth() - 2);
  ASSERT_TRUE(s.acc.pipeline().finalStage().valid);
  EXPECT_EQ(s.acc.skipQuiet(100), 0u);
  s.acc.tick();  // the first block leaves; the second is now final
  EXPECT_EQ(s.acc.pendingOutputs(s.u), 1u);
  EXPECT_EQ(s.acc.skipQuiet(100), 0u);
}

TEST(QuietSpan, SkipsNothingWhileAnEagerBlockIsInFlight) {
  Solo s;
  s.submit(1);
  s.acc.tick();
  ASSERT_TRUE(s.acc.injectFault(FaultSite::StageData, 0, 9));
  EXPECT_EQ(s.acc.skipQuiet(100), 0u);
}

// A session wait skips its backoff: a 4-cycle watchdog times the first
// attempt out, the blocks finish during a 2^32-cycle backoff, and the
// retry finds nothing left to do. Tick by tick this would take hours.
TEST(QuietSpan, LongBackoffCostsNoTicks) {
  Solo s;
  const std::uint64_t backoff = std::uint64_t{1} << 32;
  AccelSession session{s.acc, s.u, 1,
                       SessionOptions{.timeout_cycles = 4, .max_retries = 1,
                                      .backoff_cycles = backoff}};
  const std::uint64_t start = s.acc.cycle();
  const auto r = session.encryptBlocks(std::vector<aes::Block>(5));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(session.retries(), 1u);
  // Timed out on the first cycle past timeout + blocks, then backed off.
  EXPECT_EQ(s.acc.cycle() - start, 4 + 5 + 1 + backoff);
}

// The slow ring's cursor stays in [0, ring): entry e is visited on the
// cycles c with c % ring == e however long the device has run, here past
// 2^32 cycles (where a 32-bit cycle count modulo the ring would jump).
TEST(QuietSpan, SlowRingVisitOrderHoldsAcrossTwoToThe32Cycles) {
  Solo s;
  s.acc.run(UINT_MAX);
  s.acc.run(UINT_MAX);
  s.acc.run(12345);
  const std::uint64_t flipped_at = s.acc.cycle();
  ASSERT_GT(flipped_at, std::uint64_t{1} << 32);
  const unsigned cell = 5;  // slow-ring entry 5
  ASSERT_TRUE(s.acc.injectFault(FaultSite::ScratchCell, cell, 3));
  s.acc.run(kSlowRing);
  ASSERT_EQ(s.acc.eventCount(SecurityEventKind::FaultScrubbed), 1u);
  const std::uint64_t seen = s.acc.events().back().cycle;
  EXPECT_EQ(seen % kSlowRing, cell);
  EXPECT_GE(seen, flipped_at);
  EXPECT_LT(seen, flipped_at + kSlowRing);
}

}  // namespace
}  // namespace aesifc::accel
