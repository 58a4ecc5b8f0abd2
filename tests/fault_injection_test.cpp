// Unit tests of the fail-secure hardening: per-site parity detection, the
// tags-only-fail-upward quarantine rule, key zeroization with in-flight
// squash, config-register restoration, the bounded event log, and an IR
// model (checked with the dynamic tracker) showing the parity-gated output
// path keeps secret state off a public port even when parity fails.

#include <gtest/gtest.h>

#include <map>
#include <span>

#include "accel/driver.h"
#include "aes/cipher.h"
#include "common/rng.h"
#include "ifc/tracker.h"
#include "soc/fault_injector.h"

namespace aesifc::accel {
namespace {

using lattice::Conf;
using lattice::Integ;
using lattice::Label;
using lattice::Principal;

std::vector<std::uint8_t> testKey() {
  std::vector<std::uint8_t> k(16);
  for (unsigned i = 0; i < 16; ++i) k[i] = static_cast<std::uint8_t>(i * 7 + 1);
  return k;
}

struct Rig {
  AesAccelerator acc;
  unsigned sup;
  unsigned alice;

  explicit Rig(AcceleratorConfig cfg = {}) : acc{cfg} {
    sup = acc.addUser(Principal::supervisor());
    alice = acc.addUser(Principal::user("alice", 1));
    EXPECT_TRUE(loadKey128(acc, alice, 1, 0, testKey(), Conf::category(1)));
  }
};

TEST(FaultInjection, Parity64AndLabelParity) {
  EXPECT_FALSE(parity64(0));
  EXPECT_TRUE(parity64(1));
  EXPECT_FALSE(parity64(3));
  EXPECT_TRUE(parity64(1ULL << 63));
  const Label l{Conf::category(1), Integ::bottom()};
  Label flipped = l;
  flipped.c = flipped.c.join(Conf::category(2));
  EXPECT_NE(labelParity(l), labelParity(flipped));
}

// The scrub rings must be silent on a quiet device. This is easy to break
// subtly: the integrity digests have a nonzero reset value, so power-on
// must stamp them to match the zeroed storage or the slow ring "detects"
// corruption in never-written cells and slots.
TEST(FaultInjection, QuietDeviceScrubFindsNothing) {
  Rig r;
  AccelSession session{r.acc, r.alice, 1, {}};
  aes::Block pt{};
  for (unsigned i = 0; i < 4; ++i) {
    pt[0] = static_cast<std::uint8_t>(i);
    EXPECT_TRUE(session.encryptBlock(pt).has_value());
  }
  r.acc.run(64);  // let the slow ring visit every site several times
  EXPECT_EQ(r.acc.stats().faults_detected, 0u);
  EXPECT_EQ(r.acc.events().size(), 0u);
}

TEST(FaultInjection, ScratchTagFaultQuarantinesUpward) {
  Rig r;
  ASSERT_TRUE(r.acc.injectFault(FaultSite::ScratchTag, 0, 3));
  r.acc.tick();  // fast scrub ring covers every scratchpad tag each cycle
  EXPECT_GE(r.acc.stats().faults_detected, 1u);
  EXPECT_GE(r.acc.stats().faults_recovered, 1u);
  EXPECT_GE(r.acc.eventCount(SecurityEventKind::FaultScrubbed), 1u);
  // Fail upward: quarantine is top confidentiality, bottom integrity —
  // never toward public, so a corrupted tag cannot declassify the cell.
  const Label q{Conf::top(), Integ::bottom()};
  EXPECT_EQ(r.acc.scratchpad().cellLabel(0), q);
  EXPECT_EQ(r.acc.scratchpad().rawCell(0), 0u);  // zeroized
  // The quarantined cell is unreadable by everyone below top: key material
  // can no longer be expanded from it...
  EXPECT_FALSE(r.acc.scratchpad()
                   .readCell(0, r.acc.principal(r.alice).authority)
                   .has_value());
  EXPECT_FALSE(
      r.acc.loadKey(r.alice, 1, 0, aes::KeySize::Aes128, Conf::category(1)));
  // ...and a fresh provisioning cycle (which retags the cells) recovers it.
  EXPECT_TRUE(loadKey128(r.acc, r.alice, 1, 0, testKey(), Conf::category(1)));
}

// A re-tag rewrites a cell's tag and data with fresh parity, so an upset it
// overwrites before the next scrub would otherwise never be reported: the
// re-tag runs the comparators first.
TEST(FaultInjection, ReTagReportsTheUpsetItOverwrites) {
  for (const FaultSite site : {FaultSite::ScratchTag, FaultSite::ScratchCell}) {
    SCOPED_TRACE(toString(site));
    Rig r;
    ASSERT_TRUE(r.acc.injectFault(site, 1, 4));
    // No tick between the upset and the re-provisioning of the key.
    EXPECT_TRUE(
        loadKey128(r.acc, r.alice, 1, 0, testKey(), Conf::category(1)));
    EXPECT_EQ(r.acc.faultsDetectedBySite()[static_cast<unsigned>(site)], 1u);
    EXPECT_EQ(r.acc.eventCount(SecurityEventKind::FaultScrubbed), 1u);
    r.acc.run(64);  // nothing left for the scrub rings to find
    EXPECT_EQ(r.acc.stats().faults_detected, 1u);
  }
}

TEST(FaultInjection, ScratchCellFaultCaughtBySlowScrub) {
  Rig r;
  ASSERT_TRUE(r.acc.injectFault(FaultSite::ScratchCell, 1, 17));
  r.acc.run(32);  // slow ring: one cell/slot/register per cycle
  EXPECT_GE(r.acc.stats().faults_detected, 1u);
  EXPECT_EQ(r.acc.scratchpad().rawCell(1), 0u);
}

TEST(FaultInjection, StageTagFaultSquashesBlockAndZeroizesKey) {
  Rig r;
  BlockRequest req;
  req.req_id = 7;
  req.user = r.alice;
  req.key_slot = 1;
  for (auto& b : req.data) b = 0x5a;
  ASSERT_TRUE(r.acc.submit(req));
  r.acc.run(3);
  int stage = -1;
  for (unsigned i = 0; i < r.acc.pipeline().depth(); ++i) {
    if (r.acc.pipeline().stage(i).valid) stage = static_cast<int>(i);
  }
  ASSERT_GE(stage, 0);
  ASSERT_TRUE(
      r.acc.injectFault(FaultSite::StageTag, static_cast<unsigned>(stage), 5));
  r.acc.tick();
  auto resp = r.acc.fetchOutput(r.alice);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->req_id, 7u);
  EXPECT_EQ(resp->status, AccelStatus::FaultAborted);
  EXPECT_EQ(resp->data, aes::Block{});  // nothing released
  // A corrupted tag could have mislabeled the key's data: the slot is gone.
  EXPECT_FALSE(r.acc.roundKeys().valid(1));
  EXPECT_GE(r.acc.stats().fault_aborted, 1u);
  EXPECT_GE(r.acc.eventCount(SecurityEventKind::FaultDetected), 1u);
}

TEST(FaultInjection, StageDataFaultAbortsButKeepsKey) {
  Rig r;
  BlockRequest req;
  req.req_id = 9;
  req.user = r.alice;
  req.key_slot = 1;
  for (auto& b : req.data) b = 0x11;
  ASSERT_TRUE(r.acc.submit(req));
  r.acc.run(3);
  int stage = -1;
  for (unsigned i = 0; i < r.acc.pipeline().depth(); ++i) {
    if (r.acc.pipeline().stage(i).valid) stage = static_cast<int>(i);
  }
  ASSERT_GE(stage, 0);
  ASSERT_TRUE(r.acc.injectFault(FaultSite::StageData,
                                static_cast<unsigned>(stage), 77));
  r.acc.tick();
  auto resp = r.acc.fetchOutput(r.alice);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, AccelStatus::FaultAborted);
  // Data corruption does not implicate the key material.
  EXPECT_TRUE(r.acc.roundKeys().valid(1));
}

// The pipe is a ring of stage registers; stage indices stay logical. Once
// the head has wrapped, a fault aimed at stage k must still hit the block
// the pipe reports in stage k, and the scrub must squash and report that
// block, at every k and for both register kinds.
TEST(FaultInjection, StageFaultHitsLogicalStageAfterRotation) {
  for (const FaultSite site : {FaultSite::StageData, FaultSite::StageTag}) {
    const unsigned depth = Rig{}.acc.pipeline().depth();
    for (unsigned k = 0; k < depth; ++k) {
      SCOPED_TRACE(toString(site) + " at stage " + std::to_string(k));
      Rig r;
      for (unsigned i = 0; i < 3 * depth; ++i) {
        BlockRequest req;
        req.req_id = 1000 + i;
        req.user = r.alice;
        req.key_slot = 1;
        req.data[0] = static_cast<std::uint8_t>(i);
        ASSERT_TRUE(r.acc.submit(req));
      }
      r.acc.run(depth + k);  // head has wrapped; every stage is occupied
      const StageSlot& target = r.acc.pipeline().stage(k);
      ASSERT_TRUE(target.valid);
      const std::uint64_t victim = target.req_id;
      ASSERT_TRUE(r.acc.injectFault(site, k, 5));
      r.acc.tick();
      if (site == FaultSite::StageData) {
        // Only the corrupted block is lost; its emptied register moved on
        // to stage k + 1 while its neighbours kept their blocks.
        if (k + 1 < depth) {
          EXPECT_FALSE(r.acc.pipeline().stage(k + 1).valid);
        }
        EXPECT_EQ(r.acc.pipeline().validCount(), depth - (k + 1 < depth));
        // Its abort record leaves behind alice's older blocks in the pipe.
        r.acc.run(depth);
      }

      std::vector<BlockResponse> out;
      r.acc.fetchOutputs(r.alice, out);
      unsigned aborted = 0;
      bool victim_aborted = false;
      for (const auto& resp : out) {
        if (resp.status != AccelStatus::FaultAborted) continue;
        ++aborted;
        if (resp.req_id == victim) {
          victim_aborted = true;
          EXPECT_EQ(resp.data, aes::Block{});
        }
      }
      EXPECT_TRUE(victim_aborted);
      const std::string where =
          "stage " + std::to_string(k) + " parity mismatch";
      bool reported = false;
      for (const auto& e : r.acc.events()) {
        if (e.kind == SecurityEventKind::FaultDetected &&
            e.detail.find(where) != std::string::npos)
          reported = true;
      }
      EXPECT_TRUE(reported);
      if (site == FaultSite::StageData) {
        EXPECT_EQ(aborted, 1u);
        EXPECT_TRUE(r.acc.roundKeys().valid(1));
      } else {
        // A tag fault voids the key binding: every block on the slot goes,
        // in flight and the queued one the arbiter picks that same cycle.
        EXPECT_EQ(aborted, depth + 1);
        EXPECT_FALSE(r.acc.roundKeys().valid(1));
      }
    }
  }
}

// The fast ring evaluates only occupied stages. With blocks accepted every
// other cycle each occupied stage sits beside empty ones; a fault there must
// still be squashed and reported under its own logical stage index.
TEST(FaultInjection, StageFaultBesideEmptyStageKeepsItsIndex) {
  const unsigned depth = Rig{}.acc.pipeline().depth();
  const auto fill = [depth](Rig& r) {
    for (unsigned i = 0; i < depth; ++i) {
      BlockRequest req;
      req.req_id = 2000 + i;
      req.user = r.alice;
      req.key_slot = 1;
      req.data[0] = static_cast<std::uint8_t>(i);
      EXPECT_TRUE(r.acc.submit(req));
      r.acc.run(2);  // accept, then a bubble
    }
  };
  for (const FaultSite site : {FaultSite::StageData, FaultSite::StageTag}) {
    unsigned hit = 0;
    for (unsigned k = 0; k < depth; ++k) {
      Rig r;
      fill(r);
      const AesPipeline& pipe = r.acc.pipeline();
      if (!pipe.stage(k).valid) continue;
      SCOPED_TRACE(toString(site) + " at stage " + std::to_string(k));
      ++hit;
      if (k > 0) {
        ASSERT_FALSE(pipe.stage(k - 1).valid);
      }
      if (k + 1 < depth) {
        ASSERT_FALSE(pipe.stage(k + 1).valid);
      }
      const std::uint64_t victim = pipe.stage(k).req_id;
      const unsigned before = pipe.validCount();
      ASSERT_TRUE(r.acc.injectFault(site, k, 9));
      r.acc.tick();
      // A data fault's abort record leaves behind alice's older blocks.
      if (site == FaultSite::StageData) r.acc.run(depth);

      std::vector<BlockResponse> out;
      r.acc.fetchOutputs(r.alice, out);
      unsigned aborted = 0;
      bool victim_aborted = false;
      for (const auto& resp : out) {
        if (resp.status != AccelStatus::FaultAborted) continue;
        ++aborted;
        if (resp.req_id == victim) victim_aborted = true;
      }
      EXPECT_TRUE(victim_aborted);
      const std::string where =
          "stage " + std::to_string(k) + " parity mismatch";
      unsigned reported = 0;
      for (const auto& e : r.acc.events()) {
        if (e.kind == SecurityEventKind::FaultDetected &&
            e.detail.find("parity mismatch") != std::string::npos) {
          ++reported;
          EXPECT_NE(e.detail.find(where), std::string::npos) << e.detail;
        }
      }
      EXPECT_EQ(reported, 1u);
      if (site == FaultSite::StageData) {
        EXPECT_EQ(aborted, 1u);
        EXPECT_TRUE(r.acc.roundKeys().valid(1));
      } else {
        // The key binding is void: every block on the slot is squashed.
        EXPECT_EQ(aborted, before);
        EXPECT_FALSE(r.acc.roundKeys().valid(1));
        EXPECT_FALSE(r.acc.pipeline().anyValid());
      }
    }
    EXPECT_EQ(hit, depth / 2);
  }
}

// Seeded traffic from an AES-128 and an AES-256 tenant in a 42-stage pipe,
// with stage data and tag faults and round-key faults mixed in. Tag and key
// faults zeroize a slot and squash its blocks mid-pipe. After every cycle
// the occupancy mask must mirror the stage registers, and no block may
// leave with a wrong ciphertext.
TEST(FaultInjection, OccupancyMaskTracksScrubSquashesAndZeroization) {
  AcceleratorConfig cfg;
  cfg.max_rounds = 14;
  AesAccelerator acc{cfg};
  acc.addUser(Principal::supervisor());
  struct Tenant {
    unsigned category;
    unsigned user;
    unsigned slot;
    unsigned cell_base;
    aes::KeySize size;
    std::vector<std::uint8_t> key;
  };
  Rng rng{1414};
  const auto randomKey = [&](aes::KeySize ks) {
    std::vector<std::uint8_t> k(aes::keyBytes(ks));
    for (auto& b : k) b = static_cast<std::uint8_t>(rng.next());
    return k;
  };
  Tenant tenants[] = {
      {1, acc.addUser(Principal::user("alice", 1)), 1, 0,
       aes::KeySize::Aes128, randomKey(aes::KeySize::Aes128)},
      {2, acc.addUser(Principal::user("bob", 2)), 2, 2, aes::KeySize::Aes256,
       randomKey(aes::KeySize::Aes256)},
  };
  const AesPipeline& pipe = acc.pipeline();
  ASSERT_EQ(pipe.depth(), 42u);

  std::map<std::uint64_t, aes::Block> expect;
  std::uint64_t next_id = 1;
  unsigned ok = 0, aborted = 0, reloads = 0;
  constexpr unsigned kCycles = 6000;  // ~140 trips of the head round the ring
  for (unsigned cycle = 0; cycle < kCycles; ++cycle) {
    for (const auto& t : tenants) {
      if (!acc.roundKeys().valid(t.slot)) {
        ASSERT_TRUE(loadKeyBytes(acc, t.user, t.slot, t.cell_base, t.key,
                                 t.size, Conf::category(t.category)));
        ++reloads;
      }
    }
    if (rng.chance(0.6)) {
      const Tenant& t = tenants[rng.below(2)];
      BlockRequest req;
      req.req_id = next_id++;
      req.user = t.user;
      req.key_slot = t.slot;
      req.decrypt = rng.chance(0.5);
      for (auto& b : req.data) b = static_cast<std::uint8_t>(rng.next());
      if (acc.submit(req)) {
        expect[req.req_id] =
            req.decrypt ? aes::decryptBlock(req.data, t.key.data(), t.size)
                        : aes::encryptBlock(req.data, t.key.data(), t.size);
      }
    }
    const auto r = rng.below(1000);
    const unsigned stage = static_cast<unsigned>(rng.below(pipe.depth()));
    if (r < 20) {
      acc.injectFault(FaultSite::StageData, stage,
                      static_cast<unsigned>(rng.below(128)));
    } else if (r < 30) {
      acc.injectFault(FaultSite::StageTag, stage,
                      static_cast<unsigned>(rng.below(32)));
    } else if (r < 36) {
      const Tenant& t = tenants[rng.below(2)];
      acc.injectFault(FaultSite::RoundKey, t.slot,
                      static_cast<unsigned>(rng.below(15 * 128)));
    }
    acc.tick();

    unsigned count = 0;
    Conf meet = Conf::top();
    for (unsigned i = 0; i < pipe.depth(); ++i) {
      const StageSlot& s = pipe.stage(i);
      ASSERT_EQ((pipe.occupancy() >> i & 1) != 0, s.valid)
          << "cycle " << cycle << " stage " << i;
      if (s.valid) {
        ++count;
        meet = meet.meet(s.tag.c);
      }
    }
    ASSERT_EQ(pipe.validCount(), count) << "cycle " << cycle;
    ASSERT_EQ(pipe.anyValid(), count > 0) << "cycle " << cycle;
    ASSERT_EQ(pipe.meetConf(), meet) << "cycle " << cycle;

    for (const auto& t : tenants) {
      std::vector<BlockResponse> out;
      acc.fetchOutputs(t.user, out);
      for (const auto& resp : out) {
        if (resp.status == AccelStatus::FaultAborted) {
          ++aborted;
          continue;
        }
        ASSERT_NE(resp.status, AccelStatus::Suppressed);
        EXPECT_EQ(resp.data, expect.at(resp.req_id)) << "req " << resp.req_id;
        ++ok;
      }
    }
  }
  EXPECT_GT(ok, kCycles / 4);
  EXPECT_GT(aborted, 0u);
  EXPECT_GT(reloads, 2u);
}

TEST(FaultInjection, RoundKeyFaultNeverDeliversWrongCiphertext) {
  Rig r;
  BlockRequest req;
  req.req_id = 11;
  req.user = r.alice;
  req.key_slot = 1;
  for (auto& b : req.data) b = 0x33;
  ASSERT_TRUE(r.acc.submit(req));
  r.acc.run(2);
  // Corrupt a late round key while the block is in flight: the block will
  // finish its rounds against the corrupted schedule unless the exit guard
  // or the slow scrub ring catches the slot first.
  ASSERT_TRUE(r.acc.injectFault(FaultSite::RoundKey, 1, 9 * 128 + 3 * 8 + 2));
  std::optional<BlockResponse> resp;
  for (unsigned i = 0; i < 80 && !resp; ++i) {
    r.acc.tick();
    resp = r.acc.fetchOutput(r.alice);
  }
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, AccelStatus::FaultAborted)
      << "corrupted-key ciphertext escaped";
  EXPECT_FALSE(r.acc.roundKeys().valid(1));
  EXPECT_GE(r.acc.stats().faults_detected, 1u);
}

TEST(FaultInjection, ConfigRegFaultRestoredToPowerOnDefault) {
  Rig r;
  const std::uint32_t def = r.acc.readConfig("version");
  // Register index 3 in the sorted name table is "version".
  ASSERT_TRUE(r.acc.injectFault(FaultSite::ConfigReg, 3, 12));
  EXPECT_NE(r.acc.readConfig("version"), def);
  r.acc.run(40);  // slow ring period is well under 40 cycles
  EXPECT_EQ(r.acc.readConfig("version"), def);
  EXPECT_GE(r.acc.stats().faults_detected, 1u);
  EXPECT_GE(r.acc.stats().faults_recovered, 1u);
}

TEST(FaultInjection, EventLogIsARingBufferWithExactCounts) {
  AcceleratorConfig cfg;
  cfg.event_log_cap = 4;
  Rig r{cfg};
  // Cell 7 was never provisioned for alice: every write is refused and
  // logged.
  for (unsigned i = 0; i < 10; ++i) {
    EXPECT_FALSE(r.acc.writeKeyCell(r.alice, 7, i));
  }
  EXPECT_LE(r.acc.events().size(), 4u);
  EXPECT_GE(r.acc.eventsOverflowed(), 6u);
  // Per-kind counters survive eviction.
  EXPECT_EQ(r.acc.eventCount(SecurityEventKind::ScratchpadWriteBlocked), 10u);
}

TEST(FaultInjection, UnhardenedDesignLetsDataFaultsEscape) {
  AcceleratorConfig cfg;
  cfg.fault_hardening = false;
  Rig r{cfg};
  aes::Block pt{};
  for (auto& b : pt) b = 0x44;
  BlockRequest req;
  req.req_id = 3;
  req.user = r.alice;
  req.key_slot = 1;
  req.data = pt;
  ASSERT_TRUE(r.acc.submit(req));
  r.acc.run(3);
  int stage = -1;
  for (unsigned i = 0; i < r.acc.pipeline().depth(); ++i) {
    if (r.acc.pipeline().stage(i).valid) stage = static_cast<int>(i);
  }
  ASSERT_GE(stage, 0);
  ASSERT_TRUE(r.acc.injectFault(FaultSite::StageData,
                                static_cast<unsigned>(stage), 50));
  std::optional<BlockResponse> resp;
  for (unsigned i = 0; i < 80 && !resp; ++i) {
    r.acc.tick();
    resp = r.acc.fetchOutput(r.alice);
  }
  ASSERT_TRUE(resp.has_value());
  // The ablation: without parity the upset sails through undetected and the
  // device emits wrong ciphertext as if nothing happened.
  EXPECT_NE(resp->status, AccelStatus::FaultAborted);
  const auto golden =
      aes::encryptBlock(pt, aes::expandKey(testKey(), aes::KeySize::Aes128));
  EXPECT_NE(resp->data, golden);
  EXPECT_EQ(r.acc.stats().faults_detected, 0u);
}

// IR-level model of the fail-secure gate, checked with the dynamic label
// tracker: the output mux releases stage data onto the (public) response
// port only when the parity comparator agrees; on mismatch the squash path
// drives zeros. Precise tracking shows the secret never reaches the port.
TEST(FaultInjection, TrackerShowsParityGateKeepsSecretOffPublicPort) {
  using hdl::LabelTerm;
  using hdl::Module;
  const Label kPT = Label::publicTrusted();
  const Label kSecret{Conf::top(), Integ::top()};

  Module m{"failsec_gate"};
  const auto parity_ok = m.input("parity_ok", 1, LabelTerm::of(kPT));
  const auto data = m.input("data", 8, LabelTerm::unconstrained());
  const auto squashed = m.input("squashed", 8, LabelTerm::of(kPT));
  const auto port = m.output("port", 8, LabelTerm::of(kPT));
  m.assign(port, m.mux(m.read(parity_ok), m.read(data), m.read(squashed)));

  ifc::DynamicTracker fail{m, ifc::TrackPrecision::Precise};
  fail.poke("parity_ok", BitVec(1, 0), kPT);  // comparator detected an upset
  fail.poke("data", BitVec(8, 0xAB), kSecret);
  fail.poke("squashed", BitVec(8, 0), kPT);
  fail.step();
  EXPECT_EQ(fail.eventCount(ifc::RuntimeEvent::Kind::OutputLeak), 0u);
  EXPECT_EQ(fail.value("port").toU64(), 0u);

  ifc::DynamicTracker leak{m, ifc::TrackPrecision::Precise};
  leak.poke("parity_ok", BitVec(1, 1), kPT);  // gate bypassed: secret flows
  leak.poke("data", BitVec(8, 0xAB), kSecret);
  leak.poke("squashed", BitVec(8, 0), kPT);
  leak.step();
  EXPECT_GE(leak.eventCount(ifc::RuntimeEvent::Kind::OutputLeak), 1u);
}

// --- Replay traces ----------------------------------------------------------

// The trace text form round-trips losslessly.
TEST(FaultReplay, TraceSerializationRoundTrips) {
  std::vector<soc::FaultRecord> recs;
  soc::FaultRecord a;
  a.cycle = 17;
  a.site = FaultSite::StageTag;
  a.index = 3;
  a.bit = 21;
  a.applied = true;
  soc::FaultRecord b;
  b.cycle = 404;
  b.site = FaultSite::HostSpuriousSubmit;
  b.index = 2;
  b.bit = 9;  // key_slot 4, decrypt
  b.applied = false;
  recs.push_back(a);
  recs.push_back(b);

  const auto parsed = soc::parseTrace(soc::traceToString(recs));
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].cycle, 17u);
  EXPECT_EQ(parsed[0].site, FaultSite::StageTag);
  EXPECT_EQ(parsed[0].index, 3u);
  EXPECT_EQ(parsed[0].bit, 21u);
  EXPECT_TRUE(parsed[0].applied);
  EXPECT_EQ(parsed[1].site, FaultSite::HostSpuriousSubmit);
  EXPECT_FALSE(parsed[1].applied);

  EXPECT_THROW(soc::parseTrace("12 not-a-site 0 0 1"), std::invalid_argument);
  EXPECT_THROW(soc::parseTrace("garbage"), std::invalid_argument);
}

// A recorded campaign replays exactly: same workload + replayed trace give
// the same device-side fault counters and the same per-site application
// profile — which is what makes a failing seed debuggable.
TEST(FaultReplay, ReplayedCampaignReproducesRecordedRun) {
  auto runOnce = [](soc::FaultInjector* (*mk)(AesAccelerator&,
                                              std::vector<unsigned>,
                                              const std::string&),
                    const std::string& trace_text, std::string* trace_out,
                    AesAccelerator::Stats* stats_out,
                    soc::FaultCampaignReport* report_out) {
    AcceleratorConfig cfg;
    cfg.out_buffer_depth = 16;
    AesAccelerator acc{cfg};
    acc.addUser(Principal::supervisor());
    const unsigned alice = acc.addUser(Principal::user("alice", 1));
    EXPECT_TRUE(loadKey128(acc, alice, 1, 0, testKey(), Conf::category(1)));

    soc::FaultInjector* inj = mk(acc, {alice}, trace_text);
    acc.setTickHook([&] { inj->tick(); });

    SessionOptions opts;
    opts.timeout_cycles = 600;
    opts.max_retries = 2;
    opts.backoff_cycles = 8;
    AccelSession session{acc, alice, 1, opts};
    for (unsigned i = 0; i < 24; ++i) {
      aes::Block pt;
      for (unsigned b = 0; b < 16; ++b)
        pt[b] = static_cast<std::uint8_t>(i + b);
      const auto r = session.encryptBlock(pt);
      if (!r.has_value() && r.status() == AccelStatus::Rejected) {
        // Fail-secure zeroization: re-provision, as a resilient host would.
        loadKey128(acc, alice, 1, 0, testKey(), Conf::category(1));
      }
    }
    acc.setTickHook(nullptr);
    inj->releaseStuckReceivers();
    *trace_out = soc::traceToString(inj->trace());
    *stats_out = acc.stats();
    *report_out = inj->report();
    delete inj;
  };

  // Record with a live (seeded-RNG) campaign…
  std::string trace_a;
  AesAccelerator::Stats stats_a;
  soc::FaultCampaignReport report_a;
  runOnce(
      [](AesAccelerator& acc, std::vector<unsigned> users,
         const std::string&) {
        soc::FaultCampaignConfig fcfg;
        fcfg.seed = 321;
        fcfg.fault_rate = 0.02;
        return new soc::FaultInjector{acc, fcfg, std::move(users)};
      },
      "", &trace_a, &stats_a, &report_a);
  ASSERT_GT(report_a.injected, 0u);

  // …then replay the dumped trace against a fresh rig and the same traffic.
  std::string trace_b;
  AesAccelerator::Stats stats_b;
  soc::FaultCampaignReport report_b;
  runOnce(
      [](AesAccelerator& acc, std::vector<unsigned> users,
         const std::string& text) {
        soc::FaultCampaignConfig fcfg;
        return new soc::FaultInjector{acc, fcfg, std::move(users),
                                      soc::parseTrace(text)};
      },
      trace_a, &trace_b, &stats_b, &report_b);

  EXPECT_EQ(report_b.injected, report_a.injected);
  EXPECT_EQ(report_b.applied, report_a.applied);
  EXPECT_EQ(report_b.host_drops, report_a.host_drops);
  EXPECT_EQ(report_b.host_duplicates, report_a.host_duplicates);
  EXPECT_EQ(report_b.host_stuck, report_a.host_stuck);
  EXPECT_EQ(report_b.host_spurious, report_a.host_spurious);
  for (unsigned s = 0; s < kHwFaultSites; ++s) {
    EXPECT_EQ(report_b.applied_by_site[s], report_a.applied_by_site[s])
        << toString(static_cast<FaultSite>(s));
    EXPECT_EQ(report_b.detected_by_site[s], report_a.detected_by_site[s])
        << toString(static_cast<FaultSite>(s));
  }
  EXPECT_EQ(stats_b.faults_detected, stats_a.faults_detected);
  EXPECT_EQ(stats_b.fault_aborted, stats_a.fault_aborted);
  EXPECT_EQ(stats_b.completed, stats_a.completed);
  // The replay emitted the identical trace.
  EXPECT_EQ(trace_b, trace_a);
}


// An unhardened device releases whatever its registers hold, so under a
// seeded fault campaign each flipped stage-data or round-key bit shows up
// in the responses of the blocks it landed on. AES-128 and AES-256 tenants
// share a 42-stage pipe in both directions, with GCM seals mixed in. The
// digest covers every response (status, data, completion cycle), every
// logged event kind and the final cycle, so it moves if any flip lands on
// a different block, round or cycle.
TEST(FaultInjection, UnhardenedTraceDigestIsPinned) {
  AcceleratorConfig cfg;
  cfg.max_rounds = 14;
  cfg.fault_hardening = false;
  AesAccelerator acc{cfg};
  acc.addUser(Principal::supervisor());
  const unsigned alice = acc.addUser(Principal::user("alice", 1));
  const unsigned bob = acc.addUser(Principal::user("bob", 2));
  Rng rng{0xd16e57};
  const auto randomBytes = [&](std::size_t n) {
    std::vector<std::uint8_t> v(n);
    for (auto& b : v) b = static_cast<std::uint8_t>(rng.next());
    return v;
  };
  const auto k128 = randomBytes(16);
  const auto k256 = randomBytes(32);
  ASSERT_TRUE(loadKeyBytes(acc, alice, 1, 0, k128, aes::KeySize::Aes128,
                           Conf::category(1)));
  ASSERT_TRUE(loadKeyBytes(acc, bob, 2, 2, k256, aes::KeySize::Aes256,
                           Conf::category(2)));
  const aes::ExpandedKey golden[] = {
      aes::expandKey(k128, aes::KeySize::Aes128),
      aes::expandKey(k256, aes::KeySize::Aes256)};

  soc::FaultCampaignConfig fc;
  fc.seed = 0xf11b;
  fc.fault_rate = 0.05;
  fc.stuck_cycles = 24;
  soc::FaultInjector inj{acc, fc, {alice, bob}};
  acc.setTickHook([&] { inj.tick(); });

  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto hashU64 = [&](std::uint64_t v) {
    for (unsigned i = 0; i < 8; ++i)
      h = (h ^ static_cast<std::uint8_t>(v >> (8 * i))) * 0x100000001b3ULL;
  };
  const auto hashBytes = [&](std::span<const std::uint8_t> v) {
    for (const auto b : v) h = (h ^ b) * 0x100000001b3ULL;
  };

  std::map<std::uint64_t, aes::Block> expect;
  std::uint64_t next_id = 1;
  unsigned ok = 0, wrong = 0, gcm_ok = 0;
  for (unsigned cycle = 0; cycle < 4000; ++cycle) {
    for (unsigned t = 0; t < 2; ++t) {
      const unsigned user = t == 0 ? alice : bob;
      if (acc.pendingInputs(user) >= 2 || !rng.chance(0.45)) continue;
      BlockRequest req{next_id++, user, 1 + t, rng.chance(0.4), {}};
      const auto data = randomBytes(16);
      std::copy(data.begin(), data.end(), req.data.begin());
      expect[req.req_id] = req.decrypt ? aes::decryptBlock(req.data, golden[t])
                                       : aes::encryptBlock(req.data, golden[t]);
      acc.submit(req);
    }
    if (cycle % 61 == 0) {
      GcmRequest g;
      g.req_id = next_id++;
      g.user = alice;
      g.key_slot = 1;
      g.iv = randomBytes(12);
      g.aad = randomBytes(rng.below(24));
      g.data = randomBytes(1 + rng.below(64));
      acc.submitGcm(std::move(g));
    }
    acc.tick();
    for (const unsigned user : {alice, bob}) {
      while (const auto r = acc.fetchOutput(user)) {
        hashU64(r->req_id);
        hashU64(static_cast<std::uint64_t>(r->status));
        hashBytes(r->data);
        hashU64(r->complete_cycle);
        if (r->status != AccelStatus::Ok) continue;
        ++ok;
        const auto it = expect.find(r->req_id);
        if (it != expect.end() && it->second != r->data) ++wrong;
      }
      while (const auto g = acc.fetchGcm(user)) {
        hashU64(g->req_id);
        hashU64(static_cast<std::uint64_t>(g->status));
        hashBytes(g->data);
        hashBytes(g->tag);
        hashU64(g->complete_cycle);
        if (g->status == AccelStatus::Ok) ++gcm_ok;
      }
    }
  }
  acc.setTickHook(nullptr);
  for (const auto& e : acc.events()) hashU64(static_cast<std::uint64_t>(e.kind));
  hashU64(acc.cycle());

  EXPECT_GT(inj.injected(), 100u);
  EXPECT_GT(ok, 1000u);
  EXPECT_GT(wrong, 0u);  // the flips are visible in what the device released
  EXPECT_GT(gcm_ok, 0u);
  EXPECT_EQ(h, 0xb154447b87e11dccULL) << std::hex << h;
}

}  // namespace
}  // namespace aesifc::accel
