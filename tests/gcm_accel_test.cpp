// On-device AEAD coverage: the tagged GHASH unit + GCM sequencer against
// the SP 800-38D vectors and the host oracle, the label-enforcement story
// (a digest never leaves below join(label(H), label(data))), tamper
// verdicts, completion-timing invariance of the open path, fail-secure
// behavior under GHASH-state faults, typed submit refusals, and the
// service/pool AEAD routing with a round's ops overlapped on the sequencer.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "accel/driver.h"
#include "accel/ghash_unit.h"
#include "aes/gcm.h"
#include "common/rng.h"
#include "soc/pool.h"
#include "soc/service.h"

namespace aesifc::accel {
namespace {

using lattice::Conf;
using lattice::Integ;
using lattice::Label;
using lattice::Principal;

std::vector<std::uint8_t> hexBytes(const std::string& hex) {
  std::vector<std::uint8_t> v(hex.size() / 2);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<std::uint8_t>(
        std::stoul(hex.substr(2 * i, 2), nullptr, 16));
  }
  return v;
}

aes::Tag128 tagOf(const std::string& hex) {
  aes::Tag128 t{};
  const auto b = hexBytes(hex);
  std::copy(b.begin(), b.end(), t.begin());
  return t;
}

std::vector<std::uint8_t> randomBytes(Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.next());
  return v;
}

// Accelerator + one provisioned session, the way every test here starts.
struct GcmRig {
  AesAccelerator acc;
  unsigned user;
  AccelSession session;
  aes::ExpandedKey golden;

  GcmRig(SecurityMode mode, const std::vector<std::uint8_t>& key,
         SessionOptions opts = {})
      : acc{[&] {
          AcceleratorConfig c;
          c.mode = mode;
          return c;
        }()},
        user{acc.addUser(Principal::user("alice", 1))},
        session{acc, user, 1, opts},
        golden{aes::expandKey(key, aes::KeySize::Aes128)} {
    EXPECT_TRUE(loadKey128(acc, user, 1, 0, key, Conf::category(1)));
  }
};

struct GcmAccelFixture : ::testing::TestWithParam<SecurityMode> {};

// --- SP 800-38D vectors, end to end on the device --------------------------------

struct NistCase {
  const char* key;
  const char* iv;
  const char* pt;
  const char* aad;
  const char* ct;
  const char* tag;
};

const NistCase kNistCases[] = {
    // Case 1: empty everything.
    {"00000000000000000000000000000000", "000000000000000000000000", "", "",
     "", "58e2fccefa7e3061367f1d57a4e7455a"},
    // Case 2: one zero block.
    {"00000000000000000000000000000000", "000000000000000000000000",
     "00000000000000000000000000000000", "",
     "0388dace60b6a392f328c2b971b2fe78", "ab6e47d42cec13bdf53a67b21257bddf"},
    // Case 3: four blocks, no AAD.
    {"feffe9928665731c6d6a8f9467308308", "cafebabefacedbaddecaf888",
     "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
     "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
     "",
     "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
     "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985",
     "4d5c2af327cd64a62cf35abd2ba6fab4"},
    // Case 4: partial final block + AAD.
    {"feffe9928665731c6d6a8f9467308308", "cafebabefacedbaddecaf888",
     "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
     "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
     "feedfacedeadbeeffeedfacedeadbeefabaddad2",
     "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
     "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091",
     "5bc94fbc3221a5db94fae95ae7121a47"},
    // Case 5: 64-bit IV (GHASH-derived J0).
    {"feffe9928665731c6d6a8f9467308308", "cafebabefacedbad",
     "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
     "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
     "feedfacedeadbeeffeedfacedeadbeefabaddad2",
     "61353b4c2806934a777ff51fa22a4755699b2a714fcdc6f83766e5f97b6c7423"
     "73806900e49f24b22b097544d4896b424989b5e1ebac0f07c23f4598",
     "3612d2e79e3b0785561be14aaca2fccb"},
    // Case 6: 480-bit IV (multi-block J0 derivation).
    {"feffe9928665731c6d6a8f9467308308",
     "9313225df88406e555909c5aff5269aa6a7a9538534f7da1e4c303d2a318a728"
     "c3c0c95156809539fcf0e2429a6b525416aedbf5a0de6a57a637b39b",
     "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
     "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
     "feedfacedeadbeeffeedfacedeadbeefabaddad2",
     "8ce24998625615b603a033aca13fb894be9112a5c3a211a8ba262a3cca7e2ca7"
     "01e4a9a4fba43c90ccdcb281d48c7c6fd62875d2aca417034c34aee5",
     "619cc5aefffe0bfa462af43c1699d050"},
};

TEST_P(GcmAccelFixture, NistVectorsBitIdenticalToHostAndStandard) {
  for (const auto& c : kNistCases) {
    const auto key = hexBytes(c.key);
    const auto iv = hexBytes(c.iv);
    const auto pt = hexBytes(c.pt);
    const auto aad = hexBytes(c.aad);
    GcmRig rig{GetParam(), key};

    const auto sealed = rig.session.gcmSeal(pt, aad, iv);
    ASSERT_TRUE(sealed.has_value()) << toString(sealed.status());
    EXPECT_EQ(sealed->ciphertext, hexBytes(c.ct));
    EXPECT_EQ(sealed->tag, tagOf(c.tag));
    // Bit-identical to the host software path, not just to the constants.
    const auto host = aes::gcmEncrypt(pt, aad, rig.golden, iv);
    EXPECT_EQ(sealed->ciphertext, host.ciphertext);
    EXPECT_EQ(sealed->tag, host.tag);

    const auto opened =
        rig.session.gcmOpen(sealed->ciphertext, aad, sealed->tag, iv);
    ASSERT_TRUE(opened.has_value()) << toString(opened.status());
    EXPECT_EQ(*opened, pt);
  }
}

TEST_P(GcmAccelFixture, DeviceMatchesHostAcrossLengths) {
  // Sweeps the lane-interleave edge cases: fewer blocks than lanes, exactly
  // the lane count, multiples, partial final blocks, and AAD mixes.
  Rng rng{101};
  const auto key = randomBytes(rng, 16);
  GcmRig rig{GetParam(), key};
  const auto iv = randomBytes(rng, 12);
  const std::size_t pt_lens[] = {0, 1, 15, 16, 17, 33, 48, 64, 65, 113, 160};
  unsigned i = 0;
  for (const std::size_t n : pt_lens) {
    const auto pt = randomBytes(rng, n);
    const auto aad = randomBytes(rng, (i++ % 3) * 13);
    const auto sealed = rig.session.gcmSeal(pt, aad, iv);
    ASSERT_TRUE(sealed.has_value()) << "len=" << n;
    const auto host = aes::gcmEncrypt(pt, aad, rig.golden, iv);
    EXPECT_EQ(sealed->ciphertext, host.ciphertext) << "len=" << n;
    EXPECT_EQ(sealed->tag, host.tag) << "len=" << n;
    const auto opened =
        rig.session.gcmOpen(sealed->ciphertext, aad, sealed->tag, iv);
    ASSERT_TRUE(opened.has_value()) << "len=" << n;
    EXPECT_EQ(*opened, pt) << "len=" << n;
  }
  EXPECT_EQ(rig.acc.stats().gcm_ops, 2u * std::size(pt_lens));
  EXPECT_EQ(rig.acc.stats().gcm_ok, 2u * std::size(pt_lens));
}

TEST_P(GcmAccelFixture, AadOnlyMessage) {
  // Pure authentication: empty plaintext, AAD through the GHASH unit only.
  Rng rng{102};
  const auto key = randomBytes(rng, 16);
  GcmRig rig{GetParam(), key};
  const auto iv = randomBytes(rng, 12);
  const auto aad = randomBytes(rng, 37);
  const auto sealed = rig.session.gcmSeal({}, aad, iv);
  ASSERT_TRUE(sealed.has_value());
  EXPECT_TRUE(sealed->ciphertext.empty());
  EXPECT_EQ(sealed->tag, aes::gcmEncrypt({}, aad, rig.golden, iv).tag);
  const auto opened = rig.session.gcmOpen({}, aad, sealed->tag, iv);
  ASSERT_TRUE(opened.has_value());
  EXPECT_TRUE(opened->empty());
  // And the same tag does not authenticate different AAD.
  auto bad = aad;
  bad[0] ^= 1;
  EXPECT_EQ(rig.session.gcmOpen({}, bad, sealed->tag, iv).status(),
            AccelStatus::AuthFailed);
}

TEST_P(GcmAccelFixture, TamperedInputsGetAuthFailedVerdict) {
  Rng rng{103};
  const auto key = randomBytes(rng, 16);
  GcmRig rig{GetParam(), key};
  const auto iv = randomBytes(rng, 12);
  const auto pt = randomBytes(rng, 50);
  const auto aad = randomBytes(rng, 11);
  const auto sealed = rig.session.gcmSeal(pt, aad, iv);
  ASSERT_TRUE(sealed.has_value());

  auto bad_ct = sealed->ciphertext;
  bad_ct[17] ^= 0x40;
  EXPECT_EQ(rig.session.gcmOpen(bad_ct, aad, sealed->tag, iv).status(),
            AccelStatus::AuthFailed);
  auto bad_tag = sealed->tag;
  bad_tag[15] ^= 0x01;
  EXPECT_EQ(
      rig.session.gcmOpen(sealed->ciphertext, aad, bad_tag, iv).status(),
      AccelStatus::AuthFailed);
  auto bad_aad = aad;
  bad_aad[0] ^= 0x80;
  EXPECT_EQ(
      rig.session.gcmOpen(sealed->ciphertext, bad_aad, sealed->tag, iv)
          .status(),
      AccelStatus::AuthFailed);

  // A tag mismatch is an operation verdict, not device health: it counts in
  // operations() but never in the transient-failure (error-budget) rate.
  const auto& t = rig.session.telemetry();
  EXPECT_EQ(t.auth_failed, 3u);
  EXPECT_EQ(t.transientFailures(), 0u);
  EXPECT_EQ(rig.acc.stats().gcm_auth_failed, 3u);
}

INSTANTIATE_TEST_SUITE_P(BothModes, GcmAccelFixture,
                         ::testing::Values(SecurityMode::Baseline,
                                           SecurityMode::Protected));

// --- Label enforcement -----------------------------------------------------------

TEST(GcmAccelIfc, SealSuppressedForUnauthorizedUser) {
  // Eve drives AEAD against the supervisor's top-labeled key: the whole op
  // completes internally, but the single declassification point at op
  // release refuses, so neither ciphertext nor tag ever leaves the device.
  AcceleratorConfig cfg;
  cfg.mode = SecurityMode::Protected;
  AesAccelerator acc{cfg};
  const unsigned sup = acc.addUser(Principal::supervisor());
  const unsigned eve = acc.addUser(Principal::user("eve", 2));
  Rng rng{104};
  ASSERT_TRUE(loadKey128(acc, sup, 0, 6, randomBytes(rng, 16), Conf::top()));

  AccelSession s{acc, eve, 0};
  const auto sealed =
      s.gcmSeal(randomBytes(rng, 32), {}, randomBytes(rng, 12));
  EXPECT_FALSE(sealed.has_value());
  EXPECT_EQ(sealed.status(), AccelStatus::Suppressed);
  EXPECT_GE(acc.stats().gcm_suppressed, 1u);
  EXPECT_EQ(acc.stats().gcm_ok, 0u);
}

TEST(GcmAccelIfc, GhashUnitRefusesReleaseBelowJoin) {
  // Direct unit check of the release rule: a digest whose stream label
  // joined a top-confidentiality H cannot be released to a principal whose
  // authority does not cover it — independent of the sequencer above.
  GhashUnit gh{true};
  Rng rng{105};
  aes::Tag128 h{};
  for (auto& b : h) b = static_cast<std::uint8_t>(rng.next());
  std::uint64_t now = 0;
  gh.loadH(1, h, Label{Conf::top(), Integ::top()}, now);
  while (!gh.keyReady(1, now)) ++now;

  const auto sid =
      gh.openStream(0, 1, 1, Label{Conf::category(2), Integ::top()});
  ASSERT_TRUE(sid.has_value());
  aes::Tag128 block{};
  for (auto& b : block) b = static_cast<std::uint8_t>(rng.next());
  ASSERT_TRUE(gh.absorb(*sid, block, Label{Conf::category(2), Integ::top()}));
  while (!gh.done(*sid)) {
    gh.tick(now);
    ++now;
  }

  const auto refused = gh.release(*sid, Principal::user("eve", 2));
  EXPECT_EQ(refused.status, GhashUnit::ReleaseStatus::Refused);
  EXPECT_EQ(refused.digest, aes::Tag128{});  // nothing leaks on refusal

  // The supervisor's authority covers the join; the released digest matches
  // the host GHASH of the same single block.
  const auto ok = gh.release(*sid, Principal::supervisor());
  ASSERT_EQ(ok.status, GhashUnit::ReleaseStatus::Ok);
  std::vector<std::uint8_t> data(block.begin(), block.end());
  EXPECT_EQ(ok.digest, aes::ghash(h, data));
}

// Once every stream has closed, the unit holds nothing: a tick and a fast
// scrub must leave every stage register in its reset state and issue
// nothing. A stream opened afterwards still hashes exactly like the host.
TEST(GcmAccelIfc, GhashTickIsANoOpOnceEveryStreamCloses) {
  GhashUnit gh{true};
  Rng rng{106};
  aes::Tag128 h{};
  for (auto& b : h) b = static_cast<std::uint8_t>(rng.next());
  const Label label{Conf::category(2), Integ::top()};
  std::uint64_t now = 0;
  gh.loadH(1, h, label, now);
  while (!gh.keyReady(1, now)) ++now;

  const auto hashStream = [&](unsigned blocks) {
    const auto data = randomBytes(rng, 16 * blocks);
    const auto sid = gh.openStream(0, 1, blocks, label);
    ASSERT_TRUE(sid.has_value());
    unsigned next = 0;
    for (unsigned cycles = 0; !gh.done(*sid); ++cycles) {
      ASSERT_LT(cycles, 16 * blocks) << "stream stalled";
      while (next < blocks && gh.fifoSpace(*sid) > 0) {
        aes::Tag128 block{};
        std::copy_n(data.begin() + 16 * next, 16, block.begin());
        EXPECT_TRUE(gh.absorb(*sid, block, label));
        ++next;
      }
      EXPECT_TRUE(gh.scrubFast().empty());
      EXPECT_TRUE(gh.tick(now++).empty());
    }
    EXPECT_EQ(gh.digestInternal(*sid), aes::ghash(h, data));
    gh.closeStream(*sid);
  };

  hashStream(13);
  ASSERT_EQ(gh.activeStreams(), 0u);
  const std::uint64_t processed = gh.blocksProcessed();
  for (unsigned i = 0; i < 3 * kGhashStages; ++i) {
    EXPECT_TRUE(gh.scrubFast().empty());
    EXPECT_TRUE(gh.tick(now++).empty());
    for (unsigned st = 0; st < kGhashStages; ++st) {
      const GhashStageSlot& s = gh.stage(st);
      EXPECT_FALSE(s.valid);
      EXPECT_EQ(s.stream, 0u);
      EXPECT_EQ(s.lane, 0u);
      EXPECT_EQ(s.key_slot, 0u);
      EXPECT_EQ(s.power, 0u);
      EXPECT_EQ(s.x, aes::Tag128{});
      EXPECT_EQ(s.z, aes::Tag128{});
      EXPECT_EQ(s.tag, Label{});
      EXPECT_FALSE(s.data_parity);
      EXPECT_FALSE(s.tag_parity);
    }
  }
  EXPECT_EQ(gh.blocksProcessed(), processed);
  hashStream(6);
  EXPECT_EQ(gh.blocksProcessed(), processed + 6);
}

// --- Timing ----------------------------------------------------------------------

TEST(GcmAccelTiming, OpenCompletionInvariantToTagValidity) {
  // The open path must not finish earlier (or later) when the tag check
  // fails: the verdict is computed after the identical full pipeline walk,
  // and the comparison itself is constant-time. Two identical rigs run the
  // same open — one with the valid tag, one tampered — and must land on the
  // same device cycle.
  Rng rng{106};
  const auto key = randomBytes(rng, 16);
  const auto iv = randomBytes(rng, 12);
  const auto pt = randomBytes(rng, 64);
  const auto aad = randomBytes(rng, 16);

  GcmRig a{SecurityMode::Protected, key};
  const auto sealed = a.session.gcmSeal(pt, aad, iv);
  ASSERT_TRUE(sealed.has_value());

  GcmRig valid{SecurityMode::Protected, key};
  GcmRig tampered{SecurityMode::Protected, key};
  ASSERT_EQ(valid.acc.cycle(), tampered.acc.cycle());

  const auto r1 =
      valid.session.gcmOpen(sealed->ciphertext, aad, sealed->tag, iv);
  auto bad_tag = sealed->tag;
  bad_tag[3] ^= 0x10;
  const auto r2 =
      tampered.session.gcmOpen(sealed->ciphertext, aad, bad_tag, iv);
  ASSERT_TRUE(r1.has_value());
  ASSERT_EQ(r2.status(), AccelStatus::AuthFailed);
  EXPECT_EQ(valid.acc.cycle(), tampered.acc.cycle());
  EXPECT_EQ(valid.session.cyclesUsed(), tampered.session.cyclesUsed());
}

// --- Fail-secure under GHASH faults ----------------------------------------------

TEST(GcmAccelFaults, GhashStateFaultsNeverReleaseWrongTag) {
  // Seeded campaign: flip one bit of live GHASH state (stage registers,
  // lane accumulators, stage tags, H tables) mid-operation. The op must
  // either fault-abort (nothing released) or — when the flip lands on state
  // the op never touches — still produce the exact host ciphertext+tag.
  // A wrong tag released as valid is the one unacceptable outcome.
  Rng rng{107};
  const auto key = randomBytes(rng, 16);
  const auto iv = randomBytes(rng, 12);
  const auto pt = randomBytes(rng, 80);
  const auto aad = randomBytes(rng, 20);
  const auto host = aes::gcmEncrypt(
      pt, aad, aes::expandKey(key, aes::KeySize::Aes128), iv);

  unsigned aborted = 0;
  for (unsigned seed = 0; seed < 24; ++seed) {
    Rng frng{1000 + seed};
    GcmRig rig{SecurityMode::Protected, key};
    const FaultSite sites[] = {FaultSite::GhashStage, FaultSite::GhashAcc,
                               FaultSite::GhashStageTag,
                               FaultSite::GhashKeyTable};
    const FaultSite site = sites[frng.below(4)];
    unsigned index = 0, bit = 0;
    switch (site) {
      case FaultSite::GhashStage:
        index = static_cast<unsigned>(frng.below(kGhashStages));
        bit = static_cast<unsigned>(frng.below(256));
        break;
      case FaultSite::GhashStageTag:
        index = static_cast<unsigned>(frng.below(kGhashStages));
        bit = static_cast<unsigned>(frng.below(32));
        break;
      case FaultSite::GhashAcc:
        index = static_cast<unsigned>(frng.below(kGhashStreams));
        bit = static_cast<unsigned>(frng.below(128 * kGhashLanes));
        break;
      default:
        index = 1;  // the rig's provisioned slot
        bit = static_cast<unsigned>(frng.below(kGhashLanes * 16 * 128));
        break;
    }
    // Land the flip mid-operation, while GHASH state is live.
    const std::uint64_t at =
        rig.acc.cycle() + 40 + static_cast<std::uint64_t>(frng.below(60));
    bool armed = true;
    rig.acc.setTickHook([&] {
      if (armed && rig.acc.cycle() >= at) {
        armed = false;
        rig.acc.injectFault(site, index, bit);
      }
    });
    const auto sealed = rig.session.gcmSeal(pt, aad, iv);
    if (sealed.has_value()) {
      EXPECT_EQ(sealed->ciphertext, host.ciphertext) << "seed=" << seed;
      EXPECT_EQ(sealed->tag, host.tag) << "seed=" << seed;
    } else {
      ++aborted;
      EXPECT_TRUE(sealed.status() == AccelStatus::FaultAborted ||
                  sealed.status() == AccelStatus::Rejected ||
                  sealed.status() == AccelStatus::Timeout)
          << "seed=" << seed << " status=" << toString(sealed.status());
    }
  }
  // The campaign must actually exercise the fail-secure path, not always
  // miss the live state.
  EXPECT_GT(aborted, 0u);
}

// The H-table checksum folds the power tables 8 bytes per step. The fold
// is linear and every step a bijection, so each single flipped bit, in any
// H-power table or in the key's label, must be caught both by the slow
// scrub ring and at the next issue that consults the slot.
TEST(GcmAccelFaults, GhashKeyChecksumCatchesEverySingleBitFlip) {
  Rng rng{108};
  aes::Tag128 h{};
  for (auto& b : h) b = static_cast<std::uint8_t>(rng.next());
  const Label label{Conf::category(3), Integ::category(3)};
  constexpr unsigned kTableBits = kGhashLanes * 16 * 128;
  for (unsigned bit = 0; bit < kTableBits + 32; ++bit) {
    SCOPED_TRACE("bit " + std::to_string(bit));
    const auto flip = [bit](GhashUnit& gh) {
      return bit < kTableBits ? gh.faultFlipKeyTableBit(1, bit)
                              : gh.faultFlipKeyLabelBit(1, bit - kTableBits);
    };
    {
      GhashUnit gh{true};
      gh.loadH(1, h, label, 0);
      ASSERT_FALSE(gh.scrubKeySlot(1).has_value());
      ASSERT_TRUE(flip(gh));
      const auto f = gh.scrubKeySlot(1);
      ASSERT_TRUE(f.has_value());
      EXPECT_EQ(f->site, FaultSite::GhashKeyTable);
      EXPECT_FALSE(gh.keyValid(1));
    }
    {
      GhashUnit gh{true};
      gh.loadH(1, h, label, 0);
      const auto sid = gh.openStream(0, 1, 1, label);
      ASSERT_TRUE(sid.has_value());
      ASSERT_TRUE(gh.absorb(*sid, h, label));
      ASSERT_TRUE(flip(gh));
      const auto f = gh.tick(kGhashLanes);  // tables ready: issue now
      ASSERT_EQ(f.size(), 1u);
      EXPECT_EQ(f[0].site, FaultSite::GhashKeyTable);
      EXPECT_TRUE(gh.faulted(*sid));
      EXPECT_EQ(gh.blocksProcessed(), 0u);
    }
  }
}

// --- Typed refusal at the sequencer's submit port ------------------------------

// Each refusal names its reason, so a caller that overlaps ops can tell the
// one transient refusal (every op slot busy) from the deterministic ones.
TEST(GcmAccelRefusal, SubmitNamesWhyItRefused) {
  Rng rng{109};
  const auto key = randomBytes(rng, 16);
  GcmRig rig{SecurityMode::Protected, key};
  GcmRequest req;
  req.user = rig.user;
  req.key_slot = 1;
  req.iv = randomBytes(rng, 12);
  req.data = randomBytes(rng, 64);

  GcmRequest no_iv = req;
  no_iv.iv.clear();
  EXPECT_EQ(rig.acc.submitGcm(no_iv), GcmSubmit::BadRequest);
  GcmRequest stranger = req;
  stranger.user = 99;
  EXPECT_EQ(rig.acc.submitGcm(stranger), GcmSubmit::BadRequest);
  GcmRequest empty_slot = req;
  empty_slot.key_slot = 2;
  EXPECT_EQ(rig.acc.submitGcm(empty_slot), GcmSubmit::KeyUnusable);
  // An AES-256 key needs 14 rounds; this pipe has 10.
  ASSERT_TRUE(loadKeyBytes(rig.acc, rig.user, 3, 4, randomBytes(rng, 32),
                           aes::KeySize::Aes256, Conf::category(1)));
  GcmRequest long_key = req;
  long_key.key_slot = 3;
  EXPECT_EQ(rig.acc.submitGcm(long_key), GcmSubmit::TooManyRounds);

  for (unsigned i = 0; i < kGcmOps; ++i) {
    req.req_id = i + 1;
    EXPECT_EQ(rig.acc.submitGcm(req), GcmSubmit::Accepted);
  }
  req.req_id = kGcmOps + 1;
  EXPECT_EQ(rig.acc.submitGcm(req), GcmSubmit::Full);
  // The driver's start half reports a full sequencer as "not started":
  // no verdict, no telemetry, no cycles charged.
  EXPECT_FALSE(rig.session.startGcm(req).has_value());
  EXPECT_EQ(rig.session.telemetry().operations(), 0u);
  EXPECT_EQ(rig.session.cyclesUsed(), 0u);
}

}  // namespace
}  // namespace aesifc::accel

// --- Service & pool AEAD routing -------------------------------------------------

namespace aesifc::soc {
namespace {

using accel::AcceleratorConfig;
using accel::AesAccelerator;
using lattice::Conf;
using lattice::Principal;

TEST(GcmService, SealAndOpenRouteThroughAdmissionAndBatching) {
  AesAccelerator acc{AcceleratorConfig{}};
  AccelService svc{acc, ServiceConfig{}};
  acc.addUser(Principal::supervisor());
  const unsigned user = acc.addUser(Principal::user("t0", 1));
  TenantSpec spec;
  spec.user = user;
  spec.key_slot = 1;
  spec.key = std::vector<std::uint8_t>(16, 0x42);
  spec.key_conf = Conf::category(1);
  const unsigned t = svc.addTenant(spec);

  Rng rng{201};
  std::vector<std::uint8_t> pt(45), aad(9), iv(12);
  for (auto& b : pt) b = static_cast<std::uint8_t>(rng.next());
  for (auto& b : aad) b = static_cast<std::uint8_t>(rng.next());
  for (auto& b : iv) b = static_cast<std::uint8_t>(rng.next());

  const auto sub = svc.submitSeal(t, pt, aad, iv);
  ASSERT_TRUE(sub.admitted);
  svc.runUntilIdle(1'000'000);
  const auto sealed = svc.fetchAead(t);
  ASSERT_TRUE(sealed.has_value());
  EXPECT_EQ(sealed->status, CompletionStatus::Ok);
  EXPECT_EQ(sealed->served_by, ServedBy::Hardware);
  const auto host = aes::gcmEncrypt(
      pt, aad, aes::expandKey(spec.key, aes::KeySize::Aes128), iv);
  EXPECT_EQ(sealed->data, host.ciphertext);
  EXPECT_EQ(sealed->tag, host.tag);

  // Open round-trips; a tampered tag is a terminal AuthFailed verdict that
  // is not charged to the device's error budget.
  ASSERT_TRUE(svc.submitOpen(t, sealed->data, aad, sealed->tag, iv).admitted);
  auto bad = sealed->tag;
  bad[0] ^= 1;
  ASSERT_TRUE(svc.submitOpen(t, sealed->data, aad, bad, iv).admitted);
  svc.runUntilIdle(1'000'000);
  const auto opened = svc.fetchAead(t);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(opened->status, CompletionStatus::Ok);
  EXPECT_EQ(opened->data, pt);
  const auto failed = svc.fetchAead(t);
  ASSERT_TRUE(failed.has_value());
  EXPECT_EQ(failed->status, CompletionStatus::AuthFailed);
  EXPECT_TRUE(failed->data.empty());

  EXPECT_EQ(svc.stats().aead_admitted, 3u);
  EXPECT_EQ(svc.stats().aead_completed_hw, 2u);
  EXPECT_EQ(svc.stats().aead_auth_failed, 1u);
  EXPECT_EQ(svc.health(), HealthState::Healthy);
}

TEST(GcmPool, AeadRoundTripsAcrossShards) {
  PoolConfig cfg;
  cfg.shards = 2;
  EnginePool pool{cfg};
  Rng rng{202};
  std::vector<unsigned> ids;
  for (unsigned i = 0; i < 4; ++i) {
    PoolTenantSpec spec;
    spec.name = "tenant-" + std::to_string(i);
    spec.category = i + 1;
    spec.key = std::vector<std::uint8_t>(16);
    for (auto& b : spec.key) b = static_cast<std::uint8_t>(rng.next());
    const PlaceResult placed = pool.addTenant(spec);
    ASSERT_TRUE(placed.placed);
    ids.push_back(placed.tenant);
  }
  std::vector<std::vector<std::uint8_t>> pts, ivs;
  std::vector<aes::ExpandedKey> keys;
  for (unsigned i = 0; i < 4; ++i) {
    std::vector<std::uint8_t> pt(30 + 16 * i), iv(12);
    for (auto& b : pt) b = static_cast<std::uint8_t>(rng.next());
    for (auto& b : iv) b = static_cast<std::uint8_t>(rng.next());
    ASSERT_TRUE(pool.submitSeal(ids[i], pt, {}, iv).admitted);
    pts.push_back(std::move(pt));
    ivs.push_back(std::move(iv));
  }
  pool.runUntilIdle(1'000'000);
  for (unsigned i = 0; i < 4; ++i) {
    const auto sealed = pool.fetchAead(ids[i]);
    ASSERT_TRUE(sealed.has_value()) << "tenant " << i;
    EXPECT_EQ(sealed->status, CompletionStatus::Ok);
    ASSERT_TRUE(
        pool.submitOpen(ids[i], sealed->data, {}, sealed->tag, ivs[i])
            .admitted);
  }
  pool.runUntilIdle(1'000'000);
  for (unsigned i = 0; i < 4; ++i) {
    const auto opened = pool.fetchAead(ids[i]);
    ASSERT_TRUE(opened.has_value()) << "tenant " << i;
    EXPECT_EQ(opened->status, CompletionStatus::Ok);
    EXPECT_EQ(opened->data, pts[i]) << "tenant " << i;
  }
}

// --- Overlapped AEAD ops in the service ----------------------------------------

// A service over one accelerator with `n` AEAD tenants: user i + 1 holds
// key slot i + 1, provisioned through the service's key ledger.
struct AeadRig {
  AesAccelerator acc{AcceleratorConfig{}};
  AccelService svc;
  std::vector<aes::ExpandedKey> golden;

  AeadRig(unsigned n, ServiceConfig cfg) : svc{acc, cfg} {
    acc.addUser(Principal::supervisor());
    for (unsigned i = 0; i < n; ++i) {
      TenantSpec spec;
      spec.user = acc.addUser(Principal::user("t" + std::to_string(i), i + 1));
      spec.key_slot = i + 1;
      spec.key = std::vector<std::uint8_t>(16, static_cast<std::uint8_t>(0x42 + i));
      spec.key_conf = Conf::category(i + 1);
      svc.addTenant(spec);
      golden.push_back(aes::expandKey(spec.key, aes::KeySize::Aes128));
    }
  }
};

// One queued AEAD op and what golden GCM says it must release.
struct AeadCase {
  bool open = false;
  std::vector<std::uint8_t> pt, aad, iv;
  aes::GcmResult host;  // seal of pt under the tenant's key
  std::uint64_t ticket = 0;
};

AeadCase makeCase(Rng& rng, const aes::ExpandedKey& key, bool open,
                  std::size_t blocks, std::size_t aad_bytes) {
  AeadCase c;
  c.open = open;
  c.pt = accel::randomBytes(rng, 16 * blocks);
  c.aad = accel::randomBytes(rng, aad_bytes);
  c.iv = accel::randomBytes(rng, 12);
  c.host = aes::gcmEncrypt(c.pt, c.aad, key, c.iv);
  return c;
}

void submitCase(AccelService& svc, unsigned tenant, AeadCase& c) {
  const SubmitResult r =
      c.open ? svc.submitOpen(tenant, c.host.ciphertext, c.aad, c.host.tag, c.iv)
             : svc.submitSeal(tenant, c.pt, c.aad, c.iv);
  ASSERT_TRUE(r.admitted);
  c.ticket = r.ticket;
}

// True when an Ok completion released exactly what golden GCM computes.
bool releasedGolden(const AeadCase& c, const AeadCompletion& got) {
  if (c.open) return got.data == c.pt;
  return got.data == c.host.ciphertext && got.tag == c.host.tag;
}

// GCM needs an IV. An op without one is refused at admission, so it never
// reaches the sequencer, where its refusal would cost a key re-provision.
TEST(GcmService, EmptyIvIsRefusedAtAdmission) {
  AeadRig r{1, ServiceConfig{}};
  const std::vector<std::uint8_t> pt(32, 0x5a);
  const SubmitResult res = r.svc.submitSeal(0, pt, {}, {});
  EXPECT_FALSE(res.admitted);
  EXPECT_EQ(res.error, AdmitError::Malformed);
  r.svc.runUntilIdle(1u << 12);
  EXPECT_FALSE(r.svc.fetchAead(0).has_value());
  EXPECT_EQ(r.svc.stats().aead_admitted, 0u);
  EXPECT_EQ(r.svc.stats().key_reprovisions, 0u);
}

// A round that serves one AEAD op is the synchronous driver call: the op
// completes in the very cycle a session's gcmSeal on a twin device returns.
TEST(GcmService, LoneOpRoundIsCycleIdenticalToSynchronousSeal) {
  Rng rng{204};
  AeadRig r{1, ServiceConfig{}};
  AeadCase c = makeCase(rng, r.golden[0], false, 20, 13);
  submitCase(r.svc, 0, c);
  EXPECT_EQ(r.svc.pump(), 1u);
  const auto got = r.svc.fetchAead(0);
  ASSERT_TRUE(got.has_value());
  ASSERT_EQ(got->status, CompletionStatus::Ok);
  EXPECT_TRUE(releasedGolden(c, *got));

  AeadRig twin{1, ServiceConfig{}};
  accel::AccelSession session{twin.acc, 1, 1};
  twin.acc.tick();  // the round's scheduling cycle
  const auto sealed = session.gcmSeal(c.pt, c.aad, c.iv);
  ASSERT_TRUE(sealed.has_value());
  EXPECT_EQ(got->complete_cycle, twin.acc.cycle());
  EXPECT_EQ(r.svc.session(0).cyclesUsed(), session.cyclesUsed());
}

// A 64-block seal and then a 1-block open from one tenant start in the same
// round. The open's verdict arrives long before the seal's, but it completes
// with the seal, never ahead of the earlier ticket.
TEST(GcmService, OverlappedOpsCompleteInTicketOrder) {
  Rng rng{205};
  AeadRig r{1, ServiceConfig{}};
  AeadCase seal = makeCase(rng, r.golden[0], false, 64, 32);
  AeadCase open = makeCase(rng, r.golden[0], true, 1, 0);
  submitCase(r.svc, 0, seal);
  submitCase(r.svc, 0, open);
  EXPECT_EQ(r.svc.pump(), 2u);  // both started and reaped in one round
  const auto first = r.svc.fetchAead(0);
  const auto second = r.svc.fetchAead(0);
  ASSERT_TRUE(first.has_value() && second.has_value());
  EXPECT_EQ(first->ticket, seal.ticket);
  EXPECT_EQ(second->ticket, open.ticket);
  ASSERT_EQ(first->status, CompletionStatus::Ok);
  ASSERT_EQ(second->status, CompletionStatus::Ok);
  EXPECT_TRUE(releasedGolden(seal, *first));
  EXPECT_TRUE(releasedGolden(open, *second));
  EXPECT_EQ(second->complete_cycle, first->complete_cycle);
}

// Sixteen 64-block ops with 32 B of AAD: tenant 0's eight fill every op
// slot, so tenant 1's first start finds the sequencer full. The watchdog is
// far shorter than a full sequencer's round; only a budget that grows with
// the ops sharing the pipe keeps these ops from timing out. A busy
// sequencer costs no retry, requeue or key re-provision.
TEST(GcmService, FullSequencerNeitherTimesOutNorCostsARequeue) {
  ServiceConfig cfg;
  cfg.quota_per_round = accel::kGcmOps;
  cfg.healthy_opts.timeout_cycles = 64;
  AeadRig r{2, cfg};
  Rng rng{206};
  std::vector<std::vector<AeadCase>> cases(2);
  for (unsigned t = 0; t < 2; ++t) {
    for (unsigned i = 0; i < accel::kGcmOps; ++i) {
      cases[t].push_back(makeCase(rng, r.golden[t], i % 2 == 1, 64, 32));
      submitCase(r.svc, t, cases[t].back());
    }
  }
  EXPECT_EQ(r.svc.pump(), 2 * accel::kGcmOps);
  for (unsigned t = 0; t < 2; ++t) {
    for (const AeadCase& c : cases[t]) {
      const auto got = r.svc.fetchAead(t);
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(got->ticket, c.ticket);
      ASSERT_EQ(got->status, CompletionStatus::Ok);
      EXPECT_TRUE(releasedGolden(c, *got));
    }
    EXPECT_EQ(r.svc.session(t).telemetry().timeouts, 0u);
    EXPECT_EQ(r.svc.session(t).retries(), 0u);
  }
  EXPECT_EQ(r.svc.stats().requeues, 0u);
  EXPECT_EQ(r.svc.stats().key_reprovisions, 0u);
  EXPECT_EQ(r.svc.stats().hw_transient_failures, 0u);
  EXPECT_EQ(r.acc.gcm().backlogBlocks(), 0u);
}

// A fault lands on tenant 0's key mid-round, while its three ops and tenant
// 1's two are in flight together. Every op ends in a definite status, no
// op releases anything but golden GCM output, each tenant's completions
// keep ticket order, tenant 1 is served as if nothing happened, and the
// service's counters balance.
enum class MidRoundFault { KeyZeroized, GhashKeyTable };

struct GcmServiceFault : ::testing::TestWithParam<MidRoundFault> {};

TEST_P(GcmServiceFault, FaultOnOneTenantFailsSecureAndKeepsOrder) {
  AeadRig r{2, ServiceConfig{}};
  Rng rng{207};
  std::vector<std::vector<AeadCase>> cases(2);
  cases[0].push_back(makeCase(rng, r.golden[0], false, 48, 20));
  cases[0].push_back(makeCase(rng, r.golden[0], true, 16, 0));
  cases[0].push_back(makeCase(rng, r.golden[0], false, 8, 32));
  cases[1].push_back(makeCase(rng, r.golden[1], false, 32, 7));
  cases[1].push_back(makeCase(rng, r.golden[1], true, 24, 16));
  for (unsigned t = 0; t < 2; ++t) {
    for (auto& c : cases[t]) submitCase(r.svc, t, c);
  }
  // Tenant 0's key slot is 1. A round-key bit flip is caught by parity and
  // zeroizes the slot; an H-table flip voids the slot's hash subkey.
  const std::uint64_t at = r.acc.cycle() + 60;
  bool armed = true;
  r.acc.setTickHook([&] {
    if (!armed || r.acc.cycle() < at) return;
    armed = false;
    if (GetParam() == MidRoundFault::KeyZeroized) {
      EXPECT_TRUE(r.acc.injectFault(accel::FaultSite::RoundKey, 1, 200));
    } else {
      EXPECT_TRUE(r.acc.injectFault(accel::FaultSite::GhashKeyTable, 1, 77));
    }
  });
  r.svc.runUntilIdle(1u << 20);
  ASSERT_FALSE(armed);

  unsigned ok = 0, fetched = 0;
  for (unsigned t = 0; t < 2; ++t) {
    for (const AeadCase& c : cases[t]) {
      const auto got = r.svc.fetchAead(t);
      ASSERT_TRUE(got.has_value());
      ++fetched;
      EXPECT_EQ(got->ticket, c.ticket);
      if (got->status == CompletionStatus::Ok) {
        ++ok;
        EXPECT_TRUE(releasedGolden(c, *got)) << "ticket " << c.ticket;
      } else {
        EXPECT_EQ(t, 0u);
        EXPECT_TRUE(got->status == CompletionStatus::FaultAborted ||
                    got->status == CompletionStatus::Rejected)
            << toString(got->status);
        EXPECT_TRUE(got->data.empty());
      }
    }
    EXPECT_FALSE(r.svc.fetchAead(t).has_value());
  }
  // The fault hit tenant 0's ops in flight: its driver retried, or the
  // service requeued, and tenant 1 never noticed.
  const auto& s = r.svc.stats();
  EXPECT_GT(r.svc.session(0).retries() + s.requeues, 0u);
  EXPECT_EQ(r.svc.session(1).retries(), 0u);
  EXPECT_EQ(r.svc.session(1).telemetry().ok, 2u);
  EXPECT_EQ(fetched, s.aead_admitted);
  EXPECT_EQ(ok, s.aead_completed_hw);
  EXPECT_EQ(s.aead_completed_fallback + s.aead_auth_failed +
                s.wrong_key_uses,
            0u);
  EXPECT_EQ(r.svc.totalQueued(), 0u);
  // Every op, aborted ones included, left the sequencer's backlog.
  EXPECT_EQ(r.acc.gcm().backlogBlocks(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Faults, GcmServiceFault,
    ::testing::Values(MidRoundFault::KeyZeroized, MidRoundFault::GhashKeyTable),
    [](const ::testing::TestParamInfo<MidRoundFault>& info) -> std::string {
      return info.param == MidRoundFault::KeyZeroized ? "KeyZeroized"
                                                      : "GhashKeyTable";
    });

}  // namespace
}  // namespace aesifc::soc
