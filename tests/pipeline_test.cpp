#include "accel/pipeline.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "aes/cipher.h"
#include "common/rng.h"

namespace aesifc::accel {
namespace {

struct PipelineFixture : ::testing::Test {
  RoundKeyRam ram;
  Rng rng{123};

  std::vector<std::uint8_t> randomKey(unsigned n) {
    std::vector<std::uint8_t> k(n);
    for (auto& b : k) b = static_cast<std::uint8_t>(rng.next());
    return k;
  }

  aes::Block randomBlock() {
    aes::Block b{};
    for (auto& x : b) x = static_cast<std::uint8_t>(rng.next());
    return b;
  }

  StageSlot makeSlot(unsigned key_slot, const aes::Block& data, bool decrypt,
                     std::uint64_t id) {
    StageSlot s;
    s.valid = true;
    s.state = aes::blockToState(data);
    s.key_slot = key_slot;
    s.total_rounds = ram.rounds(key_slot);
    s.decrypt = decrypt;
    s.req_id = id;
    return s;
  }
};

TEST_F(PipelineFixture, ThirtyStageLatencyForAes128) {
  const auto key = randomKey(16);
  ram.store(0, aes::expandKey(key, aes::KeySize::Aes128), lattice::Conf::bottom(),
            lattice::Label::publicTrusted());
  AesPipeline p{10, ram};
  EXPECT_EQ(p.depth(), 30u);

  const auto pt = randomBlock();
  auto out = p.advance(makeSlot(0, pt, false, 1));
  EXPECT_FALSE(out.has_value());
  unsigned cycles = 0;  // edges after the block entered stage 0
  while (!out.has_value() && cycles < 100) {
    out = p.advance(std::nullopt);
    ++cycles;
  }
  // Paper Section 4: "completes the encryption of a data block in 30
  // cycles" — the block occupies the 30 stage registers for 30 edges and
  // pops out on the edge after it leaves stage 29. The accelerator-level
  // accept-to-complete latency of exactly 30 is asserted in accel_test.
  EXPECT_EQ(cycles, 30u);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(aes::stateToBlock(out->state),
            aes::encryptBlock(pt, key.data(), aes::KeySize::Aes128));
}

TEST_F(PipelineFixture, OneBlockPerCycleThroughput) {
  const auto key = randomKey(16);
  ram.store(0, aes::expandKey(key, aes::KeySize::Aes128), lattice::Conf::bottom(),
            lattice::Label::publicTrusted());
  AesPipeline p{10, ram};

  std::vector<aes::Block> pts;
  std::vector<aes::Block> outs;
  const unsigned n = 64;
  for (unsigned i = 0; i < n + 30; ++i) {
    std::optional<StageSlot> in;
    if (i < n) {
      pts.push_back(randomBlock());
      in = makeSlot(0, pts.back(), false, i);
    }
    if (auto out = p.advance(in)) outs.push_back(aes::stateToBlock(out->state));
  }
  // Full rate: one completed block per cycle after the fill latency.
  ASSERT_EQ(outs.size(), n);
  for (unsigned i = 0; i < n; ++i) {
    EXPECT_EQ(outs[i], aes::encryptBlock(pts[i], key.data(), aes::KeySize::Aes128))
        << "block " << i;
  }
}

TEST_F(PipelineFixture, DecryptionWorksInPipeline) {
  const auto key = randomKey(16);
  ram.store(0, aes::expandKey(key, aes::KeySize::Aes128), lattice::Conf::bottom(),
            lattice::Label::publicTrusted());
  AesPipeline p{10, ram};

  const auto pt = randomBlock();
  const auto ct = aes::encryptBlock(pt, key.data(), aes::KeySize::Aes128);
  auto out = p.advance(makeSlot(0, ct, true, 1));
  for (unsigned i = 0; i < 29 && !out; ++i) out = p.advance(std::nullopt);
  out = out ? out : p.advance(std::nullopt);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(aes::stateToBlock(out->state), pt);
}

TEST_F(PipelineFixture, MixedEncryptDecryptInFlight) {
  const auto key = randomKey(16);
  ram.store(0, aes::expandKey(key, aes::KeySize::Aes128), lattice::Conf::bottom(),
            lattice::Label::publicTrusted());
  AesPipeline p{10, ram};

  std::vector<aes::Block> pts(16);
  std::vector<aes::Block> expect(16);
  for (unsigned i = 0; i < 16; ++i) {
    pts[i] = randomBlock();
    expect[i] = (i % 2 == 0)
                    ? aes::encryptBlock(pts[i], key.data(), aes::KeySize::Aes128)
                    : aes::decryptBlock(pts[i], key.data(), aes::KeySize::Aes128);
  }
  std::vector<aes::Block> outs;
  for (unsigned i = 0; i < 16 + 30; ++i) {
    std::optional<StageSlot> in;
    if (i < 16) in = makeSlot(0, pts[i], i % 2 == 1, i);
    if (auto out = p.advance(in)) outs.push_back(aes::stateToBlock(out->state));
  }
  ASSERT_EQ(outs.size(), 16u);
  for (unsigned i = 0; i < 16; ++i) EXPECT_EQ(outs[i], expect[i]);
}

TEST_F(PipelineFixture, MixedKeySizesShareThePipeline) {
  const auto k128 = randomKey(16);
  const auto k192 = randomKey(24);
  const auto k256 = randomKey(32);
  ram.store(0, aes::expandKey(k128, aes::KeySize::Aes128),
            lattice::Conf::bottom(), lattice::Label::publicTrusted());
  ram.store(1, aes::expandKey(k192, aes::KeySize::Aes192),
            lattice::Conf::bottom(), lattice::Label::publicTrusted());
  ram.store(2, aes::expandKey(k256, aes::KeySize::Aes256),
            lattice::Conf::bottom(), lattice::Label::publicTrusted());
  AesPipeline p{14, ram};  // sized for AES-256
  EXPECT_EQ(p.depth(), 42u);

  std::vector<aes::Block> pts(9);
  std::vector<aes::Block> expect(9);
  for (unsigned i = 0; i < 9; ++i) {
    pts[i] = randomBlock();
    const unsigned slot = i % 3;
    const auto* key = slot == 0 ? k128.data() : slot == 1 ? k192.data() : k256.data();
    const auto ks = slot == 0   ? aes::KeySize::Aes128
                    : slot == 1 ? aes::KeySize::Aes192
                                : aes::KeySize::Aes256;
    expect[i] = aes::encryptBlock(pts[i], key, ks);
  }
  std::vector<aes::Block> outs;
  for (unsigned i = 0; i < 9 + 42; ++i) {
    std::optional<StageSlot> in;
    if (i < 9) in = makeSlot(i % 3, pts[i], false, i);
    if (auto out = p.advance(in)) outs.push_back(aes::stateToBlock(out->state));
  }
  ASSERT_EQ(outs.size(), 9u);
  for (unsigned i = 0; i < 9; ++i) EXPECT_EQ(outs[i], expect[i]) << i;
}

TEST_F(PipelineFixture, MeetConfOverOccupiedStages) {
  const auto key = randomKey(16);
  ram.store(0, aes::expandKey(key, aes::KeySize::Aes128), lattice::Conf::bottom(),
            lattice::Label::publicTrusted());
  AesPipeline p{10, ram};

  // Empty pipeline: meet is top (nothing restricts a stall).
  EXPECT_EQ(p.meetConf(), lattice::Conf::top());

  auto s1 = makeSlot(0, randomBlock(), false, 1);
  s1.tag = lattice::Label{lattice::Conf::category(1), lattice::Integ::top()};
  p.advance(s1);
  EXPECT_EQ(p.meetConf(), lattice::Conf::category(1));

  auto s2 = makeSlot(0, randomBlock(), false, 2);
  s2.tag = lattice::Label{lattice::Conf::category(2), lattice::Integ::top()};
  p.advance(s2);
  // Meet of disjoint categories is bottom: nobody above public may stall.
  EXPECT_EQ(p.meetConf(), lattice::Conf::bottom());
}

TEST_F(PipelineFixture, TagTravelsWithBlock) {
  const auto key = randomKey(16);
  ram.store(0, aes::expandKey(key, aes::KeySize::Aes128), lattice::Conf::bottom(),
            lattice::Label::publicTrusted());
  AesPipeline p{10, ram};

  auto s = makeSlot(0, randomBlock(), false, 42);
  s.tag = lattice::Label{lattice::Conf::category(3), lattice::Integ::category(3)};
  auto out = p.advance(s);
  for (unsigned i = 0; i < 29 && !out; ++i) out = p.advance(std::nullopt);
  out = out ? out : p.advance(std::nullopt);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->tag.c, lattice::Conf::category(3));
  EXPECT_EQ(out->req_id, 42u);
}

TEST_F(PipelineFixture, ValidCountTracksOccupancy) {
  const auto key = randomKey(16);
  ram.store(0, aes::expandKey(key, aes::KeySize::Aes128), lattice::Conf::bottom(),
            lattice::Label::publicTrusted());
  AesPipeline p{10, ram};
  EXPECT_FALSE(p.anyValid());
  p.advance(makeSlot(0, randomBlock(), false, 1));
  p.advance(makeSlot(0, randomBlock(), false, 2));
  EXPECT_EQ(p.validCount(), 2u);
  EXPECT_TRUE(p.anyValid());
  for (unsigned i = 0; i < 30; ++i) p.advance(std::nullopt);
  EXPECT_FALSE(p.anyValid());
}

// The slot checksum folds the round keys a 64-bit word at a time; each
// fold step is a bijection, so every single-bit upset (one word changed)
// must be caught, in the key material and in the security metadata alike.
TEST_F(PipelineFixture, KeySlotChecksumCatchesEverySingleBitFlip) {
  for (const auto size : {aes::KeySize::Aes128, aes::KeySize::Aes256}) {
    ram.store(2, aes::expandKey(randomKey(aes::keyBytes(size)), size),
              lattice::Conf::category(4),
              lattice::Label{lattice::Conf::category(4),
                             lattice::Integ::category(4)});
    ASSERT_TRUE(ram.slotParityOk(2));
    const unsigned round_keys = ram.rounds(2) + 1;
    for (unsigned round = 0; round < round_keys; ++round) {
      for (unsigned byte = 0; byte < 16; ++byte) {
        for (unsigned bit = 0; bit < 8; ++bit) {
          ASSERT_TRUE(ram.faultFlipKeyBit(2, round, byte, bit));
          EXPECT_FALSE(ram.slotParityOk(2))
              << "round " << round << " byte " << byte << " bit " << bit;
          ASSERT_TRUE(ram.faultFlipKeyBit(2, round, byte, bit));
          ASSERT_TRUE(ram.slotParityOk(2));
        }
      }
    }
    for (unsigned bit = 0; bit <= 48; ++bit) {
      ASSERT_TRUE(ram.faultFlipMetaBit(2, bit));
      EXPECT_FALSE(ram.slotParityOk(2)) << "metadata bit " << bit;
      ASSERT_TRUE(ram.faultFlipMetaBit(2, bit));
      ASSERT_TRUE(ram.slotParityOk(2));
    }
    EXPECT_FALSE(ram.faultFlipMetaBit(2, 49));
  }
}

// The occupancy mask must mirror the stage registers exactly: bit i set
// iff stage(i) is valid, with the count and the Fig. 8 meet read from it
// equal to a walk over every register. A seeded mix of accepts, bubbles,
// squashes and register faults, on AES-128 and AES-256 blocks sharing a
// 42-stage pipe, runs the ring head around dozens of times; every block
// that leaves unfaulted must still carry the golden ciphertext.
TEST_F(PipelineFixture, OccupancyMaskMirrorsStagesUnderRandomTraffic) {
  const auto key128 = randomKey(16);
  const auto key256 = randomKey(32);
  ram.store(0, aes::expandKey(key128, aes::KeySize::Aes128),
            lattice::Conf::bottom(), lattice::Label::publicTrusted());
  ram.store(1, aes::expandKey(key256, aes::KeySize::Aes256),
            lattice::Conf::bottom(), lattice::Label::publicTrusted());
  AesPipeline p{14, ram};
  ASSERT_EQ(p.depth(), 42u);

  std::map<std::uint64_t, aes::Block> expect;  // req_id -> golden output
  std::set<std::uint64_t> corrupted;
  std::uint64_t next_id = 1;
  unsigned completed = 0;
  const auto check = [&](unsigned step) {
    unsigned count = 0;
    lattice::Conf meet = lattice::Conf::top();
    for (unsigned i = 0; i < p.depth(); ++i) {
      const StageSlot& s = p.stage(i);
      ASSERT_EQ((p.occupancy() >> i & 1) != 0, s.valid)
          << "step " << step << " stage " << i;
      if (s.valid) {
        ++count;
        meet = meet.meet(s.tag.c);
      }
    }
    ASSERT_EQ(p.occupancy() >> p.depth(), 0u) << "step " << step;
    ASSERT_EQ(p.validCount(), count) << "step " << step;
    ASSERT_EQ(p.anyValid(), count > 0) << "step " << step;
    ASSERT_EQ(p.meetConf(), meet) << "step " << step;
  };

  constexpr unsigned kSteps = 4000;  // ~95 trips of the head round the ring
  for (unsigned step = 0; step < kSteps; ++step) {
    const auto r = rng.below(100);
    const unsigned stage = static_cast<unsigned>(rng.below(p.depth()));
    if (r < 8) {
      p.squash(stage);  // empty stages included: squash is idempotent
    } else if (r < 12) {
      if (p.faultFlipStageDataBit(stage, static_cast<unsigned>(rng.below(128))))
        corrupted.insert(p.stage(stage).req_id);
    } else if (r < 16) {
      if (p.faultFlipStageTagBit(stage, static_cast<unsigned>(rng.below(32))))
        corrupted.insert(p.stage(stage).req_id);
    } else {
      std::optional<StageSlot> in;
      if (r < 60) {
        const unsigned slot = static_cast<unsigned>(rng.below(2));
        const bool decrypt = rng.chance(0.5);
        const auto data = randomBlock();
        const std::uint64_t id = next_id++;
        in = makeSlot(slot, data, decrypt, id);
        in->tag = lattice::Label{
            lattice::Conf::category(1 + static_cast<unsigned>(rng.below(4))),
            lattice::Integ::top()};
        const auto& k = slot == 0 ? key128 : key256;
        const auto size = slot == 0 ? aes::KeySize::Aes128 : aes::KeySize::Aes256;
        expect[id] = decrypt ? aes::decryptBlock(data, k.data(), size)
                             : aes::encryptBlock(data, k.data(), size);
      }
      const auto out = p.advance(std::move(in));
      if (out.has_value()) {
        ASSERT_TRUE(out->valid);
        if (!corrupted.count(out->req_id)) {
          EXPECT_EQ(aes::stateToBlock(out->state), expect.at(out->req_id))
              << "req " << out->req_id;
          ++completed;
        }
      }
    }
    check(step);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(completed, kSteps / 4);
}


// A test-local eager model of the stage schedule: each logical stage holds
// its block's data after that stage's byte-wise micro-op, stepped on every
// edge, with round keys read from the RAM when the stage computes — the
// datapath as the hardware clocks it. Parity is stamped with every write
// and never by a fault flip.
struct EagerModel {
  struct Block {
    aes::State state{};
    bool parity = false;
    unsigned key_slot = 0;
    unsigned rounds = 0;
    bool decrypt = false;
    std::uint64_t id = 0;
  };

  const RoundKeyRam& ram;
  std::vector<std::optional<Block>> stages;

  EagerModel(const RoundKeyRam& r, unsigned depth) : ram{r}, stages(depth) {}

  void step(unsigned idx, Block& b) const {
    const unsigned r = idx / 3 + 1;
    if (r > b.rounds) return;
    const unsigned n = b.rounds;
    switch (idx % 3) {
      case 0:
        b.decrypt ? aes::invShiftRows(b.state) : aes::subBytes(b.state);
        break;
      case 1:
        if (b.decrypt) {
          aes::invSubBytes(b.state);
        } else {
          aes::shiftRows(b.state);
          if (r < n) aes::mixColumns(b.state);
        }
        break;
      case 2:
        aes::addRoundKey(b.state,
                         ram.roundKey(b.key_slot, b.decrypt ? n - r : r));
        if (b.decrypt && r < n) aes::invMixColumns(b.state);
        break;
    }
    b.parity = stateParity(b.state);
  }

  std::optional<Block> advance(std::optional<Block> in) {
    std::optional<Block> out = std::move(stages.back());
    for (std::size_t i = stages.size() - 1; i > 0; --i) {
      stages[i] = std::move(stages[i - 1]);
      if (stages[i]) step(static_cast<unsigned>(i), *stages[i]);
    }
    stages[0] = std::move(in);
    if (stages[0]) {
      Block& b = *stages[0];
      aes::addRoundKey(b.state,
                       ram.roundKey(b.key_slot, b.decrypt ? b.rounds : 0));
      step(0, b);
    }
    return out;
  }
};

// The lazy pipe must be indistinguishable from the eager schedule: every
// exit and every stage's data view, at every step, under a seeded mix of
// accepts, bubbles, squashes, stage data and tag flips, and round-key flips
// landing on blocks mid-flight (the pipe is told before the key changes,
// as the accelerator does). Three key sizes share a 42-stage pipe in both
// directions.
// A stage a fault port wrote stays suspect until its parity matches again,
// wherever its block has moved: the mark travels with the block through
// advance and rotate, and a passing check or a squash clears it.
TEST_F(PipelineFixture, FlippedStagesStaySuspectAsTheyMove) {
  ram.store(0, aes::expandKey(randomKey(16), aes::KeySize::Aes128),
            lattice::Conf::bottom(), lattice::Label::publicTrusted());
  AesPipeline p{10, ram};
  p.advance(makeSlot(0, randomBlock(), false, 1));
  p.advance(makeSlot(0, randomBlock(), false, 2));
  EXPECT_EQ(p.suspects(), 0u);
  ASSERT_TRUE(p.faultFlipStageTagBit(1, 3));
  ASSERT_TRUE(p.faultFlipStageTagBit(0, 20));
  EXPECT_EQ(p.suspects(), 0b11u);
  p.advance(std::nullopt);
  p.rotate(5);
  EXPECT_EQ(p.suspects(), (std::uint64_t{1} << 7) | (std::uint64_t{1} << 6));
  EXPECT_TRUE(p.stageParityOk(5));
  EXPECT_FALSE(p.stageParityOk(6));
  EXPECT_FALSE(p.stageParityOk(7));
  // A second flip of the same bit restores the tag: the check passes and
  // clears the mark.
  ASSERT_TRUE(p.faultFlipStageTagBit(7, 3));
  EXPECT_TRUE(p.stageParityOk(7));
  EXPECT_EQ(p.suspects(), std::uint64_t{1} << 6);
  p.squash(6);
  EXPECT_EQ(p.suspects(), 0u);
}

TEST_F(PipelineFixture, LazyPipeMatchesEagerScheduleUnderFaults) {
  const aes::KeySize sizes[] = {aes::KeySize::Aes128, aes::KeySize::Aes192,
                                aes::KeySize::Aes256};
  for (unsigned k = 0; k < 3; ++k) {
    ram.store(k, aes::expandKey(randomKey(aes::keyBytes(sizes[k])), sizes[k]),
              lattice::Conf::bottom(), lattice::Label::publicTrusted());
  }
  AesPipeline p{14, ram};
  EagerModel model{ram, p.depth()};

  const auto sameView = [&](unsigned step) {
    for (unsigned i = 0; i < p.depth(); ++i) {
      const StageSlot s = p.stage(i);
      const auto& m = model.stages[i];
      ASSERT_EQ(s.valid, m.has_value()) << "step " << step << " stage " << i;
      if (!m) continue;
      ASSERT_FALSE(s.lazy);
      ASSERT_EQ(s.req_id, m->id) << "step " << step << " stage " << i;
      ASSERT_EQ(s.state, m->state) << "step " << step << " stage " << i;
      ASSERT_EQ(s.data_parity, m->parity) << "step " << step << " stage " << i;
    }
  };

  std::uint64_t next_id = 1;
  unsigned exits = 0, key_flips = 0, data_flips = 0;
  constexpr unsigned kSteps = 3000;
  for (unsigned step = 0; step < kSteps; ++step) {
    const auto r = rng.below(100);
    const unsigned stage = static_cast<unsigned>(rng.below(p.depth()));
    if (r < 6) {
      p.squash(stage);
      model.stages[stage].reset();
    } else if (r < 12) {
      const unsigned bit = static_cast<unsigned>(rng.below(128));
      if (p.faultFlipStageDataBit(stage, bit)) {
        model.stages[stage]->state[bit / 8] ^=
            static_cast<std::uint8_t>(1u << (bit % 8));
        ++data_flips;
      }
    } else if (r < 16) {
      p.faultFlipStageTagBit(stage, static_cast<unsigned>(rng.below(32)));
    } else if (r < 22) {
      const unsigned slot = static_cast<unsigned>(rng.below(3));
      const unsigned round =
          static_cast<unsigned>(rng.below(ram.rounds(slot) + 1));
      p.materializeKeySlot(slot);
      ASSERT_TRUE(ram.faultFlipKeyBit(slot, round,
                                      static_cast<unsigned>(rng.below(16)),
                                      static_cast<unsigned>(rng.below(8))));
      ++key_flips;
    } else {
      std::optional<StageSlot> in;
      std::optional<EagerModel::Block> min;
      if (r < 70) {
        const unsigned slot = static_cast<unsigned>(rng.below(3));
        in = makeSlot(slot, randomBlock(), rng.chance(0.5), next_id++);
        min = EagerModel::Block{in->state, false, slot, in->total_rounds,
                                in->decrypt, in->req_id};
      }
      const auto out = p.advance(std::move(in));
      const auto mout = model.advance(std::move(min));
      ASSERT_EQ(out.has_value(), mout.has_value()) << "step " << step;
      if (out) {
        ASSERT_FALSE(out->lazy);
        ASSERT_EQ(out->req_id, mout->id) << "step " << step;
        ASSERT_EQ(out->state, mout->state) << "step " << step;
        ASSERT_EQ(out->data_parity, mout->parity) << "step " << step;
        ++exits;
      }
    }
    sameView(step);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(exits, kSteps / 4);
  EXPECT_GT(key_flips, 100u);
  EXPECT_GT(data_flips, 50u);
}

}  // namespace
}  // namespace aesifc::accel
