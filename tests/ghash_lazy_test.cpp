// The lazy GHASH unit against an eager reference: a test-local copy of the
// unit as it stepped before streams went lazy (every stage multiplying its
// nibble-steps each cycle, every writeback landing in its lane, every
// comparator checked on every fast scrub). Seeded streams run through both
// under upsets at the H table (also while a stream's last multiplies are in
// flight), at stage data and tags, and at lane accumulators; every
// detection, its cycle, every stage as a stage read sees it, and every
// released digest or abort must match.

#include <gtest/gtest.h>

#include <array>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "accel/ghash_unit.h"
#include "common/rng.h"

namespace aesifc::accel {
namespace {

using lattice::Conf;
using lattice::Integ;
using lattice::Label;

aes::Tag128 xorTags(aes::Tag128 a, const aes::Tag128& b) {
  for (unsigned i = 0; i < 16; ++i) a[i] ^= b[i];
  return a;
}

bool dataParity(const aes::Tag128& x, const aes::Tag128& z) {
  return parity64(fold128(x) ^ fold128(z));
}

// The eager unit. A key's table counts as corrupted when it differs from
// the table loaded, which is what the unit's checksum detects.
class EagerGhash {
 public:
  explicit EagerGhash(bool hardened) : hardened_{hardened} {}

  void loadH(unsigned slot, const aes::Tag128& h, Label label,
             std::uint64_t now) {
    invalidateKey(slot);
    Key& k = keys_[slot];
    aes::Tag128 hp = h;
    for (unsigned d = 0; d < kGhashLanes; ++d) {
      k.powers.emplace_back(hp);
      hp = aes::gf128Mul(hp, h);
    }
    k.loaded = k.powers;
    k.label = label;
    k.valid = true;
    k.ready_at = now + kGhashLanes;
  }

  void invalidateKey(unsigned slot) {
    Key& k = keys_[slot];
    k.valid = false;
    k.powers.clear();
    k.loaded.clear();
    for (unsigned s = 0; s < kGhashStreams; ++s) {
      if (streams_[s].open && streams_[s].key_slot == slot) faultStream(s);
    }
    for (auto& st : stages_) {
      if (st.valid && st.key_slot == slot) st = GhashStageSlot{};
    }
  }

  std::optional<unsigned> openStream(unsigned user, unsigned slot,
                                     std::uint64_t total, Label label) {
    if (!keys_[slot].valid) return std::nullopt;
    for (unsigned s = 0; s < kGhashStreams; ++s) {
      Stream& st = streams_[s];
      if (st.open) continue;
      st = Stream{};
      st.open = true;
      st.user = user;
      st.key_slot = slot;
      st.label = label.join(keys_[slot].label);
      st.total = total;
      restamp(st);
      return s;
    }
    return std::nullopt;
  }

  bool absorb(unsigned sid, const aes::Tag128& block, const Label& label) {
    Stream& st = streams_[sid];
    if (!st.open || st.faulted || st.absorbed >= st.total ||
        st.fifo.size() >= kGhashFifoDepth)
      return false;
    st.fifo.push_back(block);
    ++st.absorbed;
    st.label = st.label.join(label);
    restamp(st);
    return true;
  }

  std::size_t fifoSpace(unsigned sid) const {
    const Stream& st = streams_[sid];
    if (!st.open || st.faulted) return 0;
    return kGhashFifoDepth - st.fifo.size();
  }
  bool done(unsigned sid) const {
    const Stream& st = streams_[sid];
    return st.open && !st.faulted && st.written == st.total;
  }
  bool faulted(unsigned sid) const { return streams_[sid].faulted; }
  const Label& label(unsigned sid) const { return streams_[sid].label; }
  // Some open stream has issued its every block and waits for writebacks.
  bool inLastMultiplies() const {
    for (const auto& st : streams_) {
      if (st.open && !st.faulted && st.total > 0 && st.issued == st.total &&
          st.written < st.total)
        return true;
    }
    return false;
  }

  aes::Tag128 digest(unsigned sid) const {
    aes::Tag128 d{};
    for (const auto& lane : streams_[sid].lanes) d = xorTags(d, lane);
    return d;
  }

  bool verifyAtRelease(unsigned sid) {
    const Stream& st = streams_[sid];
    if (!hardened_ || (parityOk(st) && keyOk(st.key_slot))) return true;
    faultStream(sid);
    return false;
  }

  void closeStream(unsigned sid) {
    streams_[sid] = Stream{};
    restamp(streams_[sid]);
    for (auto& s : stages_) {
      if (s.valid && s.stream == sid) s = GhashStageSlot{};
    }
  }

  std::vector<GhashScrubFinding> tick(std::uint64_t now) {
    std::vector<GhashScrubFinding> findings;
    GhashStageSlot& out = stages_[kGhashStages - 1];
    if (out.valid) {
      Stream& st = streams_[out.stream];
      if (st.open && !st.faulted) {
        st.lanes[out.lane] = out.z;
        ++st.written;
        restamp(st);
      }
    }
    for (unsigned s = kGhashStages - 1; s >= 1; --s)
      stages_[s] = compute(s, stages_[s - 1]);
    stages_[0] = GhashStageSlot{};
    for (unsigned k = 0; k < kGhashStreams; ++k) {
      const unsigned sid = (rr_ + k) % kGhashStreams;
      Stream& st = streams_[sid];
      if (!st.open || st.faulted || st.fifo.empty()) continue;
      const Key& key = keys_[st.key_slot];
      if (!key.valid || now < key.ready_at) continue;
      if (!keyOk(st.key_slot)) {
        findings.push_back({FaultSite::GhashKeyTable, st.key_slot, st.user,
                            "H-table checksum at issue; slot invalidated"});
        invalidateKey(st.key_slot);
        continue;
      }
      const std::uint64_t i = st.issued;
      GhashStageSlot slot;
      slot.valid = true;
      slot.stream = sid;
      slot.lane = static_cast<unsigned>(i % kGhashLanes);
      slot.key_slot = st.key_slot;
      slot.power = i + kGhashLanes >= st.total
                       ? static_cast<unsigned>(st.total - i) - 1
                       : kGhashLanes - 1;
      slot.x = xorTags(st.lanes[slot.lane], st.fifo.front());
      st.fifo.pop_front();
      slot.tag = st.label;
      slot.data_parity = dataParity(slot.x, slot.z);
      slot.tag_parity = labelParity(slot.tag);
      ++st.issued;
      rr_ = (sid + 1) % kGhashStreams;
      stages_[0] = compute(0, slot);
      break;
    }
    return findings;
  }

  std::vector<GhashScrubFinding> scrubFast() {
    std::vector<GhashScrubFinding> findings;
    if (!hardened_) return findings;
    for (unsigned i = 0; i < kGhashStages; ++i) {
      GhashStageSlot& s = stages_[i];
      if (!s.valid) continue;
      const bool tag_bad = s.tag_parity != labelParity(s.tag);
      const bool data_bad = s.data_parity != dataParity(s.x, s.z);
      if (!tag_bad && !data_bad) continue;
      const unsigned sid = s.stream;
      findings.push_back({tag_bad ? FaultSite::GhashStageTag
                                  : FaultSite::GhashStage,
                          i, streams_[sid].user,
                          "ghash stage " + std::to_string(i) +
                              " parity mismatch; stream faulted"});
      s = GhashStageSlot{};
      faultStream(sid);
    }
    for (unsigned sid = 0; sid < kGhashStreams; ++sid) {
      const Stream& st = streams_[sid];
      if (!st.open || st.faulted || parityOk(st)) continue;
      findings.push_back({FaultSite::GhashAcc, sid, st.user,
                          "stream " + std::to_string(sid) +
                              " accumulator parity mismatch; faulted"});
      faultStream(sid);
    }
    return findings;
  }

  std::optional<GhashScrubFinding> scrubKeySlot(unsigned slot) {
    if (!hardened_ || !keys_[slot].valid || keyOk(slot)) return std::nullopt;
    GhashScrubFinding f{FaultSite::GhashKeyTable, slot, 0,
                        "H-table checksum on slot " + std::to_string(slot) +
                            "; invalidated"};
    invalidateKey(slot);
    return f;
  }

  bool flipStage(unsigned stage, unsigned bit) {
    GhashStageSlot& s = stages_[stage % kGhashStages];
    if (!s.valid || bit >= 256) return false;
    aes::Tag128& t = bit < 128 ? s.x : s.z;
    t[bit % 128 / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    return true;
  }
  bool flipStageTag(unsigned stage, unsigned bit) {
    GhashStageSlot& s = stages_[stage % kGhashStages];
    if (!s.valid || bit >= 32) return false;
    flipLabelBit(s.tag, bit);
    return true;
  }
  bool flipAcc(unsigned sid, unsigned bit) {
    Stream& st = streams_[sid % kGhashStreams];
    if (!st.open || bit >= 128 * kGhashLanes) return false;
    aes::Tag128& lane = st.lanes[bit / 128];
    lane[bit % 128 / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    return true;
  }
  bool flipKeyTable(unsigned slot, unsigned bit) {
    Key& k = keys_[slot % kGhashKeySlots];
    if (!k.valid || bit >= kGhashLanes * 16 * 128) return false;
    return k.powers[bit / (16 * 128)].flipTableBit(bit / 128 % 16, bit % 128);
  }

  const GhashStageSlot& stage(unsigned i) const { return stages_[i]; }

  lattice::Conf meetConf() const {
    lattice::Conf m = lattice::Conf::top();
    for (const auto& s : stages_) {
      if (s.valid) m = m.meet(s.tag.c);
    }
    for (const auto& st : streams_) {
      if (st.open && (st.absorbed > 0 || st.issued > 0)) m = m.meet(st.label.c);
    }
    return m;
  }

 private:
  struct Key {
    bool valid = false;
    std::uint64_t ready_at = 0;
    std::vector<aes::GhashKey> powers, loaded;
    Label label{};
  };
  struct Stream {
    bool open = false, faulted = false, parity = false;
    unsigned user = 0, key_slot = 0;
    Label label{};
    std::uint64_t total = 0, absorbed = 0, issued = 0, written = 0;
    std::array<aes::Tag128, kGhashLanes> lanes{};
    std::deque<aes::Tag128> fifo;
  };

  GhashStageSlot compute(unsigned idx, GhashStageSlot s) const {
    if (!s.valid) return s;
    const Key& k = keys_[s.key_slot];
    if (!k.valid) return GhashStageSlot{};
    s.z = k.powers[s.power].mulSteps(s.x, s.z, 8 * idx, 8);
    s.data_parity = dataParity(s.x, s.z);
    return s;
  }
  bool keyOk(unsigned slot) const {
    const Key& k = keys_[slot];
    if (!hardened_ || !k.valid) return true;
    for (unsigned d = 0; d < kGhashLanes; ++d) {
      if (k.powers[d].table() != k.loaded[d].table()) return false;
    }
    return true;
  }
  static bool lanesParity(const Stream& st) {
    std::uint64_t acc = 0;
    for (const auto& lane : st.lanes) acc ^= fold128(lane);
    return parity64(acc) != labelParity(st.label);
  }
  static void restamp(Stream& st) { st.parity = lanesParity(st); }
  static bool parityOk(const Stream& st) {
    return st.parity == lanesParity(st);
  }
  void faultStream(unsigned sid) {
    Stream& st = streams_[sid];
    st.faulted = true;
    st.lanes = {};
    st.fifo.clear();
    restamp(st);
    for (auto& s : stages_) {
      if (s.valid && s.stream == sid) s = GhashStageSlot{};
    }
  }

  bool hardened_;
  std::array<Key, kGhashKeySlots> keys_{};
  std::array<Stream, kGhashStreams> streams_{};
  std::array<GhashStageSlot, kGhashStages> stages_{};
  unsigned rr_ = 0;
};

aes::Tag128 randomTag(Rng& rng) {
  aes::Tag128 t;
  for (auto& b : t) b = static_cast<std::uint8_t>(rng.next());
  return t;
}

void expectSameFindings(const std::vector<GhashScrubFinding>& lazy,
                        const std::vector<GhashScrubFinding>& eager,
                        unsigned step) {
  ASSERT_EQ(lazy.size(), eager.size()) << "step " << step;
  for (std::size_t i = 0; i < lazy.size(); ++i) {
    EXPECT_EQ(lazy[i].site, eager[i].site) << "step " << step;
    EXPECT_EQ(lazy[i].index, eager[i].index) << "step " << step;
    EXPECT_EQ(lazy[i].user, eager[i].user) << "step " << step;
    EXPECT_EQ(lazy[i].detail, eager[i].detail) << "step " << step;
  }
}

struct LazyGhash : ::testing::TestWithParam<bool> {};

TEST_P(LazyGhash, MatchesEagerUnitUnderFaults) {
  const bool hardened = GetParam();
  GhashUnit lazy{hardened};
  EagerGhash eager{hardened};
  Rng rng{hardened ? 0x9ba5e1u : 0x9ba5e0u};
  std::uint64_t now = 0;
  const auto loadKey = [&](unsigned slot) {
    const aes::Tag128 h = randomTag(rng);
    const Label label{Conf::category(slot + 1), Integ::top()};
    lazy.loadH(slot, h, label, now);
    eager.loadH(slot, h, label, now);
  };
  loadKey(0);
  loadKey(1);

  // The blocks each open stream has still to absorb.
  struct Feed {
    bool open = false;
    std::vector<aes::Tag128> blocks;
    std::size_t next = 0;
  };
  std::array<Feed, kGhashStreams> feeds{};
  unsigned released = 0, aborted = 0, detections = 0;
  unsigned stage_flips = 0, tag_flips = 0, acc_flips = 0, table_flips = 0;
  unsigned last_multiply_flips = 0;

  constexpr unsigned kSteps = 20000;
  for (unsigned step = 0; step < kSteps; ++step) {
    const auto r = rng.below(100);
    const bool last = eager.inLastMultiplies();
    if (r < 10) {
      const unsigned slot = static_cast<unsigned>(rng.below(2));
      const std::uint64_t total = 1 + rng.below(14);
      const unsigned user = 1 + static_cast<unsigned>(rng.below(3));
      const Label label{Conf::category(user), Integ::top()};
      const auto sl = lazy.openStream(user, slot, total, label);
      const auto se = eager.openStream(user, slot, total, label);
      ASSERT_EQ(sl, se) << "step " << step;
      if (sl) {
        Feed& f = feeds[*sl];
        f = Feed{true, {}, 0};
        for (std::uint64_t i = 0; i < total; ++i)
          f.blocks.push_back(randomTag(rng));
      }
    } else if (r < 12) {
      const unsigned st = static_cast<unsigned>(rng.below(kGhashStages));
      const unsigned bit = static_cast<unsigned>(rng.below(256));
      const bool hit = lazy.faultFlipStageBit(st, bit);
      ASSERT_EQ(hit, eager.flipStage(st, bit)) << "step " << step;
      stage_flips += hit;
    } else if (r < 14) {
      const unsigned st = static_cast<unsigned>(rng.below(kGhashStages));
      const unsigned bit = static_cast<unsigned>(rng.below(32));
      const bool hit = lazy.faultFlipStageTagBit(st, bit);
      ASSERT_EQ(hit, eager.flipStageTag(st, bit)) << "step " << step;
      tag_flips += hit;
    } else if (r < 16) {
      // Aim at an open stream when there is one.
      unsigned sid = static_cast<unsigned>(rng.below(kGhashStreams));
      for (unsigned k = 0; k < kGhashStreams && !feeds[sid].open; ++k)
        sid = (sid + 1) % kGhashStreams;
      const unsigned bit = static_cast<unsigned>(rng.below(128 * kGhashLanes));
      const bool hit = lazy.faultFlipAccBit(sid, bit);
      ASSERT_EQ(hit, eager.flipAcc(sid, bit)) << "step " << step;
      acc_flips += hit;
    } else if (r < 18 || (last && r < 30)) {
      const unsigned slot = static_cast<unsigned>(rng.below(2));
      const unsigned bit =
          static_cast<unsigned>(rng.below(kGhashLanes * 16 * 128));
      const bool hit = lazy.faultFlipKeyTableBit(slot, bit);
      ASSERT_EQ(hit, eager.flipKeyTable(slot, bit)) << "step " << step;
      table_flips += hit;
      last_multiply_flips += hit && last;
    } else if (r < 19) {
      loadKey(static_cast<unsigned>(rng.below(2)));
    } else if (r < 21) {
      const unsigned slot = static_cast<unsigned>(rng.below(2));
      const auto fl = lazy.scrubKeySlot(slot);
      const auto fe = eager.scrubKeySlot(slot);
      ASSERT_EQ(fl.has_value(), fe.has_value()) << "step " << step;
      if (fl) {
        expectSameFindings({*fl}, {*fe}, step);
        ++detections;
      }
    } else {
      // One clock: feed up to two blocks per stream, fast scrub, tick.
      for (unsigned sid = 0; sid < kGhashStreams; ++sid) {
        Feed& f = feeds[sid];
        for (unsigned k = rng.below(3); f.open && k > 0; --k) {
          if (f.next >= f.blocks.size()) break;
          const Label label{Conf::category(1 + sid % 3), Integ::top()};
          const bool took = lazy.absorb(sid, f.blocks[f.next], label);
          ASSERT_EQ(took, eager.absorb(sid, f.blocks[f.next], label))
              << "step " << step;
          if (!took) break;
          ++f.next;
        }
      }
      // Sometimes a flip rides a tick before any scrub sees it.
      std::vector<GhashScrubFinding> fl;
      if (rng.below(4) != 0) {
        fl = lazy.scrubFast();
        expectSameFindings(fl, eager.scrubFast(), step);
      }
      const auto tl = lazy.tick(now);
      expectSameFindings(tl, eager.tick(now), step);
      detections += static_cast<unsigned>(fl.size() + tl.size());
      ++now;
    }
    if (HasFailure()) return;

    // Release what is done, close what faulted.
    for (unsigned sid = 0; sid < kGhashStreams; ++sid) {
      Feed& f = feeds[sid];
      if (!f.open) continue;
      ASSERT_EQ(lazy.faulted(sid), eager.faulted(sid)) << "step " << step;
      ASSERT_EQ(lazy.done(sid), eager.done(sid)) << "step " << step;
      ASSERT_EQ(lazy.fifoSpace(sid), eager.fifoSpace(sid)) << "step " << step;
      ASSERT_EQ(lazy.label(sid), eager.label(sid)) << "step " << step;
      if (!lazy.faulted(sid) && !lazy.done(sid)) continue;
      if (!lazy.faulted(sid)) {
        const bool ok = lazy.verifyAtRelease(sid);
        ASSERT_EQ(ok, eager.verifyAtRelease(sid)) << "step " << step;
        if (ok) {
          ASSERT_EQ(lazy.digest(sid), eager.digest(sid)) << "step " << step;
          ++released;
        } else {
          ++aborted;
        }
      } else {
        ++aborted;
      }
      lazy.closeStream(sid);
      eager.closeStream(sid);
      f.open = false;
    }
    ASSERT_EQ(lazy.meetConf(), eager.meetConf()) << "step " << step;
    for (unsigned i = 0; i < kGhashStages; ++i) {
      const GhashStageSlot l = lazy.stage(i);
      const GhashStageSlot& e = eager.stage(i);
      ASSERT_EQ(l.valid, e.valid) << "step " << step << " stage " << i;
      if (!l.valid) continue;
      EXPECT_FALSE(l.lazy);
      EXPECT_EQ(l.stream, e.stream) << "step " << step << " stage " << i;
      EXPECT_EQ(l.lane, e.lane) << "step " << step << " stage " << i;
      EXPECT_EQ(l.power, e.power) << "step " << step << " stage " << i;
      EXPECT_EQ(l.x, e.x) << "step " << step << " stage " << i;
      EXPECT_EQ(l.z, e.z) << "step " << step << " stage " << i;
      EXPECT_EQ(l.tag, e.tag) << "step " << step << " stage " << i;
      EXPECT_EQ(l.data_parity, e.data_parity)
          << "step " << step << " stage " << i;
      EXPECT_EQ(l.tag_parity, e.tag_parity)
          << "step " << step << " stage " << i;
    }
    if (HasFailure()) return;
  }
  EXPECT_GT(released, 100u);
  EXPECT_GT(aborted, 20u);
  EXPECT_GT(stage_flips, 30u);
  EXPECT_GT(tag_flips, 15u);
  EXPECT_GT(acc_flips, 15u);
  EXPECT_GT(table_flips, 30u);
  EXPECT_GT(last_multiply_flips, 5u);
  if (hardened) {
    EXPECT_GT(detections, 50u);
  } else {
    EXPECT_EQ(detections, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    BothHardenings, LazyGhash, ::testing::Values(true, false),
    [](const ::testing::TestParamInfo<bool>& info) -> std::string {
      return info.param ? "Hardened" : "Unhardened";
    });

}  // namespace
}  // namespace aesifc::accel
