#include "accel/ghash_unit.h"

#include <bit>
#include <cstring>


namespace aesifc::accel {

namespace {

aes::Tag128 xorTags(aes::Tag128 a, const aes::Tag128& b) {
  for (unsigned i = 0; i < 16; ++i) a[i] ^= b[i];
  return a;
}

bool tagDataParity(const aes::Tag128& x, const aes::Tag128& z) {
  return parity64(fold128(x) ^ fold128(z));
}

// Parity of every lane accumulator's bits together.
bool lanesParity(const std::array<aes::Tag128, kGhashLanes>& lanes) {
  std::uint64_t acc = 0;
  for (const auto& lane : lanes) acc ^= fold128(lane);
  return parity64(acc);
}

void stampStage(GhashStageSlot& s) {
  s.data_parity = tagDataParity(s.x, s.z);
  s.tag_parity = labelParity(s.tag);
}

}  // namespace

std::uint64_t GhashUnit::keyChecksum(const KeySlot& k) const {
  // The storage checksum over every table entry, 8 bytes per step, then
  // the label masks. It is not linear, so two upsets in one table cancel
  // only by chance.
  std::uint64_t acc = kChecksumBasis;
  for (const auto& p : k.powers) {
    for (const auto& entry : p.table()) {
      std::uint64_t lo, hi;
      std::memcpy(&lo, entry.data(), 8);
      std::memcpy(&hi, entry.data() + 8, 8);
      acc = checksumStep(checksumStep(acc, lo), hi);
    }
  }
  acc = checksumStep(acc, k.label.c.cats.mask());
  acc = checksumStep(acc, k.label.i.cats.mask());
  return acc;
}

void GhashUnit::loadH(unsigned key_slot, const aes::Tag128& h, Label label,
                      std::uint64_t now) {
  invalidateKey(key_slot);  // voids streams bound to any previous H
  KeySlot& k = keys_.at(key_slot);
  k.powers.clear();
  k.powers.reserve(kGhashLanes);
  aes::Tag128 hp = h;
  for (unsigned d = 0; d < kGhashLanes; ++d) {
    k.powers.emplace_back(hp);
    hp = aes::gf128Mul(hp, h);
  }
  k.label = label;
  k.valid = true;
  k.ready_at = now + kGhashLanes;  // power-table build latency
  k.checksum = keyChecksum(k);
  k.verified = true;
}

void GhashUnit::invalidateKey(unsigned key_slot) {
  KeySlot& k = keys_.at(key_slot);
  k.valid = false;
  k.powers.clear();
  k.checksum = 0;
  // Streams hashing under this H can never complete; fault them so their
  // owners' operations abort instead of hanging.
  for (unsigned s = 0; s < kGhashStreams; ++s) {
    if (streams_[s].open && streams_[s].key_slot == key_slot) faultStream(s);
  }
  for (auto& st : stages_) {
    if (st.valid && st.key_slot == key_slot) st = GhashStageSlot{};
  }
}

bool GhashUnit::keyValid(unsigned key_slot) const {
  return keys_.at(key_slot).valid;
}

bool GhashUnit::keyReady(unsigned key_slot, std::uint64_t now) const {
  const KeySlot& k = keys_.at(key_slot);
  return k.valid && now >= k.ready_at;
}

std::optional<unsigned> GhashUnit::openStream(unsigned user, unsigned key_slot,
                                              std::uint64_t total_blocks,
                                              Label label) {
  if (key_slot >= kGhashKeySlots || !keys_[key_slot].valid)
    return std::nullopt;
  for (unsigned s = 0; s < kGhashStreams; ++s) {
    Stream& st = streams_[s];
    if (st.open) continue;
    resetStream(st);
    st.open = true;
    st.lazy = true;
    st.user = user;
    st.key_slot = key_slot;
    // Running tag starts at join(label(data), label(H)) and only ever
    // rises as blocks are absorbed.
    st.label = label.join(keys_[key_slot].label);
    st.total = total_blocks;
    return s;
  }
  return std::nullopt;
}

bool GhashUnit::absorb(unsigned stream, const aes::Tag128& block,
                       const Label& label) {
  Stream& st = streams_.at(stream);
  if (!st.open || st.faulted) return false;
  if (st.absorbed >= st.total) return false;
  if (st.absorbed - st.issued >= kGhashFifoDepth) return false;
  st.blocks.push_back(block);
  ++st.absorbed;
  st.label = st.label.join(label);
  if (!st.lazy) restampStream(st);
  return true;
}

std::size_t GhashUnit::fifoSpace(unsigned stream) const {
  const Stream& st = streams_.at(stream);
  if (!st.open || st.faulted) return 0;
  return kGhashFifoDepth - static_cast<std::size_t>(st.absorbed - st.issued);
}

bool GhashUnit::done(unsigned stream) const {
  const Stream& st = streams_.at(stream);
  return st.open && !st.faulted && st.written == st.total;
}

aes::Tag128 GhashUnit::digest(unsigned stream) {
  materialize(stream);
  const Stream& st = streams_[stream];
  aes::Tag128 d{};
  for (const auto& lane : st.lanes) d = xorTags(d, lane);
  return d;
}

bool GhashUnit::verifyAtRelease(unsigned stream) {
  // The H table is checked again too: a flip that lands while the stream's
  // last multiplies are in flight passes every issue check, and the product
  // it corrupts is stamped with fresh stage parity. The slow ring still
  // finds and reports the flip; the stream only faults here.
  const Stream& st = streams_.at(stream);
  if (!hardened_ || (streamParityOk(st) && keySlotOk(st.key_slot)))
    return true;
  faultStream(stream);
  return false;
}

void GhashUnit::closeStream(unsigned stream) {
  Stream& st = streams_.at(stream);
  resetStream(st);  // zeroizes lanes and FIFO
  restampStream(st);
  for (auto& s : stages_) {
    if (s.valid && s.stream == stream) s = GhashStageSlot{};
  }
}

lattice::Conf GhashUnit::meetConf() const {
  lattice::Conf m = lattice::Conf::top();
  for (const auto& s : stages_) {
    if (s.valid) m = m.meet(s.tag.c);
  }
  for (const auto& st : streams_) {
    if (st.open && (st.absorbed > 0 || st.issued > 0))
      m = m.meet(st.label.c);
  }
  return m;
}

GhashStageSlot GhashUnit::computeStage(unsigned idx, GhashStageSlot s) const {
  if (!s.valid) return s;
  const KeySlot& k = keys_[s.key_slot];
  if (!k.valid || s.power >= k.powers.size()) return GhashStageSlot{};
  if (s.lazy) return s;
  // 8 of the 32 nibble-steps of the Shoup multiply — the exact host
  // algorithm, restarted at this stage's step boundary.
  s.z = k.powers[s.power].mulSteps(s.x, s.z, 8 * idx, 8);
  s.data_parity = tagDataParity(s.x, s.z);
  return s;
}

unsigned GhashUnit::powerOf(const Stream& st, std::uint64_t i) {
  // Lane Horner: interior blocks multiply by H^d; the last block of each
  // lane by H^(n - i), which makes the final digest the plain XOR of the
  // lanes (exponents n-i are exactly what GHASH assigns block i).
  const bool lane_last = i + kGhashLanes >= st.total;
  return lane_last ? static_cast<unsigned>(st.total - i) - 1 : kGhashLanes - 1;
}

std::array<aes::Tag128, kGhashLanes> GhashUnit::lanesAfter(
    const Stream& st, std::uint64_t n) const {
  // A lane's next block issues only after its previous one is written
  // back, so each lane is the plain Horner chain over its blocks.
  const auto& powers = keys_[st.key_slot].powers;
  std::array<aes::Tag128, kGhashLanes> lanes{};
  for (std::uint64_t i = 0; i < n; ++i) {
    aes::Tag128& lane = lanes[i % kGhashLanes];
    lane = powers[powerOf(st, i)].mul(xorTags(lane, st.blocks[i]));
  }
  return lanes;
}

GhashStageSlot GhashUnit::replayStage(
    unsigned idx, GhashStageSlot s,
    const std::array<aes::Tag128, kGhashLanes>& lanes) const {
  // The lane the block read at issue is the lane now: its next writeback is
  // this block's own.
  s.x = xorTags(lanes[s.lane], streams_[s.stream].blocks[s.block]);
  s.z = keys_[s.key_slot].powers[s.power].mulSteps(s.x, aes::Tag128{}, 0,
                                                   8 * (idx + 1));
  s.data_parity = tagDataParity(s.x, s.z);
  s.lazy = false;
  return s;
}

void GhashUnit::materialize(unsigned sid) {
  Stream& st = streams_[sid];
  if (!st.lazy) return;
  st.lanes = lanesAfter(st, st.written);
  for (unsigned i = 0; i < kGhashStages; ++i) {
    GhashStageSlot& s = stages_[i];
    if (s.valid && s.stream == sid) s = replayStage(i, s, st.lanes);
  }
  st.lazy = false;
  restampStream(st);
}

GhashStageSlot GhashUnit::stage(unsigned i) const {
  const GhashStageSlot& s = stages_.at(i);
  if (!s.lazy) return s;
  const Stream& st = streams_[s.stream];
  return replayStage(i, s, lanesAfter(st, st.written));
}

void GhashUnit::resetStream(Stream& st) {
  std::vector<aes::Tag128> blocks = std::move(st.blocks);
  blocks.clear();
  st = Stream{};
  st.blocks = std::move(blocks);
}

bool GhashUnit::idle() const {
  // An empty stage slot is always GhashStageSlot{} (every path that empties
  // one assigns that), so with no stage valid and no stream open a tick
  // and a fast scrub change nothing.
  return !anyValid() && activeStreams() == 0;
}

std::vector<GhashScrubFinding> GhashUnit::tick(std::uint64_t now) {
  std::vector<GhashScrubFinding> findings;
  if (idle()) return findings;

  // Writeback: the slot leaving the last stage has all 32 steps applied
  // (a lazy stream only counts it).
  GhashStageSlot& out = stages_[kGhashStages - 1];
  if (out.valid) {
    Stream& st = streams_[out.stream];
    if (st.open && !st.faulted) {
      ++st.written;
      if (!st.lazy) {
        st.lanes[out.lane] = out.z;
        restampStream(st);
      }
    }
  }

  // Shift: each slot advances one stage, computing its 8 steps on entry.
  for (unsigned s = kGhashStages - 1; s >= 1; --s) {
    stages_[s] = computeStage(s, stages_[s - 1]);
  }
  stages_[0] = GhashStageSlot{};
  suspect_stages_ = (suspect_stages_ << 1) & ((1u << kGhashStages) - 1);

  // Issue: round-robin over streams with a pending block and a ready H.
  for (unsigned k = 0; k < kGhashStreams; ++k) {
    const unsigned sid = (issue_rr_ + k) % kGhashStreams;
    Stream& st = streams_[sid];
    if (!st.open || st.faulted || st.absorbed == st.issued) continue;
    const KeySlot& key = keys_[st.key_slot];
    if (!key.valid || now < key.ready_at) continue;
    if (!keySlotOk(st.key_slot)) {
      // Point of use: never multiply by a corrupted table.
      findings.push_back({FaultSite::GhashKeyTable, st.key_slot, st.user,
                          "H-table checksum at issue; slot invalidated"});
      invalidateKey(st.key_slot);  // faults this stream (and its siblings)
      continue;
    }
    const std::uint64_t i = st.issued;
    GhashStageSlot slot;
    slot.valid = true;
    slot.stream = sid;
    slot.lane = static_cast<unsigned>(i % kGhashLanes);
    slot.key_slot = st.key_slot;
    slot.power = powerOf(st, i);
    slot.block = i;
    slot.tag = st.label;
    slot.lazy = st.lazy;
    if (slot.lazy) {
      slot.tag_parity = labelParity(slot.tag);
    } else {
      slot.x = xorTags(st.lanes[slot.lane], st.blocks[i]);
      stampStage(slot);
    }
    ++st.issued;
    ++blocks_;
    issue_rr_ = (sid + 1) % kGhashStreams;
    stages_[0] = computeStage(0, slot);
    break;
  }
  return findings;
}

bool GhashUnit::faultFlipStageBit(unsigned stage, unsigned bit) {
  const unsigned i = stage % kGhashStages;
  GhashStageSlot& s = stages_[i];
  if (!s.valid || bit >= 256) return false;
  // The flipped product reaches its lane and every later block of it.
  materialize(s.stream);
  aes::Tag128& t = bit < 128 ? s.x : s.z;
  const unsigned b = bit % 128;
  t[b / 8] ^= static_cast<std::uint8_t>(1u << (b % 8));
  suspect_stages_ |= static_cast<std::uint8_t>(1u << i);
  return true;
}

bool GhashUnit::faultFlipStageTagBit(unsigned stage, unsigned bit) {
  const unsigned i = stage % kGhashStages;
  GhashStageSlot& s = stages_[i];
  if (!s.valid || bit >= 32) return false;
  flipLabelBit(s.tag, bit);
  suspect_stages_ |= static_cast<std::uint8_t>(1u << i);
  return true;
}

bool GhashUnit::faultFlipAccBit(unsigned stream, unsigned bit) {
  const unsigned sid = stream % kGhashStreams;
  Stream& st = streams_[sid];
  if (!st.open || bit >= 128 * kGhashLanes) return false;
  materialize(sid);
  aes::Tag128& lane = st.lanes[bit / 128];
  const unsigned b = bit % 128;
  lane[b / 8] ^= static_cast<std::uint8_t>(1u << (b % 8));
  suspect_streams_ |= static_cast<std::uint8_t>(1u << sid);
  return true;
}

bool GhashUnit::faultFlipKeyTableBit(unsigned slot, unsigned bit) {
  const unsigned ks = slot % kGhashKeySlots;
  KeySlot& k = keys_[ks];
  const unsigned total = kGhashLanes * 16 * 128;
  if (!k.valid || bit >= total) return false;
  // Multiplies already done used the table as it was; the stage steps from
  // now on read the flipped entry.
  for (unsigned sid = 0; sid < kGhashStreams; ++sid) {
    if (streams_[sid].open && streams_[sid].key_slot == ks) materialize(sid);
  }
  const unsigned power = bit / (16 * 128);
  const unsigned entry = (bit / 128) % 16;
  k.verified = false;
  return k.powers[power].flipTableBit(entry, bit % 128);
}

bool GhashUnit::faultFlipKeyLabelBit(unsigned slot, unsigned bit) {
  KeySlot& k = keys_.at(slot % kGhashKeySlots);
  if (!k.valid || bit >= 32) return false;
  k.verified = false;
  flipLabelBit(k.label, bit);
  return true;
}

void GhashUnit::restampStream(Stream& st) {
  st.parity = lanesParity(st.lanes) != labelParity(st.label);
}

bool GhashUnit::streamParityOk(const Stream& st) const {
  // A lazy stream's lanes are computed from its blocks when needed, so
  // their parity holds by construction.
  return st.lazy ||
         st.parity == (lanesParity(st.lanes) != labelParity(st.label));
}

void GhashUnit::faultStream(unsigned sid) {
  Stream& st = streams_[sid];
  st.faulted = true;
  // Fail secure: zeroize the partial digest and pending blocks; nothing of
  // the stream's state is consulted again.
  st.lanes = {};
  st.blocks.clear();
  st.lazy = false;
  restampStream(st);
  for (auto& s : stages_) {
    if (s.valid && s.stream == sid) s = GhashStageSlot{};
  }
}

std::vector<GhashScrubFinding> GhashUnit::scrubFast() {
  std::vector<GhashScrubFinding> findings;
  if (!hardened_) return findings;
  for (; suspect_stages_ != 0; suspect_stages_ &= suspect_stages_ - 1) {
    const unsigned i = static_cast<unsigned>(std::countr_zero(suspect_stages_));
    GhashStageSlot& s = stages_[i];
    if (!s.valid) continue;
    const bool tag_bad = s.tag_parity != labelParity(s.tag);
    const bool data_bad =
        !s.lazy && s.data_parity != tagDataParity(s.x, s.z);
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
  for (; suspect_streams_ != 0; suspect_streams_ &= suspect_streams_ - 1) {
    const unsigned sid =
        static_cast<unsigned>(std::countr_zero(suspect_streams_));
    Stream& st = streams_[sid];
    if (!st.open || st.faulted) continue;
    if (streamParityOk(st)) continue;
    findings.push_back({FaultSite::GhashAcc, sid, st.user,
                        "stream " + std::to_string(sid) +
                            " accumulator parity mismatch; faulted"});
    faultStream(sid);
  }
  return findings;
}

bool GhashUnit::keySlotOk(unsigned slot) const {
  const KeySlot& k = keys_.at(slot);
  if (!hardened_ || !k.valid || k.verified) return true;
  k.verified = keyChecksum(k) == k.checksum;
  return k.verified;
}

std::optional<GhashScrubFinding> GhashUnit::scrubKeySlot(unsigned slot) {
  if (keySlotOk(slot)) return std::nullopt;
  GhashScrubFinding f{FaultSite::GhashKeyTable, slot, 0,
                      "H-table checksum on slot " + std::to_string(slot) +
                          "; invalidated"};
  invalidateKey(slot);
  return f;
}

unsigned GhashUnit::activeStreams() const {
  unsigned n = 0;
  for (const auto& st : streams_) {
    if (st.open) ++n;
  }
  return n;
}

bool GhashUnit::anyValid() const {
  for (const auto& s : stages_) {
    if (s.valid) return true;
  }
  return false;
}

}  // namespace aesifc::accel
