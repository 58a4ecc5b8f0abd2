#include "accel/ghash_unit.h"

#include <cstring>

#include "lattice/downgrade.h"

namespace aesifc::accel {

namespace {

aes::Tag128 xorTags(aes::Tag128 a, const aes::Tag128& b) {
  for (unsigned i = 0; i < 16; ++i) a[i] ^= b[i];
  return a;
}

bool tagDataParity(const aes::Tag128& x, const aes::Tag128& z) {
  std::uint8_t acc = 0;
  for (auto b : x) acc ^= b;
  for (auto b : z) acc ^= b;
  return parity64(acc);
}

void stampStage(GhashStageSlot& s) {
  s.data_parity = tagDataParity(s.x, s.z);
  s.tag_parity = labelParity(s.tag);
}

}  // namespace

std::uint64_t GhashUnit::keyChecksum(const KeySlot& k) const {
  // Rotate-xor fold, 8 table bytes per step, then the label masks. The fold
  // is linear over GF(2) and each step's rotation is a bijection, so any
  // single flipped bit moves exactly one digest bit: single-event upsets
  // are always detected.
  const auto step = [](std::uint64_t acc, std::uint64_t word) {
    return (acc << 7 | acc >> 57) ^ word;
  };
  std::uint64_t acc = 0x9e3779b97f4a7c15ull;
  for (const auto& p : k.powers) {
    for (const auto& entry : p.table()) {
      std::uint64_t lo, hi;
      std::memcpy(&lo, entry.data(), 8);
      std::memcpy(&hi, entry.data() + 8, 8);
      acc = step(step(acc, lo), hi);
    }
  }
  acc = step(acc, k.label.c.cats.mask());
  acc = step(acc, k.label.i.cats.mask());
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

const Label& GhashUnit::keyLabel(unsigned key_slot) const {
  return keys_.at(key_slot).label;
}

std::optional<unsigned> GhashUnit::openStream(unsigned user, unsigned key_slot,
                                              std::uint64_t total_blocks,
                                              Label label) {
  if (key_slot >= kGhashKeySlots || !keys_[key_slot].valid)
    return std::nullopt;
  for (unsigned s = 0; s < kGhashStreams; ++s) {
    Stream& st = streams_[s];
    if (st.open) continue;
    st = Stream{};
    st.open = true;
    st.user = user;
    st.key_slot = key_slot;
    // Running tag starts at join(label(data), label(H)) and only ever
    // rises as blocks are absorbed.
    st.label = label.join(keys_[key_slot].label);
    st.total = total_blocks;
    restampStream(st);
    return s;
  }
  return std::nullopt;
}

bool GhashUnit::absorb(unsigned stream, const aes::Tag128& block,
                       const Label& label) {
  Stream& st = streams_.at(stream);
  if (!st.open || st.faulted) return false;
  if (st.absorbed >= st.total) return false;
  if (st.fifo.size() >= kGhashFifoDepth) return false;
  st.fifo.push_back(block);
  ++st.absorbed;
  st.label = st.label.join(label);
  restampStream(st);
  return true;
}

std::size_t GhashUnit::fifoSpace(unsigned stream) const {
  const Stream& st = streams_.at(stream);
  if (!st.open || st.faulted) return 0;
  return kGhashFifoDepth - st.fifo.size();
}

bool GhashUnit::done(unsigned stream) const {
  const Stream& st = streams_.at(stream);
  return st.open && !st.faulted && st.written == st.total;
}

aes::Tag128 GhashUnit::digestInternal(unsigned stream) const {
  const Stream& st = streams_.at(stream);
  aes::Tag128 d{};
  for (const auto& lane : st.lanes) d = xorTags(d, lane);
  return d;
}

GhashUnit::ReleaseResult GhashUnit::release(unsigned stream,
                                            const Principal& p) {
  Stream& st = streams_.at(stream);
  if (!st.open) return {ReleaseStatus::NotReady, {}, "stream not open"};
  if (st.faulted) return {ReleaseStatus::Faulted, {}, "stream faulted"};
  if (st.written != st.total)
    return {ReleaseStatus::NotReady, {}, "blocks still in flight"};
  if (hardened_ && !streamParityOk(st)) {
    // Point of use: never consult a lane accumulator or label whose parity
    // no longer matches.
    faultStream(stream);
    return {ReleaseStatus::Faulted, {}, "accumulator parity at release"};
  }
  // Nonmalleable declassification, same rule as the pipeline exit: the
  // digest carries (c, i); it leaves as (bottom, i) only when p may
  // declassify it (Eq. 1).
  const Label from = st.label;
  const Label to{lattice::Conf::bottom(), from.i};
  const auto decision = lattice::checkDeclassify(from, to, p);
  if (!decision.allowed) return {ReleaseStatus::Refused, {}, decision.reason};
  return {ReleaseStatus::Ok, digestInternal(stream), {}};
}

void GhashUnit::closeStream(unsigned stream) {
  Stream& st = streams_.at(stream);
  st = Stream{};  // zeroizes lanes and FIFO
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
  // 8 of the 32 nibble-steps of the Shoup multiply — the exact host
  // algorithm, restarted at this stage's step boundary.
  s.z = k.powers[s.power].mulSteps(s.x, s.z, 8 * idx, 8);
  s.data_parity = tagDataParity(s.x, s.z);
  return s;
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

  // Writeback: the slot leaving the last stage has all 32 steps applied.
  GhashStageSlot& out = stages_[kGhashStages - 1];
  if (out.valid) {
    Stream& st = streams_[out.stream];
    if (st.open && !st.faulted) {
      st.lanes[out.lane] = out.z;
      ++st.written;
      restampStream(st);
    }
  }

  // Shift: each slot advances one stage, computing its 8 steps on entry.
  for (unsigned s = kGhashStages - 1; s >= 1; --s) {
    stages_[s] = computeStage(s, stages_[s - 1]);
  }
  stages_[0] = GhashStageSlot{};

  // Issue: round-robin over streams with a pending block and a ready H.
  for (unsigned k = 0; k < kGhashStreams; ++k) {
    const unsigned sid = (issue_rr_ + k) % kGhashStreams;
    Stream& st = streams_[sid];
    if (!st.open || st.faulted || st.fifo.empty()) continue;
    const KeySlot& key = keys_[st.key_slot];
    if (!key.valid || now < key.ready_at) continue;
    if (hardened_ && keyChecksum(key) != key.checksum) {
      // Point of use: never multiply by a corrupted table.
      findings.push_back({FaultSite::GhashKeyTable, st.key_slot, st.user,
                          "H-table checksum at issue; slot invalidated"});
      invalidateKey(st.key_slot);  // faults this stream (and its siblings)
      continue;
    }
    const std::uint64_t i = st.issued;
    const unsigned lane = static_cast<unsigned>(i % kGhashLanes);
    // Lane Horner: interior blocks multiply by H^d; the last block of each
    // lane by H^(n - i), which makes the final digest the plain XOR of the
    // lanes (exponents n-i are exactly what GHASH assigns block i).
    const bool lane_last = i + kGhashLanes >= st.total;
    const unsigned power =
        lane_last ? static_cast<unsigned>(st.total - i) - 1 : kGhashLanes - 1;
    GhashStageSlot slot;
    slot.valid = true;
    slot.stream = sid;
    slot.lane = lane;
    slot.key_slot = st.key_slot;
    slot.power = power;
    slot.x = xorTags(st.lanes[lane], st.fifo.front());
    st.fifo.pop_front();
    slot.z = aes::Tag128{};
    slot.tag = st.label;
    stampStage(slot);
    ++st.issued;
    ++blocks_;
    issue_rr_ = (sid + 1) % kGhashStreams;
    stages_[0] = computeStage(0, slot);
    break;
  }
  return findings;
}

bool GhashUnit::faultFlipStageBit(unsigned stage, unsigned bit) {
  GhashStageSlot& s = stages_.at(stage % kGhashStages);
  if (!s.valid || bit >= 256) return false;
  aes::Tag128& t = bit < 128 ? s.x : s.z;
  const unsigned b = bit % 128;
  t[b / 8] ^= static_cast<std::uint8_t>(1u << (b % 8));
  return true;
}

bool GhashUnit::faultFlipStageTagBit(unsigned stage, unsigned bit) {
  GhashStageSlot& s = stages_.at(stage % kGhashStages);
  if (!s.valid || bit >= 32) return false;
  flipLabelBit(s.tag, bit);
  return true;
}

bool GhashUnit::faultFlipAccBit(unsigned stream, unsigned bit) {
  Stream& st = streams_.at(stream % kGhashStreams);
  if (!st.open || bit >= 128 * kGhashLanes) return false;
  aes::Tag128& lane = st.lanes[bit / 128];
  const unsigned b = bit % 128;
  lane[b / 8] ^= static_cast<std::uint8_t>(1u << (b % 8));
  return true;
}

bool GhashUnit::faultFlipKeyTableBit(unsigned slot, unsigned bit) {
  KeySlot& k = keys_.at(slot % kGhashKeySlots);
  const unsigned total = kGhashLanes * 16 * 128;
  if (!k.valid || bit >= total) return false;
  const unsigned power = bit / (16 * 128);
  const unsigned entry = (bit / 128) % 16;
  return k.powers[power].flipTableBit(entry, bit % 128);
}

bool GhashUnit::faultFlipKeyLabelBit(unsigned slot, unsigned bit) {
  KeySlot& k = keys_.at(slot % kGhashKeySlots);
  if (!k.valid || bit >= 32) return false;
  flipLabelBit(k.label, bit);
  return true;
}

void GhashUnit::restampStream(Stream& st) {
  std::uint8_t acc = 0;
  for (const auto& lane : st.lanes) {
    for (auto b : lane) acc ^= b;
  }
  st.parity = parity64(acc) != labelParity(st.label);
}

bool GhashUnit::streamParityOk(const Stream& st) const {
  std::uint8_t acc = 0;
  for (const auto& lane : st.lanes) {
    for (auto b : lane) acc ^= b;
  }
  return st.parity == (parity64(acc) != labelParity(st.label));
}

void GhashUnit::faultStream(unsigned sid) {
  Stream& st = streams_[sid];
  st.faulted = true;
  // Fail secure: zeroize the partial digest and pending blocks; nothing of
  // the stream's state is consulted again.
  st.lanes = {};
  st.fifo.clear();
  restampStream(st);
  for (auto& s : stages_) {
    if (s.valid && s.stream == sid) s = GhashStageSlot{};
  }
}

std::vector<GhashScrubFinding> GhashUnit::scrubFast() {
  std::vector<GhashScrubFinding> findings;
  if (!hardened_ || idle()) return findings;
  for (unsigned i = 0; i < kGhashStages; ++i) {
    GhashStageSlot& s = stages_[i];
    if (!s.valid) continue;
    const bool tag_bad = s.tag_parity != labelParity(s.tag);
    const bool data_bad = s.data_parity != tagDataParity(s.x, s.z);
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

std::optional<GhashScrubFinding> GhashUnit::scrubKeySlot(unsigned slot) {
  if (!hardened_) return std::nullopt;
  KeySlot& k = keys_.at(slot);
  if (!k.valid || keyChecksum(k) == k.checksum) return std::nullopt;
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
