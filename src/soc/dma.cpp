#include "soc/dma.h"

#include <algorithm>
#include <stdexcept>

#include "accel/key_store.h"
#include "aes/modes.h"

namespace aesifc::soc {

// ---------------------------------------------------------------------------
// HostMemory
// ---------------------------------------------------------------------------

HostMemory::HostMemory(std::size_t bytes)
    : mem_(bytes, 0),
      page_labels_((bytes + kPageBytes - 1) / kPageBytes,
                   lattice::Label::publicTrusted()) {}

void HostMemory::setPageLabel(std::size_t addr, std::size_t len,
                              const lattice::Label& l) {
  if (len == 0) return;  // empty span touches no page
  // Validate the whole range up front — the call either labels every page
  // the span touches or throws with no label changed. `len > size - addr`
  // also catches addr + len wrapping past SIZE_MAX.
  if (addr >= mem_.size() || len > mem_.size() - addr) {
    throw std::out_of_range("HostMemory::setPageLabel: span outside memory");
  }
  for (std::size_t p = addr / kPageBytes; p <= (addr + len - 1) / kPageBytes;
       ++p) {
    page_labels_[p] = l;
  }
}

const lattice::Label& HostMemory::pageLabel(std::size_t addr) const {
  return page_labels_.at(addr / kPageBytes);
}

void HostMemory::writeBytes(std::size_t addr,
                            const std::vector<std::uint8_t>& data) {
  for (std::size_t i = 0; i < data.size(); ++i) mem_.at(addr + i) = data[i];
}

std::vector<std::uint8_t> HostMemory::readBytes(std::size_t addr,
                                                std::size_t len) const {
  std::vector<std::uint8_t> out(len);
  for (std::size_t i = 0; i < len; ++i) out[i] = mem_.at(addr + i);
  return out;
}

std::uint32_t HostMemory::read32(std::size_t addr) const {
  std::uint32_t v = 0;
  for (unsigned i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(mem_.at(addr + i)) << (8 * i);
  return v;
}

void HostMemory::write32(std::size_t addr, std::uint32_t v) {
  for (unsigned i = 0; i < 4; ++i)
    mem_.at(addr + i) = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint64_t HostMemory::read64(std::size_t addr) const {
  std::uint64_t v = 0;
  for (unsigned i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(mem_.at(addr + i)) << (8 * i);
  return v;
}

void HostMemory::write64(std::size_t addr, std::uint64_t v) {
  for (unsigned i = 0; i < 8; ++i)
    mem_.at(addr + i) = static_cast<std::uint8_t>(v >> (8 * i));
}

// ---------------------------------------------------------------------------
// DmaError
// ---------------------------------------------------------------------------

std::string toString(DmaError e) {
  switch (e) {
    case DmaError::None: return "ok";
    case DmaError::BadRange: return "bad-range";
    case DmaError::UnalignedLength: return "unaligned-length";
    case DmaError::OverlapDenied: return "overlap-denied";
    case DmaError::SrcPageDenied: return "src-page-denied";
    case DmaError::DstPageDenied: return "dst-page-denied";
    case DmaError::RingPageDenied: return "ring-page-denied";
    case DmaError::BadDescriptor: return "bad-descriptor";
    case DmaError::BadChecksum: return "bad-checksum";
    case DmaError::OobNextPointer: return "oob-next-pointer";
    case DmaError::ChainLoop: return "chain-loop";
    case DmaError::ChainTooLong: return "chain-too-long";
    case DmaError::TornOwnership: return "torn-ownership";
    case DmaError::StaleGeneration: return "stale-generation";
    case DmaError::CompletionOverflow: return "completion-overflow";
    case DmaError::RingStalled: return "ring-stalled";
    case DmaError::OutputSuppressed: return "output-suppressed";
    case DmaError::FaultAborted: return "fault-aborted";
    case DmaError::Rejected: return "rejected";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Validation helpers
// ---------------------------------------------------------------------------

namespace {

// Ring-engine timing and recovery budgets, the same for every channel.
constexpr unsigned kRingMaxResubmits = 2;   // whole-descriptor recoveries
constexpr unsigned kRingFetchCycles = 2;    // fetch + validate one segment
constexpr unsigned kRingPollInterval = 8;   // idle head poll cadence
                                            // (a doorbell skips it)
constexpr unsigned kRingBlockRetryCap = 8;  // per-chain transient block
                                            // resubmits

std::uint16_t rd16(const HostMemory& m, std::size_t a) {
  return static_cast<std::uint16_t>(m.read8(a) |
                                    (static_cast<unsigned>(m.read8(a + 1))
                                     << 8));
}

void wr16(HostMemory& m, std::size_t a, std::uint16_t v) {
  m.write8(a, static_cast<std::uint8_t>(v & 0xff));
  m.write8(a + 1, static_cast<std::uint8_t>(v >> 8));
}

bool rangeOk(const HostMemory& mem, std::size_t addr, std::size_t len) {
  return len > 0 && addr < mem.size() && len <= mem.size() - addr;
}

// Exact in-place (src == dst) is well-defined under buffered writeback;
// a partial overlap would make the result depend on engine internals.
bool partialOverlap(std::size_t src, std::size_t dst, std::size_t len) {
  if (src == dst) return false;
  return src < dst + len && dst < src + len;
}

// Reading pages on the user's behalf: each page's secrets must be readable
// by the user (page conf flows to user conf).
bool srcPagesOk(const accel::AesAccelerator& acc, const HostMemory& mem,
                unsigned user, std::size_t addr, std::size_t len) {
  if (acc.mode() != accel::SecurityMode::Protected) return true;
  const lattice::Label& u = acc.principal(user).authority;
  for (std::size_t p = addr / kPageBytes; p <= (addr + len - 1) / kPageBytes;
       ++p) {
    if (!mem.pageLabel(p * kPageBytes).c.flowsTo(u.c)) return false;
  }
  return true;
}

// Writing pages on the user's behalf: the user's authority must flow to
// every page (no overwriting pages the user may not modify).
bool dstPagesOk(const accel::AesAccelerator& acc, const HostMemory& mem,
                unsigned user, std::size_t addr, std::size_t len) {
  if (acc.mode() != accel::SecurityMode::Protected) return true;
  const lattice::Label& u = acc.principal(user).authority;
  for (std::size_t p = addr / kPageBytes; p <= (addr + len - 1) / kPageBytes;
       ++p) {
    if (!u.flowsTo(mem.pageLabel(p * kPageBytes))) return false;
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Ring codec
// ---------------------------------------------------------------------------

std::uint32_t ringChecksum(const HostMemory& mem, std::size_t addr,
                           std::size_t len) {
  std::uint32_t h = 2166136261u;  // FNV-1a
  for (std::size_t i = 0; i < len; ++i) {
    h ^= mem.read8(addr + i);
    h *= 16777619u;
  }
  return h;
}

void writeRingDescriptor(HostMemory& mem, std::size_t addr,
                         const DmaDescriptor& d, std::uint64_t next,
                         std::uint16_t seq, std::uint16_t generation,
                         bool owned) {
  const std::uint32_t gen_word = static_cast<std::uint32_t>(generation) << 16;
  mem.write32(addr + 0, gen_word);  // not device-owned while we fill it in
  mem.write8(addr + 8, static_cast<std::uint8_t>(d.mode));
  mem.write8(addr + 9, 0);
  wr16(mem, addr + 10, static_cast<std::uint16_t>(d.user));
  wr16(mem, addr + 12, static_cast<std::uint16_t>(d.key_slot));
  wr16(mem, addr + 14, seq);
  mem.write64(addr + 16, d.src);
  mem.write64(addr + 24, d.dst);
  mem.write64(addr + 32, d.len);
  mem.write64(addr + 40, next);
  for (unsigned i = 0; i < 16; ++i) mem.write8(addr + 48 + i, d.ctr_iv[i]);
  mem.write32(addr + 4, ringChecksum(mem, addr + 8, kDescBytes - 8));
  // The release store: ownership flips only after every field (and the
  // checksum over them) is in place.
  mem.write32(addr + 0, gen_word | (owned ? kRingOwned : 0));
}

// ---------------------------------------------------------------------------
// DmaRingEngine
// ---------------------------------------------------------------------------

DmaRingEngine::DmaRingEngine(accel::AesAccelerator& acc, HostMemory& mem,
                             bool hardened)
    : acc_{acc}, mem_{mem}, hardened_{hardened} {}

unsigned DmaRingEngine::addChannel(const DmaRingConfig& cfg) {
  if (cfg.desc_slots == 0 || cfg.comp_slots == 0 ||
      cfg.desc_base + static_cast<std::size_t>(cfg.desc_slots) * kDescBytes >
          mem_.size() ||
      cfg.comp_base + static_cast<std::size_t>(cfg.comp_slots) * kCompBytes >
          mem_.size() ||
      cfg.chain_base + static_cast<std::size_t>(cfg.chain_slots) * kDescBytes >
          mem_.size()) {
    throw std::out_of_range("DmaRingEngine::addChannel: ring outside memory");
  }
  Channel ch;
  ch.cfg = cfg;
  chans_.push_back(std::move(ch));
  return static_cast<unsigned>(chans_.size() - 1);
}

void DmaRingEngine::doorbell(unsigned channel) {
  chans_.at(channel).doorbell = true;
  ++stats_.doorbells;
}

void DmaRingEngine::setCompletionHandler(unsigned channel,
                                         std::function<void()> fn) {
  chans_.at(channel).on_completion = std::move(fn);
}

void DmaRingEngine::ringReset(unsigned channel) {
  Channel& ch = chans_.at(channel);
  // Only this channel's chain is abandoned. Its blocks still in the pipe
  // match no live chain's in-flight map and are dropped as strays; other
  // channels' chains keep collecting undisturbed.
  if (issuer_ == static_cast<int>(channel)) issuer_ = -1;
  ch.chain.reset();
  ch.parked = false;
  ch.park_watchdog_logged = false;
  ++ch.generation;
  if (ch.generation == 0) ch.generation = 1;  // 0 is never a live generation
  ch.head = 0;
  ch.comp_tail = 0;
  ch.doorbell = false;
  ++stats_.ring_resets;
  acc_.noteHostEvent(accel::SecurityEventKind::DmaRingRecovery, 0,
                     "ring-reset channel " + std::to_string(channel) +
                         " generation " + std::to_string(ch.generation));
}

std::uint16_t DmaRingEngine::generation(unsigned channel) const {
  return chans_.at(channel).generation;
}

std::size_t DmaRingEngine::headSlot(unsigned channel) const {
  return chans_.at(channel).head;
}

bool DmaRingEngine::channelIdle(unsigned channel) const {
  return !chans_.at(channel).chain.has_value();
}

bool DmaRingEngine::channelStalled(unsigned channel) const {
  return chans_.at(channel).parked;
}

bool DmaRingEngine::idle() const {
  for (const Channel& ch : chans_) {
    if (ch.chain) return false;
  }
  return true;
}

bool DmaRingEngine::ringPageOk(const lattice::Label& u, std::size_t addr,
                               std::size_t len) const {
  if (acc_.mode() != accel::SecurityMode::Protected) return true;
  // The engine both reads descriptors and writes handshake/completion words
  // on the claimed user's behalf, so ring pages must flow BOTH ways: a
  // descriptor claiming a user who could not have written its page is a
  // forgery, and completions must not leak into pages the user can't read.
  for (std::size_t p = addr / kPageBytes; p <= (addr + len - 1) / kPageBytes;
       ++p) {
    const lattice::Label& pl = mem_.pageLabel(p * kPageBytes);
    if (!pl.c.flowsTo(u.c) || !u.flowsTo(pl)) return false;
  }
  return true;
}

void DmaRingEngine::noteViolation(const Chain& c, DmaError e) {
  acc_.noteHostEvent(accel::SecurityEventKind::DmaRingViolation, c.user,
                     toString(e) + ": desc 0x" +
                         std::to_string(c.head_addr) + " seq " +
                         std::to_string(c.seq));
}

DmaError DmaRingEngine::latchSegment(Chain& c, std::size_t addr, bool head) {
  Channel& ch = chans_[c.channel];
  if (addr + kDescBytes > mem_.size()) return DmaError::BadDescriptor;
  const std::uint32_t flags = mem_.read32(addr);
  if (head) {
    ++stats_.descriptors_fetched;
    c.head_flags = flags;
    if ((flags >> 16) != ch.generation) {
      ++stats_.stale_generation;
      return DmaError::StaleGeneration;
    }
    if (!(flags & kRingOwned)) {
      // Ownership vanished between the scan and the fetch.
      ++stats_.torn_ownership;
      return DmaError::TornOwnership;
    }
  } else {
    ++stats_.segments_fetched;
  }
  if (hardened_ &&
      mem_.read32(addr + 4) != ringChecksum(mem_, addr + 8, kDescBytes - 8)) {
    ++stats_.checksum_rejects;
    return DmaError::BadChecksum;
  }
  // The checksum covers the seq field, so it is trusted from here on: a
  // head refused below still completes under the future it belongs to.
  if (head) c.seq = rd16(mem_, addr + 14);
  const std::uint8_t mode = mem_.read8(addr + 8);
  const std::uint8_t reserved = mem_.read8(addr + 9);
  const unsigned user = rd16(mem_, addr + 10);
  const unsigned slot = rd16(mem_, addr + 12);
  if (mode > static_cast<std::uint8_t>(DmaMode::CtrCrypt) || reserved != 0 ||
      user >= acc_.userCount() || slot >= accel::kRoundKeySlots) {
    return DmaError::BadDescriptor;
  }
  if (head) {
    c.user = user;
    c.key_slot = slot;
    c.mode = static_cast<DmaMode>(mode);
    for (unsigned i = 0; i < 16; ++i) c.ctr_iv[i] = mem_.read8(addr + 48 + i);
  } else if (user != c.user || slot != c.key_slot ||
             static_cast<DmaMode>(mode) != c.mode) {
    return DmaError::BadDescriptor;  // continuations inherit the head's identity
  }
  const lattice::Label& u = acc_.principal(c.user).authority;
  if (!ringPageOk(u, addr, kDescBytes)) return DmaError::RingPageDenied;
  if (head && !ringPageOk(u, ch.cfg.comp_base,
                          static_cast<std::size_t>(ch.cfg.comp_slots) *
                              kCompBytes)) {
    return DmaError::RingPageDenied;
  }

  const std::size_t src = mem_.read64(addr + 16);
  const std::size_t dst = mem_.read64(addr + 24);
  const std::size_t len = mem_.read64(addr + 32);
  const std::uint64_t next = mem_.read64(addr + 40);
  if (!rangeOk(mem_, src, len) || !rangeOk(mem_, dst, len)) {
    return DmaError::BadRange;
  }
  // ECB segments must be block-aligned; CTR tolerates a partial block only
  // on the final segment (the keystream has no sub-block notion of "next
  // segment starts mid-block").
  const bool final_seg = next == 0;
  if (len % 16 != 0 && (c.mode != DmaMode::CtrCrypt || !final_seg)) {
    return DmaError::UnalignedLength;
  }
  if (partialOverlap(src, dst, len)) return DmaError::OverlapDenied;
  if (!srcPagesOk(acc_, mem_, c.user, src, len)) return DmaError::SrcPageDenied;
  if (!dstPagesOk(acc_, mem_, c.user, dst, len)) return DmaError::DstPageDenied;
  c.segs.push_back(Segment{addr, src, dst, len});

  if (next == 0) {
    c.next_fetch = 0;
    return DmaError::None;
  }
  const std::size_t arena_end =
      ch.cfg.chain_base + static_cast<std::size_t>(ch.cfg.chain_slots) *
                              kDescBytes;
  if (next < ch.cfg.chain_base || next >= arena_end ||
      (next - ch.cfg.chain_base) % kDescBytes != 0) {
    return DmaError::OobNextPointer;
  }
  for (const Segment& s : c.segs) {
    if (s.addr == next) return DmaError::ChainLoop;
  }
  if (c.segs.size() >= ch.cfg.max_chain) return DmaError::ChainTooLong;
  c.next_fetch = next;
  return DmaError::None;
}

void DmaRingEngine::buildStream(Chain& c) {
  std::size_t nblocks = 0;
  for (const Segment& s : c.segs) nblocks += (s.len + 15) / 16;
  c.stream.reserve(nblocks);
  aes::Block ctr = c.ctr_iv;
  for (const Segment& s : c.segs) {
    const std::size_t segblocks = (s.len + 15) / 16;
    for (std::size_t i = 0; i < segblocks; ++i) {
      if (c.mode == DmaMode::CtrCrypt) {
        c.stream.push_back(ctr);
        aes::incCounterBe(ctr, 64);  // CTR counts in the low 64 bits
      } else {
        aes::Block blk{};
        const std::size_t n = std::min<std::size_t>(16, s.len - 16 * i);
        for (std::size_t b = 0; b < n; ++b)
          blk[b] = mem_.read8(s.src + 16 * i + b);
        c.stream.push_back(blk);
      }
    }
    if (c.mode == DmaMode::CtrCrypt) {
      const std::vector<std::uint8_t> seg_src = mem_.readBytes(s.src, s.len);
      c.xor_src.insert(c.xor_src.end(), seg_src.begin(), seg_src.end());
    }
  }
  c.out.resize(c.stream.size());
  c.done.assign(c.stream.size(), 0);
}

void DmaRingEngine::startChannel(unsigned idx) {
  Channel& ch = chans_[idx];
  ch.doorbell = false;
  Chain c;
  c.channel = idx;
  c.head_addr = descAddr(ch);
  c.next_fetch = c.head_addr;
  c.fetch_wait = kRingFetchCycles;
  c.start_cycle = acc_.cycle();
  c.progress_cycle = acc_.cycle();
  ch.chain = std::move(c);
  issuer_ = static_cast<int>(idx);
}

void DmaRingEngine::stepFetch(unsigned idx) {
  Channel& ch = chans_[idx];
  Chain& c = *ch.chain;
  if (--c.fetch_wait > 0) return;
  const bool head = c.segs.empty();
  const DmaError e = latchSegment(c, c.next_fetch, head);
  if (e != DmaError::None) {
    c.verdict = e;
    finalize(idx);
    return;
  }
  if (c.next_fetch != 0) {
    c.fetch_wait = kRingFetchCycles;
    return;  // more segments to latch
  }
  buildStream(c);
  c.phase = Chain::Phase::Issue;
  c.progress_cycle = acc_.cycle();
}

void DmaRingEngine::resubmitChain(Chain& c) {
  c.inflight.clear();
  c.retry.clear();
  for (std::size_t i = 0; i < c.stream.size(); ++i) {
    if (!c.done[i]) c.retry.push_back(i);
  }
  c.submitted = c.stream.size();  // everything pending lives in retry now
  c.submit_refusals = 0;
}

void DmaRingEngine::collect() {
  // Drain every user with a chain past fetch and route each response to the
  // chain that issued it, so two channels of one user never take each
  // other's blocks.
  for (const Channel& ch : chans_) {
    if (!executing(ch)) continue;
    while (auto resp = acc_.fetchOutput(ch.chain->user)) routeResponse(*resp);
  }
  for (unsigned i = 0; i < chans_.size(); ++i) {
    if (!executing(chans_[i])) continue;
    const Chain& c = *chans_[i].chain;
    if (c.verdict != DmaError::None || c.collected == c.stream.size())
      finalize(i);
  }
}

void DmaRingEngine::routeResponse(const accel::BlockResponse& resp) {
  for (Channel& ch : chans_) {
    if (!executing(ch) || ch.chain->verdict != DmaError::None) continue;
    Chain& c = *ch.chain;
    auto it = c.inflight.find(resp.req_id);
    if (it == c.inflight.end()) continue;
    const std::size_t bi = it->second;
    c.inflight.erase(it);
    c.progress_cycle = acc_.cycle();
    if (resp.fault_aborted || resp.dropped) {
      if (++c.block_retries >
          kRingBlockRetryCap + static_cast<unsigned>(c.stream.size())) {
        c.verdict = DmaError::FaultAborted;
        return;
      }
      c.retry.push_back(bi);
      ++stats_.block_resubmits;
      return;
    }
    if (resp.suppressed) c.suppressed = true;
    if (!c.done[bi]) {
      c.done[bi] = 1;
      c.out[bi] = resp.data;
      ++c.collected;
    }
    return;
  }
  // No live chain issued it: a stray from a quiesced attempt or a reset
  // channel (or foreign traffic) — dropped.
}

void DmaRingEngine::stepIssue(unsigned idx) {
  Channel& ch = chans_[idx];
  Chain& c = *ch.chain;
  // Submit at most one block per cycle (retries first).
  std::optional<std::size_t> bi;
  if (!c.retry.empty()) {
    bi = c.retry.front();
  } else if (c.submitted < c.stream.size()) {
    bi = c.submitted;
  }
  if (bi) {
    accel::BlockRequest req;
    req.req_id = next_req_;
    req.user = c.user;
    req.key_slot = c.key_slot;
    req.decrypt = c.mode == DmaMode::EcbDecrypt;
    req.data = c.stream[*bi];
    if (acc_.submit(req)) {
      c.inflight.emplace(next_req_, *bi);
      ++next_req_;
      c.submit_refusals = 0;
      if (!c.retry.empty()) {
        c.retry.pop_front();
      } else {
        ++c.submitted;
      }
    } else if (++c.submit_refusals > 32) {
      // The submit port is refusing outright (zeroized slot, dead key) —
      // no amount of watchdog patience will change the answer.
      c.verdict = DmaError::Rejected;
      finalize(idx);
      return;
    }
  }
  // Last block accepted: collect without the unit, so the next channel can
  // fetch while this chain's tail drains the pipe.
  if (c.retry.empty() && c.submitted == c.stream.size()) {
    c.phase = Chain::Phase::Collect;
    issuer_ = -1;
  }
}

void DmaRingEngine::stepWatchdog(unsigned idx) {
  Channel& ch = chans_[idx];
  Chain& c = *ch.chain;
  const std::uint64_t now = acc_.cycle();
  // A chain queued for the issue unit is waiting its turn, not stalled.
  if (c.phase == Chain::Phase::Collect && !c.retry.empty()) {
    c.progress_cycle = now;
    return;
  }
  if (now - c.progress_cycle <= ch.cfg.watchdog_cycles) return;
  // No progress for too long — quiesce, resync, resubmit.
  ++stats_.watchdog_fires;
  // Quiesce: abandon in-flight requests (their late responses will miss
  // every in-flight map and be dropped — idempotent by construction).
  c.inflight.clear();
  // Resync: re-read the handshake word; a descriptor that was reclaimed
  // or re-generationed under us is torn, not stalled.
  const std::uint32_t flags = mem_.read32(c.head_addr);
  if (hardened_ &&
      (!(flags & kRingOwned) || (flags >> 16) != ch.generation)) {
    ++stats_.torn_ownership;
    c.verdict = DmaError::TornOwnership;
    finalize(idx);
    return;
  }
  if (++c.attempts > kRingMaxResubmits) {
    c.verdict = DmaError::RingStalled;
    finalize(idx);
    return;
  }
  ++stats_.recoveries;
  acc_.noteHostEvent(accel::SecurityEventKind::DmaRingRecovery, c.user,
                     "watchdog resubmit " + std::to_string(c.attempts) +
                         "/" + std::to_string(kRingMaxResubmits) +
                         " seq " + std::to_string(c.seq));
  resubmitChain(c);
  c.progress_cycle = now;
}

void DmaRingEngine::writeBack(const Chain& c) {
  std::size_t bi = 0;       // global block index
  std::size_t xoff = 0;     // global CTR xor-source offset
  for (const Segment& s : c.segs) {
    std::size_t dst = s.dst;
    if (!hardened_) {
      // The conventional engine re-reads the destination pointer from ring
      // memory at write time — the TOCTOU the hardened engine closes by
      // using the fetch-time latch.
      const std::size_t dst_now = mem_.read64(s.addr + 24);
      if (rangeOk(mem_, dst_now, s.len)) {
        if (!dstPagesOk(acc_, mem_, c.user, dst_now, s.len)) {
          ++stats_.cross_label_writes;  // ...and writes anyway
        }
        dst = dst_now;
      }
    }
    const std::size_t segblocks = (s.len + 15) / 16;
    for (std::size_t i = 0; i < segblocks; ++i, ++bi) {
      const std::size_t nb = std::min<std::size_t>(16, s.len - 16 * i);
      for (std::size_t b = 0; b < nb; ++b) {
        std::uint8_t v = c.out[bi][b];
        if (c.mode == DmaMode::CtrCrypt) v ^= c.xor_src[xoff + 16 * i + b];
        mem_.write8(dst + 16 * i + b, v);
      }
    }
    xoff += s.len;
  }
}

void DmaRingEngine::finalize(unsigned idx) {
  Channel& ch = chans_[idx];
  Chain& c = *ch.chain;
  if (c.verdict == DmaError::None) {
    if (c.suppressed) {
      c.verdict = DmaError::OutputSuppressed;
    } else if (hardened_) {
      // Torn-ownership re-read: the handshake word must still say this
      // descriptor is ours before anything lands in host memory.
      const std::uint32_t flags = mem_.read32(c.head_addr);
      if (!(flags & kRingOwned) || (flags >> 16) != ch.generation) {
        ++stats_.torn_ownership;
        c.verdict = DmaError::TornOwnership;
      } else {
        // Point-of-use destination re-check (labels may have moved while
        // the transfer was in flight).
        for (const Segment& s : c.segs) {
          if (!dstPagesOk(acc_, mem_, c.user, s.dst, s.len)) {
            c.verdict = DmaError::DstPageDenied;
            break;
          }
        }
      }
    }
  }
  if (c.verdict == DmaError::None) {
    writeBack(c);
    ++stats_.completed_ok;
    stats_.blocks += c.stream.size();
  } else {
    ++stats_.refused;
    ++stats_.by_error[static_cast<unsigned>(c.verdict)];
    noteViolation(c, c.verdict);
  }

  if (c.verdict == DmaError::RingPageDenied) {
    // The ring pages themselves failed the label check — the engine will
    // not write a completion record into them. Hand the descriptor back so
    // the ring doesn't wedge; the verdict lives in the event log and stats.
    handback(ch, c);
    finishChain(idx);
    return;
  }
  if (tryWriteCompletion(idx)) {
    handback(ch, c);
    finishChain(idx);
  } else {
    // Completion ring full: park. The issue unit is freed; the record is
    // written once the host consumes a slot (hardened engines never
    // overwrite an unconsumed record).
    ch.parked = true;
    ch.park_start = acc_.cycle();
    ch.park_watchdog_logged = false;
    if (issuer_ == static_cast<int>(idx)) issuer_ = -1;
  }
}

bool DmaRingEngine::tryWriteCompletion(unsigned idx) {
  Channel& ch = chans_[idx];
  const Chain& c = *ch.chain;
  const std::size_t addr = ch.cfg.comp_base + ch.comp_tail * kCompBytes;
  if (mem_.read32(addr) & kRingValid) return false;  // unconsumed record
  const std::uint64_t exec =
      acc_.cycle() >= c.start_cycle ? acc_.cycle() - c.start_cycle : 0;
  mem_.write32(addr + 8, static_cast<std::uint32_t>(c.verdict));
  wr16(mem_, addr + 12, static_cast<std::uint16_t>(c.user));
  wr16(mem_, addr + 14, c.seq);
  mem_.write64(addr + 16, c.head_addr);
  mem_.write32(addr + 24,
               c.verdict == DmaError::None
                   ? static_cast<std::uint32_t>(c.stream.size())
                   : 0);
  mem_.write32(addr + 28, static_cast<std::uint32_t>(
                              std::min<std::uint64_t>(exec, 0xffffffffu)));
  mem_.write32(addr + 4, ringChecksum(mem_, addr + 8, kCompBytes - 8));
  // VALID flips last — the completion's release store.
  mem_.write32(addr + 0,
               (static_cast<std::uint32_t>(ch.generation) << 16) | kRingValid);
  ch.comp_tail = (ch.comp_tail + 1) % ch.cfg.comp_slots;
  if (ch.on_completion) ch.on_completion();
  return true;
}

void DmaRingEngine::handback(Channel& ch, const Chain& c) {
  // Clear OWNED, preserve the generation — the host-side release cursor.
  mem_.write32(c.head_addr, static_cast<std::uint32_t>(ch.generation) << 16);
  ch.head = (ch.head + 1) % ch.cfg.desc_slots;
}

void DmaRingEngine::finishChain(unsigned idx) {
  Channel& ch = chans_[idx];
  ch.chain.reset();
  ch.parked = false;
  if (issuer_ == static_cast<int>(idx)) issuer_ = -1;
}

void DmaRingEngine::onDeviceTick() {
  const std::uint64_t now = acc_.cycle();

  // Parked channels: retry the completion write (independent of the issue
  // unit — it is just a host-memory store).
  for (unsigned i = 0; i < chans_.size(); ++i) {
    Channel& ch = chans_[i];
    if (!ch.parked) continue;
    ++stats_.comp_stall_cycles;
    if (tryWriteCompletion(i)) {
      handback(ch, *ch.chain);
      finishChain(i);
      continue;
    }
    if (now - ch.park_start > ch.cfg.watchdog_cycles) {
      if (hardened_) {
        // Backpressure, not data loss: log once and keep waiting. The host
        // owns the VALID bit; overwriting it would destroy a completion the
        // host has not seen.
        if (!ch.park_watchdog_logged) {
          ch.park_watchdog_logged = true;
          ++stats_.by_error[static_cast<unsigned>(
              DmaError::CompletionOverflow)];
          acc_.noteHostEvent(
              accel::SecurityEventKind::DmaRingViolation, ch.chain->user,
              "completion-overflow: ring full, channel " + std::to_string(i) +
                  " parked (backpressure)");
        }
      } else {
        // Conventional engine: give up waiting and overwrite the oldest
        // unconsumed record — the data loss the hardened park avoids.
        const std::size_t addr =
            ch.cfg.comp_base + ch.comp_tail * kCompBytes;
        mem_.write32(addr, 0);  // destroy the unconsumed record
        ++stats_.comp_overflow_drops;
        if (tryWriteCompletion(i)) {
          handback(ch, *ch.chain);
          finishChain(i);
        }
      }
    }
  }

  collect();
  stepUnit(now);
  for (unsigned i = 0; i < chans_.size(); ++i) {
    if (executing(chans_[i])) stepWatchdog(i);
  }
}

void DmaRingEngine::stepUnit(std::uint64_t now) {
  if (issuer_ >= 0) {
    const unsigned idx = static_cast<unsigned>(issuer_);
    if (chans_[idx].chain->phase == Chain::Phase::Fetch) {
      stepFetch(idx);
    } else {
      stepIssue(idx);
    }
    return;
  }
  // A free unit goes to a collecting chain with retries first...
  const unsigned nch = static_cast<unsigned>(chans_.size());
  for (unsigned k = 0; k < nch; ++k) {
    const unsigned i = (rr_next_ + k) % nch;
    Channel& ch = chans_[i];
    if (!executing(ch) || ch.chain->retry.empty()) continue;
    ch.chain->phase = Chain::Phase::Issue;
    issuer_ = static_cast<int>(i);
    stepIssue(i);
    return;
  }
  // ...then to the next channel with a doorbell or a due poll, round-robin.
  for (unsigned k = 0; k < nch; ++k) {
    const unsigned i = (rr_next_ + k) % nch;
    Channel& ch = chans_[i];
    if (ch.chain) continue;  // one chain per channel
    if (!ch.doorbell && now < ch.next_poll_cycle) continue;
    ch.next_poll_cycle = now + kRingPollInterval;
    if (mem_.read32(descAddr(ch)) & kRingOwned) {
      startChannel(i);
      rr_next_ = (i + 1) % nch;
      return;
    }
    ch.doorbell = false;
    ++stats_.idle_polls;
  }
}

void DmaRingEngine::tick() {
  onDeviceTick();
  acc_.tick();
}

// ---------------------------------------------------------------------------
// DmaRingDriver
// ---------------------------------------------------------------------------

DmaRingDriver::DmaRingDriver(DmaRingEngine& eng, HostMemory& mem,
                             unsigned channel, const DmaRingConfig& cfg)
    : eng_{eng}, mem_{mem}, channel_{channel}, cfg_{cfg},
      arena_busy_(cfg.chain_slots, 0) {
  eng_.setCompletionHandler(channel_, [this] {
    if (auto_poll_) poll();
  });
}

std::optional<std::uint16_t> DmaRingDriver::submit(const DmaDescriptor& d) {
  return submitChain({d});
}

std::optional<std::uint16_t> DmaRingDriver::submitChain(
    const std::vector<DmaDescriptor>& segs) {
  if (segs.empty()) return std::nullopt;
  const std::size_t head_addr = cfg_.desc_base + next_slot_ * kDescBytes;
  if (mem_.read32(head_addr) & kRingOwned) return std::nullopt;  // ring full

  // Claim chain-arena slots for the continuations.
  const std::size_t need = segs.size() - 1;
  std::vector<unsigned> slots;
  if (need > 0) {
    if (cfg_.chain_slots == 0) return std::nullopt;
    for (unsigned k = 0; k < cfg_.chain_slots && slots.size() < need; ++k) {
      const unsigned s =
          static_cast<unsigned>((next_chain_slot_ + k) % cfg_.chain_slots);
      if (!arena_busy_[s]) slots.push_back(s);
    }
    if (slots.size() < need) return std::nullopt;  // arena full
  }

  const std::uint16_t gen = eng_.generation(channel_);
  const std::uint16_t seq = next_seq_++;
  if (next_seq_ == 0) next_seq_ = 1;

  // Write continuations back to front so every next-pointer is known, then
  // publish the head last (its OWNED flip is the release store).
  std::uint64_t next = 0;
  for (std::size_t i = segs.size(); i-- > 1;) {
    const unsigned s = slots[i - 1];
    const std::size_t addr =
        cfg_.chain_base + static_cast<std::size_t>(s) * kDescBytes;
    DmaDescriptor seg = segs[i];
    seg.user = segs[0].user;      // continuations inherit the head identity
    seg.key_slot = segs[0].key_slot;
    seg.mode = segs[0].mode;
    writeRingDescriptor(mem_, addr, seg, next, seq, gen, /*owned=*/false);
    next = addr;
    arena_busy_[s] = 1;
  }
  writeRingDescriptor(mem_, head_addr, segs[0], next, seq, gen,
                      /*owned=*/true);
  eng_.doorbell(channel_);

  futures_[seq] = std::nullopt;
  if (!slots.empty()) {
    next_chain_slot_ = (slots.back() + 1) % cfg_.chain_slots;
    chain_slots_of_[seq] = std::move(slots);
  }
  ++outstanding_;
  next_slot_ = (next_slot_ + 1) % cfg_.desc_slots;
  return seq;
}

void DmaRingDriver::poll() {
  for (;;) {
    const std::size_t addr = cfg_.comp_base + comp_head_ * kCompBytes;
    const std::uint32_t flags = mem_.read32(addr);
    if (!(flags & kRingValid)) break;
    const std::uint16_t gen = static_cast<std::uint16_t>(flags >> 16);
    const bool fresh = gen == eng_.generation(channel_);
    bool ok = fresh;
    if (ok && mem_.read32(addr + 4) !=
                  ringChecksum(mem_, addr + 8, kCompBytes - 8)) {
      ++corrupt_completions_;
      ok = false;
    }
    const std::uint32_t status = ok ? mem_.read32(addr + 8) : 0;
    if (ok && status >= kDmaErrors) {
      ++corrupt_completions_;
      ok = false;
    }
    if (ok) {
      DmaCompletion comp;
      comp.status = static_cast<DmaError>(status);
      comp.user = rd16(mem_, addr + 12);
      comp.seq = rd16(mem_, addr + 14);
      comp.desc_addr = mem_.read64(addr + 16);
      comp.blocks = mem_.read32(addr + 24);
      comp.exec_cycles = mem_.read32(addr + 28);
      auto it = futures_.find(comp.seq);
      if (it == futures_.end() || it->second.has_value()) {
        ++duplicate_completions_;  // replay or forgery: exactly-once holds
      } else {
        it->second = comp;
        if (outstanding_ > 0) --outstanding_;
        auto cs = chain_slots_of_.find(comp.seq);
        if (cs != chain_slots_of_.end()) {
          for (unsigned s : cs->second) arena_busy_[s] = 0;
          chain_slots_of_.erase(cs);
        }
      }
    }
    // Consume the slot: clear VALID, keep the generation readable.
    mem_.write32(addr, static_cast<std::uint32_t>(gen) << 16);
    comp_head_ = (comp_head_ + 1) % cfg_.comp_slots;
  }
}

bool DmaRingDriver::done(std::uint16_t seq) const {
  auto it = futures_.find(seq);
  return it != futures_.end() && it->second.has_value();
}

const DmaCompletion* DmaRingDriver::result(std::uint16_t seq) const {
  auto it = futures_.find(seq);
  if (it == futures_.end() || !it->second.has_value()) return nullptr;
  return &*it->second;
}

const DmaCompletion* DmaRingDriver::wait(std::uint16_t seq,
                                         std::uint64_t max_cycles) {
  for (std::uint64_t i = 0; i < max_cycles && !done(seq); ++i) eng_.tick();
  poll();
  return result(seq);
}

void DmaRingDriver::forgetResolved() {
  for (auto it = futures_.begin(); it != futures_.end();) {
    if (it->second.has_value()) {
      it = futures_.erase(it);
    } else {
      ++it;
    }
  }
}

void DmaRingDriver::resync() {
  for (auto& [seq, fut] : futures_) {
    if (!fut.has_value()) {
      DmaCompletion comp;
      comp.status = DmaError::RingStalled;  // the reset abandoned it
      comp.seq = seq;
      fut = comp;
    }
  }
  outstanding_ = 0;
  next_slot_ = 0;
  next_chain_slot_ = 0;
  comp_head_ = 0;
  std::fill(arena_busy_.begin(), arena_busy_.end(), 0);
  chain_slots_of_.clear();
}

}  // namespace aesifc::soc
