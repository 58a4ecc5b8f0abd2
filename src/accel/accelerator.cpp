#include "accel/accelerator.h"

#include <bit>
#include <cassert>
#include <stdexcept>

#include "lattice/downgrade.h"

namespace aesifc::accel {

AesAccelerator::AesAccelerator(AcceleratorConfig cfg)
    : cfg_{cfg},
      scratchpad_{cfg.mode},
      config_regs_{cfg.mode},
      pipeline_{cfg.max_rounds, round_keys_},
      ghash_{cfg.fault_hardening},
      gcm_{*this, ghash_} {}

unsigned AesAccelerator::addUser(Principal p) {
  users_.push_back(std::move(p));
  input_queues_.emplace_back();
  output_queues_.emplace_back();
  receiver_ready_.push_back(true);
  return static_cast<unsigned>(users_.size() - 1);
}

const Principal& AesAccelerator::principal(unsigned user) const {
  return users_.at(user);
}

void AesAccelerator::recordEvent(SecurityEventKind kind, unsigned user,
                                 std::string detail) {
  ++event_counts_[static_cast<unsigned>(kind)];
  events_.push_back({kind, cycle_, user, std::move(detail)});
  while (events_.size() > cfg_.event_log_cap) {
    events_.pop_front();
    ++events_overflowed_;
  }
}

void AesAccelerator::noteFault(FaultSite site, bool recovered, unsigned user,
                               std::string detail) {
  ++stats_.faults_detected;
  if (recovered) ++stats_.faults_recovered;
  if (static_cast<unsigned>(site) < kHwFaultSites)
    ++faults_by_site_[static_cast<unsigned>(site)];
  recordEvent(recovered ? SecurityEventKind::FaultScrubbed
                        : SecurityEventKind::FaultDetected,
              user, toString(site) + ": " + std::move(detail));
}

void AesAccelerator::deliverAbort(const StageSlot& slot) {
  if (slot.gcm_internal) {
    // A squashed internal block belongs to a GCM op: the sequencer
    // fault-aborts the whole op (its own definite outcome).
    gcm_.deliverAbort(slot);
    return;
  }
  BlockResponse resp;
  resp.req_id = slot.req_id;
  resp.user = slot.user;
  resp.data = aes::Block{};  // nothing is released from a squashed stage
  resp.accept_cycle = slot.accept_cycle;
  resp.complete_cycle = cycle_;
  resp.fault_aborted = true;
  ++stats_.fault_aborted;
  if (slot.user < output_queues_.size())
    output_queues_[slot.user].push_back(std::move(resp));
}

unsigned AesAccelerator::zeroizeSlotSquash(unsigned slot) {
  unsigned casualties = 0;
  for (unsigned i = 0; i < pipeline_.depth(); ++i) {
    const StageSlot& s = pipeline_.stage(i);
    if (s.valid && s.key_slot == slot) {
      const StageSlot copy = s;
      pipeline_.squash(i);
      deliverAbort(copy);
      ++casualties;
    }
  }
  round_keys_.clear(slot);
  // The H tables derived from this key are stale; streams hashing under
  // them fault, and ops bound to the slot abort (retryable by the driver).
  ghash_.invalidateKey(slot);
  gcm_.noteKeySlotInvalid(slot);
  return casualties;
}

void AesAccelerator::scrubTick() {
  // Fast ring: every pipeline-stage comparator and every scratchpad tag
  // comparator runs each cycle (parallel hardware), so a flipped tag is
  // caught before any release decision can consult it. An empty stage's
  // comparator passes by definition, so only occupied stages are
  // evaluated, in ascending stage order. A squash can only empty stages,
  // and stageParityOk re-reads validity, so the snapshot stays exact.
  for (std::uint64_t occ = pipeline_.occupancy(); occ != 0; occ &= occ - 1) {
    const unsigned i = static_cast<unsigned>(std::countr_zero(occ));
    if (pipeline_.stageParityOk(i)) continue;
    const StageSlot s = pipeline_.stage(i);
    const bool tag_fault = s.tag_parity != labelParity(s.tag);
    // Fail secure: the corrupted stage is squashed before its contents or
    // tag are used again — the tag can only ever fail upward, never toward
    // public. A tag fault also voids the key binding: zeroize the slot.
    pipeline_.squash(i);
    deliverAbort(s);
    noteFault(tag_fault ? FaultSite::StageTag : FaultSite::StageData,
              /*recovered=*/false, s.user,
              "stage " + std::to_string(i) + " parity mismatch; squashed");
    if (tag_fault) zeroizeSlotSquash(s.key_slot);
  }
  for (unsigned c = 0; c < kScratchpadCells; ++c) {
    if (scratchpad_.tagParityOk(c)) continue;
    scratchpad_.failSecure(c);
    noteFault(FaultSite::ScratchTag, /*recovered=*/true, 0,
              "cell " + std::to_string(c) + " tag parity; quarantined");
  }
  // GHASH fast ring: every multiplier-stage and stream-accumulator
  // comparator runs each cycle; a mismatch faults the stream (the
  // sequencer fault-aborts the owning op — never a released tag).
  for (const auto& f : ghash_.scrubFast()) {
    noteFault(f.site, /*recovered=*/false, f.user, f.detail);
  }
  // Slow ring: one scratchpad cell, round-key slot, config register, or
  // GHASH H-table slot per cycle, round-robin.
  const auto& names = config_regs_.names();
  const unsigned total = kScratchpadCells + kRoundKeySlots +
                         static_cast<unsigned>(names.size()) + kGhashKeySlots;
  const unsigned idx = scrub_next_++ % total;
  if (idx < kScratchpadCells) {
    if (!scratchpad_.cellParityOk(idx)) {
      scratchpad_.failSecure(idx);
      noteFault(FaultSite::ScratchCell, /*recovered=*/true, 0,
                "cell " + std::to_string(idx) + " data parity; zeroized");
    }
  } else if (idx < kScratchpadCells + kRoundKeySlots) {
    const unsigned slot = idx - kScratchpadCells;
    if (!round_keys_.slotParityOk(slot)) {
      const unsigned casualties = zeroizeSlotSquash(slot);
      noteFault(FaultSite::RoundKey, /*recovered=*/casualties == 0, 0,
                "slot " + std::to_string(slot) + " parity; zeroized (" +
                    std::to_string(casualties) + " blocks squashed)");
    }
  } else if (idx < kScratchpadCells + kRoundKeySlots + names.size()) {
    const auto& name = names[idx - kScratchpadCells - kRoundKeySlots];
    if (!config_regs_.parityOk(name)) {
      config_regs_.restoreDefault(name);
      noteFault(FaultSite::ConfigReg, /*recovered=*/true, 0,
                "'" + name + "' parity; restored power-on default");
    }
  } else {
    const unsigned slot = idx - kScratchpadCells - kRoundKeySlots -
                          static_cast<unsigned>(names.size());
    if (const auto f = ghash_.scrubKeySlot(slot); f.has_value()) {
      noteFault(f->site, /*recovered=*/false, f->user, f->detail);
    }
  }
}

bool AesAccelerator::injectFault(FaultSite site, unsigned index,
                                 unsigned bit) {
  switch (site) {
    case FaultSite::StageData:
      return pipeline_.faultFlipStageDataBit(index, bit % 128);
    case FaultSite::StageTag:
      return pipeline_.faultFlipStageTagBit(index, bit % 32);
    case FaultSite::ScratchCell:
      return scratchpad_.faultFlipCellBit(index % kScratchpadCells, bit % 64);
    case FaultSite::ScratchTag:
      return scratchpad_.faultFlipTagBit(index % kScratchpadCells, bit % 32);
    case FaultSite::RoundKey:
      return round_keys_.faultFlipKeyBit(index % kRoundKeySlots,
                                         (bit / 128) % 15, (bit % 128) / 8,
                                         bit % 8);
    case FaultSite::ConfigReg: {
      const auto& names = config_regs_.names();
      if (names.empty()) return false;
      return config_regs_.faultFlipBit(names[index % names.size()], bit % 32);
    }
    case FaultSite::GhashStage:
      return ghash_.faultFlipStageBit(index, bit % 256);
    case FaultSite::GhashStageTag:
      return ghash_.faultFlipStageTagBit(index, bit % 32);
    case FaultSite::GhashAcc:
      return ghash_.faultFlipAccBit(index, bit % (128 * kGhashLanes));
    case FaultSite::GhashKeyTable:
      return ghash_.faultFlipKeyTableBit(index,
                                         bit % (kGhashLanes * 16 * 128));
    default:
      return false;  // host sites are driven through the queue hooks
  }
}

bool AesAccelerator::injectDuplicateOutput(unsigned user) {
  if (user >= output_queues_.size() || output_queues_[user].empty())
    return false;
  output_queues_[user].push_front(output_queues_[user].front());
  return true;
}

bool AesAccelerator::injectDropOutput(unsigned user) {
  if (user >= output_queues_.size() || output_queues_[user].empty())
    return false;
  output_queues_[user].pop_front();
  return true;
}

void AesAccelerator::configureKeyCells(unsigned user, unsigned base,
                                       unsigned count) {
  scratchpad_.configureCells(base, count, users_.at(user).authority);
}

bool AesAccelerator::writeKeyCell(unsigned user, unsigned cell,
                                  std::uint64_t value) {
  if (hardened() && cell < kScratchpadCells && !scratchpad_.tagParityOk(cell)) {
    // Fail secure: a cell whose tag no longer matches its parity bit must
    // not accept flows based on that tag. Quarantine and refuse.
    scratchpad_.failSecure(cell);
    noteFault(FaultSite::ScratchTag, /*recovered=*/false, user,
              "cell " + std::to_string(cell) + " tag parity at write");
    return false;
  }
  const bool ok = scratchpad_.writeCell(cell, value, users_.at(user).authority);
  if (!ok) {
    recordEvent(SecurityEventKind::ScratchpadWriteBlocked, user,
                "write to cell " + std::to_string(cell) + " blocked: " +
                    users_.at(user).authority.toString() + " does not flow to " +
                    (cell < kScratchpadCells
                         ? scratchpad_.cellLabel(cell).toString()
                         : std::string("<oob>")));
  }
  return ok;
}

bool AesAccelerator::loadKey(unsigned user, unsigned slot, unsigned cell_base,
                             aes::KeySize ks, lattice::Conf key_conf) {
  const unsigned cells = aes::keyBytes(ks) / 8;
  std::vector<std::uint8_t> key_bytes;
  key_bytes.reserve(aes::keyBytes(ks));
  const Label& requester = users_.at(user).authority;
  for (unsigned i = 0; i < cells; ++i) {
    if (hardened() && cell_base + i < kScratchpadCells) {
      const unsigned c = cell_base + i;
      const bool tag_bad = !scratchpad_.tagParityOk(c);
      if (tag_bad || !scratchpad_.cellParityOk(c)) {
        scratchpad_.failSecure(c);
        noteFault(tag_bad ? FaultSite::ScratchTag : FaultSite::ScratchCell,
                  /*recovered=*/false, user,
                  "cell " + std::to_string(c) + " parity at key expansion");
        return false;
      }
    }
    const auto v = scratchpad_.readCell(cell_base + i, requester);
    if (!v.has_value()) {
      recordEvent(SecurityEventKind::ScratchpadReadBlocked, user,
                  "key expansion read of cell " +
                      std::to_string(cell_base + i) + " blocked");
      return false;
    }
    for (unsigned b = 0; b < 8; ++b) {
      key_bytes.push_back(static_cast<std::uint8_t>(*v >> (8 * b)));
    }
  }
  round_keys_.store(slot, aes::expandKey(key_bytes, ks), key_conf, requester);
  // A re-keyed slot voids any H derived from the previous key; GCM ops
  // bound to the slot fault-abort (the driver re-runs them on the new key).
  ghash_.invalidateKey(slot);
  gcm_.noteKeySlotInvalid(slot);
  return true;
}

bool AesAccelerator::keySlotBusy(unsigned slot) const {
  for (unsigned i = 0; i < pipeline_.depth(); ++i) {
    const auto& s = pipeline_.stage(i);
    if (s.valid && s.key_slot == slot) return true;
  }
  // A GCM op holds its key slot for its whole lifetime (H tables, pending
  // keystream, hash streams).
  return gcm_.usesKeySlot(slot);
}

bool AesAccelerator::clearKey(unsigned user, unsigned slot) {
  if (!round_keys_.valid(slot)) return false;
  // Refuse while the slot is referenced by in-flight work.
  if (keySlotBusy(slot)) {
    recordEvent(SecurityEventKind::KeySlotBlocked, user,
                "clearKey refused: slot " + std::to_string(slot) +
                    " has blocks in flight");
    return false;
  }
  const Label& owner = round_keys_.slot(slot).owner;
  const Label& requester = users_.at(user).authority;
  if (cfg_.mode == SecurityMode::Protected &&
      !requester.i.flowsTo(owner.i)) {
    recordEvent(SecurityEventKind::KeySlotBlocked, user,
                "clearKey refused: " + requester.i.toString() +
                    " does not dominate owner integrity " +
                    owner.i.toString());
    return false;
  }
  round_keys_.clear(slot);
  ghash_.invalidateKey(slot);
  gcm_.noteKeySlotInvalid(slot);
  return true;
}

std::optional<lattice::HwTag> AesAccelerator::stageHwTag(unsigned stage) const {
  const StageSlot& s = pipeline_.stage(stage);
  if (!s.valid) return std::nullopt;
  // Fail secure: a tag that fails its parity check is never reported (the
  // scrub pass will squash the stage at the next tick).
  if (hardened() && !pipeline_.stageParityOk(stage)) return std::nullopt;
  static const lattice::TagCodec codec = lattice::TagCodec::userCategories();
  return codec.encode(s.tag);
}

std::uint32_t AesAccelerator::readConfig(const std::string& name) const {
  return config_regs_.read(name);
}

bool AesAccelerator::writeConfig(unsigned user, const std::string& name,
                                 std::uint32_t v) {
  const bool ok = config_regs_.write(name, v, users_.at(user).authority);
  if (!ok) {
    recordEvent(SecurityEventKind::ConfigWriteBlocked, user,
                "write of '" + name + "' requires full integrity; user has " +
                    users_.at(user).authority.i.toString());
  }
  return ok;
}

std::optional<aes::Block> AesAccelerator::debugReadStage(unsigned user,
                                                         unsigned stage) {
  // Fail secure: a flipped debug_enable bit must not open the debug port.
  if (hardened() && !config_regs_.parityOk("debug_enable")) {
    config_regs_.restoreDefault("debug_enable");
    noteFault(FaultSite::ConfigReg, /*recovered=*/false, user,
              "'debug_enable' parity at debug read; restored default");
  }
  if (config_regs_.read("debug_enable") == 0) {
    recordEvent(SecurityEventKind::DebugReadBlocked, user,
                "debug peripheral disabled");
    return std::nullopt;
  }
  const StageSlot& s = pipeline_.stage(stage);
  if (!s.valid) return std::nullopt;
  if (hardened() && !pipeline_.stageParityOk(stage)) {
    // Corrupt stage: squash before anything is released through the
    // debug port (the tag may have failed toward public).
    const StageSlot copy = s;
    const bool tag_fault = copy.tag_parity != labelParity(copy.tag);
    pipeline_.squash(stage);
    deliverAbort(copy);
    noteFault(tag_fault ? FaultSite::StageTag : FaultSite::StageData,
              /*recovered=*/false, user,
              "stage " + std::to_string(stage) + " parity at debug read");
    if (tag_fault) zeroizeSlotSquash(copy.key_slot);
    return std::nullopt;
  }
  // A debug read is a confidentiality flow from the stage register to the
  // reader (it does not assert trust in the data).
  if (cfg_.mode == SecurityMode::Protected &&
      !s.tag.c.flowsTo(users_.at(user).authority.c)) {
    recordEvent(SecurityEventKind::DebugReadBlocked, user,
                "stage " + std::to_string(stage) + " holds " +
                    s.tag.toString() + " data; reader is " +
                    users_.at(user).authority.toString());
    return std::nullopt;
  }
  return aes::stateToBlock(s.state);
}

bool AesAccelerator::submit(BlockRequest req) {
  if (req.user >= users_.size()) return false;
  if (req.key_slot >= kRoundKeySlots) {
    recordEvent(SecurityEventKind::KeySlotBlocked, req.user,
                "submit with out-of-range key slot " +
                    std::to_string(req.key_slot));
    return false;
  }
  if (!round_keys_.valid(req.key_slot)) {
    recordEvent(SecurityEventKind::KeySlotBlocked, req.user,
                "submit with invalid key slot " + std::to_string(req.key_slot));
    return false;
  }
  if (hardened() && !round_keys_.slotParityOk(req.key_slot)) {
    // Fail secure: never start a block on a corrupted key. Zeroize the slot
    // (squashing any in-flight blocks that still reference it) and refuse.
    const unsigned casualties = zeroizeSlotSquash(req.key_slot);
    noteFault(FaultSite::RoundKey, /*recovered=*/false, req.user,
              "slot " + std::to_string(req.key_slot) +
                  " parity at submit; zeroized (" +
                  std::to_string(casualties) + " blocks squashed)");
    return false;
  }
  if (round_keys_.rounds(req.key_slot) > pipeline_.maxRounds()) {
    recordEvent(SecurityEventKind::KeySlotBlocked, req.user,
                "key needs more rounds than the pipeline supports");
    return false;
  }
  StageSlot slot;
  slot.valid = true;
  slot.state = aes::blockToState(req.data);
  slot.key_slot = req.key_slot;
  slot.total_rounds = round_keys_.rounds(req.key_slot);
  slot.decrypt = req.decrypt;
  slot.req_id = req.req_id;
  slot.user = req.user;
  // The tag carried through the pipeline: the user's confidentiality joined
  // with the key's confidentiality (the data now depends on both), at the
  // user's integrity.
  const Label& u = users_.at(req.user).authority;
  slot.tag = Label{u.c.join(round_keys_.slot(req.key_slot).key_conf), u.i};
  stampParity(slot);
  input_queues_[req.user].push_back(std::move(slot));
  return true;
}

std::size_t AesAccelerator::submitBatch(const std::vector<BlockRequest>& reqs) {
  std::size_t accepted = 0;
  for (const auto& r : reqs) {
    if (!submit(r)) break;
    ++accepted;
  }
  return accepted;
}

std::size_t AesAccelerator::fetchOutputs(unsigned user,
                                         std::vector<BlockResponse>& out) {
  auto& q = output_queues_.at(user);
  const std::size_t n = q.size();
  out.reserve(out.size() + n);
  while (!q.empty()) {
    out.push_back(std::move(q.front()));
    q.pop_front();
  }
  return n;
}

void AesAccelerator::setReceiverReady(unsigned user, bool ready) {
  receiver_ready_.at(user) = ready;
}

std::optional<BlockResponse> AesAccelerator::fetchOutput(unsigned user) {
  auto& q = output_queues_.at(user);
  if (q.empty()) return std::nullopt;
  BlockResponse r = std::move(q.front());
  q.pop_front();
  return r;
}

const BlockResponse* AesAccelerator::peekOutput(unsigned user) const {
  const auto& q = output_queues_.at(user);
  return q.empty() ? nullptr : &q.front();
}

std::size_t AesAccelerator::pendingInputs(unsigned user) const {
  return input_queues_.at(user).size();
}

std::size_t AesAccelerator::pendingOutputs(unsigned user) const {
  return output_queues_.at(user).size();
}

GcmSubmit AesAccelerator::submitGcm(GcmRequest req) {
  return gcm_.submit(std::move(req));
}

std::optional<GcmResponse> AesAccelerator::fetchGcm(unsigned user) {
  return gcm_.fetch(user);
}

std::optional<StageSlot> AesAccelerator::arbiterPick() {
  const unsigned n = static_cast<unsigned>(users_.size());
  if (n == 0) return std::nullopt;

  if (cfg_.coarse_grained) {
    // Coarse-grained sharing: one user owns the whole pipeline; switching
    // requires the pipeline to drain first (the performance cost the paper
    // motivates fine-grained sharing with).
    if (coarse_active_ && !input_queues_[coarse_owner_].empty()) {
      auto s = std::move(input_queues_[coarse_owner_].front());
      input_queues_[coarse_owner_].pop_front();
      return s;
    }
    if (coarse_active_ && input_queues_[coarse_owner_].empty() &&
        !pipeline_.anyValid()) {
      coarse_active_ = false;  // drained; allow a switch
    }
    if (!coarse_active_) {
      for (unsigned k = 0; k < n; ++k) {
        const unsigned u = (coarse_owner_ + 1 + k) % n;
        if (!input_queues_[u].empty()) {
          if (pipeline_.anyValid()) return std::nullopt;  // still draining
          coarse_owner_ = u;
          coarse_active_ = true;
          auto s = std::move(input_queues_[u].front());
          input_queues_[u].pop_front();
          return s;
        }
      }
    }
    return std::nullopt;
  }

  // Fine-grained: round-robin, one block per cycle from any user.
  for (unsigned k = 0; k < n; ++k) {
    const unsigned u = (rr_next_ + k) % n;
    if (!input_queues_[u].empty()) {
      rr_next_ = (u + 1) % n;
      auto s = std::move(input_queues_[u].front());
      input_queues_[u].pop_front();
      return s;
    }
  }
  return std::nullopt;
}

void AesAccelerator::routeCompleted(StageSlot slot, bool to_buffer) {
  BlockResponse resp;
  resp.req_id = slot.req_id;
  resp.user = slot.user;
  resp.data = aes::stateToBlock(slot.state);
  resp.accept_cycle = slot.accept_cycle;
  resp.complete_cycle = cycle_;

  if (cfg_.mode == SecurityMode::Protected) {
    // Nonmalleable declassification at the pipeline exit (Fig. 7): the
    // result carries (ck join cu, iu); releasing it to the output port
    // declassifies to (bottom, iu), performed by the requesting user. With
    // an authorized key ck <=C r(iu) and this succeeds; with the master key
    // (ck = top) only the supervisor passes (Section 3.2.2).
    const Label from = slot.tag;
    const Label to{lattice::Conf::bottom(), from.i};
    const auto decision =
        lattice::checkDeclassify(from, to, users_.at(slot.user));
    if (!decision.allowed) {
      recordEvent(SecurityEventKind::DeclassifyRejected, slot.user,
                  decision.reason);
      ++stats_.suppressed;
      resp.suppressed = true;
      resp.data = aes::Block{};  // nothing is released
      output_queues_[slot.user].push_back(std::move(resp));
      return;
    }
  }

  // Per-user ordering: if this user already has blocks waiting in the
  // overflow buffer, later completions must queue behind them even when the
  // receiver is ready again.
  bool behind_buffered = false;
  for (const auto& p : overflow_buffer_) {
    if (p.resp.user == resp.user) {
      behind_buffered = true;
      break;
    }
  }

  if (to_buffer || behind_buffered) {
    if (overflow_buffer_.size() >= cfg_.out_buffer_depth) {
      recordEvent(SecurityEventKind::OutputBufferOverflow, slot.user,
                  "overflow buffer full; block dropped");
      ++stats_.dropped;
      // No silent drops: deliver a completion record carrying no data so
      // the request still terminates in a definite outcome.
      resp.dropped = true;
      resp.data = aes::Block{};
      output_queues_[resp.user].push_back(std::move(resp));
      return;
    }
    ++stats_.buffered;
    overflow_buffer_.push_back({std::move(resp), slot.tag});
    return;
  }
  ++stats_.completed;
  output_queues_[resp.user].push_back(std::move(resp));
}

void AesAccelerator::drainBuffer() {
  // Deliver the oldest entry whose receiver is ready (one per cycle);
  // per-user order is preserved because entries of the same user stay in
  // FIFO order.
  for (auto it = overflow_buffer_.begin(); it != overflow_buffer_.end(); ++it) {
    if (receiver_ready_.at(it->resp.user)) {
      it->resp.complete_cycle = cycle_;
      ++stats_.completed;
      output_queues_[it->resp.user].push_back(std::move(it->resp));
      overflow_buffer_.erase(it);
      return;
    }
  }
}

void AesAccelerator::tick() {
  // Parity sweep first: corrupted stages are squashed (and corrupted tags
  // quarantined) before this cycle's stall meet, declassification, or
  // arbitration can consult them.
  if (hardened()) scrubTick();

  bool stall = false;
  bool to_buffer = false;

  // An internal GCM block never waits on a host receiver: the sequencer is
  // always ready, so it cannot request a stall.
  const StageSlot& fin = pipeline_.finalStage();
  if (fin.valid && !fin.gcm_internal && !receiver_ready_.at(fin.user)) {
    if (cfg_.mode == SecurityMode::Baseline) {
      // Unprotected design: the whole pipeline stalls — the covert timing
      // channel of Section 3.2.5.
      stall = true;
    } else {
      // Fig. 8: a stall request is honored only when the requester's
      // confidentiality flows to the meet of all in-flight stage tags, i.e.
      // when no stage holds lower-confidentiality data that could observe
      // the delay. We additionally fold in the tags of blocks waiting at
      // the input (a granted stall delays their acceptance, which their
      // owners can observe) — a strengthening of the paper's rule needed to
      // close the acceptance-delay side of the channel.
      // The meet also folds in the GHASH unit's in-flight tags and the
      // sequencer's active-op labels: a granted stall freezes both (they
      // advance only on non-stall cycles), so their owners must be unable
      // to observe the delay.
      lattice::Conf meet =
          pipeline_.meetConf().meet(ghash_.meetConf()).meet(gcm_.meetConf());
      if (cfg_.meet_includes_inputs) {
        for (const auto& q : input_queues_) {
          if (!q.empty()) meet = meet.meet(q.front().tag.c);
        }
      }
      if (users_.at(fin.user).authority.c.flowsTo(meet)) {
        stall = true;
      } else {
        ++stats_.denied_stalls;
        recordEvent(SecurityEventKind::StallDenied, fin.user,
                    "stall request " + users_.at(fin.user).authority.c.toString() +
                        " does not flow to pipeline meet " + meet.toString());
        to_buffer = true;
      }
    }
  }

  if (stall) {
    ++stats_.stalled_cycles;
  } else {
    // The GCM sequencer runs only on non-stall cycles, in lockstep with
    // the datapaths it feeds (a stall freezes the whole AEAD path — no
    // sequencer-side timing channel).
    gcm_.pump();
    std::optional<StageSlot> input = arbiterPick();
    if (input.has_value() && !round_keys_.valid(input->key_slot)) {
      // The slot was zeroized (fail-secure) after this request was queued
      // but before the arbiter picked it. Never start a block on a dead
      // key: abort it at the accept stage instead.
      input->accept_cycle = cycle_;
      deliverAbort(*input);
      recordEvent(SecurityEventKind::KeySlotBlocked, input->user,
                  "queued request aborted at accept: key slot " +
                      std::to_string(input->key_slot) + " zeroized");
      input.reset();
    }
    if (input.has_value()) {
      input->accept_cycle = cycle_;
      ++stats_.accepted;
    }
    auto completed = pipeline_.advance(std::move(input));
    if (completed.has_value()) {
      if (hardened() && round_keys_.valid(completed->key_slot) &&
          !round_keys_.slotParityOk(completed->key_slot)) {
        // Exit guard: the slow scrub ring visits each round-key slot only
        // every ~20 cycles, so a block can finish all its rounds against a
        // corrupted key before the sweep reaches the slot. Never deliver
        // ciphertext computed from an unverified key — abort the block and
        // zeroize the slot now.
        const unsigned slot = completed->key_slot;
        deliverAbort(*completed);
        noteFault(FaultSite::RoundKey, /*recovered=*/false, completed->user,
                  "slot " + std::to_string(slot) + " parity at pipeline exit");
        zeroizeSlotSquash(slot);
      } else if (completed->gcm_internal) {
        // Hand internal blocks back to the sequencer — no declassification
        // here; the op's single declassification happens at its release.
        gcm_.deliver(*completed);
      } else {
        routeCompleted(std::move(*completed), to_buffer);
      }
    }
    // The GHASH multiplier advances in lockstep with the AES pipe (and
    // freezes with it on stall cycles). Point-of-use detections surface as
    // ordinary fault events.
    for (const auto& f : ghash_.tick(cycle_)) {
      noteFault(f.site, /*recovered=*/false, f.user, f.detail);
    }
  }

  drainBuffer();
  // Environment hook (fault injectors, monitors): runs between clock edges,
  // after this cycle's outputs are queued but before any host logic can
  // fetch them — so a hook can perturb state the next cycle's parity sweep
  // will see, and responses delivered this cycle (drop/duplicate faults).
  if (tick_hook_) tick_hook_();
  ++cycle_;
}

void AesAccelerator::run(unsigned cycles) {
  for (unsigned i = 0; i < cycles; ++i) tick();
}

std::size_t AesAccelerator::eventCount(SecurityEventKind k) const {
  // Served from dedicated counters: exact even after ring-buffer eviction.
  return event_counts_[static_cast<unsigned>(k)];
}

}  // namespace aesifc::accel
