#include "accel/accelerator.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>

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
  // Nothing is released from a squashed stage.
  ++stats_.fault_aborted;
  if (slot.user >= output_queues_.size()) return;
  const auto younger = std::find_if(
      held_aborts_.begin(), held_aborts_.end(), [&](const BlockResponse& h) {
        return h.user == slot.user && h.accept_cycle > slot.accept_cycle;
      });
  held_aborts_.insert(younger,
                      respond<BlockResponse>(slot.req_id, slot.user,
                                             slot.accept_cycle,
                                             AccelStatus::FaultAborted));
  releaseAborts(slot.user);
}

void AesAccelerator::releaseAborts(unsigned user) {
  std::uint64_t oldest_in_pipe = std::numeric_limits<std::uint64_t>::max();
  for (unsigned i = 0; i < pipeline_.depth(); ++i) {
    const StageSlot& s = pipeline_.meta(i);
    if (s.valid && !s.gcm_internal && s.user == user)
      oldest_in_pipe = std::min(oldest_in_pipe, s.accept_cycle);
  }
  for (auto it = held_aborts_.begin(); it != held_aborts_.end();) {
    if (it->user != user || it->accept_cycle > oldest_in_pipe) {
      ++it;
      continue;
    }
    it->complete_cycle = cycle_;
    output_queues_[user].push_back(std::move(*it));
    it = held_aborts_.erase(it);
  }
}

unsigned AesAccelerator::zeroizeSlotSquash(unsigned slot) {
  unsigned casualties = 0;
  // Oldest stage first, so the casualties' records leave in request order.
  for (unsigned i = pipeline_.depth(); i-- > 0;) {
    const StageSlot& s = pipeline_.meta(i);
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

void AesAccelerator::failSecureStage(unsigned stage, unsigned user,
                                     const char* what) {
  // The corrupted stage is squashed before its contents or tag are used
  // again — the tag can only ever fail upward, never toward public. A tag
  // fault also voids the key binding: zeroize the slot.
  const StageSlot s = pipeline_.meta(stage);
  const bool tag_fault = s.tag_parity != labelParity(s.tag);
  pipeline_.squash(stage);
  deliverAbort(s);
  noteFault(tag_fault ? FaultSite::StageTag : FaultSite::StageData,
            /*recovered=*/false, user,
            "stage " + std::to_string(stage) + " parity " + what);
  if (tag_fault) zeroizeSlotSquash(s.key_slot);
}

std::optional<GcmSubmit> AesAccelerator::slotRefusal(unsigned user,
                                                     unsigned slot,
                                                     const char* port) {
  auto refuse = [&](const char* why, GcmSubmit verdict) {
    recordEvent(SecurityEventKind::KeySlotBlocked, user,
                std::string(port) + " refused: key slot " +
                    std::to_string(slot) + " " + why);
    return verdict;
  };
  switch (checkSlot(slot)) {
    case SlotCheck::Usable:
      return std::nullopt;
    case SlotCheck::OutOfRange:
      return refuse("out of range", GcmSubmit::KeyUnusable);
    case SlotCheck::Empty:
      return refuse("empty", GcmSubmit::KeyUnusable);
    case SlotCheck::Corrupt:
      // Fail secure: never start work on a corrupted key.
      failSecureSlot(slot, user, port, /*at_use=*/true);
      return GcmSubmit::KeyUnusable;
    case SlotCheck::TooManyRounds:
      break;
  }
  return refuse("needs more rounds than the pipeline supports",
                GcmSubmit::TooManyRounds);
}

AesAccelerator::SlotCheck AesAccelerator::checkSlot(unsigned slot) const {
  if (slot >= kRoundKeySlots) return SlotCheck::OutOfRange;
  if (!round_keys_.valid(slot)) return SlotCheck::Empty;
  if (hardened() && !round_keys_.slotParityOk(slot)) return SlotCheck::Corrupt;
  if (round_keys_.rounds(slot) > pipeline_.maxRounds())
    return SlotCheck::TooManyRounds;
  return SlotCheck::Usable;
}

void AesAccelerator::failSecureSlot(unsigned slot, unsigned user,
                                    const char* where, bool at_use) {
  const unsigned casualties = zeroizeSlotSquash(slot);
  noteFault(FaultSite::RoundKey, /*recovered=*/!at_use && casualties == 0,
            user,
            "slot " + std::to_string(slot) + " parity at " + where +
                "; zeroized (" + std::to_string(casualties) +
                " blocks squashed)");
}

bool AesAccelerator::ownerAllows(unsigned user, unsigned slot,
                                 const char* op) {
  if (slot >= kRoundKeySlots) {
    recordEvent(SecurityEventKind::KeySlotBlocked, user,
                std::string(op) + " refused: slot " + std::to_string(slot) +
                    " out of range");
    return false;
  }
  // Open: Baseline, an empty slot, and a slot whose checksum fails (its
  // owner label cannot be trusted, and the device would not use its key).
  if (cfg_.mode != SecurityMode::Protected || !round_keys_.valid(slot) ||
      (hardened() && !round_keys_.slotParityOk(slot)))
    return true;
  const Label& owner = round_keys_.slot(slot).owner;
  const Label& requester = users_.at(user).authority;
  if (requester.i.flowsTo(owner.i)) return true;
  recordEvent(SecurityEventKind::KeySlotBlocked, user,
              std::string(op) + " refused: " + requester.i.toString() +
                  " does not dominate owner integrity " + owner.i.toString());
  return false;
}

void AesAccelerator::scrubTick() {
  // Fast ring: every pipeline-stage comparator and every scratchpad tag
  // comparator runs each cycle (parallel hardware), so a flipped tag is
  // caught before any release decision can consult it. Every writer but a
  // fault port restamps the parity it changes, so a comparator can only
  // fail on storage a fault port wrote since it last matched: only those
  // (the suspects) are evaluated, in ascending order, and the rest pass by
  // construction. A squash can only empty stages, and stageParityOk
  // re-reads validity, so the snapshot stays exact.
  for (std::uint64_t sus = pipeline_.suspects(); sus != 0; sus &= sus - 1) {
    const unsigned i = static_cast<unsigned>(std::countr_zero(sus));
    if (!pipeline_.stageParityOk(i))
      failSecureStage(i, pipeline_.meta(i).user, "mismatch; squashed");
  }
  for (unsigned sus = scratchpad_.suspectTags(); sus != 0; sus &= sus - 1) {
    const unsigned c = static_cast<unsigned>(std::countr_zero(sus));
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
  // GHASH H-table slot per cycle, round-robin. The cursor stays in
  // [0, slowScrubSize()), so n ticks always visit the same entries however
  // many cycles came before.
  const unsigned idx = scrub_next_;
  scrub_next_ = idx + 1 == slowScrubSize() ? 0 : idx + 1;
  if (slowScrubOk(idx)) return;
  if (idx < kScratchpadCells) {
    scratchpad_.failSecure(idx);
    noteFault(FaultSite::ScratchCell, /*recovered=*/true, 0,
              "cell " + std::to_string(idx) + " data parity; zeroized");
  } else if (idx < kScratchpadCells + kRoundKeySlots) {
    failSecureSlot(idx - kScratchpadCells, 0, "scrub", /*at_use=*/false);
  } else if (idx < kScratchpadCells + kRoundKeySlots + config_regs_.size()) {
    const unsigned reg = idx - kScratchpadCells - kRoundKeySlots;
    config_regs_.restoreDefault(reg);
    noteFault(FaultSite::ConfigReg, /*recovered=*/true, 0,
              "'" + config_regs_.names()[reg] +
                  "' parity; restored power-on default");
  } else {
    const unsigned slot =
        idx - kScratchpadCells - kRoundKeySlots - config_regs_.size();
    const auto f = ghash_.scrubKeySlot(slot);
    noteFault(f->site, /*recovered=*/false, f->user, f->detail);
  }
}

bool AesAccelerator::fastScrubOk() const {
  for (std::uint64_t sus = pipeline_.suspects(); sus != 0; sus &= sus - 1) {
    if (!pipeline_.stageParityOk(static_cast<unsigned>(std::countr_zero(sus))))
      return false;
  }
  for (unsigned sus = scratchpad_.suspectTags(); sus != 0; sus &= sus - 1) {
    if (!scratchpad_.tagParityOk(static_cast<unsigned>(std::countr_zero(sus))))
      return false;
  }
  return true;
}

unsigned AesAccelerator::slowScrubSize() const {
  return kScratchpadCells + kRoundKeySlots + config_regs_.size() +
         kGhashKeySlots;
}

bool AesAccelerator::slowScrubOk(unsigned idx) const {
  if (idx < kScratchpadCells) return scratchpad_.cellParityOk(idx);
  idx -= kScratchpadCells;
  if (idx < kRoundKeySlots) return round_keys_.slotParityOk(idx);
  idx -= kRoundKeySlots;
  if (idx < config_regs_.size()) return config_regs_.parityOk(idx);
  return ghash_.keySlotOk(idx - config_regs_.size());
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
    case FaultSite::RoundKey: {
      // Blocks in flight on the slot have done their earlier rounds with
      // the unflipped key: make them eager before the key changes.
      const unsigned slot = index % kRoundKeySlots;
      pipeline_.materializeKeySlot(slot);
      return round_keys_.faultFlipKeyBit(slot, (bit / 128) % 15,
                                         (bit % 128) / 8, bit % 8);
    }
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

bool AesAccelerator::configureKeyCells(unsigned user, unsigned base,
                                       unsigned count) {
  // The re-tag overwrites each cell's tag (and, Protected, its data) with
  // fresh parity, so it runs the cells' comparators first: an upset it
  // would erase is reported, not lost.
  if (hardened() && count <= kScratchpadCells &&
      base <= kScratchpadCells - count) {
    for (unsigned c = base; c < base + count; ++c) {
      const bool tag_bad = !scratchpad_.tagParityOk(c);
      if (!tag_bad && scratchpad_.cellParityOk(c)) continue;
      scratchpad_.failSecure(c);
      noteFault(tag_bad ? FaultSite::ScratchTag : FaultSite::ScratchCell,
                /*recovered=*/true, user,
                "cell " + std::to_string(c) + " parity at re-tag");
    }
  }
  return scratchpad_.configureCells(base, count, users_.at(user).authority);
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
  if (!ownerAllows(user, slot, "loadKey")) return false;
  const unsigned cells = aes::keyBytes(ks) / 8;
  std::vector<std::uint8_t> key_bytes;
  key_bytes.reserve(aes::keyBytes(ks));
  const Label& requester = users_.at(user).authority;
  for (unsigned c = cell_base; c < cell_base + cells; ++c) {
    if (hardened() && c < kScratchpadCells) {
      const bool tag_bad = !scratchpad_.tagParityOk(c);
      if (tag_bad || !scratchpad_.cellParityOk(c)) {
        scratchpad_.failSecure(c);
        noteFault(tag_bad ? FaultSite::ScratchTag : FaultSite::ScratchCell,
                  /*recovered=*/false, user,
                  "cell " + std::to_string(c) + " parity at key expansion");
        return false;
      }
    }
    const auto v = scratchpad_.readCell(c, requester);
    if (!v.has_value()) {
      recordEvent(SecurityEventKind::ScratchpadReadBlocked, user,
                  "key expansion read of cell " + std::to_string(c) +
                      " blocked");
      return false;
    }
    for (unsigned b = 0; b < 8; ++b) {
      key_bytes.push_back(static_cast<std::uint8_t>(*v >> (8 * b)));
    }
  }
  // A re-keyed slot first drops everything bound to the previous key:
  // blocks in flight on it fault-abort instead of finishing under a mix of
  // old and new round keys, the H derived from it is voided, and GCM ops
  // bound to the slot fault-abort (the driver re-runs them on the new key).
  zeroizeSlotSquash(slot);
  round_keys_.store(slot, aes::expandKey(key_bytes, ks), key_conf, requester);
  return true;
}

bool AesAccelerator::keySlotBusy(unsigned slot) const {
  for (unsigned i = 0; i < pipeline_.depth(); ++i) {
    const auto& s = pipeline_.meta(i);
    if (s.valid && s.key_slot == slot) return true;
  }
  // A GCM op holds its key slot for its whole lifetime (H tables, pending
  // keystream, hash streams).
  return gcm_.usesKeySlot(slot);
}

bool AesAccelerator::clearKey(unsigned user, unsigned slot) {
  if (slot >= kRoundKeySlots || !round_keys_.valid(slot)) return false;
  // Refuse while the slot is referenced by in-flight work.
  if (keySlotBusy(slot)) {
    recordEvent(SecurityEventKind::KeySlotBlocked, user,
                "clearKey refused: slot " + std::to_string(slot) +
                    " has blocks in flight");
    return false;
  }
  if (!ownerAllows(user, slot, "clearKey")) return false;
  zeroizeSlotSquash(slot);  // idle: nothing to squash
  return true;
}

std::optional<lattice::HwTag> AesAccelerator::stageHwTag(unsigned stage) const {
  const StageSlot& s = pipeline_.meta(stage);
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
  constexpr unsigned kGate = ConfigRegisters::kDebugEnable;
  if (hardened() && !config_regs_.parityOk(kGate)) {
    config_regs_.restoreDefault(kGate);
    noteFault(FaultSite::ConfigReg, /*recovered=*/false, user,
              "'debug_enable' parity at debug read; restored default");
  }
  if (config_regs_.value(kGate) == 0) {
    recordEvent(SecurityEventKind::DebugReadBlocked, user,
                "debug peripheral disabled");
    return std::nullopt;
  }
  // A stage select past the pipe is refused like any other debug read.
  if (stage >= pipeline_.depth()) {
    recordEvent(SecurityEventKind::DebugReadBlocked, user,
                "no stage " + std::to_string(stage));
    return std::nullopt;
  }
  const StageSlot& s = pipeline_.meta(stage);
  if (!s.valid) return std::nullopt;
  if (hardened() && !pipeline_.stageParityOk(stage)) {
    // Corrupt stage: squash before anything is released through the
    // debug port (the tag may have failed toward public).
    failSecureStage(stage, user, "at debug read");
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
  return aes::stateToBlock(pipeline_.stage(stage).state);
}

bool AesAccelerator::submit(BlockRequest req) {
  if (req.user >= users_.size()) return false;
  if (slotRefusal(req.user, req.key_slot, "submit")) return false;
  enqueueBlock(req, workLabel(req.user, req.key_slot));
  return true;
}

Label AesAccelerator::workLabel(unsigned user, unsigned slot) const {
  return accel::workLabel(users_.at(user), round_keys_.slot(slot).key_conf);
}

StageSlot& AesAccelerator::enqueueBlock(const BlockRequest& req,
                                        const Label& tag) {
  StageSlot slot;
  slot.valid = true;
  slot.state = aes::blockToState(req.data);
  slot.key_slot = req.key_slot;
  slot.total_rounds = round_keys_.rounds(req.key_slot);
  slot.decrypt = req.decrypt;
  slot.req_id = req.req_id;
  slot.user = req.user;
  slot.tag = tag;
  stampParity(slot);
  ++queued_inputs_;
  return input_queues_[req.user].emplace_back(std::move(slot));
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

StageSlot AesAccelerator::popInput(unsigned user) {
  StageSlot s = std::move(input_queues_[user].front());
  input_queues_[user].pop_front();
  --queued_inputs_;
  return s;
}

std::optional<StageSlot> AesAccelerator::arbiterPick() {
  const unsigned n = static_cast<unsigned>(users_.size());
  if (n == 0) return std::nullopt;

  if (cfg_.coarse_grained) {
    // Coarse-grained sharing: one user owns the whole pipeline; switching
    // requires the pipeline to drain first (the performance cost the paper
    // motivates fine-grained sharing with).
    if (coarse_active_ && !input_queues_[coarse_owner_].empty())
      return popInput(coarse_owner_);
    if (coarse_active_ && !pipeline_.anyValid()) {
      coarse_active_ = false;  // drained; allow a switch
    }
    if (!coarse_active_ && queued_inputs_ != 0) {
      for (unsigned k = 0; k < n; ++k) {
        const unsigned u = (coarse_owner_ + 1 + k) % n;
        if (!input_queues_[u].empty()) {
          if (pipeline_.anyValid()) return std::nullopt;  // still draining
          coarse_owner_ = u;
          coarse_active_ = true;
          return popInput(u);
        }
      }
    }
    return std::nullopt;
  }

  // Fine-grained: round-robin, one block per cycle from any user.
  if (queued_inputs_ == 0) return std::nullopt;
  for (unsigned k = 0; k < n; ++k) {
    const unsigned u = (rr_next_ + k) % n;
    if (!input_queues_[u].empty()) {
      rr_next_ = (u + 1) % n;
      return popInput(u);
    }
  }
  return std::nullopt;
}

void AesAccelerator::routeCompleted(StageSlot slot, bool to_buffer) {
  // Nonmalleable declassification at the pipeline exit (Fig. 7): the
  // result carries (ck join cu, iu) and leaves as (bottom, iu), a
  // declassification performed by the requesting user.
  BlockResponse resp = exitResponse<BlockResponse>(
      slot.req_id, slot.user, slot.accept_cycle, slot.tag, stats_.suppressed);

  // Per-user ordering: if this user already has results waiting in the
  // overflow buffer, later completions must queue behind them even when the
  // receiver is ready again. A record carrying no data (Suppressed, or
  // Dropped below) rides behind the user's last buffered result without
  // taking a data slot, and leaves with it.
  PendingOutput* last = nullptr;
  for (auto& p : overflow_buffer_) {
    if (p.resp.user == resp.user) last = &p;
  }
  const auto deliverRecord = [&](BlockResponse r) {
    if (last != nullptr) {
      last->trailing.push_back(std::move(r));
    } else {
      output_queues_[r.user].push_back(std::move(r));
    }
  };
  if (resp.status == AccelStatus::Suppressed) {
    deliverRecord(std::move(resp));
    return;
  }
  resp.data = aes::stateToBlock(slot.state);

  if (to_buffer || last != nullptr) {
    if (overflow_buffer_.size() >= cfg_.out_buffer_depth) {
      recordEvent(SecurityEventKind::OutputBufferOverflow, slot.user,
                  "overflow buffer full; block dropped");
      ++stats_.dropped;
      // No silent drops: deliver a completion record carrying no data so
      // the request still terminates in a definite outcome.
      resp.status = AccelStatus::Dropped;
      resp.data = aes::Block{};
      deliverRecord(std::move(resp));
      return;
    }
    ++stats_.buffered;
    overflow_buffer_.push_back({std::move(resp), {}});
    return;
  }
  ++stats_.completed;
  output_queues_[resp.user].push_back(std::move(resp));
}

void AesAccelerator::exitBlock(StageSlot&& done, bool to_buffer) {
  if (hardened() && round_keys_.valid(done.key_slot) &&
      !round_keys_.slotParityOk(done.key_slot)) {
    // Exit guard: the slow scrub ring visits each round-key slot only
    // every ~20 cycles, so a block can finish all its rounds against a
    // corrupted key before the sweep reaches the slot. Never deliver
    // ciphertext computed from an unverified key — abort the block and
    // zeroize the slot now.
    deliverAbort(done);
    failSecureSlot(done.key_slot, done.user, "pipeline exit",
                   /*at_use=*/true);
  } else if (done.gcm_internal) {
    // Hand internal blocks back to the sequencer — no declassification
    // here; the op's single declassification happens at its release.
    gcm_.deliver(done);
  } else {
    const unsigned user = done.user;
    routeCompleted(std::move(done), to_buffer);
    if (!held_aborts_.empty()) releaseAborts(user);
  }
}

void AesAccelerator::drainBuffer() {
  // Deliver the oldest entry whose receiver is ready (one per cycle), with
  // the no-data records queued behind it; per-user order is preserved
  // because entries of the same user stay in FIFO order.
  for (auto it = overflow_buffer_.begin(); it != overflow_buffer_.end(); ++it) {
    if (receiver_ready_.at(it->resp.user)) {
      auto& q = output_queues_[it->resp.user];
      it->resp.complete_cycle = cycle_;
      ++stats_.completed;
      q.push_back(std::move(it->resp));
      for (auto& r : it->trailing) {
        r.complete_cycle = cycle_;
        q.push_back(std::move(r));
      }
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
      if (cfg_.meet_includes_inputs && queued_inputs_ != 0) {
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
    // A request's slot may have been zeroized (fail-secure), or reloaded
    // with a key of another size, while the request sat in its queue.
    // Never start a block on a dead key or with a round count its key
    // schedule lacks: abort it at the accept stage instead.
    if (input.has_value()) {
      const bool zeroized = !round_keys_.valid(input->key_slot);
      if (zeroized ||
          round_keys_.rounds(input->key_slot) != input->total_rounds) {
        input->accept_cycle = cycle_;
        deliverAbort(*input);
        recordEvent(SecurityEventKind::KeySlotBlocked, input->user,
                    "queued request aborted at accept: key slot " +
                        std::to_string(input->key_slot) +
                        (zeroized ? " zeroized" : " reloaded"));
        input.reset();
      }
    }
    if (input.has_value()) {
      input->accept_cycle = cycle_;
      ++stats_.accepted;
    }
    if (auto completed = pipeline_.advance(std::move(input)))
      exitBlock(std::move(*completed), to_buffer);
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
  for (std::uint64_t left = cycles; left > 0;) {
    const std::uint64_t quiet = skipQuiet(left);
    if (quiet == 0) tick();
    left -= quiet == 0 ? 1 : quiet;
  }
}

bool AesAccelerator::quietGates() const {
  return !tick_hook_ && queued_inputs_ == 0 && overflow_buffer_.empty() &&
         !gcm_.anyActive() && ghash_.idle() && !pipeline_.anyEager();
}

std::uint64_t AesAccelerator::scrubClear(std::uint64_t span) const {
  if (!hardened()) return span;
  // The fast-ring checks read stage tags and the scratchpad tag array
  // with their parity bits, which nothing writes while the gates are shut
  // (a lazy block's tag rides in its register, a new block's is stamped),
  // so one evaluation gives every cycle's verdict. The slow-ring entries
  // are as constant, so the cycles end before the first entry they would
  // visit that fails.
  if (!fastScrubOk()) return 0;
  const unsigned ring = slowScrubSize();
  for (std::uint64_t j = 0; j < span && j < ring; ++j) {
    if (!slowScrubOk(static_cast<unsigned>((scrub_next_ + j) % ring)))
      return j;
  }
  return span;
}

void AesAccelerator::passCycles(std::uint64_t n) {
  if (hardened())
    scrub_next_ = static_cast<unsigned>((scrub_next_ + n) % slowScrubSize());
  cycle_ += n;
}

std::uint64_t AesAccelerator::skipQuiet(std::uint64_t limit) {
  // A quiet tick finds nothing to accept, pump, hash, step, deliver or
  // drain, and no hook to call: every gate of tick() is shut, so all it
  // does is move lazy blocks one stage on and run the scrub checks.
  if (limit == 0 || !quietGates()) return 0;
  // The next tick's arbiter would end a drained coarse-grained tenure.
  if (coarse_active_ && !pipeline_.anyValid()) return 0;
  // The tick that finds a block at the final stage delivers it, and with
  // it the stall rule and the exit gate; the span stops before that tick.
  std::uint64_t span = limit;
  if (const std::uint64_t occ = pipeline_.occupancy(); occ != 0) {
    span = std::min<std::uint64_t>(
        span, pipeline_.depth() - static_cast<unsigned>(std::bit_width(occ)));
  }
  span = scrubClear(span);
  if (span == 0) return 0;
  pipeline_.rotate(span);
  passCycles(span);
  return span;
}

bool AesAccelerator::canTakeRun(unsigned user, unsigned slot) const {
  // With these gates shut, no tick of the run can stall, buffer, drop,
  // abort, pump, hash or call out, and no host call comes between its
  // cycles: each tick only accepts the user's next block, moves the pipe
  // and releases the block leaving it. Every scrub check must pass for a
  // whole ring, so none fails however long the run is.
  if (!quietGates() || cfg_.coarse_grained || pipeline_.anyValid() ||
      !held_aborts_.empty() || user >= users_.size() ||
      !receiver_ready_[user] || !output_queues_[user].empty() ||
      checkSlot(slot) != SlotCheck::Usable)
    return false;
  const unsigned ring = slowScrubSize();
  return scrubClear(ring) == ring;
}

std::uint64_t AesAccelerator::runSpan(unsigned user, std::uint64_t limit) {
  auto& q = input_queues_.at(user);
  assert(queued_inputs_ == q.size());
  const unsigned depth = pipeline_.depth();
  const std::uint64_t final_bit = std::uint64_t{1} << (depth - 1);
  const unsigned rr_after = (user + 1) % static_cast<unsigned>(users_.size());
  std::uint64_t ran = 0;
  while (ran < limit) {
    const std::uint64_t occ = pipeline_.occupancy();
    if (q.empty() && (occ & final_bit) == 0) {
      if (occ == 0) break;  // the run's last block has left
      // Nothing to accept or release until the oldest block is final.
      const std::uint64_t quiet = std::min<std::uint64_t>(
          limit - ran, depth - static_cast<unsigned>(std::bit_width(occ)));
      pipeline_.rotate(quiet);
      passCycles(quiet);
      ran += quiet;
      continue;
    }
    // A busy cycle: what tick() does here, its other gates shut.
    std::optional<StageSlot> input;
    if (!q.empty()) {
      input = popInput(user);
      input->accept_cycle = cycle_;
      ++stats_.accepted;
      rr_next_ = rr_after;
    }
    if (auto done = pipeline_.advance(std::move(input)))
      exitBlock(std::move(*done), /*to_buffer=*/false);
    passCycles(1);
    ++ran;
  }
  return ran;
}

std::size_t AesAccelerator::eventCount(SecurityEventKind k) const {
  // Served from dedicated counters: exact even after ring-buffer eviction.
  return event_counts_[static_cast<unsigned>(k)];
}

}  // namespace aesifc::accel
