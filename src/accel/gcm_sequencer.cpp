#include "accel/gcm_sequencer.h"

#include <algorithm>
#include <cstring>

#include "accel/accelerator.h"
#include "aes/modes.h"

namespace aesifc::accel {

namespace {

// Block j of a byte string, zero-padded (the SP 800-38D padding of AAD,
// ciphertext, and non-96-bit IVs).
aes::Tag128 paddedBlockAt(const std::vector<std::uint8_t>& v,
                          std::uint64_t j) {
  aes::Tag128 b{};
  const std::size_t off = static_cast<std::size_t>(j) * 16;
  if (off < v.size()) {
    const std::size_t n = std::min<std::size_t>(16, v.size() - off);
    std::memcpy(b.data(), v.data() + off, n);
  }
  return b;
}

void putLen64(std::uint8_t* p, std::uint64_t bytes) {
  const std::uint64_t bits = bytes * 8;
  for (int i = 0; i < 8; ++i)
    p[i] = static_cast<std::uint8_t>(bits >> (8 * (7 - i)));
}

std::uint64_t blocksOf(std::size_t bytes) { return (bytes + 15) / 16; }

aes::Tag128 stateToTag(const aes::State& s) {
  const aes::Block b = aes::stateToBlock(s);
  aes::Tag128 t{};
  std::memcpy(t.data(), b.data(), 16);
  return t;
}

}  // namespace

GcmSubmit GcmSequencer::submit(GcmRequest req) {
  if (req.user >= acc_.users_.size()) return GcmSubmit::BadRequest;
  if (req.key_slot >= kRoundKeySlots ||
      !acc_.round_keys_.valid(req.key_slot)) {
    acc_.recordEvent(SecurityEventKind::KeySlotBlocked, req.user,
                     "gcm submit with unusable key slot " +
                         std::to_string(req.key_slot));
    return GcmSubmit::KeyUnusable;
  }
  if (acc_.hardened() && !acc_.round_keys_.slotParityOk(req.key_slot)) {
    // Same fail-secure rule as the block submit port: never start an op on
    // a corrupted key.
    const unsigned slot = req.key_slot;
    const unsigned casualties = acc_.zeroizeSlotSquash(slot);
    acc_.noteFault(FaultSite::RoundKey, /*recovered=*/false, req.user,
                   "slot " + std::to_string(slot) +
                       " parity at gcm submit; zeroized (" +
                       std::to_string(casualties) + " blocks squashed)");
    return GcmSubmit::KeyUnusable;
  }
  if (acc_.round_keys_.rounds(req.key_slot) > acc_.pipeline_.maxRounds()) {
    acc_.recordEvent(SecurityEventKind::KeySlotBlocked, req.user,
                     "gcm key needs more rounds than the pipeline supports");
    return GcmSubmit::TooManyRounds;
  }
  if (req.iv.empty()) return GcmSubmit::BadRequest;

  unsigned idx = kGcmOps;
  for (unsigned i = 0; i < kGcmOps; ++i) {
    if (!ops_[i].active) {
      idx = i;
      break;
    }
  }
  if (idx == kGcmOps) return GcmSubmit::Full;

  Op& op = ops_[idx];
  op = Op{};
  op.active = true;
  op.req = std::move(req);
  // The op's label is the AES submit rule's: the user's confidentiality
  // joined with the key's, at the user's integrity. Every internal block
  // and every absorbed GHASH block carries it.
  const Label& u = acc_.users_.at(op.req.user).authority;
  op.label =
      Label{u.c.join(acc_.round_keys_.slot(op.req.key_slot).key_conf), u.i};
  op.accept_cycle = acc_.cycle_;
  op.aad_blocks = blocksOf(op.req.aad.size());
  op.ct_blocks = blocksOf(op.req.data.size());
  op.total_blocks = op.aad_blocks + op.ct_blocks + 1;  // + lengths block
  op.ks_have.assign(static_cast<std::size_t>(op.ct_blocks), false);
  op.out.assign(op.req.data.size(), 0);
  if (op.req.iv.size() == 12) {
    // Fast path: J0 = IV || 0^31 || 1 needs no hashing.
    std::memcpy(op.j0.data(), op.req.iv.data(), 12);
    op.j0[15] = 1;
    op.j0_ready = true;
    op.next_ctr = op.j0;
    aes::incCounterBe(op.next_ctr, 32);
  } else {
    // J0 = GHASH_H(IV || pad || 0^64 || [len(IV)]_64).
    op.iv_blocks = blocksOf(op.req.iv.size()) + 1;
  }
  backlog_blocks_ += gcmWorkBlocks(op.req);
  ++acc_.stats_.gcm_ops;
  return GcmSubmit::Accepted;
}

std::optional<GcmResponse> GcmSequencer::fetch(unsigned user) {
  if (user >= out_.size() || out_[user].empty()) return std::nullopt;
  GcmResponse r = std::move(out_[user].front());
  out_[user].pop_front();
  return r;
}

lattice::Conf GcmSequencer::meetConf() const {
  lattice::Conf m = lattice::Conf::top();
  for (const auto& op : ops_) {
    if (op.active && !op.draining) m = m.meet(op.label.c);
  }
  return m;
}

bool GcmSequencer::usesKeySlot(unsigned slot) const {
  for (const auto& op : ops_) {
    if (op.active && op.req.key_slot == slot) return true;
  }
  return false;
}

unsigned GcmSequencer::activeOps() const {
  unsigned n = 0;
  for (const auto& op : ops_) {
    if (op.active) ++n;
  }
  return n;
}

void GcmSequencer::pump() {
  for (unsigned i = 0; i < kGcmOps; ++i) stepOp(i);
}

void GcmSequencer::stepOp(unsigned idx) {
  Op& op = ops_[idx];
  if (!op.active) return;
  if (op.draining) {
    if (op.inflight == 0) op = Op{};
    return;
  }
  const unsigned ks = op.req.key_slot;
  if (!acc_.round_keys_.valid(ks)) {
    abortOp(idx);  // key zeroized mid-op; retryable after a re-load
    return;
  }
  if ((op.stream >= 0 && ghash_.faulted(static_cast<unsigned>(op.stream))) ||
      (op.iv_stream >= 0 &&
       ghash_.faulted(static_cast<unsigned>(op.iv_stream)))) {
    abortOp(idx);
    return;
  }

  // Phase A: hash subkey H = E(K, 0^128), derived on-device once per key
  // slot (deduped across ops; the epoch guards stale derivations).
  if (!ghash_.keyValid(ks)) {
    if (!h_pending_[ks]) {
      const aes::Block zero{};
      if (submitInternal(idx, GcmRole::DeriveH, zero, h_epoch_[ks]))
        h_pending_[ks] = true;
      // On failure the op was fault-aborted inside submitInternal.
    }
    return;
  }

  bool submitted = false;

  // Phase B: J0 for a non-96-bit IV, via its own GHASH stream.
  if (!op.j0_ready) {
    if (op.iv_stream < 0) {
      const auto s =
          ghash_.openStream(op.req.user, ks, op.iv_blocks, op.label);
      if (s.has_value()) op.iv_stream = static_cast<int>(*s);
    }
    if (op.iv_stream >= 0) {
      const unsigned ivs = static_cast<unsigned>(op.iv_stream);
      if (op.iv_fed < op.iv_blocks && ghash_.fifoSpace(ivs) > 0) {
        aes::Tag128 b{};
        if (op.iv_fed + 1 < op.iv_blocks) {
          b = paddedBlockAt(op.req.iv, op.iv_fed);
        } else {
          putLen64(b.data() + 8, op.req.iv.size());
        }
        if (ghash_.absorb(ivs, b, op.label)) ++op.iv_fed;
      }
      if (ghash_.done(ivs)) {
        const aes::Tag128 d = ghash_.digestInternal(ivs);  // stays tagged
        std::memcpy(op.j0.data(), d.data(), 16);
        ghash_.closeStream(ivs);
        op.iv_stream = -1;
        op.j0_ready = true;
        op.next_ctr = op.j0;
        aes::incCounterBe(op.next_ctr, 32);
      }
    }
  }

  // Phase C: tag mask E(K, J0).
  if (op.j0_ready && !op.ekj0_sent) {
    if (!submitInternal(idx, GcmRole::EncryptJ0, op.j0, 0)) return;
    op.ekj0_sent = true;
    submitted = true;
  }

  // Phase D: CTR keystream, at most one internal submit per op per cycle.
  if (!submitted && op.j0_ready && op.ctr_sent < op.ct_blocks) {
    if (!submitInternal(idx, GcmRole::Counter, op.next_ctr,
                        static_cast<std::uint32_t>(op.ctr_sent)))
      return;
    ++op.ctr_sent;
    aes::incCounterBe(op.next_ctr, 32);
  }

  // Phase E: the main hash stream (AAD || CT || lengths). Opened only once
  // J0 is ready so an op never holds a main stream while waiting for an IV
  // stream (which could deadlock the stream pool).
  if (op.stream < 0) {
    if (!op.j0_ready) return;
    const auto s =
        ghash_.openStream(op.req.user, ks, op.total_blocks, op.label);
    if (!s.has_value()) return;  // no free stream; retry next cycle
    op.stream = static_cast<int>(*s);
  }
  const unsigned ms = static_cast<unsigned>(op.stream);
  if (op.fed < op.total_blocks && ghash_.fifoSpace(ms) > 0) {
    std::optional<aes::Tag128> next;
    if (op.fed < op.aad_blocks) {
      next = paddedBlockAt(op.req.aad, op.fed);
    } else if (op.fed < op.aad_blocks + op.ct_blocks) {
      const std::uint64_t j = op.fed - op.aad_blocks;
      // GHASH absorbs ciphertext: an open has it up front; a seal must
      // wait for keystream block j to produce it.
      if (op.req.open) {
        next = paddedBlockAt(op.req.data, j);
      } else if (op.ks_have[static_cast<std::size_t>(j)]) {
        next = paddedBlockAt(op.out, j);
      }
    } else {
      aes::Tag128 b{};
      putLen64(b.data(), op.req.aad.size());
      putLen64(b.data() + 8, op.req.data.size());
      next = b;
    }
    if (next.has_value() && ghash_.absorb(ms, *next, op.label)) ++op.fed;
  }

  // Phase F: finalize once the digest, the tag mask, and (for a seal) the
  // full ciphertext are all in hand.
  if (ghash_.done(ms) && op.ekj0_ready && op.ks_applied == op.ct_blocks)
    finalize(idx);
}

void GcmSequencer::finalize(unsigned idx) {
  Op& op = ops_[idx];
  const unsigned ms = static_cast<unsigned>(op.stream);
  GcmResponse resp;
  resp.req_id = op.req.req_id;
  resp.user = op.req.user;
  resp.accept_cycle = op.accept_cycle;
  resp.complete_cycle = acc_.cycle_;

  // The ONE declassification of the op: the digest leaves the GHASH unit
  // under the same nonmalleable-downgrade rule as ciphertext at the
  // pipeline exit. Everything the response carries (ciphertext, plaintext,
  // tag, even the open verdict) derives from data at the op's label, so
  // this single check gates the whole release.
  aes::Tag128 digest{};
  if (acc_.cfg_.mode == SecurityMode::Protected) {
    const auto rel = ghash_.release(ms, acc_.users_.at(op.req.user));
    switch (rel.status) {
      case GhashUnit::ReleaseStatus::Faulted:
        abortOp(idx);
        return;
      case GhashUnit::ReleaseStatus::Refused:
        acc_.recordEvent(SecurityEventKind::DeclassifyRejected, op.req.user,
                         rel.reason);
        ++acc_.stats_.gcm_suppressed;
        resp.suppressed = true;  // nothing is released
        ghash_.closeStream(ms);
        op.stream = -1;
        emit(std::move(resp));
        freeOp(op);
        return;
      case GhashUnit::ReleaseStatus::NotReady:
        return;  // unreachable: finalize() is guarded by done()
      case GhashUnit::ReleaseStatus::Ok:
        digest = rel.digest;
        break;
    }
  } else {
    digest = ghash_.digestInternal(ms);
  }
  ghash_.closeStream(ms);
  op.stream = -1;

  aes::Tag128 tag{};
  for (unsigned i = 0; i < 16; ++i) tag[i] = digest[i] ^ op.ekj0[i];
  if (!op.req.open) {
    resp.data = std::move(op.out);
    resp.tag = tag;
    ++acc_.stats_.gcm_ok;
  } else {
    // Constant-time comparison; a mismatch is a verdict, not a fault.
    std::uint8_t diff = 0;
    for (unsigned i = 0; i < 16; ++i) diff |= tag[i] ^ op.req.tag[i];
    if (diff != 0) {
      resp.auth_failed = true;
      acc_.recordEvent(SecurityEventKind::AuthTagMismatch, op.req.user,
                       "gcm open req " + std::to_string(op.req.req_id) +
                           ": tag mismatch; plaintext withheld");
      ++acc_.stats_.gcm_auth_failed;
    } else {
      resp.data = std::move(op.out);
      ++acc_.stats_.gcm_ok;
    }
  }
  emit(std::move(resp));
  freeOp(op);
}

void GcmSequencer::abortOp(unsigned idx) {
  Op& op = ops_[idx];
  if (op.stream >= 0) {
    ghash_.closeStream(static_cast<unsigned>(op.stream));
    op.stream = -1;
  }
  if (op.iv_stream >= 0) {
    ghash_.closeStream(static_cast<unsigned>(op.iv_stream));
    op.iv_stream = -1;
  }
  GcmResponse resp;
  resp.req_id = op.req.req_id;
  resp.user = op.req.user;
  resp.accept_cycle = op.accept_cycle;
  resp.complete_cycle = acc_.cycle_;
  resp.fault_aborted = true;  // definite outcome; nothing released
  ++acc_.stats_.gcm_fault_aborted;
  emit(std::move(resp));
  freeOp(op);
}

void GcmSequencer::freeOp(Op& op) {
  backlog_blocks_ -= gcmWorkBlocks(op.req);  // the op stops computing here
  if (op.inflight > 0) {
    // Internal blocks still in the pipe: hold the slot (drained by stepOp /
    // deliver) so a new op cannot alias their gcm_op index.
    op.draining = true;
  } else {
    op = Op{};
  }
}

void GcmSequencer::emit(GcmResponse resp) {
  if (out_.size() <= resp.user) out_.resize(resp.user + 1);
  out_[resp.user].push_back(std::move(resp));
}

bool GcmSequencer::submitInternal(unsigned idx, GcmRole role,
                                  const aes::Block& data, std::uint32_t aux) {
  Op& op = ops_[idx];
  const unsigned ks = op.req.key_slot;
  if (acc_.hardened() && !acc_.round_keys_.slotParityOk(ks)) {
    // Fail secure, same as the submit port. zeroizeSlotSquash() notifies
    // this sequencer, which fault-aborts the op — the caller must not
    // touch it again this cycle.
    const unsigned casualties = acc_.zeroizeSlotSquash(ks);
    acc_.noteFault(FaultSite::RoundKey, /*recovered=*/false, op.req.user,
                   "slot " + std::to_string(ks) +
                       " parity at gcm internal submit; zeroized (" +
                       std::to_string(casualties) + " blocks squashed)");
    return false;
  }
  StageSlot slot;
  slot.valid = true;
  slot.state = aes::blockToState(data);
  slot.key_slot = ks;
  slot.total_rounds = acc_.round_keys_.rounds(ks);
  slot.decrypt = false;
  slot.req_id = op.req.req_id;
  slot.user = op.req.user;
  slot.tag = op.label;
  slot.gcm_internal = true;
  slot.gcm_op = idx;
  slot.gcm_role = static_cast<std::uint8_t>(role);
  slot.gcm_aux = aux;
  stampParity(slot);
  acc_.input_queues_[op.req.user].push_back(std::move(slot));
  ++op.inflight;
  return true;
}

void GcmSequencer::deliver(const StageSlot& s) {
  Op& op = ops_.at(s.gcm_op);
  if (op.inflight > 0) --op.inflight;
  const auto role = static_cast<GcmRole>(s.gcm_role);
  if (role == GcmRole::DeriveH) {
    // Global effect: install H for the key slot. The epoch guard discards
    // a derivation that raced a re-key of the slot.
    if (s.key_slot < kGhashKeySlots && s.gcm_aux == h_epoch_[s.key_slot] &&
        acc_.round_keys_.valid(s.key_slot)) {
      const accel::KeySlot& kslot = acc_.round_keys_.slot(s.key_slot);
      ghash_.loadH(s.key_slot, stateToTag(s.state),
                   Label{kslot.key_conf, kslot.owner.i}, acc_.cycle_);
      h_pending_[s.key_slot] = false;
    }
    return;
  }
  if (!op.active || op.draining) return;
  if (role == GcmRole::EncryptJ0) {
    op.ekj0 = stateToTag(s.state);
    op.ekj0_ready = true;
    return;
  }
  if (role == GcmRole::Counter) {
    const std::uint64_t k = s.gcm_aux;
    if (k >= op.ct_blocks || op.ks_have[static_cast<std::size_t>(k)]) return;
    const aes::Block ksb = aes::stateToBlock(s.state);
    const std::size_t off = static_cast<std::size_t>(k) * 16;
    const std::size_t n = std::min<std::size_t>(16, op.req.data.size() - off);
    for (std::size_t i = 0; i < n; ++i)
      op.out[off + i] = op.req.data[off + i] ^ ksb[i];
    op.ks_have[static_cast<std::size_t>(k)] = true;
    ++op.ks_applied;
  }
}

void GcmSequencer::deliverAbort(const StageSlot& s) {
  Op& op = ops_.at(s.gcm_op);
  if (op.inflight > 0) --op.inflight;
  if (static_cast<GcmRole>(s.gcm_role) == GcmRole::DeriveH &&
      s.key_slot < kGhashKeySlots && s.gcm_aux == h_epoch_[s.key_slot]) {
    h_pending_[s.key_slot] = false;  // allow a fresh derivation
  }
  if (op.active && !op.draining) {
    abortOp(s.gcm_op);
  } else if (op.draining && op.inflight == 0) {
    op = Op{};
  }
}

void GcmSequencer::noteKeySlotInvalid(unsigned key_slot) {
  if (key_slot < kGhashKeySlots) {
    ++h_epoch_[key_slot];
    h_pending_[key_slot] = false;
  }
  for (unsigned i = 0; i < kGcmOps; ++i) {
    Op& op = ops_[i];
    if (op.active && !op.draining && op.req.key_slot == key_slot) abortOp(i);
  }
}

}  // namespace aesifc::accel
