#pragma once
// GCM sequencer: the control engine that composes AES-GCM (SP 800-38D)
// from the two tagged datapaths on the device — the 30-stage AES pipe
// (CTR keystream, H = E(K, 0^128), E(K, J0)) and the pipelined GHASH
// unit. Internal AES blocks ride the owning user's own input queue as
// ordinary StageSlots marked `gcm_internal`; at the pipeline exit they are
// handed back here instead of being declassified to an output queue, so a
// GCM operation performs exactly ONE declassification: when its finished
// digest leaves through the accelerator's exit gate, the one ciphertext
// passes at the pipeline exit. An open whose tag comparison fails
// is a verdict (AuthFailed), not a fault; a fault anywhere in the op's
// state (stage parity, accumulator parity, H-table checksum, key
// zeroization mid-op) fail-secures the whole op — nothing is released.

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "accel/ghash_unit.h"
#include "accel/pipeline.h"
#include "accel/types.h"

namespace aesifc::accel {

class AesAccelerator;

inline constexpr unsigned kGcmOps = 8;  // concurrent GCM operations

// The sequencer's answer at submit. Only `Full` is transient: an op slot
// frees as soon as an earlier op completes, so a caller that overlaps ops
// collects one and submits again. Every other refusal is deterministic.
enum class GcmSubmit : std::uint8_t {
  Accepted,
  Full,           // all kGcmOps op slots busy
  KeyUnusable,    // key slot empty, out of range, or failed its parity check
  TooManyRounds,  // the key needs more rounds than the pipeline has
  BadRequest,     // unknown user or empty IV
};

// The AES and GHASH passes one op costs besides its fixed J0/H/tag work:
// one per data, AAD and IV block (the driver's watchdog unit).
inline std::uint64_t gcmWorkBlocks(const GcmRequest& req) {
  return (req.data.size() + 15) / 16 + (req.aad.size() + 15) / 16 +
         (req.iv.size() + 15) / 16;
}

// Role of an internal AES block in flight for the sequencer.
enum class GcmRole : std::uint8_t {
  None = 0,
  DeriveH = 1,    // E(K, 0^128): the hash subkey (gcm_aux = H epoch)
  EncryptJ0 = 2,  // E(K, J0): the tag mask
  Counter = 3,    // CTR keystream block (gcm_aux = block index)
};

class GcmSequencer {
 public:
  GcmSequencer(AesAccelerator& acc, GhashUnit& ghash)
      : acc_{acc}, ghash_{ghash} {}

  // Accept one GCM operation (seal or open), or say why not.
  GcmSubmit submit(GcmRequest req);
  std::optional<GcmResponse> fetch(unsigned user);

  // Meet over the confidentiality of every active op's label — folded into
  // the Fig. 8 stall meet together with the pipeline's and GHASH unit's.
  lattice::Conf meetConf() const;

  // True while any op (including one draining its in-flight internal
  // blocks) references the AES key slot; key zeroization must wait.
  bool usesKeySlot(unsigned slot) const;
  // True while any op is active (computing or draining): pump() may act.
  bool anyActive() const { return active_ != 0; }
  // True when a response for `user` waits to be fetched.
  bool hasResponse(unsigned user) const {
    return user < out_.size() && !out_[user].empty();
  }

  // gcmWorkBlocks summed over the ops still computing (not draining): the
  // work a newly accepted op shares the pipe with.
  std::uint64_t backlogBlocks() const { return backlog_blocks_; }

  // One clock of every op state machine: at most one internal AES submit
  // and one GHASH absorb per op per cycle. Frozen during stall cycles.
  void pump();

  // Pipeline-exit hand-back of an internal block (never declassified).
  void deliver(const StageSlot& s);
  // An internal block was squashed by the fail-secure path: the owning op
  // aborts (FaultAborted) — a definite outcome, never a silent drop.
  void deliverAbort(const StageSlot& s);
  // The AES key slot was re-stored, cleared, or zeroized: its H is stale;
  // every op bound to it fault-aborts (retryable by the driver).
  void noteKeySlotInvalid(unsigned key_slot);

 private:
  struct Op {
    bool draining = false;  // response emitted; internal blocks in flight
    GcmRequest req;
    Label label{};  // join(user conf, key conf) at user integrity
    std::uint64_t accept_cycle = 0;
    unsigned inflight = 0;  // internal AES blocks in the pipe
    // J0 derivation (96-bit IV: immediate; otherwise via a GHASH stream).
    bool j0_ready = false;
    aes::Block j0{};
    int iv_stream = -1;
    std::uint64_t iv_blocks = 0, iv_fed = 0;
    // Tag mask E(K, J0).
    bool ekj0_sent = false, ekj0_ready = false;
    aes::Tag128 ekj0{};
    // CTR keystream.
    aes::Block next_ctr{};
    std::uint64_t ctr_sent = 0, ks_applied = 0;
    std::vector<bool> ks_have;
    // Main hash stream: AAD blocks, then ciphertext blocks, then lengths.
    int stream = -1;
    std::uint64_t aad_blocks = 0, ct_blocks = 0, total_blocks = 0, fed = 0;
    std::vector<std::uint8_t> out;  // seal: ciphertext; open: plaintext
  };

  bool active(unsigned idx) const { return (active_ >> idx & 1) != 0; }
  void stepOp(unsigned idx);
  void finalize(unsigned idx);
  // Fail-secure abort: emits a FaultAborted response, closes the op's
  // GHASH streams, and holds the slot until in-flight blocks drain.
  void abortOp(unsigned idx);
  // The op stops computing: it drains its in-flight blocks, or is released.
  void freeOp(unsigned idx);
  // Empty the op slot.
  void release(unsigned idx);
  void emit(GcmResponse resp);
  bool submitInternal(unsigned idx, GcmRole role, const aes::Block& data,
                      std::uint32_t aux);

  AesAccelerator& acc_;
  GhashUnit& ghash_;
  std::array<Op, kGcmOps> ops_{};
  // Bit i is set while op slot i is active (computing or draining), so a
  // pump steps only active ops.
  static_assert(kGcmOps <= 8);
  std::uint8_t active_ = 0;
  // H derivation dedup: one DeriveH in flight per key slot; the epoch
  // guards against a stale H landing after the slot was re-keyed.
  std::array<bool, kGhashKeySlots> h_pending_{};
  std::array<std::uint32_t, kGhashKeySlots> h_epoch_{};
  std::vector<std::deque<GcmResponse>> out_;  // per-user completions
  std::uint64_t backlog_blocks_ = 0;  // added at submit, removed at freeOp
};

}  // namespace aesifc::accel
