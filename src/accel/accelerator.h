#pragma once
// Top-level accelerator (Fig. 4): AXI-like host interface with per-user
// queues, arbiter, key scratchpad + round-key RAM, configuration registers,
// debug peripheral, the pipelined AES datapath, and — in Protected mode —
// the runtime enforcement the paper adds: per-stage security tags, tag
// checks on the scratchpad / debug port / config registers, the meet-gated
// stall rule with an overflow output buffer (Fig. 8), and nonmalleable
// declassification of ciphertext at the pipeline exit (Sections 3.2.1-2).
//
// The same class implements both the unprotected baseline and the protected
// design (the paper derives the protected design from the baseline with a
// ~70-line delta; here the delta is the SecurityMode checks).

#include <array>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "accel/config_regs.h"
#include "accel/gcm_sequencer.h"
#include "accel/ghash_unit.h"
#include "accel/key_store.h"
#include "accel/pipeline.h"
#include "accel/types.h"
#include "lattice/tag.h"

namespace aesifc::accel {

struct AcceleratorConfig {
  SecurityMode mode = SecurityMode::Protected;
  unsigned max_rounds = 10;        // 10 => 30-stage AES-128 pipeline
  unsigned out_buffer_depth = 32;  // protected-mode overflow buffer
  bool coarse_grained = false;     // drain pipeline between users (Section 1)
  // Fold the tags of blocks waiting at the input into the Fig. 8 stall
  // meet (a granted stall also delays their acceptance). True is our
  // strengthened rule; false is the paper's stage-only meet — kept as an
  // ablation knob that re-opens an acceptance-delay side channel
  // (see bench_ablation).
  bool meet_includes_inputs = true;
  // Fail-secure fault hardening: parity on stage data/tag registers, the
  // scratchpad and its tag array, round-key slots and config registers; a
  // mismatch squashes the affected block (tags only ever fail upward) and a
  // background scrub pass sweeps idle state every cycle. Costs nothing when
  // no faults occur; off reproduces the unhardened design for comparison.
  bool fault_hardening = true;
  // Ring-buffer cap on the security event log (unbounded growth otherwise
  // under long-running traffic); oldest entries are evicted and counted in
  // eventsOverflowed(). Per-kind eventCount() stays exact regardless.
  unsigned event_log_cap = 4096;
};

class AesAccelerator {
 public:
  explicit AesAccelerator(AcceleratorConfig cfg);

  SecurityMode mode() const { return cfg_.mode; }
  const AcceleratorConfig& config() const { return cfg_; }

  // --- Users ---------------------------------------------------------------
  // Registers a principal; returns its user id. The supervisor should be
  // registered like any other user (with Principal::supervisor()).
  unsigned addUser(Principal p);
  const Principal& principal(unsigned user) const;
  // Number of registered principals (descriptor validation bound: a DMA
  // descriptor naming a user id at or past this count is malformed).
  unsigned userCount() const { return static_cast<unsigned>(users_.size()); }

  // --- Key path (Fig. 5) ----------------------------------------------------
  // Arbiter-side cell allocation: retags `count` cells at `base` with the
  // user's label before the user stores its key. Refused (false) when the
  // range runs past the scratchpad.
  bool configureKeyCells(unsigned user, unsigned base, unsigned count);
  // One 64-bit store into the scratchpad; tag-checked in Protected mode.
  bool writeKeyCell(unsigned user, unsigned cell, std::uint64_t value);
  // Expand the key material in cells [base, base + keyBytes/8) into a
  // round-key RAM slot. `key_conf` is the confidentiality of the key itself
  // (ck); pass Conf::top() for the master key. Refused by the owner rule
  // (ownerAllows); a busy slot is not refused: its blocks in flight and
  // its GCM ops fault-abort before the new key is stored.
  bool loadKey(unsigned user, unsigned slot, unsigned cell_base,
               aes::KeySize ks, lattice::Conf key_conf);

  // True while any in-flight pipeline block references `slot` (key updates
  // and zeroization must wait for this to clear).
  bool keySlotBusy(unsigned slot) const;

  // Key zeroization: destroys a round-key slot. Refused while blocks use
  // the slot, then by loadKey's owner rule; false when there is no key.
  bool clearKey(unsigned user, unsigned slot);

  const KeyScratchpad& scratchpad() const { return scratchpad_; }
  const RoundKeyRam& roundKeys() const { return round_keys_; }

  // The 8-bit hardware tag (4 conf + 4 integ, Section 4) of a pipeline
  // stage under the SoC palette; nullopt if the stage is empty or its label
  // is outside the palette.
  std::optional<lattice::HwTag> stageHwTag(unsigned stage) const;

  // --- Config registers (Section 3.2.4) --------------------------------------
  std::uint32_t readConfig(const std::string& name) const;
  bool writeConfig(unsigned user, const std::string& name, std::uint32_t v);

  // --- Debug peripheral (Section 3.1, attack of [10]) -------------------------
  // Reads the raw state held in pipeline stage `stage`. Requires
  // debug_enable; tag-checked against the reader in Protected mode. A
  // stage past the pipe is refused (nullopt), never thrown.
  std::optional<aes::Block> debugReadStage(unsigned user, unsigned stage);

  // --- Data path --------------------------------------------------------------
  // Enqueue one block. Returns false if the admit gate refuses the key slot
  // (out of range, empty, corrupted, or more rounds than the pipeline has).
  bool submit(BlockRequest req);
  // Batch submit: enqueue a contiguous run of requests (the arbiter still
  // accepts at most one per cycle — this fills the input queue so the
  // pipeline can run back-to-back). Stops at the first refusal; returns
  // the number actually enqueued.
  std::size_t submitBatch(const std::vector<BlockRequest>& reqs);
  void setReceiverReady(unsigned user, bool ready);
  std::optional<BlockResponse> fetchOutput(unsigned user);
  // Batch drain: append every response currently queued for `user` to
  // `out`; returns the number drained.
  std::size_t fetchOutputs(unsigned user, std::vector<BlockResponse>& out);
  // Head of the user's output queue without consuming it (the MMIO window's
  // DATA_OUT registers mirror this).
  const BlockResponse* peekOutput(unsigned user) const;
  std::size_t pendingInputs(unsigned user) const;
  std::size_t pendingOutputs(unsigned user) const;

  // --- AEAD path (GCM sequencer + GHASH unit) --------------------------------
  // Enqueue one authenticated-encryption operation (seal or open). The
  // sequencer runs it end-to-end on the device: H and the CTR keystream
  // through the AES pipe, the digest through the tagged GHASH unit, and a
  // single nonmalleable declassification when the result is released.
  // Anything but Accepted is a refusal; only Full is transient.
  GcmSubmit submitGcm(GcmRequest req);
  std::optional<GcmResponse> fetchGcm(unsigned user);
  const GcmSequencer& gcm() const { return gcm_; }

  // --- Clock -----------------------------------------------------------------
  void tick();
  // `cycles` clock cycles: quiet spans at once (skipQuiet), the rest by tick.
  void run(unsigned cycles);
  // Advances the clock by up to `limit` cycles at once and returns how many:
  // only cycles whose tick could do nothing but move lazy blocks one stage
  // on and pass every scrub check. It skips nothing while a tick hook is
  // attached, input is queued, the overflow buffer holds a response, a GCM
  // op is active, the GHASH unit is busy, an eager block is in flight, or a
  // fast-ring check fails; it stops before the oldest block's exit tick and
  // before the first slow-ring entry whose check fails. The device then
  // stands exactly where that many ticks would have left it.
  std::uint64_t skipQuiet(std::uint64_t limit);
  // Whole block runs. True when a run of `user`'s blocks on `slot`,
  // submitted all at once now, would pass through the pipe with nothing
  // else moving: no tick hook, a fine-grained arbiter, no input queued, an
  // empty pipe, overflow buffer and held aborts, no GCM op, an idle GHASH
  // unit, the user's receiver ready and its output queue empty, `slot`
  // admitted by the submit gate, and every fast- and slow-ring check
  // passing. One submission per cycle would then meet the same refusals,
  // accept cycles, arbiter pointer and scrub visits.
  bool canTakeRun(unsigned user, unsigned slot) const;
  // Carries a run that canTakeRun admitted and that was then submitted
  // whole: accepts the user's queued blocks on consecutive cycles, rotates
  // the quiet stretches at once, releases each block through the exit gate
  // on its tick-exact cycle (accept + depth), and stops on the cycle after
  // the last block leaves or after `limit` cycles, whichever is first.
  // Returns the cycles run; the device stands where that many ticks would
  // have left it.
  std::uint64_t runSpan(unsigned user, std::uint64_t limit);
  // Called at the end of every tick — between clock edges, after this
  // cycle's outputs are queued but before host logic can fetch them. Lets
  // an environment model (fault injector, monitor) act on device state and
  // on freshly delivered responses even when a driver session owns the
  // clock. Pass nullptr to clear.
  void setTickHook(std::function<void()> hook) {
    tick_hook_ = std::move(hook);
  }
  std::uint64_t cycle() const { return cycle_; }
  const AesPipeline& pipeline() const { return pipeline_; }

  // --- Fault injection (campaign hooks) ------------------------------------
  // Flip one bit at a hardware site, modeling a single-event upset; parity
  // bits are deliberately NOT updated. `index` selects the stage / cell /
  // slot / register (register names are indexed via the config-register
  // name table); for RoundKey, `bit` encodes round*128 + byte*8 + bit.
  // Returns false when the target does not exist or holds no state.
  bool injectFault(FaultSite site, unsigned index, unsigned bit);
  // Host-interface perturbations: replay or lose the response at the head
  // of a user's output queue. Return false when the queue is empty.
  bool injectDuplicateOutput(unsigned user);
  bool injectDropOutput(unsigned user);

  // --- Telemetry ----------------------------------------------------------
  struct Stats {
    std::uint64_t accepted = 0;
    std::uint64_t completed = 0;   // delivered to an output queue
    std::uint64_t suppressed = 0;  // declassification refused
    std::uint64_t stalled_cycles = 0;
    std::uint64_t denied_stalls = 0;
    std::uint64_t buffered = 0;
    std::uint64_t dropped = 0;  // overflow buffer full
    std::uint64_t faults_detected = 0;   // parity mismatches, point of use
    std::uint64_t faults_recovered = 0;  // restored by the scrub pass
    std::uint64_t fault_aborted = 0;     // blocks squashed fail-secure
    std::uint64_t retries = 0;           // driver-reported resubmissions
    // AEAD path (GCM sequencer).
    std::uint64_t gcm_ops = 0;           // operations accepted
    std::uint64_t gcm_ok = 0;            // completed and released
    std::uint64_t gcm_suppressed = 0;    // digest declassification refused
    std::uint64_t gcm_auth_failed = 0;   // open verdicts (tag mismatch)
    std::uint64_t gcm_fault_aborted = 0; // ops killed by the fail-secure path
  };
  const Stats& stats() const { return stats_; }
  // Driver-side hook: a session retried a failed request.
  void noteRetry() { ++stats_.retries; }

  // Host-software entry into the security event ring: the service layer
  // records its health-state transitions alongside the hardware's own
  // events so one log tells the whole incident story in cycle order.
  void noteServiceEvent(unsigned user, std::string detail) {
    recordEvent(SecurityEventKind::ServiceHealth, user, std::move(detail));
  }
  // Host-software entry for the tenant-migration audit kinds (and any other
  // host-originated incident): the pool stamps the same Begun/KeyZeroized/
  // Committed triple into both shards' rings through this port.
  void noteHostEvent(SecurityEventKind kind, unsigned user,
                     std::string detail) {
    recordEvent(kind, user, std::move(detail));
  }

  const std::deque<SecurityEvent>& events() const { return events_; }
  std::size_t eventCount(SecurityEventKind k) const;
  std::uint64_t eventsOverflowed() const { return events_overflowed_; }
  // Detections/recoveries per hardware fault site (campaign reconciliation).
  const std::array<std::uint64_t, kHwFaultSites>& faultsDetectedBySite() const {
    return faults_by_site_;
  }

 private:
  friend class GcmSequencer;  // drives the datapaths on the op's behalf

  // An overflow-buffer entry: one result, then the user's no-data records
  // (Suppressed, Dropped) that completed after it, delivered right behind.
  struct PendingOutput {
    BlockResponse resp;
    std::vector<BlockResponse> trailing;
  };

  void recordEvent(SecurityEventKind kind, unsigned user, std::string detail);
  // The tag of the user's work on `slot` (accel::workLabel).
  Label workLabel(unsigned user, unsigned slot) const;
  // A response for request `req_id` of `user`, accepted at `accept_cycle`,
  // completing now with verdict `st`; it carries no data yet.
  template <typename Response>
  Response respond(std::uint64_t req_id, unsigned user,
                   std::uint64_t accept_cycle, AccelStatus st) const {
    Response r;
    r.req_id = req_id;
    r.user = user;
    r.accept_cycle = accept_cycle;
    r.complete_cycle = cycle_;
    r.status = st;
    return r;
  }
  // Both device exits, the pipe exit and the GCM digest release, release
  // through here. The response is Ok unless, in Protected mode, the Eq. 1
  // gate (releaseDecision) refuses to declassify `tag` for `user`. Then it
  // is Suppressed and carries nothing, DeclassifyRejected is logged with
  // the rule's reason, and `refused` is counted.
  template <typename Response>
  Response exitResponse(std::uint64_t req_id, unsigned user,
                        std::uint64_t accept_cycle, const Label& tag,
                        std::uint64_t& refused) {
    AccelStatus st = AccelStatus::Ok;
    if (cfg_.mode == SecurityMode::Protected) {
      auto decision = releaseDecision(tag, users_.at(user));
      if (!decision.allowed) {
        recordEvent(SecurityEventKind::DeclassifyRejected, user,
                    std::move(decision.reason));
        ++refused;
        st = AccelStatus::Suppressed;
      }
    }
    return respond<Response>(req_id, user, accept_cycle, st);
  }
  // Queue an admitted block; parity covers only its state and tag.
  StageSlot& enqueueBlock(const BlockRequest& req, const Label& tag);
  StageSlot popInput(unsigned user);
  std::optional<StageSlot> arbiterPick();
  // The exit gate for a block leaving the final stage: the exit guard,
  // then the GCM sequencer (internal blocks) or routeCompleted.
  void exitBlock(StageSlot&& done, bool to_buffer);
  void routeCompleted(StageSlot slot, bool to_buffer);
  void drainBuffer();

  // --- Fail-secure machinery -------------------------------------------------
  bool hardened() const { return cfg_.fault_hardening; }
  void noteFault(FaultSite site, bool scrubbed, unsigned user,
                 std::string detail);
  // Deliver a fault-abort completion record so the request still terminates
  // in a definite outcome (never a silent drop). Per-user order: the record
  // is held until no older block of its user is left in the pipe.
  void deliverAbort(const StageSlot& slot);
  // Deliver the user's held abort records that no older block of the user
  // in the pipe still precedes.
  void releaseAborts(unsigned user);
  // Zeroize a round-key slot and squash every in-flight block referencing
  // it (their remaining rounds would otherwise read zeroed keys). Returns
  // the number of squashed blocks.
  unsigned zeroizeSlotSquash(unsigned slot);
  // Squash a stage whose parity fails and log the fault ("stage N parity
  // <what>"); a tag fault also zeroizes the stage's key slot.
  void failSecureStage(unsigned stage, unsigned user, const char* what);

  // --- Key-slot gate: every decision about a round-key slot ----------------
  // Admit: refuses (KeySlotBlocked) an out-of-range or empty slot and a key
  // with more rounds than the pipe; a slot failing its checksum takes the
  // fail-secure step. Returns the refusal, or nullopt when admitted.
  std::optional<GcmSubmit> slotRefusal(unsigned user, unsigned slot,
                                       const char* port);
  // The admit gate's verdict on `slot`, with no side effect.
  enum class SlotCheck { Usable, OutOfRange, Empty, Corrupt, TooManyRounds };
  SlotCheck checkSlot(unsigned slot) const;
  // Fail-secure step: zeroize, squash the slot's blocks, log the RoundKey
  // fault (recovered only for a scrub find, `!at_use`, that squashed none).
  void failSecureSlot(unsigned slot, unsigned user, const char* where,
                      bool at_use);
  // Owner rule for replacing or destroying a slot: refuses an out-of-range
  // slot and, in Protected mode, a requester whose integrity does not flow
  // to the owner's while the slot holds a verified key.
  bool ownerAllows(unsigned user, unsigned slot, const char* op);
  // Parity sweep: all stage and scratchpad-tag comparators run every cycle
  // (parallel hardware); scratchpad cells, round-key slots, config
  // registers and GHASH H-table slots are visited round-robin, one entry
  // of the slow ring per cycle.
  void scrubTick();
  // The fast ring's stage and scratchpad-tag checks all pass.
  bool fastScrubOk() const;
  // Slow-ring entries, and whether entry `idx` passes its check.
  unsigned slowScrubSize() const;
  bool slowScrubOk(unsigned idx) const;
  // --- Quiet spans: what skipQuiet and runSpan share ---------------------
  // Shut when nothing but the pipe's lazy blocks and the scrub cursor can
  // move: no hook, no queued input, an empty overflow buffer, no GCM op,
  // an idle GHASH unit and no eager block.
  bool quietGates() const;
  // How many of the next `span` cycles pass every scrub check, the gates
  // shut: 0 when the fast ring fails, else up to the first failing
  // slow-ring entry.
  std::uint64_t scrubClear(std::uint64_t span) const;
  // Moves the clock and the slow-ring cursor on by `n` cycles.
  void passCycles(std::uint64_t n);

  AcceleratorConfig cfg_;
  std::vector<Principal> users_;
  KeyScratchpad scratchpad_;
  RoundKeyRam round_keys_;
  ConfigRegisters config_regs_;
  AesPipeline pipeline_;
  GhashUnit ghash_;
  GcmSequencer gcm_;

  std::vector<std::deque<StageSlot>> input_queues_;
  std::size_t queued_inputs_ = 0;  // blocks in all input queues
  std::vector<std::deque<BlockResponse>> output_queues_;
  std::vector<bool> receiver_ready_;
  std::deque<PendingOutput> overflow_buffer_;
  // Abort records waiting for an older block of their user to leave the
  // pipe, in accept (= request) order per user.
  std::vector<BlockResponse> held_aborts_;

  unsigned rr_next_ = 0;      // round-robin pointer
  unsigned coarse_owner_ = 0; // current owner in coarse-grained mode
  bool coarse_active_ = false;

  std::uint64_t cycle_ = 0;
  Stats stats_;
  std::deque<SecurityEvent> events_;  // ring buffer, capped by event_log_cap
  std::uint64_t events_overflowed_ = 0;
  std::array<std::size_t, kSecurityEventKinds> event_counts_{};
  std::array<std::uint64_t, kHwFaultSites> faults_by_site_{};
  unsigned scrub_next_ = 0;  // next slow-ring entry, in [0, slowScrubSize())
  std::function<void()> tick_hook_;
};

}  // namespace aesifc::accel
