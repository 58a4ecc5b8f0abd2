#pragma once
// Software driver layer: what a kernel driver / user library would run on
// the host CPU to use the accelerator. `AccelSession` is one user's handle.
// Every operation it runs — a block run (the block calls and the
// block-cipher modes) or a GCM op — is a flight in the session's one flight
// table: started, then collected once per device cycle until its verdict.
// The synchronous calls tick the device between collects themselves; GCM
// ops also come in public start/collect halves, so a caller that owns the
// clock can keep several in flight on the sequencer.
//
// The driver is written for an imperfect device and an imperfect bus: every
// operation returns an `AccelResult` whose status distinguishes a security
// refusal (`Suppressed` — never retried) from transient failures
// (`Timeout`, `FaultAborted`, `Dropped` — retried with bounded backoff when
// the session is configured for it) and a deterministic refusal at the
// submit port (`Rejected`, e.g. a zeroized key slot). Duplicated responses
// are consumed at most once; responses from abandoned attempts are
// recognized by request id and still credited, so a retry can never
// double-deliver.
//
// The mode helpers also document a real architectural point of pipelined
// engines: ECB/CTR submit one block per cycle and ride the full 51.2 Gbps
// pipeline, while CBC encryption is chained and pays the whole 30-cycle
// latency per block.

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "accel/accelerator.h"
#include "aes/modes.h"
#include "common/counters.h"

namespace aesifc::accel {

// Loads a key of any supported size through the tagged scratchpad path
// (configure keyBytes/8 cells, write the 64-bit words, expand into `slot`).
// Returns false if any step is refused.
bool loadKeyBytes(AesAccelerator& acc, unsigned user, unsigned slot,
                  unsigned cell_base, std::span<const std::uint8_t> key,
                  aes::KeySize ks, lattice::Conf key_conf);

// Convenience for the common AES-128 case.
bool loadKey128(AesAccelerator& acc, unsigned user, unsigned slot,
                unsigned cell_base, std::span<const std::uint8_t> key,
                lattice::Conf key_conf);

// Ticks `acc` until no in-flight block uses `slot`; false if it is still
// busy after `max_cycles` ticks.
bool waitSlotIdle(AesAccelerator& acc, unsigned slot, std::uint64_t max_cycles);

// The inverse of loadKey128: waits for `slot` to go idle, clears it, then
// scrubs the key's two staging cells that are still tagged to `user`. False
// if the slot never went idle (nothing is touched) or the clear was refused
// (the cells are still scrubbed).
bool zeroizeKey128(AesAccelerator& acc, unsigned user, unsigned slot,
                   unsigned cell_base, std::uint64_t max_wait_cycles);

// Value-or-status result. Mirrors the std::optional surface the driver
// used to return (`has_value`, `operator*`, `operator->`, bool tests) so
// existing call sites read unchanged, plus `status()` for the failure kind.
template <typename T>
class AccelResult {
 public:
  AccelResult(AccelStatus st) : status_{st} {}  // NOLINT: implicit by design
  AccelResult(T v) : status_{AccelStatus::Ok}, value_{std::move(v)} {}

  AccelStatus status() const { return status_; }
  bool has_value() const { return value_.has_value(); }
  explicit operator bool() const { return has_value(); }
  const T& operator*() const { return *value_; }
  T& operator*() { return *value_; }
  const T* operator->() const { return &*value_; }
  T* operator->() { return &*value_; }
  const T& value() const { return value_.value(); }

 private:
  AccelStatus status_;
  std::optional<T> value_;
};

// Per-session robustness knobs. The defaults reproduce the historical
// behavior: one attempt, 4096-cycle watchdog, no retries.
struct SessionOptions {
  std::uint64_t timeout_cycles = 4096;  // watchdog per attempt
  unsigned max_retries = 0;       // extra attempts for retryable failures
  std::uint64_t backoff_cycles = 32;  // idle ticks before retry, doubles per attempt
};

// Terminal-outcome counters for one session. Every verdict bumps exactly
// one field, so the sum equals the number of driver operations; a
// health monitor can difference two snapshots to get a window's error rate.
struct SessionTelemetry {
  std::uint64_t ok = 0;
  std::uint64_t suppressed = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t fault_aborts = 0;
  std::uint64_t drops = 0;
  std::uint64_t rejected = 0;
  std::uint64_t auth_failed = 0;  // GCM open verdicts (not device health)

  std::uint64_t operations() const {
    return ok + suppressed + timeouts + fault_aborts + drops + rejected +
           auth_failed;
  }
  // Transient-failure outcomes (the retryable statuses) — the numerator of
  // an error-budget rate. Suppressed/Rejected are deterministic verdicts,
  // not device health signals.
  std::uint64_t transientFailures() const {
    return timeouts + fault_aborts + drops;
  }
  static constexpr auto counterFields() {
    using T = SessionTelemetry;
    using counters::field;
    return std::tuple{
        field("ok", &T::ok), field("suppressed", &T::suppressed),
        field("timeouts", &T::timeouts),
        field("fault_aborts", &T::fault_aborts), field("drops", &T::drops),
        field("rejected", &T::rejected), field("auth_failed", &T::auth_failed)};
  }
  SessionTelemetry& operator+=(const SessionTelemetry& o) {
    return counters::addTo(*this, o);
  }
  // The counts between two snapshots (a health window).
  SessionTelemetry operator-(const SessionTelemetry& o) const {
    return counters::minus(*this, o);
  }
};
static_assert(counters::listsEveryByte<SessionTelemetry>());

// Result of a successful GCM seal: ciphertext plus the authentication tag.
struct GcmSealed {
  std::vector<std::uint8_t> ciphertext;
  aes::Tag128 tag{};
};

// A GCM op between startGcm and the collectGcm call that resolves it (its
// key in the session's flight table).
using GcmHandle = std::uint64_t;

class AccelSession {
 public:
  AccelSession(AesAccelerator& acc, unsigned user, unsigned key_slot,
               SessionOptions opts = {});

  // Single-block synchronous operations (tick until the response arrives).
  AccelResult<aes::Block> encryptBlock(const aes::Block& pt);
  AccelResult<aes::Block> decryptBlock(const aes::Block& ct);

  // Batch submit/drain: all blocks submitted back-to-back (one per cycle)
  // so the pipeline fills, responses collected in submission order. K
  // blocks cost ~K + pipeline-depth cycles instead of K x (depth + 1) —
  // this is the path a batching service layer uses to reach the engine's
  // 1 block/cycle design point. One terminal verdict covers the whole
  // batch (per-tenant label verdicts are uniform across a batch).
  AccelResult<std::vector<aes::Block>> encryptBlocks(
      const std::vector<aes::Block>& pts);
  AccelResult<std::vector<aes::Block>> decryptBlocks(
      const std::vector<aes::Block>& cts);

  // Pipelined modes: one submission per cycle, all blocks in flight.
  AccelResult<aes::Bytes> ecbEncrypt(const aes::Bytes& data);
  AccelResult<aes::Bytes> ecbDecrypt(const aes::Bytes& data);
  AccelResult<aes::Bytes> ctrCrypt(const aes::Bytes& data,
                                   const aes::Iv& nonce);
  // CBC decryption is parallel (each block's chain input is ciphertext).
  AccelResult<aes::Bytes> cbcDecrypt(const aes::Bytes& data,
                                     const aes::Iv& iv);
  // CBC encryption is serial: each block waits for the previous one.
  AccelResult<aes::Bytes> cbcEncrypt(const aes::Bytes& data,
                                     const aes::Iv& iv);

  // On-device AEAD (SP 800-38D): the whole operation — CTR keystream, H,
  // GHASH, tag — runs on the accelerator under label enforcement; the host
  // never sees the hash subkey. Any IV length >= 1 byte (12 is the fast
  // path). `gcmOpen` returns AuthFailed on a tag mismatch (a verdict, not
  // retryable); transient faults retry like block operations.
  AccelResult<GcmSealed> gcmSeal(const std::vector<std::uint8_t>& plaintext,
                                 const std::vector<std::uint8_t>& aad,
                                 const std::vector<std::uint8_t>& iv);
  AccelResult<std::vector<std::uint8_t>> gcmOpen(
      const std::vector<std::uint8_t>& ciphertext,
      const std::vector<std::uint8_t>& aad, const aes::Tag128& tag,
      const std::vector<std::uint8_t>& iv);

  // The two halves of one GCM op (gcmSeal/gcmOpen are start + collect).
  // startGcm submits `req` (user and key slot are the session's) without
  // ticking. It returns nullopt only when every sequencer op slot is busy:
  // nothing is charged, and the caller collects an op and starts again.
  // Any other refusal still yields a handle, which collects as Rejected.
  std::optional<GcmHandle> startGcm(GcmRequest req);
  // Never ticks: takes the op's response if it has arrived, runs the
  // watchdog and the retry/backoff schedule against the current cycle, and
  // returns the verdict once it is final (the handle is then spent). Call
  // it once per cycle for each op in flight, or only in the cycles
  // gcmDue(h) names. An attempt's watchdog grows with the sequencer's
  // backlog, so an op sharing the pipe with others is not timed out for
  // waiting its turn.
  std::optional<AccelResult<GcmResponse>> collectGcm(GcmHandle h);
  // False when collectGcm(h) would change nothing now: no response waits
  // for this session's user or is held for the op, no backoff has ended,
  // the backlog has not risen past what the watchdog budget has seen (it
  // rises only when the sequencer accepts a submit), and the watchdog
  // cannot fire.
  bool gcmDue(GcmHandle h) const;

  // Device cycles from each call's start to its verdict, summed (ops in
  // flight together each count their own span).
  std::uint64_t cyclesUsed() const { return cycles_used_; }
  // Status of the most recent operation and retry telemetry.
  AccelStatus lastStatus() const { return last_status_; }
  std::uint64_t retries() const { return retries_; }
  // Cumulative terminal-outcome counts (see SessionTelemetry).
  const SessionTelemetry& telemetry() const { return telemetry_; }
  // Retune the robustness knobs mid-session (a degraded-mode service
  // tightens the watchdog and retry budget without reopening the session).
  void setOptions(const SessionOptions& opts) { opts_ = opts; }

 private:
  // One operation from its start to its verdict, with its current attempt
  // and retry schedule: a block run or a GCM op.
  struct Flight {
    enum class Unit : std::uint8_t { Pending, Done, Suppressed, Failed };
    bool gcm = false;
    std::uint64_t start_cycle = 0;    // cycles are charged from here
    std::uint64_t attempt_start = 0;  // backing off: the next attempt's
    unsigned attempt = 0;
    bool open = false;  // false while backing off or waiting for an op slot
    std::optional<AccelStatus> refused;  // final refusal at start
    // Request id -> unit (block index; 0 for a GCM op) of each response
    // still taken: every attempt's for a block run, so a late response is
    // credited, and only the current attempt's for a GCM op. Sorted by id:
    // a session's ids only grow, so each new one is appended.
    std::vector<std::pair<std::uint64_t, std::size_t>> ids;
    // Block run: inputs, overwritten by each Done block's output.
    bool decrypt = false;
    std::vector<aes::Block> data;
    std::vector<Unit> units;        // a Failed block rides the next attempt
    std::vector<std::size_t> todo;  // the attempt's blocks
    std::size_t pending = 0;        // units still Pending
    std::size_t next = 0;           // todo[next] is submitted next
    // The attempt went in whole on its first cycle (canTakeRun), and one
    // run span carries it (runSpan).
    bool whole = false;
    AccelStatus attempt_fail = AccelStatus::Ok;  // first failed response
    // GCM op.
    GcmRequest req;            // req_id is the current attempt's
    std::uint64_t budget = 0;  // the attempt's watchdog
    std::optional<GcmResponse> got;
  };

  // A block run, or one GCM op, from start to verdict: collected once per
  // cycle, ticking the device in between.
  AccelResult<std::vector<aes::Block>> runBlocks(
      std::vector<aes::Block> blocks, bool decrypt);
  AccelResult<GcmResponse> runGcm(GcmRequest req);
  // The one retry step: takes the flight's step and retries a failed
  // attempt after its backoff or, with the retry budget spent, makes the
  // failure the verdict. Returns the verdict once final; never ticks.
  std::optional<AccelStatus> advance(Flight& f);
  // Hands each response on the GCM or the block output queue to the flight
  // that still takes its id; any other response is discarded.
  void route(bool gcm);
  // A kind's step this cycle: nullopt while the attempt runs, a retryable
  // status when it failed, any other status as the verdict. A block run
  // submits one block per cycle, or all on its first cycle when the device
  // can take the attempt whole, on a watchdog of timeout + its blocks.
  std::optional<AccelStatus> stepBlocks(Flight& f);
  std::optional<AccelStatus> stepGcm(Flight& f);
  // Cycles from now on whose collects would find nothing for the flight to
  // do unless a response arrives: the rest of a backoff, or, once a block
  // run's attempt is wholly submitted, the cycles before its watchdog
  // fires. The caller may skip that many quiet cycles (skipQuiet).
  std::uint64_t idleCycles(const Flight& f) const;
  // Submit the GCM op's next attempt, sizing its watchdog.
  GcmSubmit submitAttempt(Flight& f);
  // An attempt's watchdog, given the blocks of its op if not yet accepted.
  std::uint64_t gcmWatchdog(std::uint64_t own_blocks) const;
  // Charge the operation's cycles, record `verdict` as the last status and
  // bump its telemetry counter; returns `verdict`.
  AccelStatus finishVerdict(AccelStatus verdict, std::uint64_t start_cycle);

  AesAccelerator& acc_;
  unsigned user_;
  unsigned key_slot_;
  SessionOptions opts_;
  std::uint64_t next_req_ = 1;
  std::uint64_t cycles_used_ = 0;
  std::uint64_t retries_ = 0;
  AccelStatus last_status_ = AccelStatus::Ok;
  SessionTelemetry telemetry_;
  std::map<GcmHandle, Flight> flights_;
  GcmHandle next_flight_ = 1;
  std::vector<BlockResponse> drained_;  // route()'s buffer
};

}  // namespace aesifc::accel
