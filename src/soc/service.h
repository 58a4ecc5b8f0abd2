#pragma once
// Multi-tenant service front end over the accelerator driver — the layer
// that keeps the *service* alive when the device goes unhealthy or tenants
// overload it (the Fig. 2 SoC serving mutually distrusting users at cloud
// traffic levels).
//
// Three cooperating mechanisms:
//
//  * Admission control: per tenant a bounded submission queue and a fair
//    per-round service quota; a global watermark applies backpressure when
//    the sum of queues grows past it. Overflowing tenants shed their own
//    oldest request (ShedOldest) or bounce the new one (RejectNew) — never
//    another tenant's traffic, so overload cannot become cross-tenant
//    denial of service.
//
//  * Circuit breaker: a HealthMonitor watches an error-budget window over
//    the drivers' SessionTelemetry. When the device is Quarantined the
//    service fails over to the golden software AES — but every fallback
//    block first passes the tagged pipeline's own exit gate
//    (accel::releaseDecision, Eq. 1) on the tenant's work label
//    (accel::workLabel). Degraded mode can therefore never release a
//    ciphertext the hardware would have suppressed.
//
//  * Probation: quarantine is left only through canary probes — a known-
//    answer block per tenant key slot, re-provisioned first if fail-secure
//    zeroization destroyed the slot — so traffic returns to hardware only
//    after the hardware demonstrably computes correct AES again.
//
// Every health transition is recorded in the accelerator's security event
// ring (SecurityEventKind::ServiceHealth), putting service-level incidents
// on the same cycle timeline as the hardware's own fault events.

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "accel/driver.h"
#include "aes/gcm.h"
#include "common/counters.h"
#include "soc/dma.h"
#include "soc/health.h"
#include "soc/key_manager.h"
#include "soc/metrics.h"

namespace aesifc::soc {

// What to evict when a tenant overruns its own queue.
enum class OverflowPolicy { RejectNew, ShedOldest };

struct ServiceConfig {
  OverflowPolicy overflow = OverflowPolicy::ShedOldest;
  // Global watermark: new admissions are refused (backpressure to the
  // caller) while the total queued across tenants is at or above this.
  std::size_t global_high_watermark = 64;
  // Blocks served per tenant per scheduling round (fair share).
  unsigned quota_per_round = 4;
  // Batch submission: up to this many same-direction requests from one
  // tenant's queue are drained into the pipeline back-to-back (one submit
  // per cycle, all in flight), so K blocks cost ~K + pipeline-depth cycles
  // instead of K x (depth + 1). 1 serves every block as a run of one.
  // Batching never crosses tenants and never reorders within a tenant:
  // completions surface in submission order.
  unsigned batch_size = 1;
  // Service-level retry budget per request: a request whose hardware serve
  // ends in a transient failure is re-queued at the front this many times
  // (it rides over to the fallback path if the breaker trips meanwhile).
  unsigned max_requeues = 1;
  HealthConfig health;
  // Driver options for the Healthy hardware path. Degraded mode and the
  // canary probes use fixed tighter ones (service.cpp).
  accel::SessionOptions healthy_opts{.timeout_cycles = 1024,
                                     .max_retries = 2,
                                     .backoff_cycles = 16};
  // Descriptor-ring data path: when enabled, a same-direction run of at
  // least `dma_ring_min_run` blocks is staged into the tenant's tagged
  // host-memory pages and moved through the hardened DmaRingEngine as one
  // scatter-gather ECB descriptor, instead of one MMIO submit per block.
  // Every tenant gets its own ring channel and staging pages labeled with
  // its authority, so the ring path is under exactly the same label
  // enforcement as the MMIO path. A ring refusal or stall falls back to the
  // MMIO run path (counted in dma_ring_fallbacks); defaults keep the
  // ring off so existing deployments are byte-for-byte unchanged.
  bool use_dma_ring = false;
  unsigned dma_ring_min_run = 16;
};

// One tenant as offered to the service. `key` opens the tenant's session in
// the engine's key ledger (keys()), the one host copy of the key that the
// fallback, the canaries and re-provisioning read; the record the service
// keeps (tenantSpec()) holds no key bytes.
struct TenantSpec {
  unsigned user = 0;         // accelerator user id (already addUser'ed)
  unsigned key_slot = 0;     // round-key RAM slot (1 .. kRoundKeySlots - 1)
  std::vector<std::uint8_t> key;  // raw AES-128 key bytes
  lattice::Conf key_conf{};  // ck of the provisioned key
  std::size_t queue_depth = 16;
};

enum class ServedBy { Hardware, SoftwareFallback, None };

enum class CompletionStatus {
  Ok,
  Suppressed,    // label policy refused the release (hardware OR fallback)
  TimedOut,      // transient budget exhausted on a wedged device
  FaultAborted,  // fail-secure squash survived all requeues
  Dropped,       // overflow-buffer loss survived all requeues
  Rejected,      // deterministic submit refusal (e.g. zeroized slot)
  Shed,          // evicted by the tenant's own ShedOldest admission policy
  AuthFailed,    // GCM open: tag mismatch — a message verdict, never retried
};

std::string toString(CompletionStatus s);
std::string toString(ServedBy s);

// A device verdict read as a final completion status, for callers that
// fetch from the accelerator or a session directly (no requeue).
constexpr CompletionStatus terminalStatus(accel::AccelStatus s) {
  switch (s) {
    case accel::AccelStatus::Ok: return CompletionStatus::Ok;
    case accel::AccelStatus::Suppressed: return CompletionStatus::Suppressed;
    case accel::AccelStatus::Timeout: return CompletionStatus::TimedOut;
    case accel::AccelStatus::FaultAborted:
      return CompletionStatus::FaultAborted;
    case accel::AccelStatus::Dropped: return CompletionStatus::Dropped;
    case accel::AccelStatus::Rejected: return CompletionStatus::Rejected;
    case accel::AccelStatus::AuthFailed: return CompletionStatus::AuthFailed;
  }
  return CompletionStatus::Rejected;
}

struct Completion {
  std::uint64_t ticket = 0;
  unsigned tenant = 0;
  CompletionStatus status = CompletionStatus::Ok;
  ServedBy served_by = ServedBy::None;
  aes::Block data{};
  std::uint64_t submit_cycle = 0;
  std::uint64_t complete_cycle = 0;
};

// Terminal record for one AEAD (GCM) operation.
struct AeadCompletion {
  std::uint64_t ticket = 0;
  unsigned tenant = 0;
  CompletionStatus status = CompletionStatus::Ok;
  ServedBy served_by = ServedBy::None;
  std::vector<std::uint8_t> data;  // ciphertext (seal) or plaintext (open)
  aes::Tag128 tag{};               // auth tag (seal only)
  std::uint64_t submit_cycle = 0;
  std::uint64_t complete_cycle = 0;
};

// Why an offered block was not queued.
enum class AdmitError {
  QueueFull,
  Backpressure,
  TenantRetired,
  Malformed,  // no device could serve it (an AEAD op with an empty IV)
};

struct SubmitResult {
  bool admitted = false;
  std::uint64_t ticket = 0;  // valid when admitted (and for shed records)
  AdmitError error = AdmitError::QueueFull;
};

// Aggregate service counters (surfaced next to the leakage/perf metrics).
struct ServiceStats {
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_backpressure = 0;
  std::uint64_t shed = 0;
  std::uint64_t completed_hw = 0;
  std::uint64_t completed_fallback = 0;
  std::uint64_t fallback_suppressed = 0;  // label check refused in degraded mode
  std::uint64_t hw_transient_failures = 0;
  std::uint64_t requeues = 0;
  std::uint64_t batched_runs = 0;    // multi-block batches submitted
  std::uint64_t batched_blocks = 0;  // blocks that rode a multi-block batch
  // Batches whose verdict was transient/rejected: the member requests were
  // re-served as runs of one, which own the requeue / reprovision policy.
  std::uint64_t batch_fallbacks = 0;
  std::uint64_t canary_rounds = 0;
  std::uint64_t canary_failures = 0;
  std::uint64_t key_reprovisions = 0;
  // AEAD (GCM) traffic — one op may be many blocks but is one queue unit.
  std::uint64_t aead_offered = 0;
  std::uint64_t aead_admitted = 0;
  std::uint64_t aead_completed_hw = 0;
  std::uint64_t aead_completed_fallback = 0;
  std::uint64_t aead_auth_failed = 0;  // tag-mismatch verdicts (not health)
  // Requests that reached a serve path for a retired (migrated-away)
  // tenant — i.e. would have executed under a stale or zeroized key had the
  // guard not refused them. The elastic pool's core safety invariant is
  // that this stays 0: migration drains and deactivates before it zeroizes,
  // so no request ever spans the key handover.
  std::uint64_t wrong_key_uses = 0;
  // Descriptor-ring data path (ServiceConfig::use_dma_ring).
  std::uint64_t dma_ring_runs = 0;    // runs moved as ring descriptors
  std::uint64_t dma_ring_blocks = 0;  // blocks those runs carried
  std::uint64_t dma_ring_fallbacks = 0;  // ring refusals re-served via MMIO

  static constexpr auto counterFields() {
    using S = ServiceStats;
    using counters::field;
    return std::tuple{
        field("offered", &S::offered), field("admitted", &S::admitted),
        field("rejected_queue_full", &S::rejected_queue_full),
        field("rejected_backpressure", &S::rejected_backpressure),
        field("shed", &S::shed), field("completed_hw", &S::completed_hw),
        field("completed_fallback", &S::completed_fallback),
        field("fallback_suppressed", &S::fallback_suppressed),
        field("hw_transient_failures", &S::hw_transient_failures),
        field("requeues", &S::requeues),
        field("batched_runs", &S::batched_runs),
        field("batched_blocks", &S::batched_blocks),
        field("batch_fallbacks", &S::batch_fallbacks),
        field("canary_rounds", &S::canary_rounds),
        field("canary_failures", &S::canary_failures),
        field("key_reprovisions", &S::key_reprovisions),
        field("aead_offered", &S::aead_offered),
        field("aead_admitted", &S::aead_admitted),
        field("aead_completed_hw", &S::aead_completed_hw),
        field("aead_completed_fallback", &S::aead_completed_fallback),
        field("aead_auth_failed", &S::aead_auth_failed),
        field("wrong_key_uses", &S::wrong_key_uses),
        field("dma_ring_runs", &S::dma_ring_runs),
        field("dma_ring_blocks", &S::dma_ring_blocks),
        field("dma_ring_fallbacks", &S::dma_ring_fallbacks)};
  }
  std::string toJson() const { return counters::toJson(*this); }
  // Aggregate counters across shards of an engine pool (or across runs).
  ServiceStats& operator+=(const ServiceStats& o) {
    return counters::addTo(*this, o);
  }
};
static_assert(counters::listsEveryByte<ServiceStats>());

class AccelService {
 public:
  AccelService(accel::AesAccelerator& acc, ServiceConfig cfg);

  // Provisions the tenant's key into its slot through the key ledger
  // (throws on refusal — a legitimate setup step must not fail silently)
  // and registers its queue. Returns the tenant index used by
  // submit()/fetch().
  unsigned addTenant(const TenantSpec& spec);

  // Non-throwing variant for callers that can degrade gracefully (the
  // elastic pool's migration path: a refused provisioning at the target
  // must leave the source untouched, not unwind the stack). Returns the
  // tenant index, or nullopt when the ledger or the device refuses the key
  // load.
  std::optional<unsigned> tryAddTenant(const TenantSpec& spec);

  // The engine's key ledger: the one owner of its key slots and staging
  // cells, through which tenant keys are loaded, quiesced and zeroized.
  KeyManager& keys() { return keys_; }
  const KeyManager& keys() const { return keys_; }

  // Retire a tenant: future submits are refused (AdmitError::TenantRetired)
  // and any request that still reaches a serve path is refused and counted
  // in stats().wrong_key_uses instead of executing under a key that is
  // about to be (or already is) zeroized. Queued work should be drained
  // first; already-delivered completions remain fetchable.
  void deactivateTenant(unsigned tenant);
  bool tenantActive(unsigned tenant) const {
    return tenant_active_.at(tenant) != 0;
  }
  // The tenant as added, with an empty `key`: keys().session(user) holds it.
  const TenantSpec& tenantSpec(unsigned tenant) const {
    return tenants_.at(tenant);
  }

  // Pump until this tenant's queues are empty or the cycle budget is spent.
  // Returns true when the tenant is fully drained (the migration barrier).
  bool drainTenant(unsigned tenant, std::uint64_t max_device_cycles);

  // Hard breaker trip from outside the error-budget window (the pool-level
  // fault campaign and the supervisor's tests use this to model an incident
  // the window would take several samples to see).
  void forceQuarantine(const std::string& reason);

  // Offer one block. Admission control may refuse it (result.admitted ==
  // false) or, under ShedOldest, evict the tenant's oldest queued request
  // (which then surfaces as a Shed completion).
  SubmitResult submit(unsigned tenant, const aes::Block& data,
                      bool decrypt = false);

  // Pop the tenant's next completion, oldest first.
  std::optional<Completion> fetch(unsigned tenant);

  // Offer one AEAD operation (whole-message GCM seal/open). Admission uses
  // the same global watermark as blocks plus the tenant's own AEAD queue
  // depth; one op is one quota unit in pump(), served ahead of the block
  // queue so a long message cannot be starved by block traffic behind it.
  SubmitResult submitSeal(unsigned tenant,
                          const std::vector<std::uint8_t>& plaintext,
                          const std::vector<std::uint8_t>& aad,
                          const std::vector<std::uint8_t>& iv);
  SubmitResult submitOpen(unsigned tenant,
                          const std::vector<std::uint8_t>& ciphertext,
                          const std::vector<std::uint8_t>& aad,
                          const aes::Tag128& tag,
                          const std::vector<std::uint8_t>& iv);
  std::optional<AeadCompletion> fetchAead(unsigned tenant);

  // One scheduling round: serve up to quota_per_round blocks per tenant
  // (hardware or fallback per the current health state), advance the error
  // budget window, and run canary probes when probation opens. Returns the
  // number of requests resolved this round.
  unsigned pump();

  // Pump until every queue is empty or the device-cycle budget is spent.
  void runUntilIdle(std::uint64_t max_device_cycles);

  HealthState health() const { return monitor_.state(); }
  const HealthMonitor& monitor() const { return monitor_; }
  const ServiceStats& stats() const { return stats_; }
  std::size_t queued(unsigned tenant) const {
    return queues_.at(tenant).size();
  }
  std::size_t totalQueued() const;
  std::uint64_t completedOf(unsigned tenant) const {
    return completed_per_tenant_.at(tenant);
  }
  const accel::AccelSession& session(unsigned tenant) const {
    return sessions_.at(tenant);
  }

 private:
  struct Request {
    std::uint64_t ticket = 0;
    aes::Block data{};
    bool decrypt = false;
    std::uint64_t submit_cycle = 0;
    unsigned requeues = 0;
  };

  struct AeadRequest {
    std::uint64_t ticket = 0;
    // The message; the session fills in its user, key slot and req_id.
    accel::GcmRequest op;
    std::uint64_t submit_cycle = 0;
    unsigned requeues = 0;
  };

  void logTransitions();
  void applyStateOptions();
  // Serve one run from the tenant's queue head: up to `max_run` contiguous
  // same-direction requests on the hardware path, one request off it.
  // Returns the number of requests consumed from the queue.
  unsigned serveRun(unsigned tenant, unsigned max_run);
  // A ring run or AEAD op started this round and not yet resolved by
  // reap(); the service keeps one list of them.
  struct Flight {
    unsigned tenant = 0;
    bool aead = false;
    // Ring run: its future's sequence number and its requests, which are
    // off the queue while it is in flight.
    std::uint16_t seq = 0;
    std::vector<Request> run;
    // AEAD op: its session handle, its request and, once collected, its
    // verdict.
    accel::GcmHandle handle = 0;
    AeadRequest req;
    std::optional<accel::AccelResult<accel::GcmResponse>> result;
    bool done = false;  // resolved by the reap
  };
  // Submit half of the descriptor-ring path: stage the first `n` requests
  // of the tenant's queue in its pages and publish them on its channel.
  // Returns the future's sequence number, or nullopt when the run is not
  // ring-eligible or the ring refused it (the caller serves it over MMIO).
  std::optional<std::uint16_t> submitRing(unsigned tenant, std::size_t n);
  // Start half of the AEAD path: start the head of the tenant's AEAD queue
  // on the GCM sequencer without waiting for it. False when every op slot
  // is busy; the op then stays queued and nothing is charged.
  bool startAead(unsigned tenant);
  // Resolve every flight. Each cycle it polls every ring run and collects
  // every AEAD op its session says a collect can act on (gcmDue), then
  // ticks the ring engine while a chain is in flight and the accelerator
  // otherwise. A
  // ring run returns to the head of its tenant's queue in the cycle its
  // future resolves: Ok and suppressed runs complete there, and a typed
  // refusal or an exhausted budget (which resets that channel only) is
  // re-served over MMIO once nothing is in flight. An AEAD op completes in
  // the cycle its verdict arrives, but never ahead of an earlier op of its
  // tenant; a requeued op and the tenant's later ops go back to the head of
  // its AEAD queue in ticket order. Called before every synchronous serve,
  // which ticks the device itself, and at the end of each round.
  void reap();
  void setupTenantRing(unsigned tenant);
  // The MMIO path for a same-direction run: the first `n` requests of the
  // tenant's queue. A failed run of one goes through hardwareVerdict; a
  // failed longer run is re-served as runs of one.
  void serveMmioRun(unsigned tenant, std::size_t n);
  // Complete and pop the first `n` requests of the tenant's queue on a
  // uniform Ok (`out` holds one block each) or Suppressed verdict.
  void completeRun(unsigned tenant, std::size_t n, CompletionStatus st,
                   std::span<const aes::Block> out);
  // Admission shared by blocks and AEAD ops (retired tenant, global
  // watermark, then the tenant's own queue depth, shedding its oldest
  // request under ShedOldest). Returns the refusal, or nullopt to queue.
  template <typename Req>
  std::optional<SubmitResult> admissionRefusal(unsigned tenant,
                                               std::deque<Req>& q,
                                               std::size_t depth);
  // True when the tenant's requests go to the hardware: it is active and
  // the breaker is closed (Healthy or Degraded).
  bool onHardware(unsigned tenant) const;
  // One request of either kind off the hardware path: refused (retired
  // tenant or no ledger session), suppressed, or served by the fallback.
  template <typename Req>
  void serveOffHardware(unsigned tenant, const Req& req);
  void serveFallback(unsigned tenant, const Request& req,
                     const aes::ExpandedKey& ek);
  void serveFallback(unsigned tenant, const AeadRequest& req,
                     const aes::ExpandedKey& ek);
  // The one driver-status -> completion mapping for a single hardware
  // serve (a run of one or an AEAD op). Returns the terminal status, or
  // nullopt when the request is to be requeued (a Rejected serve after a
  // successful key re-provision, or a transient failure within the requeue
  // budget); owns the requeue, re-provision and transient-failure
  // accounting.
  std::optional<CompletionStatus> hardwareVerdict(unsigned tenant,
                                                  accel::AccelStatus st,
                                                  unsigned& requeues);
  void complete(unsigned tenant, const Request& req, CompletionStatus st,
                ServedBy by, const aes::Block& data);
  void complete(unsigned tenant, const AeadRequest& req, CompletionStatus st,
                ServedBy by, std::vector<std::uint8_t> data,
                const aes::Tag128& tag = {});
  SubmitResult submitAead(unsigned tenant, AeadRequest req);
  void sampleWindowIfDue();
  void runCanaries();
  bool reprovisionKey(unsigned tenant);

  accel::AesAccelerator& acc_;
  ServiceConfig cfg_;
  KeyManager keys_;
  HealthMonitor monitor_;
  std::vector<TenantSpec> tenants_;
  std::vector<accel::AccelSession> sessions_;
  std::vector<std::deque<Request>> queues_;
  std::vector<std::deque<Completion>> completions_;
  std::vector<std::deque<AeadRequest>> aead_queues_;
  std::vector<std::deque<AeadCompletion>> aead_completions_;
  std::vector<char> tenant_active_;  // 0 after deactivateTenant
  std::vector<std::uint64_t> completed_per_tenant_;
  ServiceStats stats_;
  // Descriptor-ring data path (nullptr members when use_dma_ring is off or
  // the tenant arena is exhausted — those tenants use the MMIO path).
  std::unique_ptr<HostMemory> ring_mem_;
  std::unique_ptr<DmaRingEngine> ring_eng_;
  std::vector<std::unique_ptr<DmaRingDriver>> ring_drvs_;
  std::vector<Flight> pending_;  // started, not yet reaped
  std::uint64_t completions_made_ = 0;  // completions recorded, any status
  std::uint64_t next_ticket_ = 1;
  std::uint64_t window_start_cycle_ = 0;
  accel::SessionTelemetry window_base_;  // telemetry at last window sample
  std::size_t logged_transitions_ = 0;
  unsigned rr_next_ = 0;  // round-robin start tenant for fairness
};

}  // namespace aesifc::soc
