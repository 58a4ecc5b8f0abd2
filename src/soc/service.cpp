#include "soc/service.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>

#include "aes/cipher.h"
#include "soc/policy_engine.h"

namespace aesifc::soc {

using accel::AccelStatus;

std::string toString(CompletionStatus s) {
  switch (s) {
    case CompletionStatus::Ok: return "ok";
    case CompletionStatus::Suppressed: return "suppressed";
    case CompletionStatus::TimedOut: return "timed-out";
    case CompletionStatus::FaultAborted: return "fault-aborted";
    case CompletionStatus::Dropped: return "dropped";
    case CompletionStatus::Rejected: return "rejected";
    case CompletionStatus::Shed: return "shed";
    case CompletionStatus::AuthFailed: return "auth-failed";
  }
  return "?";
}

std::string toString(ServedBy s) {
  switch (s) {
    case ServedBy::Hardware: return "hardware";
    case ServedBy::SoftwareFallback: return "software-fallback";
    case ServedBy::None: return "none";
  }
  return "?";
}

namespace {
// Per-tenant slice of the service's DMA arena: descriptor ring, chain
// arena, completion ring, then src/dst staging. 32 KiB per tenant in a
// 1 MiB arena caps the ring path at 32 tenants; later tenants simply stay
// on the MMIO path.
constexpr std::size_t kRingArenaBytes = 1u << 20;
constexpr std::size_t kRingTenantSpan = 0x8000;
constexpr std::size_t kRingStagingSrc = 0x1000;
constexpr std::size_t kRingStagingDst = 0x4000;
constexpr std::size_t kRingStagingMax = kRingStagingDst - kRingStagingSrc;
// Device cycles charged per software-fallback block, ticked on the
// accelerator so quarantine residency and background scrubbing advance
// while traffic is off the hardware.
constexpr unsigned kFallbackCyclesPerBlock = 40;
}  // namespace

AccelService::AccelService(accel::AesAccelerator& acc, ServiceConfig cfg)
    : acc_{acc}, cfg_{cfg}, keys_{acc}, monitor_{cfg.health},
      window_start_cycle_{acc.cycle()} {
  if (cfg_.use_dma_ring) {
    ring_mem_ = std::make_unique<HostMemory>(kRingArenaBytes);
    ring_eng_ = std::make_unique<DmaRingEngine>(acc_, *ring_mem_,
                                                /*hardened=*/true);
  }
}

void AccelService::setupTenantRing(unsigned tenant) {
  ring_drvs_.push_back(nullptr);
  if (!ring_eng_) return;
  const std::size_t base = kRingTenantSpan * tenant;
  if (base + kRingTenantSpan > ring_mem_->size()) return;  // arena exhausted
  // The whole slice — rings and staging — carries the tenant's authority,
  // so the engine's ring-page and src/dst page checks bind the channel to
  // this tenant exactly like the MMIO port binds a BlockRequest.
  ring_mem_->setPageLabel(base, kRingTenantSpan,
                          acc_.principal(tenants_[tenant].user).authority);
  DmaRingConfig rc;
  rc.desc_base = base;
  rc.desc_slots = 8;
  rc.chain_base = base + 0x200;
  rc.chain_slots = 8;
  rc.comp_base = base + 0x400;
  rc.comp_slots = 8;
  const unsigned ch = ring_eng_->addChannel(rc);
  ring_drvs_.back() =
      std::make_unique<DmaRingDriver>(*ring_eng_, *ring_mem_, ch, rc);
}

unsigned AccelService::addTenant(const TenantSpec& spec) {
  const auto t = tryAddTenant(spec);
  if (!t.has_value()) {
    throw std::runtime_error("AccelService::addTenant: key provisioning for "
                             "user " + std::to_string(spec.user) + " refused");
  }
  return *t;
}

std::optional<unsigned> AccelService::tryAddTenant(const TenantSpec& spec) {
  if (!keys_.openSession(spec.user, spec.key_slot, spec.key, spec.key_conf))
    return std::nullopt;
  const unsigned t = static_cast<unsigned>(tenants_.size());
  tenants_.push_back(spec);
  sessions_.emplace_back(acc_, spec.user, spec.key_slot, cfg_.healthy_opts);
  golden_.push_back(aes::expandKey(spec.key, aes::KeySize::Aes128));
  queues_.emplace_back();
  completions_.emplace_back();
  aead_queues_.emplace_back();
  aead_completions_.emplace_back();
  tenant_active_.push_back(1);
  completed_per_tenant_.push_back(0);
  setupTenantRing(t);
  return t;
}

void AccelService::deactivateTenant(unsigned tenant) {
  tenant_active_.at(tenant) = 0;
}

bool AccelService::drainTenant(unsigned tenant, std::uint64_t max_device_cycles) {
  const std::uint64_t start = acc_.cycle();
  while ((!queues_.at(tenant).empty() || !aead_queues_.at(tenant).empty()) &&
         acc_.cycle() - start < max_device_cycles) {
    pump();
  }
  return queues_.at(tenant).empty() && aead_queues_.at(tenant).empty();
}

void AccelService::forceQuarantine(const std::string& reason) {
  monitor_.forceQuarantine(acc_.cycle(), reason);
  logTransitions();
  applyStateOptions();
}

std::size_t AccelService::totalQueued() const {
  std::size_t n = 0;
  for (const auto& q : queues_) n += q.size();
  for (const auto& q : aead_queues_) n += q.size();
  return n;
}

template <typename Req>
std::optional<SubmitResult> AccelService::admissionRefusal(
    unsigned tenant, std::deque<Req>& q, std::size_t depth) {
  // A retired tenant's key is zeroized (or owned by another shard now);
  // nothing may be queued behind it.
  if (!tenant_active_.at(tenant)) {
    return SubmitResult{false, 0, AdmitError::TenantRetired};
  }

  // Global watermark first: when the whole service is saturated, shedding a
  // tenant's own queue would not relieve the pressure — push back on the
  // caller instead.
  if (totalQueued() >= cfg_.global_high_watermark) {
    ++stats_.rejected_backpressure;
    return SubmitResult{false, 0, AdmitError::Backpressure};
  }

  if (q.size() >= depth) {
    if (cfg_.overflow == OverflowPolicy::RejectNew) {
      ++stats_.rejected_queue_full;
      return SubmitResult{false, 0, AdmitError::QueueFull};
    }
    // ShedOldest: the tenant trades its own stalest request for the fresh
    // one; the evicted ticket still resolves (as Shed), never vanishes.
    Req victim = std::move(q.front());
    q.pop_front();
    ++stats_.shed;
    complete(tenant, victim, CompletionStatus::Shed, ServedBy::None, {});
  }
  return std::nullopt;
}

SubmitResult AccelService::submit(unsigned tenant, const aes::Block& data,
                                  bool decrypt) {
  ++stats_.offered;
  auto& q = queues_.at(tenant);
  if (auto refused = admissionRefusal(tenant, q, tenants_[tenant].queue_depth))
    return *refused;
  Request req;
  req.ticket = next_ticket_++;
  req.data = data;
  req.decrypt = decrypt;
  req.submit_cycle = acc_.cycle();
  q.push_back(req);
  ++stats_.admitted;
  return {true, req.ticket, AdmitError::QueueFull};
}

std::optional<Completion> AccelService::fetch(unsigned tenant) {
  auto& c = completions_.at(tenant);
  if (c.empty()) return std::nullopt;
  Completion out = std::move(c.front());
  c.pop_front();
  return out;
}

void AccelService::complete(unsigned tenant, const Request& req,
                            CompletionStatus st, ServedBy by,
                            const aes::Block& data) {
  Completion c;
  c.ticket = req.ticket;
  c.tenant = tenant;
  c.status = st;
  c.served_by = by;
  c.data = data;
  c.submit_cycle = req.submit_cycle;
  c.complete_cycle = acc_.cycle();
  completions_.at(tenant).push_back(std::move(c));
  ++completions_made_;
  if (st == CompletionStatus::Ok) ++completed_per_tenant_.at(tenant);
}

SubmitResult AccelService::submitAead(unsigned tenant, AeadRequest req) {
  ++stats_.offered;
  ++stats_.aead_offered;
  // Refused here, not by the sequencer, so that the only refusals left at
  // the device are a full sequencer and an unusable key.
  if (req.op.iv.empty()) return {false, 0, AdmitError::Malformed};
  auto& q = aead_queues_.at(tenant);
  if (auto refused =
          admissionRefusal(tenant, q, tenants_[tenant].aead_queue_depth))
    return *refused;
  req.ticket = next_ticket_++;
  req.submit_cycle = acc_.cycle();
  const std::uint64_t ticket = req.ticket;
  q.push_back(std::move(req));
  ++stats_.admitted;
  ++stats_.aead_admitted;
  return {true, ticket, AdmitError::QueueFull};
}

SubmitResult AccelService::submitSeal(unsigned tenant,
                                      const std::vector<std::uint8_t>& plaintext,
                                      const std::vector<std::uint8_t>& aad,
                                      const std::vector<std::uint8_t>& iv) {
  AeadRequest req;
  req.op.open = false;
  req.op.iv = iv;
  req.op.aad = aad;
  req.op.data = plaintext;
  return submitAead(tenant, std::move(req));
}

SubmitResult AccelService::submitOpen(unsigned tenant,
                                      const std::vector<std::uint8_t>& ciphertext,
                                      const std::vector<std::uint8_t>& aad,
                                      const aes::Tag128& tag,
                                      const std::vector<std::uint8_t>& iv) {
  AeadRequest req;
  req.op.open = true;
  req.op.iv = iv;
  req.op.aad = aad;
  req.op.data = ciphertext;
  req.op.tag = tag;
  return submitAead(tenant, std::move(req));
}

std::optional<AeadCompletion> AccelService::fetchAead(unsigned tenant) {
  auto& c = aead_completions_.at(tenant);
  if (c.empty()) return std::nullopt;
  AeadCompletion out = std::move(c.front());
  c.pop_front();
  return out;
}

void AccelService::complete(unsigned tenant, const AeadRequest& req,
                            CompletionStatus st, ServedBy by,
                            std::vector<std::uint8_t> data,
                            const aes::Tag128& tag) {
  AeadCompletion c;
  c.ticket = req.ticket;
  c.tenant = tenant;
  c.status = st;
  c.served_by = by;
  c.data = std::move(data);
  c.tag = tag;
  c.submit_cycle = req.submit_cycle;
  c.complete_cycle = acc_.cycle();
  aead_completions_.at(tenant).push_back(std::move(c));
  ++completions_made_;
  if (st == CompletionStatus::Ok) ++completed_per_tenant_.at(tenant);
}

void AccelService::logTransitions() {
  const auto& ts = monitor_.transitions();
  for (; logged_transitions_ < ts.size(); ++logged_transitions_) {
    const auto& t = ts[logged_transitions_];
    acc_.noteServiceEvent(0, toString(t.from) + " -> " + toString(t.to) +
                                 ": " + t.reason);
  }
}

void AccelService::applyStateOptions() {
  const auto& opts = monitor_.state() == HealthState::Degraded
                         ? cfg_.degraded_opts
                         : cfg_.healthy_opts;
  for (auto& s : sessions_) s.setOptions(opts);
}

bool AccelService::reprovisionKey(unsigned tenant) {
  // Never resurrect a retired tenant's key: after migration the slot is
  // zeroized on purpose, and re-installing it here would silently undo the
  // handover's security argument.
  if (!tenant_active_[tenant] || !keys_.reload(tenants_[tenant].user))
    return false;
  ++stats_.key_reprovisions;
  return true;
}

void AccelService::serveFallback(unsigned tenant, const Request& req) {
  // The breaker is open: compute in software, but release under exactly the
  // declassification rule the tagged pipeline applies at its exit. A label
  // the hardware would suppress stays suppressed — degraded mode must never
  // become a policy bypass.
  const auto& spec = tenants_[tenant];
  const auto decision = degradedReleaseDecision(
      acc_.principal(spec.user), spec.key_conf);
  // Model the software path's cost on the shared clock so quarantine
  // residency and the background scrub keep advancing.
  acc_.run(kFallbackCyclesPerBlock);
  if (!decision.allowed) {
    ++stats_.fallback_suppressed;
    complete(tenant, req, CompletionStatus::Suppressed,
             ServedBy::SoftwareFallback, aes::Block{});
    return;
  }
  const aes::Block out = req.decrypt
                             ? aes::decryptBlock(req.data, golden_[tenant])
                             : aes::encryptBlock(req.data, golden_[tenant]);
  ++stats_.completed_fallback;
  complete(tenant, req, CompletionStatus::Ok, ServedBy::SoftwareFallback, out);
}

std::optional<CompletionStatus> AccelService::hardwareVerdict(
    unsigned tenant, AccelStatus st, unsigned& requeues) {
  switch (st) {
    case AccelStatus::Ok: return CompletionStatus::Ok;
    case AccelStatus::Suppressed: return CompletionStatus::Suppressed;
    case AccelStatus::AuthFailed:
      // A tag mismatch is a verdict about the message, not about device
      // health: terminal, never requeued, never failed over to software.
      ++stats_.aead_auth_failed;
      return CompletionStatus::AuthFailed;
    case AccelStatus::Rejected:
      // Typically a fail-secure zeroized slot. Re-provision once and let
      // the request ride again; a tenant whose key cannot be restored gets
      // a definite Rejected.
      if (requeues < cfg_.max_requeues && reprovisionKey(tenant)) break;
      return CompletionStatus::Rejected;
    case AccelStatus::Timeout:
    case AccelStatus::FaultAborted:
    case AccelStatus::Dropped:
      // Transient failure that survived the driver's own retry budget.
      ++stats_.hw_transient_failures;
      if (requeues < cfg_.max_requeues) break;
      return st == AccelStatus::FaultAborted ? CompletionStatus::FaultAborted
             : st == AccelStatus::Dropped    ? CompletionStatus::Dropped
                                             : CompletionStatus::TimedOut;
  }
  // Requeue: the request goes (or stays) at the front of its queue, so
  // per-tenant order is preserved, and if the breaker trips before the next
  // round the request is served by the fallback.
  ++requeues;
  ++stats_.requeues;
  return std::nullopt;
}

void AccelService::serveFallback(unsigned tenant, const AeadRequest& req) {
  // Same contract as the block fallback, lifted to a whole message: the golden
  // software GCM computes the answer, but release still passes the Eq. 1
  // declassification check, and the shared clock is charged per block so
  // quarantine residency reflects the real work.
  const auto& spec = tenants_[tenant];
  const auto decision =
      degradedReleaseDecision(acc_.principal(spec.user), spec.key_conf);
  const std::uint64_t blocks = accel::gcmWorkBlocks(req.op) + 2;  // J0, tag
  acc_.run(kFallbackCyclesPerBlock * blocks);
  if (!decision.allowed) {
    ++stats_.fallback_suppressed;
    complete(tenant, req, CompletionStatus::Suppressed,
             ServedBy::SoftwareFallback, {});
    return;
  }
  const accel::GcmRequest& op = req.op;
  if (op.open) {
    auto pt = aes::gcmDecrypt(op.data, op.aad, op.tag, golden_[tenant], op.iv);
    if (!pt.has_value()) {
      ++stats_.aead_auth_failed;
      complete(tenant, req, CompletionStatus::AuthFailed,
               ServedBy::SoftwareFallback, {});
      return;
    }
    ++stats_.aead_completed_fallback;
    complete(tenant, req, CompletionStatus::Ok, ServedBy::SoftwareFallback,
             std::move(*pt));
    return;
  }
  auto r = aes::gcmEncrypt(op.data, op.aad, golden_[tenant], op.iv);
  ++stats_.aead_completed_fallback;
  complete(tenant, req, CompletionStatus::Ok, ServedBy::SoftwareFallback,
           std::move(r.ciphertext), r.tag);
}

bool AccelService::startAead(unsigned tenant) {
  auto& q = aead_queues_[tenant];
  const auto h = sessions_[tenant].startGcm(q.front().op);
  if (!h) return false;
  aead_pending_.push_back({tenant, std::move(q.front()), *h, {}, false});
  q.pop_front();
  return true;
}

bool AccelService::finishAead(AeadFlight& f) {
  auto& r = *f.result;
  const auto cs = hardwareVerdict(f.tenant, r.status(), f.req.requeues);
  if (!cs) return false;
  std::vector<std::uint8_t> out;
  aes::Tag128 tag{};  // an open's response carries no tag
  if (r.has_value()) {
    out = std::move(r->data);
    tag = r->tag;
  }
  if (*cs == CompletionStatus::Ok) ++stats_.aead_completed_hw;
  complete(f.tenant, f.req, *cs, ServedBy::Hardware, std::move(out), tag);
  f.done = true;
  return true;
}

void AccelService::reapAead() {
  if (aead_pending_.empty()) return;
  // The reap ticks the accelerator directly, which must not run under a
  // ring chain in flight.
  reapRing();
  std::vector<AeadFlight> pending = std::move(aead_pending_);
  aead_pending_.clear();
  // held: the tenant has an op going back to its queue; everything after it
  // goes back too, so no later ticket completes ahead of it.
  // blocked: held, or an earlier op of the tenant is still unresolved.
  std::vector<char> held(tenants_.size(), 0), blocked;
  for (;;) {
    bool open = false;
    for (auto& f : pending) {
      if (!f.result) f.result = sessions_[f.tenant].collectGcm(f.handle);
      open = open || !f.result;
    }
    blocked.assign(held.begin(), held.end());
    for (auto& f : pending) {
      if (f.done || blocked[f.tenant]) continue;
      if (!f.result) {
        blocked[f.tenant] = 1;
      } else if (!finishAead(f)) {
        blocked[f.tenant] = held[f.tenant] = 1;
      }
    }
    if (!open) break;
    acc_.tick();
  }
  for (auto it = pending.rbegin(); it != pending.rend(); ++it) {
    if (!it->done) aead_queues_[it->tenant].push_front(std::move(it->req));
  }
}

bool AccelService::onHardware(unsigned tenant) const {
  const HealthState st = monitor_.state();
  return tenant_active_[tenant] &&
         (st == HealthState::Healthy || st == HealthState::Degraded);
}

template <typename Req>
void AccelService::serveOffHardware(unsigned tenant, const Req& req) {
  if (!tenant_active_[tenant]) {
    // A request surfaced for a retired tenant: executing it would use a
    // stale or zeroized key. Refuse, and count the near-miss — the elastic
    // pool's invariant is that this counter stays 0.
    ++stats_.wrong_key_uses;
    complete(tenant, req, CompletionStatus::Rejected, ServedBy::None, {});
    return;
  }
  serveFallback(tenant, req);
}

std::optional<std::uint16_t> AccelService::submitRing(unsigned tenant,
                                                      std::size_t n) {
  if (tenant >= ring_drvs_.size() || !ring_drvs_[tenant]) return std::nullopt;
  if (n < cfg_.dma_ring_min_run) return std::nullopt;
  const std::size_t len = n * 16;
  if (len > kRingStagingMax) return std::nullopt;
  const TenantSpec& spec = tenants_[tenant];
  const std::size_t base = kRingTenantSpan * tenant;
  const std::size_t src = base + kRingStagingSrc;
  const auto& q = queues_[tenant];

  std::vector<std::uint8_t> staged(len);
  for (std::size_t i = 0; i < n; ++i)
    std::copy(q[i].data.begin(), q[i].data.end(), staged.begin() + 16 * i);
  ring_mem_->writeBytes(src, staged);

  DmaDescriptor d;
  d.user = spec.user;
  d.key_slot = spec.key_slot;
  d.mode = q.front().decrypt ? DmaMode::EcbDecrypt : DmaMode::EcbEncrypt;
  d.src = src;
  d.dst = base + kRingStagingDst;
  d.len = len;
  const auto seq = ring_drvs_[tenant]->submitChain({d});
  if (!seq) ++stats_.dma_ring_fallbacks;
  return seq;
}

void AccelService::completeRun(unsigned tenant, std::size_t n,
                               CompletionStatus st,
                               std::span<const aes::Block> out) {
  // A suppression verdict is a function of the tenant's label and its
  // key's confidentiality, so it is uniform across a single-tenant run:
  // every member is suppressed.
  if (st == CompletionStatus::Ok) stats_.completed_hw += n;
  auto& q = queues_[tenant];
  for (std::size_t i = 0; i < n; ++i) {
    complete(tenant, q.front(), st, ServedBy::Hardware,
             st == CompletionStatus::Ok ? out[i] : aes::Block{});
    q.pop_front();
  }
}

void AccelService::reapRing() {
  if (ring_pending_.empty()) return;
  std::vector<RingRun> pending = std::move(ring_pending_);
  ring_pending_.clear();
  std::vector<std::pair<unsigned, std::size_t>> refused;  // tenant, length
  const std::uint64_t start = acc_.cycle();
  while (!pending.empty()) {
    // Complete each run in the cycle its future resolves, so every block
    // carries its own run's completion cycle. One run per tenant is in
    // flight, and serveRun reaps it before popping that tenant's next
    // request, so per-tenant completion order cannot change.
    for (auto it = pending.begin(); it != pending.end();) {
      auto& drv = *ring_drvs_[it->tenant];
      const DmaCompletion* c = drv.result(it->seq);
      if (c == nullptr) {
        // 1 block/cycle plus pipeline depth, with generous headroom for
        // fault retries and a watchdog recovery; a transfer that outlives
        // this budget is abandoned through a reset of its own channel.
        if (acc_.cycle() - start < 16 * it->run.size() + 16384) {
          ++it;
          continue;
        }
        ring_eng_->ringReset(drv.channel());
        drv.resync();
      }
      // A resolved run goes back to the head of its tenant's queue, where
      // it completes (or is re-served) like any MMIO run.
      auto& q = queues_[it->tenant];
      q.insert(q.begin(), std::make_move_iterator(it->run.begin()),
               std::make_move_iterator(it->run.end()));
      const std::size_t n = it->run.size();
      if (c != nullptr && c->status == DmaError::None) {
        const std::size_t dst = kRingTenantSpan * it->tenant + kRingStagingDst;
        const auto bytes = ring_mem_->readBytes(dst, n * 16);
        std::vector<aes::Block> out(n);
        for (std::size_t i = 0; i < n; ++i)
          std::copy_n(bytes.begin() + 16 * i, 16, out[i].begin());
        ++stats_.dma_ring_runs;
        stats_.dma_ring_blocks += n;
        completeRun(it->tenant, n, CompletionStatus::Ok, out);
      } else if (c != nullptr && c->status == DmaError::OutputSuppressed) {
        completeRun(it->tenant, n, CompletionStatus::Suppressed, {});
      } else {
        ++stats_.dma_ring_fallbacks;  // typed refusal or stall: MMIO re-serve
        refused.emplace_back(it->tenant, n);
      }
      it = pending.erase(it);
    }
    if (!pending.empty()) ring_eng_->tick();
  }
  // The MMIO half runs only once no ring chain is in flight, so no session
  // drains an output queue a collecting chain still reads from.
  for (const auto& [tenant, n] : refused) serveMmioRun(tenant, n);
}

void AccelService::serveMmioRun(unsigned tenant, std::size_t n) {
  auto& q = queues_[tenant];
  std::vector<aes::Block> blocks(n);
  for (std::size_t i = 0; i < n; ++i) blocks[i] = q[i].data;
  auto& session = sessions_[tenant];
  const auto r = q.front().decrypt ? session.decryptBlocks(blocks)
                                   : session.encryptBlocks(blocks);
  if (n > 1) {
    ++stats_.batched_runs;
    stats_.batched_blocks += n;
  }
  if (r.has_value()) return completeRun(tenant, n, CompletionStatus::Ok, *r);
  if (r.status() == AccelStatus::Suppressed)
    return completeRun(tenant, n, CompletionStatus::Suppressed, {});
  if (n == 1) {
    // A requeued request stays at the head of its queue.
    if (const auto st =
            hardwareVerdict(tenant, r.status(), q.front().requeues)) {
      complete(tenant, q.front(), *st, ServedBy::Hardware, aes::Block{});
      q.pop_front();
    }
    return;
  }
  // Transient failure or submit rejection: re-serve the members, still in
  // order at the head of the queue, as runs of one, which own the requeue /
  // key-reprovision policy. That is n serves in all; a requeued member
  // stays at the head and takes the next one.
  ++stats_.batch_fallbacks;
  for (std::size_t i = 0; i < n; ++i) serveMmioRun(tenant, 1);
}

unsigned AccelService::serveRun(unsigned tenant, unsigned max_run) {
  auto& q = queues_[tenant];
  if (q.empty()) return 0;
  // A tenant has one ring run in flight (its staging pages hold one run),
  // and reaping it may hand members back to the front of its queue: reap
  // before taking the next run, so per-tenant completion order cannot
  // change.
  for (const RingRun& p : ring_pending_) {
    if (p.tenant == tenant) {
      reapRing();
      break;
    }
  }
  if (!onHardware(tenant)) {
    reapRing();
    serveOffHardware(tenant, q.front());
    q.pop_front();
    return 1;
  }
  const bool dir = q.front().decrypt;
  unsigned run_len = 1;
  while (run_len < max_run && run_len < cfg_.batch_size &&
         run_len < q.size() && q[run_len].decrypt == dir) {
    ++run_len;
  }
  if (const auto seq = submitRing(tenant, run_len)) {
    const auto end = q.begin() + run_len;
    ring_pending_.push_back(RingRun{
        tenant, *seq,
        {std::make_move_iterator(q.begin()), std::make_move_iterator(end)}});
    q.erase(q.begin(), end);
  } else {
    reapRing();
    serveMmioRun(tenant, run_len);
  }
  return run_len;
}

void AccelService::sampleWindowIfDue() {
  if (acc_.cycle() < window_start_cycle_ + cfg_.health.window_cycles) return;
  accel::SessionTelemetry now;
  for (const auto& s : sessions_) now += s.telemetry();
  const HealthState before = monitor_.state();
  monitor_.onWindow(now - window_base_, acc_.cycle());
  window_start_cycle_ = acc_.cycle();
  window_base_ = now;
  if (monitor_.state() != before) {
    logTransitions();
    applyStateOptions();
  }
}

void AccelService::runCanaries() {
  ++stats_.canary_rounds;
  bool all_ok = !tenants_.empty();
  for (unsigned t = 0; t < tenants_.size(); ++t) {
    // Retired tenants have no key on this shard (zeroized at migration);
    // probing them would re-provision a key that must stay gone.
    if (!tenant_active_[t]) continue;
    const auto& spec = tenants_[t];
    // Fail-secure zeroization may have destroyed the slot while the device
    // was sick; a canary round re-provisions before probing.
    if (!acc_.roundKeys().valid(spec.key_slot) && !reprovisionKey(t)) {
      all_ok = false;
      continue;
    }
    aes::Block pt;
    for (unsigned i = 0; i < 16; ++i)
      pt[i] = static_cast<std::uint8_t>(i ^ (t * 0x11));
    auto& session = sessions_[t];
    session.setOptions(cfg_.canary_opts);
    const auto got = session.encryptBlock(pt);
    // A tenant whose label forbids release to itself (the master-key
    // pattern) can never show the probe its ciphertext: healthy hardware
    // suppresses it. For such a tenant the expected canary verdict IS
    // suppression — anything else (timeout, abort, wrong data) still fails.
    const bool release_allowed =
        degradedReleaseDecision(acc_.principal(spec.user), spec.key_conf)
            .allowed;
    if (release_allowed) {
      const aes::Block want = aes::encryptBlock(pt, golden_[t]);
      if (!got.has_value() || *got != want) all_ok = false;
    } else if (got.has_value() ||
               got.status() != accel::AccelStatus::Suppressed) {
      all_ok = false;
    }
  }
  if (!all_ok) ++stats_.canary_failures;
  monitor_.onCanaryVerdict(all_ok, acc_.cycle());
  logTransitions();
  applyStateOptions();
}

unsigned AccelService::pump() {
  // One idle cycle per round models scheduling overhead and, crucially,
  // keeps the device clock (and quarantine residency) moving even when all
  // queues are empty.
  acc_.tick();

  if (monitor_.state() == HealthState::Quarantined &&
      monitor_.tryBeginProbation(acc_.cycle())) {
    logTransitions();
    runCanaries();
  }

  // Ring runs and AEAD ops are started as the loop meets them and reaped
  // before the next synchronous serve and at the end of the round, so
  // adjacent ring runs of different tenants overlap in the pipe, and a
  // round's AEAD ops overlap on the GCM sequencer.
  const std::uint64_t made_before = completions_made_;
  const unsigned n = static_cast<unsigned>(tenants_.size());
  for (unsigned k = 0; k < n; ++k) {
    const unsigned t = (rr_next_ + k) % n;
    unsigned served = 0;
    // AEAD first: one whole GCM op is one quota unit, and serving it ahead
    // of the block queue keeps a long message from starving behind blocks.
    // Ops are started, not waited on, so the sequencer overlaps a round's
    // ops; when its op slots are all busy, reap and start again.
    while (served < cfg_.quota_per_round && !aead_queues_[t].empty()) {
      if (!onHardware(t)) {
        reapRing();
        reapAead();
        serveOffHardware(t, aead_queues_[t].front());
        aead_queues_[t].pop_front();
      } else if (!startAead(t)) {
        reapAead();
        // Still full (only draining ops hold the slots): next round.
        if (!startAead(t)) break;
      }
      ++served;
    }
    if (served < cfg_.quota_per_round && !queues_[t].empty()) reapAead();
    while (served < cfg_.quota_per_round && !queues_[t].empty()) {
      // A request the robustness path re-queues is re-popped here and
      // charged against the quota again, exactly as it was pre-batching.
      served += serveRun(t, cfg_.quota_per_round - served);
    }
  }
  reapRing();
  reapAead();
  if (n) rr_next_ = (rr_next_ + 1) % n;

  sampleWindowIfDue();
  return static_cast<unsigned>(completions_made_ - made_before);
}

void AccelService::runUntilIdle(std::uint64_t max_device_cycles) {
  const std::uint64_t start = acc_.cycle();
  while (totalQueued() > 0 && acc_.cycle() - start < max_device_cycles) {
    pump();
  }
  logTransitions();
}

}  // namespace aesifc::soc
