#include "soc/fault_injector.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "aes/cipher.h"
#include "aes/gcm.h"

namespace aesifc::soc {

using accel::FaultSite;

namespace {

FaultSite faultSiteFromString(const std::string& name) {
  for (unsigned s = 0; s < accel::kHwFaultSites + accel::kHostFaultSites;
       ++s) {
    const auto site = static_cast<FaultSite>(s);
    if (accel::toString(site) == name) return site;
  }
  throw std::invalid_argument("parseTrace: unknown fault site '" + name + "'");
}

}  // namespace

std::string traceToString(const std::vector<FaultRecord>& records) {
  std::ostringstream os;
  for (const auto& r : records) {
    os << r.cycle << " " << accel::toString(r.site) << " " << r.index << " "
       << r.bit << " " << (r.applied ? 1 : 0) << "\n";
  }
  return os.str();
}

std::vector<FaultRecord> parseTrace(const std::string& text) {
  std::vector<FaultRecord> out;
  std::istringstream is{text};
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream ls{line};
    FaultRecord r;
    std::string site;
    int applied = 0;
    if (!(ls >> r.cycle >> site >> r.index >> r.bit >> applied)) {
      throw std::invalid_argument("parseTrace: malformed line '" + line + "'");
    }
    r.site = faultSiteFromString(site);
    r.applied = applied != 0;
    out.push_back(r);
  }
  return out;
}

FaultInjector::FaultInjector(accel::AesAccelerator& acc,
                             FaultCampaignConfig cfg,
                             std::vector<unsigned> users)
    : acc_{acc}, cfg_{cfg}, users_{std::move(users)}, rng_{cfg.seed} {}

FaultInjector::FaultInjector(accel::AesAccelerator& acc,
                             FaultCampaignConfig cfg,
                             std::vector<unsigned> users,
                             std::vector<FaultRecord> trace)
    : acc_{acc}, cfg_{cfg}, users_{std::move(users)}, rng_{cfg.seed},
      replay_{true}, replay_trace_{std::move(trace)} {}

void FaultInjector::tick() {
  // Release receivers whose stuck window has expired.
  for (auto it = stuck_.begin(); it != stuck_.end();) {
    if (acc_.cycle() >= it->second) {
      acc_.setReceiverReady(it->first, true);
      it = stuck_.erase(it);
    } else {
      ++it;
    }
  }
  if (replay_) {
    replayTick();
    return;
  }
  if (!rng_.chance(cfg_.fault_rate)) return;
  if (cfg_.hw_faults && rng_.chance(0.7)) {
    injectHw();
  } else {
    injectHost();
  }
}

void FaultInjector::replayTick() {
  // Land every trace event stamped for the current cycle. Cycles the
  // workload never reaches simply leave the remaining tail uninjected
  // (report() then shows fewer injected events than the trace holds).
  while (replay_next_ < replay_trace_.size() &&
         replay_trace_[replay_next_].cycle <= acc_.cycle()) {
    FaultRecord rec = replay_trace_[replay_next_++];
    rec.cycle = acc_.cycle();
    applyRecord(rec);
  }
}

void FaultInjector::injectHw() {
  FaultRecord rec;
  rec.cycle = acc_.cycle();
  rec.site = static_cast<FaultSite>(rng_.below(accel::kHwFaultSites));
  switch (rec.site) {
    case FaultSite::StageData:
    case FaultSite::StageTag:
      rec.index = static_cast<unsigned>(rng_.below(acc_.pipeline().depth()));
      rec.bit = static_cast<unsigned>(
          rng_.below(rec.site == FaultSite::StageData ? 128 : 32));
      break;
    case FaultSite::ScratchCell:
    case FaultSite::ScratchTag:
      rec.index = static_cast<unsigned>(rng_.below(accel::kScratchpadCells));
      rec.bit = static_cast<unsigned>(
          rng_.below(rec.site == FaultSite::ScratchCell ? 64 : 32));
      break;
    case FaultSite::RoundKey: {
      rec.index = static_cast<unsigned>(rng_.below(accel::kRoundKeySlots));
      // round*128 + byte*8 + bit, rounds limited to the AES-128 schedule so
      // most rolls land on real state. One draw per statement keeps the
      // stream independent of the compiler's operand order.
      const auto round = rng_.below(11);
      const auto offset = rng_.below(128);
      rec.bit = static_cast<unsigned>(round * 128 + offset);
      break;
    }
    case FaultSite::ConfigReg:
      rec.index = static_cast<unsigned>(rng_.below(4));
      rec.bit = static_cast<unsigned>(rng_.below(32));
      break;
    case FaultSite::GhashStage:
      rec.index = static_cast<unsigned>(rng_.below(accel::kGhashStages));
      rec.bit = static_cast<unsigned>(rng_.below(256));  // x || z
      break;
    case FaultSite::GhashStageTag:
      rec.index = static_cast<unsigned>(rng_.below(accel::kGhashStages));
      rec.bit = static_cast<unsigned>(rng_.below(32));
      break;
    case FaultSite::GhashAcc:
      rec.index = static_cast<unsigned>(rng_.below(accel::kGhashStreams));
      rec.bit =
          static_cast<unsigned>(rng_.below(128 * accel::kGhashLanes));
      break;
    case FaultSite::GhashKeyTable:
      rec.index = static_cast<unsigned>(rng_.below(accel::kGhashKeySlots));
      // power*2048 + entry*128 + bit over the per-slot H-power tables.
      rec.bit = static_cast<unsigned>(
          rng_.below(accel::kGhashLanes * 16 * 128));
      break;
    default:
      return;
  }
  applyRecord(rec);
}

void FaultInjector::attachRingMemory(HostMemory* mem,
                                     std::vector<RingRange> desc_rings,
                                     std::vector<RingRange> comp_rings) {
  ring_mem_ = mem;
  desc_rings_ = std::move(desc_rings);
  comp_rings_ = std::move(comp_rings);
}

void FaultInjector::injectHost() {
  if (users_.empty()) return;
  const unsigned user =
      users_[static_cast<std::size_t>(rng_.below(users_.size()))];
  FaultRecord rec;
  rec.cycle = acc_.cycle();
  rec.index = user;
  const bool rings =
      ring_mem_ != nullptr && (!desc_rings_.empty() || !comp_rings_.empty());
  switch (rng_.below(rings ? 6 : 4)) {
    case 0: rec.site = FaultSite::HostDrop; break;
    case 1: rec.site = FaultSite::HostDuplicate; break;
    case 2: rec.site = FaultSite::HostStuckReceiver; break;
    case 4:
    case 5: {
      // One bit somewhere in a descriptor or completion ring. index packs
      // range << 16 | slot; bit is the offset inside the slot's record.
      const bool desc = comp_rings_.empty() ||
                        (!desc_rings_.empty() && rng_.chance(0.5));
      const auto& ranges = desc ? desc_rings_ : comp_rings_;
      rec.site = desc ? FaultSite::RingDescriptor : FaultSite::RingCompletion;
      const unsigned range =
          static_cast<unsigned>(rng_.below(ranges.size()));
      const RingRange& rr = ranges[range];
      rec.index = (range << 16) |
                  static_cast<unsigned>(rng_.below(rr.slots));
      rec.bit = static_cast<unsigned>(rng_.below(rr.stride * 8));
      break;
    }
    default: {
      rec.site = FaultSite::HostSpuriousSubmit;
      // Shape of the spurious request, encoded so a replay rebuilds it.
      const auto key_slot = rng_.below(accel::kRoundKeySlots + 2);
      const bool decrypt = rng_.chance(0.5);
      rec.bit = static_cast<unsigned>(key_slot) * 2 + (decrypt ? 1 : 0);
      break;
    }
  }
  applyRecord(rec);
}

// Single point where a fault event — freshly rolled or replayed — lands on
// the device and enters the injection log.
void FaultInjector::applyRecord(FaultRecord rec) {
  switch (rec.site) {
    case FaultSite::StageData:
    case FaultSite::StageTag:
    case FaultSite::ScratchCell:
    case FaultSite::ScratchTag:
    case FaultSite::RoundKey:
    case FaultSite::ConfigReg:
    case FaultSite::GhashStage:
    case FaultSite::GhashStageTag:
    case FaultSite::GhashAcc:
    case FaultSite::GhashKeyTable:
      rec.applied = acc_.injectFault(rec.site, rec.index, rec.bit);
      break;
    case FaultSite::HostDrop:
      rec.applied = acc_.injectDropOutput(rec.index);
      if (rec.applied) ++host_drops_;
      break;
    case FaultSite::HostDuplicate:
      rec.applied = acc_.injectDuplicateOutput(rec.index);
      if (rec.applied) ++host_duplicates_;
      break;
    case FaultSite::HostStuckReceiver:
      acc_.setReceiverReady(rec.index, false);
      stuck_.emplace_back(rec.index, acc_.cycle() + cfg_.stuck_cycles);
      rec.applied = true;
      ++host_stuck_;
      break;
    case FaultSite::HostSpuriousSubmit: {
      accel::BlockRequest req;
      // Ids in a reserved high range so no driver request is ever aliased.
      req.req_id = 0xF000000000000000ULL + spurious_seq_++;
      req.user = rec.index;
      req.key_slot = rec.bit / 2;
      req.decrypt = (rec.bit & 1) != 0;
      // Contents are irrelevant to every observable (nothing consumes a
      // spurious output; timing and parity are data-independent), so a
      // deterministic pattern keeps record and replay identical.
      for (unsigned i = 0; i < 16; ++i)
        req.data[i] = static_cast<std::uint8_t>(0xA5u ^ (req.req_id + i));
      rec.applied = acc_.submit(req);
      ++host_spurious_;
      break;
    }
    case FaultSite::RingDescriptor:
    case FaultSite::RingCompletion: {
      const bool desc = rec.site == FaultSite::RingDescriptor;
      const auto& ranges = desc ? desc_rings_ : comp_rings_;
      const unsigned range = rec.index >> 16;
      const unsigned slot = rec.index & 0xffff;
      rec.applied = false;
      if (ring_mem_ != nullptr && range < ranges.size() &&
          slot < ranges[range].slots && rec.bit < ranges[range].stride * 8) {
        const std::size_t addr = ranges[range].base +
                                 static_cast<std::size_t>(slot) *
                                     ranges[range].stride +
                                 rec.bit / 8;
        if (addr < ring_mem_->size()) {
          ring_mem_->write8(
              addr, ring_mem_->read8(addr) ^
                        static_cast<std::uint8_t>(1u << (rec.bit % 8)));
          rec.applied = true;
          ++(desc ? host_ring_desc_ : host_ring_comp_);
        }
      }
      break;
    }
  }
  ++injected_;
  records_.push_back(rec);
}

void FaultInjector::releaseStuckReceivers() {
  for (const auto& [user, until] : stuck_) {
    (void)until;
    acc_.setReceiverReady(user, true);
  }
  stuck_.clear();
}

FaultCampaignReport FaultInjector::report() const {
  FaultCampaignReport r;
  r.records = records_;
  r.injected = injected_;
  r.host_drops = host_drops_;
  r.host_duplicates = host_duplicates_;
  r.host_stuck = host_stuck_;
  r.host_spurious = host_spurious_;
  r.host_ring_desc = host_ring_desc_;
  r.host_ring_comp = host_ring_comp_;
  for (const auto& rec : records_) {
    const auto s = static_cast<unsigned>(rec.site);
    if (s < accel::kHwFaultSites) {
      ++r.injected_by_site[s];
      if (rec.applied) {
        ++r.applied_by_site[s];
        ++r.applied;
      }
    }
  }
  r.detected_by_site = acc_.faultsDetectedBySite();
  const auto& st = acc_.stats();
  r.detected = st.faults_detected;
  r.recovered = st.faults_recovered;
  r.aborted = st.fault_aborted;
  return r;
}

DeviceCampaignReport runDeviceFaultCampaign(std::uint64_t seed,
                                            double fault_rate, bool hardened) {
  constexpr unsigned kTenants = 3, kRounds = 40, kSettleCycles = 64;
  accel::AcceleratorConfig cfg;
  cfg.mode = accel::SecurityMode::Protected;
  cfg.fault_hardening = hardened;
  cfg.out_buffer_depth = 16;
  cfg.event_log_cap = kCampaignEventLogCap;
  accel::AesAccelerator acc{cfg};
  acc.addUser(lattice::Principal::supervisor());

  Rng rng{seed};
  std::vector<unsigned> users(kTenants);
  std::vector<std::vector<std::uint8_t>> keys(kTenants);
  std::vector<aes::ExpandedKey> golden;
  auto loadKey = [&](unsigned u) {
    return accel::loadKey128(acc, users[u], u + 1, 2 * u, keys[u],
                             lattice::Conf::category(u + 1));
  };
  for (unsigned u = 0; u < kTenants; ++u) {
    users[u] = acc.addUser(lattice::Principal::user(
        std::string("u").append(std::to_string(u)), u + 1));
    keys[u].resize(16);
    for (auto& b : keys[u]) b = static_cast<std::uint8_t>(rng.next());
    if (!loadKey(u))
      throw std::runtime_error("runDeviceFaultCampaign: key load refused");
    golden.push_back(aes::expandKey(keys[u], aes::KeySize::Aes128));
  }

  FaultCampaignConfig fcfg;
  // A full-width LCG step, so neighbouring campaign seeds drive unrelated
  // injector streams.
  fcfg.seed = seed * 6364136223846793005ull + 1442695040888963407ull;
  fcfg.fault_rate = fault_rate;
  fcfg.stuck_cycles = 24;
  FaultInjector inj{acc, fcfg, users};
  acc.setTickHook([&] { inj.tick(); });

  accel::SessionOptions opts;
  opts.timeout_cycles = 1500;
  opts.max_retries = 3;
  opts.backoff_cycles = 16;
  std::vector<accel::AccelSession> sessions;
  for (unsigned u = 0; u < kTenants; ++u)
    sessions.emplace_back(acc, users[u], u + 1, opts);

  DeviceCampaignReport out;
  std::vector<bool> needs_reload(kTenants, false);
  const std::uint64_t t0 = acc.cycle();
  for (unsigned round = 0; round < kRounds; ++round) {
    for (unsigned u = 0; u < kTenants; ++u) {
      if (needs_reload[u]) {
        if (!loadKey(u)) continue;  // the reload itself was hit; next round
        needs_reload[u] = false;
      }
      aes::Block in;
      for (auto& b : in) b = static_cast<std::uint8_t>(rng.next());
      const bool decrypt = rng.chance(0.4);
      ++out.ops;
      const auto r = decrypt ? sessions[u].decryptBlock(in)
                             : sessions[u].encryptBlock(in);
      if (r.has_value()) {
        ++out.ok;
        const aes::Block want = decrypt ? aes::decryptBlock(in, golden[u])
                                        : aes::encryptBlock(in, golden[u]);
        if (*r != want) ++out.wrong_block_releases;
      } else if (r.status() == accel::AccelStatus::Rejected) {
        needs_reload[u] = true;
      }
      if (round % 4 != 3 || needs_reload[u]) continue;
      std::vector<std::uint8_t> msg(40), aad(8), iv(12);
      for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next());
      for (auto& b : aad) b = static_cast<std::uint8_t>(rng.next());
      for (auto& b : iv) b = static_cast<std::uint8_t>(rng.next());
      ++out.gcm_ops;
      const auto sealed = sessions[u].gcmSeal(msg, aad, iv);
      if (sealed.has_value()) {
        ++out.gcm_ok;
        const auto want = aes::gcmEncrypt(msg, aad, golden[u], iv);
        if (sealed->tag != want.tag || sealed->ciphertext != want.ciphertext)
          ++out.wrong_tag_releases;
      } else if (sealed.status() == accel::AccelStatus::Rejected) {
        needs_reload[u] = true;
      }
    }
  }
  out.device_cycles = acc.cycle() - t0;

  acc.setTickHook(nullptr);
  inj.releaseStuckReceivers();
  acc.run(kSettleCycles);
  for (const auto& s : sessions) {
    out.retries += s.retries();
    out.telemetry += s.telemetry();
  }
  out.dropped = acc.stats().dropped;
  out.fault_events = acc.eventCount(accel::SecurityEventKind::FaultDetected) +
                     acc.eventCount(accel::SecurityEventKind::FaultScrubbed);
  out.events_logged = acc.events().size();
  out.campaign = inj.report();
  return out;
}

namespace {

constexpr unsigned kServiceTenants = 4;

accel::AcceleratorConfig serviceCampaignAccelerator() {
  accel::AcceleratorConfig a;
  a.out_buffer_depth = 16;
  a.event_log_cap = 512;
  return a;
}

ServiceConfig serviceCampaignService() {
  ServiceConfig c;
  c.global_high_watermark = 48;
  c.quota_per_round = 2;
  c.max_requeues = 2;
  c.health.window_cycles = 512;
  c.health.quarantine_threshold = 0.40;
  c.health.recovery_windows = 1;
  c.health.quarantine_residency_cycles = 1024;
  c.healthy_opts = {.timeout_cycles = 400, .max_retries = 2,
                    .backoff_cycles = 8};
  return c;
}

}  // namespace

ServiceCampaign::ServiceCampaign()
    : acc_{serviceCampaignAccelerator()},
      svc_{acc_, serviceCampaignService()} {
  acc_.addUser(lattice::Principal::supervisor());
  for (unsigned t = 0; t < kServiceTenants; ++t) {
    const unsigned u = acc_.addUser(lattice::Principal::user(
        std::string("t").append(std::to_string(t)), t + 1));
    users_.push_back(u);
    TenantSpec spec;
    spec.user = u;
    spec.key_slot = t + 1;
    spec.key.resize(16);
    for (unsigned i = 0; i < 16; ++i)
      spec.key[i] = static_cast<std::uint8_t>(0x40 + 29 * t + i);
    spec.key_conf = lattice::Conf::category(t + 1);
    spec.queue_depth = 6;
    svc_.addTenant(spec);
    golden_.push_back(aes::expandKey(spec.key, aes::KeySize::Aes128));
  }
}

std::uint64_t ServiceCampaign::round() {
  for (unsigned t = 0; t < kServiceTenants; ++t) {
    if (svc_.queued(t) >= 5) continue;
    aes::Block pt;
    const auto bits = traffic_.bits(128).toBytes();
    for (unsigned i = 0; i < 16; ++i) pt[i] = bits[i];
    const SubmitResult res = svc_.submit(t, pt);
    cons_.offer(res.admitted);
    if (res.admitted) admitted_[res.ticket] = {t, pt};
  }
  svc_.pump();
  std::uint64_t ok = 0;
  for (unsigned t = 0; t < kServiceTenants; ++t) {
    while (const auto c = svc_.fetch(t)) {
      cons_.resolve(c->status);
      if (!fetched_.insert(c->ticket).second) {
        ++duplicates_;
        continue;
      }
      const auto it = admitted_.find(c->ticket);
      if (it == admitted_.end() || it->second.tenant != t) {
        ++unknown_;
        continue;
      }
      if (c->status == CompletionStatus::Ok) {
        ++ok;
        if (c->data != aes::encryptBlock(it->second.pt, golden_[t]))
          ++wrong_outputs_;
      }
      admitted_.erase(it);
    }
  }
  return ok;
}

ServiceCampaignPhase ServiceCampaign::record(std::string phase,
                                             std::uint64_t ok,
                                             std::uint64_t cycles) const {
  ServiceCampaignPhase p;
  p.phase = std::move(phase);
  p.ok = ok;
  p.cycles = cycles;
  p.min_tenant_ok = p.max_tenant_ok = svc_.completedOf(0);
  for (unsigned t = 0; t < kServiceTenants; ++t) {
    p.min_tenant_ok = std::min(p.min_tenant_ok, svc_.completedOf(t));
    p.max_tenant_ok = std::max(p.max_tenant_ok, svc_.completedOf(t));
  }
  p.health = svc_.health();
  p.service = svc_.stats();
  p.conservation = cons_;
  p.conservation.still_queued = svc_.totalQueued();
  p.wrong_outputs = wrong_outputs_;
  p.duplicate_resolutions = duplicates_;
  p.unknown_tickets = unknown_;
  p.unresolved = admitted_.size();
  return p;
}

ServiceCampaignReport runServiceCampaign() {
  ServiceCampaign c;
  accel::AesAccelerator& acc = c.device();
  const AccelService& svc = c.service();
  ServiceCampaignReport out;
  // Rounds until `done` or `guard` rounds, then `extra` more; the phase's
  // record.
  auto phase = [&](const char* name, auto done, unsigned guard,
                   unsigned extra) {
    const std::uint64_t c0 = acc.cycle();
    std::uint64_t ok = 0;
    for (unsigned g = 0; !done() && g < guard; ++g) ok += c.round();
    for (unsigned r = 0; r < extra; ++r) ok += c.round();
    return c.record(name, ok, acc.cycle() - c0);
  };

  out.phases[0] = phase("healthy", [] { return false; }, 400, 0);

  FaultCampaignConfig storm_cfg;
  storm_cfg.seed = 777;
  storm_cfg.fault_rate = 0.10;
  storm_cfg.stuck_cycles = 1500;
  FaultInjector storm{acc, storm_cfg, c.users()};
  acc.setTickHook([&] { storm.tick(); });
  out.phases[1] = phase(
      "storm", [&] { return svc.health() == HealthState::Quarantined; }, 3000,
      0);

  acc.setTickHook(nullptr);
  storm.releaseStuckReceivers();
  out.phases[2] = phase(
      "recovery", [&] { return svc.health() == HealthState::Healthy; }, 4000,
      200);

  out.transitions = svc.monitor().transitions();
  out.health_events = acc.eventCount(accel::SecurityEventKind::ServiceHealth);
  out.probation_entries = svc.monitor().entries(HealthState::Probation);
  return out;
}

}  // namespace aesifc::soc
