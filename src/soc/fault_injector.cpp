#include "soc/fault_injector.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "aes/cipher.h"
#include "aes/gcm.h"
#include "soc/supervisor.h"

namespace aesifc::soc {

using accel::FaultSite;

namespace {

// Appends "<what>\n" to `out` unless `holds`.
void require(std::string& out, bool holds, const std::string& what) {
  if (!holds) out += what + "\n";
}

// The oracle's part of a violations() list.
void requireClean(std::string& out, const OracleCounts& o) {
  require(out, o == OracleCounts{}, "oracle " + o.toJson());
}

// Campaign user u (id `id`) loads `key` into slot u + 1 from cells 2u.
bool loadUserKey(accel::AesAccelerator& acc, unsigned id, unsigned u,
                 const std::vector<std::uint8_t>& key) {
  return accel::loadKey128(acc, id, u + 1, 2 * u, key,
                           lattice::Conf::category(u + 1));
}

// Campaign users u0..u<n-1> (category u + 1), each with a key drawn from
// `rng`, loaded and given to `oracle`; appends the ids, returns the keys.
std::vector<std::vector<std::uint8_t>> addKeyedUsers(
    accel::AesAccelerator& acc, unsigned n, Rng& rng,
    std::vector<unsigned>& ids, Oracle& oracle) {
  std::vector<std::vector<std::uint8_t>> keys(n, std::vector<std::uint8_t>(16));
  for (unsigned u = 0; u < n; ++u) {
    ids.push_back(acc.addUser(lattice::Principal::user(
        std::string("u").append(std::to_string(u)), u + 1)));
    for (auto& b : keys[u]) b = static_cast<std::uint8_t>(rng.next());
    if (!loadUserKey(acc, ids.back(), u, keys[u]))
      throw std::runtime_error("campaign: key load refused");
    oracle.addTenant(keys[u]);
  }
  return keys;
}

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
  std::vector<unsigned> users;
  Oracle oracle;
  const auto keys = addKeyedUsers(acc, kTenants, rng, users, oracle);
  auto loadKey = [&](unsigned u) {
    return loadUserKey(acc, users[u], u, keys[u]);
  };

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
  std::uint64_t ticket = 0;  // each op is admitted and resolved in one call
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
      oracle.offer(u, true, ++ticket, in, decrypt);
      const auto r = decrypt ? sessions[u].decryptBlock(in)
                             : sessions[u].encryptBlock(in);
      oracle.check(u, ticket, terminalStatus(r.status()),
                   r.has_value() ? *r : aes::Block{});
      if (r.has_value()) {
        ++out.ok;
      } else if (r.status() == accel::AccelStatus::Rejected) {
        needs_reload[u] = true;
      }
      if (round % 4 != 3 || needs_reload[u]) continue;
      std::vector<std::uint8_t> msg(40), aad(8), iv(12);
      for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next());
      for (auto& b : aad) b = static_cast<std::uint8_t>(rng.next());
      for (auto& b : iv) b = static_cast<std::uint8_t>(rng.next());
      ++out.gcm_ops;
      oracle.offerSeal(u, true, ++ticket, msg, aad, iv);
      const auto sealed = sessions[u].gcmSeal(msg, aad, iv);
      if (sealed.has_value()) {
        ++out.gcm_ok;
        oracle.check(u, ticket, CompletionStatus::Ok, sealed->ciphertext,
                     sealed->tag);
      } else {
        oracle.check(u, ticket, terminalStatus(sealed.status()), {});
        if (sealed.status() == accel::AccelStatus::Rejected)
          needs_reload[u] = true;
      }
    }
  }
  out.device_cycles = acc.cycle() - t0;
  out.wrong_block_releases = oracle.counts().wrong_outputs;
  out.wrong_tag_releases = oracle.counts().wrong_tags;

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

std::string DeviceCampaignReport::violations() const {
  std::string out;
  require(out, wrong_block_releases == 0 && wrong_tag_releases == 0,
          "wrong releases: " + std::to_string(wrong_block_releases) +
              " blocks, " + std::to_string(wrong_tag_releases) + " tags");
  require(out, ops + gcm_ops == telemetry.operations(),
          "offered ops " + std::to_string(ops + gcm_ops) + " != verdicts " +
              std::to_string(telemetry.operations()));
  require(out, ok > 0, "no successful traffic");
  for (const FaultSite site : {FaultSite::StageTag, FaultSite::ScratchTag}) {
    const auto escaped = campaign.escaped(static_cast<unsigned>(site));
    require(out, escaped == 0,
            std::to_string(escaped) + " " + accel::toString(site) +
                " upsets escaped the scrub ring");
  }
  require(out, campaign.detected == fault_events,
          "detected " + std::to_string(campaign.detected) +
              " != fault events " + std::to_string(fault_events));
  require(out, events_logged <= kCampaignEventLogCap,
          "event ring over its cap: " + std::to_string(events_logged));
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
    oracle_.addTenant(spec.key);
  }
}

std::uint64_t ServiceCampaign::round() {
  for (unsigned t = 0; t < kServiceTenants; ++t) {
    if (svc_.queued(t) >= 5) continue;
    aes::Block pt;
    const auto bits = traffic_.bits(128).toBytes();
    for (unsigned i = 0; i < 16; ++i) pt[i] = bits[i];
    const SubmitResult res = svc_.submit(t, pt);
    oracle_.offer(t, res.admitted, res.ticket, pt);
  }
  svc_.pump();
  std::uint64_t ok = 0;
  for (unsigned t = 0; t < kServiceTenants; ++t) {
    while (const auto c = svc_.fetch(t)) {
      oracle_.check(t, *c);
      if (c->status == CompletionStatus::Ok) ++ok;
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
  p.conservation = oracle_.conservation(svc_.totalQueued());
  const OracleCounts o = oracle_.counts();
  p.wrong_outputs = o.wrong_outputs;
  p.duplicate_resolutions = o.duplicate_resolutions;
  p.unknown_tickets = o.unknown_tickets;
  p.out_of_order = o.out_of_order;
  p.unresolved = o.unresolved;
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

std::string ChaosReport::violations() const {
  std::string out;
  requireClean(out, oracle);
  require(out, conservation.ok == blocks,
          std::to_string(conservation.ok) + " of " + std::to_string(blocks) +
              " blocks came back Ok: " + conservation.toJson());
  require(out, dropped == 0, std::to_string(dropped) + " blocks dropped");
  return out;
}

ChaosReport runChaosCampaign(accel::SecurityMode mode, std::uint64_t seed,
                             unsigned users, unsigned per_user) {
  accel::AcceleratorConfig cfg;
  cfg.mode = mode;
  cfg.out_buffer_depth = 512;
  accel::AesAccelerator acc{cfg};
  acc.addUser(lattice::Principal::supervisor());

  std::vector<unsigned> ids;
  Oracle oracle;
  Rng rng{seed};
  addKeyedUsers(acc, users, rng, ids, oracle);

  std::vector<unsigned> submitted(users, 0);
  std::uint64_t next_id = 1;
  const auto drain = [&] {
    for (unsigned u = 0; u < users; ++u) {
      while (const auto out = acc.fetchOutput(ids[u]))
        oracle.check(u, out->req_id, terminalStatus(out->status), out->data);
    }
  };
  const auto done = [&] {
    for (unsigned u = 0; u < users; ++u)
      if (submitted[u] < per_user || oracle.outstanding(u) > 0) return false;
    return true;
  };

  for (unsigned guard = 0; !done() && guard < 1000 * per_user; ++guard) {
    for (unsigned u = 0; u < users; ++u) {
      if (rng.chance(0.1)) acc.setReceiverReady(ids[u], rng.chance(0.6));
    }
    for (unsigned u = 0; u < users; ++u) {
      if (submitted[u] >= per_user) continue;
      if (acc.pendingInputs(ids[u]) >= 2 || !rng.chance(0.7)) continue;
      accel::BlockRequest req;
      req.req_id = next_id++;
      req.user = ids[u];
      req.key_slot = u + 1;
      req.decrypt = rng.chance(0.4);
      for (auto& b : req.data) b = static_cast<std::uint8_t>(rng.next());
      const bool admitted = acc.submit(req);
      oracle.offer(u, admitted, req.req_id, req.data, req.decrypt);
      if (admitted) ++submitted[u];
    }
    acc.tick();
    drain();
  }
  // Let everything flush with receivers open.
  for (unsigned u = 0; u < users; ++u) acc.setReceiverReady(ids[u], true);
  for (unsigned i = 0; i < 4000 && !done(); ++i) {
    acc.tick();
    drain();
  }

  ChaosReport r;
  r.oracle = oracle.counts();
  r.conservation = oracle.conservation();
  r.blocks = std::uint64_t{users} * per_user;
  r.dropped = acc.stats().dropped;
  return r;
}

std::string MigrationStormReport::violations() const {
  std::string out;
  requireClean(out, oracle);
  require(out, wrong_key_uses == 0,
          std::to_string(wrong_key_uses) + " wrong-key uses");
  require(out, unpaired_shards == 0,
          std::to_string(unpaired_shards) +
              " shards with an unclosed MigrationBegun");
  require(out,
          committed_events == 2 * migrations &&
              zeroized_events == 2 * migrations,
          std::to_string(migrations) + " migrations stamped " +
              std::to_string(committed_events) + " Committed and " +
              std::to_string(zeroized_events) + " KeyZeroized events");
  return out;
}

MigrationStormReport runMigrationStorm(std::uint64_t seed, unsigned rounds) {
  constexpr unsigned kTenants = 8;
  // Tenant traffic is blockOf(one random byte).
  const auto blockOf = [](std::uint8_t b0) {
    aes::Block b;
    for (unsigned i = 0; i < 16; ++i)
      b[i] = static_cast<std::uint8_t>(b0 + 3 * i);
    return b;
  };
  PoolConfig cfg;
  cfg.shards = 3;
  cfg.service.batch_size = 4;
  cfg.service.quota_per_round = 16;
  cfg.service.global_high_watermark = 4096;
  cfg.service.health.quarantine_residency_cycles = 512;
  EnginePool pool{cfg};

  std::vector<unsigned> ids;
  Oracle oracle;
  for (unsigned t = 0; t < kTenants; ++t) {
    PoolTenantSpec spec;
    spec.name = "tenant-" + std::to_string(t);
    spec.category = (t % 14) + 1;
    spec.key.resize(16);
    for (unsigned i = 0; i < 16; ++i)
      spec.key[i] = static_cast<std::uint8_t>(0x40 + 13 * t + i);
    spec.queue_depth = 64;
    const auto placed = pool.addTenant(spec);
    if (!placed.placed)
      throw std::runtime_error("runMigrationStorm: tenant not placed");
    ids.push_back(placed.tenant);
    oracle.addTenant(spec.key);
  }

  SupervisorConfig scfg;
  scfg.max_shards = 5;
  PoolSupervisor sup{pool, scfg};
  Rng rng{0x50a4c0deull * seed};
  const auto drainFetches = [&] {
    for (unsigned t = 0; t < kTenants; ++t) {
      while (const auto c = pool.fetch(ids[t])) oracle.check(t, *c);
    }
  };

  for (unsigned round = 0; round < rounds; ++round) {
    for (unsigned i = 0; i < 12; ++i) {
      for (unsigned t = 0; t < kTenants; ++t) {
        const aes::Block pt = blockOf(static_cast<std::uint8_t>(rng.next()));
        const SubmitResult res = pool.submit(ids[t], pt);
        oracle.offer(t, res.admitted, res.ticket, pt);
      }
    }

    const std::uint64_t dice = rng.next() % 8;
    const unsigned shard = static_cast<unsigned>(rng.next() % pool.shards());
    if (dice < 3 && !pool.shardRetired(shard)) {
      (void)pool.shardEngine(shard).injectFault(
          accel::FaultSite::RoundKey, 1 + (rng.next() % 6),
          static_cast<unsigned>(rng.next() % 128));
    } else if (dice < 5 && !pool.shardRetired(shard)) {
      pool.shardService(shard).forceQuarantine("storm seed " +
                                               std::to_string(seed));
    } else if (dice == 5) {
      const unsigned t = static_cast<unsigned>(rng.next() % kTenants);
      if (const auto dst = pool.pickTargetShard(ids[t], {}))
        (void)pool.migrateTenant(ids[t], *dst);
    }

    sup.poll();
    for (unsigned p = 0; p < 4; ++p) pool.pump();
    if (round % 8 == 7) drainFetches();
  }
  pool.runUntilIdle(800000);
  drainFetches();

  MigrationStormReport r;
  r.oracle = oracle.counts();
  r.wrong_key_uses = pool.aggregateStats().wrong_key_uses;
  r.migrations = pool.poolStats().migrations;
  using accel::SecurityEventKind;
  for (unsigned s = 0; s < pool.shards(); ++s) {
    const auto& eng = pool.shardEngine(s);
    const auto begun = eng.eventCount(SecurityEventKind::MigrationBegun);
    if (begun != eng.eventCount(SecurityEventKind::MigrationCommitted) +
                     eng.eventCount(SecurityEventKind::MigrationAborted))
      ++r.unpaired_shards;
    r.committed_events += eng.eventCount(SecurityEventKind::MigrationCommitted);
    r.zeroized_events +=
        eng.eventCount(SecurityEventKind::MigrationKeyZeroized);
  }
  return r;
}

}  // namespace aesifc::soc
