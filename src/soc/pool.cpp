#include "soc/pool.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace aesifc::soc {

namespace {

using accel::SecurityEventKind;

// Load-aware spill: a tenant leaves its rendezvous-home shard only when the
// home already holds more than kSpillFactor x the lightest shard's tenants
// (counting the newcomer). 2.0 keeps placement sticky under balanced load
// but stops pathological hash clumping.
constexpr double kSpillFactor = 2.0;
// Device-cycle budget for the drain / slot-quiesce barriers inside
// migrateTenant and retireShard.
constexpr std::uint64_t kMigrateDrainCycles = 1u << 16;

// FNV-1a 64: placement depends only on the tenant's public name — never on
// key material or traffic — so shard co-residency is data-independent.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// Rendezvous (highest-random-weight) score of a (tenant, shard) pair:
// splitmix64 finalizer over the name hash combined with the shard's stable
// id (its index — shards are append-only; retired ones keep their slot in
// the vector so ids never shift).
std::uint64_t hrwWeight(std::uint64_t name_hash, unsigned shard) {
  std::uint64_t z = name_hash ^ (0x9e3779b97f4a7c15ull * (shard + 1));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

std::string toString(MigrateError e) {
  switch (e) {
    case MigrateError::None: return "none";
    case MigrateError::UnknownTenant: return "unknown-tenant";
    case MigrateError::SameShard: return "same-shard";
    case MigrateError::TargetRetired: return "target-retired";
    case MigrateError::TargetFull: return "target-full";
    case MigrateError::DrainTimeout: return "drain-timeout";
    case MigrateError::ProvisionRefused: return "provision-refused";
    case MigrateError::QuiesceTimeout: return "quiesce-timeout";
  }
  return "?";
}

EnginePool::EnginePool(PoolConfig cfg) : cfg_{std::move(cfg)} {
  if (cfg_.shards == 0) throw std::runtime_error("EnginePool: zero shards");
  shards_.reserve(cfg_.shards);
  for (unsigned s = 0; s < cfg_.shards; ++s) makeShard();
}

unsigned EnginePool::makeShard() {
  Shard sh;
  sh.engine = std::make_unique<accel::AesAccelerator>(cfg_.engine);
  sh.engine->addUser(lattice::Principal::supervisor());  // user 0
  sh.service = std::make_unique<AccelService>(*sh.engine, cfg_.service);
  shards_.push_back(std::move(sh));
  return static_cast<unsigned>(shards_.size() - 1);
}

unsigned EnginePool::addShard() {
  const unsigned id = makeShard();
  ++pool_stats_.shards_added;
  shards_[id].engine->noteServiceEvent(0, "shard hot-added to pool");
  return id;
}

unsigned EnginePool::activeShards() const {
  unsigned n = 0;
  for (const auto& sh : shards_) {
    if (!sh.retired) ++n;
  }
  return n;
}

unsigned EnginePool::placementOf(const std::string& name) const {
  const std::uint64_t h = fnv1a(name);
  unsigned best = 0;
  std::uint64_t best_w = 0;
  bool have = false;
  for (unsigned s = 0; s < shards_.size(); ++s) {
    if (shards_[s].retired) continue;
    const std::uint64_t w = hrwWeight(h, s);
    if (!have || w > best_w) {
      best = s;
      best_w = w;
      have = true;
    }
  }
  return best;
}

std::optional<unsigned> EnginePool::chooseShard(
    const std::string& name, const std::vector<unsigned>& exclude,
    bool apply_spill) const {
  const std::uint64_t h = fnv1a(name);
  auto excluded = [&](unsigned s) {
    return std::find(exclude.begin(), exclude.end(), s) != exclude.end();
  };
  // Candidates in descending rendezvous weight: the walk preserves HRW's
  // minimal-disruption property — a tenant only leaves its top-weight home
  // when that home is full (or crowded past the spill bound).
  std::vector<unsigned> order;
  for (unsigned s = 0; s < shards_.size(); ++s) {
    if (!shards_[s].retired && !excluded(s)) order.push_back(s);
  }
  if (order.empty()) return std::nullopt;
  std::sort(order.begin(), order.end(), [&](unsigned a, unsigned b) {
    return hrwWeight(h, a) > hrwWeight(h, b);
  });

  unsigned lightest = order[0];
  for (unsigned s : order) {
    if (shards_[s].tenants < shards_[lightest].tenants) lightest = s;
  }
  // Power-of-two-choices over the rendezvous order: the tenant's TWO
  // top-weight shards are its stable candidate set, and it takes the less
  // loaded of them (ties keep the higher weight). A pure top-1 pick clumps
  // tenants with birthday probability and idles shards; two choices keep
  // the load near-uniform while the candidate set — and therefore remap
  // stability under hot-add — stays a function of the name alone.
  unsigned home = order[0];
  if (order.size() > 1 &&
      shards_[order[1]].tenants < shards_[home].tenants &&
      hasFreeSlot(order[1])) {
    home = order[1];
  }
  // Spill when the home (counting the newcomer) would REACH kSpillFactor
  // times the lightest (also counting a newcomer) — sticky by default, but
  // at factor 2.0 a second co-resident spills to an empty shard rather
  // than clump while capacity idles.
  if (apply_spill) {
    const double home_load = static_cast<double>(shards_[home].tenants + 1);
    const double light_load =
        static_cast<double>(shards_[lightest].tenants + 1);
    if (home_load >= kSpillFactor * light_load &&
        shards_[lightest].tenants < shards_[home].tenants &&
        hasFreeSlot(lightest)) {
      return lightest;
    }
  }
  if (hasFreeSlot(home)) return home;
  for (unsigned s : order) {
    if (hasFreeSlot(s)) return s;
  }
  return std::nullopt;
}

PlaceResult EnginePool::addTenant(const PoolTenantSpec& spec) {
  const auto shard = chooseShard(spec.name, {}, /*apply_spill=*/true);
  if (!shard.has_value()) return {false, 0, PlaceError::PoolFull};
  Shard& sh = shards_[*shard];

  TenantSpec t;
  t.user = sh.engine->addUser(lattice::Principal::user(spec.name, spec.category));
  t.key_slot = *sh.service->keys().freeSlot();
  t.key = spec.key;
  t.key_conf = lattice::Conf::category(spec.category);
  t.queue_depth = spec.queue_depth;

  const auto local_id = sh.service->tryAddTenant(t);
  if (!local_id.has_value()) return {false, 0, PlaceError::ProvisionRefused};
  ++sh.tenants;
  recs_.push_back(TenantRec{spec, Route{*shard, *local_id}, {}});
  return {true, static_cast<unsigned>(recs_.size() - 1), PlaceError::None};
}

std::optional<unsigned> EnginePool::pickTargetShard(
    unsigned tenant, const std::vector<unsigned>& exclude) const {
  const TenantRec& rec = recs_.at(tenant);
  std::vector<unsigned> ex = exclude;
  ex.push_back(rec.route.shard);
  return chooseShard(rec.spec.name, ex, /*apply_spill=*/false);
}

void EnginePool::noteBothRings(SecurityEventKind kind, unsigned src_shard,
                               unsigned dst_shard, unsigned user,
                               const std::string& detail) {
  shards_[src_shard].engine->noteHostEvent(kind, user, detail);
  shards_[dst_shard].engine->noteHostEvent(kind, 0, detail);
}

MigrateResult EnginePool::migrateTenant(unsigned tenant, unsigned dst_shard) {
  auto fail = [this](MigrateError e) {
    ++pool_stats_.migration_failures;
    return MigrateResult{false, e};
  };
  if (tenant >= recs_.size() || dst_shard >= shards_.size())
    return fail(MigrateError::UnknownTenant);
  TenantRec& rec = recs_[tenant];
  const unsigned src_shard = rec.route.shard;
  if (dst_shard == src_shard) return fail(MigrateError::SameShard);
  Shard& src = shards_[src_shard];
  Shard& dst = shards_[dst_shard];
  if (dst.retired) return fail(MigrateError::TargetRetired);
  const auto dst_slot = dst.service->keys().freeSlot();
  if (!dst_slot) return fail(MigrateError::TargetFull);

  const TenantSpec src_spec = src.service->tenantSpec(rec.route.local);
  std::ostringstream what;
  what << "tenant '" << rec.spec.name << "' shard " << src_shard << " -> "
       << dst_shard << " (slot " << src_spec.key_slot << " -> " << *dst_slot
       << ")";
  noteBothRings(SecurityEventKind::MigrationBegun, src_shard, dst_shard,
                src_spec.user, what.str());

  // 1. Complete still-queued work at the source under the still-valid key,
  //    so no request ever spans the handover.
  if (!src.service->drainTenant(rec.route.local, kMigrateDrainCycles)) {
    return fail(MigrateError::DrainTimeout);
  }

  // 2. Load at the TARGET first — through the same tagged scratchpad path
  //    and under the same principal/category label as the original
  //    provisioning, so the key travels at (ck = category conf, owner =
  //    the tenant's own label) and never below it.
  TenantSpec t2 = src_spec;
  t2.user = dst.engine->addUser(
      lattice::Principal::user(rec.spec.name, rec.spec.category));
  t2.key_slot = *dst_slot;
  const auto dst_local = dst.service->tryAddTenant(t2);
  if (!dst_local.has_value()) return fail(MigrateError::ProvisionRefused);

  // 3. Slot-quiesce barrier: no in-flight pipeline block may still
  //    reference the source slot.
  if (!src.service->keys().quiesce(src_spec.user, kMigrateDrainCycles)) {
    // Roll the target back — retire the orphan provisioning and zeroize
    // its slot and staging cells, so exactly one live copy of the key
    // remains (the source).
    dst.service->deactivateTenant(*dst_local);
    dst.service->keys().closeSession(t2.user, kMigrateDrainCycles);
    return fail(MigrateError::QuiesceTimeout);
  }

  // 4. Retire the source-side tenant so nothing can be queued or served
  //    under the dead slot, then zeroize its slot and staging cells.
  src.service->deactivateTenant(rec.route.local);
  src.service->keys().closeSession(src_spec.user, kMigrateDrainCycles);
  noteBothRings(SecurityEventKind::MigrationKeyZeroized, src_shard, dst_shard,
                src_spec.user, what.str());

  // 5. Commit the route. Completions already delivered at the source stay
  //    fetchable through the history chain.
  --src.tenants;
  rec.history.push_back(rec.route);
  rec.route = Route{dst_shard, *dst_local};
  ++dst.tenants;
  ++pool_stats_.migrations;
  noteBothRings(SecurityEventKind::MigrationCommitted, src_shard, dst_shard,
                t2.user, what.str());
  return {true, MigrateError::None};
}

bool EnginePool::retireShard(unsigned shard) {
  if (shard >= shards_.size() || shards_[shard].retired) return false;
  // Pre-check capacity: every tenant here must fit somewhere else.
  std::size_t free_elsewhere = 0;
  for (unsigned s = 0; s < shards_.size(); ++s) {
    if (s == shard || shards_[s].retired) continue;
    free_elsewhere += (accel::kRoundKeySlots - 1) - shards_[s].tenants;
  }
  const auto evacuees = tenantsOnShard(shard);
  if (evacuees.size() > free_elsewhere) return false;

  for (unsigned t : evacuees) {
    const auto target = pickTargetShard(t, {shard});
    if (!target.has_value()) return false;
    if (!migrateTenant(t, *target).moved) return false;
  }

  Shard& sh = shards_[shard];
  // Drain whatever the shard still owes (evacuation already drained each
  // tenant; this covers stragglers like canary traffic).
  sh.service->runUntilIdle(kMigrateDrainCycles);
  // Zeroize every key still installed, the supervisor's included.
  sh.service->keys().zeroizeAll(kMigrateDrainCycles);
  sh.retired = true;
  ++pool_stats_.shards_retired;
  sh.engine->noteServiceEvent(0, "shard retired: tenants evacuated, key "
                                 "slots zeroized, out of placement set");
  return true;
}

std::vector<unsigned> EnginePool::tenantsOnShard(unsigned shard) const {
  std::vector<unsigned> out;
  for (unsigned t = 0; t < recs_.size(); ++t) {
    if (recs_[t].route.shard == shard &&
        shards_[shard].service->tenantActive(recs_[t].route.local)) {
      out.push_back(t);
    }
  }
  return out;
}

SubmitResult EnginePool::submit(unsigned tenant, const aes::Block& data,
                                bool decrypt) {
  const Route& r = recs_.at(tenant).route;
  return shards_[r.shard].service->submit(r.local, data, decrypt);
}

std::optional<Completion> EnginePool::fetch(unsigned tenant) {
  TenantRec& rec = recs_.at(tenant);
  // Pre-migration completions first: they are strictly older than anything
  // the current shard can hold (the source was drained before handover).
  for (const Route& h : rec.history) {
    if (auto c = shards_[h.shard].service->fetch(h.local)) return c;
  }
  return shards_[rec.route.shard].service->fetch(rec.route.local);
}

SubmitResult EnginePool::submitSeal(unsigned tenant,
                                    const std::vector<std::uint8_t>& plaintext,
                                    const std::vector<std::uint8_t>& aad,
                                    const std::vector<std::uint8_t>& iv) {
  const Route& r = recs_.at(tenant).route;
  return shards_[r.shard].service->submitSeal(r.local, plaintext, aad, iv);
}

SubmitResult EnginePool::submitOpen(unsigned tenant,
                                    const std::vector<std::uint8_t>& ciphertext,
                                    const std::vector<std::uint8_t>& aad,
                                    const aes::Tag128& tag,
                                    const std::vector<std::uint8_t>& iv) {
  const Route& r = recs_.at(tenant).route;
  return shards_[r.shard].service->submitOpen(r.local, ciphertext, aad, tag,
                                              iv);
}

std::optional<AeadCompletion> EnginePool::fetchAead(unsigned tenant) {
  TenantRec& rec = recs_.at(tenant);
  for (const Route& h : rec.history) {
    if (auto c = shards_[h.shard].service->fetchAead(h.local)) return c;
  }
  return shards_[rec.route.shard].service->fetchAead(rec.route.local);
}

unsigned EnginePool::pump() {
  unsigned resolved = 0;
  for (auto& sh : shards_) {
    if (!sh.retired) resolved += sh.service->pump();
  }
  return resolved;
}

void EnginePool::runUntilIdle(std::uint64_t max_device_cycles_per_shard) {
  if (cfg_.parallel_drain && activeShards() > 1) {
    std::vector<std::thread> workers;
    workers.reserve(shards_.size());
    for (auto& sh : shards_) {
      if (sh.retired) continue;
      // Each worker touches exactly one shard and shards share nothing, so
      // this is a data-race-free, deterministic fan-out.
      workers.emplace_back([&sh, max_device_cycles_per_shard] {
        sh.service->runUntilIdle(max_device_cycles_per_shard);
      });
    }
    for (auto& w : workers) w.join();
  } else {
    for (auto& sh : shards_) {
      if (!sh.retired) sh.service->runUntilIdle(max_device_cycles_per_shard);
    }
  }
}

std::size_t EnginePool::totalQueued() const {
  std::size_t n = 0;
  for (const auto& sh : shards_) n += sh.service->totalQueued();
  return n;
}

std::uint64_t EnginePool::maxShardCycle() const {
  std::uint64_t m = 0;
  for (const auto& sh : shards_) m = std::max(m, sh.engine->cycle());
  return m;
}

ServiceStats EnginePool::aggregateStats() const {
  ServiceStats total;
  for (const auto& sh : shards_) total += sh.service->stats();
  return total;
}

}  // namespace aesifc::soc
