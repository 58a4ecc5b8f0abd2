#pragma once
// Sharded engine pool: N independent accelerator instances behind one
// submission front end, scaling the single-engine AccelService to cloud
// tenant counts without weakening the paper's isolation story.
//
// The sharding axis IS the security argument:
//
//  * Shards share nothing. Each shard owns a private AesAccelerator (its
//    own key scratchpad, round-key RAM, tag arrays, event ring, cycle
//    counter) and a private AccelService (its own queues, health monitor,
//    fallback path). There is no cross-shard state, so a fault, a covert-
//    channel attempt, or a health incident in one shard cannot perturb
//    another shard's results or timing — and draining shards on parallel
//    threads is deterministic because there is nothing to race on.
//
//  * Placement is data-independent. A tenant's shard is the highest-
//    random-weight (rendezvous) hash of its NAME against the active shard
//    set (with a load-aware spill to the lightest shard when the home
//    shard is crowded); neither keys nor traffic contents ever influence
//    placement, so co-residency reveals nothing about secrets. Rendezvous
//    makes placement stable under shard-count change: hot-adding shard
//    N+1 only remaps the tenants whose top weight IS the new shard
//    (expected 1/(N+1) of them) — everyone else keeps their home.
//
//  * Batching stays inside a tenant. The per-shard service drains one
//    tenant's queue back-to-back into the 30-stage pipe (K blocks in
//    ~K + depth cycles instead of K x (depth + 1)); it never merges
//    tenants into one batch and never reorders within a tenant, so
//    completion order — the observable a co-located tenant could time —
//    depends only on the scheduler's fixed round-robin, not on data.
//
// The pool is ELASTIC and SELF-HEALING:
//
//  * addShard() spins up a fresh engine + service pair at runtime;
//    retireShard() evacuates tenants, drains in-flight work, and zeroizes
//    every key slot before taking the shard out of the placement set.
//
//  * migrateTenant() is a first-class audited operation. Ordering is the
//    security argument: (1) still-queued work completes at the source
//    under the old provisioning, (2) the session key is re-provisioned at
//    the TARGET through the same tagged scratchpad path as the original
//    load, (3) the source shard's key ledger quiesces the source slot,
//    waiting out in-flight pipeline blocks, (4) only then is the source-
//    side tenant retired and its slot zeroized. MigrationBegun /
//    KeyZeroized / Committed events land in BOTH shards' rings, and any
//    request that would have executed under a stale or zeroized key is
//    refused and counted in ServiceStats::wrong_key_uses — which must
//    stay 0.
//
// Capacity: each shard hosts up to kRoundKeySlots - 1 tenants (slot 0 is
// left to the shard supervisor by convention). Every key slot is assigned,
// loaded, quiesced and zeroized through the shard service's key ledger
// (AccelService::keys()); the scratchpad cells are a reusable staging area,
// re-tagged (and so scrubbed) per key load.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "accel/accelerator.h"
#include "accel/key_store.h"
#include "soc/service.h"

namespace aesifc::soc {

// One tenant as offered to the pool: the pool picks the shard and the
// hardware resources (user id, key slot, staging cells) itself.
struct PoolTenantSpec {
  std::string name;               // placement key — must be unique
  unsigned category = 1;          // lattice category of the tenant's label
  std::vector<std::uint8_t> key;  // raw AES-128 key bytes
  std::size_t queue_depth = 16;
};

struct PoolConfig {
  unsigned shards = 4;
  // Per-shard templates: every shard gets an identical engine and service
  // configuration (including ServiceConfig::batch_size).
  accel::AcceleratorConfig engine;
  ServiceConfig service;
  // Drain shards on one worker thread each in runUntilIdle(). Safe (and
  // bit-identical to the serial drain) because shards share nothing.
  bool parallel_drain = true;
};

// Why the pool could not place (or move) a tenant. Mirrors SubmitResult's
// typed-verdict style so a gateway can degrade gracefully instead of
// unwinding on an exception.
enum class PlaceError { None, PoolFull, ProvisionRefused };

struct PlaceResult {
  bool placed = false;
  unsigned tenant = 0;  // pool-wide tenant id, valid when placed
  PlaceError error = PlaceError::None;
};

enum class MigrateError {
  None,
  UnknownTenant,
  SameShard,        // no-op request; nothing moved
  TargetRetired,
  TargetFull,       // no free key slot on the destination
  DrainTimeout,     // source queues would not empty within the budget
  ProvisionRefused, // target refused the key load; source left untouched
  QuiesceTimeout,   // in-flight barrier never cleared; target rolled back
};

std::string toString(MigrateError e);

struct MigrateResult {
  bool moved = false;
  MigrateError error = MigrateError::None;
};

// Structural counters of the elastic machinery (per-traffic counters live
// in ServiceStats; wrong_key_uses aggregates from the shard services).
struct PoolStats {
  std::uint64_t migrations = 0;
  std::uint64_t migration_failures = 0;
  std::uint64_t shards_added = 0;
  std::uint64_t shards_retired = 0;
};

class EnginePool {
 public:
  explicit EnginePool(PoolConfig cfg);

  EnginePool(const EnginePool&) = delete;
  EnginePool& operator=(const EnginePool&) = delete;

  // Places the tenant (rendezvous hash + spill), provisions its key on the
  // chosen shard, and returns the pool-wide tenant id used by submit()/
  // fetch(). Refusal is a typed verdict, never an exception: PoolFull when
  // no active shard has a free key slot, ProvisionRefused when the device
  // refused the key load.
  PlaceResult addTenant(const PoolTenantSpec& spec);

  // --- Elasticity ----------------------------------------------------------
  // Spin up a fresh engine + service shard at runtime; it immediately
  // joins the placement set. Returns the new shard id.
  unsigned addShard();

  // Evacuate every tenant (to rendezvous-chosen healthy shards), drain
  // in-flight work, zeroize every remaining key slot through the scrub
  // path, and remove the shard from the placement set. Fails (false)
  // without touching anything when the remaining shards lack capacity.
  bool retireShard(unsigned shard);

  // Move one tenant to dst: complete still-queued work at the source,
  // re-provision the key at the target, wait the slot-quiesce barrier,
  // zeroize at the source, and emit the paired audit events into both
  // rings. On failure the source keeps serving (load-before-zeroize means
  // there is never a keyless window).
  MigrateResult migrateTenant(unsigned tenant, unsigned dst_shard);

  // Rendezvous home of `name` over the active shard set, ignoring load and
  // capacity — the pure placement function (tests pin remap minimality on
  // this).
  unsigned placementOf(const std::string& name) const;

  // Best migration/evacuation target for `tenant`: highest-weight active
  // shard with a free slot, skipping `exclude`. nullopt when none fits.
  std::optional<unsigned> pickTargetShard(
      unsigned tenant, const std::vector<unsigned>& exclude) const;

  // --- Traffic -------------------------------------------------------------
  // Admission-controlled submit to the tenant's shard (tickets are
  // shard-local; pair them with shardOf() when correlating across shards).
  SubmitResult submit(unsigned tenant, const aes::Block& data,
                      bool decrypt = false);

  // Pop the tenant's next completion, oldest first. Completions produced
  // on a previous shard (before a migration) surface first, preserving
  // global per-tenant order across the move.
  std::optional<Completion> fetch(unsigned tenant);

  // AEAD (GCM) submission to the tenant's shard: one whole message per op,
  // admission-controlled like block traffic (see AccelService::submitSeal).
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

  // One scheduling round on every active shard (serial; deterministic).
  // Returns requests resolved across the pool.
  unsigned pump();

  // Drain every active shard until idle, each within its own device-cycle
  // budget. Uses one thread per shard when cfg.parallel_drain (results
  // identical to the serial order — shards share nothing).
  void runUntilIdle(std::uint64_t max_device_cycles_per_shard);

  unsigned shards() const { return static_cast<unsigned>(shards_.size()); }
  unsigned activeShards() const;
  bool shardRetired(unsigned shard) const {
    return shards_.at(shard).retired;
  }
  unsigned tenants() const { return static_cast<unsigned>(recs_.size()); }
  unsigned shardOf(unsigned tenant) const {
    return recs_.at(tenant).route.shard;
  }
  std::vector<unsigned> tenantsOnShard(unsigned shard) const;
  const PoolTenantSpec& tenantSpec(unsigned tenant) const {
    return recs_.at(tenant).spec;
  }
  std::size_t tenantsOn(unsigned shard) const {
    return shards_.at(shard).tenants;
  }
  std::size_t totalQueued() const;
  std::uint64_t maxShardCycle() const;  // wall-clock proxy: slowest shard
  ServiceStats aggregateStats() const;
  const PoolStats& poolStats() const { return pool_stats_; }

  AccelService& shardService(unsigned shard) {
    return *shards_.at(shard).service;
  }
  accel::AesAccelerator& shardEngine(unsigned shard) {
    return *shards_.at(shard).engine;
  }

 private:
  struct Shard {
    // Engine must outlive (and be built before) the service that holds a
    // reference to it; unique_ptr keeps both pinned while the vector grows.
    std::unique_ptr<accel::AesAccelerator> engine;
    std::unique_ptr<AccelService> service;
    std::size_t tenants = 0;  // active tenants currently homed here
    bool retired = false;
  };
  struct Route {
    unsigned shard = 0;
    unsigned local = 0;  // tenant index within the shard's AccelService
  };
  struct TenantRec {
    PoolTenantSpec spec;
    Route route;
    // Previous homes, oldest first: fetch() drains their completion queues
    // before the current shard's so migration never reorders or strands a
    // completion.
    std::vector<Route> history;
  };

  unsigned makeShard();
  std::optional<unsigned> chooseShard(const std::string& name,
                                      const std::vector<unsigned>& exclude,
                                      bool apply_spill) const;
  bool hasFreeSlot(unsigned shard) const {
    return shards_[shard].service->keys().freeSlot().has_value();
  }
  void noteBothRings(accel::SecurityEventKind kind, unsigned src_shard,
                     unsigned dst_shard, unsigned user,
                     const std::string& detail);

  PoolConfig cfg_;
  std::vector<Shard> shards_;
  std::vector<TenantRec> recs_;
  PoolStats pool_stats_;
};

}  // namespace aesifc::soc
