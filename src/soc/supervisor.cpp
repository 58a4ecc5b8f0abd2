#include "soc/supervisor.h"

namespace aesifc::soc {

PoolSupervisor::PoolSupervisor(EnginePool& pool, SupervisorConfig cfg)
    : pool_{pool}, cfg_{cfg} {
  last_backpressure_ = pool_.aggregateStats().rejected_backpressure;
}

bool PoolSupervisor::shardSick(unsigned shard) {
  if (pool_.shardRetired(shard)) return false;
  // A Degraded shard still serves (with tightened options): not sick.
  return pool_.shardService(shard).health() == HealthState::Quarantined;
}

SupervisorReport PoolSupervisor::poll() {
  SupervisorReport rep;
  ++stats_.polls;

  // --- Evacuation: move tenants off sick shards onto healthy ones. -------
  // Sick shards are excluded as targets; migrateTenant itself enforces
  // capacity (TargetFull) and re-provisions under the tenant's own label.
  std::vector<unsigned> sick;
  for (unsigned s = 0; s < pool_.shards(); ++s) {
    if (shardSick(s)) sick.push_back(s);
  }
  for (unsigned s : sick) {
    for (unsigned t : pool_.tenantsOnShard(s)) {
      const auto target = pool_.pickTargetShard(t, sick);
      if (!target.has_value()) {
        ++rep.evacuation_failures;
        continue;
      }
      if (pool_.migrateTenant(t, *target).moved) {
        ++rep.evacuated;
      } else {
        ++rep.evacuation_failures;
      }
    }
  }
  stats_.evacuated_tenants += rep.evacuated;
  stats_.evacuation_failures += rep.evacuation_failures;

  // --- Elastic hot-add under sustained pressure. --------------------------
  // One growing-backpressure poll is noise; `pressure_streak` in a row is a
  // capacity problem. The cooldown keeps a fault storm (which also rejects
  // traffic) from adding a shard every streak-length interval.
  const std::uint64_t bp = pool_.aggregateStats().rejected_backpressure;
  if (bp > last_backpressure_) {
    ++streak_;
  } else {
    streak_ = 0;
  }
  last_backpressure_ = bp;
  if (cooldown_ > 0) --cooldown_;

  if (streak_ >= cfg_.pressure_streak && cooldown_ == 0 &&
      pool_.activeShards() < cfg_.max_shards) {
    rep.added_shard = pool_.addShard();
    rep.shard_added = true;
    ++stats_.shards_added;
    streak_ = 0;
    cooldown_ = cfg_.cooldown_polls;
  }
  return rep;
}

}  // namespace aesifc::soc
