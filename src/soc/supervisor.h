#pragma once
// Pool-level self-healing policy loop. The per-shard HealthMonitor decides
// whether one device is trustworthy; the PoolSupervisor decides what the
// POOL does about it:
//
//  * Quarantined shard -> evacuate. Every tenant homed on a quarantined
//    shard is migrated (EnginePool::migrateTenant — the full audited
//    load-before-zeroize handshake) to a healthy shard with a free key
//    slot, chosen by rendezvous weight so evacuation placement stays
//    data-independent. Evacuation is idempotent: a shard with no active
//    tenants left costs the poll nothing, so no hysteresis is needed.
//
//  * Sustained spill pressure -> hot-add. When the pool's aggregate
//    rejected_backpressure counter grows for `pressure_streak` consecutive
//    polls, the supervisor spins up a fresh shard (EnginePool::addShard) —
//    then holds off for `cooldown_polls` polls so a fault storm that keeps
//    rejecting traffic cannot thrash the pool with shard churn.
//
// The supervisor never touches key material itself; it only sequences the
// pool's audited operations. Label constraints hold by construction:
// migrateTenant re-provisions through the same tagged scratchpad path and
// principal labels as the original placement.

#include <cstdint>

#include "soc/pool.h"

namespace aesifc::soc {

struct SupervisorConfig {
  // Consecutive polls with growing backpressure rejections before a
  // hot-add fires.
  unsigned pressure_streak = 3;
  // Polls to wait after a hot-add before another may fire (hysteresis).
  unsigned cooldown_polls = 8;
  // Hard ceiling on pool size; hot-add never exceeds it.
  unsigned max_shards = 8;
};

// What one poll() did — so callers (and the fault campaign) can narrate.
struct SupervisorReport {
  unsigned evacuated = 0;            // tenants moved off sick shards
  unsigned evacuation_failures = 0;  // migrations attempted but refused
  bool shard_added = false;
  unsigned added_shard = 0;  // valid when shard_added
};

struct SupervisorStats {
  std::uint64_t polls = 0;
  std::uint64_t evacuated_tenants = 0;
  std::uint64_t evacuation_failures = 0;
  std::uint64_t shards_added = 0;
};

class PoolSupervisor {
 public:
  PoolSupervisor(EnginePool& pool, SupervisorConfig cfg);

  // One policy pass: evacuate quarantined shards, then evaluate hot-add
  // pressure. Deterministic — no clocks, no randomness; drive it from the
  // same loop that pumps the pool.
  SupervisorReport poll();

  const SupervisorStats& stats() const { return stats_; }

 private:
  bool shardSick(unsigned shard);

  EnginePool& pool_;
  SupervisorConfig cfg_;
  SupervisorStats stats_;
  std::uint64_t last_backpressure_ = 0;
  unsigned streak_ = 0;
  unsigned cooldown_ = 0;
};

}  // namespace aesifc::soc
