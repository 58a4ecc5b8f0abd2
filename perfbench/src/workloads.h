#pragma once
// The three serving workloads and the episode that runs one of them on a
// fresh soc::EnginePool: set-up (timed on its own), the timed traffic
// phase, then the output check and the conservation identity (both
// outside the timed phase).

#include <cstdint>
#include <string>
#include <vector>

#include "bench_core.h"
#include "soc/pool.h"

namespace perfbench {

class LayerProbe;

enum class Loop {
  ClosedBlocks,  // waves: top every queue up, drain to idle, fetch
  OpenBlocks,    // Poisson bursts due at device cycles, serial pump()
  ClosedAead,    // waves of GCM seal/open operations
};

struct WorkloadSpec {
  std::string name;
  Loop loop = Loop::ClosedBlocks;
  aesifc::soc::PoolConfig pool;
  unsigned tenants = 0;
  std::size_t queue_depth = 64;
  // ClosedBlocks: blocks each tenant sends per episode; tenants with an
  // odd index decrypt.
  unsigned blocks_per_tenant = 0;
  // OpenBlocks.
  OpenLoopParams open;
  // ClosedAead: operations per tenant, seal or open by coin flip.
  unsigned aead_ops_per_tenant = 0;
  // Episodes per round; episode k of every round uses stream k of the seed.
  unsigned episodes_per_round = 4;
};

// "bulk_ecb", "mixed_open" or "aead_mix"; throws std::invalid_argument
// for anything else.
WorkloadSpec workloadByName(const std::string& name);
std::vector<std::string> workloadNames();

struct EpisodeResult {
  double setup_s = 0.0;
  double timed_s = 0.0;      // traffic only: no set-up, no checking
  double timed_cpu_s = 0.0;  // process CPU seconds of the same phase
  double check_s = 0.0;
  std::uint64_t ops = 0;        // distinct operations offered
  std::uint64_t ok_ops = 0;
  std::uint64_t ok_blocks = 0;  // blocks of Ok ops (AEAD: payload blocks)
  std::vector<std::uint64_t> shard_cycles;  // device cycles of the timed phase
  std::vector<std::uint64_t> latency;       // device cycles per Ok op
  std::vector<std::uint64_t> lateness;      // open loop: submit - due
  std::uint64_t wrong_outputs = 0;
  Accounting acct;
  aesifc::soc::ServiceStats stats;

  std::uint64_t slowestShardCycles() const;
};

// One episode of `w` with inputs drawn from `seed`. `probe` (optional)
// records the traced run's spans and tick-hook counters.
EpisodeResult runEpisode(const WorkloadSpec& w, std::uint64_t seed,
                         LayerProbe* probe = nullptr);

}  // namespace perfbench
