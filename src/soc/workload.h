#pragma once
// Multi-user traffic generation through a shared accelerator (the Fig. 2
// SoC scenario): registers users with per-user labels and keys, streams
// blocks through the pipeline, verifies every result against the golden
// software AES, and reports throughput/latency.

#include <cstdint>
#include <vector>

#include "accel/accelerator.h"
#include "soc/metrics.h"

namespace aesifc::soc {

struct TenantSetup {
  // Registered user ids, in registration order. users[0] is the supervisor.
  std::vector<unsigned> users;
  // Key slot per user (slot 0 = master key owned by the supervisor).
  std::vector<unsigned> key_slots;
  // Raw key bytes per user (for golden-model verification).
  std::vector<std::vector<std::uint8_t>> keys;
};

// Registers a supervisor plus `tenants` users on the accelerator, gives each
// a 128-bit key in its own scratchpad cells and round-key slot, and loads
// the master key into slot 0. Panics (throws) if any legitimate setup step
// is refused.
TenantSetup setupTenants(accel::AesAccelerator& acc, unsigned tenants,
                         std::uint64_t seed = 42);

struct WorkloadConfig {
  unsigned blocks_per_user = 256;
  std::uint64_t seed = 7;
};

struct WorkloadResult {
  std::uint64_t cycles = 0;
  std::uint64_t blocks_completed = 0;
  double blocks_per_cycle = 0.0;
  bool all_correct = true;
  std::uint64_t mismatches = 0;
  LatencyStats latency;
  // Blocks completed per setup index (index 0 is the supervisor and stays
  // 0) — the fairness evidence: under fair arbitration no tenant starves.
  std::vector<std::uint64_t> per_user_completed;
};

// Streams encryption traffic from every tenant through the accelerator,
// checking every output against the golden model, until all blocks
// complete (or 2^20 cycles elapse).
WorkloadResult runSharedWorkload(accel::AesAccelerator& acc,
                                 const TenantSetup& setup,
                                 const WorkloadConfig& cfg);

}  // namespace aesifc::soc
