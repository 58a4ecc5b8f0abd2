#pragma once
// Measurement rules shared by every workload: the percentile and
// sample-count rules, the conservation identity every run must satisfy,
// and the seeded input generators. Kept free of any pool state so the
// tests can pin each rule on hand-made numbers.

#include <cstdint>
#include <string>
#include <vector>

#include "aes/block.h"

namespace perfbench {

// --- Percentiles ------------------------------------------------------------
// Nearest rank with the quantile in per-mille (500 = median, 990 = p99),
// integer arithmetic so the rank never depends on floating rounding: the
// result is the ceil(q/1000 * n)-th smallest sample. 0 for no samples.
std::uint64_t percentile(std::vector<std::uint64_t> samples,
                         unsigned permille);

// A percentile is reported only when at least ten samples lie beyond its
// rank (p99 needs n >= 1000).
bool percentileSupported(std::size_t n, unsigned permille);

// Median of doubles (mean of the middle two for an even count); 0 if empty.
double median(std::vector<double> v);

// Nearest-rank quantile of doubles, by the same rank rule as `percentile`.
double quantile(std::vector<double> v, unsigned permille);

// --- Conservation identity --------------------------------------------------
// Every submit call the service counted must end in exactly one bucket:
//
//   offered = ok + suppressed + shed + rejected + failed + still_queued
//
// `offered`, `shed` and the admission refusals come from ServiceStats; the
// completion buckets from the completions the benchmark fetched. The two
// sources must also agree term by term, and a run that shed anything is
// refused outright: shed tickets are the work a shedding configuration
// counts twice (admitted, then evicted), so no throughput figure from it
// is honest.
struct Accounting {
  // Service side (ServiceStats summed over shards).
  std::uint64_t svc_offered = 0;
  std::uint64_t svc_refused = 0;  // rejected_queue_full + rejected_backpressure
  std::uint64_t svc_shed = 0;
  std::uint64_t svc_ok = 0;       // completed_hw + completed_fallback (+ AEAD)
  // Benchmark side.
  std::uint64_t submits = 0;      // submit calls made
  std::uint64_t refused = 0;      // submit calls that were not admitted
  std::uint64_t ok = 0;           // fetched completions by status
  std::uint64_t suppressed = 0;
  std::uint64_t shed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t failed = 0;       // timed-out, fault-aborted, dropped, auth-failed
  std::uint64_t still_queued = 0;

  Accounting& operator+=(const Accounting& o);
  // Empty when the identity and every cross-check hold.
  std::vector<std::string> violations() const;
};

// --- Seeded inputs ----------------------------------------------------------
// splitmix64: the benchmark owns its generator so inputs depend on the
// seed alone, never on a library's distribution implementation.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_{seed} {}
  std::uint64_t next();
  double uniform();                      // [0, 1)
  unsigned below(unsigned n);            // [0, n)
  aesifc::aes::Block block();

 private:
  std::uint64_t s_;
};

// Derive an independent stream seed from (seed, stream index).
std::uint64_t subSeed(std::uint64_t seed, std::uint64_t stream);

// One open-loop arrival: a burst of same-direction blocks from one tenant,
// due at a device cycle of the tenant's shard. Its blocks are
// OpenLoopSchedule::blocks[first, first + count).
struct Burst {
  std::uint64_t due = 0;
  unsigned tenant = 0;
  bool decrypt = false;
  std::size_t first = 0;
  unsigned count = 0;

  bool operator==(const Burst&) const = default;
};

// Blocks live in one array so a schedule is two allocations, not one per
// burst: the episode's own heap traffic must not perturb the simulator's.
struct OpenLoopSchedule {
  std::vector<Burst> bursts;  // sorted by (due, tenant)
  std::vector<aesifc::aes::Block> blocks;

  bool operator==(const OpenLoopSchedule&) const = default;
};

struct OpenLoopParams {
  unsigned tenants = 12;
  double blocks_per_cycle = 0.24;  // offered load summed over tenants
  unsigned min_burst = 1;
  unsigned max_burst = 8;
  double decrypt_share = 0.3;
  std::uint64_t horizon = 40000;   // last due cycle (exclusive)
};

// Poisson burst arrivals per tenant (equal shares of the offered load),
// burst sizes uniform in [min_burst, max_burst], sorted by (due, tenant).
OpenLoopSchedule openLoopSchedule(std::uint64_t seed, const OpenLoopParams& p);

}  // namespace perfbench
