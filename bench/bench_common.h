#pragma once
// Helpers the benches share: the environment knobs that pick the CI smoke
// configuration, and the tenant set the pool matrices place.

#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "soc/pool.h"

namespace aesifc::bench {

// Unsigned override from the environment; unset, empty or 0 keeps
// `fallback`.
inline unsigned envOr(const char* name, unsigned fallback) {
  const char* v = std::getenv(name);
  if (!v || !*v) return fallback;
  const unsigned long n = std::strtoul(v, nullptr, 10);
  return n == 0 ? fallback : static_cast<unsigned>(n);
}

// AESIFC_BENCH_SMOKE set to anything but "0": CI keep-alive mode, which
// prints the tables and JSON records and skips the timing loops.
inline bool smokeMode() {
  const char* v = std::getenv("AESIFC_BENCH_SMOKE");
  return v && *v && std::string{v} != "0";
}

// Places tenants "tenant-0" .. "tenant-<n-1>" (category t + 1, a key
// derived from t, queue depth 64) and returns their pool ids in order.
inline std::vector<unsigned> addTenants(soc::EnginePool& pool,
                                        unsigned tenants) {
  std::vector<unsigned> ids;
  for (unsigned t = 0; t < tenants; ++t) {
    soc::PoolTenantSpec spec;
    spec.name = "tenant-" + std::to_string(t);
    spec.category = t + 1;
    spec.key.assign(16, 0);
    for (unsigned i = 0; i < 16; ++i)
      spec.key[i] = static_cast<std::uint8_t>(0x40 + 13 * t + i);
    spec.queue_depth = 64;
    const soc::PlaceResult placed = pool.addTenant(spec);
    if (!placed.placed) throw std::runtime_error("bench: pool refused tenant");
    ids.push_back(placed.tenant);
  }
  return ids;
}

}  // namespace aesifc::bench
