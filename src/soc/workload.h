#pragma once
// Traffic generation. runSharedWorkload streams multi-user traffic through
// one shared accelerator (the Fig. 2 SoC scenario), verifies every result
// against the golden software AES, and reports throughput/latency.
// runClosedWaves is the one closed-loop wave driver over an EnginePool; it
// returns the conservation identity every pool bench record carries.

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "accel/accelerator.h"
#include "common/counters.h"
#include "soc/metrics.h"
#include "soc/pool.h"

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

// The conservation identity a bench record carries: every offered request
// (block or AEAD op) ends in exactly one bucket,
//   offered = ok + suppressed + shed + rejected + failed + still_queued.
// `rejected` counts admission refusals and Rejected verdicts; `failed` the
// timed-out, fault-aborted, dropped and auth-failed ones. A bench that
// counts a shed ticket as work, or loses one, breaks the identity.
struct Conservation {
  std::uint64_t offered = 0;
  std::uint64_t ok = 0;
  std::uint64_t suppressed = 0;
  std::uint64_t shed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t failed = 0;
  std::uint64_t still_queued = 0;

  // One offer: a refused one is already resolved as rejected.
  void offer(bool admitted) {
    ++offered;
    if (!admitted) ++rejected;
  }

  // One terminal verdict fetched from the service.
  void resolve(CompletionStatus st) {
    switch (st) {
      case CompletionStatus::Ok: ++ok; break;
      case CompletionStatus::Suppressed: ++suppressed; break;
      case CompletionStatus::Shed: ++shed; break;
      case CompletionStatus::Rejected: ++rejected; break;
      case CompletionStatus::TimedOut:
      case CompletionStatus::FaultAborted:
      case CompletionStatus::Dropped:
      case CompletionStatus::AuthFailed: ++failed; break;
    }
  }

  static constexpr auto counterFields() {
    using C = Conservation;
    using counters::field;
    return std::tuple{
        field("offered", &C::offered), field("ok", &C::ok),
        field("suppressed", &C::suppressed), field("shed", &C::shed),
        field("rejected", &C::rejected), field("failed", &C::failed),
        field("still_queued", &C::still_queued)};
  }
  std::string toJson() const { return counters::toJson(*this); }
};
static_assert(counters::listsEveryByte<Conservation>());

// Closed-loop waves over `pool` until each of the tenants `ids` has had
// `per_tenant` items come back. A wave tops each tenant up, in index order,
// through `offer(t, i)` (the SubmitResult of tenant t's i-th item) until
// its first refusal, drains the pool to idle (at most 2^24 device cycles
// per shard), then fetches each tenant's completions in index order and
// hands each to `on_done(t, completion)` after counting its verdict. The
// completion type `on_done` takes picks the queue: `const Completion&`
// fetches blocks, `const AeadCompletion&` AEAD ops. It stops when every
// item has come back, or after a wave that brought none back (a stuck
// pool), and returns the identity with `still_queued` filled in.
template <class Offer, class OnDone>
Conservation runClosedWaves(EnginePool& pool, const std::vector<unsigned>& ids,
                            unsigned per_tenant, Offer&& offer,
                            OnDone&& on_done) {
  constexpr bool kAead =
      std::is_invocable_v<OnDone&, unsigned, const AeadCompletion&>;
  static_assert(
      kAead != std::is_invocable_v<OnDone&, unsigned, const Completion&>,
      "on_done takes (unsigned, const Completion&) or an AeadCompletion");
  constexpr std::uint64_t kDrainCycles = 1u << 24;
  const auto fetch = [&pool](unsigned id) {
    if constexpr (kAead) return pool.fetchAead(id);
    else return pool.fetch(id);
  };
  const std::uint64_t total = ids.size() * std::uint64_t{per_tenant};
  std::vector<unsigned> submitted(ids.size(), 0);
  Conservation cons;
  std::uint64_t done = 0;
  while (done < total) {
    for (unsigned t = 0; t < ids.size(); ++t) {
      while (submitted[t] < per_tenant) {
        const bool admitted = offer(t, submitted[t]).admitted;
        cons.offer(admitted);
        if (!admitted) break;  // queue full: next wave
        ++submitted[t];
      }
    }
    pool.runUntilIdle(kDrainCycles);
    std::uint64_t progress = 0;
    for (unsigned t = 0; t < ids.size(); ++t) {
      while (auto c = fetch(ids[t])) {
        ++progress;
        cons.resolve(c->status);
        on_done(t, *c);
      }
    }
    done += progress;
    if (progress == 0) break;  // stuck: the identity reports what is left
  }
  cons.still_queued = pool.totalQueued();
  return cons;
}

}  // namespace aesifc::soc
