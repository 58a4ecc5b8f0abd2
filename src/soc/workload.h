#pragma once
// Traffic generation. runSharedWorkload streams multi-user traffic through
// one shared accelerator (the Fig. 2 SoC scenario), checks every result
// through the campaign oracle, and reports throughput/latency.
// runClosedWaves is the one closed-loop wave driver over an EnginePool; it
// returns the conservation identity every pool bench record carries.
// soc::Oracle is the one check of the fail-secure promise that every
// campaign, soak and gated bench record reads.

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <type_traits>
#include <unordered_set>
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

// What the campaign oracle found; all 0 on a fail-secure run.
struct OracleCounts {
  std::uint64_t wrong_outputs = 0;          // Ok blocks that differ from AES
  std::uint64_t wrong_tags = 0;             // Ok seals that differ from GCM
  std::uint64_t duplicate_resolutions = 0;  // a ticket fetched again
  std::uint64_t unknown_tickets = 0;        // never admitted to the fetcher
  std::uint64_t out_of_order = 0;  // fetched ahead of an older outstanding one
  std::uint64_t unresolved = 0;    // admitted tickets not yet fetched

  bool operator==(const OracleCounts&) const = default;
  static constexpr auto counterFields() {
    using O = OracleCounts;
    using counters::field;
    return std::tuple{
        field("wrong_outputs", &O::wrong_outputs),
        field("wrong_tags", &O::wrong_tags),
        field("duplicate_resolutions", &O::duplicate_resolutions),
        field("unknown_tickets", &O::unknown_tickets),
        field("out_of_order", &O::out_of_order),
        field("unresolved", &O::unresolved)};
  }
  std::string toJson() const { return counters::toJson(*this); }
};
static_assert(counters::listsEveryByte<OracleCounts>());

// The one check of the fail-secure promise: a tenant only ever gets back its
// own correct result, each exactly once and in the order it was admitted.
// Per tenant it keeps the AES-128 key and a FIFO of admitted items (ticket,
// direction and input; a seal's message, AAD and IV). A fetched completion
// must carry the ticket of the tenant's oldest outstanding item, and an Ok
// one must equal golden aes::encryptBlock/decryptBlock/gcmEncrypt of it
// (a seal whose ciphertext or tag differs counts as a wrong tag). Every
// offer and verdict is counted into a Conservation. A FIFO, not a ticket
// map, is what matches across a pool migration: tickets are shard-local. It
// only observes: it draws no random number and touches no device state.
class Oracle {
 public:
  // A tenant under AES-128 `key`; returns its index.
  unsigned addTenant(const std::vector<std::uint8_t>& key);

  // One offer of tenant t: an admitted one joins its FIFO under `ticket`,
  // a refused one is resolved as rejected.
  void offer(unsigned t, bool admitted, std::uint64_t ticket,
             const aes::Block& in, bool decrypt = false);
  void offerSeal(unsigned t, bool admitted, std::uint64_t ticket,
                 std::vector<std::uint8_t> msg, std::vector<std::uint8_t> aad,
                 std::vector<std::uint8_t> iv);

  // One completion tenant t fetched: `data` is the block or ciphertext,
  // `tag` a seal's tag.
  void check(unsigned t, std::uint64_t ticket, CompletionStatus st,
             std::span<const std::uint8_t> data, const aes::Tag128& tag = {});
  void check(unsigned t, const Completion& c) {
    check(t, c.ticket, c.status, c.data);
  }
  void check(unsigned t, const AeadCompletion& c) {
    check(t, c.ticket, c.status, c.data, c.tag);
  }

  std::size_t outstanding(unsigned t) const {
    return tenants_.at(t).fifo.size();
  }
  OracleCounts counts() const;
  // Every offer and fetched verdict so far, with `still_queued` as given.
  Conservation conservation(std::uint64_t still_queued = 0) const {
    Conservation c = cons_;
    c.still_queued = still_queued;
    return c;
  }

 private:
  struct Item {
    std::uint64_t ticket = 0;
    bool decrypt = false;
    bool seal = false;
    aes::Block block{};
    std::vector<std::uint8_t> msg, aad, iv;
  };
  struct Tenant {
    aes::ExpandedKey key;
    std::deque<Item> fifo;
    std::unordered_set<std::uint64_t> resolved;  // re-admitting removes it
  };
  void admit(unsigned t, bool admitted, Item item);

  std::vector<Tenant> tenants_;
  OracleCounts counts_;
  Conservation cons_;
};

struct WorkloadConfig {
  unsigned blocks_per_user = 256;
  std::uint64_t seed = 7;
};

struct WorkloadResult {
  std::uint64_t cycles = 0;
  std::uint64_t blocks_completed = 0;
  double blocks_per_cycle = 0.0;
  // From the oracle: all_correct when every block came back Ok, golden,
  // once and in order; mismatches counts wrong and non-Ok blocks.
  bool all_correct = true;
  std::uint64_t mismatches = 0;
  OracleCounts oracle;
  LatencyStats latency;
  // Blocks completed per setup index (index 0 is the supervisor and stays
  // 0) — the fairness evidence: under fair arbitration no tenant starves.
  std::vector<std::uint64_t> per_user_completed;
};

// Streams encryption traffic from every tenant through the accelerator,
// checking every response through a soc::Oracle, until all blocks
// complete (or 2^20 cycles elapse).
WorkloadResult runSharedWorkload(accel::AesAccelerator& acc,
                                 const TenantSetup& setup,
                                 const WorkloadConfig& cfg);

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
