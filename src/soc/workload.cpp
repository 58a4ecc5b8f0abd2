#include "soc/workload.h"

#include <map>
#include <stdexcept>

#include "accel/driver.h"
#include "aes/cipher.h"
#include "common/rng.h"

namespace aesifc::soc {

using accel::AesAccelerator;
using accel::BlockRequest;

namespace {
// Every tenant offers a block each cycle its input queue has room. The
// draw stays in the stream so seeded runs keep their plaintexts.
constexpr double kSubmitProb = 1.0;
constexpr std::uint64_t kMaxCycles = 1u << 20;
}  // namespace

TenantSetup setupTenants(AesAccelerator& acc, unsigned tenants,
                         std::uint64_t seed) {
  if (tenants + 1 > accel::kRoundKeySlots)
    throw std::invalid_argument("setupTenants: too many tenants for key slots");
  Rng rng{seed};
  TenantSetup setup;

  const unsigned sup = acc.addUser(lattice::Principal::supervisor());
  setup.users.push_back(sup);
  setup.key_slots.push_back(0);

  // Master key into slot 0 via the supervisor's scratchpad cells.
  std::vector<std::uint8_t> master(16);
  for (auto& b : master) b = static_cast<std::uint8_t>(rng.next());
  setup.keys.push_back(master);
  if (!accel::loadKey128(acc, sup, 0, 0, master, lattice::Conf::top()))
    throw std::runtime_error("setupTenants: master key load refused");

  // Tenants: one secrecy/trust category, two scratchpad cells, one slot each.
  for (unsigned t = 0; t < tenants; ++t) {
    const unsigned cat = t + 1;  // category 0 is reserved in examples
    const unsigned u = acc.addUser(
        lattice::Principal::user("user" + std::to_string(t), cat % 16));
    const unsigned slot = t + 1;
    const unsigned base = (2 * (t + 1)) % accel::kScratchpadCells;

    std::vector<std::uint8_t> key(16);
    for (auto& b : key) b = static_cast<std::uint8_t>(rng.next());

    if (!accel::loadKey128(acc, u, slot, base, key,
                           acc.principal(u).authority.c))
      throw std::runtime_error("setupTenants: tenant key load refused");

    setup.users.push_back(u);
    setup.key_slots.push_back(slot);
    setup.keys.push_back(std::move(key));
  }
  return setup;
}

WorkloadResult runSharedWorkload(AesAccelerator& acc, const TenantSetup& setup,
                                 const WorkloadConfig& cfg) {
  Rng rng{cfg.seed};
  WorkloadResult result;
  result.per_user_completed.assign(setup.users.size(), 0);

  struct Pending {
    aes::Block pt;
    unsigned setup_idx;
  };
  std::map<std::uint64_t, Pending> inflight;  // req_id -> expectation
  std::uint64_t next_req = 1;

  // Tenants only (skip the supervisor at index 0).
  const unsigned first = 1;
  const unsigned n = static_cast<unsigned>(setup.users.size());
  std::vector<unsigned> submitted(n, 0);
  std::vector<aes::ExpandedKey> golden;
  golden.reserve(n);
  for (unsigned i = 0; i < n; ++i)
    golden.push_back(aes::expandKey(setup.keys[i], aes::KeySize::Aes128));

  std::vector<std::uint64_t> latencies;

  auto allDone = [&] {
    for (unsigned i = first; i < n; ++i)
      if (submitted[i] < cfg.blocks_per_user) return false;
    return inflight.empty();
  };

  while (!allDone() && acc.cycle() < kMaxCycles) {
    for (unsigned i = first; i < n; ++i) {
      if (submitted[i] >= cfg.blocks_per_user) continue;
      if (acc.pendingInputs(setup.users[i]) >= 2) continue;
      if (!rng.chance(kSubmitProb)) continue;
      BlockRequest req;
      req.req_id = next_req++;
      req.user = setup.users[i];
      req.key_slot = setup.key_slots[i];
      req.decrypt = false;
      const auto bits = rng.bits(128).toBytes();
      for (unsigned b = 0; b < 16; ++b) req.data[b] = bits[b];
      if (acc.submit(req)) {
        inflight[req.req_id] = {req.data, i};
        ++submitted[i];
      }
    }
    acc.tick();
    for (unsigned i = first; i < n; ++i) {
      while (auto out = acc.fetchOutput(setup.users[i])) {
        auto it = inflight.find(out->req_id);
        if (it == inflight.end()) continue;
        ++result.blocks_completed;
        ++result.per_user_completed[it->second.setup_idx];
        latencies.push_back(out->complete_cycle - out->accept_cycle);
        if (out->status != accel::AccelStatus::Ok ||
            out->data != aes::encryptBlock(it->second.pt,
                                           golden[it->second.setup_idx])) {
          result.all_correct = false;
          ++result.mismatches;
        }
        inflight.erase(it);
      }
    }
  }

  result.cycles = acc.cycle();
  result.blocks_per_cycle =
      result.cycles
          ? static_cast<double>(result.blocks_completed) / result.cycles
          : 0.0;
  result.latency = latencyStats(latencies);
  return result;
}

}  // namespace aesifc::soc
