#include "soc/workload.h"

#include <algorithm>
#include <stdexcept>

#include "accel/driver.h"
#include "aes/cipher.h"
#include "aes/gcm.h"
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
  std::uint64_t next_req = 1;

  // Tenants only (skip the supervisor at index 0).
  const unsigned first = 1;
  const unsigned n = static_cast<unsigned>(setup.users.size());
  std::vector<unsigned> submitted(n, 0);
  Oracle oracle;
  for (unsigned i = 0; i < n; ++i) oracle.addTenant(setup.keys[i]);

  std::vector<std::uint64_t> latencies;

  auto allDone = [&] {
    for (unsigned i = first; i < n; ++i)
      if (submitted[i] < cfg.blocks_per_user || oracle.outstanding(i) > 0)
        return false;
    return true;
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
      const bool admitted = acc.submit(req);
      oracle.offer(i, admitted, req.req_id, req.data);
      if (admitted) ++submitted[i];
    }
    acc.tick();
    for (unsigned i = first; i < n; ++i) {
      while (auto out = acc.fetchOutput(setup.users[i])) {
        oracle.check(i, out->req_id, terminalStatus(out->status), out->data);
        ++result.blocks_completed;
        ++result.per_user_completed[i];
        latencies.push_back(out->complete_cycle - out->accept_cycle);
      }
    }
  }

  result.oracle = oracle.counts();
  result.mismatches = result.oracle.wrong_outputs + result.blocks_completed -
                      oracle.conservation().ok;
  result.all_correct =
      result.mismatches == 0 && result.oracle == OracleCounts{};
  result.cycles = acc.cycle();
  result.blocks_per_cycle =
      result.cycles
          ? static_cast<double>(result.blocks_completed) / result.cycles
          : 0.0;
  result.latency = latencyStats(latencies);
  return result;
}

// --- Oracle -----------------------------------------------------------------

unsigned Oracle::addTenant(const std::vector<std::uint8_t>& key) {
  tenants_.push_back({aes::expandKey(key, aes::KeySize::Aes128), {}, {}});
  return static_cast<unsigned>(tenants_.size() - 1);
}

void Oracle::admit(unsigned t, bool admitted, Item item) {
  cons_.offer(admitted);
  if (!admitted) return;
  Tenant& tn = tenants_.at(t);
  tn.resolved.erase(item.ticket);
  tn.fifo.push_back(std::move(item));
}

void Oracle::offer(unsigned t, bool admitted, std::uint64_t ticket,
                   const aes::Block& in, bool decrypt) {
  Item item;
  item.ticket = ticket;
  item.decrypt = decrypt;
  item.block = in;
  admit(t, admitted, std::move(item));
}

void Oracle::offerSeal(unsigned t, bool admitted, std::uint64_t ticket,
                       std::vector<std::uint8_t> msg,
                       std::vector<std::uint8_t> aad,
                       std::vector<std::uint8_t> iv) {
  admit(t, admitted,
        {.ticket = ticket, .seal = true, .msg = std::move(msg),
         .aad = std::move(aad), .iv = std::move(iv)});
}

void Oracle::check(unsigned t, std::uint64_t ticket, CompletionStatus st,
                   std::span<const std::uint8_t> data,
                   const aes::Tag128& tag) {
  cons_.resolve(st);
  Tenant& tn = tenants_.at(t);
  const auto it = std::find_if(
      tn.fifo.begin(), tn.fifo.end(),
      [&](const Item& i) { return i.ticket == ticket; });
  if (it == tn.fifo.end()) {
    ++(tn.resolved.count(ticket) ? counts_.duplicate_resolutions
                                 : counts_.unknown_tickets);
    return;
  }
  if (it != tn.fifo.begin()) ++counts_.out_of_order;
  if (st == CompletionStatus::Ok && it->seal) {
    const auto want = aes::gcmEncrypt(it->msg, it->aad, tn.key, it->iv);
    if (!std::ranges::equal(data, want.ciphertext) || tag != want.tag)
      ++counts_.wrong_tags;
  } else if (st == CompletionStatus::Ok) {
    const aes::Block want = it->decrypt ? aes::decryptBlock(it->block, tn.key)
                                        : aes::encryptBlock(it->block, tn.key);
    if (!std::ranges::equal(data, want)) ++counts_.wrong_outputs;
  }
  tn.resolved.insert(ticket);
  tn.fifo.erase(it);
}

OracleCounts Oracle::counts() const {
  OracleCounts c = counts_;
  for (const Tenant& tn : tenants_) c.unresolved += tn.fifo.size();
  return c;
}

}  // namespace aesifc::soc
