// Nightly soak suite (ctest label: soak). Two long-horizon runs that are too
// slow for the per-commit job but catch slow-burn defects: a extended chaos
// workload (randomized receiver readiness, mixed modes, hundreds of blocks
// per user) and a 20-seed sweep of the device fault campaign
// (soc::runDeviceFaultCampaign). Both enforce the same invariants as their
// tier-1 cousins — every delivered block matches the requester's own golden
// AES result, every driver call terminates, and no injected tag upset
// escapes the scrub rings.

#include <gtest/gtest.h>

#include <map>

#include "accel/driver.h"
#include "aes/cipher.h"
#include "common/rng.h"
#include "device_campaign_checks.h"
#include "soc/fault_injector.h"

namespace aesifc::accel {
namespace {

using lattice::Conf;
using lattice::Principal;

// --- Long chaos run ---------------------------------------------------------

TEST(Soak, LongChaosAllTrafficCorrectCompleteAndOrdered) {
  for (const std::uint64_t seed : {101ull, 202ull, 303ull}) {
    AcceleratorConfig cfg;
    cfg.mode = SecurityMode::Protected;
    cfg.out_buffer_depth = 512;
    AesAccelerator acc{cfg};
    acc.addUser(Principal::supervisor());

    constexpr unsigned kUsers = 4;
    unsigned users[kUsers];
    std::vector<aes::ExpandedKey> golden;
    Rng rng{seed};
    for (unsigned u = 0; u < kUsers; ++u) {
      users[u] = acc.addUser(
          Principal::user(std::string("u").append(std::to_string(u)), u + 1));
      std::vector<std::uint8_t> key(16);
      for (auto& b : key) b = static_cast<std::uint8_t>(rng.next());
      ASSERT_TRUE(
          loadKey128(acc, users[u], u + 1, 2 * u, key, Conf::category(u + 1)));
      golden.push_back(aes::expandKey(key, aes::KeySize::Aes128));
    }

    struct Expect {
      aes::Block pt;
      bool decrypt;
      unsigned user_idx;
    };
    std::map<std::uint64_t, Expect> expect;
    std::vector<std::uint64_t> last_seen_id(kUsers, 0);
    std::vector<unsigned> submitted(kUsers, 0), received(kUsers, 0);
    constexpr unsigned kPerUser = 400;  // 4x the tier-1 chaos volume
    std::uint64_t next_id = 1;

    auto drain = [&] {
      for (unsigned u = 0; u < kUsers; ++u) {
        while (auto out = acc.fetchOutput(users[u])) {
          auto it = expect.find(out->req_id);
          ASSERT_NE(it, expect.end());
          ASSERT_EQ(it->second.user_idx, u);
          EXPECT_EQ(out->status, AccelStatus::Ok);
          const auto& ek = golden[u];
          const aes::Block want = it->second.decrypt
                                      ? aes::decryptBlock(it->second.pt, ek)
                                      : aes::encryptBlock(it->second.pt, ek);
          EXPECT_EQ(out->data, want) << "seed " << seed << " req "
                                     << out->req_id;
          EXPECT_GT(out->req_id, last_seen_id[u]);
          last_seen_id[u] = out->req_id;
          ++received[u];
          expect.erase(it);
        }
      }
    };

    auto done = [&] {
      for (unsigned u = 0; u < kUsers; ++u)
        if (received[u] < kPerUser) return false;
      return true;
    };

    unsigned guard = 0;
    while (!done() && guard++ < 400000) {
      for (unsigned u = 0; u < kUsers; ++u) {
        if (rng.chance(0.1)) acc.setReceiverReady(users[u], rng.chance(0.6));
      }
      for (unsigned u = 0; u < kUsers; ++u) {
        if (submitted[u] >= kPerUser) continue;
        if (acc.pendingInputs(users[u]) >= 2 || !rng.chance(0.7)) continue;
        BlockRequest req;
        req.req_id = next_id++;
        req.user = users[u];
        req.key_slot = u + 1;
        req.decrypt = rng.chance(0.4);
        for (auto& b : req.data) b = static_cast<std::uint8_t>(rng.next());
        if (acc.submit(req)) {
          expect[req.req_id] = {req.data, req.decrypt, u};
          ++submitted[u];
        }
      }
      acc.tick();
      drain();
    }
    for (unsigned u = 0; u < kUsers; ++u) acc.setReceiverReady(users[u], true);
    for (unsigned i = 0; i < 4000 && !done(); ++i) {
      acc.tick();
      drain();
    }

    for (unsigned u = 0; u < kUsers; ++u)
      EXPECT_EQ(received[u], kPerUser) << "seed " << seed << " user " << u;
    EXPECT_TRUE(expect.empty());
    EXPECT_EQ(acc.stats().dropped, 0u);
  }
}

// --- 20-seed fault campaign sweep ------------------------------------------

TEST(Soak, TwentySeedFaultCampaignNeverLeaksAndAlwaysTerminates) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const double rate = (seed % 2) ? 0.01 : 0.03;
    soc::expectFailSecure(
        soc::runDeviceFaultCampaign(seed, rate, /*hardened=*/true),
        "seed " + std::to_string(seed));
  }
}

}  // namespace
}  // namespace aesifc::accel
