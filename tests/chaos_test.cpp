// Adversarial-environment fuzzing of the accelerator: random receiver
// readiness, random submissions from several users, both modes. Every
// response must be correct, complete, and in per-user order, regardless of
// how often the stall/buffer machinery engages.

#include <gtest/gtest.h>

#include <map>
#include <ostream>

#include "accel/driver.h"
#include "aes/cipher.h"
#include "common/rng.h"

namespace aesifc::accel {
namespace {

using lattice::Conf;
using lattice::Principal;

struct ChaosParams {
  SecurityMode mode;
  std::uint64_t seed;
};

// Names each case by its contents (e.g. "Protected_seed3") instead of
// gtest's raw byte dump, which includes the struct's padding bytes.
void PrintTo(const ChaosParams& p, std::ostream* os) {
  *os << (p.mode == SecurityMode::Protected ? "Protected" : "Baseline")
      << "_seed" << p.seed;
}

class ChaosTest : public ::testing::TestWithParam<ChaosParams> {};

TEST_P(ChaosTest, AllTrafficCorrectCompleteAndOrdered) {
  const auto [mode, seed] = GetParam();
  AcceleratorConfig cfg;
  cfg.mode = mode;
  cfg.out_buffer_depth = 512;  // large enough that nothing is dropped
  AesAccelerator acc{cfg};

  const unsigned sup = acc.addUser(Principal::supervisor());
  (void)sup;
  constexpr unsigned kUsers = 3;
  unsigned users[kUsers];
  std::vector<std::vector<std::uint8_t>> keys(kUsers);
  std::vector<aes::ExpandedKey> golden;
  Rng rng{seed};
  for (unsigned u = 0; u < kUsers; ++u) {
    users[u] = acc.addUser(Principal::user("u" + std::to_string(u), u + 1));
    keys[u].resize(16);
    for (auto& b : keys[u]) b = static_cast<std::uint8_t>(rng.next());
    ASSERT_TRUE(loadKey128(acc, users[u], u + 1, 2 * u, keys[u],
                           Conf::category(u + 1)));
    golden.push_back(aes::expandKey(keys[u], aes::KeySize::Aes128));
  }

  struct Expect {
    aes::Block pt;
    bool decrypt;
    unsigned user_idx;
  };
  std::map<std::uint64_t, Expect> expect;
  std::vector<std::uint64_t> last_seen_id(kUsers, 0);
  std::vector<unsigned> submitted(kUsers, 0), received(kUsers, 0);
  constexpr unsigned kPerUser = 100;
  std::uint64_t next_id = 1;

  auto drain = [&] {
    for (unsigned u = 0; u < kUsers; ++u) {
      while (auto out = acc.fetchOutput(users[u])) {
        auto it = expect.find(out->req_id);
        ASSERT_NE(it, expect.end());
        ASSERT_EQ(it->second.user_idx, u);
        EXPECT_FALSE(out->suppressed);
        const auto& ek = golden[u];
        const aes::Block want = it->second.decrypt
                                    ? aes::decryptBlock(it->second.pt, ek)
                                    : aes::encryptBlock(it->second.pt, ek);
        EXPECT_EQ(out->data, want) << "req " << out->req_id;
        // Per-user responses arrive in submission order.
        EXPECT_GT(out->req_id, last_seen_id[u]);
        last_seen_id[u] = out->req_id;
        ++received[u];
        expect.erase(it);
      }
    }
  };

  unsigned guard = 0;
  auto done = [&] {
    for (unsigned u = 0; u < kUsers; ++u) {
      if (received[u] < kPerUser) return false;
    }
    return true;
  };

  while (!done() && guard++ < 60000) {
    // Chaotic receivers: flip readiness with 10% probability per cycle.
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
  // Let everything flush with receivers open.
  for (unsigned u = 0; u < kUsers; ++u) acc.setReceiverReady(users[u], true);
  for (unsigned i = 0; i < 2000 && !done(); ++i) {
    acc.tick();
    drain();
  }

  for (unsigned u = 0; u < kUsers; ++u) {
    EXPECT_EQ(received[u], kPerUser) << "user " << u;
  }
  EXPECT_TRUE(expect.empty());
  EXPECT_EQ(acc.stats().dropped, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndSeeds, ChaosTest,
    ::testing::Values(ChaosParams{SecurityMode::Baseline, 1},
                      ChaosParams{SecurityMode::Baseline, 2},
                      ChaosParams{SecurityMode::Protected, 1},
                      ChaosParams{SecurityMode::Protected, 2},
                      ChaosParams{SecurityMode::Protected, 3},
                      ChaosParams{SecurityMode::Protected, 4}));

}  // namespace
}  // namespace aesifc::accel
