#pragma once
// The chaos loop the tier-1 ChaosTest (chaos_test.cpp) and the nightly long
// chaos soak (soak_test.cpp) both run.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "accel/driver.h"
#include "aes/cipher.h"
#include "common/rng.h"

namespace aesifc::accel {

// `users` users (keys drawn from Rng{seed}) each submit `per_user` random
// blocks (decrypts with probability 0.4) while every receiver flips its
// readiness with probability 0.1 per cycle. Every response must be Ok, the
// golden AES result of its own request, and in per-user submission order;
// every request must be answered and none dropped.
inline void expectChaosTrafficCorrect(SecurityMode mode, std::uint64_t seed,
                                      unsigned users, unsigned per_user) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  AcceleratorConfig cfg;
  cfg.mode = mode;
  cfg.out_buffer_depth = 512;  // large enough that nothing is dropped
  AesAccelerator acc{cfg};
  acc.addUser(lattice::Principal::supervisor());

  std::vector<unsigned> ids(users);
  std::vector<aes::ExpandedKey> golden;
  Rng rng{seed};
  for (unsigned u = 0; u < users; ++u) {
    ids[u] = acc.addUser(lattice::Principal::user(
        std::string("u").append(std::to_string(u)), u + 1));
    std::vector<std::uint8_t> key(16);
    for (auto& b : key) b = static_cast<std::uint8_t>(rng.next());
    ASSERT_TRUE(loadKey128(acc, ids[u], u + 1, 2 * u, key,
                           lattice::Conf::category(u + 1)));
    golden.push_back(aes::expandKey(key, aes::KeySize::Aes128));
  }

  struct Expect {
    aes::Block pt;
    bool decrypt;
    unsigned user_idx;
  };
  std::map<std::uint64_t, Expect> expect;
  std::vector<std::uint64_t> last_seen_id(users, 0);
  std::vector<unsigned> submitted(users, 0), received(users, 0);
  std::uint64_t next_id = 1;

  auto drain = [&] {
    for (unsigned u = 0; u < users; ++u) {
      while (auto out = acc.fetchOutput(ids[u])) {
        auto it = expect.find(out->req_id);
        ASSERT_NE(it, expect.end());
        ASSERT_EQ(it->second.user_idx, u);
        EXPECT_EQ(out->status, AccelStatus::Ok);
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
  auto done = [&] {
    for (unsigned u = 0; u < users; ++u)
      if (received[u] < per_user) return false;
    return true;
  };

  for (unsigned guard = 0; !done() && guard < 1000 * per_user; ++guard) {
    for (unsigned u = 0; u < users; ++u) {
      if (rng.chance(0.1)) acc.setReceiverReady(ids[u], rng.chance(0.6));
    }
    for (unsigned u = 0; u < users; ++u) {
      if (submitted[u] >= per_user) continue;
      if (acc.pendingInputs(ids[u]) >= 2 || !rng.chance(0.7)) continue;
      BlockRequest req;
      req.req_id = next_id++;
      req.user = ids[u];
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
  for (unsigned u = 0; u < users; ++u) acc.setReceiverReady(ids[u], true);
  for (unsigned i = 0; i < 4000 && !done(); ++i) {
    acc.tick();
    drain();
  }

  for (unsigned u = 0; u < users; ++u)
    EXPECT_EQ(received[u], per_user) << "user " << u;
  EXPECT_TRUE(expect.empty());
  EXPECT_EQ(acc.stats().dropped, 0u);
}

}  // namespace aesifc::accel
