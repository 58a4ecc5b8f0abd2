// The decisive robustness property (chaos harness + fault injection):
// under seeded fault campaigns spanning every hardware site and the host
// interface, across multiple seeds and fault rates, the Protected-mode
// accelerator never leaks across users — every delivered ciphertext equals
// the requesting user's own golden AES result — every driver call
// terminates in a definite outcome, and every injected tag-array upset is
// detected or corrected by the parity scrub.

#include <gtest/gtest.h>

#include <array>

#include "accel/driver.h"
#include "aes/cipher.h"
#include "common/rng.h"
#include "soc/fault_injector.h"

namespace aesifc::accel {
namespace {

using lattice::Conf;
using lattice::Principal;

struct CampaignParams {
  std::uint64_t seed;
  double rate;
};

class FaultCampaignTest : public ::testing::TestWithParam<CampaignParams> {};

TEST_P(FaultCampaignTest, ProtectedModeNeverLeaksAndAlwaysTerminates) {
  const auto [seed, rate] = GetParam();
  AcceleratorConfig cfg;
  cfg.mode = SecurityMode::Protected;
  cfg.out_buffer_depth = 16;
  cfg.event_log_cap = 256;
  AesAccelerator acc{cfg};

  const unsigned sup = acc.addUser(Principal::supervisor());
  (void)sup;
  constexpr unsigned kUsers = 3;
  std::array<unsigned, kUsers> users{};
  std::array<std::vector<std::uint8_t>, kUsers> keys;
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

  soc::FaultCampaignConfig fcfg;
  fcfg.seed = seed * 1000003;
  fcfg.fault_rate = rate;
  fcfg.stuck_cycles = 24;
  soc::FaultInjector inj{acc, fcfg, {users[0], users[1], users[2]}};
  acc.setTickHook([&] { inj.tick(); });

  SessionOptions opts;
  opts.timeout_cycles = 1500;
  opts.max_retries = 3;
  opts.backoff_cycles = 16;
  std::vector<AccelSession> sessions;
  for (unsigned u = 0; u < kUsers; ++u)
    sessions.emplace_back(acc, users[u], u + 1, opts);

  std::array<std::uint64_t, 6> by_status{};  // indexed by AccelStatus
  std::array<bool, kUsers> needs_reload{};
  unsigned ops_issued = 0;
  unsigned ops_returned = 0;

  constexpr unsigned kRounds = 25;
  for (unsigned round = 0; round < kRounds; ++round) {
    for (unsigned u = 0; u < kUsers; ++u) {
      if (needs_reload[u]) {
        // Driver-level recovery: a zeroized slot (fail-secure response to a
        // key-path upset) is re-provisioned from host-held key material.
        if (!loadKey128(acc, users[u], u + 1, 2 * u, keys[u],
                        Conf::category(u + 1))) {
          continue;  // a fault hit the reload itself; try again next round
        }
        needs_reload[u] = false;
      }
      aes::Block pt;
      for (auto& b : pt) b = static_cast<std::uint8_t>(rng.next());
      const bool decrypt = rng.chance(0.4);
      ++ops_issued;
      const auto r = decrypt ? sessions[u].decryptBlock(pt)
                             : sessions[u].encryptBlock(pt);
      ++ops_returned;  // the call came back: a definite outcome
      ++by_status[static_cast<unsigned>(r.status())];
      if (r.has_value()) {
        const aes::Block want = decrypt ? aes::decryptBlock(pt, golden[u])
                                        : aes::encryptBlock(pt, golden[u]);
        // The only data ever released to user u is u's own golden AES
        // result: no cross-user material, no corrupted-key ciphertext.
        ASSERT_EQ(*r, want) << "seed " << seed << " rate " << rate
                            << " user " << u << " round " << round;
      } else if (r.status() == AccelStatus::Rejected) {
        needs_reload[u] = true;
      }
    }
  }

  // End the fault phase; let the slow scrub ring settle.
  acc.setTickHook(nullptr);
  inj.releaseStuckReceivers();
  acc.run(64);

  EXPECT_EQ(ops_returned, ops_issued);
  EXPECT_GT(by_status[static_cast<unsigned>(AccelStatus::Ok)], 0u)
      << "campaign produced no successful traffic";

  const auto report = inj.report();
  // The tag arrays are covered by the every-cycle scrub ring: no injected
  // tag upset may escape detection.
  EXPECT_EQ(report.escaped(static_cast<unsigned>(FaultSite::StageTag)), 0u)
      << report.toJson();
  EXPECT_EQ(report.escaped(static_cast<unsigned>(FaultSite::ScratchTag)), 0u)
      << report.toJson();
  // Telemetry is internally consistent.
  EXPECT_EQ(acc.stats().faults_detected,
            acc.eventCount(SecurityEventKind::FaultDetected) +
                acc.eventCount(SecurityEventKind::FaultScrubbed));
  EXPECT_LE(acc.events().size(), cfg.event_log_cap);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndRates, FaultCampaignTest,
    ::testing::Values(CampaignParams{11, 0.002}, CampaignParams{11, 0.01},
                      CampaignParams{11, 0.05}, CampaignParams{22, 0.002},
                      CampaignParams{22, 0.01}, CampaignParams{22, 0.05},
                      CampaignParams{33, 0.002}, CampaignParams{33, 0.01},
                      CampaignParams{33, 0.05}, CampaignParams{44, 0.002},
                      CampaignParams{44, 0.01}, CampaignParams{44, 0.05}));

}  // namespace
}  // namespace aesifc::accel
