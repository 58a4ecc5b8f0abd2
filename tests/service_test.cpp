// AccelService unit coverage: admission control (per-tenant bounded queues,
// shed-oldest vs reject-new, global watermark backpressure), the health
// state machine (error-budget windows, wedged-device quarantine, probation
// canaries), circuit breaking to the software fallback, and — the decisive
// security property — that degraded mode re-checks the tenant's label and
// refuses exactly what the tagged pipeline would refuse.

#include <gtest/gtest.h>

#include <map>

#include "aes/cipher.h"
#include "aes/gcm.h"
#include "common/rng.h"
#include "soc/policy_engine.h"
#include "soc/service.h"

namespace aesifc::soc {
namespace {

using accel::AcceleratorConfig;
using accel::AesAccelerator;
using accel::SecurityMode;
using lattice::Conf;
using lattice::Principal;

std::vector<std::uint8_t> keyOf(unsigned tenant) {
  std::vector<std::uint8_t> k(16);
  for (unsigned i = 0; i < 16; ++i)
    k[i] = static_cast<std::uint8_t>(0x30 + 17 * tenant + i);
  return k;
}

// Accelerator + service with `n` single-category tenants.
struct Rig {
  AesAccelerator acc;
  AccelService svc;
  std::vector<unsigned> tenants;
  std::vector<aes::ExpandedKey> golden;

  explicit Rig(unsigned n, ServiceConfig cfg = {},
               AcceleratorConfig acfg = {})
      : acc{acfg}, svc{acc, cfg} {
    acc.addUser(Principal::supervisor());
    for (unsigned t = 0; t < n; ++t) {
      const unsigned user =
          acc.addUser(Principal::user("t" + std::to_string(t), t + 1));
      TenantSpec spec;
      spec.user = user;
      spec.key_slot = t + 1;
      spec.key = keyOf(t);
      spec.key_conf = Conf::category(t + 1);
      spec.queue_depth = 8;
      tenants.push_back(svc.addTenant(spec));
      golden.push_back(aes::expandKey(spec.key, aes::KeySize::Aes128));
    }
  }
};

aes::Block patternBlock(std::uint8_t seed) {
  aes::Block b;
  for (unsigned i = 0; i < 16; ++i)
    b[i] = static_cast<std::uint8_t>(seed + i);
  return b;
}

TEST(ServiceAdmission, RejectNewBouncesWhenTenantQueueFull) {
  ServiceConfig cfg;
  cfg.overflow = OverflowPolicy::RejectNew;
  Rig r{1, cfg};
  for (unsigned i = 0; i < 8; ++i)
    EXPECT_TRUE(r.svc.submit(0, patternBlock(i)).admitted);
  const auto res = r.svc.submit(0, patternBlock(99));
  EXPECT_FALSE(res.admitted);
  EXPECT_EQ(res.error, AdmitError::QueueFull);
  EXPECT_EQ(r.svc.stats().rejected_queue_full, 1u);
  EXPECT_EQ(r.svc.queued(0), 8u);
}

TEST(ServiceAdmission, ShedOldestEvictsOwnOldestAndResolvesItsTicket) {
  ServiceConfig cfg;
  cfg.overflow = OverflowPolicy::ShedOldest;
  Rig r{1, cfg};
  std::uint64_t first_ticket = 0;
  for (unsigned i = 0; i < 8; ++i) {
    const auto res = r.svc.submit(0, patternBlock(i));
    ASSERT_TRUE(res.admitted);
    if (i == 0) first_ticket = res.ticket;
  }
  const auto res = r.svc.submit(0, patternBlock(200));
  EXPECT_TRUE(res.admitted);
  EXPECT_EQ(r.svc.stats().shed, 1u);
  EXPECT_EQ(r.svc.queued(0), 8u);  // still bounded
  // The victim surfaces as a Shed completion, never silently vanishes.
  const auto c = r.svc.fetch(0);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->ticket, first_ticket);
  EXPECT_EQ(c->status, CompletionStatus::Shed);
  EXPECT_EQ(c->served_by, ServedBy::None);
}

TEST(ServiceAdmission, GlobalWatermarkAppliesBackpressure) {
  ServiceConfig cfg;
  cfg.global_high_watermark = 6;
  Rig r{2, cfg};
  for (unsigned i = 0; i < 3; ++i) {
    EXPECT_TRUE(r.svc.submit(0, patternBlock(i)).admitted);
    EXPECT_TRUE(r.svc.submit(1, patternBlock(i)).admitted);
  }
  // Total queued hit the watermark: the next offer bounces even though the
  // tenant's own queue has room.
  const auto res = r.svc.submit(0, patternBlock(50));
  EXPECT_FALSE(res.admitted);
  EXPECT_EQ(res.error, AdmitError::Backpressure);
  EXPECT_EQ(r.svc.stats().rejected_backpressure, 1u);
}

TEST(ServiceServing, HealthyPathServesAllTenantsCorrectlyOnHardware) {
  Rig r{3};
  std::map<std::uint64_t, std::pair<unsigned, aes::Block>> want;
  for (unsigned i = 0; i < 6; ++i) {
    for (unsigned t = 0; t < 3; ++t) {
      const auto b = patternBlock(static_cast<std::uint8_t>(16 * t + i));
      const auto res = r.svc.submit(t, b);
      ASSERT_TRUE(res.admitted);
      want[res.ticket] = {t, b};
    }
  }
  r.svc.runUntilIdle(1u << 16);
  EXPECT_EQ(r.svc.health(), HealthState::Healthy);
  for (unsigned t = 0; t < 3; ++t) {
    unsigned got = 0;
    while (auto c = r.svc.fetch(t)) {
      ASSERT_EQ(c->status, CompletionStatus::Ok);
      EXPECT_EQ(c->served_by, ServedBy::Hardware);
      const auto& [tenant, pt] = want.at(c->ticket);
      EXPECT_EQ(tenant, t);
      EXPECT_EQ(c->data, aes::encryptBlock(pt, r.golden[t]));
      ++got;
    }
    EXPECT_EQ(got, 6u);
    EXPECT_EQ(r.svc.completedOf(t), 6u);
  }
  EXPECT_EQ(r.svc.stats().completed_fallback, 0u);
}

// The status->completion mapping, pinned on each hardware route: a key slot
// zeroized behind the service's back makes the first hardware serve end
// Rejected; the service re-provisions the key once, requeues the request,
// and the second serve completes Ok.
enum class ServeRoute { SingleBlock, RingRun16, AeadSeal, BatchMmio4 };

struct ServiceVerdictMapping : ::testing::TestWithParam<ServeRoute> {};

TEST_P(ServiceVerdictMapping, ZeroizedSlotIsReprovisionedAndRequeuedOnce) {
  const ServeRoute route = GetParam();
  ServiceConfig cfg;
  if (route == ServeRoute::RingRun16) {
    cfg.use_dma_ring = true;
    cfg.batch_size = 16;
    cfg.quota_per_round = 16;
  } else if (route == ServeRoute::BatchMmio4) {
    cfg.batch_size = 4;
    cfg.quota_per_round = 4;
  }
  AesAccelerator acc{AcceleratorConfig{}};
  AccelService svc{acc, cfg};
  acc.addUser(Principal::supervisor());
  TenantSpec spec;
  spec.user = acc.addUser(Principal::user("t0", 1));
  spec.key_slot = 1;
  spec.key = keyOf(0);
  spec.key_conf = Conf::category(1);
  spec.queue_depth = 16;
  const unsigned t = svc.addTenant(spec);
  const auto golden = aes::expandKey(spec.key, aes::KeySize::Aes128);
  ASSERT_TRUE(acc.clearKey(spec.user, spec.key_slot));

  if (route == ServeRoute::AeadSeal) {
    const std::vector<std::uint8_t> pt(40, 0x5a), aad(7, 0x11), iv(12, 0x42);
    ASSERT_TRUE(svc.submitSeal(t, pt, aad, iv).admitted);
    svc.runUntilIdle(1u << 16);
    const auto c = svc.fetchAead(t);
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(c->status, CompletionStatus::Ok);
    const auto want = aes::gcmEncrypt(pt, aad, golden, iv);
    EXPECT_EQ(c->data, want.ciphertext);
    EXPECT_EQ(c->tag, want.tag);
    EXPECT_FALSE(svc.fetchAead(t).has_value());
  } else {
    const unsigned n = route == ServeRoute::RingRun16    ? 16
                       : route == ServeRoute::BatchMmio4 ? 4
                                                         : 1;
    std::vector<std::uint64_t> tickets;
    for (unsigned i = 0; i < n; ++i) {
      const auto res =
          svc.submit(t, patternBlock(static_cast<std::uint8_t>(i)));
      ASSERT_TRUE(res.admitted);
      tickets.push_back(res.ticket);
    }
    svc.runUntilIdle(1u << 16);
    for (unsigned i = 0; i < n; ++i) {
      const auto c = svc.fetch(t);
      ASSERT_TRUE(c.has_value()) << "block " << i;
      EXPECT_EQ(c->ticket, tickets[i]) << "block " << i;
      EXPECT_EQ(c->status, CompletionStatus::Ok) << "block " << i;
      EXPECT_EQ(c->data, aes::encryptBlock(
                             patternBlock(static_cast<std::uint8_t>(i)),
                             golden));
    }
    EXPECT_FALSE(svc.fetch(t).has_value());
  }
  EXPECT_EQ(svc.stats().key_reprovisions, 1u);
  EXPECT_EQ(svc.stats().requeues, 1u);
  if (route == ServeRoute::RingRun16) {
    EXPECT_EQ(svc.stats().dma_ring_fallbacks, 1u);
    EXPECT_EQ(svc.stats().batch_fallbacks, 1u);
  } else if (route == ServeRoute::BatchMmio4) {
    EXPECT_EQ(svc.stats().batch_fallbacks, 1u);
    EXPECT_EQ(svc.stats().batched_runs, 1u);
    EXPECT_EQ(svc.stats().completed_hw, 4u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Routes, ServiceVerdictMapping,
    ::testing::Values(ServeRoute::SingleBlock, ServeRoute::BatchMmio4,
                      ServeRoute::RingRun16, ServeRoute::AeadSeal),
    [](const ::testing::TestParamInfo<ServeRoute>& info) -> std::string {
      switch (info.param) {
        case ServeRoute::SingleBlock: return "SingleBlock";
        case ServeRoute::BatchMmio4: return "BatchMmio4";
        case ServeRoute::RingRun16: return "RingRun16";
        case ServeRoute::AeadSeal: return "AeadSeal";
      }
      return "?";
    });

// Two ring runs of one tenant in one round, the first refused by a zeroized
// slot and re-served over MMIO: the requeue path leaves the first run's
// last member in the queue, and it must still complete before any member of
// the second run.
TEST(ServiceServing, RefusedRingRunKeepsTenantCompletionOrder) {
  ServiceConfig cfg;
  cfg.use_dma_ring = true;
  cfg.batch_size = 16;
  cfg.quota_per_round = 32;
  AesAccelerator acc{AcceleratorConfig{}};
  AccelService svc{acc, cfg};
  acc.addUser(Principal::supervisor());
  TenantSpec spec;
  spec.user = acc.addUser(Principal::user("t0", 1));
  spec.key_slot = 1;
  spec.key = keyOf(0);
  spec.key_conf = Conf::category(1);
  spec.queue_depth = 32;
  const unsigned t = svc.addTenant(spec);
  const auto golden = aes::expandKey(spec.key, aes::KeySize::Aes128);
  ASSERT_TRUE(acc.clearKey(spec.user, spec.key_slot));

  std::vector<std::uint64_t> tickets;
  for (unsigned i = 0; i < 32; ++i) {
    const auto res = svc.submit(t, patternBlock(static_cast<std::uint8_t>(i)));
    ASSERT_TRUE(res.admitted);
    tickets.push_back(res.ticket);
  }
  svc.runUntilIdle(1u << 16);
  for (unsigned i = 0; i < 32; ++i) {
    const auto c = svc.fetch(t);
    ASSERT_TRUE(c.has_value()) << "block " << i;
    EXPECT_EQ(c->ticket, tickets[i]) << "block " << i;
    EXPECT_EQ(c->status, CompletionStatus::Ok) << "block " << i;
    EXPECT_EQ(c->data, aes::encryptBlock(
                           patternBlock(static_cast<std::uint8_t>(i)),
                           golden));
  }
  EXPECT_FALSE(svc.fetch(t).has_value());
  EXPECT_EQ(svc.stats().key_reprovisions, 1u);
}

// FNV-1a 64 over a completion trace.
struct TraceHash {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void byte(std::uint8_t b) { h = (h ^ b) * 0x100000001b3ULL; }
  void u64(std::uint64_t v) {
    for (unsigned i = 0; i < 8; ++i)
      byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
};

// A seeded two-tenant scenario. Each step queues one same-direction run of
// each direction per tenant; over the first 32 steps tenant 0 walks the run
// lengths 1-16 up twice and tenant 1 walks them down, then both queue runs
// of 16 together. Step 9 forces a quarantine (software fallback, then
// probation canaries); step 16, with the breaker closed again, zeroizes
// tenant 1's key slot just before its runs of 16. Folds every completion's
// (ticket, status, served_by, data, complete_cycle), the final stats and
// the final device cycle into `h`, and returns the stats.
ServiceStats runTraceScenario(bool ring, TraceHash& h) {
  ServiceConfig cfg;
  cfg.use_dma_ring = ring;
  cfg.batch_size = 16;
  cfg.quota_per_round = 32;
  cfg.global_high_watermark = 512;
  cfg.health.quarantine_residency_cycles = 1024;
  AesAccelerator acc{AcceleratorConfig{}};
  AccelService svc{acc, cfg};
  acc.addUser(Principal::supervisor());
  std::vector<TenantSpec> specs;
  for (unsigned t = 0; t < 2; ++t) {
    TenantSpec spec;
    spec.user = acc.addUser(Principal::user("t" + std::to_string(t), t + 1));
    spec.key_slot = t + 1;
    spec.key = keyOf(t);
    spec.key_conf = Conf::category(t + 1);
    spec.queue_depth = 96;
    svc.addTenant(spec);
    specs.push_back(spec);
  }
  Rng rng{ring ? 0x7ace1u : 0x7ace0u};
  for (unsigned step = 0; step < 34; ++step) {
    for (unsigned t = 0; t < 2; ++t) {
      const unsigned n = step >= 32 ? 16
                         : t == 0   ? 1 + step % 16
                                    : 16 - step % 16;
      for (const bool decrypt : {false, true}) {
        for (unsigned i = 0; i < n; ++i) {
          aes::Block b;
          for (auto& x : b) x = static_cast<std::uint8_t>(rng.next());
          svc.submit(t, b, decrypt);
        }
      }
    }
    if (step == 9) svc.forceQuarantine("completion-trace scenario");
    if (step == 16) acc.clearKey(specs[1].user, specs[1].key_slot);
    svc.pump();
    svc.pump();
  }
  svc.runUntilIdle(1u << 20);
  for (unsigned t = 0; t < 2; ++t) {
    while (const auto c = svc.fetch(t)) {
      h.u64(c->ticket);
      h.u64(static_cast<std::uint64_t>(c->status));
      h.u64(static_cast<std::uint64_t>(c->served_by));
      for (const auto x : c->data) h.byte(x);
      h.u64(c->complete_cycle);
    }
  }
  for (const char ch : svc.stats().toJson())
    h.byte(static_cast<std::uint8_t>(ch));
  h.u64(acc.cycle());
  return svc.stats();
}

// Pins what completes, and when, across every block route: MMIO runs of
// one and longer, ring runs, a ring run refused by a zeroized slot, the
// software fallback and the canary round. Any change to a completion's
// ticket, status, route, data or cycle, to a counter or to the final device
// cycle moves the digest.
TEST(ServiceServing, CompletionTraceDigestIsPinnedAcrossRoutes) {
  TraceHash h;
  for (const bool ring : {false, true}) {
    const ServiceStats s = runTraceScenario(ring, h);
    EXPECT_GT(s.batched_runs, 0u) << "ring " << ring;
    EXPECT_GT(s.completed_fallback, 0u) << "ring " << ring;
    EXPECT_GT(s.canary_rounds, 0u) << "ring " << ring;
    EXPECT_GT(s.key_reprovisions, 0u) << "ring " << ring;
    EXPECT_GT(s.requeues, 0u) << "ring " << ring;
    EXPECT_GT(s.batch_fallbacks, 0u) << "ring " << ring;
    if (ring) {
      EXPECT_GT(s.dma_ring_runs, 0u);
      EXPECT_GT(s.dma_ring_fallbacks, 0u);
    }
  }
  EXPECT_EQ(h.h, 0xb9ae0f1d3fb708d0ULL);
}

// A service config that makes health transitions fast enough to unit-test.
ServiceConfig fastHealthConfig() {
  ServiceConfig cfg;
  cfg.health.window_cycles = 256;
  cfg.health.wedged_windows = 2;
  cfg.health.quarantine_residency_cycles = 400;
  cfg.health.recovery_windows = 1;
  cfg.healthy_opts = {.timeout_cycles = 100, .max_retries = 0,
                      .backoff_cycles = 4};
  cfg.degraded_opts = {.timeout_cycles = 60, .max_retries = 0,
                       .backoff_cycles = 4};
  cfg.canary_opts = {.timeout_cycles = 200, .max_retries = 1,
                     .backoff_cycles = 4};
  cfg.quota_per_round = 2;
  cfg.max_requeues = 1;
  return cfg;
}

TEST(ServiceHealth, WedgedDeviceQuarantinesFailsOverAndRecoversViaCanaries) {
  Rig r{2, fastHealthConfig()};
  // Wedge the device: receivers never ready, every hardware op times out.
  r.acc.setReceiverReady(1, false);  // tenant users are 1 and 2
  r.acc.setReceiverReady(2, false);

  std::uint64_t sent = 0;
  auto offer = [&] {
    for (unsigned t = 0; t < 2; ++t) {
      if (r.svc.queued(t) < 4) {
        r.svc.submit(t, patternBlock(static_cast<std::uint8_t>(sent++)));
      }
    }
  };

  // Phase 1: pump until the breaker trips.
  unsigned guard = 0;
  while (r.svc.health() != HealthState::Quarantined && guard++ < 400) {
    offer();
    r.svc.pump();
  }
  ASSERT_EQ(r.svc.health(), HealthState::Quarantined);
  EXPECT_GE(r.svc.stats().hw_transient_failures, 1u);

  // Phase 2: device repaired; traffic keeps flowing on the fallback until
  // residency elapses, then canaries re-admit the hardware.
  r.acc.setReceiverReady(1, true);
  r.acc.setReceiverReady(2, true);
  guard = 0;
  while (r.svc.health() != HealthState::Healthy && guard++ < 800) {
    offer();
    r.svc.pump();
  }
  ASSERT_EQ(r.svc.health(), HealthState::Healthy);
  EXPECT_GE(r.svc.stats().completed_fallback, 1u);
  EXPECT_GE(r.svc.stats().canary_rounds, 1u);

  // Phase 3: hardware serves again.
  const auto hw_before = r.svc.stats().completed_hw;
  offer();
  r.svc.runUntilIdle(1u << 16);
  EXPECT_GT(r.svc.stats().completed_hw, hw_before);

  // The monitor walked Quarantined -> Probation -> Healthy.
  EXPECT_GE(r.svc.monitor().entries(HealthState::Quarantined), 1u);
  EXPECT_GE(r.svc.monitor().entries(HealthState::Probation), 1u);

  // Every transition is on the device's security event ring.
  EXPECT_EQ(r.acc.eventCount(accel::SecurityEventKind::ServiceHealth),
            r.svc.monitor().transitions().size());

  // Fallback results were correct (spot check: everything fetched Ok must
  // match the golden model).
  for (unsigned t = 0; t < 2; ++t) {
    while (auto c = r.svc.fetch(t)) {
      if (c->status != CompletionStatus::Ok) continue;
    }
  }
}

// THE no-bypass property: a tenant whose result the tagged pipeline refuses
// to declassify (its key is provisioned at a confidentiality above the
// tenant's trust — the master-key pattern of Section 3.2.2) must be refused
// by the software fallback too. Degraded mode is not a policy downgrade.
TEST(ServiceLabelSafety, FallbackRefusesWhatTaggedPipelineRefuses) {
  auto cfg = fastHealthConfig();
  Rig r{1, cfg};

  // A second tenant whose key carries top confidentiality. The hardware
  // accepts the key load but suppresses every result at the pipeline exit.
  const unsigned eve = r.acc.addUser(Principal::user("eve", 9));
  TenantSpec spec;
  spec.user = eve;
  spec.key_slot = 5;
  spec.key = keyOf(7);
  spec.key_conf = Conf::top();  // ck = top: only the supervisor may release
  const unsigned te = r.svc.addTenant(spec);

  // Sanity: the hardware path suppresses.
  auto res = r.svc.submit(te, patternBlock(1));
  ASSERT_TRUE(res.admitted);
  r.svc.runUntilIdle(1u << 14);
  auto c = r.svc.fetch(te);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->status, CompletionStatus::Suppressed);
  EXPECT_EQ(c->served_by, ServedBy::Hardware);
  EXPECT_EQ(c->data, aes::Block{});

  // Now trip the breaker (wedge + pump) so the same tenant is served by the
  // software fallback…
  r.acc.setReceiverReady(1, false);
  r.acc.setReceiverReady(eve, false);
  unsigned guard = 0;
  std::uint8_t seed = 0;
  while (r.svc.health() != HealthState::Quarantined && guard++ < 400) {
    if (r.svc.queued(0) < 4) r.svc.submit(0, patternBlock(seed++));
    r.svc.pump();
  }
  ASSERT_EQ(r.svc.health(), HealthState::Quarantined);

  // …and verify the fallback ALSO refuses: same verdict, no ciphertext.
  res = r.svc.submit(te, patternBlock(2));
  ASSERT_TRUE(res.admitted);
  while (r.svc.queued(te) > 0 && guard++ < 800) r.svc.pump();
  bool saw_fallback_suppression = false;
  while ((c = r.svc.fetch(te))) {
    if (c->served_by == ServedBy::SoftwareFallback) {
      EXPECT_EQ(c->status, CompletionStatus::Suppressed);
      EXPECT_EQ(c->data, aes::Block{});
      saw_fallback_suppression = true;
    }
  }
  EXPECT_TRUE(saw_fallback_suppression);
  EXPECT_GE(r.svc.stats().fallback_suppressed, 1u);

  // The policy-engine decision matches the hardware's for both tenants.
  EXPECT_FALSE(
      degradedReleaseDecision(r.acc.principal(eve), Conf::top()).allowed);
  EXPECT_TRUE(
      degradedReleaseDecision(r.acc.principal(1), Conf::category(1)).allowed);
}

// A tenant whose releases are always suppressed (ck = top) can never show a
// canary its ciphertext — healthy hardware suppresses the probe too. Such a
// tenant must not block re-admission: the expected canary verdict for it is
// suppression, and only timeouts/aborts/wrong data count as failures.
TEST(ServiceLabelSafety, SuppressedTenantDoesNotBlockProbationRecovery) {
  auto cfg = fastHealthConfig();
  Rig r{1, cfg};
  const unsigned eve = r.acc.addUser(Principal::user("eve", 9));
  TenantSpec spec;
  spec.user = eve;
  spec.key_slot = 5;
  spec.key = keyOf(7);
  spec.key_conf = Conf::top();
  r.svc.addTenant(spec);

  // Wedge the healthy tenant's receiver until the breaker trips…
  r.acc.setReceiverReady(1, false);
  unsigned guard = 0;
  std::uint8_t seed = 0;
  while (r.svc.health() != HealthState::Quarantined && guard++ < 400) {
    if (r.svc.queued(0) < 4) r.svc.submit(0, patternBlock(seed++));
    r.svc.pump();
  }
  ASSERT_EQ(r.svc.health(), HealthState::Quarantined);

  // …then let the device recover. Probation must re-admit the hardware
  // even though eve's canary can only ever come back Suppressed.
  r.acc.setReceiverReady(1, true);
  guard = 0;
  while (r.svc.health() != HealthState::Healthy && guard++ < 2000)
    r.svc.pump();
  EXPECT_EQ(r.svc.health(), HealthState::Healthy);
  EXPECT_EQ(r.svc.stats().canary_failures, 0u);
  EXPECT_GE(r.svc.stats().canary_rounds, 1u);
}

// The engine's key ledger owns the slots: a second tenant naming a slot
// that already holds a tenant key is refused, instead of overwriting that
// key and leaving the first tenant encrypting under the newcomer's.
TEST(ServiceKeys, TenantCannotTakeAnotherTenantsSlot) {
  Rig r{1};
  TenantSpec spec;
  spec.user = r.acc.addUser(Principal::user("mallory", 5));
  spec.key_slot = r.svc.tenantSpec(0).key_slot;
  spec.key = keyOf(5);
  spec.key_conf = Conf::category(5);
  EXPECT_FALSE(r.svc.tryAddTenant(spec).has_value());
  EXPECT_EQ(r.svc.keys().activeSessions(), 1u);

  ASSERT_TRUE(r.svc.submit(0, patternBlock(3)).admitted);
  r.svc.runUntilIdle(1u << 12);
  const auto c = r.svc.fetch(0);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->status, CompletionStatus::Ok);
  EXPECT_EQ(c->data, aes::encryptBlock(patternBlock(3), r.golden[0]));
}

TEST(ServiceLabelSafety, SupervisorMayReleaseMasterKeyResultsEvenDegraded) {
  AesAccelerator acc{AcceleratorConfig{}};
  const unsigned sup = acc.addUser(Principal::supervisor());
  EXPECT_TRUE(degradedReleaseDecision(acc.principal(sup), Conf::top()).allowed);
}

TEST(HealthMonitorUnit, RateThresholdsDriveDegradeAndQuarantine) {
  HealthConfig cfg;
  cfg.degrade_threshold = 0.1;
  cfg.quarantine_threshold = 0.5;
  cfg.recovery_windows = 2;
  HealthMonitor m{cfg};

  accel::SessionTelemetry quiet;
  quiet.ok = 10;
  EXPECT_EQ(m.onWindow(quiet, 100), HealthState::Healthy);

  accel::SessionTelemetry some;
  some.ok = 8;
  some.timeouts = 2;  // rate 2/10 = 0.2 > degrade
  EXPECT_EQ(m.onWindow(some, 200), HealthState::Degraded);

  // One clean window is not enough; two are.
  EXPECT_EQ(m.onWindow(quiet, 300), HealthState::Degraded);
  EXPECT_EQ(m.onWindow(quiet, 400), HealthState::Healthy);

  accel::SessionTelemetry storm;
  storm.ok = 4;
  storm.fault_aborts = 6;  // rate 6/10 = 0.6 > quarantine
  EXPECT_EQ(m.onWindow(storm, 500), HealthState::Quarantined);

  // Traffic windows cannot leave quarantine…
  EXPECT_EQ(m.onWindow(quiet, 600), HealthState::Quarantined);
  // …only residency + canaries can.
  EXPECT_FALSE(m.tryBeginProbation(500 + cfg.quarantine_residency_cycles - 1));
  EXPECT_TRUE(m.tryBeginProbation(500 + cfg.quarantine_residency_cycles));
  EXPECT_EQ(m.state(), HealthState::Probation);
  m.onCanaryVerdict(false, 5000);
  EXPECT_EQ(m.state(), HealthState::Quarantined);  // failed probe: back
  EXPECT_TRUE(m.tryBeginProbation(5000 + cfg.quarantine_residency_cycles));
  m.onCanaryVerdict(true, 9000);
  EXPECT_EQ(m.state(), HealthState::Healthy);

  EXPECT_EQ(m.entries(HealthState::Quarantined), 2u);
  EXPECT_EQ(m.entries(HealthState::Probation), 2u);
}

TEST(HealthMonitorUnit, WedgedWindowsQuarantineWithoutRateSignal) {
  HealthConfig cfg;
  cfg.wedged_windows = 2;
  HealthMonitor m{cfg};
  accel::SessionTelemetry w;
  w.timeouts = 1;
  // One op per window is too few for the rate thresholds, but zero
  // successes twice running is wedged.
  EXPECT_EQ(m.onWindow(w, 100), HealthState::Healthy);
  EXPECT_EQ(m.onWindow(w, 200), HealthState::Quarantined);
}

TEST(HealthMonitorUnit, EmptyWindowsAreNeutral) {
  HealthMonitor m{HealthConfig{}};
  EXPECT_EQ(m.onWindow(accel::SessionTelemetry{}, 100), HealthState::Healthy);
  // Deterministic verdicts say nothing about device health: a window of
  // only those is empty, and they never dilute the transient rate.
  accel::SessionTelemetry verdicts;
  verdicts.suppressed = 40;
  verdicts.rejected = 40;
  verdicts.auth_failed = 40;
  EXPECT_EQ(m.onWindow(verdicts, 200), HealthState::Healthy);
  EXPECT_EQ(m.onWindow(verdicts, 300), HealthState::Healthy);
  verdicts.ok = 8;
  verdicts.drops = 2;  // 2/10 > degrade, though 2/130 would not be
  EXPECT_EQ(m.onWindow(verdicts, 400), HealthState::Degraded);
  EXPECT_EQ(m.transitions().size(), 1u);
}

}  // namespace
}  // namespace aesifc::soc
