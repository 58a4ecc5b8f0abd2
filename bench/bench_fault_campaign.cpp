// Fault-campaign bench: throughput and recovery-latency cost of the
// fail-secure hardening under seeded fault injection, hardening on vs off,
// at several fault rates. Emits one JSON record per configuration (plus a
// human-readable table) so campaign results can be tracked over time.
//
// "Recovery latency" is driver-visible: the mean extra device cycles a
// successful operation costs at a given fault rate compared to the same
// seed with no faults (retries, backoff, and scrub-induced aborts).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <map>

#include "conservation.h"
#include "accel/driver.h"
#include "aes/gcm.h"
#include "common/rng.h"
#include "soc/fault_injector.h"
#include "soc/metrics.h"
#include "soc/pool.h"
#include "soc/supervisor.h"

namespace {

using namespace aesifc;
using accel::AccelSession;
using accel::AccelStatus;
using accel::AcceleratorConfig;
using accel::AesAccelerator;
using accel::SecurityMode;
using accel::SessionOptions;
using lattice::Conf;
using lattice::Principal;

struct CampaignOutcome {
  unsigned ops = 0;
  unsigned ok = 0;
  unsigned gcm_ops = 0;  // AEAD seals interleaved with the block traffic
  unsigned gcm_ok = 0;
  // The fail-secure property under GHASH-state faults: a released tag that
  // differs from the golden host computation. Must stay 0 — a faulted op
  // may abort, but may never authenticate wrong data.
  unsigned wrong_tag_releases = 0;
  std::uint64_t device_cycles = 0;
  std::uint64_t retries = 0;
  soc::FaultCampaignReport report;
  AesAccelerator::Stats stats;
  accel::SessionTelemetry telemetry;  // terminal driver verdicts
};

// Offers are the campaign's own count of block and AEAD ops; the buckets are
// the sessions' terminal verdicts, so a driver that loses or double-counts a
// verdict breaks the identity.
bench::Conservation conservationOf(const CampaignOutcome& o) {
  const accel::SessionTelemetry& t = o.telemetry;
  bench::Conservation c;
  c.offered = o.ops + o.gcm_ops;
  c.ok = t.ok;
  c.suppressed = t.suppressed;
  c.rejected = t.rejected;
  c.failed = t.timeouts + t.fault_aborts + t.drops + t.auth_failed;
  return c;
}

// Single construction point for the robustness scorecard (the JSON record
// and the aggregate row must agree on how counters map).
soc::RobustnessStats robustnessOf(const CampaignOutcome& o) {
  soc::RobustnessStats rs;
  rs.faults_injected = o.report.injected;
  rs.faults_detected = o.stats.faults_detected;
  rs.faults_recovered = o.stats.faults_recovered;
  rs.fault_aborts = o.stats.fault_aborted;
  rs.retries = o.retries;
  rs.timeouts = o.telemetry.timeouts;
  rs.drops = o.stats.dropped + o.report.host_drops;
  return rs;
}

std::string campaignJson(bool hardened, double rate,
                         const CampaignOutcome& o, double per_op,
                         double recovery) {
  char head[256];
  std::snprintf(head, sizeof(head),
                "{\"bench\":\"fault_campaign\",\"hardened\":%s,"
                "\"fault_rate\":%.3f,\"ops\":%u,\"ok\":%u,"
                "\"gcm_ops\":%u,\"gcm_ok\":%u,\"wrong_tag_releases\":%u,"
                "\"device_cycles\":%llu,\"cycles_per_ok_op\":%.2f,"
                "\"recovery_latency_cycles\":%.2f",
                hardened ? "true" : "false", rate, o.ops, o.ok, o.gcm_ops,
                o.gcm_ok, o.wrong_tag_releases,
                static_cast<unsigned long long>(o.device_cycles), per_op,
                recovery);
  return std::string(head) + ",\"robustness\":" + robustnessOf(o).toJson() +
         ",\"campaign\":" + o.report.toJson() +
         ",\"conservation\":" + conservationOf(o).toJson() + "}";
}

CampaignOutcome runCampaign(bool hardened, double rate, std::uint64_t seed,
                            unsigned ops_per_user) {
  AcceleratorConfig cfg;
  cfg.mode = SecurityMode::Protected;
  cfg.fault_hardening = hardened;
  cfg.out_buffer_depth = 16;
  AesAccelerator acc{cfg};
  acc.addUser(Principal::supervisor());
  constexpr unsigned kUsers = 3;
  unsigned users[kUsers];
  std::vector<std::vector<std::uint8_t>> keys(kUsers);
  Rng rng{seed};
  for (unsigned u = 0; u < kUsers; ++u) {
    users[u] = acc.addUser(Principal::user("u" + std::to_string(u), u + 1));
    keys[u].resize(16);
    for (auto& b : keys[u]) b = static_cast<std::uint8_t>(rng.next());
    accel::loadKey128(acc, users[u], u + 1, 2 * u, keys[u],
                      Conf::category(u + 1));
  }

  soc::FaultCampaignConfig fcfg;
  fcfg.seed = seed * 7919;
  fcfg.fault_rate = rate;
  soc::FaultInjector inj{acc, fcfg, {users[0], users[1], users[2]}};
  if (rate > 0.0) acc.setTickHook([&] { inj.tick(); });

  SessionOptions opts;
  opts.timeout_cycles = 1200;
  opts.max_retries = 3;
  opts.backoff_cycles = 16;
  std::vector<AccelSession> sessions;
  for (unsigned u = 0; u < kUsers; ++u)
    sessions.emplace_back(acc, users[u], u + 1, opts);

  CampaignOutcome out;
  std::vector<bool> needs_reload(kUsers, false);
  const std::uint64_t t0 = acc.cycle();
  for (unsigned round = 0; round < ops_per_user; ++round) {
    for (unsigned u = 0; u < kUsers; ++u) {
      if (needs_reload[u]) {
        if (!accel::loadKey128(acc, users[u], u + 1, 2 * u, keys[u],
                               Conf::category(u + 1))) {
          continue;
        }
        needs_reload[u] = false;
      }
      aes::Block pt;
      for (auto& b : pt) b = static_cast<std::uint8_t>(rng.next());
      ++out.ops;
      const auto r = sessions[u].encryptBlock(pt);
      if (r.has_value()) {
        ++out.ok;
      } else if (r.status() == AccelStatus::Rejected) {
        needs_reload[u] = true;
      }
      // Every fourth round, a whole AEAD op rides along so the GHASH fault
      // sites see live state. Any released tag is checked against the
      // golden host GCM — hardened or not, a wrong tag accepted as valid
      // is the campaign's one disqualifying outcome.
      if (round % 4 == 3 && !needs_reload[u]) {
        std::vector<std::uint8_t> msg(40), aad(8), iv(12);
        for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next());
        for (auto& b : aad) b = static_cast<std::uint8_t>(rng.next());
        for (auto& b : iv) b = static_cast<std::uint8_t>(rng.next());
        ++out.gcm_ops;
        const auto sealed = sessions[u].gcmSeal(msg, aad, iv);
        if (sealed.has_value()) {
          ++out.gcm_ok;
          const auto want = aes::gcmEncrypt(
              msg, aad, aes::expandKey(keys[u], aes::KeySize::Aes128), iv);
          if (sealed->tag != want.tag ||
              sealed->ciphertext != want.ciphertext) {
            ++out.wrong_tag_releases;
          }
        } else if (sealed.status() == AccelStatus::Rejected) {
          needs_reload[u] = true;
        }
      }
    }
  }
  acc.setTickHook(nullptr);
  inj.releaseStuckReceivers();
  out.device_cycles = acc.cycle() - t0;
  for (const auto& s : sessions) {
    out.retries += s.retries();
    out.telemetry += s.telemetry();
  }
  out.report = inj.report();
  out.stats = acc.stats();
  return out;
}

void printCampaigns() {
  constexpr unsigned kOps = 40;
  constexpr std::uint64_t kSeed = 2019;
  const double rates[] = {0.0, 0.005, 0.02, 0.05};

  std::printf("==============================================================\n");
  std::printf("Fault campaign: fail-secure hardening cost & recovery\n");
  std::printf("==============================================================\n");
  std::printf("%-9s %-7s %-6s %-6s %-8s %-9s %-10s %-9s %-9s %-8s\n",
              "hardened", "rate", "ops", "ok", "gcm-ok", "cycles",
              "cyc/ok-op", "detected", "aborted", "retries");

  // Per-mode fault-free baseline for the recovery-latency delta, plus one
  // aggregate scorecard per mode summed over all rates.
  double base_cyc_per_op[2] = {0.0, 0.0};
  for (const bool hardened : {false, true}) {
    soc::RobustnessStats aggregate;
    for (const double rate : rates) {
      const auto o = runCampaign(hardened, rate, kSeed, kOps);
      const double per_op =
          o.ok ? static_cast<double>(o.device_cycles) / o.ok : 0.0;
      if (rate == 0.0) base_cyc_per_op[hardened ? 1 : 0] = per_op;
      const double recovery =
          per_op - base_cyc_per_op[hardened ? 1 : 0];  // extra cycles/op
      std::printf(
          "%-9s %-7.3f %-6u %-6u %-2u/%-5u %-9llu %-10.1f %-9llu %-9llu "
          "%-8llu%s\n",
          hardened ? "yes" : "no", rate, o.ops, o.ok, o.gcm_ok, o.gcm_ops,
          static_cast<unsigned long long>(o.device_cycles), per_op,
          static_cast<unsigned long long>(o.stats.faults_detected),
          static_cast<unsigned long long>(o.stats.fault_aborted),
          static_cast<unsigned long long>(o.retries),
          o.wrong_tag_releases ? "  [WRONG TAG RELEASED!]" : "");
      aggregate += robustnessOf(o);
      std::printf("JSON %s\n",
                  campaignJson(hardened, rate, o, per_op, recovery).c_str());
    }
    std::printf(
        "JSON {\"bench\":\"fault_campaign_aggregate\",\"hardened\":%s,"
        "\"robustness\":%s}\n",
        hardened ? "true" : "false", aggregate.toJson().c_str());
  }
  std::printf(
      "\nHardening on a quiet device costs ~0 cycles; under faults the\n"
      "unhardened design keeps its throughput by silently emitting wrong\n"
      "ciphertext, while the hardened design converts upsets into detected\n"
      "aborts + bounded driver retries. The AEAD column is the fail-secure\n"
      "check for the GHASH sites: the unhardened device releases auth tags\n"
      "that differ from the golden host GCM, the hardened device must not —\n"
      "its wrong_tag_releases stays 0 at every fault rate.\n\n");
}

// --- Pool resilience: availability decorrelation under shard quarantine -----
//
// Two identical runs over an elastic 4-shard pool — one clean, one with a
// single shard force-quarantined mid-campaign (plus a round-key fault, so
// the quarantine is "real") and the supervisor evacuating its tenants. The
// decorrelation claims, each a gated JSON field:
//
//  * aggregate_availability >= (shards-1)/shards during the quarantine run:
//    losing one shard costs at most that shard's share (in practice less —
//    evacuated tenants keep serving from their new homes and the software
//    fallback covers the gap).
//  * untouched_trace_mismatch == 0: shards that neither quarantined nor
//    received evacuees produce BIT-IDENTICAL completion-cycle traces in
//    both runs — the incident is invisible outside the shards it touched,
//    which is the share-nothing isolation argument stated as cycles.
//  * wrong_key_uses == 0: no request ever reached a serve path under a
//    stale or zeroized key while tenants were being evacuated mid-traffic.

struct PoolResilienceOutcome {
  std::uint64_t offered = 0;
  std::uint64_t ok = 0;
  std::vector<std::uint64_t> shard_offered;  // by the tenant's original home
  std::vector<std::uint64_t> shard_ok;
  // tenant -> completion-cycle sequence (the per-shard device timeline).
  std::map<unsigned, std::vector<std::uint64_t>> traces;
  std::vector<unsigned> home;   // tenant -> shard at placement time
  std::vector<unsigned> final_shard;
  unsigned quarantined = 0;     // shard hit in the quarantine scenario
  std::uint64_t migrations = 0;
  std::uint64_t wrong_key_uses = 0;
  bench::Conservation cons;
};

PoolResilienceOutcome runPoolResilience(bool quarantine, std::uint64_t seed) {
  constexpr unsigned kShards = 4, kTenants = 8;
  constexpr unsigned kRounds = 30, kPerRound = 6, kQuarantineRound = 10;

  soc::PoolConfig cfg;
  cfg.shards = kShards;
  cfg.service.batch_size = 4;
  cfg.service.quota_per_round = 16;
  cfg.service.global_high_watermark = 4096;
  // Keep the sick shard down for the whole campaign: this measures life
  // WITHOUT the shard, not the probation path.
  cfg.service.health.quarantine_residency_cycles = 1ull << 40;
  soc::EnginePool pool{cfg};
  soc::PoolSupervisor sup{pool, soc::SupervisorConfig{}};

  PoolResilienceOutcome out;
  out.shard_offered.assign(kShards, 0);
  out.shard_ok.assign(kShards, 0);
  std::vector<unsigned> ids;
  Rng rng{seed};
  for (unsigned t = 0; t < kTenants; ++t) {
    soc::PoolTenantSpec spec;
    spec.name = "tenant-" + std::to_string(t);
    spec.category = (t % 14) + 1;
    spec.key.resize(16);
    for (auto& b : spec.key) b = static_cast<std::uint8_t>(rng.next());
    spec.queue_depth = 64;
    const auto placed = pool.addTenant(spec);
    if (!placed.placed) std::abort();  // campaign config guarantees room
    ids.push_back(placed.tenant);
    out.home.push_back(pool.shardOf(placed.tenant));
  }
  // Both scenarios agree on the victim (placement is deterministic).
  out.quarantined = pool.shardOf(ids[0]);

  for (unsigned round = 0; round < kRounds; ++round) {
    if (quarantine && round == kQuarantineRound) {
      (void)pool.shardEngine(out.quarantined)
          .injectFault(accel::FaultSite::RoundKey, 1, 3);
      pool.shardService(out.quarantined)
          .forceQuarantine("campaign: shard incident");
    }
    for (unsigned i = 0; i < kPerRound; ++i) {
      for (unsigned t = 0; t < kTenants; ++t) {
        aes::Block pt;
        for (auto& b : pt) b = static_cast<std::uint8_t>(rng.next());
        ++out.offered;
        ++out.shard_offered[out.home[t]];
        out.cons.offer(pool.submit(ids[t], pt).admitted);
      }
    }
    sup.poll();
    for (unsigned p = 0; p < 4; ++p) pool.pump();
  }
  pool.runUntilIdle(1u << 20);

  for (unsigned t = 0; t < kTenants; ++t) {
    out.final_shard.push_back(pool.shardOf(ids[t]));
    auto& trace = out.traces[t];
    while (auto c = pool.fetch(ids[t])) {
      trace.push_back(c->complete_cycle);
      out.cons.resolve(c->status);
      if (c->status == soc::CompletionStatus::Ok) {
        ++out.ok;
        ++out.shard_ok[out.home[t]];
      }
    }
  }
  out.cons.still_queued = pool.totalQueued();
  out.migrations = pool.poolStats().migrations;
  out.wrong_key_uses = pool.aggregateStats().wrong_key_uses;
  return out;
}

void printPoolResilience() {
  constexpr std::uint64_t kSeed = 2019;
  constexpr unsigned kShards = 4, kTenants = 8;
  const auto base = runPoolResilience(false, kSeed);
  const auto quar = runPoolResilience(true, kSeed);

  // Untouched shards: not the quarantined one, nobody left, nobody arrived.
  std::vector<bool> untouched(kShards, true);
  untouched[quar.quarantined] = false;
  for (unsigned t = 0; t < kTenants; ++t) {
    if (quar.final_shard[t] != quar.home[t]) {
      untouched[quar.home[t]] = false;
      untouched[quar.final_shard[t]] = false;
    }
  }
  unsigned untouched_count = 0;
  unsigned trace_mismatch = 0;
  for (unsigned s = 0; s < kShards; ++s) {
    if (!untouched[s]) continue;
    ++untouched_count;
    for (unsigned t = 0; t < kTenants; ++t) {
      if (quar.home[t] != s) continue;
      if (base.traces.at(t) != quar.traces.at(t)) ++trace_mismatch;
    }
  }

  const double floor =
      static_cast<double>(kShards - 1) / static_cast<double>(kShards);
  std::printf("==============================================================\n");
  std::printf("Pool resilience: availability decorrelation under quarantine\n");
  std::printf("==============================================================\n");
  std::printf("%-11s %-8s %-8s %-13s %-11s %-10s %-9s\n", "scenario",
              "offered", "ok", "availability", "migrations", "untouched",
              "wrongkey");
  for (const auto* o : {&base, &quar}) {
    const bool q = (o == &quar);
    const double avail =
        o->offered ? static_cast<double>(o->ok) / o->offered : 0.0;
    std::printf("%-11s %-8llu %-8llu %-13.4f %-11llu %-10s %-9llu\n",
                q ? "quarantine" : "baseline",
                static_cast<unsigned long long>(o->offered),
                static_cast<unsigned long long>(o->ok), avail,
                static_cast<unsigned long long>(o->migrations),
                q ? (std::to_string(untouched_count) + " shards").c_str()
                  : "-",
                static_cast<unsigned long long>(o->wrong_key_uses));
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "{\"bench\":\"pool_resilience\",\"scenario\":\"%s\","
        "\"shards\":%u,\"tenants\":%u,\"offered\":%llu,\"ok\":%llu,"
        "\"aggregate_availability\":%.4f,\"availability_floor\":%.4f,"
        "\"untouched_shards\":%u,\"untouched_trace_mismatch\":%u,"
        "\"wrong_key_uses\":%llu,\"migrations\":%llu,"
        "\"quarantined_shard\":%u,",
        q ? "quarantine" : "baseline", kShards, kTenants,
        static_cast<unsigned long long>(o->offered),
        static_cast<unsigned long long>(o->ok), avail, floor,
        q ? untouched_count : kShards, q ? trace_mismatch : 0u,
        static_cast<unsigned long long>(o->wrong_key_uses),
        static_cast<unsigned long long>(o->migrations), quar.quarantined);
    std::printf("JSON %s\"conservation\":%s}\n", buf,
                o->cons.toJson().c_str());
  }
  std::printf(
      "\nLosing one of %u shards keeps aggregate availability above %.0f%%\n"
      "(the quarantined shard's tenants are evacuated mid-traffic and keep\n"
      "serving from their new homes), the untouched shards' completion-cycle\n"
      "traces are bit-identical to the clean run, and wrong_key_uses stays 0\n"
      "through the whole evacuation.\n\n",
      kShards, 100.0 * floor);
}

void BM_CampaignHardened(benchmark::State& state) {
  const double rate = static_cast<double>(state.range(0)) / 1000.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(runCampaign(true, rate, 2019, 20));
  }
}
BENCHMARK(BM_CampaignHardened)->Arg(0)->Arg(20)->Unit(benchmark::kMillisecond);

void BM_CampaignUnhardened(benchmark::State& state) {
  const double rate = static_cast<double>(state.range(0)) / 1000.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(runCampaign(false, rate, 2019, 20));
  }
}
BENCHMARK(BM_CampaignUnhardened)->Arg(0)->Arg(20)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  printCampaigns();
  printPoolResilience();
  // AESIFC_BENCH_SMOKE: CI keep-alive mode — the campaign table and JSON
  // records above already ran; skip the Google Benchmark timing loops.
  const char* smoke = std::getenv("AESIFC_BENCH_SMOKE");
  if (smoke && *smoke && std::string{smoke} != "0") return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
