// Fault-campaign bench: throughput and recovery-latency cost of the
// fail-secure hardening under seeded fault injection, hardening on vs off,
// at several fault rates. Each configuration is one run of
// soc::runDeviceFaultCampaign (seed 2019, three tenants x 40 rounds of one
// block op each, a decrypt with probability 0.4, plus a GCM seal every
// fourth round), and its report is one JSON record: `fault_campaign` for
// the hardened rows, `fault_campaign_unhardened` for the control rows.
// Every released block and tag goes through the campaign oracle
// (soc::Oracle); CI gates wrong_block_releases == wrong_tag_releases == 0 on
// the hardened rows, and the unhardened rows show the check firing (wrong
// blocks at every nonzero rate). A hardened row whose report breaks any
// fail-secure invariant (DeviceCampaignReport::violations, which the tier-1
// tests and the soak also read) prints them under the row.
//
// "Recovery latency" is driver-visible: the mean extra device cycles a
// successful operation costs at a given fault rate compared to the same
// seed with no faults (retries, backoff, and scrub-induced aborts).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "soc/fault_injector.h"
#include "soc/metrics.h"
#include "soc/pool.h"
#include "soc/supervisor.h"
#include "soc/workload.h"

namespace {

using namespace aesifc;
using soc::DeviceCampaignReport;

// Offers are the campaign's own count of block and AEAD ops; the buckets are
// the sessions' terminal verdicts, so a driver that loses or double-counts a
// verdict breaks the identity.
soc::Conservation conservationOf(const DeviceCampaignReport& o) {
  const accel::SessionTelemetry& t = o.telemetry;
  soc::Conservation c;
  c.offered = o.ops + o.gcm_ops;
  c.ok = t.ok;
  c.suppressed = t.suppressed;
  c.rejected = t.rejected;
  c.failed = t.timeouts + t.fault_aborts + t.drops + t.auth_failed;
  return c;
}

// Single construction point for the robustness scorecard (the JSON record
// and the aggregate row must agree on how counters map).
soc::RobustnessStats robustnessOf(const DeviceCampaignReport& o) {
  soc::RobustnessStats rs;
  rs.faults_injected = o.campaign.injected;
  rs.faults_detected = o.campaign.detected;
  rs.faults_recovered = o.campaign.recovered;
  rs.fault_aborts = o.campaign.aborted;
  rs.retries = o.retries;
  rs.timeouts = o.telemetry.timeouts;
  rs.drops = o.dropped + o.campaign.host_drops;
  return rs;
}

// One record: the campaign's report, spliced between its keys and the
// bench's derived fields.
std::string campaignJson(bool hardened, double rate,
                         const DeviceCampaignReport& o, double per_op,
                         double recovery) {
  char head[128], tail[128];
  std::snprintf(head, sizeof(head),
                "{\"bench\":\"%s\",\"hardened\":%s,\"fault_rate\":%.3f,",
                hardened ? "fault_campaign" : "fault_campaign_unhardened",
                hardened ? "true" : "false", rate);
  std::snprintf(tail, sizeof(tail),
                ",\"cycles_per_ok_op\":%.2f,\"recovery_latency_cycles\":%.2f",
                per_op, recovery);
  return head + bench::jsonMembers(o.toJson()) + tail +
         ",\"robustness\":" + robustnessOf(o).toJson() +
         ",\"conservation\":" + conservationOf(o).toJson() + "}";
}

void printCampaigns() {
  std::printf("==============================================================\n");
  std::printf("Fault campaign: fail-secure hardening cost & recovery\n");
  std::printf("==============================================================\n");
  std::printf("%-9s %-7s %-6s %-6s %-8s %-9s %-10s %-9s %-9s %-8s %-9s\n",
              "hardened", "rate", "ops", "ok", "gcm-ok", "cycles",
              "cyc/ok-op", "detected", "aborted", "retries", "wrong-blk");

  // Per-mode fault-free baseline for the recovery-latency delta, plus one
  // aggregate scorecard per mode summed over all rates.
  for (const bool hardened : soc::kGatedCampaignHardened) {
    soc::RobustnessStats aggregate;
    double base_cyc_per_op = 0.0;
    for (const double rate : soc::kGatedCampaignRates) {
      const auto o =
          soc::runDeviceFaultCampaign(soc::kGatedCampaignSeed, rate, hardened);
      const double per_op =
          o.ok ? static_cast<double>(o.device_cycles) / o.ok : 0.0;
      if (rate == 0.0) base_cyc_per_op = per_op;
      const double recovery = per_op - base_cyc_per_op;  // extra cycles/op
      std::printf(
          "%-9s %-7.3f %-6llu %-6llu %-2llu/%-5llu %-9llu %-10.1f %-9llu "
          "%-9llu %-8llu %-9llu%s\n",
          hardened ? "yes" : "no", rate,
          static_cast<unsigned long long>(o.ops),
          static_cast<unsigned long long>(o.ok),
          static_cast<unsigned long long>(o.gcm_ok),
          static_cast<unsigned long long>(o.gcm_ops),
          static_cast<unsigned long long>(o.device_cycles), per_op,
          static_cast<unsigned long long>(o.campaign.detected),
          static_cast<unsigned long long>(o.campaign.aborted),
          static_cast<unsigned long long>(o.retries),
          static_cast<unsigned long long>(o.wrong_block_releases),
          o.wrong_tag_releases ? "  [WRONG TAG RELEASED!]" : "");
      if (hardened && !o.violations().empty())
        std::printf("  [FAIL-SECURE VIOLATED]\n%s", o.violations().c_str());
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
      "unhardened design keeps its throughput by silently releasing wrong\n"
      "blocks (the wrong-blk column) and wrong auth tags, while the hardened\n"
      "design converts upsets into detected aborts + bounded driver retries:\n"
      "its wrong_block_releases and wrong_tag_releases stay 0 at every\n"
      "fault rate.\n\n");
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
  soc::Conservation cons;
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

void BM_Campaign(benchmark::State& state) {
  const bool hardened = state.range(0) != 0;
  const double rate = static_cast<double>(state.range(1)) / 1000.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        soc::runDeviceFaultCampaign(soc::kGatedCampaignSeed, rate, hardened));
  }
}
BENCHMARK(BM_Campaign)
    ->ArgsProduct({{0, 1}, {0, 20}})
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  printCampaigns();
  printPoolResilience();
  // AESIFC_BENCH_SMOKE: CI keep-alive mode — the campaign table and JSON
  // records above already ran; skip the Google Benchmark timing loops.
  if (aesifc::bench::smokeMode()) return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
