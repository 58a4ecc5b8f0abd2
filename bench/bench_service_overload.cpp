// Service-overload bench: the multi-tenant front end under three regimes —
// a healthy device, admission-control overload (queues past the watermark),
// and a fault storm that trips the circuit breaker into software fallback.
// The phases are soc::runServiceCampaign(); this prints its per-phase
// throughput (Ok blocks per device cycle), tenant fairness (min/max
// completed) and admission/shedding counters, one JSON record per phase.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "soc/fault_injector.h"

namespace {

using namespace aesifc;
using soc::HealthState;
using soc::ServiceCampaign;

void printOverloadStudy() {
  std::printf("==============================================================\n");
  std::printf("Multi-tenant service: overload, breaker trip, recovery\n");
  std::printf("==============================================================\n");
  std::printf("%-10s %-9s %-9s %-8s %-7s %-7s %-12s\n", "phase", "ok",
              "cycles", "blk/cyc", "min-ok", "max-ok", "health");
  for (const auto& r : soc::runServiceCampaign().phases) {
    std::printf("%-10s %-9llu %-9llu %-8.4f %-7llu %-7llu %-12s\n",
                r.phase.c_str(), static_cast<unsigned long long>(r.ok),
                static_cast<unsigned long long>(r.cycles), r.blocksPerCycle(),
                static_cast<unsigned long long>(r.min_tenant_ok),
                static_cast<unsigned long long>(r.max_tenant_ok),
                toString(r.health).c_str());
    std::printf("JSON {\"bench\":\"service_overload\",%s\n",
                r.toJson().c_str() + 1);
  }
  std::printf(
      "\nAdmission control keeps every tenant inside its queue budget, the\n"
      "breaker converts a wedged device into fallback service instead of\n"
      "timeouts, and probation canaries restore hardware throughput.\n\n");
}

void BM_ServicePumpHealthy(benchmark::State& state) {
  ServiceCampaign c;
  for (auto _ : state) benchmark::DoNotOptimize(c.round());
}
BENCHMARK(BM_ServicePumpHealthy)->Unit(benchmark::kMicrosecond);

void BM_ServicePumpQuarantined(benchmark::State& state) {
  ServiceCampaign c;
  // Trip the breaker once, then measure fallback-path pumping.
  for (const unsigned u : c.users()) c.device().setReceiverReady(u, false);
  for (unsigned g = 0;
       c.service().health() != HealthState::Quarantined && g < 3000; ++g)
    c.round();
  for (auto _ : state) benchmark::DoNotOptimize(c.round());
}
BENCHMARK(BM_ServicePumpQuarantined)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  printOverloadStudy();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
