// perfbench: end-to-end and per-layer measurement of the serving path.
//
//   perfbench --workload bulk_ecb|mixed_open|aead_mix --seed N --seconds S
//             --trace 0|1
//   perfbench --sweep [--seed N]     mixed_open offered-load sweep
//
// A run repeats rounds of episodes until `--seconds` have passed. Every
// round replays the same seeded inputs (episode k of a round uses stream k
// of the seed) on fresh pools, so device-cycle figures are exact; host
// throughput is the upper decile of the episodes' rates. The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.

#include <malloc.h>
#include <sys/resource.h>

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "layers.h"
#include "workloads.h"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool sweep = false;
};

bool parseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--sweep") {
      a.sweep = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = std::stoi(v) != 0;
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return a.sweep || (!a.workload.empty() && a.seconds > 0.0);
}

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Host throughput over a set of episodes: the upper decile of per-episode
// Ok blocks per traffic second. On a shared VM, neighbours (another guest
// on the same physical core, the host's scheduler) only ever slow an
// episode down, and they can slow most of a run by 30%, so a pooled rate
// or a median measures the neighbours as much as the program. The fast
// tenth of the episodes is the program's own speed; it needs one episode
// in ten to run undisturbed. Every round holds every input stream once, so
// the quantile is taken over the same mix of inputs on every commit.
struct HostRate {
  static constexpr unsigned kFastDecile = 900;
  std::vector<double> wall;  // per episode
  std::vector<double> cpu;

  void add(const EpisodeResult& r) {
    wall.push_back(per(r.ok_blocks, r.timed_s));
    cpu.push_back(per(r.ok_blocks, r.timed_cpu_s));
  }
  double perSecond() const { return quantile(wall, kFastDecile); }
  double perCpuSecond() const { return quantile(cpu, kFastDecile); }

 private:
  static double per(std::uint64_t blocks, double s) {
    return s > 0.0 ? static_cast<double>(blocks) / s : 0.0;
  }
};

// Everything a run learns from its episodes.
struct RunTally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<double> setup_s;
  double check_s = 0.0;
  unsigned rounds = 0;
  // Round 0 only: device-cycle figures, identical in every round.
  std::uint64_t ok_blocks0 = 0;
  std::uint64_t slowest_cycles0 = 0;
  std::vector<std::uint64_t> latency0;

  void add(const EpisodeResult& r, unsigned round) {
    attempted += r.ops;
    failed += r.ops - r.ok_ops;
    setup_s.push_back(r.setup_s);
    check_s += r.check_s;
    for (const auto& v : r.acct.violations()) failures.push_back("accounting: " + v);
    if (r.wrong_outputs) {
      failures.push_back(std::to_string(r.wrong_outputs) + " wrong outputs");
    }
    if (round == 0) {
      ok_blocks0 += r.ok_blocks;
      slowest_cycles0 += r.slowestShardCycles();
      latency0.insert(latency0.end(), r.latency.begin(), r.latency.end());
    }
  }
};

void printResult(const RunTally& t, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
  }
  for (const auto& f : t.failures) std::printf("FAILED: %s\n", f.c_str());
  std::string json = "{\"correct\": ";
  json += t.failures.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(t.attempted);
  json += ", \"failed\": " + std::to_string(t.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int runBenchmark(const Args& a) {
  const WorkloadSpec w = workloadByName(a.workload);
  RunTally t;
  HostRate untraced;
  HostRate traced_rate;  // --trace 1
  LayerProbe probe{w};
  const auto start = Clock::now();
  // The traced run alternates untraced and traced rounds (the difference is
  // the tracing overhead) and keeps a slice of its time for the replays.
  const double loop_s = a.trace ? 0.8 * a.seconds : a.seconds;
  for (unsigned round = 0;; ++round) {
    const bool traced = a.trace && round % 2 == 1;
    for (unsigned k = 0; k < w.episodes_per_round; ++k) {
      const EpisodeResult r =
          runEpisode(w, subSeed(a.seed, k), traced ? &probe : nullptr);
      t.add(r, round);
      (traced ? traced_rate : untraced).add(r);
    }
    t.rounds = round + 1;
    if (secondsSince(start) >= loop_s && (!a.trace || traced)) break;
  }

  const std::size_t n = t.latency0.size();
  std::printf("perfbench %s seed %llu: %u rounds x %u episodes, %zu latency "
              "samples per round\n",
              w.name.c_str(), static_cast<unsigned long long>(a.seed), t.rounds,
              w.episodes_per_round, n);
  std::printf("host (upper decile of episodes): %.0f Ok blocks/wall-s, %.0f "
              "/CPU-s\n",
              untraced.perSecond(), untraced.perCpuSecond());
  if (!percentileSupported(n, 990)) {
    t.failures.push_back("too few latency samples for p99: " + std::to_string(n));
  }

  std::vector<Metric> metrics;
  if (!a.trace) {
    metrics = {
        {"ok_blocks_per_device_cycle",
         static_cast<double>(t.ok_blocks0) / static_cast<double>(t.slowest_cycles0),
         "blocks/cycle"},
        {"ok_blocks_per_host_s", untraced.perSecond(), "blocks/s"},
        {"latency_p50_cycles", static_cast<double>(percentile(t.latency0, 500)),
         "cycles"},
        {"latency_p99_cycles", static_cast<double>(percentile(t.latency0, 990)),
         "cycles"},
        {"ok_share",
         t.attempted ? 1.0 - static_cast<double>(t.failed) / t.attempted : 0.0,
         "share"},
        {"setup_s", median(t.setup_s), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
  } else {
    metrics = probe.report(0.15 * a.seconds, t.failures);
    const std::uint64_t residency = loneBlockResidency();
    if (residency != 30) {
      t.failures.push_back("anchor: lone-block residency " +
                           std::to_string(residency) + " != 30 cycles");
    }
    const std::uint64_t extra = protectionExtraCycles(a.seed);
    if (extra != 0) {
      t.failures.push_back("anchor: Protected and Baseline bulk_ecb episodes "
                           "differ by " + std::to_string(extra) + " cycles");
    }
    metrics.push_back({"anchor.lone_block_residency_cycles",
                       static_cast<double>(residency), "cycles"});
    metrics.push_back({"anchor.protection_extra_cycles",
                       static_cast<double>(extra), "cycles"});
    metrics.push_back(
        {"host.ok_blocks_per_cpu_s", untraced.perCpuSecond(), "blocks/s"});
    metrics.push_back({"latency.samples", static_cast<double>(n), "count"});
    metrics.push_back({"check.host_s", t.check_s, "s"});
    metrics.push_back({"trace.overhead_share",
                       1.0 - traced_rate.perSecond() / untraced.perSecond(),
                       "share"});
  }
  printResult(t, metrics);
  return 0;
}

// mixed_open at a ladder of offered loads: where refusals start (the knee)
// and how latency grows on the way there.
int runSweep(const Args& a) {
  std::printf("%-10s %-10s %-10s %-10s %-10s %-12s\n", "blk/cy/sh", "ok_share",
              "refused", "p50", "p99", "lateness99");
  for (unsigned percent = 5; percent <= 25; ++percent) {
    const double rate = percent / 100.0;
    WorkloadSpec w = workloadByName("mixed_open");
    w.open.blocks_per_cycle = rate * w.pool.shards;
    std::uint64_t ops = 0, ok = 0, submits = 0, refused = 0;
    std::vector<std::uint64_t> lat, late;
    for (unsigned k = 0; k < w.episodes_per_round; ++k) {
      const EpisodeResult r = runEpisode(w, subSeed(a.seed, k));
      ops += r.ops;
      ok += r.ok_ops;
      submits += r.acct.submits;
      refused += r.acct.refused;
      lat.insert(lat.end(), r.latency.begin(), r.latency.end());
      late.insert(late.end(), r.lateness.begin(), r.lateness.end());
    }
    std::printf("%-10.2f %-10.4f %-10.4f %-10llu %-10llu %-12llu\n", rate,
                static_cast<double>(ok) / ops,
                static_cast<double>(refused) / submits,
                static_cast<unsigned long long>(percentile(lat, 500)),
                static_cast<unsigned long long>(percentile(lat, 990)),
                static_cast<unsigned long long>(percentile(late, 990)));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parseArgs(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n       perfbench --sweep [--seed N]\n");
    return 2;
  }
  // Pin glibc's mmap threshold at its initial 128 KiB. Left dynamic, it
  // rises after the first large free, and whether a pool's 1 MiB ring
  // arenas then come from fresh pages or recycled heap flips from episode
  // to episode, which makes set-up time bimodal. Pinned, every set-up pays
  // the cold first touch a freshly deployed pool pays.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  try {
    return a.sweep ? runSweep(a) : runBenchmark(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
