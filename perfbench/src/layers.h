#pragma once
// The traced run: per-layer attribution of device cycles and host time,
// built only from the benchmark's own code around public calls.
//
//  * spans around every EnginePool call the episode makes (submit*,
//    runUntilIdle/pump, fetch*);
//  * a per-shard AesAccelerator tick hook that counts ticks, samples the
//    pipe's occupancy, timestamps the shard's busy span inside each drain,
//    and records accept streaks (one streak = one run the service handed
//    to the driver or the descriptor ring);
//  * the public counters: ServiceStats, AccelSession telemetry and
//    cyclesUsed, AesAccelerator::stats();
//  * replays of the recorded run lengths through AesAccelerator alone,
//    through AccelSession, and through a standalone descriptor ring, so the
//    engine, driver and ring host costs come out by subtraction.
//
// The paper's anchors are checked here as identities: a lone block's pipe
// residency is 30 cycles, the ring's per-descriptor loss stays under the
// 80-cycle floor, and Baseline and Protected mode take the same cycles.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "soc/pool.h"
#include "workloads.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// One service run as the engine saw it: consecutive accepts of one user in
// one direction.
struct RunRecord {
  unsigned len = 0;
  bool decrypt = false;
};

// Counters of one shard. The tick hook runs on whichever thread ticks the
// shard's engine — in a parallel drain, that shard's own worker — so every
// field is written by one thread at a time; the main thread reads them only
// after the drain has joined.
class ShardProbe {
 public:
  using Clock = std::chrono::steady_clock;

  void onTick(const aesifc::accel::AesAccelerator& eng);
  void closeStreak();

  std::uint64_t ticks = 0;
  std::uint64_t occupancy = 0;       // sum of validCount() over ticks
  std::vector<RunRecord> runs;
  bool ticked = false;               // within the current drain call
  Clock::time_point first{};
  Clock::time_point last{};

 private:
  unsigned cur_len_ = 0;
  unsigned cur_user_ = 0;
  bool cur_decrypt_ = false;
  std::uint64_t last_accept_ = 0;
};

class LayerProbe {
 public:
  explicit LayerProbe(const WorkloadSpec& w) : spec_{w} {}
  LayerProbe(const LayerProbe&) = delete;
  LayerProbe& operator=(const LayerProbe&) = delete;

  // --- Episode hooks (runEpisode) -------------------------------------------
  void attach(aesifc::soc::EnginePool& pool);
  void noteSubmit(std::int64_t ns) { submit_ns_.push_back(ns); }
  void noteFetch(std::int64_t ns) { fetch_ns_ += ns; }
  void beginDrain() {
    for (auto& p : shards_) p->ticked = false;
  }
  void endDrain(std::int64_t wall_ns);
  // Folds the episode's counters in and removes the tick hooks.
  void finish(aesifc::soc::EnginePool& pool, const EpisodeResult& r);

  // --- Report ------------------------------------------------------------------
  // Runs the replays (within `replay_budget_s` of host time) and the anchor
  // checks; anchor failures are appended to `failures`.
  std::vector<Metric> report(double replay_budget_s,
                             std::vector<std::string>& failures) const;

 private:
  bool parallelDrain() const {
    return spec_.loop != Loop::OpenBlocks && spec_.pool.parallel_drain;
  }

  WorkloadSpec spec_;
  std::vector<std::unique_ptr<ShardProbe>> shards_;

  // Accumulated over traced episodes.
  unsigned episodes_ = 0;
  std::vector<std::int64_t> submit_ns_;
  std::int64_t fetch_ns_ = 0;
  std::int64_t drain_ns_ = 0;
  std::int64_t busy_ns_ = 0;
  std::int64_t fanout_ns_ = 0;
  std::uint64_t drains_ = 0;
  double timed_s_ = 0.0;
  std::uint64_t ticks_ = 0;
  std::uint64_t occupancy_ = 0;
  std::uint64_t accepted_ = 0;
  std::uint64_t suppressed_ = 0;
  std::uint64_t stalled_cycles_ = 0;
  std::uint64_t denied_stalls_ = 0;
  std::uint64_t session_cycles_ = 0;
  std::uint64_t session_retries_ = 0;
  double imbalance_sum_ = 0.0;
  std::uint64_t cycles_sum_ = 0;  // device cycles summed over shards
  std::uint64_t ok_blocks_ = 0;
  std::uint64_t ok_ops_ = 0;
  std::vector<std::uint64_t> lateness_;
  std::vector<RunRecord> runs_;
  Accounting acct_;
  aesifc::soc::ServiceStats stats_;
};

// --- Anchors -----------------------------------------------------------------
// Pipe residency (exit - accept) of lone blocks on an idle engine, in both
// security modes; returns the residency if every block agrees, else 0.
std::uint64_t loneBlockResidency();

// Device cycles of a short bulk_ecb episode in Protected mode minus the same
// episode in Baseline mode, summed over shards as absolute differences;
// UINT64_MAX when the two episodes did not both complete and verify.
std::uint64_t protectionExtraCycles(std::uint64_t seed);

}  // namespace perfbench
