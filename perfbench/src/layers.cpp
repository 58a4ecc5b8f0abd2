#include "layers.h"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "accel/driver.h"
#include "soc/dma.h"

namespace perfbench {

namespace {

using namespace aesifc;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kPipeDepth = 30;      // the paper's 30-stage pipe
constexpr double kRingFloorCycles = 80.0;     // BENCH_dma's per-descriptor floor

std::int64_t nsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// One engine with one provisioned user, standing alone: the replay target.
struct ReplayRig {
  explicit ReplayRig(accel::SecurityMode mode = accel::SecurityMode::Protected)
      : acc{[mode] {
          accel::AcceleratorConfig c;
          c.mode = mode;
          return c;
        }()} {
    acc.addUser(lattice::Principal::supervisor());
    user = acc.addUser(lattice::Principal::user("replay", 1));
    const std::vector<std::uint8_t> key(16, 0x5a);
    if (!accel::loadKey128(acc, user, kSlot, 0, key, lattice::Conf::category(1)))
      throw std::runtime_error("perfbench: replay key load refused");
  }

  static constexpr unsigned kSlot = 1;
  accel::AesAccelerator acc;
  unsigned user = 0;
  std::uint64_t next_req = 1;
};

std::vector<aes::Block> replayBlocks(unsigned len) {
  std::vector<aes::Block> v(len);
  for (unsigned i = 0; i < len; ++i) v[i][0] = static_cast<std::uint8_t>(i);
  return v;
}

// One run replayed down each path below the service, each on its own
// standalone engine: the engine alone, the driver (AccelSession) over an
// engine, and the descriptor ring (the service's ring geometry) over an
// engine. The same run down every path makes the differences self times.
class Replayer {
 public:
  Replayer() : session_{drv_.acc, drv_.user, ReplayRig::kSlot} {
    mem_.setPageLabel(0, mem_.size(), ring_.acc.principal(ring_.user).authority);
    rc_.desc_base = 0;
    rc_.desc_slots = 8;
    rc_.chain_base = 0x200;
    rc_.chain_slots = 8;
    rc_.comp_base = 0x400;
    rc_.comp_slots = 8;
    ring_drv_ = std::make_unique<soc::DmaRingDriver>(
        ring_eng_, mem_, ring_eng_.addChannel(rc_), rc_);
  }

  // Batch submit, tick until every output is back.
  std::int64_t engine(const RunRecord& run, std::uint64_t& ticks) {
    std::vector<accel::BlockRequest> reqs(run.len);
    const auto blocks = replayBlocks(run.len);
    for (unsigned i = 0; i < run.len; ++i) {
      reqs[i] = {eng_.next_req++, eng_.user, ReplayRig::kSlot, run.decrypt,
                 blocks[i]};
    }
    std::vector<accel::BlockResponse> got;
    const auto t0 = Clock::now();
    const std::size_t n = eng_.acc.submitBatch(reqs);
    while (got.size() < n) {
      eng_.acc.tick();
      ++ticks;
      eng_.acc.fetchOutputs(eng_.user, got);
    }
    return nsBetween(t0, Clock::now());
  }

  // AccelSession::encryptBlocks/decryptBlocks; nullopt if refused.
  std::optional<std::int64_t> driver(const RunRecord& run) {
    const auto blocks = replayBlocks(run.len);
    const auto t0 = Clock::now();
    const auto res = run.decrypt ? session_.decryptBlocks(blocks)
                                 : session_.encryptBlocks(blocks);
    const std::int64_t ns = nsBetween(t0, Clock::now());
    if (!res.has_value()) return std::nullopt;
    return ns;
  }

  // Stage, one ECB descriptor, wait, read back; `lost` gets the cycles the
  // descriptor took beyond its accepted blocks and the 30-cycle pipe.
  std::optional<std::int64_t> ring(const RunRecord& run, double& lost) {
    const std::vector<std::uint8_t> src(16 * run.len, 0x3c);
    soc::DmaDescriptor d;
    d.user = ring_.user;
    d.key_slot = ReplayRig::kSlot;
    d.mode = run.decrypt ? soc::DmaMode::EcbDecrypt : soc::DmaMode::EcbEncrypt;
    d.src = 0x1000;
    d.dst = 0x4000;
    d.len = src.size();
    const std::uint64_t c0 = ring_.acc.cycle();
    const std::uint64_t a0 = ring_.acc.stats().accepted;
    const auto t0 = Clock::now();
    mem_.writeBytes(d.src, src);
    const auto seq = ring_drv_->submitChain({d});
    const soc::DmaCompletion* c =
        seq ? ring_drv_->wait(*seq, 16 * run.len + 16384) : nullptr;
    const auto out = mem_.readBytes(d.dst, d.len);
    const std::int64_t ns = nsBetween(t0, Clock::now());
    if (c == nullptr || c->status != soc::DmaError::None) return std::nullopt;
    ring_drv_->forgetResolved();
    lost = static_cast<double>(ring_.acc.cycle() - c0) -
           static_cast<double>(ring_.acc.stats().accepted - a0) -
           static_cast<double>(kPipeDepth);
    return ns;
  }

 private:
  ReplayRig eng_;
  ReplayRig drv_;
  accel::AccelSession session_;
  ReplayRig ring_;
  soc::HostMemory mem_{0x8000};
  soc::DmaRingEngine ring_eng_{ring_.acc, mem_, /*hardened=*/true};
  soc::DmaRingConfig rc_;
  std::unique_ptr<soc::DmaRingDriver> ring_drv_;
};

}  // namespace

void ShardProbe::onTick(const accel::AesAccelerator& eng) {
  ++ticks;
  occupancy += eng.pipeline().validCount();
  const auto now = Clock::now();
  if (!ticked) {
    first = now;
    ticked = true;
  }
  last = now;
  const accel::StageSlot& s0 = eng.pipeline().stage(0);
  if (!s0.valid || s0.accept_cycle != eng.cycle()) return;
  if (s0.gcm_internal) return;  // GCM sequencer traffic, not a service run
  if (cur_len_ > 0 && s0.user == cur_user_ && s0.decrypt == cur_decrypt_ &&
      eng.cycle() == last_accept_ + 1) {
    ++cur_len_;
  } else {
    closeStreak();
    cur_len_ = 1;
    cur_user_ = s0.user;
    cur_decrypt_ = s0.decrypt;
  }
  last_accept_ = eng.cycle();
}

void ShardProbe::closeStreak() {
  if (cur_len_ > 0) runs.push_back({cur_len_, cur_decrypt_});
  cur_len_ = 0;
}

void LayerProbe::attach(soc::EnginePool& pool) {
  // The pool is fresh, so the engines' counters start at zero here.
  shards_.clear();
  for (unsigned s = 0; s < pool.shards(); ++s) {
    shards_.push_back(std::make_unique<ShardProbe>());
    ShardProbe* p = shards_.back().get();
    accel::AesAccelerator& eng = pool.shardEngine(s);
    eng.setTickHook([p, &eng] { p->onTick(eng); });
  }
}

void LayerProbe::endDrain(std::int64_t wall_ns) {
  std::int64_t longest = 0;
  std::int64_t sum = 0;
  for (const auto& p : shards_) {
    if (!p->ticked) continue;
    const std::int64_t span = nsBetween(p->first, p->last);
    longest = std::max(longest, span);
    sum += span;
  }
  // Parallel drain: the wave waits for its slowest shard, so everything
  // beyond that span is fan-out (thread start/join). Serial pump: shards
  // run one after the other.
  busy_ns_ += sum;
  drain_ns_ += wall_ns;
  fanout_ns_ += wall_ns - (parallelDrain() ? longest : sum);
  ++drains_;
}

void LayerProbe::finish(soc::EnginePool& pool, const EpisodeResult& r) {
  for (unsigned s = 0; s < pool.shards(); ++s) {
    accel::AesAccelerator& eng = pool.shardEngine(s);
    eng.setTickHook(nullptr);
    ShardProbe& p = *shards_[s];
    p.closeStreak();
    ticks_ += p.ticks;
    occupancy_ += p.occupancy;
    runs_.insert(runs_.end(), p.runs.begin(), p.runs.end());
    const auto& st = eng.stats();
    accepted_ += st.accepted;
    suppressed_ += st.suppressed;
    stalled_cycles_ += st.stalled_cycles;
    denied_stalls_ += st.denied_stalls;
    const soc::AccelService& svc = pool.shardService(s);
    for (unsigned local = 0; local < pool.tenantsOn(s); ++local) {
      session_cycles_ += svc.session(local).cyclesUsed();
      session_retries_ += svc.session(local).retries();
    }
  }
  shards_.clear();
  std::uint64_t sum = 0;
  for (auto c : r.shard_cycles) sum += c;
  cycles_sum_ += sum;
  const double mean = static_cast<double>(sum) / r.shard_cycles.size();
  imbalance_sum_ += ratio(static_cast<double>(r.slowestShardCycles()), mean);
  ++episodes_;
  timed_s_ += r.timed_s;
  ok_blocks_ += r.ok_blocks;
  ok_ops_ += r.ok_ops;
  lateness_.insert(lateness_.end(), r.lateness.begin(), r.lateness.end());
  acct_ += r.acct;
  stats_ += r.stats;
}

std::vector<Metric> LayerProbe::report(double replay_budget_s,
                                       std::vector<std::string>& failures) const {
  const double eps = std::max(1u, episodes_);
  const unsigned min_run = spec_.pool.service.use_dma_ring
                               ? spec_.pool.service.dma_ring_min_run
                               : ~0u;
  // A run of at least dma_ring_min_run blocks is the service's ring path;
  // anything shorter went through the driver.
  std::uint64_t run_blocks = 0, singles = 0, mmio_ideal = 0;
  std::uint64_t mmio_blocks = 0, ring_blocks = 0;
  for (const RunRecord& run : runs_) {
    run_blocks += run.len;
    if (run.len == 1) ++singles;
    if (run.len >= min_run) {
      ring_blocks += run.len;
    } else {
      mmio_blocks += run.len;
      mmio_ideal += run.len + kPipeDepth;
    }
  }

  // Replay an even sample of the recorded runs down every path (a workload
  // that recorded none — AEAD — replays 64-block runs, so every layer is
  // measured and the ring anchor checked on every run).
  const std::vector<RunRecord> fallback(64, RunRecord{64, false});
  const auto& replay = runs_.empty() ? fallback : runs_;
  const std::size_t stride = std::max<std::size_t>(1, replay.size() / 2000);
  Replayer rp;
  std::int64_t engine_ns = 0, driver_self_ns = 0, ring_self_ns = 0;
  std::int64_t mmio_path_ns = 0, ring_path_ns = 0;
  std::uint64_t ticks = 0, blocks = 0, descs = 0;
  std::uint64_t mmio_path_blocks = 0, ring_path_blocks = 0;
  double lost = 0.0;
  const auto t0 = Clock::now();
  // Chunks of runs go down one path at a time, so each rig replays with a
  // warm cache the way a shard serves with one.
  constexpr std::size_t kChunk = 16;
  for (std::size_t c = 0; c < replay.size(); c += kChunk * stride) {
    const double spent = std::chrono::duration<double>(Clock::now() - t0).count();
    if (descs > 0 && spent > replay_budget_s) break;
    std::vector<RunRecord> chunk;
    for (std::size_t i = c; i < replay.size() && chunk.size() < kChunk; i += stride)
      chunk.push_back(replay[i]);
    std::vector<std::int64_t> e, s, r;
    for (const RunRecord& run : chunk) e.push_back(rp.engine(run, ticks));
    for (const RunRecord& run : chunk) {
      if (const auto ns = rp.driver(run)) s.push_back(*ns);
    }
    for (const RunRecord& run : chunk) {
      double run_lost = 0.0;
      if (const auto ns = rp.ring(run, run_lost)) r.push_back(*ns);
      lost += run_lost;
    }
    if (s.size() != chunk.size() || r.size() != chunk.size()) {
      failures.push_back("replay: a run was refused below the service");
      break;
    }
    for (std::size_t k = 0; k < chunk.size(); ++k) {
      const unsigned len = chunk[k].len;
      engine_ns += e[k];
      driver_self_ns += s[k] - e[k];
      ring_self_ns += r[k] - e[k];
      blocks += len;
      ++descs;
      if (len >= min_run) {
        ring_path_ns += r[k];
        ring_path_blocks += len;
      } else {
        mmio_path_ns += s[k];
        mmio_path_blocks += len;
      }
    }
  }
  const double ring_lost = ratio(lost, descs);
  if (!(ring_lost < kRingFloorCycles)) {
    failures.push_back("anchor: ring loses " + std::to_string(ring_lost) +
                       " cycles per descriptor (floor 80)");
  }
  const double driver_ns_per_block = ratio(driver_self_ns, blocks);
  const double ring_ns_per_block = ratio(ring_self_ns, blocks);
  // Service self time: the shards' time minus what the same runs cost below
  // the service, per block of the path each run actually took. A serial
  // pump's wall time is all shard time; a parallel drain counts each
  // shard's first-to-last-tick span (its tail after the last tick lands in
  // the fan-out instead).
  auto pathCost = [&](std::int64_t ns, std::uint64_t n, double self) {
    return n ? ratio(ns, n) : ratio(engine_ns, blocks) + self;
  };
  const std::uint64_t block_ok = stats_.completed_hw + stats_.completed_fallback;
  const double service_self_ns =
      static_cast<double>(parallelDrain() ? busy_ns_ : drain_ns_) -
      pathCost(mmio_path_ns, mmio_path_blocks, driver_ns_per_block) * mmio_blocks -
      pathCost(ring_path_ns, ring_path_blocks, ring_ns_per_block) * ring_blocks;
  const double ns_per_tick = ratio(engine_ns, ticks);
  const bool aead = spec_.loop == Loop::ClosedAead;
  std::vector<std::uint64_t> admit(submit_ns_.begin(), submit_ns_.end());

  return {
      {"pool.admit_ns_p50", static_cast<double>(percentile(admit, 500)), "ns"},
      {"pool.drain_host_share", ratio(drain_ns_ / 1e9, timed_s_), "share"},
      {"pool.fanout_us_per_wave", ratio(fanout_ns_ / 1e3, drains_), "us"},
      {"pool.shard_imbalance", imbalance_sum_ / eps, "ratio"},
      {"pool.refused_share", ratio(acct_.refused, acct_.submits), "share"},
      {"pool.fetch_host_share", ratio(fetch_ns_ / 1e9, timed_s_), "share"},
      {"service.mean_run_blocks", ratio(run_blocks, runs_.size()), "blocks"},
      {"service.single_serves", singles / eps, "count/episode"},
      {"service.batch_fallbacks", stats_.batch_fallbacks / eps, "count/episode"},
      {"service.requeues", stats_.requeues / eps, "count/episode"},
      {"service.host_ns_per_block", ratio(service_self_ns, block_ok), "ns"},
      {"loadgen.lateness_p99_cycles",
       static_cast<double>(percentile(lateness_, 990)), "cycles"},
      {"driver.cycles_over_ideal", ratio(session_cycles_, mmio_ideal), "ratio"},
      {"driver.retries", session_retries_ / eps, "count/episode"},
      {"driver.host_ns_per_block", driver_ns_per_block, "ns"},
      {"ring.block_share", ratio(stats_.dma_ring_blocks, block_ok), "share"},
      {"ring.fallbacks", stats_.dma_ring_fallbacks / eps, "count/episode"},
      {"ring.lost_cycles_per_desc", ring_lost, "cycles"},
      {"ring.host_ns_per_block", ring_ns_per_block, "ns"},
      {"engine.issue_util", ratio(accepted_, ticks_), "share"},
      {"engine.occupancy_mean", ratio(occupancy_, ticks_), "stages"},
      {"engine.host_ns_per_tick", ns_per_tick, "ns"},
      {"engine.suppressed", suppressed_ / eps, "count/episode"},
      {"engine.denied_stalls", denied_stalls_ / eps, "count/episode"},
      {"engine.stalled_cycles", stalled_cycles_ / eps, "count/episode"},
      {"gcm.overhead_cycles_per_op",
       aead ? ratio(static_cast<double>(cycles_sum_) - ok_blocks_, ok_ops_) : 0.0,
       "cycles"},
      {"gcm.host_us_per_op", aead ? ratio(busy_ns_ / 1e3, ok_ops_) : 0.0, "us"},
      {"gcm.auth_failed", stats_.aead_auth_failed / eps, "count/episode"},
  };
}

std::uint64_t loneBlockResidency() {
  std::uint64_t seen = 0;
  for (const auto mode : {accel::SecurityMode::Protected,
                          accel::SecurityMode::Baseline}) {
    ReplayRig rig{mode};
    for (unsigned trial = 0; trial < 4; ++trial) {
      rig.acc.run(40 + 7 * trial);  // idle engine between probes
      rig.acc.submit({rig.next_req++, rig.user, ReplayRig::kSlot, trial % 2 == 1,
                      aes::Block{}});
      std::optional<accel::BlockResponse> out;
      for (unsigned c = 0; c < 200 && !out; ++c) {
        rig.acc.tick();
        out = rig.acc.fetchOutput(rig.user);
      }
      if (!out) return 0;
      const std::uint64_t residency = out->complete_cycle - out->accept_cycle;
      if (seen != 0 && residency != seen) return 0;
      seen = residency;
    }
  }
  return seen;
}

std::uint64_t protectionExtraCycles(std::uint64_t seed) {
  WorkloadSpec w = workloadByName("bulk_ecb");
  w.blocks_per_tenant = 256;
  w.pool.engine.mode = accel::SecurityMode::Protected;
  const EpisodeResult prot = runEpisode(w, seed);
  w.pool.engine.mode = accel::SecurityMode::Baseline;
  const EpisodeResult base = runEpisode(w, seed);
  if (prot.ok_blocks != base.ok_blocks || prot.wrong_outputs || base.wrong_outputs ||
      prot.shard_cycles.size() != base.shard_cycles.size())
    return ~0ull;
  std::uint64_t diff = 0;
  for (std::size_t s = 0; s < prot.shard_cycles.size(); ++s) {
    const auto a = prot.shard_cycles[s], b = base.shard_cycles[s];
    diff += a > b ? a - b : b - a;
  }
  return diff;
}

}  // namespace perfbench
