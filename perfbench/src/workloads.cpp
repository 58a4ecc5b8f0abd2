#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <deque>
#include <memory>
#include <stdexcept>

#include "aes/cipher.h"
#include "aes/gcm.h"
#include "aes/key_schedule.h"
#include "layers.h"

namespace perfbench {

namespace {

using namespace aesifc;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kDrainBudgetCycles = 1ull << 24;
// aead_mix messages: 1..64 whole blocks, 0..32 bytes of AAD, 96-bit IVs.
constexpr unsigned kMaxMsgBlocks = 64;
constexpr unsigned kMaxAadBytes = 32;

std::int64_t nsSince(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
      .count();
}

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double processCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// Wall and CPU time of the traffic phase. Process CPU time covers the drain
// worker threads too, and leaves out time the hypervisor stole.
class PhaseClock {
 public:
  void stop(EpisodeResult& r) const {
    r.timed_s = secondsSince(wall_);
    r.timed_cpu_s = processCpuSeconds() - cpu_;
  }

 private:
  Clock::time_point wall_ = Clock::now();
  double cpu_ = processCpuSeconds();
};

soc::ServiceConfig honestService() {
  soc::ServiceConfig s;
  s.overflow = soc::OverflowPolicy::RejectNew;
  return s;
}

// A fresh pool with every tenant placed and provisioned — the set-up the
// `setup_s` metric times: pool construction (engines, services, ring
// arenas) and tenant key provisioning.
struct Deployment {
  std::unique_ptr<soc::EnginePool> pool;
  std::vector<unsigned> ids;            // pool tenant id per workload tenant
  std::vector<aes::ExpandedKey> keys;   // golden model per workload tenant
  double setup_s = 0.0;
};

Deployment deploy(const WorkloadSpec& w, std::uint64_t seed) {
  Deployment d;
  std::vector<soc::PoolTenantSpec> specs;
  for (unsigned t = 0; t < w.tenants; ++t) {
    Rng r{subSeed(seed, 1000 + t)};
    soc::PoolTenantSpec spec;
    spec.name = "tenant-" + std::to_string(t);
    spec.category = t + 1;
    const aes::Block k = r.block();
    spec.key.assign(k.begin(), k.end());
    spec.queue_depth = w.queue_depth;
    d.keys.push_back(aes::expandKey(spec.key, aes::KeySize::Aes128));
    specs.push_back(std::move(spec));
  }
  const auto t0 = Clock::now();
  d.pool = std::make_unique<soc::EnginePool>(w.pool);
  for (const auto& spec : specs) {
    const soc::PlaceResult placed = d.pool->addTenant(spec);
    if (!placed.placed) {
      throw std::runtime_error("perfbench: pool refused tenant " + spec.name);
    }
    d.ids.push_back(placed.tenant);
  }
  d.setup_s = secondsSince(t0);
  return d;
}

void countCompletion(soc::CompletionStatus st, Accounting& a) {
  switch (st) {
    case soc::CompletionStatus::Ok: ++a.ok; break;
    case soc::CompletionStatus::Suppressed: ++a.suppressed; break;
    case soc::CompletionStatus::Shed: ++a.shed; break;
    case soc::CompletionStatus::Rejected: ++a.rejected; break;
    default: ++a.failed; break;
  }
}

// Service-side terms of the identity, read after the timed phase.
void closeAccounts(soc::EnginePool& pool, EpisodeResult& r) {
  r.stats = pool.aggregateStats();
  const auto& s = r.stats;
  r.acct.svc_offered = s.offered;
  r.acct.svc_refused = s.rejected_queue_full + s.rejected_backpressure;
  r.acct.svc_shed = s.shed;
  r.acct.svc_ok = s.completed_hw + s.completed_fallback + s.aead_completed_hw +
                  s.aead_completed_fallback;
  r.acct.still_queued = pool.totalQueued();
}

std::vector<std::uint64_t> shardCycles(soc::EnginePool& pool) {
  std::vector<std::uint64_t> c;
  for (unsigned s = 0; s < pool.shards(); ++s)
    c.push_back(pool.shardEngine(s).cycle());
  return c;
}

// The traffic-phase wrappers: with a probe attached, every public call is a
// span; without one, nothing but the call itself.
class Traffic {
 public:
  Traffic(soc::EnginePool& pool, LayerProbe* probe, Accounting& acct)
      : pool_{pool}, probe_{probe}, acct_{acct} {}

  template <typename Submit>
  bool submit(Submit&& call) {
    soc::SubmitResult r;
    if (probe_) {
      const auto t0 = Clock::now();
      r = call();
      probe_->noteSubmit(nsSince(t0));
    } else {
      r = call();
    }
    ++acct_.submits;
    if (!r.admitted) ++acct_.refused;
    last_ticket_ = r.ticket;
    return r.admitted;
  }
  std::uint64_t lastTicket() const { return last_ticket_; }

  void drain(bool serial_pump) {
    const auto t0 = probe_ ? Clock::now() : Clock::time_point{};
    if (probe_) probe_->beginDrain();
    if (serial_pump) {
      pool_.pump();
    } else {
      pool_.runUntilIdle(kDrainBudgetCycles);
    }
    if (probe_) probe_->endDrain(nsSince(t0));
  }

  template <typename Fetch>
  auto fetch(Fetch&& call) {
    if (!probe_) return call();
    const auto t0 = Clock::now();
    auto c = call();
    probe_->noteFetch(nsSince(t0));
    return c;
  }

 private:
  soc::EnginePool& pool_;
  LayerProbe* probe_;
  Accounting& acct_;
  std::uint64_t last_ticket_ = 0;
};

struct Pending {
  std::size_t op = 0;
  unsigned block = 0;
  std::uint64_t ticket = 0;
};

// --- bulk_ecb ------------------------------------------------------------------
void closedBlocks(const WorkloadSpec& w, std::uint64_t seed, Deployment& d,
                  LayerProbe* probe, EpisodeResult& r) {
  const unsigned T = w.tenants;
  const unsigned n = w.blocks_per_tenant;
  std::vector<std::vector<aes::Block>> in(T), out(T);
  std::vector<std::vector<char>> ok(T);
  for (unsigned t = 0; t < T; ++t) {
    Rng g{subSeed(seed, 100 + t)};
    for (unsigned i = 0; i < n; ++i) in[t].push_back(g.block());
    out[t].resize(n);
    ok[t].assign(n, 0);
  }
  auto decrypts = [](unsigned t) { return t % 2 == 1; };

  soc::EnginePool& pool = *d.pool;
  if (probe) probe->attach(pool);
  Traffic io{pool, probe, r.acct};
  std::vector<std::deque<Pending>> pending(T);
  std::vector<unsigned> next(T, 0);
  std::uint64_t done = 0;
  const std::uint64_t total = static_cast<std::uint64_t>(T) * n;
  const auto c0 = shardCycles(pool);
  const PhaseClock traffic;
  while (done < total) {
    // Top every queue up; a refused submit is retried in the next wave.
    for (unsigned t = 0; t < T; ++t) {
      while (next[t] < n) {
        const unsigned i = next[t];
        if (!io.submit([&] { return pool.submit(d.ids[t], in[t][i], decrypts(t)); }))
          break;
        pending[t].push_back({i, 0, io.lastTicket()});
        ++next[t];
      }
    }
    io.drain(/*serial_pump=*/false);
    std::uint64_t progress = 0;
    for (unsigned t = 0; t < T; ++t) {
      while (auto c = io.fetch([&] { return pool.fetch(d.ids[t]); })) {
        ++progress;
        countCompletion(c->status, r.acct);
        if (pending[t].empty()) {
          ++r.wrong_outputs;  // a completion nobody submitted
          continue;
        }
        const Pending p = pending[t].front();
        pending[t].pop_front();
        if (c->ticket != p.ticket) ++r.wrong_outputs;
        if (c->status == soc::CompletionStatus::Ok) {
          out[t][p.op] = c->data;
          ok[t][p.op] = 1;
          r.latency.push_back(c->complete_cycle - c->submit_cycle);
        }
      }
    }
    done += progress;
    if (progress == 0) break;  // stuck: the identity reports what is left
  }
  traffic.stop(r);
  const auto c1 = shardCycles(pool);
  for (std::size_t s = 0; s < c1.size(); ++s) r.shard_cycles.push_back(c1[s] - c0[s]);
  closeAccounts(pool, r);

  const auto k0 = Clock::now();
  r.ops = total;
  for (unsigned t = 0; t < T; ++t) {
    for (unsigned i = 0; i < n; ++i) {
      if (!ok[t][i]) continue;
      ++r.ok_ops;
      ++r.ok_blocks;
      const aes::Block want = decrypts(t) ? aes::decryptBlock(in[t][i], d.keys[t])
                                          : aes::encryptBlock(in[t][i], d.keys[t]);
      if (out[t][i] != want) ++r.wrong_outputs;
    }
  }
  r.check_s = secondsSince(k0);
}

// --- mixed_open ------------------------------------------------------------------
void openBlocks(const WorkloadSpec& w, std::uint64_t seed, Deployment& d,
                LayerProbe* probe, EpisodeResult& r) {
  const OpenLoopSchedule sched = openLoopSchedule(seed, w.open);
  const std::vector<Burst>& bursts = sched.bursts;
  struct OpState {
    unsigned remaining = 0;
    bool failed = false;
    std::uint64_t last_complete = 0;
  };
  std::vector<OpState> st(bursts.size());
  std::vector<aes::Block> out(sched.blocks.size());
  std::vector<std::vector<std::size_t>> by_tenant(w.tenants);
  for (std::size_t b = 0; b < bursts.size(); ++b) {
    st[b].remaining = bursts[b].count;
    by_tenant[bursts[b].tenant].push_back(b);
  }

  soc::EnginePool& pool = *d.pool;
  if (probe) probe->attach(pool);
  Traffic io{pool, probe, r.acct};
  std::vector<std::deque<Pending>> pending(w.tenants);
  std::vector<std::size_t> next(w.tenants, 0);
  std::vector<accel::AesAccelerator*> clock_of;
  for (unsigned t = 0; t < w.tenants; ++t)
    clock_of.push_back(&pool.shardEngine(pool.shardOf(d.ids[t])));
  // Generous stop: a pool that cannot keep up is reported, not waited on.
  const std::uint64_t cycle_cap = 64 * w.open.horizon + (1u << 20);

  auto resolve = [&](std::size_t b) {
    if (--st[b].remaining > 0) return;
    if (st[b].failed) return;
    ++r.ok_ops;
    r.ok_blocks += bursts[b].count;
    r.latency.push_back(st[b].last_complete - bursts[b].due);
  };

  const auto c0 = shardCycles(pool);
  const PhaseClock traffic;
  for (;;) {
    bool arrivals_left = false;
    bool in_flight = false;
    for (unsigned t = 0; t < w.tenants; ++t) {
      const std::uint64_t now = clock_of[t]->cycle();
      while (next[t] < by_tenant[t].size() &&
             bursts[by_tenant[t][next[t]]].due <= now) {
        const std::size_t b = by_tenant[t][next[t]++];
        const Burst& burst = bursts[b];
        r.lateness.push_back(now - burst.due);
        for (unsigned i = 0; i < burst.count; ++i) {
          if (io.submit([&] {
                return pool.submit(d.ids[t], sched.blocks[burst.first + i],
                                   burst.decrypt);
              })) {
            pending[t].push_back({b, i, io.lastTicket()});
          } else {
            st[b].failed = true;  // open loop: a refusal is a failure
            resolve(b);
          }
        }
      }
      arrivals_left = arrivals_left || next[t] < by_tenant[t].size();
      in_flight = in_flight || !pending[t].empty();
    }
    if (!arrivals_left && !in_flight) break;
    if (clock_of[0]->cycle() > cycle_cap) break;
    io.drain(/*serial_pump=*/true);
    for (unsigned t = 0; t < w.tenants; ++t) {
      while (auto c = io.fetch([&] { return pool.fetch(d.ids[t]); })) {
        countCompletion(c->status, r.acct);
        if (pending[t].empty()) {
          ++r.wrong_outputs;
          continue;
        }
        const Pending p = pending[t].front();
        pending[t].pop_front();
        if (c->ticket != p.ticket) ++r.wrong_outputs;
        OpState& o = st[p.op];
        if (c->status == soc::CompletionStatus::Ok) {
          out[bursts[p.op].first + p.block] = c->data;
        } else {
          o.failed = true;
        }
        o.last_complete = std::max(o.last_complete, c->complete_cycle);
        resolve(p.op);
      }
    }
  }
  traffic.stop(r);
  const auto c1 = shardCycles(pool);
  for (std::size_t s = 0; s < c1.size(); ++s) r.shard_cycles.push_back(c1[s] - c0[s]);
  closeAccounts(pool, r);

  const auto k0 = Clock::now();
  r.ops = bursts.size();
  for (std::size_t b = 0; b < bursts.size(); ++b) {
    if (st[b].failed || st[b].remaining > 0) continue;
    const auto& key = d.keys[bursts[b].tenant];
    for (std::size_t i = bursts[b].first; i < bursts[b].first + bursts[b].count; ++i) {
      const aes::Block want = bursts[b].decrypt
                                  ? aes::decryptBlock(sched.blocks[i], key)
                                  : aes::encryptBlock(sched.blocks[i], key);
      if (out[i] != want) ++r.wrong_outputs;
    }
  }
  r.check_s = secondsSince(k0);
}

// --- aead_mix ----------------------------------------------------------------------
void closedAead(const WorkloadSpec& w, std::uint64_t seed, Deployment& d,
                LayerProbe* probe, EpisodeResult& r) {
  struct AeadOp {
    bool open = false;
    std::vector<std::uint8_t> iv, aad, pt, ct;
    aes::Tag128 tag{};  // open: the host seal's tag
    bool ok = false;
    std::vector<std::uint8_t> out;
    aes::Tag128 out_tag{};
  };
  const unsigned T = w.tenants;
  const unsigned n = w.aead_ops_per_tenant;
  std::vector<std::vector<AeadOp>> ops(T);
  for (unsigned t = 0; t < T; ++t) {
    Rng g{subSeed(seed, 200 + t)};
    for (unsigned i = 0; i < n; ++i) {
      AeadOp op;
      op.open = g.below(2) == 1;
      auto bytes = [&g](std::size_t len) {
        std::vector<std::uint8_t> v(len);
        for (auto& b : v) b = static_cast<std::uint8_t>(g.next());
        return v;
      };
      op.iv = bytes(12);
      op.aad = bytes(g.below(kMaxAadBytes + 1));
      op.pt = bytes(16 * (1 + g.below(kMaxMsgBlocks)));
      if (op.open) {
        auto sealed = aes::gcmEncrypt(op.pt, op.aad, d.keys[t], op.iv);
        op.ct = std::move(sealed.ciphertext);
        op.tag = sealed.tag;
      }
      ops[t].push_back(std::move(op));
    }
  }

  soc::EnginePool& pool = *d.pool;
  if (probe) probe->attach(pool);
  Traffic io{pool, probe, r.acct};
  std::vector<std::deque<Pending>> pending(T);
  std::vector<unsigned> next(T, 0);
  std::uint64_t done = 0;
  const std::uint64_t total = static_cast<std::uint64_t>(T) * n;
  const auto c0 = shardCycles(pool);
  const PhaseClock traffic;
  while (done < total) {
    for (unsigned t = 0; t < T; ++t) {
      while (next[t] < n) {
        const AeadOp& op = ops[t][next[t]];
        const bool admitted = io.submit([&] {
          return op.open ? pool.submitOpen(d.ids[t], op.ct, op.aad, op.tag, op.iv)
                         : pool.submitSeal(d.ids[t], op.pt, op.aad, op.iv);
        });
        if (!admitted) break;
        pending[t].push_back({next[t], 0, io.lastTicket()});
        ++next[t];
      }
    }
    io.drain(/*serial_pump=*/false);
    std::uint64_t progress = 0;
    for (unsigned t = 0; t < T; ++t) {
      while (auto c = io.fetch([&] { return pool.fetchAead(d.ids[t]); })) {
        ++progress;
        countCompletion(c->status, r.acct);
        if (pending[t].empty()) {
          ++r.wrong_outputs;
          continue;
        }
        const Pending p = pending[t].front();
        pending[t].pop_front();
        if (c->ticket != p.ticket) ++r.wrong_outputs;
        if (c->status == soc::CompletionStatus::Ok) {
          AeadOp& op = ops[t][p.op];
          op.ok = true;
          op.out = std::move(c->data);
          op.out_tag = c->tag;
          r.latency.push_back(c->complete_cycle - c->submit_cycle);
        }
      }
    }
    done += progress;
    if (progress == 0) break;
  }
  traffic.stop(r);
  const auto c1 = shardCycles(pool);
  for (std::size_t s = 0; s < c1.size(); ++s) r.shard_cycles.push_back(c1[s] - c0[s]);
  closeAccounts(pool, r);

  const auto k0 = Clock::now();
  r.ops = total;
  for (unsigned t = 0; t < T; ++t) {
    for (const AeadOp& op : ops[t]) {
      if (!op.ok) continue;
      ++r.ok_ops;
      r.ok_blocks += op.pt.size() / 16;
      if (op.open) {
        if (op.out != op.pt) ++r.wrong_outputs;
      } else {
        const auto want = aes::gcmEncrypt(op.pt, op.aad, d.keys[t], op.iv);
        if (op.out != want.ciphertext || op.out_tag != want.tag) ++r.wrong_outputs;
      }
    }
  }
  r.check_s = secondsSince(k0);
}

}  // namespace

WorkloadSpec workloadByName(const std::string& name) {
  WorkloadSpec w;
  w.name = name;
  w.pool.service = honestService();
  if (name == "bulk_ecb") {
    w.loop = Loop::ClosedBlocks;
    w.pool.shards = 4;
    w.pool.parallel_drain = true;
    w.pool.service.batch_size = 64;
    w.pool.service.quota_per_round = 64;
    w.pool.service.use_dma_ring = true;
    w.tenants = 8;
    w.queue_depth = 64;
    w.pool.service.global_high_watermark = 8 * 64;
    w.blocks_per_tenant = 2048;
  } else if (name == "mixed_open") {
    w.loop = Loop::OpenBlocks;
    w.pool.shards = 2;
    w.pool.parallel_drain = false;
    w.pool.service.batch_size = 16;
    w.pool.service.quota_per_round = 16;
    w.pool.service.use_dma_ring = true;
    w.tenants = 12;
    w.queue_depth = 64;
    w.pool.service.global_high_watermark = 12 * 64;
    w.open.tenants = 12;
    w.open.blocks_per_cycle = 0.12 * 2;
    // Short episodes, many to a round: the host rate is a quantile over
    // episodes, and needs dozens of them in a run.
    w.open.horizon = 80000;
    w.episodes_per_round = 16;
  } else if (name == "aead_mix") {
    w.loop = Loop::ClosedAead;
    w.pool.shards = 2;
    // Serial: a thread pair spawned per wave cost about half again the
    // wave's CPU time, and its wall time followed the host's scheduler load.
    w.pool.parallel_drain = false;
    w.tenants = 4;
    w.queue_depth = 16;
    w.pool.service.global_high_watermark = 1024;
    w.aead_ops_per_tenant = 64;
    w.episodes_per_round = 8;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

std::vector<std::string> workloadNames() {
  return {"bulk_ecb", "mixed_open", "aead_mix"};
}

std::uint64_t EpisodeResult::slowestShardCycles() const {
  std::uint64_t m = 0;
  for (auto c : shard_cycles) m = std::max(m, c);
  return m;
}

EpisodeResult runEpisode(const WorkloadSpec& w, std::uint64_t seed,
                         LayerProbe* probe) {
  EpisodeResult r;
  Deployment d = deploy(w, seed);
  r.setup_s = d.setup_s;
  switch (w.loop) {
    case Loop::ClosedBlocks: closedBlocks(w, seed, d, probe, r); break;
    case Loop::OpenBlocks: openBlocks(w, seed, d, probe, r); break;
    case Loop::ClosedAead: closedAead(w, seed, d, probe, r); break;
  }
  if (probe) probe->finish(*d.pool, r);
  return r;
}

}  // namespace perfbench
