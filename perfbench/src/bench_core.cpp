#include "bench_core.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

template <typename T>
T nearestRank(std::vector<T> samples, unsigned permille) {
  if (samples.empty()) return T{};
  const std::size_t n = samples.size();
  std::size_t rank = (static_cast<std::size_t>(permille) * n + 999) / 1000;
  if (rank < 1) rank = 1;
  if (rank > n) rank = n;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

}  // namespace

std::uint64_t percentile(std::vector<std::uint64_t> samples,
                         unsigned permille) {
  return nearestRank(std::move(samples), permille);
}

double quantile(std::vector<double> v, unsigned permille) {
  return nearestRank(std::move(v), permille);
}

bool percentileSupported(std::size_t n, unsigned permille) {
  const std::size_t rank = (static_cast<std::size_t>(permille) * n + 999) / 1000;
  return n >= rank + 10;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

Accounting& Accounting::operator+=(const Accounting& o) {
  svc_offered += o.svc_offered;
  svc_refused += o.svc_refused;
  svc_shed += o.svc_shed;
  svc_ok += o.svc_ok;
  submits += o.submits;
  refused += o.refused;
  ok += o.ok;
  suppressed += o.suppressed;
  shed += o.shed;
  rejected += o.rejected;
  failed += o.failed;
  still_queued += o.still_queued;
  return *this;
}

std::vector<std::string> Accounting::violations() const {
  std::vector<std::string> v;
  auto expect = [&v](const char* what, std::uint64_t a, std::uint64_t b) {
    if (a != b) {
      v.push_back(std::string{what} + ": " + std::to_string(a) +
                  " != " + std::to_string(b));
    }
  };
  expect("offered = ok + suppressed + shed + rejected + failed + still_queued",
         svc_offered,
         ok + suppressed + svc_shed + svc_refused + rejected + failed +
             still_queued);
  expect("service offered vs benchmark submits", svc_offered, submits);
  expect("service refusals vs benchmark refusals", svc_refused, refused);
  expect("service shed vs fetched shed completions", svc_shed, shed);
  expect("service ok vs fetched ok completions", svc_ok, ok);
  expect("shed tickets (a shedding configuration is not measurable)",
         svc_shed, 0);
  return v;
}

std::uint64_t Rng::next() {
  std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

unsigned Rng::below(unsigned n) {
  return static_cast<unsigned>(next() % n);
}

aesifc::aes::Block Rng::block() {
  aesifc::aes::Block b{};
  const std::uint64_t lo = next();
  const std::uint64_t hi = next();
  for (unsigned i = 0; i < 8; ++i) {
    b[i] = static_cast<std::uint8_t>(lo >> (8 * i));
    b[8 + i] = static_cast<std::uint8_t>(hi >> (8 * i));
  }
  return b;
}

std::uint64_t subSeed(std::uint64_t seed, std::uint64_t stream) {
  Rng r{seed ^ (0xd1b54a32d192ed03ull * (stream + 1))};
  return r.next();
}

OpenLoopSchedule openLoopSchedule(std::uint64_t seed, const OpenLoopParams& p) {
  OpenLoopSchedule out;
  const double mean_burst = 0.5 * (p.min_burst + p.max_burst);
  const double bursts_per_cycle =
      p.blocks_per_cycle / p.tenants / mean_burst;
  for (unsigned t = 0; t < p.tenants; ++t) {
    Rng r{subSeed(seed, t)};
    double at = 0.0;
    for (;;) {
      // Exponential inter-arrival by inversion; 1 - u is in (0, 1].
      at += -std::log(1.0 - r.uniform()) / bursts_per_cycle;
      const auto due = static_cast<std::uint64_t>(at);
      if (due >= p.horizon) break;
      Burst b;
      b.due = due;
      b.tenant = t;
      b.decrypt = r.uniform() < p.decrypt_share;
      b.first = out.blocks.size();
      b.count = p.min_burst + r.below(p.max_burst - p.min_burst + 1);
      for (unsigned i = 0; i < b.count; ++i) out.blocks.push_back(r.block());
      out.bursts.push_back(b);
    }
  }
  std::stable_sort(out.bursts.begin(), out.bursts.end(),
                   [](const Burst& a, const Burst& b) {
                     return a.due != b.due ? a.due < b.due : a.tenant < b.tenant;
                   });
  return out;
}

}  // namespace perfbench
