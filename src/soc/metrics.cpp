#include "soc/metrics.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>

namespace aesifc::soc {

double mutualInformationBits(const std::vector<int>& x,
                             const std::vector<int>& y) {
  assert(x.size() == y.size());
  if (x.empty()) return 0.0;
  const double n = static_cast<double>(x.size());
  std::map<int, double> px, py;
  std::map<std::pair<int, int>, double> pxy;
  for (std::size_t i = 0; i < x.size(); ++i) {
    px[x[i]] += 1.0 / n;
    py[y[i]] += 1.0 / n;
    pxy[{x[i], y[i]}] += 1.0 / n;
  }
  double mi = 0.0;
  for (const auto& [xy, p] : pxy) {
    const double denom = px[xy.first] * py[xy.second];
    if (p > 0.0 && denom > 0.0) mi += p * std::log2(p / denom);
  }
  return mi < 0.0 ? 0.0 : mi;
}

double pearson(const std::vector<double>& x, const std::vector<double>& y) {
  assert(x.size() == y.size());
  if (x.size() < 2) return 0.0;
  const double n = static_cast<double>(x.size());
  double mx = 0.0, my = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= n;
  my /= n;
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
    syy += (y[i] - my) * (y[i] - my);
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

double percentile(std::vector<std::uint64_t> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  // Nearest rank: the ceil(q/100 * N)-th smallest sample (1-based).
  const double rank = std::ceil(q / 100.0 * static_cast<double>(samples.size()));
  std::size_t idx = rank <= 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  if (idx >= samples.size()) idx = samples.size() - 1;
  return static_cast<double>(samples[idx]);
}

LatencyStats latencyStats(const std::vector<std::uint64_t>& samples,
                          StddevKind kind) {
  LatencyStats s;
  if (samples.empty()) return s;
  s.count = samples.size();
  s.min = samples[0];
  s.max = samples[0];
  double sum = 0.0;
  for (auto v : samples) {
    sum += static_cast<double>(v);
    if (v < s.min) s.min = v;
    if (v > s.max) s.max = v;
  }
  s.mean = sum / static_cast<double>(samples.size());
  double var = 0.0;
  for (auto v : samples) {
    const double d = static_cast<double>(v) - s.mean;
    var += d * d;
  }
  if (kind == StddevKind::Sample) {
    // Bessel's correction needs at least two samples; a single observation
    // has no sample variance (reported as 0, never NaN).
    s.stddev = samples.size() < 2
                   ? 0.0
                   : std::sqrt(var / static_cast<double>(samples.size() - 1));
  } else {
    s.stddev = std::sqrt(var / static_cast<double>(samples.size()));
  }

  std::vector<std::uint64_t> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  auto nearest_rank = [&](double q) {
    const double rank =
        std::ceil(q / 100.0 * static_cast<double>(sorted.size()));
    std::size_t idx = rank <= 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    if (idx >= sorted.size()) idx = sorted.size() - 1;
    return static_cast<double>(sorted[idx]);
  };
  s.p50 = nearest_rank(50.0);
  s.p95 = nearest_rank(95.0);
  s.p99 = nearest_rank(99.0);
  return s;
}

}  // namespace aesifc::soc
