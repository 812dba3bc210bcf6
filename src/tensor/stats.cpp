#include "tensor/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace redcane::stats {
namespace {

template <typename T>
Range range_impl(std::span<const T> xs) {
  // Seeded from the first non-NaN element; std::min/max then skip a NaN
  // (every comparison with it is false). Eight independent chains keep the
  // pass at load speed.
  std::size_t i = 0;
  while (i < xs.size() && std::isnan(xs[i])) ++i;
  if (i == xs.size()) return {};
  constexpr std::size_t kChains = 8;
  T mn[kChains];
  T mx[kChains];
  std::fill(mn, mn + kChains, xs[i]);
  std::fill(mx, mx + kChains, xs[i]);
  for (; i + kChains <= xs.size(); i += kChains) {
    for (std::size_t k = 0; k < kChains; ++k) {
      mn[k] = std::min(mn[k], xs[i + k]);
      mx[k] = std::max(mx[k], xs[i + k]);
    }
  }
  for (; i < xs.size(); ++i) {
    mn[0] = std::min(mn[0], xs[i]);
    mx[0] = std::max(mx[0], xs[i]);
  }
  T lo = mn[0];
  T hi = mx[0];
  for (std::size_t k = 1; k < kChains; ++k) {
    lo = std::min(lo, mn[k]);
    hi = std::max(hi, mx[k]);
  }
  // Only a zero extremum has two encodings. Give it the sign of the first
  // zero in the sample, as one sequential std::min/max pass would.
  if (lo == 0 || hi == 0) {
    const T first_zero = *std::find(xs.begin(), xs.end(), T{0});
    if (lo == 0) lo = first_zero;
    if (hi == 0) hi = first_zero;
  }
  return {static_cast<double>(lo), static_cast<double>(hi)};
}

template <typename T>
Moments moments_impl(std::span<const T> xs) {
  Moments m;
  m.count = static_cast<std::int64_t>(xs.size());
  if (xs.empty()) return m;
  double sum = 0.0;
  for (T x : xs) sum += static_cast<double>(x);
  m.mean = sum / static_cast<double>(xs.size());
  double var = 0.0;
  for (T x : xs) {
    const double d = static_cast<double>(x) - m.mean;
    var += d * d;
  }
  m.stddev = std::sqrt(var / static_cast<double>(xs.size()));
  const Range r = range_impl(xs);
  m.min = r.min;
  m.max = r.max;
  return m;
}

}  // namespace

Range range(std::span<const float> xs) { return range_impl(xs); }
Range range(const Tensor& t) { return range_impl(t.data()); }

Moments moments(std::span<const double> xs) { return moments_impl(xs); }
Moments moments(std::span<const float> xs) { return moments_impl(xs); }
Moments moments(const Tensor& t) { return moments_impl(t.data()); }

Histogram::Histogram(double lo, double hi, std::size_t bins) : lo_(lo), hi_(hi), counts_(bins, 0) {
  if (!(hi > lo) || bins == 0) {
    std::fprintf(stderr, "redcane::stats fatal: invalid histogram bounds\n");
    std::abort();
  }
}

void Histogram::add(double x) {
  const double t = (x - lo_) / (hi_ - lo_);
  auto bin = static_cast<std::int64_t>(t * static_cast<double>(counts_.size()));
  bin = std::clamp<std::int64_t>(bin, 0, static_cast<std::int64_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(bin)];
  ++total_;
}

void Histogram::add(std::span<const double> xs) {
  for (double x : xs) add(x);
}

void Histogram::add(std::span<const float> xs) {
  for (float x : xs) add(static_cast<double>(x));
}

double Histogram::bin_center(std::size_t bin) const {
  const double w = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + (static_cast<double>(bin) + 0.5) * w;
}

double Histogram::frequency(std::size_t bin) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(counts_[bin]) / static_cast<double>(total_);
}

std::vector<double> gaussian_expected_counts(const Histogram& h, double mean, double stddev,
                                             std::int64_t total) {
  std::vector<double> out(h.bins(), 0.0);
  if (stddev <= 0.0) {
    // Degenerate distribution: all mass in the bucket containing the mean.
    Histogram probe(h.lo(), h.hi(), h.bins());
    probe.add(mean);
    for (std::size_t b = 0; b < h.bins(); ++b) {
      out[b] = static_cast<double>(probe.count(b)) * static_cast<double>(total);
    }
    return out;
  }
  const double w = (h.hi() - h.lo()) / static_cast<double>(h.bins());
  auto cdf = [&](double x) { return 0.5 * (1.0 + std::erf((x - mean) / (stddev * M_SQRT2))); };
  for (std::size_t b = 0; b < h.bins(); ++b) {
    const double left = h.lo() + static_cast<double>(b) * w;
    const double mass = cdf(left + w) - cdf(left);
    out[b] = mass * static_cast<double>(total);
  }
  return out;
}

double gaussian_fit_distance(const Histogram& h, double mean, double stddev) {
  if (h.total() == 0) return 2.0;
  const std::vector<double> expected = gaussian_expected_counts(h, mean, stddev, h.total());
  double l1 = 0.0;
  for (std::size_t b = 0; b < h.bins(); ++b) {
    const double ef = expected[b] / static_cast<double>(h.total());
    l1 += std::abs(h.frequency(b) - ef);
  }
  return l1;
}

}  // namespace redcane::stats
