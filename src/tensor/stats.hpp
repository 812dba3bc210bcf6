// Descriptive statistics used across ReD-CaNe: tensor ranges for the
// noise-magnitude definition (NM = std/R, NA = mean/R), Gaussian moment
// fits for approximate-multiplier error profiles (Fig. 6), and histograms
// for the input-distribution study (Fig. 11).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/tensor.hpp"

namespace redcane::stats {

/// Extrema of a sample.
struct Range {
  double min = 0.0;
  double max = 0.0;

  /// Dynamic range R = max - min, the normalizer in the paper's NM/NA.
  [[nodiscard]] double width() const { return max - min; }
};

/// One min/max pass that skips NaN elements. An empty or all-NaN sample
/// yields {0, 0}, so Eq. 3-4 leaves it unperturbed.
[[nodiscard]] Range range(std::span<const float> xs);
[[nodiscard]] Range range(const Tensor& t);

/// First and second moments plus extrema of a sample. The extrema are
/// range()'s, so they skip NaN; mean and stddev do not.
struct Moments {
  double mean = 0.0;
  double stddev = 0.0;  ///< Population standard deviation.
  double min = 0.0;
  double max = 0.0;
  std::int64_t count = 0;

  /// Dynamic range R = max - min, the normalizer in the paper's NM/NA.
  [[nodiscard]] double range() const { return max - min; }
};

/// Computes moments of a raw sample. Empty input yields all-zero Moments.
[[nodiscard]] Moments moments(std::span<const double> xs);
[[nodiscard]] Moments moments(std::span<const float> xs);
[[nodiscard]] Moments moments(const Tensor& t);

/// Fixed-width histogram over [lo, hi] with `bins` buckets; out-of-range
/// samples are clamped into the first/last bucket.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  void add(std::span<const double> xs);
  void add(std::span<const float> xs);

  [[nodiscard]] double lo() const { return lo_; }
  [[nodiscard]] double hi() const { return hi_; }
  [[nodiscard]] std::size_t bins() const { return counts_.size(); }
  [[nodiscard]] std::int64_t count(std::size_t bin) const { return counts_[bin]; }
  [[nodiscard]] std::int64_t total() const { return total_; }

  /// Center of a bucket.
  [[nodiscard]] double bin_center(std::size_t bin) const;

  /// Fraction of mass in a bucket (0 when empty).
  [[nodiscard]] double frequency(std::size_t bin) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::int64_t> counts_;
  std::int64_t total_ = 0;
};

/// Expected counts of a Gaussian(mean, stddev) over the histogram's
/// buckets, scaled to `total` samples — the "Gaussian interpolation"
/// overlay of the paper's Fig. 6.
[[nodiscard]] std::vector<double> gaussian_expected_counts(const Histogram& h, double mean,
                                                           double stddev, std::int64_t total);

/// Two-sample goodness measure: normalized L1 distance between histogram
/// frequencies and the Gaussian fit in [0, 2] (0 = identical). Used to
/// decide whether a multiplier's error profile is "Gaussian-like"
/// (31 of 35 components in the paper).
[[nodiscard]] double gaussian_fit_distance(const Histogram& h, double mean, double stddev);

}  // namespace redcane::stats
