// Process-wide metrics registry: named counters, gauges, and log-linear
// latency histograms shared by the serving path, the sweep engine, the
// quantization caches, and the dist coordinator/workers.
//
// Design contract (docs/architecture.md "Observability"):
//  - Hot-path cost is one relaxed atomic RMW per increment (two with a
//    parent). Callers resolve `Counter&`/`Histogram&` once (registration
//    takes a mutex) and then touch only the atomics.
//  - Instances registered under a name are never deallocated for the
//    process lifetime, so cached references stay valid across threads.
//  - Metric names are `snake_case` with a subsystem prefix
//    (`serve_`, `sweep_`, `lut_`, `dist_`) and a `_total` suffix for
//    monotonic counters, mirroring Prometheus conventions. Labels are
//    baked into the name at registration (`name{label="v"}`).
//  - One store per count: an instance's counters are children of the
//    registry counters of the same names, declared from one CounterTable,
//    and its stats struct (`ServerStats` and friends) is a view of them.
//  - Conservation laws live on those structs; a registered check applies
//    the same law to the struct read back from a snapshot, at quiescent
//    points, never over live racing counters.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace redcane::obs {

/// Monotonic counter. `add` is a single relaxed fetch_add, repeated on
/// the parent when there is one.
class Counter {
 public:
  Counter() = default;
  /// A counter whose adds also land on `parent` (a registry counter, which
  /// outlives every instance).
  explicit Counter(Counter& parent) noexcept : parent_(&parent) {}

  void add(std::int64_t delta = 1) noexcept {
    v_.fetch_add(delta, std::memory_order_relaxed);
    if (parent_ != nullptr) parent_->add(delta);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  /// Zeroes this counter's own count; the parent's total keeps counting.
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
  Counter* const parent_ = nullptr;
};

/// Last-write-wins gauge (queue depth, worker count, pressure flag).
class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> v_{0.0};
};

/// Log-linear histogram ("HDR-lite"): each power-of-two octave of the
/// value range is split into `kSubBuckets` equal-width buckets, giving a
/// bounded relative error of 1/kSubBuckets per observation while keeping
/// `observe` to two relaxed RMWs. Values below 1.0 share bucket 0.
///
/// `percentile(p)` is nearest-rank over bucket counts: it returns the
/// upper bound of the bucket holding the rank-`ceil(p/100 * count)`
/// observation, clamped to the true observed maximum so p100 (and any
/// percentile landing in the top occupied bucket) is exact.
class Histogram {
 public:
  static constexpr int kSubBuckets = 8;
  static constexpr int kOctaves = 40;  ///< covers values up to 2^40.
  static constexpr int kBuckets = 1 + kOctaves * kSubBuckets;

  Histogram() = default;
  /// An instance histogram whose observations also land on `parent`.
  explicit Histogram(Histogram& parent) noexcept : parent_(&parent) {}

  void observe(double v) noexcept;

  [[nodiscard]] std::int64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }
  /// Nearest-rank percentile; 0.0 when empty. `p` in [0, 100].
  [[nodiscard]] double percentile(double p) const noexcept;

  /// Bucket index an observation of `v` lands in (exposed for tests).
  [[nodiscard]] static int bucket_index(double v) noexcept;
  /// Inclusive upper bound of bucket `idx` (exposed for tests).
  [[nodiscard]] static double bucket_upper(int idx) noexcept;
  [[nodiscard]] std::int64_t bucket_count(int idx) const noexcept {
    return buckets_[static_cast<std::size_t>(idx)].load(
        std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> buckets_[kBuckets]{};
  std::atomic<std::int64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> max_{0.0};
  Histogram* const parent_ = nullptr;
};

/// One consistent read of every registered metric. Histograms are
/// summarized (count/sum/max + fixed quantiles) rather than copied
/// bucket-by-bucket.
struct Snapshot {
  struct HistogramSummary {
    std::int64_t count = 0;
    double sum = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p99 = 0.0;
    double p999 = 0.0;
  };
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSummary> histograms;

  /// Counter value by name; 0 when absent (laws sum missing terms as 0).
  [[nodiscard]] std::int64_t counter(const std::string& name) const;
};

/// Result of one registered conservation check.
struct CheckResult {
  std::string name;
  bool ok = false;
};

/// Process-wide registry. `instance()` is the only way to get one.
class Registry {
 public:
  static Registry& instance();

  /// Returns the metric registered under `name`, creating it on first
  /// use. The reference is valid for the process lifetime. Registering
  /// the same name as two different metric kinds aborts (programmer
  /// error, caught in tests).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Registers a named conservation law over a snapshot. Re-registering
  /// under the same name replaces the previous law (serving instances
  /// come and go; the law text stays).
  void add_check(const std::string& name,
                 std::function<bool(const Snapshot&)> fn);

  [[nodiscard]] Snapshot snapshot() const;
  /// Evaluates every registered check against one snapshot.
  [[nodiscard]] std::vector<CheckResult> run_checks() const;

  /// Prometheus-style text exposition: `name value` lines, histogram
  /// quantiles as `name{q="p50"} value`, plus `# check <name> ok|FAIL`
  /// trailer lines from `run_checks()`.
  [[nodiscard]] std::string exposition() const;
  /// Writes `exposition()` to `path`; false (with a warning) on failure.
  bool write_text(const std::string& path) const;

 private:
  Registry() = default;
};

/// One row of a stats view: the registry name of a counter and the field
/// of the value struct `S` that shows it (null: counted, not shown).
template <typename S>
struct CounterField {
  const char* name;
  std::int64_t S::*field;
};

template <typename S, std::size_t N>
using CounterTable = std::array<CounterField<S>, N>;

/// The counters of one instance, declared from `table`: counter `i` is the
/// child of the registry counter `table[i].name`.
template <typename S, std::size_t N>
[[nodiscard]] std::array<Counter, N> counters(const CounterTable<S, N>& table) {
  return [&]<std::size_t... I>(std::index_sequence<I...>) {
    return std::array<Counter, N>{Counter(Registry::instance().counter(table[I].name))...};
  }(std::make_index_sequence<N>{});
}

/// `S` read through `table`: from an instance's own counters (its stats
/// view), or from the process totals in a Snapshot (what a registered
/// check applies the law of `S` to).
template <typename S, std::size_t N>
[[nodiscard]] S read(const CounterTable<S, N>& table, const std::array<Counter, N>& counters) {
  S out;
  for (std::size_t i = 0; i < N; ++i) {
    if (table[i].field != nullptr) out.*table[i].field = counters[i].value();
  }
  return out;
}
template <typename S, std::size_t N>
[[nodiscard]] S read(const CounterTable<S, N>& table, const Snapshot& snap) {
  S out;
  for (const CounterField<S>& row : table) {
    if (row.field != nullptr) out.*row.field = snap.counter(row.name);
  }
  return out;
}

/// Arms `REDCANE_METRICS=PATH`: when set, the registry's exposition is
/// written to PATH at process exit. Called from the library's own static
/// initializer; safe to call again (idempotent).
void metrics_env_arm();

}  // namespace redcane::obs
