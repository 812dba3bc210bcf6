#include "obs/metrics.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>

namespace redcane::obs {
namespace {

// Registered metrics live in leaked maps so references handed to hot
// paths stay valid through static destruction order and thread exit.
struct RegistryState {
  std::mutex mu;
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
  std::map<std::string, std::function<bool(const Snapshot&)>> checks;
};

RegistryState& state() {
  static RegistryState* s = new RegistryState();  // Intentionally leaked.
  return *s;
}

void atomic_double_max(std::atomic<double>& a, double v) noexcept {
  double cur = a.load(std::memory_order_relaxed);
  while (cur < v && !a.compare_exchange_weak(cur, v,
                                             std::memory_order_relaxed,
                                             std::memory_order_relaxed)) {
  }
}

}  // namespace

int Histogram::bucket_index(double v) noexcept {
  if (!(v >= 1.0)) return 0;  // Sub-unit and non-finite-negative inputs.
  int oct = static_cast<int>(std::floor(std::log2(v)));
  // Guard the octave against log2 rounding at exact powers of two.
  if (std::ldexp(1.0, oct + 1) <= v) ++oct;
  if (std::ldexp(1.0, oct) > v) --oct;
  if (oct < 0) return 0;
  if (oct >= kOctaves) return kBuckets - 1;
  const double lower = std::ldexp(1.0, oct);
  const double width = lower / kSubBuckets;
  int sub = static_cast<int>((v - lower) / width);
  if (sub >= kSubBuckets) sub = kSubBuckets - 1;
  return 1 + oct * kSubBuckets + sub;
}

double Histogram::bucket_upper(int idx) noexcept {
  if (idx <= 0) return 1.0;
  const int oct = (idx - 1) / kSubBuckets;
  const int sub = (idx - 1) % kSubBuckets;
  const double lower = std::ldexp(1.0, oct);
  return lower + lower / kSubBuckets * (sub + 1);
}

void Histogram::observe(double v) noexcept {
  buckets_[static_cast<std::size_t>(bucket_index(v))].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  atomic_double_max(max_, v);
  if (parent_ != nullptr) parent_->observe(v);
}

double Histogram::percentile(double p) const noexcept {
  const std::int64_t n = count();
  if (n <= 0) return 0.0;
  std::int64_t rank =
      static_cast<std::int64_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  if (rank < 1) rank = 1;
  if (rank > n) rank = n;
  std::int64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += bucket_count(i);
    if (seen >= rank) {
      const double upper = bucket_upper(i);
      const double mx = max();
      return upper < mx ? upper : mx;
    }
  }
  return max();
}

std::int64_t Snapshot::counter(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

Registry& Registry::instance() {
  static Registry r;
  return r;
}

namespace {

/// The `T` registered under `name` in `own`, created on first use. A name
/// already registered as another kind aborts (programmer error).
template <typename T>
T& find_or_create(std::map<std::string, std::unique_ptr<T>>& own, const std::string& name) {
  RegistryState& s = state();
  const std::size_t elsewhere = s.counters.count(name) + s.gauges.count(name) +
                                s.histograms.count(name) - own.count(name);
  if (elsewhere != 0) {
    std::fprintf(stderr, "obs: metric '%s' registered as two kinds\n", name.c_str());
    std::abort();
  }
  std::unique_ptr<T>& slot = own[name];
  if (!slot) slot = std::make_unique<T>();
  return *slot;
}

}  // namespace

Counter& Registry::counter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(state().mu);
  return find_or_create(state().counters, name);
}

Gauge& Registry::gauge(const std::string& name) {
  const std::lock_guard<std::mutex> lock(state().mu);
  return find_or_create(state().gauges, name);
}

Histogram& Registry::histogram(const std::string& name) {
  const std::lock_guard<std::mutex> lock(state().mu);
  return find_or_create(state().histograms, name);
}

void Registry::add_check(const std::string& name,
                         std::function<bool(const Snapshot&)> fn) {
  RegistryState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.checks[name] = std::move(fn);
}

Snapshot Registry::snapshot() const {
  RegistryState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  Snapshot snap;
  for (const auto& [name, c] : s.counters) snap.counters[name] = c->value();
  for (const auto& [name, g] : s.gauges) snap.gauges[name] = g->value();
  for (const auto& [name, h] : s.histograms) {
    snap.histograms[name] = {h->count(), h->sum(), h->max(), h->percentile(50.0),
                             h->percentile(99.0), h->percentile(99.9)};
  }
  return snap;
}

std::vector<CheckResult> Registry::run_checks() const {
  const Snapshot snap = snapshot();
  RegistryState& s = state();
  std::vector<CheckResult> out;
  std::lock_guard<std::mutex> lock(s.mu);
  out.reserve(s.checks.size());
  for (const auto& [name, fn] : s.checks) out.push_back({name, fn(snap)});
  return out;
}

std::string Registry::exposition() const {
  const Snapshot snap = snapshot();
  std::string out;
  char line[256];
  for (const auto& [name, v] : snap.counters) {
    std::snprintf(line, sizeof line, "%s %lld\n", name.c_str(),
                  static_cast<long long>(v));
    out += line;
  }
  for (const auto& [name, v] : snap.gauges) {
    std::snprintf(line, sizeof line, "%s %.6g\n", name.c_str(), v);
    out += line;
  }
  for (const auto& [name, h] : snap.histograms) {
    std::snprintf(line, sizeof line, "%s_count %lld\n", name.c_str(),
                  static_cast<long long>(h.count));
    out += line;
    const std::pair<const char*, double> rows[] = {{"_sum", h.sum},
                                                   {"{q=\"p50\"}", h.p50},
                                                   {"{q=\"p99\"}", h.p99},
                                                   {"{q=\"p99.9\"}", h.p999},
                                                   {"{q=\"max\"}", h.max}};
    for (const auto& [suffix, v] : rows) {
      std::snprintf(line, sizeof line, "%s%s %.6g\n", name.c_str(), suffix, v);
      out += line;
    }
  }
  for (const CheckResult& c : run_checks()) {
    std::snprintf(line, sizeof line, "# check %s %s\n", c.name.c_str(),
                  c.ok ? "ok" : "FAIL");
    out += line;
  }
  return out;
}

bool Registry::write_text(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "obs: cannot open metrics file %s\n", path.c_str());
    return false;
  }
  const std::string text = exposition();
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return true;
}

namespace {

void metrics_atexit() {
  const char* path = std::getenv("REDCANE_METRICS");
  if (path != nullptr && path[0] != '\0') {
    Registry::instance().write_text(path);
  }
}

}  // namespace

void metrics_env_arm() {
  static bool armed = [] {
    const char* path = std::getenv("REDCANE_METRICS");
    if (path != nullptr && path[0] != '\0') std::atexit(metrics_atexit);
    return true;
  }();
  (void)armed;
}

namespace {
// Library-level arm: any binary linking obs honors REDCANE_METRICS
// without per-main wiring.
const bool g_env_arm = (metrics_env_arm(), true);
}  // namespace

}  // namespace redcane::obs
