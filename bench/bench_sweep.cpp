// Sweep-engine throughput: the run_redcane sweep phases (Step 2 group
// sweeps + Step 4 layer drill-down for the two historically non-resilient
// groups) driven four ways over the same model and test set:
//
//   serial          — the pre-engine driver: every grid point is a full
//                     serial re-evaluation of the whole test set.
//   parallel        — SweepEngine worker pool, prefix cache off.
//   cache           — prefix-activation caching, single worker.
//   parallel+cache  — the engine as run_redcane uses it.
//
// All four must produce bit-identical resilience curves; the combined
// engine must be >= 2x the serial driver (the gate this binary exits on).
// Results are appended as one JSON object to BENCH_sweep.json so the perf
// trajectory of the engine is machine-readable across commits.
//
// Usage: bench_sweep [--quick] [--threads N] [--json PATH]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/groups.hpp"
#include "core/resilience.hpp"
#include "core/sweep_engine.hpp"
#include "noise/injector.hpp"
#include "util/pool.hpp"

namespace redcane::bench {
namespace {

using Clock = std::chrono::steady_clock;
using core::ResilienceConfig;
using core::ResilienceCurve;

struct SweepJob {
  capsnet::OpKind kind;
  std::optional<std::string> layer;
};

/// Step 2 (all four groups) + Step 4 (layer-wise for MAC outputs and
/// activations, the groups the paper finds non-resilient and drills into).
std::vector<SweepJob> sweep_phase_jobs(capsnet::CapsModel& model) {
  std::vector<SweepJob> jobs;
  for (capsnet::OpKind kind : core::all_groups()) jobs.push_back({kind, std::nullopt});
  for (capsnet::OpKind kind : {capsnet::OpKind::kMacOutput, capsnet::OpKind::kActivation}) {
    for (const std::string& layer : model.layer_names()) jobs.push_back({kind, layer});
  }
  return jobs;
}

/// The pre-engine serial driver (one full evaluation per point), kept here
/// as the measured baseline and bit-exactness reference. `base` is the
/// memoized clean accuracy: the old analyzer evaluated it once for all
/// sweeps, so the timed loop must not re-pay it per job.
ResilienceCurve serial_sweep(capsnet::CapsModel& model, const data::Dataset& ds,
                             const ResilienceConfig& cfg, const SweepJob& job, double base) {
  ResilienceCurve curve;
  curve.kind = job.kind;
  curve.layer = job.layer;
  std::uint64_t salt = 1;
  for (double nm : cfg.sweep.nms) {
    const noise::NoiseSpec spec{nm, cfg.sweep.na};
    std::vector<noise::InjectionRule> rules;
    if (job.layer.has_value()) {
      rules.push_back(noise::layer_rule(job.kind, *job.layer, spec));
    } else {
      rules.push_back(noise::group_rule(job.kind, spec));
    }
    double acc = base;
    if (!(nm == 0.0 && cfg.sweep.na == 0.0)) {
      noise::GaussianInjector injector(rules, cfg.seed ^ (salt++ * core::kSaltMix));
      acc = capsnet::evaluate(model, ds.test_x, ds.test_y, &injector, cfg.eval_batch);
    }
    curve.nms.push_back(nm);
    curve.drop_pct.push_back((acc - base) * 100.0);
  }
  return curve;
}

struct PathResult {
  std::string name;
  double ms = 0.0;
  std::vector<ResilienceCurve> curves;
  core::SweepEngineStats stats;
};

PathResult run_engine_path(const std::string& name, capsnet::CapsModel& model,
                           const data::Dataset& ds, ResilienceConfig cfg,
                           const std::vector<SweepJob>& jobs) {
  PathResult r;
  r.name = name;
  const auto t0 = Clock::now();
  core::ResilienceAnalyzer analyzer(model, ds.test_x, ds.test_y, cfg);
  for (const SweepJob& job : jobs) {
    r.curves.push_back(job.layer.has_value() ? analyzer.sweep_layer(job.kind, *job.layer)
                                             : analyzer.sweep_group(job.kind));
  }
  r.ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  r.stats = analyzer.engine_stats();
  return r;
}

bool curves_identical(const std::vector<ResilienceCurve>& a,
                      const std::vector<ResilienceCurve>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].drop_pct != b[i].drop_pct) return false;
  }
  return true;
}

int run(bool quick, int threads, const std::string& json_path) {
  print_header("Resilience-sweep engine: serial vs parallel vs prefix-cache");

  // Untrained tiny DeepCaps: sweep cost depends only on architecture and
  // test-set size, and the 18-layer topology is the paper's heavy case.
  // --quick shrinks the grid and the test set but keeps the full 16x16
  // per-forward cost: with the SIMD microkernel core, smaller maps finish
  // their forwards so fast that fixed per-point costs (RNG draws, hook
  // emits, scoring) dominate and Amdahl pushes the engine's ratio under
  // the gate even though every path got absolutely faster. At 16x16 the
  // smoke run still measures the engine, not the overheads, in CI seconds.
  capsnet::DeepCapsConfig mc = capsnet::DeepCapsConfig::tiny();
  mc.input_hw = 16;
  Rng rng(2020);
  capsnet::DeepCapsModel model(mc, rng);

  data::SyntheticSpec spec;
  spec.kind = data::DatasetKind::kCifar10;
  spec.hw = mc.input_hw;
  spec.channels = 3;
  spec.train_count = 4;  // Unused; sweeps only read the test split.
  spec.test_count = quick ? 48 : 96;
  spec.seed = 41;
  const data::Dataset ds = data::make_synthetic(spec);

  ResilienceConfig cfg;
  if (quick) cfg.sweep.nms = {0.5, 0.2, 0.05, 0.02, 0.005, 0.0};
  cfg.seed = 2020;
  cfg.eval_batch = 32;

  const std::vector<SweepJob> jobs = sweep_phase_jobs(model);
  std::int64_t points = 0;
  for (const SweepJob& job : jobs) {
    (void)job;
    points += static_cast<std::int64_t>(cfg.sweep.nms.size()) - 1;  // NM=0 is free.
  }
  const int workers = threads > 0 ? threads : pool::threads();
  std::printf("DeepCaps tiny %lldx%lld, %lld test images, %zu sweeps, %lld noisy points, "
              "%d worker(s)\n\n",
              static_cast<long long>(mc.input_hw), static_cast<long long>(mc.input_hw),
              static_cast<long long>(spec.test_count), jobs.size(),
              static_cast<long long>(points), workers);

  // Serial reference (pre-engine driver): one clean baseline evaluation,
  // then one full evaluation per noisy point.
  PathResult serial;
  serial.name = "serial full-forward";
  {
    const auto t0 = Clock::now();
    const double base =
        capsnet::evaluate(model, ds.test_x, ds.test_y, nullptr, cfg.eval_batch);
    for (const SweepJob& job : jobs) {
      serial.curves.push_back(serial_sweep(model, ds, cfg, job, base));
    }
    serial.ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  }

  ResilienceConfig par = cfg;
  par.threads = workers;
  par.prefix_cache = false;
  ResilienceConfig cache = cfg;
  cache.threads = 1;
  cache.prefix_cache = true;
  ResilienceConfig both = cfg;
  both.threads = workers;
  both.prefix_cache = true;

  const PathResult r_par = run_engine_path("parallel", model, ds, par, jobs);
  const PathResult r_cache = run_engine_path("prefix-cache", model, ds, cache, jobs);
  const PathResult r_both = run_engine_path("parallel+cache", model, ds, both, jobs);

  const auto report = [&](const PathResult& r) {
    std::printf("  %-22s %10.1f ms  %7.2f points/s  (%.2fx vs serial)\n", r.name.c_str(),
                r.ms, static_cast<double>(points) / (r.ms / 1e3), serial.ms / r.ms);
  };
  std::printf("  %-22s %10.1f ms  %7.2f points/s\n", serial.name.c_str(), serial.ms,
              static_cast<double>(points) / (serial.ms / 1e3));
  report(r_par);
  report(r_cache);
  report(r_both);
  std::printf("\nprefix cache (parallel+cache run): %lld hits, %lld/%lld stage executions "
              "skipped (%.1f%%)\n",
              static_cast<long long>(r_both.stats.cache_hits),
              static_cast<long long>(r_both.stats.stages_skipped),
              static_cast<long long>(r_both.stats.stages_total),
              r_both.stats.skip_fraction() * 100.0);

  const bool identical = curves_identical(serial.curves, r_par.curves) &&
                         curves_identical(serial.curves, r_cache.curves) &&
                         curves_identical(serial.curves, r_both.curves);
  std::printf("curves bit-identical across all paths: %s\n", identical ? "yes" : "NO");

  const double speedup = serial.ms / r_both.ms;
  JsonFields fields;
  fields.boolean("quick", quick)
      .str("model", "DeepCaps-tiny")
      .integer("input_hw", mc.input_hw)
      .integer("test_images", spec.test_count)
      .integer("sweeps", static_cast<std::int64_t>(jobs.size()))
      .integer("noisy_points", points)
      .integer("threads", workers)
      .number("serial_ms", serial.ms, "%.1f")
      .number("parallel_ms", r_par.ms, "%.1f")
      .number("cache_ms", r_cache.ms, "%.1f")
      .number("parallel_cache_ms", r_both.ms, "%.1f")
      .number("speedup", speedup, "%.2f")
      .number("stage_skip_fraction", r_both.stats.skip_fraction(), "%.3f")
      .boolean("bit_identical", identical);
  if (append_bench_json(json_path, "sweep", fields)) {
    std::printf("appended results to %s\n", json_path.c_str());
  }

  const bool pass = identical && speedup >= 2.0;
  std::printf("\n%s: parallel+cache is %.2fx the serial sweep driver "
              "(target >= 2x, bit-identical required)\n",
              pass ? "PASS" : "FAIL", speedup);
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace redcane::bench

int main(int argc, char** argv) {
  bool quick = false;
  int threads = 0;
  std::string json_path = "BENCH_sweep.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) threads = std::atoi(argv[++i]);
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) json_path = argv[++i];
  }
  return redcane::bench::run(quick, threads, json_path);
}
