// Step-8 robustness-sweep throughput: (attack/transform severity) x
// (approximation noise) grids driven three ways over the same model and
// test set:
//
//   serial          — the naive pre-engine driver: every grid point
//                     regenerates its perturbed inputs and runs a full
//                     serial evaluation of the whole test set.
//   engine serial   — SweepEngine, one worker, input-keyed prefix cache on
//                     (each severity row perturbs once, points replay
//                     suffixes).
//   engine parallel — the same engine on the full worker pool.
//
// All three must produce bit-identical grids; the parallel engine must be
// >= 2x the naive serial driver (the gate this binary exits on). Results
// are appended as one JSON object to BENCH_robustness.json.
//
// Usage: bench_robustness [--quick] [--threads N] [--json PATH]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "attack/attack.hpp"
#include "bench_common.hpp"
#include "core/resilience.hpp"
#include "core/sweep_engine.hpp"
#include "noise/injector.hpp"
#include "util/pool.hpp"

namespace redcane::bench {
namespace {

using Clock = std::chrono::steady_clock;
using core::ResilienceConfig;
using core::RobustnessGrid;

/// Gradient-heavy mix: PGD/FGSM generation is the cost the input-keyed
/// cache amortizes (the naive driver regenerates the perturbed set at
/// every grid point), with one affine row to keep that path measured too.
std::vector<attack::Scenario> bench_scenarios(bool quick) {
  attack::Scenario pgd;
  pgd.kind = attack::AttackKind::kPgd;
  pgd.severities = quick ? std::vector<double>{0.05, 0.1}
                         : std::vector<double>{0.02, 0.05, 0.1};
  pgd.pgd_steps = 5;
  attack::Scenario fgsm;
  fgsm.kind = attack::AttackKind::kFgsm;
  fgsm.severities = quick ? std::vector<double>{0.1} : std::vector<double>{0.05, 0.1};
  attack::Scenario rotate;
  rotate.kind = attack::AttackKind::kRotate;
  rotate.severities = {15.0};
  return {pgd, fgsm, rotate};
}

/// Perturbs the whole test set in eval_batch chunks — the exact batch
/// geometry (and therefore attack generation) the engine uses.
Tensor attacked_test_set(capsnet::CapsModel& model, const data::Dataset& ds,
                         const attack::AttackSpec& spec, std::int64_t eval_batch) {
  const std::int64_t n = ds.test_x.shape().dim(0);
  Tensor out(ds.test_x.shape());
  const std::int64_t row = ds.test_x.numel() / n;
  for (std::int64_t at = 0; at < n; at += eval_batch) {
    const std::int64_t end = std::min(n, at + eval_batch);
    const std::vector<std::int64_t> labels(ds.test_y.begin() + at, ds.test_y.begin() + end);
    const Tensor adv =
        attack::apply_attack(model, capsnet::slice_rows(ds.test_x, at, end), labels, spec);
    std::memcpy(out.data().data() + at * row, adv.data().data(),
                static_cast<std::size_t>((end - at) * row) * sizeof(float));
  }
  return out;
}

/// The naive serial driver: one (severity x NM) grid where EVERY noisy
/// point regenerates the perturbed test set and runs a full evaluation —
/// no input-keyed cache, no prefix replay, no workers. Salting matches the
/// engine's discipline (grid order, restarting at 1 per severity row).
RobustnessGrid serial_grid(capsnet::CapsModel& model, const data::Dataset& ds,
                           const ResilienceConfig& cfg, const attack::Scenario& scenario,
                           capsnet::OpKind group) {
  RobustnessGrid grid;
  grid.scenario = scenario.name();
  grid.backend = "noise";
  grid.nms = cfg.sweep.nms;
  for (double severity : scenario.severities) {
    const attack::AttackSpec spec = scenario.at(severity);
    grid.severities.push_back(severity);
    std::uint64_t salt = 1;
    for (double nm : cfg.sweep.nms) {
      const Tensor adv = attacked_test_set(model, ds, spec, cfg.eval_batch);
      if (nm == 0.0 && cfg.sweep.na == 0.0) {
        grid.accuracy.push_back(
            capsnet::evaluate(model, adv, ds.test_y, nullptr, cfg.eval_batch));
        continue;
      }
      const std::vector<noise::InjectionRule> rules{
          noise::group_rule(group, noise::NoiseSpec{nm, cfg.sweep.na})};
      noise::GaussianInjector injector(rules, cfg.seed ^ (salt++ * core::kSaltMix));
      grid.accuracy.push_back(
          capsnet::evaluate(model, adv, ds.test_y, &injector, cfg.eval_batch));
    }
  }
  return grid;
}

struct PathResult {
  std::string name;
  double ms = 0.0;
  std::vector<RobustnessGrid> grids;
  core::SweepEngineStats stats;
};

PathResult run_engine_path(const std::string& name, capsnet::CapsModel& model,
                           const data::Dataset& ds, const ResilienceConfig& cfg,
                           const std::vector<attack::Scenario>& scenarios) {
  PathResult r;
  r.name = name;
  const auto t0 = Clock::now();
  core::ResilienceAnalyzer analyzer(model, ds.test_x, ds.test_y, cfg);
  for (const attack::Scenario& scenario : scenarios) {
    r.grids.push_back(analyzer.sweep_attack_noise(scenario, capsnet::OpKind::kMacOutput));
  }
  r.ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  r.stats = analyzer.engine_stats();
  return r;
}

bool grids_identical(const std::vector<RobustnessGrid>& a,
                     const std::vector<RobustnessGrid>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].accuracy != b[i].accuracy) return false;
  }
  return true;
}

int run(bool quick, int threads, const std::string& json_path) {
  print_header("Step-8 robustness sweeps: naive serial vs input-keyed cached engine");

  // Untrained tiny CapsNet: robustness-sweep cost depends only on the
  // architecture and test-set size, and CapsNet has the full backward pass
  // FGSM generation exercises.
  capsnet::CapsNetConfig mc = capsnet::CapsNetConfig::tiny();
  mc.input_hw = 16;
  Rng rng(2020);
  capsnet::CapsNetModel model(mc, rng);

  data::SyntheticSpec spec;
  spec.kind = data::DatasetKind::kMnist;
  spec.hw = mc.input_hw;
  spec.channels = 1;
  spec.train_count = 4;  // Unused; sweeps only read the test split.
  spec.test_count = quick ? 48 : 96;
  spec.seed = 43;
  const data::Dataset ds = data::make_synthetic(spec);

  ResilienceConfig cfg;
  cfg.sweep.nms = quick ? std::vector<double>{0.5, 0.2, 0.1, 0.05, 0.02, 0.0}
                        : std::vector<double>{0.5, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.0};
  cfg.seed = 2020;
  cfg.eval_batch = 24;

  const std::vector<attack::Scenario> scenarios = bench_scenarios(quick);
  std::size_t rows = 0;
  for (const attack::Scenario& s : scenarios) rows += s.severities.size();
  const auto noisy_points =
      static_cast<std::int64_t>(rows * (cfg.sweep.nms.size() - 1));
  const int workers = threads > 0 ? threads : pool::threads();
  std::printf("CapsNet tiny %lldx%lld, %lld test images, %zu scenarios, %zu severity "
              "rows, %lld noisy points, %d worker(s)\n\n",
              static_cast<long long>(mc.input_hw), static_cast<long long>(mc.input_hw),
              static_cast<long long>(spec.test_count), scenarios.size(), rows,
              static_cast<long long>(noisy_points), workers);

  PathResult serial;
  serial.name = "serial full-forward";
  {
    const auto t0 = Clock::now();
    for (const attack::Scenario& scenario : scenarios) {
      serial.grids.push_back(
          serial_grid(model, ds, cfg, scenario, capsnet::OpKind::kMacOutput));
    }
    serial.ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  }

  ResilienceConfig one = cfg;
  one.threads = 1;
  ResilienceConfig par = cfg;
  par.threads = workers;

  const PathResult r_one = run_engine_path("engine serial", model, ds, one, scenarios);
  const PathResult r_par = run_engine_path("engine parallel", model, ds, par, scenarios);

  std::printf("  %-22s %10.1f ms  %7.2f points/s\n", serial.name.c_str(), serial.ms,
              static_cast<double>(noisy_points) / (serial.ms / 1e3));
  const auto report = [&](const PathResult& r) {
    std::printf("  %-22s %10.1f ms  %7.2f points/s  (%.2fx vs serial)\n", r.name.c_str(),
                r.ms, static_cast<double>(noisy_points) / (r.ms / 1e3), serial.ms / r.ms);
  };
  report(r_one);
  report(r_par);
  std::printf("\ninput-keyed cache (parallel run): %lld perturbed sets built, %lld "
              "reused (hit rate %.1f%%); %lld/%lld stage executions skipped (%.1f%%)\n",
              static_cast<long long>(r_par.stats.input_sets),
              static_cast<long long>(r_par.stats.input_cache_hits),
              r_par.stats.input_hit_rate() * 100.0,
              static_cast<long long>(r_par.stats.stages_skipped),
              static_cast<long long>(r_par.stats.stages_total),
              r_par.stats.skip_fraction() * 100.0);

  const bool identical = grids_identical(serial.grids, r_one.grids) &&
                         grids_identical(serial.grids, r_par.grids);
  std::printf("grids bit-identical across all paths: %s\n", identical ? "yes" : "NO");

  const double speedup = serial.ms / r_par.ms;
  JsonFields fields;
  fields.boolean("quick", quick)
      .str("model", "CapsNet-tiny")
      .integer("input_hw", mc.input_hw)
      .integer("test_images", spec.test_count)
      .integer("scenarios", static_cast<std::int64_t>(scenarios.size()))
      .integer("severity_rows", static_cast<std::int64_t>(rows))
      .integer("noisy_points", noisy_points)
      .integer("threads", workers)
      .number("serial_ms", serial.ms, "%.1f")
      .number("engine_serial_ms", r_one.ms, "%.1f")
      .number("parallel_ms", r_par.ms, "%.1f")
      .number("speedup", speedup, "%.2f")
      .number("input_cache_hit_rate", r_par.stats.input_hit_rate(), "%.3f")
      .number("stage_skip_fraction", r_par.stats.skip_fraction(), "%.3f")
      .boolean("bit_identical", identical);
  append_bench_json(json_path, "robustness", fields);

  const bool pass = identical && speedup >= 2.0;
  std::printf("\n%s: parallel engine is %.2fx the naive serial robustness driver "
              "(target >= 2x, bit-identical required)\n",
              pass ? "PASS" : "FAIL", speedup);
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace redcane::bench

int main(int argc, char** argv) {
  bool quick = false;
  int threads = 0;
  std::string json_path = "BENCH_robustness.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) threads = std::atoi(argv[++i]);
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) json_path = argv[++i];
  }
  return redcane::bench::run(quick, threads, json_path);
}
