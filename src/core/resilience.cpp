#include "core/resilience.hpp"

#include <cmath>

#include "core/sweep_plan.hpp"

namespace redcane::core {
namespace {

/// Plan -> run_shard per shard -> assemble, on the analyzer's engine: the
/// same path the distributed coordinator runs, so in-process and sharded
/// sweeps are bit-identical by construction.
SweepGrids run(SweepEngine& engine, const GridPlan& plan) {
  SweepGrids out;
  run_plan(engine, plan, &out);
  return out;
}

}  // namespace

SweepEngineConfig engine_config(const ResilienceConfig& cfg) {
  SweepEngineConfig ec;
  ec.seed = cfg.seed;
  ec.eval_batch = cfg.eval_batch;
  ec.threads = cfg.threads;
  ec.prefix_cache = cfg.prefix_cache;
  return ec;
}

double ResilienceCurve::tolerable_nm(double tolerance_pct) const {
  double best = 0.0;
  for (std::size_t i = 0; i < nms.size(); ++i) {
    if (nms[i] == 0.0) continue;
    if (std::abs(drop_pct[i]) <= tolerance_pct && nms[i] > best) best = nms[i];
  }
  return best;
}

ResilienceAnalyzer::ResilienceAnalyzer(capsnet::CapsModel& model, const Tensor& test_x,
                                       const std::vector<std::int64_t>& test_y,
                                       ResilienceConfig cfg)
    : cfg_(cfg), engine_(model, test_x, test_y, engine_config(cfg)) {}

double ResilienceAnalyzer::baseline() { return engine_.accuracy(attack::AttackSpec::none()); }

double ResilienceAnalyzer::accuracy_with_rules(const std::vector<noise::InjectionRule>& rules,
                                               std::uint64_t salt) {
  return engine_.evaluate(attack::AttackSpec::none(), {SweepPointSpec{rules, salt}}).front();
}

ResilienceCurve ResilienceAnalyzer::sweep_group(capsnet::OpKind kind) {
  return run(engine_, plan_curve(cfg_.sweep, kind, std::nullopt)).curves.front();
}

ResilienceCurve ResilienceAnalyzer::sweep_layer(capsnet::OpKind kind,
                                                const std::string& layer) {
  return run(engine_, plan_curve(cfg_.sweep, kind, layer)).curves.front();
}

RobustnessGrid ResilienceAnalyzer::sweep_attack_exact(const attack::Scenario& scenario) {
  return run(engine_, plan_attack_exact(scenario)).grids.front();
}

RobustnessGrid ResilienceAnalyzer::sweep_attack_noise(const attack::Scenario& scenario,
                                                      capsnet::OpKind group) {
  return run(engine_, plan_attack_noise(cfg_.sweep, scenario, group)).grids.front();
}

RobustnessGrid ResilienceAnalyzer::sweep_attack_emulated(
    const attack::Scenario& scenario, const std::vector<std::string>& components,
    int bits) {
  return run(engine_, plan_attack_emulated(scenario, components, bits)).grids.front();
}

}  // namespace redcane::core
