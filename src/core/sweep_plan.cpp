#include "core/sweep_plan.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>

#include "backend/emulation.hpp"
#include "capsnet/trainer.hpp"
#include "core/groups.hpp"
#include "obs/trace.hpp"

namespace redcane::core {
namespace {

std::uint64_t elapsed_us(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

/// The emulation plan mapping every MAC-output layer of `model` (discovered
/// by probing with `probe`) onto `component` at `bits` — the same site set
/// a deployment manifest plans. False when the component name is unknown
/// to the approximate-multiplier library or `bits` is outside [1, 8].
bool make_component_plan(capsnet::CapsModel& model, const Tensor& probe,
                         const std::string& component, int bits,
                         backend::EmulationPlan* out) {
  backend::EmulationPlan plan;
  bool ok = true;
  for (const Site& site : extract_sites(model, probe)) {
    if (site.kind != capsnet::OpKind::kMacOutput) continue;
    ok = ok && plan.set_by_name(site.layer, component, /*adder=*/"", bits);
  }
  if (!ok) return false;
  *out = std::move(plan);
  return true;
}

/// Grid-order point construction shared by curves and noise rows: one
/// noisy point per NM > 0 (or NA != 0), salts 1..N in grid order,
/// kCleanPoint for the clean column.
void build_points(const NmSweep& sweep, const noise::InjectionRule& rule_template,
                  SweepShard* shard, std::vector<std::size_t>* cells) {
  cells->clear();
  std::uint64_t salt = 1;
  for (double nm : sweep.nms) {
    if (nm == 0.0 && sweep.na == 0.0) {
      cells->push_back(kCleanPoint);
      continue;
    }
    SweepPointSpec p;
    noise::InjectionRule rule = rule_template;
    rule.noise = noise::NoiseSpec{nm, sweep.na};
    p.rules.push_back(std::move(rule));
    p.salt = salt++;
    cells->push_back(shard->points.size());
    shard->points.push_back(std::move(p));
  }
}

const char* backend_name(GridKind kind) {
  switch (kind) {
    case GridKind::kExact: return "exact";
    case GridKind::kNoise: return "noise";
    case GridKind::kEmulated: return "emulated";
    case GridKind::kCurve: break;
  }
  return "";
}

}  // namespace

ShardOutcome run_shard(SweepEngine& engine, const SweepShard& shard,
                       ShardTimings* timings) {
  OBS_SPAN_ID("sweep/run_shard", shard.id + 1);
  ShardOutcome out;
  out.id = shard.id;
  auto t0 = std::chrono::steady_clock::now();
  // Eval-set caching makes the base read free when points follow.
  out.base = engine.accuracy(shard.spec);
  if (timings != nullptr) timings->base_us = elapsed_us(t0);
  t0 = std::chrono::steady_clock::now();
  if (shard.backend == ShardBackend::kEmulated) {
    backend::EmulationPlan plan;
    const Tensor probe = capsnet::slice_rows(engine.test_x(), 0, 1);
    if (!make_component_plan(engine.model(), probe, shard.component, shard.bits, &plan)) {
      return out;  // acc stays empty: expected_values() mismatch flags failure.
    }
    out.acc.push_back(engine.evaluate(shard.spec, backend::EmulatedBackend(plan), /*salt=*/0));
  } else if (!shard.points.empty()) {
    out.acc = engine.evaluate(shard.spec, shard.points);
  }
  if (timings != nullptr) timings->points_us = elapsed_us(t0);
  return out;
}

GridPlan plan_curve(const NmSweep& sweep, capsnet::OpKind kind,
                    const std::optional<std::string>& layer) {
  GridPlan plan;
  plan.kind = GridKind::kCurve;
  plan.op = kind;
  plan.layer = layer;
  plan.nms = sweep.nms;
  const noise::InjectionRule rule = layer.has_value()
                                        ? noise::layer_rule(kind, *layer, noise::NoiseSpec{})
                                        : noise::group_rule(kind, noise::NoiseSpec{});
  plan.shards.emplace_back();
  build_points(sweep, rule, &plan.shards.back(), &plan.cells);
  return plan;
}

GridPlan plan_attack_exact(const attack::Scenario& scenario) {
  GridPlan plan;
  plan.kind = GridKind::kExact;
  plan.scenario = scenario.name();
  plan.cells = {kCleanPoint};
  for (double severity : scenario.severities) {
    plan.severities.push_back(severity);
    plan.shards.emplace_back();
    plan.shards.back().spec = scenario.at(severity);
  }
  return plan;
}

GridPlan plan_attack_noise(const NmSweep& sweep, const attack::Scenario& scenario,
                           capsnet::OpKind group) {
  GridPlan plan;
  plan.kind = GridKind::kNoise;
  plan.scenario = scenario.name();
  plan.nms = sweep.nms;
  for (double severity : scenario.severities) {
    plan.severities.push_back(severity);
    plan.shards.emplace_back();
    plan.shards.back().spec = scenario.at(severity);
    build_points(sweep, noise::group_rule(group, noise::NoiseSpec{}), &plan.shards.back(),
                 &plan.cells);
  }
  return plan;
}

GridPlan plan_attack_emulated(const attack::Scenario& scenario,
                              const std::vector<std::string>& components, int bits) {
  GridPlan plan;
  plan.kind = GridKind::kEmulated;
  plan.scenario = scenario.name();
  plan.cells = {0};
  for (const std::string& component : components) {
    if (!backend::EmulationPlan().set_by_name("probe", component, /*adder=*/"", bits)) {
      std::fprintf(stderr,
                   "redcane::core: skipping emulated component '%s' at %d bits in "
                   "Step-8 grid (unknown name or wordlength)\n",
                   component.c_str(), bits);
      continue;
    }
    plan.components.push_back(component);
  }
  for (double severity : scenario.severities) {
    plan.severities.push_back(severity);
    for (const std::string& component : plan.components) {
      SweepShard shard;
      shard.spec = scenario.at(severity);
      shard.backend = ShardBackend::kEmulated;
      shard.component = component;
      shard.bits = bits;
      plan.shards.push_back(std::move(shard));
    }
  }
  return plan;
}

void chunk_plan(const GridPlan& plan, std::size_t chunk, std::vector<SweepShard>* out) {
  chunk = std::max<std::size_t>(chunk, 1);
  for (const SweepShard& whole : plan.shards) {
    std::size_t at = 0;
    do {
      const std::size_t end = std::min(whole.points.size(), at + chunk);
      SweepShard s = whole;
      s.id = out->size();
      s.points.assign(whole.points.begin() + static_cast<std::ptrdiff_t>(at),
                      whole.points.begin() + static_cast<std::ptrdiff_t>(end));
      out->push_back(std::move(s));
      at = end;
    } while (at < whole.points.size());
  }
}

std::size_t assemble(const GridPlan& plan, std::span<const ShardOutcome> outcomes,
                     SweepGrids* out) {
  // Row-major grid values: per plan shard, its cells read from the shard's
  // noise-free accuracy and its (chunk-concatenated) point accuracies.
  std::vector<double> values;
  std::size_t used = 0;
  for (const SweepShard& shard : plan.shards) {
    if (used == outcomes.size()) break;  // Short outcome list: partial grid.
    const double base = outcomes[used].base;
    std::vector<double> acc;
    do {
      const std::vector<double>& part = outcomes[used++].acc;
      acc.insert(acc.end(), part.begin(), part.end());
    } while (acc.size() < shard.points.size() && used < outcomes.size());
    for (const std::size_t cell : plan.cells) {
      values.push_back(cell == kCleanPoint ? base
                       : cell < acc.size() ? acc[cell]
                                           : std::numeric_limits<double>::quiet_NaN());
    }
  }

  if (plan.kind == GridKind::kCurve) {
    // One shard; drops are relative to its clean (NM = 0) accuracy.
    ResilienceCurve curve;
    curve.kind = plan.op;
    curve.layer = plan.layer;
    curve.label = plan.layer.value_or(std::string(capsnet::op_kind_name(plan.op)));
    curve.nms = plan.nms;
    const double base = outcomes.empty() ? 0.0 : outcomes.front().base;
    for (const double a : values) curve.drop_pct.push_back((a - base) * 100.0);
    out->curves.push_back(std::move(curve));
    return used;
  }
  RobustnessGrid grid;
  grid.scenario = plan.scenario;
  grid.backend = backend_name(plan.kind);
  grid.severities = plan.severities;
  grid.nms = plan.nms;
  grid.components = plan.components;
  grid.accuracy = std::move(values);
  out->grids.push_back(std::move(grid));
  return used;
}

void run_plan(SweepEngine& engine, const GridPlan& plan, SweepGrids* out) {
  std::vector<ShardOutcome> outcomes;
  outcomes.reserve(plan.shards.size());
  for (const SweepShard& shard : plan.shards) outcomes.push_back(run_shard(engine, shard));
  (void)assemble(plan, outcomes, out);
}

}  // namespace redcane::core
