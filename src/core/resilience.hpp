// Steps 2-5 of ReD-CaNe: group-wise and layer-wise resilience analysis.
//
// A "step of resilience analysis consists of setting the input parameters
// of the noise injection, i.e., NM and NA, adding the noise to the
// selected CapsNet operations, and monitoring the accuracy for the noisy
// CapsNet" (paper Sec. IV). Sweeps use the paper's NM grid
// [0.5 ... 0.001] plus the clean point NM = 0.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "capsnet/model.hpp"
#include "core/groups.hpp"
#include "core/sweep_engine.hpp"
#include "noise/injector.hpp"

namespace redcane::core {

/// The NM grid of a resilience sweep.
struct NmSweep {
  /// Noise magnitudes swept (std/R(X), dimensionless); 0 = clean point.
  std::vector<double> nms{0.5, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001, 0.0};
  double na = 0.0;  ///< Noise average of every point (mean/R(X), dimensionless).

  /// The grid of the paper's Figs. 9, 10, 12.
  static NmSweep paper() { return NmSweep{}; }
};

/// One Step-8 robustness grid: absolute accuracy (in [0, 1]) over (attack
/// or transform severity) × (one approximation axis) for one scenario and
/// one execution backend. The approximation axis is the NM grid for the
/// noise-model backend, the component list for the emulated backend, and a
/// single noise-free column for the exact backend. `accuracy` is row-major
/// [severity][column].
struct RobustnessGrid {
  std::string scenario;                 ///< attack::attack_kind_name of the axis.
  std::string backend;                  ///< "exact" | "noise" | "emulated".
  std::vector<double> severities;       ///< Attack/transform severity per row.
  std::vector<double> nms;              ///< Column axis (noise backend only).
  std::vector<std::string> components;  ///< Column axis (emulated backend only).
  std::vector<double> accuracy;         ///< Row-major [severity][column].

  [[nodiscard]] std::size_t cols() const {
    if (!nms.empty()) return nms.size();
    if (!components.empty()) return components.size();
    return 1;
  }
  [[nodiscard]] double at(std::size_t severity_idx, std::size_t col) const {
    return accuracy[severity_idx * cols() + col];
  }
};

/// One resilience curve: accuracy drop (percentage points, noisy − clean;
/// negative = degradation) per NM grid point.
struct ResilienceCurve {
  std::string label;                 ///< e.g. "#1: MAC outputs" or "Caps2D7".
  capsnet::OpKind kind;              ///< Operation group swept (Table III).
  std::optional<std::string> layer;  ///< Set for layer-wise curves.
  std::vector<double> nms;           ///< NM grid points (dimensionless).
  std::vector<double> drop_pct;      ///< Accuracy drop per point [percentage points].

  /// Largest NM on the grid whose |drop| <= tolerance (0 when even the
  /// smallest NM violates it).
  [[nodiscard]] double tolerable_nm(double tolerance_pct) const;
};

struct ResilienceConfig {
  NmSweep sweep = NmSweep::paper();
  std::uint64_t seed = 2020;
  std::int64_t eval_batch = 64;
  /// Grid points evaluated at once on the compute pool; 0 = one per pool
  /// thread (see core/sweep_engine.hpp). A cap, not the pool's size.
  int threads = 0;
  /// Prefix-activation caching for noisy points (bit-identical either way).
  bool prefix_cache = true;
};

/// The engine configuration `cfg` implies — the one conversion the
/// analyzer and every dist job engine (dist::job_engine_config) share.
[[nodiscard]] SweepEngineConfig engine_config(const ResilienceConfig& cfg);

/// Drives noisy evaluations of one trained model on one test set. Every
/// sweep is a core/sweep_plan GridPlan run shard by shard through
/// run_shard on the analyzer's SweepEngine, then assembled — the path the
/// distributed coordinator runs too. Grid points run concurrently, and
/// every noisy point replays only the network suffix after its first
/// injectable site. The model's weights must not change over the
/// analyzer's lifetime (the engine replays cached clean prefixes);
/// construct a fresh analyzer after retraining or approximating the model.
class ResilienceAnalyzer {
 public:
  ResilienceAnalyzer(capsnet::CapsModel& model, const Tensor& test_x,
                     const std::vector<std::int64_t>& test_y, ResilienceConfig cfg);

  /// Clean test accuracy in [0, 1] (computed once, cached).
  [[nodiscard]] double baseline();

  /// Accuracy in [0, 1] with the given injection rules active.
  [[nodiscard]] double accuracy_with_rules(const std::vector<noise::InjectionRule>& rules,
                                           std::uint64_t salt);

  /// Step 2: noise in every operation of one group, other groups clean.
  [[nodiscard]] ResilienceCurve sweep_group(capsnet::OpKind kind);

  /// Step 4: noise in one layer of one group only.
  [[nodiscard]] ResilienceCurve sweep_layer(capsnet::OpKind kind, const std::string& layer);

  /// Step 8: attacked accuracy per severity on the exact backend — the
  /// clean-hardware robustness reference column.
  [[nodiscard]] RobustnessGrid sweep_attack_exact(const attack::Scenario& scenario);

  /// Step 8: (severity × NM) accuracy grid — inputs perturbed by the
  /// scenario, approximation noise injected into every operation of
  /// `group`. Each severity row builds (or input-cache-hits) one perturbed
  /// eval set, then runs its noise points concurrently; the grid is
  /// bit-identical serial vs parallel and across thread counts.
  [[nodiscard]] RobustnessGrid sweep_attack_noise(const attack::Scenario& scenario,
                                                  capsnet::OpKind group);

  /// Step 8: (severity × component) accuracy grid on the emulated backend —
  /// every MAC-output layer executed behaviorally through each named
  /// component's LUT datapath at the given operand wordlength. Components
  /// whose multiplier name is unknown to the library are skipped (with a
  /// stderr note) rather than aborting.
  [[nodiscard]] RobustnessGrid sweep_attack_emulated(const attack::Scenario& scenario,
                                                     const std::vector<std::string>& components,
                                                     int bits = 8);

  /// Number of noisy evaluations run so far (exploration cost, D3).
  [[nodiscard]] std::int64_t evaluations() const { return engine_.stats().evaluations; }

  /// Engine counters: cache hits, stages skipped/total, worker count.
  [[nodiscard]] SweepEngineStats engine_stats() const { return engine_.stats(); }

  [[nodiscard]] const ResilienceConfig& config() const { return cfg_; }

 private:
  ResilienceConfig cfg_;
  SweepEngine engine_;
};

}  // namespace redcane::core
