// The complete 6-step ReD-CaNe methodology (paper Fig. 7):
//
//   1. Group Extraction
//   2. Group-Wise Resilience Analysis
//   3. Mark Resilient Groups
//   4. Layer-Wise Resilience Analysis for Non-Resilient Groups
//   5. Mark Resilient Layers for Each Non-Resilient Group
//   6. Select Approximate Components
//
// Output: the design of an approximate CapsNet — a per-operation choice of
// approximate multiplier plus the projected energy of the approximated
// inference.
//
// This repository adds a Step 7 the paper only gestures at: noise-model
// cross-validation. Every Step-6 MAC selection is executed twice over the
// test set — once as the Gaussian noise model that drove the analysis
// (NoiseBackend) and once as ground-truth behavioral emulation through the
// quantized LUT datapath (EmulatedBackend) — and the per-selection
// predicted-vs-emulated accuracy deltas certify (or flag) the additive-
// noise assumption underlying Steps 2-6. See cross_validate_design below.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "capsnet/model.hpp"
#include "core/resilience.hpp"
#include "core/selection.hpp"

namespace redcane::core {

struct MethodologyConfig {
  ResilienceConfig resilience;
  /// A group is marked resilient when its |drop| at `mark_nm` stays within
  /// `mark_threshold_pct` percentage points (Step 3). The paper marks
  /// softmax and logits update, whose curves are flat at NM = 0.05 where
  /// MAC outputs / activations already lose tens of percent.
  double mark_nm = 0.05;            ///< Marking grid point (NM, dimensionless).
  double mark_threshold_pct = 2.0;  ///< Marking threshold [percentage points].
  /// Accuracy-drop budget per operation when picking its tolerable NM
  /// (Steps 3/5 -> 6) [percentage points].
  double tolerance_pct = 1.0;
  /// MACs per profiling sample (9 for 3x3 kernels, 81 for 9x9; Step 6).
  int profile_chain_length = 9;
  std::int64_t profile_samples = 20000;  ///< Profiling samples per component.
  std::uint64_t profile_seed = 7;        ///< Profiling RNG seed.
};

/// One Step-7 row: a Step-6 MAC selection executed as the noise model and
/// as behavioral emulation.
struct CrossValidationEntry {
  Site site;              ///< The MAC-output operation cross-validated.
  std::string component;  ///< Selected multiplier, e.g. "axm_drum4".
  double nm = 0.0;        ///< Profiled noise magnitude the prediction used.
  double na = 0.0;        ///< Profiled noise average the prediction used.
  /// Test accuracy with the component's NM/NA injected at this site only
  /// (the model the methodology optimized against), in [0, 1].
  double predicted_accuracy = 0.0;
  /// Test accuracy with this site executed behaviorally (quantized u8
  /// codes through the component's LUT), everything else exact, in [0, 1].
  double emulated_accuracy = 0.0;

  /// Emulated minus predicted [percentage points].
  [[nodiscard]] double delta_pp() const {
    return (emulated_accuracy - predicted_accuracy) * 100.0;
  }
};

/// Step-7 output: per-selection deltas plus the joint design executed both
/// ways.
struct CrossValidationResult {
  double baseline_accuracy = 0.0;  ///< Clean accuracy of the same test set.
  double predicted_joint = 0.0;    ///< All selections' noise injected together.
  double emulated_joint = 0.0;     ///< All MAC sites emulated together.
  std::vector<CrossValidationEntry> entries;  ///< One per MAC-output selection.

  [[nodiscard]] double joint_delta_pp() const {
    return (emulated_joint - predicted_joint) * 100.0;
  }
  /// Largest per-selection |delta| [percentage points] (0 when empty).
  [[nodiscard]] double max_abs_delta_pp() const;
};

struct CrossValidateConfig {
  std::uint64_t seed = 2020;     ///< Noise-model stream base seed.
  std::int64_t eval_batch = 64;  ///< Evaluation batch size (both sides).
  int bits = 8;                  ///< Emulated operand wordlength.
  /// Behavioral accumulator adder by library name ("" = exact
  /// accumulation — the paper's setting, where adders stay exact).
  std::string adder;
};

/// Step-8 configuration (beyond the paper): which attack / transform
/// scenarios to cross with which approximation axes.
struct RobustnessConfig {
  std::vector<attack::Scenario> scenarios;
  /// Operation group receiving the approximation noise on the noise axis.
  capsnet::OpKind noise_group = capsnet::OpKind::kMacOutput;
  /// Emulated-backend components for the (severity × component) grids;
  /// empty = no emulated grids. Unknown names are skipped with a note.
  std::vector<std::string> emulated_components;
  int bits = 8;  ///< Emulated operand wordlength.

  /// FGSM + PGD + rotation severity axes (RobCaps-style magnitudes).
  [[nodiscard]] static RobustnessConfig defaults();
};

/// Step-8 output: one grid per (scenario, backend) pair actually run.
struct RobustnessResult {
  double baseline_accuracy = 0.0;  ///< Clean, unattacked accuracy in [0, 1].
  std::vector<RobustnessGrid> grids;
  /// Engine counters of the robustness sweeps — input_sets /
  /// input_cache_hits report the input-batch-keyed cache behavior.
  SweepEngineStats sweep_stats;
};

struct MethodologyResult {
  std::string model_name;          ///< e.g. "CapsNet", "DeepCaps".
  std::string dataset_name;        ///< e.g. "MNIST(synthetic)".
  double baseline_accuracy = 0.0;  ///< Clean test accuracy, fraction in [0, 1].

  std::vector<Site> sites;                     // Step 1.
  std::vector<ResilienceCurve> group_curves;   // Step 2.
  std::vector<capsnet::OpKind> resilient_groups;      // Step 3.
  std::vector<capsnet::OpKind> non_resilient_groups;  // Step 3.
  std::vector<ResilienceCurve> layer_curves;   // Step 4 (non-resilient groups only).
  std::vector<std::string> resilient_layers;   // Step 5 ("layer/kind" keys).
  std::vector<SiteSelection> selections;       // Step 6, one per site.
  /// The library profile Step 6 selected from (one entry per component,
  /// library order) — reuse this wherever a selection's NM/NA is needed
  /// (deployment manifests, design validation) instead of re-profiling.
  std::vector<ProfiledComponent> profiled;

  /// Step 7 (filled by cross_validate_design when run; see
  /// has_cross_validation).
  CrossValidationResult cross_validation;
  bool has_cross_validation = false;

  /// Step 8 (filled by analyze_robustness when run; see has_robustness).
  RobustnessResult robustness;
  bool has_robustness = false;

  std::int64_t evaluations_run = 0;
  std::int64_t evaluations_saved_by_pruning = 0;  ///< D3: Step-4 restriction.
  /// Sweep-engine counters over Steps 2+4 (core/sweep_engine.hpp): noisy
  /// batch forwards resumed from a cached clean prefix, stage executions
  /// skipped vs. what a full-forward driver would have run, and the worker
  /// count the sweeps ran on.
  SweepEngineStats sweep_stats;

  /// Mean selected power saving over MAC-output sites (the multiplier
  /// datapath the paper targets), as a fraction in [0, 1).
  [[nodiscard]] double mean_mac_power_saving() const;
};

/// Runs the full flow on a trained model + test set.
[[nodiscard]] MethodologyResult run_redcane(capsnet::CapsModel& model, const Tensor& test_x,
                                            const std::vector<std::int64_t>& test_y,
                                            const std::string& dataset_name,
                                            const MethodologyConfig& cfg);

/// Step 7: cross-validates a finished design's noise model against full-
/// network behavioral emulation (src/core/cross_validate.cpp). For every
/// Step-6 MAC-output selection it measures the test accuracy predicted by
/// the component's profiled NM/NA noise (the quantity Steps 2-6 optimized)
/// and the accuracy of actually executing that site through the
/// component's quantized LUT datapath, plus both joint deployments.
/// `design` must carry selections and the library profile (a run_redcane
/// output); the model and test set must be the ones the design was made
/// on. Attach the result to MethodologyResult::cross_validation to have
/// reports and JSON exports include it.
[[nodiscard]] CrossValidationResult cross_validate_design(
    capsnet::CapsModel& model, const Tensor& test_x,
    const std::vector<std::int64_t>& test_y, const MethodologyResult& design,
    const CrossValidateConfig& cfg);

/// Step 8: adversarial & affine robustness × approximation
/// (src/core/robustness.cpp). For every configured scenario it produces an
/// exact-backend severity curve, a (severity × NM) noise-model grid over
/// `rcfg.noise_group`, and — when components are given — a (severity ×
/// component) emulated grid, answering whether approximation masks or
/// amplifies adversarial/affine fragility. All grids share one engine, so
/// each perturbed input set is generated once and every point over it
/// replays cached suffixes; output is bit-identical serial vs parallel and
/// across thread counts. Attach the result to MethodologyResult::robustness
/// to have reports and JSON exports include it.
[[nodiscard]] RobustnessResult analyze_robustness(capsnet::CapsModel& model,
                                                  const Tensor& test_x,
                                                  const std::vector<std::int64_t>& test_y,
                                                  const RobustnessConfig& rcfg,
                                                  const ResilienceConfig& cfg);

}  // namespace redcane::core
