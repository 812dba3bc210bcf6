// Adversarial & affine attack generation — the input-perturbation seam of
// the Step-8 robustness scenarios (beyond the paper: RobCaps, Marchisio et
// al. 2023, and Gu et al. 2021 motivate crossing attack severity with the
// approximation-noise axis ReD-CaNe already sweeps).
//
// Gradient attacks reuse the training backward pass end to end: margin loss
// on class-capsule lengths, the shared capsnet::lengths_grad_to_v chain,
// then CapsModel::backward down to dL/dx. FGSM takes one signed step; PGD
// iterates projected signed steps inside the L-inf epsilon ball. Neither
// uses any RNG (PGD starts at the clean input, not a random point), so a
// perturbed batch is a pure function of (model weights, input, labels,
// spec) — bitwise reproducible across runs, thread counts, and SIMD
// dispatch targets.
//
// Thread-safety: gradient generation runs train-mode forwards, which mutate
// the model's layer caches. Generation is therefore NOT thread-safe against
// concurrent forwards on the same model — callers (SweepEngine, the serve
// attacked-eval mode) perturb serially on the coordinating thread before
// any worker touches the model. Train-mode forwards do not change weights
// (audited by capsnet::audit_const_forward), so previously recorded
// prefix-activation checkpoints stay valid.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "attack/affine.hpp"
#include "capsnet/model.hpp"
#include "nn/loss.hpp"

namespace redcane::attack {

enum class AttackKind : std::uint8_t {
  kNone = 0,
  kFgsm,       ///< One-step L-inf fast gradient sign method.
  kPgd,        ///< Iterated projected gradient descent (L-inf ball).
  kRotate,     ///< Affine rotation; severity = degrees.
  kTranslate,  ///< Affine translation; severity = pixels along both axes.
  kScale,      ///< Affine zoom; severity = scale factor (1 = identity).
};

[[nodiscard]] const char* attack_kind_name(AttackKind kind);

/// A fully resolved perturbation. `severity` carries the transform
/// magnitude for the affine kinds (see AttackKind); gradient kinds use
/// `epsilon`/`steps`/`step_size`.
struct AttackSpec {
  AttackKind kind = AttackKind::kNone;
  double epsilon = 0.0;    ///< L-inf budget (gradient kinds).
  int steps = 10;          ///< PGD iterations.
  double step_size = 0.0;  ///< PGD step; 0 resolves to 2.5*epsilon/steps.
  double severity = 0.0;   ///< Affine magnitude (see AttackKind).
  double clip_min = 0.0;   ///< Valid input range (pixel domain).
  double clip_max = 1.0;
  nn::MarginLossSpec margin;  ///< Loss the gradient attacks ascend.

  [[nodiscard]] bool is_gradient() const {
    return kind == AttackKind::kFgsm || kind == AttackKind::kPgd;
  }
  /// True when applying this spec is guaranteed to be a bitwise no-op.
  [[nodiscard]] bool is_identity() const;
  /// Resolved PGD step size (applies the 2.5*eps/steps default).
  [[nodiscard]] double resolved_step() const;
  /// Canonical cache key: equal keys => bitwise-equal perturbed batches.
  [[nodiscard]] std::string key() const;

  [[nodiscard]] static AttackSpec none();
  [[nodiscard]] static AttackSpec fgsm(double eps);
  [[nodiscard]] static AttackSpec pgd(double eps, int steps = 10, double step = 0.0);
  [[nodiscard]] static AttackSpec rotate(double degrees);
  [[nodiscard]] static AttackSpec translate(double pixels);
  [[nodiscard]] static AttackSpec scale(double factor);
};

/// Parses the textual spec grammar used by CLI flags and the serve attacked
/// mode: "none", "fgsm:eps=0.1", "pgd:eps=0.1,steps=5,step=0.02",
/// "rotate:deg=15", "translate:px=2", "scale:factor=1.2", read by util/parse's
/// rules. Returns false and fills `error` on malformed input (unknown kind/key,
/// bad number, missing required key, out-of-range value); never aborts.
[[nodiscard]] bool parse_attack_spec(const std::string& text, AttackSpec* out,
                                     std::string* error);

/// dL/dx of the margin loss at (x, labels): train-mode forward, margin loss
/// on class-capsule lengths, lengths_grad_to_v, model.backward. NOT
/// thread-safe (see file header).
[[nodiscard]] Tensor loss_input_grad(capsnet::CapsModel& model, const Tensor& x,
                                     std::span<const std::int64_t> labels,
                                     const nn::MarginLossSpec& margin);

/// Applies `spec` to a [N, H, W, C] batch. Identity specs return a bitwise
/// copy. Gradient kinds need one label per row; affine kinds ignore labels.
[[nodiscard]] Tensor apply_attack(capsnet::CapsModel& model, const Tensor& x,
                                  std::span<const std::int64_t> labels,
                                  const AttackSpec& spec);

/// A severity axis over one attack kind — the row dimension of a Step-8
/// robustness grid. `at(severity)` materializes the spec for one row.
struct Scenario {
  AttackKind kind = AttackKind::kFgsm;
  std::vector<double> severities;
  int pgd_steps = 7;         ///< PGD only.
  double pgd_step = 0.0;     ///< PGD only; 0 = default rule.
  nn::MarginLossSpec margin; ///< Gradient kinds only.

  /// Spec for one severity. For gradient kinds severity is epsilon; for
  /// kScale severity is the zoom delta (factor = 1 + severity) so that
  /// severity 0 means identity on every axis.
  [[nodiscard]] AttackSpec at(double severity) const;
  [[nodiscard]] std::string name() const { return attack_kind_name(kind); }
};

}  // namespace redcane::attack
