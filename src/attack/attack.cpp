#include "attack/attack.hpp"

#include <algorithm>
#include <cstdio>

#include "capsnet/trainer.hpp"
#include "util/parse.hpp"

namespace redcane::attack {
namespace {

[[nodiscard]] float sign_of(float g) {
  // sign(0) = 0 and sign(NaN) = 0: a dead gradient moves nothing.
  return static_cast<float>((g > 0.0F) - (g < 0.0F));
}

[[nodiscard]] Tensor fgsm_batch(capsnet::CapsModel& model, const Tensor& x,
                                std::span<const std::int64_t> labels,
                                const AttackSpec& spec) {
  const Tensor g = loss_input_grad(model, x, labels, spec.margin);
  Tensor adv = x;
  const float eps = static_cast<float>(spec.epsilon);
  const float lo = static_cast<float>(spec.clip_min);
  const float hi = static_cast<float>(spec.clip_max);
  auto ad = adv.data();
  auto gd = g.data();
  for (std::size_t i = 0; i < ad.size(); ++i) {
    ad[i] = std::clamp(ad[i] + eps * sign_of(gd[i]), lo, hi);
  }
  return adv;
}

[[nodiscard]] Tensor pgd_batch(capsnet::CapsModel& model, const Tensor& x,
                               std::span<const std::int64_t> labels,
                               const AttackSpec& spec) {
  const float eps = static_cast<float>(spec.epsilon);
  const float step = static_cast<float>(spec.resolved_step());
  const float lo = static_cast<float>(spec.clip_min);
  const float hi = static_cast<float>(spec.clip_max);
  Tensor adv = x;  // Deterministic start at the clean input: no random init.
  auto xd = x.data();
  for (int it = 0; it < spec.steps; ++it) {
    const Tensor g = loss_input_grad(model, adv, labels, spec.margin);
    auto ad = adv.data();
    auto gd = g.data();
    for (std::size_t i = 0; i < ad.size(); ++i) {
      float v = ad[i] + step * sign_of(gd[i]);
      v = std::clamp(v, xd[i] - eps, xd[i] + eps);  // L-inf projection.
      ad[i] = std::clamp(v, lo, hi);
    }
  }
  return adv;
}

[[nodiscard]] AffineParams affine_of(const AttackSpec& spec) {
  AffineParams p;
  switch (spec.kind) {
    case AttackKind::kRotate:
      p.angle_deg = spec.severity;
      break;
    case AttackKind::kTranslate:
      p.dx = spec.severity;
      p.dy = spec.severity;
      break;
    case AttackKind::kScale:
      p.scale = spec.severity;
      break;
    default:
      break;
  }
  return p;
}

[[nodiscard]] bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

}  // namespace

const char* attack_kind_name(AttackKind kind) {
  switch (kind) {
    case AttackKind::kNone: return "none";
    case AttackKind::kFgsm: return "fgsm";
    case AttackKind::kPgd: return "pgd";
    case AttackKind::kRotate: return "rotate";
    case AttackKind::kTranslate: return "translate";
    case AttackKind::kScale: return "scale";
  }
  return "unknown";
}

bool AttackSpec::is_identity() const {
  switch (kind) {
    case AttackKind::kNone: return true;
    case AttackKind::kFgsm:
    case AttackKind::kPgd: return epsilon == 0.0;
    case AttackKind::kRotate:
    case AttackKind::kTranslate: return severity == 0.0;
    case AttackKind::kScale: return severity == 1.0;
  }
  return false;
}

double AttackSpec::resolved_step() const {
  if (step_size > 0.0) return step_size;
  return 2.5 * epsilon / static_cast<double>(std::max(1, steps));
}

std::string AttackSpec::key() const {
  char buf[160];
  switch (kind) {
    case AttackKind::kNone:
      return "none";
    case AttackKind::kFgsm:
      std::snprintf(buf, sizeof(buf), "fgsm:eps=%.17g", epsilon);
      break;
    case AttackKind::kPgd:
      std::snprintf(buf, sizeof(buf), "pgd:eps=%.17g,steps=%d,step=%.17g", epsilon,
                    steps, resolved_step());
      break;
    case AttackKind::kRotate:
      std::snprintf(buf, sizeof(buf), "rotate:deg=%.17g", severity);
      break;
    case AttackKind::kTranslate:
      std::snprintf(buf, sizeof(buf), "translate:px=%.17g", severity);
      break;
    case AttackKind::kScale:
      std::snprintf(buf, sizeof(buf), "scale:factor=%.17g", severity);
      break;
  }
  return buf;
}

AttackSpec AttackSpec::none() { return AttackSpec{}; }

AttackSpec AttackSpec::fgsm(double eps) {
  AttackSpec s;
  s.kind = AttackKind::kFgsm;
  s.epsilon = eps;
  return s;
}

AttackSpec AttackSpec::pgd(double eps, int steps, double step) {
  AttackSpec s;
  s.kind = AttackKind::kPgd;
  s.epsilon = eps;
  s.steps = steps;
  s.step_size = step;
  return s;
}

AttackSpec AttackSpec::rotate(double degrees) {
  AttackSpec s;
  s.kind = AttackKind::kRotate;
  s.severity = degrees;
  return s;
}

AttackSpec AttackSpec::translate(double pixels) {
  AttackSpec s;
  s.kind = AttackKind::kTranslate;
  s.severity = pixels;
  return s;
}

AttackSpec AttackSpec::scale(double factor) {
  AttackSpec s;
  s.kind = AttackKind::kScale;
  s.severity = factor;
  return s;
}

bool parse_attack_spec(const std::string& text, AttackSpec* out, std::string* error) {
  if (text.empty()) return fail(error, "empty attack spec");
  const std::size_t colon = text.find(':');
  const std::string name = text.substr(0, colon);
  AttackSpec spec;
  if (name == "none") {
    if (colon != std::string::npos) return fail(error, "'none' takes no parameters");
    *out = spec;
    return true;
  }
  if (name == "fgsm") {
    spec.kind = AttackKind::kFgsm;
  } else if (name == "pgd") {
    spec.kind = AttackKind::kPgd;
  } else if (name == "rotate") {
    spec.kind = AttackKind::kRotate;
  } else if (name == "translate") {
    spec.kind = AttackKind::kTranslate;
  } else if (name == "scale") {
    spec.kind = AttackKind::kScale;
  } else {
    return fail(error, "unknown attack kind '" + name + "'");
  }
  if (colon == std::string::npos || colon + 1 >= text.size()) {
    return fail(error, "attack '" + name + "' needs parameters, e.g. '" + name +
                           ":key=value'");
  }

  std::vector<std::pair<std::string_view, std::string_view>> items;
  if (!util::split_key_values(std::string_view(text).substr(colon + 1), &items)) {
    return fail(error, "malformed parameters '" + text.substr(colon + 1) +
                           "' (expected key=value,...)");
  }
  bool have_required = false;
  for (const auto& [kkey, v] : items) {
    if (kkey == "steps" && spec.kind == AttackKind::kPgd) {
      if (util::parse_int(v, &spec.steps, 1)) continue;
      return fail(error, "steps must be an integer in [1, INT_MAX]");
    }
    double value = 0.0;
    if (!util::parse_real(v, &value)) {
      return fail(error, "bad number in '" + std::string(kkey) + "=" + std::string(v) + "'");
    }

    if (spec.kind == AttackKind::kFgsm || spec.kind == AttackKind::kPgd) {
      if (kkey == "eps") {
        if (value <= 0.0) return fail(error, "eps must be > 0");
        spec.epsilon = value;
        have_required = true;
      } else if (kkey == "step" && spec.kind == AttackKind::kPgd) {
        if (value <= 0.0) return fail(error, "step must be > 0");
        spec.step_size = value;
      } else {
        return fail(error, "unknown parameter '" + std::string(kkey) + "' for " + name);
      }
    } else if (spec.kind == AttackKind::kRotate && kkey == "deg") {
      spec.severity = value;
      have_required = true;
    } else if (spec.kind == AttackKind::kTranslate && kkey == "px") {
      spec.severity = value;
      have_required = true;
    } else if (spec.kind == AttackKind::kScale && kkey == "factor") {
      if (value <= 0.0) return fail(error, "factor must be > 0");
      spec.severity = value;
      have_required = true;
    } else {
      return fail(error, "unknown parameter '" + std::string(kkey) + "' for " + name);
    }
  }
  if (!have_required) {
    return fail(error, "attack '" + name + "' is missing its required parameter");
  }
  *out = spec;
  return true;
}

Tensor loss_input_grad(capsnet::CapsModel& model, const Tensor& x,
                       std::span<const std::int64_t> labels,
                       const nn::MarginLossSpec& margin) {
  const Tensor v = model.forward(x, /*train=*/true, nullptr);
  const Tensor lengths = capsnet::CapsModel::class_lengths(v);
  const nn::LossResult lr =
      nn::margin_loss(lengths, {labels.begin(), labels.end()}, margin);
  const Tensor grad_v = capsnet::lengths_grad_to_v(v, lengths, lr.grad);
  return model.backward(grad_v);
}

Tensor apply_attack(capsnet::CapsModel& model, const Tensor& x,
                    std::span<const std::int64_t> labels, const AttackSpec& spec) {
  if (spec.is_identity()) return x;
  switch (spec.kind) {
    case AttackKind::kFgsm:
      return fgsm_batch(model, x, labels, spec);
    case AttackKind::kPgd:
      return pgd_batch(model, x, labels, spec);
    case AttackKind::kRotate:
    case AttackKind::kTranslate:
    case AttackKind::kScale:
      return affine_warp(x, affine_of(spec));
    case AttackKind::kNone:
      break;
  }
  return x;
}

AttackSpec Scenario::at(double severity) const {
  AttackSpec spec;
  switch (kind) {
    case AttackKind::kFgsm:
      spec = AttackSpec::fgsm(severity);
      break;
    case AttackKind::kPgd:
      spec = AttackSpec::pgd(severity, pgd_steps, pgd_step);
      break;
    case AttackKind::kRotate:
      spec = AttackSpec::rotate(severity);
      break;
    case AttackKind::kTranslate:
      spec = AttackSpec::translate(severity);
      break;
    case AttackKind::kScale:
      // Severity is the zoom delta so 0 = identity, matching the other axes.
      spec = AttackSpec::scale(1.0 + severity);
      break;
    case AttackKind::kNone:
      break;
  }
  spec.margin = margin;
  return spec;
}

}  // namespace redcane::attack
