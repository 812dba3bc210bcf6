// Step 7: noise-model cross-validation (see core/methodology.hpp).
//
// The methodology's central modeling assumption — an approximate
// multiplier behaves like additive Gaussian noise of its profiled NM/NA at
// the operation's output (paper Sec. III) — is checked end-to-end here:
// each Step-6 selection runs once as that noise model and once as real
// quantized LUT execution of the selected component, over the same test
// set, and the accuracy deltas quantify how faithful the model was.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "approx/library.hpp"
#include "backend/backend.hpp"
#include "core/methodology.hpp"
#include "core/sweep_engine.hpp"

namespace redcane::core {
namespace {

/// The profiled NM/NA of `mul` in the design's library profile (zeros for
/// an unprofiled component — cannot happen for run_redcane outputs, whose
/// selections come from the profile itself).
noise::NoiseSpec profiled_spec(const MethodologyResult& design,
                               const approx::Multiplier* mul) {
  for (const ProfiledComponent& p : design.profiled) {
    if (p.mul == mul) return noise::NoiseSpec{p.nm, p.na};
  }
  return noise::NoiseSpec{};
}

/// The adder named by the config, or null for exact accumulation. An
/// unknown name falls back to exact — loudly, or Step 7 would silently
/// measure a different accumulator than the caller asked for.
const approx::Adder* resolve_adder(const std::string& name) {
  if (name.empty()) return nullptr;
  for (const approx::Adder* a : approx::adder_library()) {
    if (a->info().name == name) return a;
  }
  std::fprintf(stderr,
               "cross_validate: adder '%s' not in this build's library; "
               "emulating with exact accumulation\n",
               name.c_str());
  return nullptr;
}

}  // namespace

double CrossValidationResult::max_abs_delta_pp() const {
  double worst = 0.0;
  for (const CrossValidationEntry& e : entries) {
    worst = std::max(worst, std::abs(e.delta_pp()));
  }
  return worst;
}

CrossValidationResult cross_validate_design(capsnet::CapsModel& model, const Tensor& test_x,
                                            const std::vector<std::int64_t>& test_y,
                                            const MethodologyResult& design,
                                            const CrossValidateConfig& cfg) {
  SweepEngine engine(model, test_x, test_y, {.seed = cfg.seed, .eval_batch = cfg.eval_batch});
  const attack::AttackSpec clean = attack::AttackSpec::none();

  const approx::Adder* adder = resolve_adder(cfg.adder);

  CrossValidationResult r;
  r.baseline_accuracy = engine.accuracy(clean);

  std::vector<noise::InjectionRule> joint_rules;
  backend::EmulationPlan joint_plan;
  std::uint64_t salt = 0;
  for (const SiteSelection& sel : design.selections) {
    if (sel.site.kind != capsnet::OpKind::kMacOutput) continue;
    if (sel.component == nullptr) continue;

    CrossValidationEntry e;
    e.site = sel.site;
    e.component = sel.component->info().name;
    const noise::NoiseSpec spec = profiled_spec(design, sel.component);
    e.nm = spec.nm;
    e.na = spec.na;

    // Predicted: the component's noise at this site only. A zero spec
    // (exact selection) predicts the clean network — same convention as
    // the serving registry's designed variant.
    std::vector<noise::InjectionRule> rules;
    if (!spec.is_zero()) {
      rules.push_back(noise::layer_rule(sel.site.kind, sel.site.layer, spec));
      joint_rules.push_back(rules.back());
    }
    e.predicted_accuracy = engine.evaluate(clean, backend::NoiseBackend(rules, cfg.seed), salt);

    // Emulated: this site's MAC datapath behavioral, everything else
    // float-exact.
    backend::EmulationPlan plan;
    plan.set(sel.site.layer,
             backend::SiteUnit{quant::MacUnit{sel.component, adder}, cfg.bits});
    joint_plan.set(sel.site.layer,
                   backend::SiteUnit{quant::MacUnit{sel.component, adder}, cfg.bits});
    const backend::EmulatedBackend emulated(std::move(plan));
    e.emulated_accuracy = engine.evaluate(clean, emulated, salt);

    r.entries.push_back(std::move(e));
    ++salt;
  }

  // The joint deployment, both ways: the designed variant as served
  // (every selection's noise together) vs the fully emulated network.
  r.predicted_joint = engine.evaluate(clean, backend::NoiseBackend(joint_rules, cfg.seed), salt);
  const backend::EmulatedBackend joint(std::move(joint_plan));
  r.emulated_joint = engine.evaluate(clean, joint, salt);
  return r;
}

}  // namespace redcane::core
