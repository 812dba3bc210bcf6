#include "serve/registry.hpp"

#include <cstdio>
#include <filesystem>
#include <mutex>
#include <optional>

#include "capsnet/capsnet_model.hpp"
#include "capsnet/deepcaps_model.hpp"
#include "capsnet/serialize.hpp"
#include "capsnet/trainer.hpp"
#include "util/fault.hpp"

namespace redcane::serve {
namespace {

/// Rebuilds the manifest's architecture: profile base config with the
/// manifest's input/class overrides. Weights are placeholder (the caller
/// loads the checkpoint); the Rng seed is therefore irrelevant. The
/// config's shapes are walked before anything is allocated: a geometry with
/// an empty layer output, or whose parameters need more bytes than the
/// checkpoint file holds, is refused. A checkpoint must hold every
/// parameter, so the bytes from outside bound the allocation.
template <typename Model, typename Config>
std::unique_ptr<capsnet::CapsModel> build_checked(Config cfg, const core::DeploymentManifest& m,
                                                  std::uint64_t ckpt_bytes) {
  if (m.input_hw > 0) cfg.input_hw = m.input_hw;
  if (m.input_channels > 0) cfg.input_channels = m.input_channels;
  if (m.num_classes > 0) cfg.num_classes = m.num_classes;
  const std::optional<capsnet::ParamLayout> layout = cfg.param_layout();
  if (!layout || capsnet::checkpoint_bytes(*layout) > ckpt_bytes) {
    std::fprintf(stderr,
                 "serve: %s geometry has an empty layer or needs more than the "
                 "checkpoint's %llu bytes\n",
                 m.model.c_str(), static_cast<unsigned long long>(ckpt_bytes));
    return nullptr;
  }
  Rng rng(1);
  return std::make_unique<Model>(cfg, rng);
}

std::unique_ptr<capsnet::CapsModel> build_model(const core::DeploymentManifest& m,
                                                std::uint64_t ckpt_bytes) {
  const bool paper = m.profile == "paper";
  if (m.model == "CapsNet") {
    return build_checked<capsnet::CapsNetModel>(
        paper ? capsnet::CapsNetConfig::paper() : capsnet::CapsNetConfig::tiny(), m, ckpt_bytes);
  }
  if (m.model == "DeepCaps") {
    return build_checked<capsnet::DeepCapsModel>(
        paper ? capsnet::DeepCapsConfig::paper() : capsnet::DeepCapsConfig::tiny(), m,
        ckpt_bytes);
  }
  std::fprintf(stderr, "serve: unknown model '%s'\n", m.model.c_str());
  return nullptr;
}

/// Directory part of a path ("" when the path has none).
std::string dir_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash + 1);
}

/// Loads `ckpt` into the model, honoring the armed fault plan: a
/// checkpoint-corruption fault reads a truncated copy instead, which
/// load_params must reject — exercising the caller's rollback path.
bool load_checkpoint(capsnet::CapsModel& model, const std::string& ckpt) {
  if (fault::armed() && fault::plan()->corrupt_checkpoint()) {
    const std::string chaos = ckpt + ".chaos";
    const bool loaded =
        fault::write_truncated_copy(ckpt, chaos, fault::plan()->config().seed) &&
        capsnet::load_params(model, chaos);
    std::remove(chaos.c_str());
    return loaded;
  }
  return capsnet::load_params(model, ckpt);
}

}  // namespace

ModelRegistry::ModelRegistry(std::unique_ptr<capsnet::CapsModel> model,
                             core::DeploymentManifest manifest)
    : model_(std::move(model)), manifest_(std::move(manifest)) {
  build_variants();
}

std::unique_ptr<ModelRegistry> ModelRegistry::open(const std::string& manifest_path) {
  core::DeploymentManifest m;
  if (!core::load_manifest(manifest_path, m)) {
    std::fprintf(stderr, "serve: cannot load manifest %s\n", manifest_path.c_str());
    return nullptr;
  }
  if (m.checkpoint.empty()) {
    std::fprintf(stderr, "serve: manifest %s names no checkpoint\n",
                 manifest_path.c_str());
    return nullptr;
  }
  const std::string ckpt = m.checkpoint.front() == '/'
                               ? m.checkpoint
                               : dir_of(manifest_path) + m.checkpoint;
  std::error_code ec;
  const std::uintmax_t ckpt_bytes = std::filesystem::file_size(ckpt, ec);
  if (ec) {
    std::fprintf(stderr, "serve: cannot stat checkpoint %s\n", ckpt.c_str());
    return nullptr;
  }
  std::unique_ptr<capsnet::CapsModel> model = build_model(m, ckpt_bytes);
  if (model == nullptr) return nullptr;
  if (!load_checkpoint(*model, ckpt)) {
    std::fprintf(stderr, "serve: cannot load checkpoint %s\n", ckpt.c_str());
    return nullptr;
  }
  const Shape in = model->input_shape();
  const Tensor probe(Shape{1, in.dim(0), in.dim(1), in.dim(2)});
  if (!capsnet::audit_const_forward(*model, probe)) {
    std::fprintf(stderr, "serve: const-forward audit failed for %s\n", m.model.c_str());
    return nullptr;
  }
  return std::make_unique<ModelRegistry>(std::move(model), std::move(m));
}

bool ModelRegistry::reload(const std::string& manifest_path) {
  // Full revalidation happens OUTSIDE the write lock: traffic keeps
  // flowing on the old model while the candidate loads.
  std::unique_ptr<ModelRegistry> fresh = open(manifest_path);
  if (fresh == nullptr) {
    reloads_failed_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  {
    const std::unique_lock<std::shared_mutex> lock(mu_);
    // Queued requests were shape-validated against the current model;
    // a hot reload may not change the served geometry under them.
    if (fresh->model_->input_shape() != model_->input_shape()) {
      std::fprintf(stderr, "serve: reload rejected — input shape changed\n");
      reloads_failed_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    model_ = std::move(fresh->model_);
    manifest_ = std::move(fresh->manifest_);
    variants_ = std::move(fresh->variants_);
  }
  reloads_ok_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void ModelRegistry::build_variants() {
  variants_.push_back({kVariantExact, std::make_unique<backend::ExactBackend>()});

  std::vector<noise::InjectionRule> rules;
  for (const core::ManifestSite& s : manifest_.sites) {
    const noise::NoiseSpec spec{s.nm, s.na};
    if (spec.is_zero()) continue;  // Exact component: no rule needed.
    rules.push_back(noise::layer_rule(s.site.kind, s.site.layer, spec));
  }
  variants_.push_back({kVariantDesigned, std::make_unique<backend::NoiseBackend>(
                                             std::move(rules), manifest_.noise_seed)});

  // Emulated: every MAC-output site runs the quantized behavioral datapath
  // with its selected component. An empty or library-unknown component
  // name (exact selection, or a manifest from another library build) falls
  // back to the exact multiplier — the site still executes the quantized
  // u8 datapath, just with error-free products.
  backend::EmulationPlan plan;
  for (const core::ManifestSite& s : manifest_.sites) {
    if (s.site.kind != capsnet::OpKind::kMacOutput) continue;
    if (!plan.set_by_name(s.site.layer, s.component)) {
      std::fprintf(stderr,
                   "serve: component '%s' (site %s) not in this build's library; "
                   "emulating with the exact multiplier\n",
                   s.component.c_str(), s.site.layer.c_str());
      plan.set(s.site.layer, backend::SiteUnit{});
    }
  }
  variants_.push_back(
      {kVariantEmulated, std::make_unique<backend::EmulatedBackend>(std::move(plan))});
}

core::DeploymentManifest ModelRegistry::manifest() const {
  const std::shared_lock<std::shared_mutex> lock(mu_);
  return manifest_;
}

Shape ModelRegistry::input_shape() const {
  const std::shared_lock<std::shared_mutex> lock(mu_);
  return model_->input_shape();
}

std::vector<std::string> ModelRegistry::variant_names() const {
  const std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<std::string> names;
  for (const Variant& v : variants_) names.push_back(v.name);
  return names;
}

bool ModelRegistry::has_variant(const std::string& name) const {
  const std::shared_lock<std::shared_mutex> lock(mu_);
  return find_variant_locked(name) != nullptr;
}

std::int64_t ModelRegistry::designed_noisy_sites() const {
  const std::shared_lock<std::shared_mutex> lock(mu_);
  const Variant* v = find_variant_locked(kVariantDesigned);
  if (v == nullptr) return 0;
  const std::vector<noise::InjectionRule>* rules = v->exec->rules();
  return rules == nullptr ? 0 : static_cast<std::int64_t>(rules->size());
}

std::int64_t ModelRegistry::emulated_sites() const {
  const std::shared_lock<std::shared_mutex> lock(mu_);
  const Variant* v = find_variant_locked(kVariantEmulated);
  if (v == nullptr) return 0;
  const auto& emu = static_cast<const backend::EmulatedBackend&>(*v->exec);
  return static_cast<std::int64_t>(emu.plan().size());
}

const Variant* ModelRegistry::find_variant_locked(const std::string& name) const {
  for (const Variant& v : variants_) {
    if (v.name == name) return &v;
  }
  return nullptr;
}

RunResult ModelRegistry::run(const std::string& variant, const Tensor& x,
                             std::uint64_t salt) const {
  RunResult r;
  if (fault::armed() && fault::plan()->fail_backend()) {
    r.error = "injected backend fault";
    return r;
  }
  const std::shared_lock<std::shared_mutex> lock(mu_);
  const Variant* v = find_variant_locked(variant);
  if (v == nullptr) {
    r.error = "unknown variant '" + variant + "'";
    return r;
  }
  r.output = v->exec->run(*model_, x, salt);
  r.ok = true;
  return r;
}

}  // namespace redcane::serve
