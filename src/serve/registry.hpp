// ModelRegistry: turns a deployment manifest into servable model variants.
//
// The registry owns one trained CapsModel (rebuilt from the manifest's
// architecture fields, weights loaded via capsnet::load_params) and exposes
// named *variants* — execution backends (backend/backend.hpp) over it:
//
//   "exact"    — ExactBackend: the plain network, no perturbation hook;
//   "designed" — NoiseBackend: the Step-6 design as the paper models it —
//                every manifest site gets its selected component's
//                profiled NM/NA injected through the standard
//                GaussianInjector hook, i.e. the same mechanism the
//                resilience analysis used, now running as the deployed
//                approximate network;
//   "emulated" — EmulatedBackend: ground-truth behavioral execution of the
//                same design — every MAC-output site's selected component
//                runs as a quantized u8 LUT datapath inside the layer
//                forwards. Deterministic (no RNG): for a pinned batch
//                composition, served outputs are bit-identical across
//                worker counts by construction.
//
// Noise hooks are created fresh per micro-batch (ExecBackend::make_hook)
// so concurrent workers never share a stream; the stream seed derives
// deterministically from the manifest seed and the caller's salt (first
// request id of the batch), keeping served outputs reproducible.
//
// Fault tolerance: run() never aborts — an unknown variant or a
// (fault-injected) backend failure comes back as a failed RunResult the
// server turns into a typed ServeError. reload() swaps in a revalidated
// manifest+checkpoint atomically and rolls back (keeps serving the old
// model) when any stage of the load fails; readers (run, accessors) hold a
// shared lock so a reload never tears a batch mid-forward.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "backend/backend.hpp"
#include "capsnet/model.hpp"
#include "core/manifest.hpp"
#include "noise/injector.hpp"

namespace redcane::serve {

inline constexpr const char* kVariantExact = "exact";
inline constexpr const char* kVariantDesigned = "designed";
inline constexpr const char* kVariantEmulated = "emulated";

/// A named way to execute the deployed model.
struct Variant {
  std::string name;
  std::unique_ptr<backend::ExecBackend> exec;
};

/// Outcome of one backend execution.
struct RunResult {
  bool ok = false;
  Tensor output;      ///< Class capsules, valid iff ok.
  std::string error;  ///< Failure detail when !ok.
};

class ModelRegistry {
 public:
  /// Wraps an externally built (already trained/loaded) model. Used by
  /// tests and benches whose model configs have no manifest profile.
  ModelRegistry(std::unique_ptr<capsnet::CapsModel> model,
                core::DeploymentManifest manifest);

  /// Loads a manifest file, rebuilds its model (profile config + input
  /// overrides), loads the checkpoint (resolved relative to the manifest's
  /// directory), and audits the const-forward contract with a zero probe.
  /// Returns nullptr (with a stderr note) on any failure. The checkpoint
  /// read honors the armed fault plan (util/fault.hpp): a corruption
  /// fault loads a truncated copy, which load_params rejects.
  static std::unique_ptr<ModelRegistry> open(const std::string& manifest_path);

  /// Hot manifest reload: revalidates `manifest_path` through the full
  /// open() path (parse, rebuild, checkpoint load, const-forward audit,
  /// matching input shape), then atomically swaps model+manifest+variants
  /// under the write lock. On ANY failure the registry keeps serving the
  /// previous model and returns false — rollback is simply never swapping.
  bool reload(const std::string& manifest_path);

  /// Reload outcome counters (lifetime totals).
  [[nodiscard]] std::int64_t reloads_ok() const {
    return reloads_ok_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t reloads_failed() const {
    return reloads_failed_.load(std::memory_order_relaxed);
  }

  /// The served model. NOT reload-safe: callers that reload concurrently
  /// must go through run()/input_shape(); direct model access is for
  /// single-threaded tests/benches.
  [[nodiscard]] capsnet::CapsModel& model() { return *model_; }
  [[nodiscard]] core::DeploymentManifest manifest() const;

  /// Input extent of the served model, [H, W, C] (reload-safe snapshot).
  [[nodiscard]] Shape input_shape() const;

  /// Variant names in registration order: {"exact", "designed",
  /// "emulated"}.
  [[nodiscard]] std::vector<std::string> variant_names() const;
  [[nodiscard]] bool has_variant(const std::string& name) const;

  /// Sites of the designed variant that carry non-zero noise.
  [[nodiscard]] std::int64_t designed_noisy_sites() const;

  /// MAC-output layers the emulated variant executes behaviorally.
  [[nodiscard]] std::int64_t emulated_sites() const;

  /// Runs one micro-batch through `variant`'s backend (fresh noise hook
  /// per call for the designed variant). `salt` keys the designed
  /// variant's noise stream (callers pass the batch's first request id);
  /// exact/emulated ignore it. Never aborts: an unknown variant or an
  /// injected backend fault returns a failed RunResult.
  [[nodiscard]] RunResult run(const std::string& variant, const Tensor& x,
                              std::uint64_t salt) const;

 private:
  [[nodiscard]] const Variant* find_variant_locked(const std::string& name) const;
  void build_variants();

  mutable std::shared_mutex mu_;  ///< Guards model_/manifest_/variants_.
  std::unique_ptr<capsnet::CapsModel> model_;
  core::DeploymentManifest manifest_;
  std::vector<Variant> variants_;
  std::atomic<std::int64_t> reloads_ok_{0};
  std::atomic<std::int64_t> reloads_failed_{0};
};

}  // namespace redcane::serve
