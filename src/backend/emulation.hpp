// Emulation context: the seam through which an EmulatedBackend
// (backend/backend.hpp) redirects every MAC-producing layer onto the
// behavioral quantized datapath (quant/lut_gemm.hpp).
//
// An EmulationPlan maps layer names (the same names the perturbation-hook
// sites carry: "Conv1", "PrimaryCaps", "Caps2D7", ...) to the MAC datapath
// that layer should execute — behavioral multiplier, optional behavioral
// accumulator adder, and operand wordlength. An EmulationScope arms a plan
// for the *calling thread*; while armed, the eval-time forwards of
// nn::Conv2D, nn::Dense, capsnet::ClassCaps (votes) and capsnet::ConvCaps3D
// (votes) look up their own name and, on a hit, run the quantized
// LUT-accumulate GEMM instead of the float core. Thread-locality mirrors
// the workspace-arena keying: every execution context in the codebase
// (sweep-engine point workers, serving batch workers) is a thread, so one
// armed scope can never leak into a sibling worker's forward.
//
// This header sits *below* nn/capsnet in the layering (it knows nothing
// about models or hooks); the ExecBackend classes that drive whole-model
// execution live in backend/backend.hpp above capsnet.
#pragma once

#include <string>
#include <vector>

#include "quant/lut_gemm.hpp"

namespace redcane::backend {

/// Per-layer MAC-site datapath choice.
struct SiteUnit {
  quant::MacUnit unit;  ///< Multiplier/adder (null members = exact unit).
  int bits = 8;         ///< Operand quantization wordlength.
};

/// Layer-name -> SiteUnit map of one emulated network execution.
///
/// Lifetime note: emulated layer calls memoize product tables in the
/// process-wide LUT cache (quant/lut_cache.hpp), keyed by multiplier
/// address. Library components live forever, but a plan may also reference
/// a caller-owned multiplier whose address can be reused after it dies —
/// so the destructor drops the cache entries of every planned multiplier
/// that is not in approx::multiplier_library() (plan-scoped invalidation).
class EmulationPlan {
 public:
  EmulationPlan() = default;
  ~EmulationPlan();
  EmulationPlan(const EmulationPlan&) = default;
  EmulationPlan& operator=(const EmulationPlan&) = default;
  EmulationPlan(EmulationPlan&&) = default;
  EmulationPlan& operator=(EmulationPlan&&) = default;

  /// Sets (or replaces) the datapath of `layer`'s MAC site.
  void set(const std::string& layer, const SiteUnit& unit);

  /// Name-resolving convenience: looks `multiplier` up in the component
  /// library ("" or "axm_exact" = exact) and `adder` in the adder library
  /// ("" = exact accumulation). Returns false — and sets nothing — when a
  /// non-empty name is unknown (e.g. a manifest written by a different
  /// library build) or `bits` lies outside the 1..8-bit code range.
  [[nodiscard]] bool set_by_name(const std::string& layer, const std::string& multiplier,
                                 const std::string& adder = "", int bits = 8);

  /// The plan entry for `layer`'s MAC site, or null when the layer is not
  /// planned (it then runs the float path).
  [[nodiscard]] const SiteUnit* find(const std::string& layer) const;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }

  /// Planned layer names, insertion order.
  [[nodiscard]] std::vector<std::string> layers() const;

 private:
  std::vector<std::pair<std::string, SiteUnit>> entries_;
};

/// RAII: arms `plan` on the calling thread for the scope's lifetime.
/// Scopes nest (the previous plan is restored on destruction). The plan
/// must outlive the scope.
class EmulationScope {
 public:
  explicit EmulationScope(const EmulationPlan& plan);
  ~EmulationScope();
  EmulationScope(const EmulationScope&) = delete;
  EmulationScope& operator=(const EmulationScope&) = delete;

 private:
  const EmulationPlan* previous_;
};

/// The plan armed on the calling thread (null outside any scope).
[[nodiscard]] const EmulationPlan* active_plan();

/// Armed-plan entry for `layer`'s MAC site; null when no scope is armed or
/// the layer is not planned. This is the one call every MAC-producing
/// layer makes on its eval path.
[[nodiscard]] const SiteUnit* active_mac_unit(const std::string& layer);

}  // namespace redcane::backend
