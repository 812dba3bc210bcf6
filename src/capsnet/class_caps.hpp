// ClassCaps: the fully-connected capsule layer with dynamic routing
// (Sabour et al. [25]; "CLASSCAPS 10x16" in DeepCaps' Fig. 2).
//
// Each input capsule u_i casts a vote u_hat[i,j] = W[i,j] u_i for every
// output (class) capsule j; routing-by-agreement combines the votes. The
// vote computation is a MacOutput injection site; the routing loop exposes
// Softmax / MacOutput / Activation / LogitsUpdate sites internally.
#pragma once

#include "capsnet/inject.hpp"
#include "capsnet/routing.hpp"
#include "nn/layer.hpp"

namespace redcane::backend {
struct SiteUnit;
}

namespace redcane::capsnet {

struct ClassCapsSpec {
  std::int64_t in_caps = 0;    ///< Number of input capsules I.
  std::int64_t in_dim = 8;     ///< Input capsule dimension.
  std::int64_t out_caps = 10;  ///< Output (class) capsules J.
  std::int64_t out_dim = 16;   ///< Output capsule dimension.
  int routing_iters = 3;
};

/// Input: [N, I, in_dim]; output: [N, J, out_dim].
class ClassCaps final : public nn::Layer {
 public:
  ClassCaps(std::string name, const ClassCapsSpec& spec, Rng& rng);

  Tensor forward(const Tensor& x, bool train) override { return forward(x, train, nullptr); }
  Tensor forward(const Tensor& x, bool train, PerturbationHook* hook);
  Tensor backward(const Tensor& grad_out) override;

  /// Stage split used by the checkpointed forward: vote computation (emits
  /// the MacOutput site) ...
  Tensor forward_votes(const Tensor& x, bool train, PerturbationHook* hook);
  /// ... then dynamic routing (emits the routing sites). forward() == the
  /// composition of the two.
  Tensor forward_routing(const Tensor& votes, bool train, PerturbationHook* hook);
  std::vector<nn::Param*> params() override { return {&w_}; }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const ClassCapsSpec& spec() const { return spec_; }

  /// Overrides the routing iteration count (ablation D2).
  void set_routing_iters(int iters) { spec_.routing_iters = iters; }

 private:
  [[nodiscard]] Tensor compute_votes(const Tensor& x) const;
  /// Emulated vote GEMMs (backend/emulation.hpp plans this layer): one
  /// grouped LUT-accumulate call per layer with a group per input capsule,
  /// sharing one product table. Eval path only.
  [[nodiscard]] Tensor compute_votes_emulated(const Tensor& x,
                                              const backend::SiteUnit& unit) const;

  std::string name_;
  ClassCapsSpec spec_;
  nn::Param w_;  ///< [I, J, in_dim, out_dim]

  Tensor cached_x_;
  Tensor cached_votes_;
  RoutingResult cached_routing_;
};

}  // namespace redcane::capsnet
