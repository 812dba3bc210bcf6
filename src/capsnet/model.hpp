// Common interface of the two reproduced architectures (CapsNet [25] and
// DeepCaps [24]). The ReD-CaNe methodology (src/core) drives models only
// through this interface, so it is architecture-agnostic exactly as the
// paper's flow is.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "capsnet/inject.hpp"
#include "nn/layer.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace redcane::capsnet {

/// Stage-boundary activations of a stage-segmented forward pass.
/// `at[k]` holds the tensors entering stage k (`at[0]` = {input batch});
/// `at[num_stages()]` holds the final class capsules. A recording run over
/// a clean batch turns this into a reusable prefix cache: noise injected
/// at a site of stage k cannot change `at[0..k]`, so a sweep replays only
/// stages [k, num_stages()) per noisy point.
struct StageState {
  std::vector<std::vector<Tensor>> at;
};

/// Parameter footprint of a model: the number of tensors its params()
/// returns and the floats they hold together. Each config computes the
/// footprint of the model it would build from its shapes alone
/// (`param_layout()`), so a caller can bound a model by outside bytes
/// before allocating it.
struct ParamLayout {
  std::int64_t tensors = 0;
  std::int64_t floats = 0;
};

/// Output extent of a convolution over `in` pixels: 0 (an empty output)
/// when the padded input is smaller than the kernel.
[[nodiscard]] constexpr std::int64_t conv_out_extent(std::int64_t in, std::int64_t kernel,
                                                     std::int64_t stride, std::int64_t pad) {
  return in + 2 * pad < kernel ? 0 : (in + 2 * pad - kernel) / stride + 1;
}

class CapsModel {
 public:
  virtual ~CapsModel() = default;

  /// Runs inference (train=false) or a cached training forward pass.
  /// Returns class capsules [N, num_classes, dim]; their L2 lengths are
  /// the classification scores. `hook` may be null.
  virtual Tensor forward(const Tensor& x, bool train, PerturbationHook* hook) = 0;

  /// Shared-weight inference entry: forward(x, train=false, hook). Safe to
  /// call concurrently from several threads on one model instance — the
  /// sweep engine and the serving worker pool both rely on eval forwards
  /// writing no model state (pinned by capsnet::audit_const_forward) — as
  /// long as no thread trains or mutates params meanwhile.
  [[nodiscard]] Tensor infer(const Tensor& x, PerturbationHook* hook = nullptr) {
    return forward(x, /*train=*/false, hook);
  }

  /// Number of stages of the segmented inference forward. Stage boundaries
  /// sit immediately after hook-site emits, so a perturbation at a site
  /// affects only the site's own stage and later ones. The base default is
  /// a single stage (correct for any model, no prefix-cache benefit).
  [[nodiscard]] virtual int num_stages() const { return 1; }

  /// Runs stages [first, last) of an inference-only forward pass
  /// (train=false semantics; safe to call concurrently from several
  /// threads on one model). `state.at` must be sized num_stages() + 1 with
  /// `at[first]` populated (`at[0]` = {x}); when `record` is true every
  /// executed stage k also stores its boundary tensors into `at[k + 1]`.
  /// Returns the class capsules when last == num_stages(), otherwise an
  /// empty tensor. Running [0, num_stages()) is bit-identical to
  /// forward(x, false, hook).
  virtual Tensor forward_range(int first, int last, StageState& state,
                               PerturbationHook* hook, bool record);

  /// Backward from dL/d(class capsules); must follow forward(train=true).
  virtual Tensor backward(const Tensor& grad_v) = 0;

  virtual std::vector<nn::Param*> params() = 0;

  /// Injectable layer names, in network order (the paper's Fig. 10 axis).
  [[nodiscard]] virtual std::vector<std::string> layer_names() const = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Expected input shape [H, W, C] (without batch).
  [[nodiscard]] virtual Shape input_shape() const = 0;

  [[nodiscard]] virtual std::int64_t num_classes() const = 0;

  /// Classification scores: capsule lengths [N, num_classes].
  [[nodiscard]] static Tensor class_lengths(const Tensor& v) {
    return ops::l2_norm_last_axis(v);
  }
};

/// Base fallback: the whole forward is one stage.
inline Tensor CapsModel::forward_range(int first, int last, StageState& state,
                                       PerturbationHook* hook, bool record) {
  if (first != 0 || last != 1) return Tensor();
  Tensor v = forward(state.at[0][0], /*train=*/false, hook);
  if (record) state.at[1] = {v};
  return v;
}

}  // namespace redcane::capsnet
