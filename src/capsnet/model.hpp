// Common interface of the two reproduced architectures (CapsNet [25] and
// DeepCaps [24]). The ReD-CaNe methodology (src/core) drives models only
// through this interface, so it is architecture-agnostic exactly as the
// paper's flow is.
#pragma once

#include <cstdint>
#include <span>
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

/// A model is its stages: stage k reads the tensors entering it (boundary
/// k) and writes boundary k + 1; the last boundary holds the class
/// capsules. `forward` runs every stage and `forward_range` runs the same
/// driver over a sub-range, each stage writing straight into the next
/// boundary. A model defines `stage` and `num_stages`, never the loop.
class CapsModel {
 public:
  virtual ~CapsModel() = default;

  /// Runs every stage, as inference (train=false) or as a cached training
  /// forward pass. Returns class capsules [N, num_classes, dim]; their L2
  /// lengths are the classification scores. `hook` may be null.
  Tensor forward(const Tensor& x, bool train, PerturbationHook* hook);

  /// Shared-weight inference entry: forward(x, train=false, hook). Safe to
  /// call concurrently from several threads on one model instance — the
  /// sweep engine and the serving worker pool both rely on eval forwards
  /// writing no model state (pinned by capsnet::audit_const_forward) — as
  /// long as no thread trains or mutates params meanwhile.
  [[nodiscard]] Tensor infer(const Tensor& x, PerturbationHook* hook = nullptr) {
    return forward(x, /*train=*/false, hook);
  }

  /// Number of stages. Stage boundaries sit immediately after hook-site
  /// emits, so a perturbation at a site affects only the site's own stage
  /// and later ones.
  [[nodiscard]] virtual int num_stages() const = 0;

  /// Runs stages [first, last) through forward's driver, as inference
  /// (train=false; safe to call concurrently like infer). `state.at` holds
  /// num_stages() + 1 boundaries with `at[first]` populated (`at[0]` = {x})
  /// and read in place; `record` has every stage k write its output into
  /// `at[k + 1]`. Returns the class capsules when last == num_stages(),
  /// else an empty tensor. Aborts on a range or state outside these rules.
  Tensor forward_range(int first, int last, StageState& state, PerturbationHook* hook,
                       bool record);

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

 protected:
  /// The tensors handed from one stage to the next.
  using Boundary = std::vector<Tensor>;

  /// Runs stage k: reads boundary `in` without mutating it (it may be a
  /// shared prefix-cache checkpoint) and appends boundary k + 1 to `out`,
  /// which is empty on entry. In train mode it also caches what backward
  /// needs.
  virtual void stage(int k, std::span<const Tensor> in, Boundary& out, bool train,
                     PerturbationHook* hook) = 0;

 private:
  /// The driver: stages [first, last) from `entry`, each writing its
  /// boundary into `record->at[k + 1]` when recording, else into scratch.
  Tensor run_stages(int first, int last, std::span<const Tensor> entry, bool train,
                    PerturbationHook* hook, StageState* record);
};

}  // namespace redcane::capsnet
