// Trainable-layer interface of the NN substrate.
//
// The paper trains its models in TensorFlow; this reproduction replaces
// that substrate with explicit per-layer forward/backward passes (see
// DESIGN.md §4). Layers cache whatever they need between forward and
// backward; the caller drives plain SGD-style loops (capsnet/trainer.*).
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "tensor/random.hpp"
#include "tensor/tensor.hpp"

namespace redcane::nn {

/// A trainable parameter and its gradient accumulator.
struct Param {
  std::string name;
  Tensor value;
  Tensor grad;

  explicit Param(std::string n, Tensor v)
      : name(std::move(n)), value(std::move(v)), grad(value.shape()) {}

  void zero_grad() { grad.fill(0.0F); }
};

/// Base class for layers with a single input and output tensor.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Forward pass; caches activations needed by backward when `train`.
  virtual Tensor forward(const Tensor& x, bool train) = 0;

  /// Backward pass: receives dL/d(output), returns dL/d(input), and
  /// accumulates parameter gradients. Must follow a forward(train=true).
  virtual Tensor backward(const Tensor& grad_out) = 0;

  /// Trainable parameters (empty for stateless layers).
  virtual std::vector<Param*> params() { return {}; }
};

/// He-normal initialization for conv/dense weights with `fan_in` inputs.
inline void he_init(Tensor& w, std::int64_t fan_in, Rng& rng) {
  const double stddev = std::sqrt(2.0 / static_cast<double>(fan_in));
  rng.fill_normal(w.data().data(), w.data().size(), 0.0, stddev);
}

}  // namespace redcane::nn
