// Tensor: dense row-major float32 N-d array, the common currency of the
// ReD-CaNe reproduction (network activations, weights, noise tensors).
//
// Design notes:
//  * Value semantics with std::vector<float> storage — no aliasing views.
//    CapsNet inference at the scales we sweep is compute-bound in conv
//    kernels, so copy overhead of whole tensors is irrelevant next to MACs.
//  * All indexing errors abort: they are programming errors.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "tensor/shape.hpp"

namespace redcane {

/// Dense row-major float tensor.
class Tensor {
 public:
  Tensor() = default;

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);

  /// Tensor of the given shape filled with `fill`.
  Tensor(Shape shape, float fill);

  /// Tensor wrapping a copy of `values`; size must match shape.numel().
  Tensor(Shape shape, std::vector<float> values);

  [[nodiscard]] const Shape& shape() const { return shape_; }
  [[nodiscard]] std::int64_t numel() const { return static_cast<std::int64_t>(data_.size()); }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  [[nodiscard]] std::span<float> data() { return data_; }
  [[nodiscard]] std::span<const float> data() const { return data_; }

  /// Flat element access.
  [[nodiscard]] float& at(std::int64_t i) { return data_[static_cast<std::size_t>(i)]; }
  [[nodiscard]] float at(std::int64_t i) const { return data_[static_cast<std::size_t>(i)]; }

  /// Multi-index access (rank must match). Convenience overloads cover the
  /// ranks used throughout the codebase.
  [[nodiscard]] float& operator()(std::int64_t i0);
  [[nodiscard]] float& operator()(std::int64_t i0, std::int64_t i1);
  [[nodiscard]] float& operator()(std::int64_t i0, std::int64_t i1, std::int64_t i2);
  [[nodiscard]] float& operator()(std::int64_t i0, std::int64_t i1, std::int64_t i2,
                                  std::int64_t i3);
  [[nodiscard]] float& operator()(std::int64_t i0, std::int64_t i1, std::int64_t i2,
                                  std::int64_t i3, std::int64_t i4);
  [[nodiscard]] float operator()(std::int64_t i0) const;
  [[nodiscard]] float operator()(std::int64_t i0, std::int64_t i1) const;
  [[nodiscard]] float operator()(std::int64_t i0, std::int64_t i1, std::int64_t i2) const;
  [[nodiscard]] float operator()(std::int64_t i0, std::int64_t i1, std::int64_t i2,
                                 std::int64_t i3) const;
  [[nodiscard]] float operator()(std::int64_t i0, std::int64_t i1, std::int64_t i2,
                                 std::int64_t i3, std::int64_t i4) const;

  /// Returns a tensor with identical data and a new shape of equal numel.
  [[nodiscard]] Tensor reshaped(Shape new_shape) const&;
  /// The same, moving this tensor's data instead of copying it.
  [[nodiscard]] Tensor reshaped(Shape new_shape) &&;

  /// Fills every element with `value`.
  void fill(float value);

  /// Element count sanity string, e.g. "Tensor[2, 3] (6 elements)".
  [[nodiscard]] std::string to_string() const;

 private:
  [[nodiscard]] std::int64_t flat_index(std::span<const std::int64_t> idx) const;

  Shape shape_;
  std::vector<float> data_;
};

}  // namespace redcane
