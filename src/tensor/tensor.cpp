#include "tensor/tensor.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>

namespace redcane {
namespace {

[[noreturn]] void fail(const char* what) {
  std::fprintf(stderr, "redcane::Tensor fatal: %s\n", what);
  std::abort();
}

}  // namespace

Tensor::Tensor(Shape shape)
    : shape_(shape), data_(static_cast<std::size_t>(shape.numel()), 0.0F) {}

Tensor::Tensor(Shape shape, float fill)
    : shape_(shape), data_(static_cast<std::size_t>(shape.numel()), fill) {}

Tensor::Tensor(Shape shape, std::vector<float> values)
    : shape_(shape), data_(std::move(values)) {
  if (static_cast<std::int64_t>(data_.size()) != shape_.numel()) {
    fail("value count does not match shape");
  }
}

std::int64_t Tensor::flat_index(std::span<const std::int64_t> idx) const {
  if (idx.size() != shape_.rank()) fail("index rank mismatch");
  std::int64_t flat = 0;
  for (std::size_t a = 0; a < idx.size(); ++a) {
    const std::int64_t extent = shape_.dim(static_cast<std::int64_t>(a));
    if (idx[a] < 0 || idx[a] >= extent) fail("index out of bounds");
    flat = flat * extent + idx[a];
  }
  return flat;
}

float& Tensor::operator()(std::int64_t i0) {
  const std::array<std::int64_t, 1> idx{i0};
  return data_[static_cast<std::size_t>(flat_index(idx))];
}
float& Tensor::operator()(std::int64_t i0, std::int64_t i1) {
  const std::array<std::int64_t, 2> idx{i0, i1};
  return data_[static_cast<std::size_t>(flat_index(idx))];
}
float& Tensor::operator()(std::int64_t i0, std::int64_t i1, std::int64_t i2) {
  const std::array<std::int64_t, 3> idx{i0, i1, i2};
  return data_[static_cast<std::size_t>(flat_index(idx))];
}
float& Tensor::operator()(std::int64_t i0, std::int64_t i1, std::int64_t i2, std::int64_t i3) {
  const std::array<std::int64_t, 4> idx{i0, i1, i2, i3};
  return data_[static_cast<std::size_t>(flat_index(idx))];
}
float& Tensor::operator()(std::int64_t i0, std::int64_t i1, std::int64_t i2, std::int64_t i3,
                          std::int64_t i4) {
  const std::array<std::int64_t, 5> idx{i0, i1, i2, i3, i4};
  return data_[static_cast<std::size_t>(flat_index(idx))];
}

float Tensor::operator()(std::int64_t i0) const {
  return const_cast<Tensor*>(this)->operator()(i0);
}
float Tensor::operator()(std::int64_t i0, std::int64_t i1) const {
  return const_cast<Tensor*>(this)->operator()(i0, i1);
}
float Tensor::operator()(std::int64_t i0, std::int64_t i1, std::int64_t i2) const {
  return const_cast<Tensor*>(this)->operator()(i0, i1, i2);
}
float Tensor::operator()(std::int64_t i0, std::int64_t i1, std::int64_t i2,
                         std::int64_t i3) const {
  return const_cast<Tensor*>(this)->operator()(i0, i1, i2, i3);
}
float Tensor::operator()(std::int64_t i0, std::int64_t i1, std::int64_t i2, std::int64_t i3,
                         std::int64_t i4) const {
  return const_cast<Tensor*>(this)->operator()(i0, i1, i2, i3, i4);
}

Tensor Tensor::reshaped(Shape new_shape) const& { return Tensor(*this).reshaped(new_shape); }

Tensor Tensor::reshaped(Shape new_shape) && {
  if (new_shape.numel() != shape_.numel()) fail("reshape changes element count");
  Tensor out = std::move(*this);
  out.shape_ = new_shape;
  return out;
}

void Tensor::fill(float value) { std::fill(data_.begin(), data_.end(), value); }

std::string Tensor::to_string() const {
  return "Tensor" + shape_.to_string() + " (" + std::to_string(numel()) + " elements)";
}

}  // namespace redcane
