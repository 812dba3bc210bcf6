// IDX-format loaders (the MNIST distribution format: big-endian magic +
// dimension header, then raw u8 payload), plus an MNIST directory loader
// with a synthetic fallback.
//
// The synthetic stand-ins of src/data/synthetic.hpp keep every pipeline
// runnable offline; when the real archives are present (uncompressed
// train-images-idx3-ubyte etc., as distributed), these loaders swap the
// real data in without touching any caller — the examples expose the
// switch as --data-dir (examples/cli_common.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.hpp"

namespace redcane::data {

/// Reads an IDX3 image file (magic 0x00000803, dims [N, H, W], u8 pixels)
/// into [N, H, W, 1] floats in [0, 1]. `limit` >= 0 caps the image count.
/// Returns false (leaving `out` untouched) on open failure, a wrong magic,
/// a zero dimension, or a payload shorter than the images to read — the
/// size check runs before anything is allocated, so a hostile header
/// cannot trigger a huge allocation.
[[nodiscard]] bool load_idx_images(const std::string& path, Tensor& out,
                                   std::int64_t limit = -1);

/// Reads an IDX1 label file (magic 0x00000801, dims [N], u8 labels), with
/// the same rejections as load_idx_images.
[[nodiscard]] bool load_idx_labels(const std::string& path, std::vector<std::int64_t>& out,
                                   std::int64_t limit = -1);

/// Loads MNIST from `dir` (train-images-idx3-ubyte, train-labels-idx1-ubyte,
/// t10k-images-idx3-ubyte, t10k-labels-idx1-ubyte), center-cropping or
/// zero-padding the 28x28 images to `hw`, capping the splits at
/// `train_count`/`test_count` (negative keeps everything; 0 is a valid
/// empty split — the serve-a-manifest flow trains nothing). When any file
/// is absent, malformed, count-mismatched against its labels, or carries
/// an out-of-range label, logs a warning to stderr and returns the
/// synthetic MNIST benchmark of the same geometry instead — callers can
/// tell which they got from Dataset::name ("MNIST(idx)" vs
/// "MNIST(synthetic)").
[[nodiscard]] Dataset load_mnist(const std::string& dir, std::int64_t hw,
                                 std::int64_t train_count, std::int64_t test_count,
                                 std::uint64_t fallback_seed = 1234);

}  // namespace redcane::data
