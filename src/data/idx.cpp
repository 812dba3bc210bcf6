#include "data/idx.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "data/synthetic.hpp"

namespace redcane::data {
namespace {

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

/// One big-endian u32 (the IDX header word size).
bool read_be32(std::FILE* f, std::uint32_t& out) {
  unsigned char b[4];
  if (std::fread(b, 1, 4, f) != 4) return false;
  out = (static_cast<std::uint32_t>(b[0]) << 24) | (static_cast<std::uint32_t>(b[1]) << 16) |
        (static_cast<std::uint32_t>(b[2]) << 8) | static_cast<std::uint32_t>(b[3]);
  return true;
}

/// Bytes from the read position to the end of the file (0 if unknown).
std::uint64_t bytes_left(std::FILE* f) {
  const long at = std::ftell(f);
  if (at < 0 || std::fseek(f, 0, SEEK_END) != 0) return 0;
  const long end = std::ftell(f);
  return std::fseek(f, at, SEEK_SET) == 0 && end >= at ? static_cast<std::uint64_t>(end - at) : 0;
}

/// Center-crops (hw < src) or zero-pads (hw > src) one [src, src] image
/// into a [hw, hw] image.
void fit_image(const float* src_px, std::int64_t src, std::int64_t hw, float* dst) {
  const std::int64_t off = (src - hw) / 2;  // Negative when padding.
  for (std::int64_t r = 0; r < hw; ++r) {
    for (std::int64_t c = 0; c < hw; ++c) {
      const std::int64_t sr = r + off;
      const std::int64_t sc = c + off;
      const bool inside = sr >= 0 && sr < src && sc >= 0 && sc < src;
      dst[r * hw + c] = inside ? src_px[sr * src + sc] : 0.0F;
    }
  }
}

}  // namespace

bool load_idx_images(const std::string& path, Tensor& out, std::int64_t limit) {
  const File f(std::fopen(path.c_str(), "rb"));
  if (!f) return false;
  std::uint32_t magic = 0;
  std::uint32_t n = 0;
  std::uint32_t h = 0;
  std::uint32_t w = 0;
  if (!read_be32(f.get(), magic) || magic != 0x803U) return false;
  if (!read_be32(f.get(), n) || !read_be32(f.get(), h) || !read_be32(f.get(), w)) return false;
  if (n == 0 || h == 0 || w == 0) return false;
  std::int64_t count = static_cast<std::int64_t>(n);
  if (limit >= 0) count = std::min<std::int64_t>(count, limit);
  const std::size_t px = static_cast<std::size_t>(h) * w;
  // Allocate nothing the payload cannot fill (hostile headers).
  if (count > 0 && px > bytes_left(f.get()) / static_cast<std::uint64_t>(count)) return false;
  std::vector<std::uint8_t> row(px);
  Tensor t(Shape{count, static_cast<std::int64_t>(h), static_cast<std::int64_t>(w), 1});
  auto td = t.data();
  for (std::int64_t i = 0; i < count; ++i) {
    if (std::fread(row.data(), 1, px, f.get()) != px) return false;
    float* dst = &td[static_cast<std::size_t>(i) * px];
    for (std::size_t p = 0; p < px; ++p) dst[p] = static_cast<float>(row[p]) / 255.0F;
  }
  out = std::move(t);
  return true;
}

bool load_idx_labels(const std::string& path, std::vector<std::int64_t>& out,
                     std::int64_t limit) {
  const File f(std::fopen(path.c_str(), "rb"));
  if (!f) return false;
  std::uint32_t magic = 0;
  std::uint32_t n = 0;
  if (!read_be32(f.get(), magic) || magic != 0x801U) return false;
  if (!read_be32(f.get(), n) || n == 0) return false;
  std::int64_t count = static_cast<std::int64_t>(n);
  if (limit >= 0) count = std::min<std::int64_t>(count, limit);
  if (static_cast<std::uint64_t>(count) > bytes_left(f.get())) return false;
  std::vector<std::uint8_t> raw(static_cast<std::size_t>(count));
  if (std::fread(raw.data(), 1, raw.size(), f.get()) != raw.size()) return false;
  out.assign(raw.begin(), raw.end());
  return true;
}

Dataset load_mnist(const std::string& dir, std::int64_t hw, std::int64_t train_count,
                   std::int64_t test_count, std::uint64_t fallback_seed) {
  const std::string base = dir.empty() || dir.back() == '/' ? dir : dir + "/";
  Tensor train_raw;
  Tensor test_raw;
  Dataset ds;
  bool ok = load_idx_images(base + "train-images-idx3-ubyte", train_raw, train_count) &&
            load_idx_labels(base + "train-labels-idx1-ubyte", ds.train_y, train_count) &&
            load_idx_images(base + "t10k-images-idx3-ubyte", test_raw, test_count) &&
            load_idx_labels(base + "t10k-labels-idx1-ubyte", ds.test_y, test_count);
  // A mismatched pair (corrupt download, files swapped) must not produce
  // image rows without labels — consumers index labels by image row — and
  // MNIST labels are digits: anything outside [0, 9] is a bogus payload
  // that would otherwise train silently against never-matching classes.
  ok = ok && train_raw.shape().dim(0) == static_cast<std::int64_t>(ds.train_y.size()) &&
       test_raw.shape().dim(0) == static_cast<std::int64_t>(ds.test_y.size());
  if (ok) {
    for (std::int64_t y : ds.train_y) ok = ok && y >= 0 && y <= 9;
    for (std::int64_t y : ds.test_y) ok = ok && y >= 0 && y <= 9;
  }
  if (!ok) {
    std::fprintf(stderr,
                 "data: MNIST IDX files not readable under '%s' — falling back to the "
                 "synthetic MNIST stand-in\n",
                 dir.c_str());
    return make_benchmark(DatasetKind::kMnist, hw, std::max<std::int64_t>(train_count, 0),
                          std::max<std::int64_t>(test_count, 0), fallback_seed);
  }

  // Fit the 28x28 originals to the requested extent (tiny-profile models
  // run smaller inputs; center content survives a crop).
  const auto fit_split = [hw](const Tensor& raw) {
    const std::int64_t n = raw.shape().dim(0);
    const std::int64_t src = raw.shape().dim(1);
    if (src == hw) return raw;
    Tensor out(Shape{n, hw, hw, 1});
    const auto rd = raw.data();
    auto od = out.data();
    for (std::int64_t i = 0; i < n; ++i) {
      fit_image(&rd[static_cast<std::size_t>(i * src * src)], src, hw,
                &od[static_cast<std::size_t>(i * hw * hw)]);
    }
    return out;
  };
  ds.name = "MNIST(idx)";
  ds.train_x = fit_split(train_raw);
  ds.test_x = fit_split(test_raw);
  return ds;
}

}  // namespace redcane::data
