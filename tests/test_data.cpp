#include "data/synthetic.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "data/idx.hpp"

namespace redcane::data {
namespace {

SyntheticSpec small_spec(DatasetKind kind) {
  SyntheticSpec s;
  s.kind = kind;
  s.hw = 16;
  s.channels = (kind == DatasetKind::kCifar10 || kind == DatasetKind::kSvhn) ? 3 : 1;
  s.train_count = 100;
  s.test_count = 40;
  s.seed = 9;
  return s;
}

TEST(Synthetic, ShapesAndRanges) {
  const Dataset ds = make_synthetic(small_spec(DatasetKind::kMnist));
  EXPECT_EQ(ds.train_x.shape(), (Shape{100, 16, 16, 1}));
  EXPECT_EQ(ds.test_x.shape(), (Shape{40, 16, 16, 1}));
  for (float v : ds.train_x.data()) {
    EXPECT_GE(v, 0.0F);
    EXPECT_LE(v, 1.0F);
  }
}

TEST(Synthetic, BalancedLabels) {
  const Dataset ds = make_synthetic(small_spec(DatasetKind::kCifar10));
  std::vector<int> counts(10, 0);
  for (std::int64_t y : ds.train_y) ++counts[static_cast<std::size_t>(y)];
  for (int c : counts) EXPECT_EQ(c, 10);
  EXPECT_EQ(ds.num_classes(), 10);
}

TEST(Synthetic, DeterministicInSpec) {
  const Dataset a = make_synthetic(small_spec(DatasetKind::kSvhn));
  const Dataset b = make_synthetic(small_spec(DatasetKind::kSvhn));
  for (std::int64_t i = 0; i < a.train_x.numel(); ++i) {
    ASSERT_EQ(a.train_x.at(i), b.train_x.at(i));
  }
}

TEST(Synthetic, DifferentSeedsDiffer) {
  SyntheticSpec s1 = small_spec(DatasetKind::kMnist);
  SyntheticSpec s2 = s1;
  s2.seed = 10;
  const Dataset a = make_synthetic(s1);
  const Dataset b = make_synthetic(s2);
  double diff = 0.0;
  for (std::int64_t i = 0; i < a.train_x.numel(); ++i) {
    diff += std::abs(a.train_x.at(i) - b.train_x.at(i));
  }
  EXPECT_GT(diff, 1.0);
}

TEST(Synthetic, ClassesAreSeparable) {
  // Nearest-prototype classification on noise-free class means must beat
  // chance by a wide margin: the generator must produce learnable classes.
  const Dataset ds = make_synthetic(small_spec(DatasetKind::kMnist));
  const std::int64_t dim = ds.train_x.numel() / ds.train_x.shape().dim(0);
  std::vector<std::vector<double>> means(10, std::vector<double>(static_cast<std::size_t>(dim)));
  std::vector<int> counts(10, 0);
  for (std::int64_t i = 0; i < ds.train_x.shape().dim(0); ++i) {
    const auto y = static_cast<std::size_t>(ds.train_y[static_cast<std::size_t>(i)]);
    ++counts[y];
    for (std::int64_t k = 0; k < dim; ++k) {
      means[y][static_cast<std::size_t>(k)] += ds.train_x.at(i * dim + k);
    }
  }
  for (std::size_t c = 0; c < 10; ++c) {
    for (double& v : means[c]) v /= counts[c];
  }
  int hits = 0;
  const std::int64_t n_test = ds.test_x.shape().dim(0);
  for (std::int64_t i = 0; i < n_test; ++i) {
    double best = 1e18;
    std::size_t best_c = 0;
    for (std::size_t c = 0; c < 10; ++c) {
      double d2 = 0.0;
      for (std::int64_t k = 0; k < dim; ++k) {
        const double d = ds.test_x.at(i * dim + k) - means[c][static_cast<std::size_t>(k)];
        d2 += d * d;
      }
      if (d2 < best) {
        best = d2;
        best_c = c;
      }
    }
    if (static_cast<std::int64_t>(best_c) == ds.test_y[static_cast<std::size_t>(i)]) ++hits;
  }
  EXPECT_GT(static_cast<double>(hits) / static_cast<double>(n_test), 0.8);
}

TEST(Synthetic, SamplesWithinClassVary) {
  const Dataset ds = make_synthetic(small_spec(DatasetKind::kMnist));
  // Samples 0 and 10 share class 0 but must not be identical (augmentation).
  const std::int64_t dim = ds.train_x.numel() / ds.train_x.shape().dim(0);
  double diff = 0.0;
  for (std::int64_t k = 0; k < dim; ++k) {
    diff += std::abs(ds.train_x.at(k) - ds.train_x.at(10 * dim + k));
  }
  EXPECT_GT(diff, 0.5);
}

TEST(Synthetic, BenchmarkShortcutsShapes) {
  const Dataset cifar = make_benchmark(DatasetKind::kCifar10, 32, 50, 20);
  EXPECT_EQ(cifar.train_x.shape(), (Shape{50, 32, 32, 3}));
  const Dataset mnist = make_benchmark(DatasetKind::kMnist, 28, 50, 20);
  EXPECT_EQ(mnist.train_x.shape(), (Shape{50, 28, 28, 1}));
  EXPECT_EQ(mnist.name, "MNIST(synthetic)");
}

TEST(Synthetic, KindNames) {
  EXPECT_STREQ(dataset_kind_name(DatasetKind::kMnist), "MNIST");
  EXPECT_STREQ(dataset_kind_name(DatasetKind::kFashionMnist), "Fashion-MNIST");
  EXPECT_STREQ(dataset_kind_name(DatasetKind::kCifar10), "CIFAR-10");
  EXPECT_STREQ(dataset_kind_name(DatasetKind::kSvhn), "SVHN");
}

// ---- IDX loaders ----

void write_be32(std::FILE* f, std::uint32_t v) {
  const unsigned char b[4] = {static_cast<unsigned char>(v >> 24),
                              static_cast<unsigned char>(v >> 16),
                              static_cast<unsigned char>(v >> 8),
                              static_cast<unsigned char>(v)};
  ASSERT_EQ(std::fwrite(b, 1, 4, f), 4U);
}

/// Writes a tiny IDX3 image file: `n` images of hw x hw whose pixel (r, c)
/// of image i is (i * 31 + r * hw + c) % 256.
void write_idx_images(const std::string& path, std::int64_t n, std::int64_t hw) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  write_be32(f, 0x803U);
  write_be32(f, static_cast<std::uint32_t>(n));
  write_be32(f, static_cast<std::uint32_t>(hw));
  write_be32(f, static_cast<std::uint32_t>(hw));
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t p = 0; p < hw * hw; ++p) {
      const unsigned char px = static_cast<unsigned char>((i * 31 + p) % 256);
      ASSERT_EQ(std::fwrite(&px, 1, 1, f), 1U);
    }
  }
  std::fclose(f);
}

void write_idx_labels(const std::string& path, const std::vector<std::uint8_t>& labels) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  write_be32(f, 0x801U);
  write_be32(f, static_cast<std::uint32_t>(labels.size()));
  ASSERT_EQ(std::fwrite(labels.data(), 1, labels.size(), f), labels.size());
  std::fclose(f);
}

TEST(Idx, ImagesAndLabelsRoundTrip) {
  const std::string dir = ::testing::TempDir();
  write_idx_images(dir + "/imgs.idx", 3, 6);
  write_idx_labels(dir + "/labels.idx", {4, 0, 9});

  Tensor images;
  ASSERT_TRUE(load_idx_images(dir + "/imgs.idx", images));
  EXPECT_EQ(images.shape(), (Shape{3, 6, 6, 1}));
  // Pixel (i=1, p=5): (31 + 5) % 256 = 36 -> 36/255.
  EXPECT_FLOAT_EQ(images.at(1 * 36 + 5), 36.0F / 255.0F);

  std::vector<std::int64_t> labels;
  ASSERT_TRUE(load_idx_labels(dir + "/labels.idx", labels));
  EXPECT_EQ(labels, (std::vector<std::int64_t>{4, 0, 9}));

  // The limit caps the row count without disturbing earlier rows.
  Tensor two;
  ASSERT_TRUE(load_idx_images(dir + "/imgs.idx", two, 2));
  EXPECT_EQ(two.shape(), (Shape{2, 6, 6, 1}));
  for (std::int64_t i = 0; i < two.numel(); ++i) EXPECT_EQ(two.at(i), images.at(i));
}

TEST(Idx, RejectsMissingTruncatedAndWrongMagic) {
  const std::string dir = ::testing::TempDir();
  Tensor images;
  std::vector<std::int64_t> labels;
  EXPECT_FALSE(load_idx_images(dir + "/absent.idx", images));
  EXPECT_FALSE(load_idx_labels(dir + "/absent.idx", labels));

  // Labels magic on an images load (and vice versa).
  write_idx_labels(dir + "/l.idx", {1, 2});
  EXPECT_FALSE(load_idx_images(dir + "/l.idx", images));
  write_idx_images(dir + "/i.idx", 2, 4);
  EXPECT_FALSE(load_idx_labels(dir + "/i.idx", labels));

  // Truncated payload: header promises 4 images, file carries 2.
  write_idx_images(dir + "/short.idx", 2, 4);
  std::FILE* f = std::fopen((dir + "/short.idx").c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 4, SEEK_SET);
  write_be32(f, 4);
  std::fclose(f);
  EXPECT_FALSE(load_idx_images(dir + "/short.idx", images));

  // Hostile headers are refused before anything is allocated: a 16-byte
  // file claiming one 65535x65535 image, an 8-byte file claiming
  // 0xFFFFFFFF labels, and a zero image extent.
  const auto write_header = [&](const std::string& name,
                                const std::vector<std::uint32_t>& words) {
    std::FILE* h = std::fopen((dir + name).c_str(), "wb");
    ASSERT_NE(h, nullptr);
    for (std::uint32_t word : words) write_be32(h, word);
    std::fclose(h);
  };
  write_header("/huge_images.idx", {0x803U, 1, 65535, 65535});
  EXPECT_FALSE(load_idx_images(dir + "/huge_images.idx", images));
  write_header("/huge_labels.idx", {0x801U, 0xFFFFFFFFU});
  EXPECT_FALSE(load_idx_labels(dir + "/huge_labels.idx", labels));
  write_header("/zero_extent.idx", {0x803U, 1, 0, 28});
  EXPECT_FALSE(load_idx_images(dir + "/zero_extent.idx", images));
}

TEST(Idx, MnistLoaderFitsExtentAndFallsBackToSynthetic) {
  const std::string dir = ::testing::TempDir() + "/mnist_idx";
  ASSERT_EQ(std::system(("mkdir -p '" + dir + "'").c_str()), 0);
  write_idx_images(dir + "/train-images-idx3-ubyte", 6, 28);
  write_idx_labels(dir + "/train-labels-idx1-ubyte", {0, 1, 2, 3, 4, 5});
  write_idx_images(dir + "/t10k-images-idx3-ubyte", 4, 28);
  write_idx_labels(dir + "/t10k-labels-idx1-ubyte", {6, 7, 8, 9});

  // Center-crop 28 -> 20 and cap the train split.
  const Dataset real = load_mnist(dir, 20, /*train_count=*/5, /*test_count=*/4);
  EXPECT_EQ(real.name, "MNIST(idx)");
  EXPECT_EQ(real.train_x.shape(), (Shape{5, 20, 20, 1}));
  EXPECT_EQ(real.test_x.shape(), (Shape{4, 20, 20, 1}));
  EXPECT_EQ(real.train_y, (std::vector<std::int64_t>{0, 1, 2, 3, 4}));
  // Crop offset is (28 - 20) / 2 = 4: fitted (0, 0) is source (4, 4) of
  // image 0 -> ((4 * 28 + 4) % 256) / 255.
  EXPECT_FLOAT_EQ(real.train_x.at(0), static_cast<float>((4 * 28 + 4) % 256) / 255.0F);

  // Missing directory: synthetic stand-in of the same geometry.
  const Dataset fallback = load_mnist(::testing::TempDir() + "/no_such_dir", 20, 30, 10);
  EXPECT_EQ(fallback.name, "MNIST(synthetic)");
  EXPECT_EQ(fallback.train_x.shape(), (Shape{30, 20, 20, 1}));
  EXPECT_EQ(fallback.test_x.shape(), (Shape{10, 20, 20, 1}));
}

}  // namespace
}  // namespace redcane::data
