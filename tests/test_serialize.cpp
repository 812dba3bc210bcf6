// Checkpoint (de)serialization contracts (src/capsnet/serialize.cpp):
//  * save_params/load_params round-trips every parameter bit-exactly, for
//    both architectures, so a served model computes exactly what the
//    designed model computed;
//  * loading rejects missing, truncated, magic-corrupted, padded and
//    layout-mismatched files instead of silently mangling weights, and a
//    rejected load leaves the target's parameters bitwise unchanged.
#include "capsnet/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "capsnet/capsnet_model.hpp"
#include "capsnet/deepcaps_model.hpp"
#include "capsnet/trainer.hpp"
#include "data/synthetic.hpp"

namespace redcane::capsnet {
namespace {

capsnet::CapsNetConfig small_capsnet_config() {
  CapsNetConfig cfg;
  cfg.input_hw = 14;
  cfg.conv1_kernel = 5;
  cfg.conv1_channels = 8;
  cfg.primary_kernel = 5;
  cfg.primary_stride = 2;
  cfg.primary_types = 2;
  cfg.primary_dim = 4;
  cfg.class_dim = 4;
  return cfg;
}

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

/// Saves `a`, loads into `b` (same architecture, different init), and
/// checks params and a forward pass match bitwise.
void check_round_trip(CapsModel& a, CapsModel& b, const Tensor& probe,
                      const std::string& path) {
  ASSERT_TRUE(save_params(a, path));
  ASSERT_TRUE(load_params(b, path));

  const std::vector<nn::Param*> pa = a.params();
  const std::vector<nn::Param*> pb = b.params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i]->value.shape(), pb[i]->value.shape()) << pa[i]->name;
    ASSERT_EQ(0, std::memcmp(pa[i]->value.data().data(), pb[i]->value.data().data(),
                             static_cast<std::size_t>(pa[i]->value.numel()) *
                                 sizeof(float)))
        << pa[i]->name;
  }

  const Tensor va = a.infer(probe);
  const Tensor vb = b.infer(probe);
  ASSERT_EQ(va.shape(), vb.shape());
  ASSERT_EQ(0, std::memcmp(va.data().data(), vb.data().data(),
                           static_cast<std::size_t>(va.numel()) * sizeof(float)));
}

/// Every parameter float of `model`, in params() order.
std::vector<float> flat_params(CapsModel& model) {
  std::vector<float> out;
  for (nn::Param* p : model.params()) {
    out.insert(out.end(), p->value.data().begin(), p->value.data().end());
  }
  return out;
}

/// A failed load is staged: the target keeps its own parameters bitwise.
void expect_unchanged(CapsModel& model, const std::vector<float>& before) {
  const std::vector<float> after = flat_params(model);
  ASSERT_EQ(after.size(), before.size());
  EXPECT_EQ(0, std::memcmp(after.data(), before.data(), after.size() * sizeof(float)));
}

Tensor probe_for(const CapsModel& model) {
  const Shape in = model.input_shape();
  data::SyntheticSpec s;
  s.kind = in.dim(2) == 1 ? data::DatasetKind::kMnist : data::DatasetKind::kCifar10;
  s.hw = in.dim(0);
  s.channels = in.dim(2);
  s.train_count = 4;
  s.test_count = 4;
  s.seed = 11;
  return data::make_synthetic(s).test_x;
}

TEST(Serialize, CapsNetRoundTripIsBitExact) {
  Rng rng_a(1);
  Rng rng_b(2);  // Different init: loading must overwrite every weight.
  CapsNetModel a(small_capsnet_config(), rng_a);
  CapsNetModel b(small_capsnet_config(), rng_b);
  check_round_trip(a, b, probe_for(a), temp_path("capsnet.rdcn"));
}

TEST(Serialize, DeepCapsRoundTripIsBitExact) {
  DeepCapsConfig cfg = DeepCapsConfig::tiny();
  cfg.input_hw = 8;
  Rng rng_a(3);
  Rng rng_b(4);
  DeepCapsModel a(cfg, rng_a);
  DeepCapsModel b(cfg, rng_b);
  check_round_trip(a, b, probe_for(a), temp_path("deepcaps.rdcn"));
}

TEST(Serialize, LoadRejectsMissingFile) {
  Rng rng(5);
  CapsNetModel model(small_capsnet_config(), rng);
  EXPECT_FALSE(load_params(model, temp_path("does_not_exist.rdcn")));
}

TEST(Serialize, LoadRejectsTruncatedFile) {
  Rng rng(6);
  CapsNetModel model(small_capsnet_config(), rng);
  const std::string path = temp_path("truncated.rdcn");
  ASSERT_TRUE(save_params(model, path));

  // Chop the file mid-parameter-data.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<char> bytes(static_cast<std::size_t>(size));
  ASSERT_EQ(bytes.size(), std::fread(bytes.data(), 1, bytes.size(), f));
  std::fclose(f);
  f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(bytes.size() / 2, std::fwrite(bytes.data(), 1, bytes.size() / 2, f));
  std::fclose(f);

  EXPECT_FALSE(load_params(model, path));

  Rng rng_target(16);  // Different init: a partial read would show.
  CapsNetModel target(small_capsnet_config(), rng_target);
  const std::vector<float> before = flat_params(target);
  EXPECT_FALSE(load_params(target, path));
  expect_unchanged(target, before);
}

TEST(Serialize, LoadRejectsCorruptedMagic) {
  Rng rng(7);
  CapsNetModel model(small_capsnet_config(), rng);
  const std::string path = temp_path("badmagic.rdcn");
  ASSERT_TRUE(save_params(model, path));
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(1U, std::fwrite("X", 1, 1, f));  // First magic byte.
  std::fclose(f);
  EXPECT_FALSE(load_params(model, path));
}

TEST(Serialize, LoadRejectsSingleByteFlipInWeightData) {
  Rng rng(9);
  CapsNetModel model(small_capsnet_config(), rng);
  const std::string path = temp_path("bitflip.rdcn");
  ASSERT_TRUE(save_params(model, path));

  // Flip one bit deep inside the weight payload: names, shapes and counts
  // all still parse, so only the trailing checksum can catch it.
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(0, std::fseek(f, 0, SEEK_END));
  const long size = std::ftell(f);
  ASSERT_GT(size, 64);
  ASSERT_EQ(0, std::fseek(f, size / 2, SEEK_SET));
  const int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(0, std::fseek(f, size / 2, SEEK_SET));
  ASSERT_NE(EOF, std::fputc(c ^ 0x10, f));
  std::fclose(f);

  Rng rng_target(10);
  CapsNetModel target(small_capsnet_config(), rng_target);
  const std::vector<float> before = flat_params(target);
  EXPECT_FALSE(load_params(target, path));
  expect_unchanged(target, before);
}

TEST(Serialize, LoadRejectsLayoutMismatch) {
  Rng rng(8);
  CapsNetModel small(small_capsnet_config(), rng);
  const std::string path = temp_path("mismatch.rdcn");
  ASSERT_TRUE(save_params(small, path));

  // Same architecture family, different widths: element counts differ.
  CapsNetConfig wider = small_capsnet_config();
  wider.conv1_channels = 16;
  Rng rng2(9);
  CapsNetModel other(wider, rng2);
  EXPECT_FALSE(load_params(other, path));

  // Different architecture: parameter count differs.
  DeepCapsConfig dc = DeepCapsConfig::tiny();
  dc.input_hw = 8;
  Rng rng3(10);
  DeepCapsModel deep(dc, rng3);
  EXPECT_FALSE(load_params(deep, path));
}

TEST(Serialize, LoadRejectsTrailingBytes) {
  Rng rng(11);
  CapsNetModel model(small_capsnet_config(), rng);
  const std::string path = temp_path("trailing.rdcn");
  ASSERT_TRUE(save_params(model, path));
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(1U, std::fwrite("X", 1, 1, f));
  std::fclose(f);

  Rng rng_target(12);
  CapsNetModel target(small_capsnet_config(), rng_target);
  const std::vector<float> before = flat_params(target);
  EXPECT_FALSE(load_params(target, path));
  expect_unchanged(target, before);
}

TEST(Serialize, CheckpointSizeIsTheLayoutFormula) {
  Rng rng(13);
  CapsNetModel model(small_capsnet_config(), rng);
  const std::string path = temp_path("size.rdcn");
  ASSERT_TRUE(save_params(model, path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(0, std::fseek(f, 0, SEEK_END));
  const long size = std::ftell(f);
  std::fclose(f);
  ParamLayout layout;
  for (nn::Param* p : model.params()) {
    ++layout.tensors;
    layout.floats += p->value.numel();
  }
  EXPECT_EQ(static_cast<std::uint64_t>(size), checkpoint_bytes(layout));
  EXPECT_EQ(checkpoint_bytes(layout), 16 + 8 * 5 + 4 * static_cast<std::uint64_t>(layout.floats));
}

}  // namespace
}  // namespace redcane::capsnet
