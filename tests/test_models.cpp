#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <set>

#include "capsnet/capsnet_model.hpp"
#include "capsnet/deepcaps_model.hpp"
#include "capsnet/serialize.hpp"
#include "core/groups.hpp"
#include "noise/injector.hpp"
#include "tensor/ops.hpp"
#include "util/pool.hpp"

namespace redcane::capsnet {
namespace {

TEST(CapsNetModel, TinyForwardShape) {
  Rng rng(1);
  CapsNetModel model(CapsNetConfig::tiny(), rng);
  Rng drng(2);
  const Tensor x = ops::uniform(Shape{2, 28, 28, 1}, 0.0, 1.0, drng);
  const Tensor v = model.forward(x, false, nullptr);
  EXPECT_EQ(v.shape(), (Shape{2, 10, 8}));
  EXPECT_EQ(model.num_classes(), 10);
  EXPECT_EQ(model.input_shape(), (Shape{28, 28, 1}));
}

TEST(CapsNetModel, PaperConfigMatchesPublication) {
  const CapsNetConfig cfg = CapsNetConfig::paper();
  EXPECT_EQ(cfg.conv1_channels, 256);
  EXPECT_EQ(cfg.primary_types, 32);
  EXPECT_EQ(cfg.primary_dim, 8);
  EXPECT_EQ(cfg.class_dim, 16);
  EXPECT_EQ(cfg.routing_iters, 3);
}

TEST(CapsNetModel, LayerNames) {
  Rng rng(3);
  CapsNetModel model(CapsNetConfig::tiny(), rng);
  const auto names = model.layer_names();
  ASSERT_EQ(names.size(), 3U);
  EXPECT_EQ(names[0], "Conv1");
  EXPECT_EQ(names[2], "ClassCaps");
}

TEST(CapsNetModel, DeterministicForward) {
  Rng rng_a(7);
  Rng rng_b(7);
  CapsNetModel a(CapsNetConfig::tiny(), rng_a);
  CapsNetModel b(CapsNetConfig::tiny(), rng_b);
  Rng drng(4);
  const Tensor x = ops::uniform(Shape{1, 28, 28, 1}, 0.0, 1.0, drng);
  const Tensor va = a.forward(x, false, nullptr);
  const Tensor vb = b.forward(x, false, nullptr);
  for (std::int64_t i = 0; i < va.numel(); ++i) EXPECT_EQ(va.at(i), vb.at(i));
}

TEST(DeepCapsModel, TinyForwardShape) {
  Rng rng(5);
  DeepCapsModel model(DeepCapsConfig::tiny(), rng);
  Rng drng(6);
  const Tensor x = ops::uniform(Shape{2, 16, 16, 3}, 0.0, 1.0, drng);
  const Tensor v = model.forward(x, false, nullptr);
  EXPECT_EQ(v.shape(), (Shape{2, 10, 8}));
}

TEST(DeepCapsModel, Has18NamedLayers) {
  Rng rng(7);
  DeepCapsModel model(DeepCapsConfig::tiny(), rng);
  const auto names = model.layer_names();
  ASSERT_EQ(names.size(), 18U);
  EXPECT_EQ(names.front(), "Conv2D");
  EXPECT_EQ(names[1], "Caps2D1");
  EXPECT_EQ(names[15], "Caps2D15");
  EXPECT_EQ(names[16], "Caps3D");
  EXPECT_EQ(names.back(), "ClassCaps");
  const std::set<std::string> unique(names.begin(), names.end());
  EXPECT_EQ(unique.size(), names.size());
}

TEST(DeepCapsModel, PaperConfigMatchesPublication) {
  const DeepCapsConfig cfg = DeepCapsConfig::paper();
  EXPECT_EQ(cfg.input_hw, 32);
  EXPECT_EQ(cfg.types, 32);
  EXPECT_EQ(cfg.dim_block1, 4);
  EXPECT_EQ(cfg.dim_rest, 8);
  EXPECT_EQ(cfg.class_dim, 16);
}

TEST(DeepCapsModel, BackwardProducesInputGradient) {
  Rng rng(8);
  DeepCapsModel model(DeepCapsConfig::tiny(), rng);
  Rng drng(9);
  // Batch > 1: batch normalization over a single sample at the final 1x1
  // spatial extent would normalize the activations away.
  const Tensor x = ops::uniform(Shape{4, 16, 16, 3}, 0.0, 1.0, drng);
  const Tensor v = model.forward(x, true, nullptr);
  const Tensor g = model.backward(v);
  EXPECT_EQ(g.shape(), x.shape());
  // Gradients reach the parameters (at least most of them are non-zero).
  int nonzero_params = 0;
  for (nn::Param* p : model.params()) {
    for (float gv : p->grad.data()) {
      if (gv != 0.0F) {
        ++nonzero_params;
        break;
      }
    }
  }
  EXPECT_GT(nonzero_params, static_cast<int>(model.params().size() / 2));
}

TEST(Serialize, RoundTripRestoresOutputs) {
  Rng rng_a(10);
  CapsNetModel a(CapsNetConfig::tiny(), rng_a);
  Rng drng(11);
  const Tensor x = ops::uniform(Shape{1, 28, 28, 1}, 0.0, 1.0, drng);
  const Tensor va = a.forward(x, false, nullptr);

  const std::string path = ::testing::TempDir() + "/redcane_params.bin";
  ASSERT_TRUE(save_params(a, path));

  Rng rng_b(999);  // Different init.
  CapsNetModel b(CapsNetConfig::tiny(), rng_b);
  ASSERT_TRUE(load_params(b, path));
  const Tensor vb = b.forward(x, false, nullptr);
  for (std::int64_t i = 0; i < va.numel(); ++i) EXPECT_EQ(va.at(i), vb.at(i));
}

TEST(Serialize, RejectsMismatchedModel) {
  Rng rng(12);
  CapsNetModel small(CapsNetConfig::tiny(), rng);
  const std::string path = ::testing::TempDir() + "/redcane_mismatch.bin";
  ASSERT_TRUE(save_params(small, path));
  Rng rng2(13);
  DeepCapsModel other(DeepCapsConfig::tiny(), rng2);
  EXPECT_FALSE(load_params(other, path));
}

TEST(Serialize, MissingFileFailsCleanly) {
  Rng rng(14);
  CapsNetModel m(CapsNetConfig::tiny(), rng);
  EXPECT_FALSE(load_params(m, "/nonexistent/path/params.bin"));
}

/// The footprint a built model actually has.
ParamLayout built_layout(CapsModel& model) {
  ParamLayout l;
  for (nn::Param* p : model.params()) {
    ++l.tensors;
    l.floats += p->value.numel();
  }
  return l;
}

// The config walk a manifest is checked with before its model is built
// must agree with the model that build would allocate.
TEST(ParamLayout, ConfigWalkMatchesBuiltModels) {
  for (const bool paper : {false, true}) {
    for (const std::int64_t hw : {17, 20, 28, 33}) {
      CapsNetConfig cfg = paper ? CapsNetConfig::paper() : CapsNetConfig::tiny();
      cfg.input_hw = hw;
      Rng rng(15);
      CapsNetModel model(cfg, rng);
      const std::optional<ParamLayout> walked = cfg.param_layout();
      ASSERT_TRUE(walked.has_value()) << "CapsNet hw " << hw;
      const ParamLayout built = built_layout(model);
      EXPECT_EQ(walked->tensors, built.tensors) << "CapsNet paper=" << paper << " hw " << hw;
      EXPECT_EQ(walked->floats, built.floats) << "CapsNet paper=" << paper << " hw " << hw;
    }
    for (const std::int64_t hw : {1, 8, 16, 33}) {
      DeepCapsConfig cfg = paper ? DeepCapsConfig::paper() : DeepCapsConfig::tiny();
      cfg.input_hw = hw;
      Rng rng(16);
      DeepCapsModel model(cfg, rng);
      const std::optional<ParamLayout> walked = cfg.param_layout();
      ASSERT_TRUE(walked.has_value()) << "DeepCaps hw " << hw;
      const ParamLayout built = built_layout(model);
      EXPECT_EQ(walked->tensors, built.tensors) << "DeepCaps paper=" << paper << " hw " << hw;
      EXPECT_EQ(walked->floats, built.floats) << "DeepCaps paper=" << paper << " hw " << hw;
    }
  }
}

TEST(ParamLayout, EmptyLayerOutputHasNoLayout) {
  CapsNetConfig capsnet = CapsNetConfig::tiny();
  for (const std::int64_t hw : {0, 8, 12, 14, 16}) {  // 9x9 conv, then 9x9/2 primary.
    capsnet.input_hw = hw;
    EXPECT_FALSE(capsnet.param_layout().has_value()) << "CapsNet hw " << hw;
  }
  DeepCapsConfig deepcaps = DeepCapsConfig::tiny();
  deepcaps.input_hw = 0;
  EXPECT_FALSE(deepcaps.param_layout().has_value());
}

/// Each argument forward_range must reject, and the message it aborts with.
void expect_forward_range_checks(CapsModel& model, const Tensor& x) {
  // Earlier tests started compute-pool threads: re-execute instead of forking.
#ifdef GTEST_FLAG_SET
  GTEST_FLAG_SET(death_test_style, "threadsafe");
#else
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
#endif
  const int stages = model.num_stages();
  StageState state;
  state.at.resize(static_cast<std::size_t>(stages) + 1);
  state.at[0] = {x};
  EXPECT_DEATH((void)model.forward_range(-1, stages, state, nullptr, false), "first < 0");
  EXPECT_DEATH((void)model.forward_range(2, 1, state, nullptr, false), "first > last");
  EXPECT_DEATH((void)model.forward_range(0, stages + 1, state, nullptr, /*record=*/true),
               "last > num_stages\\(\\)");
  EXPECT_DEATH((void)model.forward_range(1, stages, state, nullptr, false),
               "empty entry boundary");
  StageState short_state;
  short_state.at.resize(static_cast<std::size_t>(stages));
  short_state.at[0] = {x};
  EXPECT_DEATH((void)model.forward_range(0, 1, short_state, nullptr, /*record=*/true),
               "state.at.size\\(\\) != num_stages\\(\\) \\+ 1");
  // The same range over a well-formed state runs.
  EXPECT_EQ(model.forward_range(0, stages, state, nullptr, false).shape().dim(0),
            x.shape().dim(0));
}

TEST(CapsNetModel, ForwardRangeAbortsOnBadArguments) {
  Rng rng(17);
  CapsNetModel model(CapsNetConfig::tiny(), rng);
  expect_forward_range_checks(model, ops::uniform(Shape{1, 28, 28, 1}, 0.0, 1.0, rng));
}

TEST(DeepCapsModel, ForwardRangeAbortsOnBadArguments) {
  Rng rng(18);
  DeepCapsModel model(DeepCapsConfig::tiny(), rng);
  expect_forward_range_checks(model, ops::uniform(Shape{1, 16, 16, 3}, 0.0, 1.0, rng));
}

/// FNV-1a over the bit patterns of `t`'s floats, continuing from `h`.
std::uint64_t fnv1a_floats(std::uint64_t h, const Tensor& t) {
  for (const float v : t.data()) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int byte = 0; byte < 4; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xFFU;
      h *= 0x100000001B3ULL;
    }
  }
  return h;
}

/// Inference of `x`, then a noisy replay from every clean stage boundary
/// with all four Table III groups injected.
std::uint64_t infer_and_replay_digest(std::uint64_t h, CapsModel& model, const Tensor& x) {
  h = fnv1a_floats(h, model.infer(x));
  const int stages = model.num_stages();
  StageState clean;
  clean.at.resize(static_cast<std::size_t>(stages) + 1);
  clean.at[0] = {x};
  h = fnv1a_floats(h, model.forward_range(0, stages, clean, nullptr, /*record=*/true));
  std::vector<noise::InjectionRule> rules;
  for (const OpKind kind : core::all_groups()) {
    rules.push_back(noise::group_rule(kind, noise::NoiseSpec{0.05, 0.01}));
  }
  for (int k = 0; k < stages; ++k) {
    noise::GaussianInjector injector(rules, 77 + static_cast<std::uint64_t>(k));
    StageState st;
    st.at.resize(static_cast<std::size_t>(stages) + 1);
    st.at[static_cast<std::size_t>(k)] = clean.at[static_cast<std::size_t>(k)];
    h = fnv1a_floats(h, model.forward_range(k, stages, st, &injector, /*record=*/false));
  }
  return h;
}

/// One train-mode forward and backward: the input gradient and every
/// parameter gradient.
std::uint64_t train_step_digest(std::uint64_t h, CapsModel& model, const Tensor& x) {
  const Tensor v = model.forward(x, /*train=*/true, nullptr);
  h = fnv1a_floats(h, v);
  h = fnv1a_floats(h, model.backward(v));
  for (nn::Param* p : model.params()) h = fnv1a_floats(h, p->grad);
  return h;
}

std::uint64_t forward_digest() {
  Rng rng(2025);
  CapsNetModel capsnet(CapsNetConfig::tiny(), rng);
  DeepCapsModel deepcaps(DeepCapsConfig::tiny(), rng);
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const std::int64_t batch : {1, 16}) {
    h = infer_and_replay_digest(h, capsnet, ops::uniform(Shape{batch, 28, 28, 1}, 0.0, 1.0, rng));
  }
  h = infer_and_replay_digest(h, deepcaps, ops::uniform(Shape{4, 16, 16, 3}, 0.0, 1.0, rng));
  h = train_step_digest(h, capsnet, ops::uniform(Shape{4, 28, 28, 1}, 0.0, 1.0, rng));
  h = train_step_digest(h, deepcaps, ops::uniform(Shape{4, 16, 16, 3}, 0.0, 1.0, rng));
  return h;
}

// Every float both models compute, pinned by value: inference at CapsNet
// b1/b16 and DeepCaps b4, a noisy replay from each clean stage boundary,
// and one train-mode forward + backward per model. Recorded before the
// two models' stages were merged into one driver; any change to how
// stages are run or handed off must leave it unchanged.
TEST(Models, PinnedForwardDigest) {
  const int saved = pool::threads();
  for (const int threads : {1, 4}) {
    pool::set_threads(threads);
    EXPECT_EQ(forward_digest(), 0xE49E3276C10FBF39ULL) << "pool size " << threads;
  }
  pool::set_threads(saved);
}

}  // namespace
}  // namespace redcane::capsnet
