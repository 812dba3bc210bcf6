// Attack-stack contracts (Step 8):
//  * the gradient FGSM/PGD ascend is the true loss gradient — checked
//    against central finite differences on a tiny model;
//  * PGD iterates stay inside the L-inf epsilon ball and the clip range;
//  * attack generation is deterministic: bitwise-identical perturbed
//    batches across repeated runs and across compute-pool sizes;
//  * the affine warp is a bitwise no-op at identity, inverse-composes
//    within bilinear-resampling tolerance, and reads nothing when every
//    sample lands far outside the image;
//  * the spec grammar parses canonically and rejects malformed input.
#include "attack/attack.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "capsnet/capsnet_model.hpp"
#include "capsnet/trainer.hpp"
#include "data/synthetic.hpp"
#include "nn/loss.hpp"
#include "util/pool.hpp"

namespace redcane::attack {
namespace {

capsnet::CapsNetConfig tiny_config() {
  capsnet::CapsNetConfig cfg;
  cfg.input_hw = 12;
  cfg.conv1_kernel = 5;
  cfg.conv1_channels = 6;
  cfg.primary_kernel = 3;
  cfg.primary_stride = 2;
  cfg.primary_types = 2;
  cfg.primary_dim = 4;
  cfg.class_dim = 4;
  return cfg;
}

data::Dataset tiny_dataset(std::int64_t count) {
  data::SyntheticSpec s;
  s.kind = data::DatasetKind::kMnist;
  s.hw = 12;
  s.channels = 1;
  s.train_count = 4;
  s.test_count = count;
  s.seed = 31;
  return data::make_synthetic(s);
}

/// The scalar loss the gradient attacks ascend, recomputed independently.
double loss_at(capsnet::CapsModel& model, const Tensor& x,
               const std::vector<std::int64_t>& labels) {
  const Tensor v = model.forward(x, /*train=*/true, nullptr);
  const Tensor lengths = capsnet::CapsModel::class_lengths(v);
  return nn::margin_loss(lengths, labels, {}).loss;
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b, const std::string& what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  ASSERT_EQ(0, std::memcmp(a.data().data(), b.data().data(),
                           static_cast<std::size_t>(a.numel()) * sizeof(float)))
      << what;
}

TEST(Attack, LossInputGradMatchesFiniteDifferences) {
  Rng rng(21);
  capsnet::CapsNetModel model(tiny_config(), rng);
  const data::Dataset ds = tiny_dataset(2);
  const std::vector<std::int64_t> labels(ds.test_y.begin(), ds.test_y.end());

  const Tensor grad = loss_input_grad(model, ds.test_x, labels, {});
  ASSERT_EQ(grad.shape(), ds.test_x.shape());

  // routing_backward treats coupling coefficients as constants
  // (straight-through routing), so analytic magnitudes differ from full
  // finite differences by a smooth systematic factor. The attack contract
  // is the ascent DIRECTION: signs must agree and magnitudes must stay
  // within the same order wherever the FD signal is well above float noise.
  const double h = 1e-3;
  int checked = 0;
  int out_of_band = 0;
  // Every 3rd element keeps the oracle cheap while covering both images.
  for (std::int64_t i = 0; i < ds.test_x.numel(); i += 3) {
    Tensor xp = ds.test_x;
    Tensor xm = ds.test_x;
    xp.at(i) += static_cast<float>(h);
    xm.at(i) -= static_cast<float>(h);
    const double fd = (loss_at(model, xp, labels) - loss_at(model, xm, labels)) / (2.0 * h);
    if (std::abs(fd) < 1e-3) continue;  // Below float-forward noise.
    ++checked;
    const double g = grad.at(i);
    EXPECT_GT(fd * g, 0.0)
        << "gradient sign disagrees with finite differences at element " << i;
    // Same-order band; local cancellation under straight-through routing
    // may push a rare element out, so the band is enforced statistically.
    if (std::abs(g) < std::abs(fd) * 0.2 || std::abs(g) > std::abs(fd) * 5.0) {
      ++out_of_band;
    }
  }
  EXPECT_GT(checked, 10) << "finite-difference oracle checked too few elements";
  EXPECT_LE(out_of_band, checked / 20)
      << out_of_band << " of " << checked
      << " gradient magnitudes fell outside [0.2, 5]x finite differences";

  // The direction contract end to end: an FGSM-sized step along the
  // analytic gradient must increase the loss.
  Tensor ascended = ds.test_x;
  for (std::int64_t i = 0; i < ascended.numel(); ++i) {
    const float g = grad.at(i);
    ascended.at(i) += 0.01F * static_cast<float>((g > 0.0F) - (g < 0.0F));
  }
  EXPECT_GT(loss_at(model, ascended, labels), loss_at(model, ds.test_x, labels));
}

TEST(Attack, FgsmTakesOneSignedClampedStep) {
  Rng rng(22);
  capsnet::CapsNetModel model(tiny_config(), rng);
  const data::Dataset ds = tiny_dataset(4);
  const std::vector<std::int64_t> labels(ds.test_y.begin(), ds.test_y.end());

  const double eps = 0.05;
  const Tensor grad = loss_input_grad(model, ds.test_x, labels, {});
  const Tensor adv = apply_attack(model, ds.test_x, labels, AttackSpec::fgsm(eps));

  std::int64_t moved = 0;
  for (std::int64_t i = 0; i < adv.numel(); ++i) {
    const float g = grad.at(i);
    const float expected = std::clamp(
        ds.test_x.at(i) + static_cast<float>(eps) *
                              static_cast<float>((g > 0.0F) - (g < 0.0F)),
        0.0F, 1.0F);
    ASSERT_EQ(adv.at(i), expected) << "element " << i;
    if (adv.at(i) != ds.test_x.at(i)) ++moved;
  }
  EXPECT_GT(moved, adv.numel() / 2) << "FGSM moved almost nothing";
}

TEST(Attack, PgdStaysInsideEpsilonBallAndClipRange) {
  Rng rng(23);
  capsnet::CapsNetModel model(tiny_config(), rng);
  const data::Dataset ds = tiny_dataset(4);
  const std::vector<std::int64_t> labels(ds.test_y.begin(), ds.test_y.end());

  const float eps = 0.08F;
  const Tensor adv =
      apply_attack(model, ds.test_x, labels, AttackSpec::pgd(eps, /*steps=*/5));

  // x + eps rounds in float, so the recovered deviation can differ from
  // eps by one ulp of the pixel value.
  const float slack = eps * 1e-5F;
  float max_dev = 0.0F;
  for (std::int64_t i = 0; i < adv.numel(); ++i) {
    const float dev = std::abs(adv.at(i) - ds.test_x.at(i));
    ASSERT_LE(dev, eps + slack) << "left the L-inf ball at element " << i;
    ASSERT_GE(adv.at(i), 0.0F);
    ASSERT_LE(adv.at(i), 1.0F);
    max_dev = std::max(max_dev, dev);
  }
  // The projection must actually bind somewhere: 5 steps of 2.5*eps/5
  // overshoot the ball without it.
  EXPECT_NEAR(max_dev, eps, slack);
}

TEST(Attack, GenerationIsBitwiseDeterministicAcrossRunsAndThreadCounts) {
  Rng rng(24);
  capsnet::CapsNetModel model(tiny_config(), rng);
  const data::Dataset ds = tiny_dataset(6);
  const std::vector<std::int64_t> labels(ds.test_y.begin(), ds.test_y.end());

  for (const AttackSpec& spec :
       {AttackSpec::fgsm(0.05), AttackSpec::pgd(0.05, 3), AttackSpec::rotate(12.0)}) {
    const Tensor first = apply_attack(model, ds.test_x, labels, spec);
    const Tensor again = apply_attack(model, ds.test_x, labels, spec);
    expect_bitwise_equal(first, again, spec.key() + " repeat");

    const int saved = pool::threads();
    for (const int threads : {1, 2, 4}) {
      pool::set_threads(threads);
      const Tensor t = apply_attack(model, ds.test_x, labels, spec);
      expect_bitwise_equal(first, t, spec.key() + " threads=" + std::to_string(threads));
    }
    pool::set_threads(saved);
  }
}

TEST(Attack, AffineIdentityIsABitwiseNoOp) {
  const data::Dataset ds = tiny_dataset(3);

  expect_bitwise_equal(ds.test_x, affine_warp(ds.test_x, AffineParams{}), "identity warp");

  // Every scenario axis at its identity severity must also be a no-op
  // (scale severity is the zoom delta: 0 => factor 1).
  Rng rng(25);
  capsnet::CapsNetModel model(tiny_config(), rng);
  const std::vector<std::int64_t> labels(ds.test_y.begin(), ds.test_y.end());
  for (const AttackKind kind :
       {AttackKind::kRotate, AttackKind::kTranslate, AttackKind::kScale}) {
    Scenario scenario;
    scenario.kind = kind;
    const AttackSpec spec = scenario.at(0.0);
    EXPECT_TRUE(spec.is_identity()) << attack_kind_name(kind);
    expect_bitwise_equal(ds.test_x, apply_attack(model, ds.test_x, labels, spec),
                         std::string(attack_kind_name(kind)) + " severity 0");
  }
}

TEST(Attack, AffineInverseCompositionRoundTrips) {
  // Smooth analytic image: bilinear resampling error stays small, so
  // warp(warp(x, p), p.inverse()) must recover interior pixels closely.
  const std::int64_t hw = 24;
  Tensor x(Shape{1, hw, hw, 1});
  for (std::int64_t r = 0; r < hw; ++r) {
    for (std::int64_t c = 0; c < hw; ++c) {
      const double fr = static_cast<double>(r) / static_cast<double>(hw - 1);
      const double fc = static_cast<double>(c) / static_cast<double>(hw - 1);
      x(0, r, c, 0) = static_cast<float>(0.5 + 0.4 * std::sin(fr * 3.14159) *
                                                   std::cos(fc * 3.14159));
    }
  }

  AffineParams p;
  p.angle_deg = 20.0;
  p.scale = 1.1;
  p.dx = 1.5;
  p.dy = -1.0;
  const Tensor round_trip = affine_warp(affine_warp(x, p), p.inverse());

  const std::int64_t margin = 6;  // Border pixels may have sampled outside.
  for (std::int64_t r = margin; r < hw - margin; ++r) {
    for (std::int64_t c = margin; c < hw - margin; ++c) {
      EXPECT_NEAR(round_trip(0, r, c, 0), x(0, r, c, 0), 0.05)
          << "round trip diverges at (" << r << ", " << c << ")";
    }
  }
}

TEST(Attack, AffineWarpFarOutsideTheImageReadsNothing) {
  // Finite specs the grammar accepts that sample only far outside the
  // image: every output pixel is 0, and no sample coordinate is cast out
  // of range (the ASan+UBSan build aborts on such a cast).
  const data::Dataset ds = tiny_dataset(2);
  Rng rng(26);
  capsnet::CapsNetModel model(tiny_config(), rng);
  const std::vector<std::int64_t> labels(ds.test_y.begin(), ds.test_y.end());
  for (const char* text : {"translate:px=1e300", "translate:px=-1e300", "scale:factor=1e-320"}) {
    AttackSpec spec;
    std::string error;
    ASSERT_TRUE(parse_attack_spec(text, &spec, &error)) << text << ": " << error;
    const Tensor out = apply_attack(model, ds.test_x, labels, spec);
    for (const float v : out.data()) ASSERT_EQ(v, 0.0f) << text;
  }
}

TEST(Attack, SpecParserAcceptsGrammarAndRejectsMalformedInput) {
  AttackSpec spec;
  std::string error;

  ASSERT_TRUE(parse_attack_spec("none", &spec, &error));
  EXPECT_TRUE(spec.is_identity());

  ASSERT_TRUE(parse_attack_spec("fgsm:eps=0.1", &spec, &error));
  EXPECT_EQ(spec.kind, AttackKind::kFgsm);
  EXPECT_DOUBLE_EQ(spec.epsilon, 0.1);

  ASSERT_TRUE(parse_attack_spec("pgd:eps=0.1,steps=5,step=0.02", &spec, &error));
  EXPECT_EQ(spec.kind, AttackKind::kPgd);
  EXPECT_EQ(spec.steps, 5);
  EXPECT_DOUBLE_EQ(spec.resolved_step(), 0.02);

  ASSERT_TRUE(parse_attack_spec("pgd:eps=0.1", &spec, &error));
  EXPECT_DOUBLE_EQ(spec.resolved_step(), 2.5 * 0.1 / 10.0);  // Default rule.

  ASSERT_TRUE(parse_attack_spec("rotate:deg=15", &spec, &error));
  EXPECT_DOUBLE_EQ(spec.severity, 15.0);
  ASSERT_TRUE(parse_attack_spec("translate:px=2", &spec, &error));
  ASSERT_TRUE(parse_attack_spec("scale:factor=1.2", &spec, &error));
  ASSERT_TRUE(parse_attack_spec("pgd:eps=1e-1,steps=2147483647,step=.5", &spec, &error));
  EXPECT_EQ(spec.steps, 2147483647);

  for (const char* bad :
       {"", "fgsm", "fgsm:", "fgsm:eps=abc", "fgsm:eps=0", "fgsm:eps=-1",
        "fgsm:eps=0.1,bogus=2", "warp:deg=5", "pgd:eps=0.1,steps=0",
        "pgd:eps=0.1,steps=1.5", "rotate:deg=1deg", "scale:factor=0", "none:x=1",
        "translate:=2", "rotate:deg", "pgd:eps=0.1,steps=1e12", "fgsm:eps=nan",
        // util/parse's rules: whole tokens (no '+', whitespace or hex), finite
        // values, an exact integer `steps`, no empty items.
        "pgd:eps=0.1,steps=5.0", "pgd:eps=0.1,steps=+5", "fgsm:eps=+0.1", "fgsm:eps= 0.1",
        "fgsm:eps=0.1 ", "fgsm:eps=0x1p-3", "fgsm:eps=0.1,", "fgsm:,eps=0.1", "fgsm:eps=1e400",
        "rotate:deg=inf", "pgd:eps=0.1,steps=2147483648"}) {
    error.clear();
    EXPECT_FALSE(parse_attack_spec(bad, &spec, &error)) << "accepted '" << bad << "'";
    EXPECT_FALSE(error.empty()) << "no error message for '" << bad << "'";
  }
}

TEST(Attack, CanonicalKeysDistinguishSpecs) {
  EXPECT_EQ(AttackSpec::none().key(), "none");
  EXPECT_EQ(AttackSpec::fgsm(0.1).key(), AttackSpec::fgsm(0.1).key());
  EXPECT_NE(AttackSpec::fgsm(0.1).key(), AttackSpec::fgsm(0.2).key());
  EXPECT_NE(AttackSpec::fgsm(0.1).key(), AttackSpec::pgd(0.1).key());
  EXPECT_NE(AttackSpec::pgd(0.1, 5).key(), AttackSpec::pgd(0.1, 7).key());
  EXPECT_NE(AttackSpec::rotate(5.0).key(), AttackSpec::scale(5.0).key());
}

}  // namespace
}  // namespace redcane::attack
