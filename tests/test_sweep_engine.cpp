// Sweep-engine contracts:
//  * parallel + prefix-cached sweeps are bit-identical to the serial
//    full-forward driver, across thread counts;
//  * Step-8 exact and emulated grids match independent references
//    (capsnet::evaluate, EmulatedBackend::run per batch) bitwise;
//  * a cached-prefix replay from any injection site matches a from-scratch
//    noisy forward exactly, for both model architectures;
//  * the engine's exploration-cost counters account for what was skipped.
#include "core/sweep_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <thread>

#include "backend/emulation.hpp"
#include "capsnet/capsnet_model.hpp"
#include "capsnet/deepcaps_model.hpp"
#include "capsnet/trainer.hpp"
#include "core/groups.hpp"
#include "core/resilience.hpp"
#include "data/synthetic.hpp"
#include "obs/metrics.hpp"

namespace redcane::core {
namespace {

using capsnet::OpKind;

capsnet::CapsNetConfig small_capsnet_config() {
  capsnet::CapsNetConfig cfg;
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

capsnet::DeepCapsConfig small_deepcaps_config() {
  capsnet::DeepCapsConfig cfg = capsnet::DeepCapsConfig::tiny();
  cfg.input_hw = 8;
  return cfg;
}

data::Dataset small_dataset(std::int64_t hw, std::int64_t channels, std::int64_t count) {
  data::SyntheticSpec s;
  s.kind = channels == 1 ? data::DatasetKind::kMnist : data::DatasetKind::kCifar10;
  s.hw = hw;
  s.channels = channels;
  s.train_count = 4;  // Unused; the engine only reads the test split.
  s.test_count = count;
  s.seed = 99;
  return data::make_synthetic(s);
}

/// The pre-engine serial driver: one full-network evaluation per point.
double serial_point(capsnet::CapsModel& model, const data::Dataset& ds,
                    const std::vector<noise::InjectionRule>& rules, std::uint64_t seed,
                    std::uint64_t salt, std::int64_t batch) {
  noise::GaussianInjector injector(rules, seed ^ (salt * kSaltMix));
  return capsnet::evaluate(model, ds.test_x, ds.test_y, &injector, batch);
}

ResilienceCurve serial_sweep(capsnet::CapsModel& model, const data::Dataset& ds,
                             const ResilienceConfig& cfg, OpKind kind,
                             const std::optional<std::string>& layer) {
  ResilienceCurve curve;
  curve.kind = kind;
  curve.layer = layer;
  const double base = capsnet::evaluate(model, ds.test_x, ds.test_y, nullptr, cfg.eval_batch);
  std::uint64_t salt = 1;
  for (double nm : cfg.sweep.nms) {
    const noise::NoiseSpec spec{nm, cfg.sweep.na};
    std::vector<noise::InjectionRule> rules;
    if (layer.has_value()) {
      rules.push_back(noise::layer_rule(kind, *layer, spec));
    } else {
      rules.push_back(noise::group_rule(kind, spec));
    }
    const double acc = (nm == 0.0 && cfg.sweep.na == 0.0)
                           ? base
                           : serial_point(model, ds, rules, cfg.seed, salt++, cfg.eval_batch);
    curve.nms.push_back(nm);
    curve.drop_pct.push_back((acc - base) * 100.0);
  }
  return curve;
}

void expect_identical(const ResilienceCurve& a, const ResilienceCurve& b,
                      const std::string& what) {
  ASSERT_EQ(a.drop_pct.size(), b.drop_pct.size()) << what;
  for (std::size_t i = 0; i < a.drop_pct.size(); ++i) {
    EXPECT_EQ(a.drop_pct[i], b.drop_pct[i]) << what << " point " << i;
  }
}

ResilienceConfig quick_config(int threads, bool prefix_cache) {
  ResilienceConfig rc;
  rc.sweep.nms = {0.2, 0.02, 0.0};
  rc.seed = 17;
  rc.eval_batch = 16;
  rc.threads = threads;
  rc.prefix_cache = prefix_cache;
  return rc;
}

TEST(SweepEngine, ParallelCachedSweepsAreBitIdenticalToSerial) {
  Rng rng(5);
  capsnet::CapsNetModel model(small_capsnet_config(), rng);
  const data::Dataset ds = small_dataset(14, 1, 48);

  const int hw_threads =
      std::max(2, static_cast<int>(std::thread::hardware_concurrency()));
  for (const OpKind kind :
       {OpKind::kMacOutput, OpKind::kActivation, OpKind::kSoftmax, OpKind::kLogitsUpdate}) {
    const ResilienceCurve ref =
        serial_sweep(model, ds, quick_config(1, false), kind, std::nullopt);
    for (const int threads : {1, 2, hw_threads}) {
      for (const bool cache : {false, true}) {
        ResilienceAnalyzer analyzer(model, ds.test_x, ds.test_y,
                                    quick_config(threads, cache));
        const ResilienceCurve got = analyzer.sweep_group(kind);
        expect_identical(ref, got,
                         std::string(capsnet::op_kind_name(kind)) + " threads=" +
                             std::to_string(threads) + " cache=" + std::to_string(cache));
      }
    }
  }
}

TEST(SweepEngine, LayerSweepMatchesSerialAcrossThreadCounts) {
  Rng rng(6);
  capsnet::CapsNetModel model(small_capsnet_config(), rng);
  const data::Dataset ds = small_dataset(14, 1, 48);

  for (const std::string& layer : model.layer_names()) {
    const ResilienceCurve ref =
        serial_sweep(model, ds, quick_config(1, false), OpKind::kMacOutput, layer);
    ResilienceAnalyzer analyzer(model, ds.test_x, ds.test_y, quick_config(2, true));
    expect_identical(ref, analyzer.sweep_layer(OpKind::kMacOutput, layer), layer);
  }
}

/// Probes the model like the engine does: first stage emitting each site.
class SiteStageProbe final : public capsnet::PerturbationHook {
 public:
  void process(const std::string& layer, OpKind kind, Tensor&) override {
    for (const auto& [site, stage] : found) {
      if (site.first == layer && site.second == kind) return;
    }
    found.push_back({{layer, kind}, stage_});
  }
  int stage_ = 0;
  std::vector<std::pair<std::pair<std::string, OpKind>, int>> found;
};

void check_prefix_replay_exact(capsnet::CapsModel& model, const Tensor& x) {
  const int stages = model.num_stages();

  capsnet::StageState ckpt;
  ckpt.at.resize(static_cast<std::size_t>(stages) + 1);
  ckpt.at[0] = {x};
  const Tensor clean = model.forward_range(0, stages, ckpt, nullptr, /*record=*/true);

  // The segmented clean forward must match the plain forward bitwise.
  const Tensor clean_ref = model.forward(x, /*train=*/false, nullptr);
  ASSERT_EQ(clean.shape(), clean_ref.shape());
  for (std::int64_t i = 0; i < clean.numel(); ++i) {
    ASSERT_EQ(clean.at(i), clean_ref.at(i)) << "clean forward diverges at " << i;
  }

  SiteStageProbe probe;
  {
    capsnet::StageState st;
    st.at.resize(static_cast<std::size_t>(stages) + 1);
    st.at[0] = {capsnet::slice_rows(x, 0, 1)};
    for (int k = 0; k < stages; ++k) {
      probe.stage_ = k;
      (void)model.forward_range(k, k + 1, st, &probe, /*record=*/true);
    }
  }
  ASSERT_FALSE(probe.found.empty());

  const noise::NoiseSpec spec{0.1, 0.0};
  for (const auto& [site, stage] : probe.found) {
    const std::vector<noise::InjectionRule> rules{
        noise::layer_rule(site.second, site.first, spec)};

    noise::GaussianInjector scratch_injector(rules, 1234);
    const Tensor ref = model.forward(x, /*train=*/false, &scratch_injector);

    noise::GaussianInjector replay_injector(rules, 1234);
    capsnet::StageState st;
    st.at.resize(static_cast<std::size_t>(stages) + 1);
    st.at[static_cast<std::size_t>(stage)] = ckpt.at[static_cast<std::size_t>(stage)];
    const Tensor got = model.forward_range(stage, stages, st, &replay_injector, false);

    ASSERT_EQ(got.shape(), ref.shape());
    for (std::int64_t i = 0; i < got.numel(); ++i) {
      ASSERT_EQ(got.at(i), ref.at(i))
          << site.first << "/" << capsnet::op_kind_name(site.second)
          << " replayed from stage " << stage << " diverges at element " << i;
    }
    EXPECT_GT(replay_injector.injections(), 0)
        << site.first << "/" << capsnet::op_kind_name(site.second);
  }
}

TEST(SweepEngine, CapsNetPrefixReplayMatchesFromScratchAtEverySite) {
  Rng rng(7);
  capsnet::CapsNetModel model(small_capsnet_config(), rng);
  const data::Dataset ds = small_dataset(14, 1, 8);
  check_prefix_replay_exact(model, ds.test_x);
}

TEST(SweepEngine, DeepCapsPrefixReplayMatchesFromScratchAtEverySite) {
  Rng rng(8);
  capsnet::DeepCapsModel model(small_deepcaps_config(), rng);
  const data::Dataset ds = small_dataset(8, 3, 4);
  check_prefix_replay_exact(model, ds.test_x);
}

TEST(SweepEngine, StatsAccountForSkippedStages) {
  Rng rng(9);
  capsnet::CapsNetModel model(small_capsnet_config(), rng);
  const data::Dataset ds = small_dataset(14, 1, 32);

  SweepEngineConfig cfg;
  cfg.seed = 3;
  cfg.eval_batch = 16;
  cfg.threads = 1;
  const obs::Snapshot before = obs::Registry::instance().snapshot();
  SweepEngine engine(model, ds.test_x, ds.test_y, cfg);
  (void)engine.accuracy(attack::AttackSpec::none());

  // Softmax sites live in the routing stage: nearly the whole network is a
  // cached prefix for this rule.
  const std::vector<noise::InjectionRule> rules{
      noise::group_rule(OpKind::kSoftmax, noise::NoiseSpec{0.1, 0.0})};
  (void)engine.evaluate(attack::AttackSpec::none(), {SweepPointSpec{rules, 1}});
  EXPECT_EQ(engine.stats().evaluations, 1);
  EXPECT_EQ(engine.stats().cache_hits, 2);  // Two test batches replayed.
  EXPECT_GT(engine.stats().stages_skipped, 0);
  EXPECT_EQ(engine.stats().stages_total, 2LL * model.num_stages());
  EXPECT_GT(engine.stats().skip_fraction(), 0.5);

  // The process-wide sweep_* totals already hold this engine's counts while
  // it is alive, and the stage law holds over them.
  const obs::Snapshot after = obs::Registry::instance().snapshot();
  const auto delta = [&](const char* name) { return after.counter(name) - before.counter(name); };
  const SweepEngineStats st = engine.stats();
  EXPECT_EQ(delta("sweep_evaluations_total"), st.evaluations);
  EXPECT_EQ(delta("sweep_stage_cache_hits_total"), st.cache_hits);
  EXPECT_EQ(delta("sweep_stages_skipped_total"), st.stages_skipped);
  EXPECT_EQ(delta("sweep_stages_run_total"), st.stages_total - st.stages_skipped);
  EXPECT_EQ(delta("sweep_stages_total"), st.stages_total);
  EXPECT_EQ(delta("sweep_input_sets_total"), st.input_sets);
  EXPECT_EQ(delta("sweep_input_cache_hits_total"), st.input_cache_hits);
  EXPECT_EQ(delta("sweep_input_evictions_total"), st.input_evictions);
  bool law_checked = false;
  for (const obs::CheckResult& c : obs::Registry::instance().run_checks()) {
    if (c.name != "sweep_stage_conservation") continue;
    law_checked = true;
    EXPECT_TRUE(c.ok);
  }
  EXPECT_TRUE(law_checked);

  // MAC outputs start at stage 0: nothing can be skipped.
  SweepEngine engine2(model, ds.test_x, ds.test_y, cfg);
  const std::vector<noise::InjectionRule> mac_rules{
      noise::group_rule(OpKind::kMacOutput, noise::NoiseSpec{0.1, 0.0})};
  (void)engine2.evaluate(attack::AttackSpec::none(), {SweepPointSpec{mac_rules, 1}});
  EXPECT_EQ(engine2.stats().cache_hits, 0);
  EXPECT_EQ(engine2.stats().stages_skipped, 0);
}

/// Perturbs the whole test set in eval_batch chunks — the batch geometry
/// (and therefore attack generation) the engine uses.
Tensor attacked_test_set(capsnet::CapsModel& model, const data::Dataset& ds,
                         const attack::AttackSpec& spec, std::int64_t eval_batch) {
  const std::int64_t n = ds.test_x.shape().dim(0);
  Tensor out(ds.test_x.shape());
  const std::int64_t row = ds.test_x.numel() / n;
  for (std::int64_t at = 0; at < n; at += eval_batch) {
    const std::int64_t end = std::min(n, at + eval_batch);
    const std::vector<std::int64_t> labels(ds.test_y.begin() + at, ds.test_y.begin() + end);
    const Tensor adv =
        attack::apply_attack(model, capsnet::slice_rows(ds.test_x, at, end), labels, spec);
    std::memcpy(out.data().data() + at * row, adv.data().data(),
                static_cast<std::size_t>((end - at) * row) * sizeof(float));
  }
  return out;
}

/// The pre-engine serial Step-8 driver: every grid point regenerates the
/// perturbed set and runs a full evaluation, salts restarting at 1 per
/// severity row in grid order (matching ResilienceAnalyzer::sweep_attack_noise).
RobustnessGrid serial_attacked_grid(capsnet::CapsModel& model, const data::Dataset& ds,
                                    const ResilienceConfig& cfg,
                                    const attack::Scenario& scenario, OpKind group) {
  RobustnessGrid grid;
  grid.scenario = scenario.name();
  grid.backend = "noise";
  grid.nms = cfg.sweep.nms;
  for (double severity : scenario.severities) {
    const attack::AttackSpec spec = scenario.at(severity);
    grid.severities.push_back(severity);
    std::uint64_t salt = 1;
    for (double nm : cfg.sweep.nms) {
      const Tensor adv = attacked_test_set(model, ds, spec, cfg.eval_batch);
      if (nm == 0.0 && cfg.sweep.na == 0.0) {
        grid.accuracy.push_back(
            capsnet::evaluate(model, adv, ds.test_y, nullptr, cfg.eval_batch));
        continue;
      }
      const std::vector<noise::InjectionRule> rules{
          noise::group_rule(group, noise::NoiseSpec{nm, cfg.sweep.na})};
      noise::GaussianInjector injector(rules, cfg.seed ^ (salt++ * kSaltMix));
      grid.accuracy.push_back(
          capsnet::evaluate(model, adv, ds.test_y, &injector, cfg.eval_batch));
    }
  }
  return grid;
}

TEST(SweepEngine, AttackedSweepGridsAreBitIdenticalToSerial) {
  Rng rng(10);
  capsnet::CapsNetModel model(small_capsnet_config(), rng);
  const data::Dataset ds = small_dataset(14, 1, 48);

  attack::Scenario fgsm;
  fgsm.kind = attack::AttackKind::kFgsm;
  fgsm.severities = {0.05, 0.1};
  attack::Scenario rotate;
  rotate.kind = attack::AttackKind::kRotate;
  rotate.severities = {12.0};

  const int hw_threads =
      std::max(2, static_cast<int>(std::thread::hardware_concurrency()));
  for (const attack::Scenario& scenario : {fgsm, rotate}) {
    const RobustnessGrid ref = serial_attacked_grid(model, ds, quick_config(1, false),
                                                    scenario, OpKind::kMacOutput);
    for (const int threads : {1, 2, hw_threads}) {
      for (const bool cache : {false, true}) {
        ResilienceAnalyzer analyzer(model, ds.test_x, ds.test_y,
                                    quick_config(threads, cache));
        const RobustnessGrid got =
            analyzer.sweep_attack_noise(scenario, OpKind::kMacOutput);
        ASSERT_EQ(ref.accuracy.size(), got.accuracy.size());
        for (std::size_t i = 0; i < ref.accuracy.size(); ++i) {
          EXPECT_EQ(ref.accuracy[i], got.accuracy[i])
              << scenario.name() << " threads=" << threads << " cache=" << cache
              << " point " << i;
        }
      }
    }
  }
}

/// Every MAC-output layer of `model` on `component` — built here from the
/// site list, not through the engine's planning.
backend::EmulationPlan component_plan(capsnet::CapsModel& model, const Tensor& probe,
                                      const std::string& component) {
  backend::EmulationPlan plan;
  for (const Site& site : extract_sites(model, probe)) {
    if (site.kind != OpKind::kMacOutput) continue;
    EXPECT_TRUE(plan.set_by_name(site.layer, component, /*adder=*/"", /*bits=*/8));
  }
  return plan;
}

/// Accuracy of `b` run batch by batch (the engine's eval_batch geometry)
/// over `images`.
double backend_reference(capsnet::CapsModel& model, const Tensor& images,
                         const std::vector<std::int64_t>& labels,
                         const backend::ExecBackend& b, std::int64_t eval_batch) {
  const std::int64_t n = images.shape().dim(0);
  std::int64_t hits = 0;
  for (std::int64_t at = 0; at < n; at += eval_batch) {
    const std::int64_t end = std::min(n, at + eval_batch);
    const Tensor v = b.run(model, capsnet::slice_rows(images, at, end), /*salt=*/0);
    hits += capsnet::count_correct(
        v, std::span<const std::int64_t>(labels.data() + at, static_cast<std::size_t>(end - at)));
  }
  return static_cast<double>(hits) / static_cast<double>(n);
}

TEST(SweepEngine, AttackedExactAndEmulatedGridsMatchIndependentReferences) {
  Rng rng(15);
  capsnet::CapsNetModel model(small_capsnet_config(), rng);
  const data::Dataset ds = small_dataset(14, 1, 40);

  attack::Scenario fgsm;
  fgsm.kind = attack::AttackKind::kFgsm;
  fgsm.severities = {0.05, 0.1};
  attack::Scenario rotate;
  rotate.kind = attack::AttackKind::kRotate;
  rotate.severities = {12.0};
  const std::vector<std::string> components = {"axm_exact", "axm_drum4_dm1"};
  const Tensor probe = capsnet::slice_rows(ds.test_x, 0, 1);

  const int hw_threads = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  for (const attack::Scenario& scenario : {fgsm, rotate}) {
    // References: capsnet::evaluate on the attacked test set (exact), and
    // EmulatedBackend::run per batch on it (emulated), row-major.
    const ResilienceConfig cfg = quick_config(1, true);
    std::vector<double> exact_ref, emulated_ref;
    for (double severity : scenario.severities) {
      const Tensor adv = attacked_test_set(model, ds, scenario.at(severity), cfg.eval_batch);
      exact_ref.push_back(capsnet::evaluate(model, adv, ds.test_y, nullptr, cfg.eval_batch));
      for (const std::string& component : components) {
        const backend::EmulatedBackend emulated(component_plan(model, probe, component));
        emulated_ref.push_back(
            backend_reference(model, adv, ds.test_y, emulated, cfg.eval_batch));
      }
    }

    for (const int threads : {1, hw_threads}) {
      ResilienceAnalyzer analyzer(model, ds.test_x, ds.test_y, quick_config(threads, true));
      const RobustnessGrid exact = analyzer.sweep_attack_exact(scenario);
      const RobustnessGrid emulated = analyzer.sweep_attack_emulated(scenario, components);
      EXPECT_EQ(exact.backend, "exact");
      EXPECT_EQ(emulated.backend, "emulated");
      EXPECT_EQ(emulated.components, components);
      ASSERT_EQ(exact.accuracy.size(), exact_ref.size());
      ASSERT_EQ(emulated.accuracy.size(), emulated_ref.size());
      for (std::size_t i = 0; i < exact_ref.size(); ++i) {
        EXPECT_EQ(exact.accuracy[i], exact_ref[i])
            << scenario.name() << " threads=" << threads << " row " << i;
      }
      for (std::size_t i = 0; i < emulated_ref.size(); ++i) {
        EXPECT_EQ(emulated.accuracy[i], emulated_ref[i])
            << scenario.name() << " threads=" << threads << " cell " << i;
      }
    }
  }
}

TEST(SweepEngine, PrefixReplayOnAttackedInputsMatchesFromScratchAtEverySite) {
  Rng rng(11);
  capsnet::CapsNetModel model(small_capsnet_config(), rng);
  const data::Dataset ds = small_dataset(14, 1, 8);

  // Replay exactness must hold on the perturbed eval sets the input-keyed
  // cache records, not just the clean set.
  const std::vector<std::int64_t> labels(ds.test_y.begin(), ds.test_y.end());
  const Tensor adv =
      attack::apply_attack(model, ds.test_x, labels, attack::AttackSpec::fgsm(0.1));
  check_prefix_replay_exact(model, adv);
}

TEST(SweepEngine, InputKeyedCacheReusesPerturbedSetsAcrossGridPoints) {
  Rng rng(12);
  capsnet::CapsNetModel model(small_capsnet_config(), rng);
  const data::Dataset ds = small_dataset(14, 1, 32);

  attack::Scenario fgsm;
  fgsm.kind = attack::AttackKind::kFgsm;
  fgsm.severities = {0.05, 0.1};

  ResilienceAnalyzer analyzer(model, ds.test_x, ds.test_y, quick_config(1, true));
  (void)analyzer.sweep_attack_noise(fgsm, OpKind::kMacOutput);
  const SweepEngineStats& stats = analyzer.engine_stats();
  // One perturbed set per severity row (built by the clean attacked point),
  // then each row's whole noise axis replays it in one evaluate lookup:
  // 2 misses, 2 hits.
  EXPECT_EQ(stats.input_sets, 2);
  EXPECT_EQ(stats.input_cache_hits, 2);
  EXPECT_GT(stats.input_hit_rate(), 0.0);

  // The exact (noise-free) axis over the same scenario is served entirely
  // from the cache: no new sets, one more hit per severity.
  (void)analyzer.sweep_attack_exact(fgsm);
  EXPECT_EQ(analyzer.engine_stats().input_sets, 2);
  EXPECT_EQ(analyzer.engine_stats().input_cache_hits, 4);

  // Identity specs alias the clean base set and never touch the cache.
  SweepEngineConfig ec;
  ec.seed = 17;
  ec.eval_batch = 16;
  ec.threads = 1;
  SweepEngine engine(model, ds.test_x, ds.test_y, ec);
  const double clean = engine.accuracy(attack::AttackSpec::none());
  EXPECT_EQ(engine.accuracy(attack::AttackSpec::rotate(0.0)), clean);
  EXPECT_EQ(engine.stats().input_sets, 0);
  EXPECT_EQ(engine.stats().input_cache_hits, 0);
}

TEST(SweepEngine, InputCacheLruBudgetEvictsAndRebuildsIdentically) {
  Rng rng(13);
  capsnet::CapsNetModel model(small_capsnet_config(), rng);
  const data::Dataset ds = small_dataset(14, 1, 24);

  SweepEngineConfig unbounded;
  unbounded.seed = 17;
  unbounded.eval_batch = 8;
  unbounded.threads = 1;
  SweepEngineConfig bounded = unbounded;
  bounded.input_cache_budget = 1;  // Evict every set the moment it is idle.

  SweepEngine big(model, ds.test_x, ds.test_y, unbounded);
  SweepEngine lru(model, ds.test_x, ds.test_y, bounded);

  const std::vector<attack::AttackSpec> specs = {attack::AttackSpec::fgsm(0.05),
                                                 attack::AttackSpec::fgsm(0.1),
                                                 attack::AttackSpec::fgsm(0.2)};
  // Two rounds: the second revisits every spec, forcing the bounded engine
  // to rebuild evicted sets — bitwise identically (attacks are RNG-free).
  for (int round = 0; round < 2; ++round) {
    for (const attack::AttackSpec& spec : specs) {
      EXPECT_EQ(lru.accuracy(spec), big.accuracy(spec))
          << "round " << round << " severity " << spec.severity;
    }
  }

  EXPECT_EQ(big.stats().input_evictions, 0);
  EXPECT_EQ(big.stats().input_sets, 3);  // Round two fully cached.
  EXPECT_GT(lru.stats().input_evictions, 0);
  EXPECT_GT(lru.stats().input_sets, 3);  // Evicted sets were rebuilt.
  // The budget bounds steady-state memory: at most one idle set survives.
  EXPECT_LT(lru.stats().input_cache_bytes, big.stats().input_cache_bytes);
}

}  // namespace
}  // namespace redcane::core
