// Serving-runtime contracts (src/serve/):
//  * served predictions are bit-identical across worker counts, for the
//    exact, the designed AND the emulated variant (same discipline as
//    test_sweep_engine: batch composition is arrival-order-determined,
//    noise streams are keyed by batch content, and the emulated backend is
//    RNG-free — never by scheduling);
//  * the micro-batcher coalesces only same-variant runs, bounded by
//    max_batch, in FIFO order;
//  * the deployment manifest round-trips through its text format and
//    rejects malformed input;
//  * the registry arms the designed variant with exactly the manifest's
//    non-exact sites and ModelRegistry::open serves a saved design;
//  * eval forwards mutate no model state (const-forward audit).
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include "serve/attack_eval.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "capsnet/capsnet_model.hpp"
#include "capsnet/deepcaps_model.hpp"
#include "capsnet/serialize.hpp"
#include "capsnet/trainer.hpp"
#include "core/groups.hpp"
#include "core/manifest.hpp"
#include "data/synthetic.hpp"

namespace redcane::serve {
namespace {

capsnet::CapsNetConfig small_config() {
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

data::Dataset small_dataset(std::int64_t count) {
  data::SyntheticSpec s;
  s.kind = data::DatasetKind::kMnist;
  s.hw = 14;
  s.channels = 1;
  s.train_count = 4;
  s.test_count = count;
  s.seed = 77;
  return data::make_synthetic(s);
}

/// Manifest over an in-memory model: every MAC site gets a small noise.
core::DeploymentManifest noisy_manifest(capsnet::CapsModel& model, const Tensor& probe) {
  core::DeploymentManifest m;
  m.model = model.name();
  m.profile = "tiny";
  m.input_hw = model.input_shape().dim(0);
  m.input_channels = model.input_shape().dim(2);
  m.num_classes = model.num_classes();
  m.noise_seed = 909;
  m.baseline_accuracy = 0.5;
  for (const core::Site& site : core::extract_sites(model, probe)) {
    core::ManifestSite ms;
    ms.site = site;
    if (site.kind == capsnet::OpKind::kMacOutput) {
      ms.component = "axm_drum3_jv3";  // Real library name: the emulated
      ms.nm = 0.05;                    // variant resolves and executes it.
      ms.na = 0.001;
    }
    ms.tolerable_nm = 0.05;
    m.sites.push_back(ms);
  }
  return m;
}

std::unique_ptr<ModelRegistry> make_registry(const data::Dataset& ds) {
  Rng rng(21);
  auto model = std::make_unique<capsnet::CapsNetModel>(small_config(), rng);
  core::DeploymentManifest m =
      noisy_manifest(*model, capsnet::slice_rows(ds.test_x, 0, 1));
  return std::make_unique<ModelRegistry>(std::move(model), std::move(m));
}

/// Serves one fixed request stream (an exact, a designed and an emulated
/// wave, submitted before start so batch layout is pinned) and returns the
/// predictions in stream order.
std::vector<Prediction> serve_stream(ModelRegistry& registry, const data::Dataset& ds,
                                     int workers, std::int64_t max_batch) {
  ServerConfig sc;
  sc.workers = workers;
  sc.max_batch = max_batch;
  sc.max_delay_us = 1000;
  InferenceServer server(registry, sc);
  const std::int64_t n = ds.test_x.shape().dim(0);
  std::vector<std::future<ServeResult>> futs;
  for (const char* variant : {kVariantExact, kVariantDesigned, kVariantEmulated}) {
    for (std::int64_t i = 0; i < n; ++i) {
      futs.push_back(server.submit(capsnet::slice_rows(ds.test_x, i, i + 1), variant));
    }
  }
  server.start();
  std::vector<Prediction> out;
  out.reserve(futs.size());
  for (auto& f : futs) {
    ServeResult res = f.get();
    EXPECT_TRUE(res.ok()) << serve_error_name(res.error.code) << ": " << res.error.detail;
    out.push_back(std::move(res.prediction));
  }
  server.shutdown();
  return out;
}

TEST(Serve, PredictionsBitIdenticalAcrossWorkerCounts) {
  const data::Dataset ds = small_dataset(24);
  std::unique_ptr<ModelRegistry> registry = make_registry(ds);

  const std::vector<Prediction> ref = serve_stream(*registry, ds, 1, 8);
  for (const int workers : {2, 4}) {
    const std::vector<Prediction> got = serve_stream(*registry, ds, workers, 8);
    ASSERT_EQ(ref.size(), got.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(ref[i].label, got[i].label) << "workers=" << workers << " req " << i;
      EXPECT_EQ(ref[i].variant, got[i].variant);
      ASSERT_EQ(ref[i].scores.size(), got[i].scores.size());
      for (std::size_t c = 0; c < ref[i].scores.size(); ++c) {
        // Bitwise: batching and scheduling must not perturb the math.
        EXPECT_EQ(ref[i].scores[c], got[i].scores[c])
            << "workers=" << workers << " req " << i << " class " << c;
      }
    }
  }
}

TEST(Serve, DesignedAndEmulatedVariantsActuallyPerturb) {
  const data::Dataset ds = small_dataset(8);
  std::unique_ptr<ModelRegistry> registry = make_registry(ds);
  EXPECT_GT(registry->designed_noisy_sites(), 0);
  EXPECT_GT(registry->emulated_sites(), 0);

  const std::vector<Prediction> all = serve_stream(*registry, ds, 1, 4);
  const std::size_t n = all.size() / 3;
  bool designed_differs = false;
  bool emulated_differs = false;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < all[i].scores.size(); ++c) {
      if (all[i].scores[c] != all[n + i].scores[c]) designed_differs = true;
      if (all[i].scores[c] != all[2 * n + i].scores[c]) emulated_differs = true;
    }
  }
  EXPECT_TRUE(designed_differs) << "designed variant served exact activations";
  EXPECT_TRUE(emulated_differs) << "emulated variant served exact activations";
}

TEST(Serve, BatcherCoalescesSameVariantRunsFifo) {
  MicroBatcher batcher(BatcherConfig{3, 0});
  auto push = [&](std::uint64_t id, const std::string& variant) {
    QueuedRequest r;
    r.id = id;
    r.variant = variant;
    r.enqueued = ServeClock::now();
    ASSERT_EQ(batcher.push(r), PushStatus::kAccepted);
  };
  // exact x4, designed x2, exact x1.
  for (std::uint64_t id : {0, 1, 2, 3}) push(id, kVariantExact);
  push(4, kVariantDesigned);
  push(5, kVariantDesigned);
  push(6, kVariantExact);
  batcher.close();

  std::vector<std::vector<std::uint64_t>> batches;
  std::vector<QueuedRequest> batch;
  std::vector<QueuedRequest> expired;
  while (batcher.pop_batch(batch, expired)) {
    EXPECT_TRUE(expired.empty());  // No deadlines set on any request.
    std::vector<std::uint64_t> ids;
    for (QueuedRequest& r : batch) {
      ids.push_back(r.id);
      EXPECT_EQ(r.variant, batch.front().variant);
    }
    batches.push_back(ids);
  }
  const std::vector<std::vector<std::uint64_t>> expected = {
      {0, 1, 2}, {3}, {4, 5}, {6}};
  EXPECT_EQ(batches, expected);
  EXPECT_EQ(batcher.pending(), 0U);

  // Closed batchers refuse new requests instead of queueing them forever.
  QueuedRequest late;
  late.id = 7;
  late.variant = kVariantExact;
  EXPECT_EQ(batcher.push(late), PushStatus::kClosed);
}

TEST(Serve, BatcherBoundsQueueAndTracksPressure) {
  BatcherConfig bc;
  bc.max_batch = 4;
  bc.max_delay_us = 0;
  bc.max_queue = 8;  // Watermarks derive: high 6, low 4.
  MicroBatcher batcher(bc);
  EXPECT_EQ(batcher.config().high_watermark, 6);
  EXPECT_EQ(batcher.config().low_watermark, 4);

  auto make = [](std::uint64_t id) {
    QueuedRequest r;
    r.id = id;
    r.variant = kVariantExact;
    r.enqueued = ServeClock::now();
    return r;
  };
  for (std::uint64_t id = 0; id < 8; ++id) {
    QueuedRequest r = make(id);
    ASSERT_EQ(batcher.push(r), PushStatus::kAccepted);
    EXPECT_EQ(batcher.pressured(), id + 1 >= 6) << "depth " << id + 1;
  }
  // Admission control: the 9th request bounces, the queue does not grow.
  QueuedRequest overflow = make(8);
  EXPECT_EQ(batcher.push(overflow), PushStatus::kFull);
  EXPECT_EQ(batcher.pending(), 8U);
  EXPECT_EQ(overflow.id, 8U);  // Left untouched: the caller resolves it.

  // Draining to the low watermark clears pressure (hysteresis: not at 5).
  std::vector<QueuedRequest> batch;
  std::vector<QueuedRequest> expired;
  ASSERT_TRUE(batcher.pop_batch(batch, expired));  // 8 -> 4.
  EXPECT_EQ(batch.size(), 4U);
  EXPECT_FALSE(batcher.pressured());
  batcher.close();
}

TEST(Serve, BatcherShedsExpiredRequestsAtPopTime) {
  MicroBatcher batcher(BatcherConfig{4, 0});
  auto push = [&](std::uint64_t id, bool expired_already) {
    QueuedRequest r;
    r.id = id;
    r.variant = kVariantExact;
    r.enqueued = ServeClock::now();
    r.has_deadline = true;
    r.deadline = expired_already ? r.enqueued - std::chrono::microseconds(1)
                                 : r.enqueued + std::chrono::seconds(60);
    ASSERT_EQ(batcher.push(r), PushStatus::kAccepted);
  };
  push(0, /*expired_already=*/true);
  push(1, /*expired_already=*/false);
  push(2, /*expired_already=*/true);
  push(3, /*expired_already=*/false);
  batcher.close();

  std::vector<QueuedRequest> batch;
  std::vector<QueuedRequest> expired;
  ASSERT_TRUE(batcher.pop_batch(batch, expired));
  ASSERT_EQ(batch.size(), 2U);
  EXPECT_EQ(batch[0].id, 1U);
  EXPECT_EQ(batch[1].id, 3U);
  ASSERT_EQ(expired.size(), 2U);  // Shed, not served: no wasted batch slot.
  EXPECT_EQ(expired[0].id, 0U);
  EXPECT_EQ(expired[1].id, 2U);
  EXPECT_FALSE(batcher.pop_batch(batch, expired));
}

TEST(Serve, ManifestRoundTripsThroughText) {
  const data::Dataset ds = small_dataset(2);
  Rng rng(22);
  capsnet::CapsNetModel model(small_config(), rng);
  core::DeploymentManifest m =
      noisy_manifest(model, capsnet::slice_rows(ds.test_x, 0, 1));
  m.checkpoint = "my designs/model v2.rdcn";  // Paths may contain spaces.

  core::DeploymentManifest parsed;
  ASSERT_TRUE(core::manifest_from_text(core::manifest_to_text(m), parsed));
  EXPECT_EQ(parsed.checkpoint, m.checkpoint);
  EXPECT_EQ(parsed.model, m.model);
  EXPECT_EQ(parsed.profile, m.profile);
  EXPECT_EQ(parsed.input_hw, m.input_hw);
  EXPECT_EQ(parsed.input_channels, m.input_channels);
  EXPECT_EQ(parsed.num_classes, m.num_classes);
  EXPECT_EQ(parsed.noise_seed, m.noise_seed);
  EXPECT_EQ(parsed.baseline_accuracy, m.baseline_accuracy);  // %.17g round-trip.
  ASSERT_EQ(parsed.sites.size(), m.sites.size());
  for (std::size_t i = 0; i < m.sites.size(); ++i) {
    EXPECT_EQ(parsed.sites[i].site.layer, m.sites[i].site.layer);
    EXPECT_EQ(parsed.sites[i].site.kind, m.sites[i].site.kind);
    EXPECT_EQ(parsed.sites[i].component, m.sites[i].component);
    EXPECT_EQ(parsed.sites[i].nm, m.sites[i].nm);  // Bit-exact doubles.
    EXPECT_EQ(parsed.sites[i].na, m.sites[i].na);
    EXPECT_EQ(parsed.sites[i].tolerable_nm, m.sites[i].tolerable_nm);
  }
}

TEST(Serve, ManifestRejectsMalformedText) {
  core::DeploymentManifest out;
  EXPECT_FALSE(core::manifest_from_text("", out));
  EXPECT_FALSE(core::manifest_from_text("not-a-manifest v9\nmodel CapsNet\n", out));
  EXPECT_FALSE(core::manifest_from_text(
      "redcane-manifest v1\nmodel CapsNet\nsite L mac\n", out));  // Short site line.
  EXPECT_FALSE(core::manifest_from_text(
      "redcane-manifest v1\nmodel CapsNet\nsite L warp c 0 0 0\n", out));  // Bad kind.
  EXPECT_FALSE(core::manifest_from_text(
      "redcane-manifest v1\nmodel CapsNet\nfrobnicate 3\n", out));  // Unknown key.
  EXPECT_FALSE(core::manifest_from_text("redcane-manifest v1\n", out));  // No model.

  // Numbers follow util/parse's rule and every key takes exactly its own
  // number of tokens: each of these was read as something else before.
  const std::string head = "redcane-manifest v1\nmodel CapsNet\n";
  for (const char* bad :
       {"input_hw 16junk\n", "input_hw 1e3\n", "num_classes 10 11\n",
        "baseline_accuracy 0.5x\n", "site L mac c 0 0 0 extra\n", "noise_seed -1\n",
        "input_hw +16\n", "noise_seed 18446744073709551616\n", "model CapsNet DeepCaps\n",
        "checkpoint\n", "site L mac c 0 0\n"}) {
    EXPECT_FALSE(core::manifest_from_text(head + bad, out)) << "accepted '" << bad << "'";
  }
  ASSERT_TRUE(core::manifest_from_text(
      head + "input_hw 16\nnoise_seed 18446744073709551615\nbaseline_accuracy 1e-3\n", out));
  EXPECT_EQ(out.input_hw, 16);
  EXPECT_EQ(out.noise_seed, 18446744073709551615ULL);
  EXPECT_EQ(out.baseline_accuracy, 1e-3);
}

TEST(Serve, ManifestRejectsNonFiniteNoiseFields) {
  core::DeploymentManifest out;
  // NaN/Inf noise would propagate into every served designed batch.
  EXPECT_FALSE(core::manifest_from_text(
      "redcane-manifest v1\nmodel CapsNet\nsite L mac c nan 0 0\n", out));
  EXPECT_FALSE(core::manifest_from_text(
      "redcane-manifest v1\nmodel CapsNet\nsite L mac c 0 inf 0\n", out));
  EXPECT_FALSE(core::manifest_from_text(
      "redcane-manifest v1\nmodel CapsNet\nsite L mac c 0 0 -inf\n", out));
  EXPECT_FALSE(core::manifest_from_text(
      "redcane-manifest v1\nmodel CapsNet\nbaseline_accuracy nan\n", out));
  // The same fields parse fine when finite.
  EXPECT_TRUE(core::manifest_from_text(
      "redcane-manifest v1\nmodel CapsNet\nsite L mac c 0.05 0.001 0.05\n", out));
}

TEST(Serve, ManifestRejectsDuplicateSiteEntries) {
  core::DeploymentManifest out;
  // Two selections for the same (layer, kind): inconsistent manifest.
  EXPECT_FALSE(core::manifest_from_text(
      "redcane-manifest v1\nmodel CapsNet\n"
      "site conv1 mac a 0 0 0\nsite conv1 mac b 0.1 0 0\n",
      out));
  // Same layer, different kind is legitimate.
  EXPECT_TRUE(core::manifest_from_text(
      "redcane-manifest v1\nmodel CapsNet\n"
      "site conv1 mac a 0 0 0\nsite conv1 activation - 0 0 0\n",
      out));
}

TEST(Serve, ManifestRejectsAbsurdGeometryCounts) {
  core::DeploymentManifest out;
  EXPECT_FALSE(core::manifest_from_text(
      "redcane-manifest v1\nmodel CapsNet\ninput_hw -20\n", out));
  EXPECT_FALSE(core::manifest_from_text(
      "redcane-manifest v1\nmodel CapsNet\ninput_hw 99999999\n", out));
  EXPECT_FALSE(core::manifest_from_text(
      "redcane-manifest v1\nmodel CapsNet\ninput_channels 10000000\n", out));
  EXPECT_FALSE(core::manifest_from_text(
      "redcane-manifest v1\nmodel CapsNet\nnum_classes -1\n", out));
  EXPECT_TRUE(core::manifest_from_text(
      "redcane-manifest v1\nmodel CapsNet\ninput_hw 28\nnum_classes 10\n", out));
}

TEST(Serve, OpKindTokensRoundTrip) {
  for (const capsnet::OpKind kind : core::all_groups()) {
    capsnet::OpKind back{};
    ASSERT_TRUE(core::op_kind_from_token(core::op_kind_token(kind), back));
    EXPECT_EQ(back, kind);
  }
  capsnet::OpKind out{};
  EXPECT_FALSE(core::op_kind_from_token("warp", out));
}

TEST(Serve, RegistryOpenServesASavedDesign) {
  // Save a checkpoint + manifest to disk, re-open through the deployment
  // path, and check the loaded model predicts exactly like the original.
  // The loadable path rebuilds from the "tiny" profile, so the original
  // must be exactly tiny + manifest overrides. 20x20 keeps tiny's 9x9
  // kernels valid while staying fast.
  data::SyntheticSpec spec;
  spec.kind = data::DatasetKind::kMnist;
  spec.hw = 20;
  spec.channels = 1;
  spec.train_count = 4;
  spec.test_count = 8;
  spec.seed = 79;
  const data::Dataset ds = data::make_synthetic(spec);
  capsnet::CapsNetConfig cfg = capsnet::CapsNetConfig::tiny();
  cfg.input_hw = 20;  // Overrides the profile default, as a manifest can.
  Rng rng(23);
  capsnet::CapsNetModel original(cfg, rng);

  const std::string dir = ::testing::TempDir();
  const std::string ckpt = dir + "/design.rdcn";
  ASSERT_TRUE(capsnet::save_params(original, ckpt));
  core::DeploymentManifest m =
      noisy_manifest(original, capsnet::slice_rows(ds.test_x, 0, 1));
  m.checkpoint = "design.rdcn";  // Relative: resolved against the manifest dir.
  const std::string manifest_path = dir + "/design.manifest";
  ASSERT_TRUE(core::save_manifest(m, manifest_path));

  std::unique_ptr<ModelRegistry> registry = ModelRegistry::open(manifest_path);
  ASSERT_NE(registry, nullptr);
  EXPECT_EQ(registry->variant_names(),
            (std::vector<std::string>{kVariantExact, kVariantDesigned, kVariantEmulated}));

  const Tensor probe = capsnet::slice_rows(ds.test_x, 0, 4);
  const Tensor expect = original.infer(probe);
  const Tensor got = registry->model().infer(probe);
  ASSERT_EQ(expect.shape(), got.shape());
  for (std::int64_t i = 0; i < expect.numel(); ++i) {
    ASSERT_EQ(expect.at(i), got.at(i)) << "loaded model diverges at " << i;
  }
}

/// Writes `<name>.rdcn`, saved from CapsNet-tiny at `ckpt_hw`, and a
/// manifest `<name>.manifest` that declares `manifest_hw`. Returns the
/// manifest path.
std::string write_geometry_case(const std::string& dir, const std::string& name,
                                std::int64_t manifest_hw, std::int64_t ckpt_hw) {
  capsnet::CapsNetConfig cfg = capsnet::CapsNetConfig::tiny();
  cfg.input_hw = ckpt_hw;
  Rng rng(44);
  capsnet::CapsNetModel model(cfg, rng);
  EXPECT_TRUE(capsnet::save_params(model, dir + "/" + name + ".rdcn"));
  core::DeploymentManifest m;
  m.model = "CapsNet";
  m.profile = "tiny";
  m.input_hw = manifest_hw;
  m.input_channels = 1;
  m.num_classes = 10;
  m.checkpoint = name + ".rdcn";
  const std::string path = dir + "/" + name + ".manifest";
  EXPECT_TRUE(core::save_manifest(m, path));
  return path;
}

TEST(Serve, RegistryOpenRejectsBadInputs) {
  EXPECT_EQ(ModelRegistry::open("/nonexistent/path.manifest"), nullptr);

  // Valid manifest text, missing checkpoint file.
  const std::string dir = ::testing::TempDir();
  core::DeploymentManifest m;
  m.model = "CapsNet";
  m.profile = "tiny";
  m.input_hw = 20;
  m.input_channels = 1;
  m.num_classes = 10;
  m.checkpoint = "missing.rdcn";
  const std::string path = dir + "/broken.manifest";
  ASSERT_TRUE(core::save_manifest(m, path));
  EXPECT_EQ(ModelRegistry::open(path), nullptr);

  // Geometry is checked before the model is built: an extent inside the
  // manifest's range whose parameters the checkpoint cannot hold (a
  // multi-terabyte ClassCaps), and an extent whose PrimaryCaps output is
  // empty, even with a checkpoint saved from exactly that geometry.
  EXPECT_EQ(ModelRegistry::open(write_geometry_case(dir, "huge", 65536, 20)), nullptr);
  EXPECT_EQ(ModelRegistry::open(write_geometry_case(dir, "empty", 12, 12)), nullptr);
}

TEST(Serve, ServerStatsAccountForRequestsAndBatches) {
  const data::Dataset ds = small_dataset(16);
  std::unique_ptr<ModelRegistry> registry = make_registry(ds);
  ServerConfig sc;
  sc.workers = 2;
  sc.max_batch = 8;
  sc.max_delay_us = 500;
  InferenceServer server(*registry, sc);
  std::vector<std::future<ServeResult>> futs;
  for (std::int64_t i = 0; i < 16; ++i) {
    futs.push_back(server.submit(capsnet::slice_rows(ds.test_x, i, i + 1), kVariantExact));
  }
  server.start();
  for (auto& f : futs) {
    const ServeResult res = f.get();
    ASSERT_TRUE(res.ok());
    const Prediction& p = res.prediction;
    EXPECT_GE(p.label, 0);
    EXPECT_LT(p.label, 10);
    EXPECT_EQ(p.scores.size(), 10U);
    EXPECT_GE(p.latency_us, 0.0);
    EXPECT_GE(p.batch_size, 1);
    EXPECT_LE(p.batch_size, 8);
    EXPECT_EQ(p.served_by, kVariantExact);
    EXPECT_FALSE(p.degraded);
  }
  server.shutdown();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 16);
  EXPECT_EQ(stats.requests, 16);
  EXPECT_EQ(stats.batches, 2);  // Queue pre-filled: two full batches of 8.
  EXPECT_EQ(stats.workers, 2);
  EXPECT_EQ(stats.latency.count, 16);
  EXPECT_GE(stats.latency.p50_us, 0.0);
  EXPECT_LE(stats.latency.p50_us, stats.latency.p99_us);
  EXPECT_LE(stats.latency.p99_us, stats.latency.max_us);
  EXPECT_GE(stats.latency.mean_us, 0.0);
  EXPECT_LE(stats.latency.mean_us, stats.latency.max_us);
  EXPECT_DOUBLE_EQ(stats.mean_batch_size(), 8.0);
  EXPECT_TRUE(stats.reconciles());
}

TEST(Serve, LatencySummaryComesFromTheSharedHistogram) {
  // The server's per-instance histogram is the same obs::Histogram the
  // registry's serve_latency_us uses; ServerStats::latency must match
  // direct queries on it exactly.
  const data::Dataset ds = small_dataset(8);
  std::unique_ptr<ModelRegistry> registry = make_registry(ds);
  ServerConfig sc;
  sc.workers = 1;
  sc.max_batch = 4;
  InferenceServer server(*registry, sc);
  std::vector<std::future<ServeResult>> futs;
  for (std::int64_t i = 0; i < 8; ++i) {
    futs.push_back(
        server.submit(capsnet::slice_rows(ds.test_x, i, i + 1), kVariantExact));
  }
  server.start();
  for (auto& f : futs) ASSERT_TRUE(f.get().ok());
  server.shutdown();
  const ServerStats stats = server.stats();
  const obs::Histogram& h = server.latency_histogram();
  EXPECT_EQ(stats.latency.count, h.count());
  EXPECT_DOUBLE_EQ(stats.latency.p50_us, h.percentile(50.0));
  EXPECT_DOUBLE_EQ(stats.latency.p99_us, h.percentile(99.0));
  EXPECT_DOUBLE_EQ(stats.latency.p999_us, h.percentile(99.9));
  EXPECT_DOUBLE_EQ(stats.latency.max_us, h.max());
}

TEST(Serve, SubmitResolvesTypedErrorsInsteadOfAborting) {
  const data::Dataset ds = small_dataset(4);
  std::unique_ptr<ModelRegistry> registry = make_registry(ds);
  ServerConfig sc;
  sc.workers = 1;
  InferenceServer server(*registry, sc);
  server.start();

  // Unknown variant: the seed runtime abort()ed here.
  ServeResult res =
      server.submit(capsnet::slice_rows(ds.test_x, 0, 1), "warp-drive").get();
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.error.code, ServeErrorCode::kUnknownVariant);
  EXPECT_FALSE(res.error.detail.empty());

  // Shape mismatch: ditto.
  res = server.submit(Tensor(Shape{1, 3, 3, 1}), kVariantExact).get();
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.error.code, ServeErrorCode::kBadShape);

  // A valid request still serves normally next to the rejected ones.
  res = server.submit(capsnet::slice_rows(ds.test_x, 0, 1), kVariantExact).get();
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(res.error.code, ServeErrorCode::kOk);

  server.shutdown();

  // Post-shutdown submit: the promise resolves with kShutdown instead of
  // dangling (or aborting).
  res = server.submit(capsnet::slice_rows(ds.test_x, 0, 1), kVariantExact).get();
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.error.code, ServeErrorCode::kShutdown);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 4);
  EXPECT_EQ(stats.requests, 1);
  EXPECT_EQ(stats.rejected_invalid, 2);
  EXPECT_EQ(stats.rejected_shutdown, 1);
  EXPECT_TRUE(stats.reconciles());
}

TEST(Serve, BoundedQueueRejectsOverflowWithQueueFull) {
  const data::Dataset ds = small_dataset(8);
  std::unique_ptr<ModelRegistry> registry = make_registry(ds);
  ServerConfig sc;
  sc.workers = 1;
  sc.max_batch = 4;
  sc.max_queue = 4;
  InferenceServer server(*registry, sc);
  // Workers not started: the queue fills to max_queue, then rejects.
  std::vector<std::future<ServeResult>> futs;
  for (std::int64_t i = 0; i < 8; ++i) {
    futs.push_back(server.submit(capsnet::slice_rows(ds.test_x, i % 8, i % 8 + 1),
                                 kVariantExact));
  }
  server.start();
  std::int64_t served = 0;
  std::int64_t rejected = 0;
  for (auto& f : futs) {
    const ServeResult res = f.get();
    if (res.ok()) ++served;
    else {
      EXPECT_EQ(res.error.code, ServeErrorCode::kQueueFull);
      ++rejected;
    }
  }
  server.shutdown();
  EXPECT_EQ(served, 4);
  EXPECT_EQ(rejected, 4);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.rejected_queue_full, 4);
  EXPECT_TRUE(stats.reconciles());
}

TEST(Serve, ExpiredRequestsResolveWithDeadlineExceeded) {
  const data::Dataset ds = small_dataset(6);
  std::unique_ptr<ModelRegistry> registry = make_registry(ds);
  ServerConfig sc;
  sc.workers = 1;
  sc.max_batch = 2;
  sc.max_delay_us = 0;
  sc.deadline_us = 1;  // Pre-start queueing guarantees expiry by pop time.
  InferenceServer server(*registry, sc);
  std::vector<std::future<ServeResult>> futs;
  for (std::int64_t i = 0; i < 6; ++i) {
    futs.push_back(server.submit(capsnet::slice_rows(ds.test_x, i, i + 1), kVariantExact));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  server.start();
  for (auto& f : futs) {
    const ServeResult res = f.get();
    EXPECT_FALSE(res.ok());
    EXPECT_EQ(res.error.code, ServeErrorCode::kDeadlineExceeded);
  }
  server.shutdown();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.shed_deadline, 6);
  EXPECT_EQ(stats.requests, 0);
  EXPECT_TRUE(stats.reconciles());
}

TEST(Serve, DegradesExpensiveVariantsAboveHighWatermark) {
  const data::Dataset ds = small_dataset(12);
  std::unique_ptr<ModelRegistry> registry = make_registry(ds);
  ServerConfig sc;
  sc.workers = 1;
  sc.max_batch = 4;
  sc.max_queue = 8;  // High watermark 6: pre-filling 12 crosses it.
  sc.degrade_under_pressure = true;
  InferenceServer server(*registry, sc);
  std::vector<std::future<ServeResult>> futs;
  for (std::int64_t i = 0; i < 12; ++i) {
    futs.push_back(
        server.submit(capsnet::slice_rows(ds.test_x, i, i + 1), kVariantEmulated));
  }
  server.start();
  std::int64_t degraded = 0;
  std::int64_t rejected = 0;
  for (auto& f : futs) {
    const ServeResult res = f.get();
    if (!res.ok()) {
      EXPECT_EQ(res.error.code, ServeErrorCode::kQueueFull);
      ++rejected;
      continue;
    }
    EXPECT_EQ(res.prediction.variant, kVariantEmulated);
    if (res.prediction.degraded) {
      EXPECT_EQ(res.error.code, ServeErrorCode::kDegradedServed);
      EXPECT_EQ(res.prediction.served_by, kVariantExact);
      ++degraded;
    } else {
      EXPECT_EQ(res.prediction.served_by, kVariantEmulated);
    }
  }
  server.shutdown();
  EXPECT_GT(degraded, 0) << "queue pressure never degraded an expensive variant";
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.degraded, degraded);
  EXPECT_EQ(stats.rejected_queue_full, rejected);
  EXPECT_TRUE(stats.reconciles());
}

TEST(Serve, RegistryRunReportsUnknownVariantWithoutAborting) {
  const data::Dataset ds = small_dataset(2);
  std::unique_ptr<ModelRegistry> registry = make_registry(ds);
  const RunResult r =
      registry->run("warp-drive", capsnet::slice_rows(ds.test_x, 0, 1), 0);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.error.empty());
}

TEST(Serve, RegistryReloadSwapsModelAndRollsBackOnFailure) {
  data::SyntheticSpec spec;
  spec.kind = data::DatasetKind::kMnist;
  spec.hw = 20;
  spec.channels = 1;
  spec.train_count = 4;
  spec.test_count = 4;
  spec.seed = 80;
  const data::Dataset ds = data::make_synthetic(spec);
  capsnet::CapsNetConfig cfg = capsnet::CapsNetConfig::tiny();
  cfg.input_hw = 20;

  const std::string dir = ::testing::TempDir();
  Rng rng_a(41);
  capsnet::CapsNetModel model_a(cfg, rng_a);
  ASSERT_TRUE(capsnet::save_params(model_a, dir + "/a.rdcn"));
  core::DeploymentManifest ma =
      noisy_manifest(model_a, capsnet::slice_rows(ds.test_x, 0, 1));
  ma.checkpoint = "a.rdcn";
  ASSERT_TRUE(core::save_manifest(ma, dir + "/a.manifest"));

  Rng rng_b(42);
  capsnet::CapsNetModel model_b(cfg, rng_b);  // Different weights, same shape.
  ASSERT_TRUE(capsnet::save_params(model_b, dir + "/b.rdcn"));
  core::DeploymentManifest mb =
      noisy_manifest(model_b, capsnet::slice_rows(ds.test_x, 0, 1));
  mb.checkpoint = "b.rdcn";
  mb.noise_seed = 1234;
  ASSERT_TRUE(core::save_manifest(mb, dir + "/b.manifest"));

  std::unique_ptr<ModelRegistry> registry = ModelRegistry::open(dir + "/a.manifest");
  ASSERT_NE(registry, nullptr);
  const Tensor probe = capsnet::slice_rows(ds.test_x, 0, 2);
  const Tensor before = registry->run(kVariantExact, probe, 0).output;

  // Successful reload: serves B's weights afterwards.
  ASSERT_TRUE(registry->reload(dir + "/b.manifest"));
  EXPECT_EQ(registry->reloads_ok(), 1);
  EXPECT_EQ(registry->manifest().noise_seed, 1234U);
  const Tensor after = registry->run(kVariantExact, probe, 0).output;
  bool changed = false;
  for (std::int64_t i = 0; i < after.numel(); ++i) {
    if (after.at(i) != before.at(i)) changed = true;
  }
  EXPECT_TRUE(changed) << "reload did not swap in the new checkpoint";

  // Failed reload (truncated checkpoint): keeps serving B bit-for-bit.
  {
    std::FILE* f = std::fopen((dir + "/b.rdcn").c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    // Truncate by rewriting the file with its first 16 bytes only.
    char head[16];
    ASSERT_EQ(std::fread(head, 1, sizeof(head), f), sizeof(head));
    std::fclose(f);
    f = std::fopen((dir + "/b.rdcn").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(head, 1, sizeof(head), f), sizeof(head));
    std::fclose(f);
  }
  EXPECT_FALSE(registry->reload(dir + "/b.manifest"));
  EXPECT_EQ(registry->reloads_failed(), 1);
  const Tensor rollback = registry->run(kVariantExact, probe, 0).output;
  for (std::int64_t i = 0; i < rollback.numel(); ++i) {
    ASSERT_EQ(rollback.at(i), after.at(i)) << "rollback changed served outputs at " << i;
  }

  // Reload to an incompatible input shape is refused even when valid.
  capsnet::CapsNetConfig cfg24 = capsnet::CapsNetConfig::tiny();
  cfg24.input_hw = 24;
  Rng rng_c(43);
  capsnet::CapsNetModel model_c(cfg24, rng_c);
  ASSERT_TRUE(capsnet::save_params(model_c, dir + "/c.rdcn"));
  core::DeploymentManifest mc;
  mc.model = "CapsNet";
  mc.profile = "tiny";
  mc.input_hw = 24;
  mc.input_channels = 1;
  mc.num_classes = 10;
  mc.checkpoint = "c.rdcn";
  ASSERT_TRUE(core::save_manifest(mc, dir + "/c.manifest"));
  EXPECT_FALSE(registry->reload(dir + "/c.manifest"));
  EXPECT_EQ(registry->reloads_failed(), 2);

  // Geometry a live server must refuse before building anything: a
  // 65536-pixel extent (terabytes of ClassCaps weights) and an empty
  // PrimaryCaps output. Both roll back; outputs stay bitwise the same.
  EXPECT_FALSE(registry->reload(write_geometry_case(dir, "reload_huge", 65536, 20)));
  EXPECT_FALSE(registry->reload(write_geometry_case(dir, "reload_empty", 12, 12)));
  EXPECT_EQ(registry->reloads_failed(), 4);
  const Tensor kept = registry->run(kVariantExact, probe, 0).output;
  for (std::int64_t i = 0; i < kept.numel(); ++i) {
    ASSERT_EQ(kept.at(i), after.at(i)) << "failed reload changed served outputs at " << i;
  }
}

// REDCANE_SERVE_THREADS follows util/parse's rule: anything but a whole
// decimal integer in [1, INT_MAX] falls back to hardware concurrency.
TEST(Serve, ServeThreadsVariableFollowsTheNumberRule) {
  const char* saved = std::getenv("REDCANE_SERVE_THREADS");
  const std::string restore = saved != nullptr ? saved : "";
  const unsigned hw_threads = std::thread::hardware_concurrency();
  const int hw = hw_threads == 0 ? 1 : static_cast<int>(hw_threads);
  for (const char* bad : {"10000000000", "4abc", " 3", "+3", "0", "-2", "3.0"}) {
    ASSERT_EQ(::setenv("REDCANE_SERVE_THREADS", bad, 1), 0);
    EXPECT_EQ(InferenceServer::resolve_workers(0), hw) << "REDCANE_SERVE_THREADS=" << bad;
  }
  ASSERT_EQ(::setenv("REDCANE_SERVE_THREADS", "3", 1), 0);
  EXPECT_EQ(InferenceServer::resolve_workers(0), 3);
  EXPECT_EQ(InferenceServer::resolve_workers(5), 5);
  if (saved != nullptr) {
    ::setenv("REDCANE_SERVE_THREADS", restore.c_str(), 1);
  } else {
    ::unsetenv("REDCANE_SERVE_THREADS");
  }
}

TEST(Serve, AttackedEvalPredictionsIdenticalAcrossWorkerCounts) {
  const data::Dataset ds = small_dataset(16);
  std::unique_ptr<ModelRegistry> registry = make_registry(ds);
  const std::vector<std::int64_t> labels(ds.test_y.begin(), ds.test_y.end());

  for (const char* variant : {kVariantExact, kVariantDesigned, kVariantEmulated}) {
    AttackedEvalConfig cfg;
    cfg.variant = variant;
    cfg.spec_text = "fgsm:eps=0.05";
    cfg.attack_batch = 8;

    std::vector<AttackedEvalReport> reports;
    for (const int workers : {1, 2, 4}) {
      ServerConfig sc;
      sc.workers = workers;
      sc.max_batch = 4;
      sc.max_delay_us = 1000;
      InferenceServer server(*registry, sc);  // Not started: the eval pins
      const AttackedEvalReport rep =         // batch layout by submitting
          run_attacked_eval(server, *registry, ds.test_x, labels, cfg);  // first.
      server.shutdown();
      ASSERT_TRUE(rep.ok()) << variant << " workers=" << workers << ": "
                            << rep.error.detail;
      EXPECT_EQ(rep.request_errors, 0);
      EXPECT_EQ(rep.attack_key, attack::AttackSpec::fgsm(0.05).key());
      ASSERT_EQ(rep.labels.size(), static_cast<std::size_t>(16));
      reports.push_back(rep);
    }
    for (std::size_t w = 1; w < reports.size(); ++w) {
      EXPECT_EQ(reports[0].labels, reports[w].labels)
          << variant << ": predictions depend on worker count";
      EXPECT_EQ(reports[0].accuracy, reports[w].accuracy) << variant;
    }
  }
}

TEST(Serve, AttackedEvalRejectsMalformedSpecsWithTypedError) {
  const data::Dataset ds = small_dataset(4);
  std::unique_ptr<ModelRegistry> registry = make_registry(ds);
  const std::vector<std::int64_t> labels(ds.test_y.begin(), ds.test_y.end());
  ServerConfig sc;
  sc.workers = 1;

  // Malformed spec grammar: typed kBadAttackSpec, nothing submitted.
  for (const char* bad : {"fgsm", "fgsm:eps=-1", "warp:deg=5", "pgd:eps=0.1,steps=0"}) {
    InferenceServer server(*registry, sc);
    AttackedEvalConfig cfg;
    cfg.spec_text = bad;
    const AttackedEvalReport rep =
        run_attacked_eval(server, *registry, ds.test_x, labels, cfg);
    server.shutdown();
    EXPECT_FALSE(rep.ok()) << "accepted '" << bad << "'";
    EXPECT_EQ(rep.error.code, ServeErrorCode::kBadAttackSpec) << bad;
    EXPECT_FALSE(rep.error.detail.empty()) << bad;
    EXPECT_TRUE(rep.labels.empty()) << bad;
  }

  // Unknown variant: its own error code, not a spec error.
  {
    InferenceServer server(*registry, sc);
    AttackedEvalConfig cfg;
    cfg.variant = "warp-drive";
    cfg.spec_text = "fgsm:eps=0.05";
    const AttackedEvalReport rep =
        run_attacked_eval(server, *registry, ds.test_x, labels, cfg);
    server.shutdown();
    EXPECT_EQ(rep.error.code, ServeErrorCode::kUnknownVariant);
  }

  // Gradient attacks need one label per sample.
  {
    InferenceServer server(*registry, sc);
    AttackedEvalConfig cfg;
    cfg.spec_text = "fgsm:eps=0.05";
    const std::vector<std::int64_t> short_labels(labels.begin(), labels.begin() + 2);
    const AttackedEvalReport rep =
        run_attacked_eval(server, *registry, ds.test_x, short_labels, cfg);
    server.shutdown();
    EXPECT_EQ(rep.error.code, ServeErrorCode::kBadAttackSpec);
  }

  // The registry still serves normally after the rejections.
  InferenceServer server(*registry, sc);
  server.start();
  EXPECT_TRUE(server.submit(capsnet::slice_rows(ds.test_x, 0, 1), kVariantExact)
                  .get()
                  .ok());
  server.shutdown();
}

TEST(Serve, ConstForwardAuditPassesForBothModels) {
  const data::Dataset ds = small_dataset(4);
  Rng rng(31);
  capsnet::CapsNetModel capsnet_model(small_config(), rng);
  EXPECT_TRUE(capsnet::audit_const_forward(capsnet_model, ds.test_x));

  capsnet::DeepCapsConfig dc = capsnet::DeepCapsConfig::tiny();
  dc.input_hw = 8;
  data::SyntheticSpec s;
  s.kind = data::DatasetKind::kCifar10;
  s.hw = 8;
  s.channels = 3;
  s.train_count = 4;
  s.test_count = 4;
  s.seed = 78;
  Rng rng2(32);
  capsnet::DeepCapsModel deepcaps_model(dc, rng2);
  EXPECT_TRUE(capsnet::audit_const_forward(deepcaps_model, data::make_synthetic(s).test_x));
}

}  // namespace
}  // namespace redcane::serve
