// Chaos soak of the fault-tolerant serving stack (src/util/fault.hpp).
//
// Under every injected fault mix — worker stalls, backend execution
// failures, forced queue pressure, bounded-queue overflow, per-request
// deadlines, corrupted checkpoint reloads — the serving contract must
// hold:
//   * every submitted future resolves, with a prediction or a typed
//     ServeError (never a dangling promise, never an abort);
//   * ServerStats reconcile: submitted == fulfilled + every rejection and
//     shed bucket, and the per-result tallies match the counters;
//   * shutdown completes (the test itself would hang/deadlock otherwise —
//     the CI TSan job runs this suite precisely to catch that);
//   * with all faults off, an armed-but-inert plan changes nothing: the
//     fixed-arrival-order stream serves bit-identically to the unarmed
//     run (test_serve's identity contract is untouched).
//
// The fault plan is seed-driven and deterministic: the k-th decision at a
// site is a pure hash of (seed, site, k), so chaos runs are reproducible.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "capsnet/capsnet_model.hpp"
#include "capsnet/serialize.hpp"
#include "capsnet/trainer.hpp"
#include "core/groups.hpp"
#include "core/manifest.hpp"
#include "data/synthetic.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"
#include "util/fault.hpp"

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
  s.seed = 177;
  return data::make_synthetic(s);
}

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
      ms.component = "axm_drum3_jv3";
      ms.nm = 0.05;
      ms.na = 0.001;
    }
    ms.tolerable_nm = 0.05;
    m.sites.push_back(ms);
  }
  return m;
}

std::unique_ptr<ModelRegistry> make_registry(const data::Dataset& ds) {
  Rng rng(121);
  auto model = std::make_unique<capsnet::CapsNetModel>(small_config(), rng);
  core::DeploymentManifest m =
      noisy_manifest(*model, capsnet::slice_rows(ds.test_x, 0, 1));
  return std::make_unique<ModelRegistry>(std::move(model), std::move(m));
}

/// Per-outcome tally of one soak run.
struct SoakTally {
  std::int64_t ok = 0;        ///< Served as requested.
  std::int64_t degraded = 0;  ///< Served by exact under pressure.
  std::int64_t queue_full = 0;
  std::int64_t deadline = 0;
  std::int64_t backend = 0;
  std::int64_t shutdown = 0;
  std::int64_t other = 0;

  [[nodiscard]] std::int64_t total() const {
    return ok + degraded + queue_full + deadline + backend + shutdown + other;
  }
};

/// Drives `requests` live submissions per submitter thread (mixed
/// variants) into a running server and waits for every future. Fails the
/// test if any future does not resolve within the generous bound.
void soak(InferenceServer& server, const data::Dataset& ds, int submitters,
          std::int64_t requests_per_submitter, SoakTally& tally) {
  const std::int64_t n = ds.test_x.shape().dim(0);
  const char* variants[] = {kVariantExact, kVariantDesigned, kVariantEmulated};
  std::vector<std::vector<std::future<ServeResult>>> futs(
      static_cast<std::size_t>(submitters));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(submitters));
  for (int t = 0; t < submitters; ++t) {
    threads.emplace_back([&, t] {
      auto& mine = futs[static_cast<std::size_t>(t)];
      mine.reserve(static_cast<std::size_t>(requests_per_submitter));
      for (std::int64_t i = 0; i < requests_per_submitter; ++i) {
        const std::int64_t row = (i + t) % n;
        mine.push_back(server.submit(capsnet::slice_rows(ds.test_x, row, row + 1),
                                     variants[(i + t) % 3]));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  for (auto& lane : futs) {
    for (auto& f : lane) {
      // The contract under every fault mix: the future resolves. A miss
      // here is exactly the dangling-promise bug this suite exists for.
      ASSERT_EQ(f.wait_for(std::chrono::seconds(120)), std::future_status::ready)
          << "a submitted future never resolved";
      const ServeResult res = f.get();
      switch (res.error.code) {
        case ServeErrorCode::kOk: ++tally.ok; break;
        case ServeErrorCode::kDegradedServed: ++tally.degraded; break;
        case ServeErrorCode::kQueueFull: ++tally.queue_full; break;
        case ServeErrorCode::kDeadlineExceeded: ++tally.deadline; break;
        case ServeErrorCode::kBackendFailure: ++tally.backend; break;
        case ServeErrorCode::kShutdown: ++tally.shutdown; break;
        default: ++tally.other; break;
      }
      if (res.ok()) {
        EXPECT_GE(res.prediction.label, 0);
        EXPECT_FALSE(res.prediction.scores.empty());
      } else {
        EXPECT_FALSE(res.error.detail.empty());
      }
    }
  }
}

/// One full chaos scenario: arm `fc`, serve live mixed traffic through a
/// bounded+deadlined+degrading server, assert resolution + reconciliation.
void run_scenario(const fault::FaultConfig& fc, const char* name) {
  SCOPED_TRACE(name);
  const data::Dataset ds = small_dataset(12);
  std::unique_ptr<ModelRegistry> registry = make_registry(ds);

  fault::ScopedFaultPlan chaos(fc);
  ServerConfig sc;
  sc.workers = 3;
  sc.max_batch = 4;
  sc.max_delay_us = 200;
  sc.max_queue = 16;
  sc.deadline_us = 2'000'000;  // Generous: only stalls/pressure shed it.
  sc.degrade_under_pressure = true;
  const obs::Snapshot before = obs::Registry::instance().snapshot();
  InferenceServer server(*registry, sc);
  server.start();
  SoakTally tally;
  soak(server, ds, /*submitters=*/3, /*requests_per_submitter=*/40, tally);
  server.shutdown();

  const ServerStats stats = server.stats();
  // The process-wide serve_* totals grew by exactly this server's view,
  // and the conservation law holds over them.
  const obs::Snapshot after = obs::Registry::instance().snapshot();
  const auto delta = [&](const char* name) { return after.counter(name) - before.counter(name); };
  EXPECT_EQ(delta("serve_submitted_total"), stats.submitted);
  EXPECT_EQ(delta("serve_requests_total"), stats.requests);
  EXPECT_EQ(delta("serve_batches_total"), stats.batches);
  EXPECT_EQ(delta("serve_rejected_invalid_total"), stats.rejected_invalid);
  EXPECT_EQ(delta("serve_rejected_queue_full_total"), stats.rejected_queue_full);
  EXPECT_EQ(delta("serve_rejected_shutdown_total"), stats.rejected_shutdown);
  EXPECT_EQ(delta("serve_shed_deadline_total"), stats.shed_deadline);
  EXPECT_EQ(delta("serve_backend_failed_total"), stats.backend_failed);
  EXPECT_EQ(delta("serve_degraded_total"), stats.degraded);
  const auto latency_count = [](const obs::Snapshot& s) {
    const auto it = s.histograms.find("serve_latency_us");
    return it == s.histograms.end() ? std::int64_t{0} : it->second.count;
  };
  EXPECT_EQ(latency_count(after) - latency_count(before), stats.latency.count);
  bool law_checked = false;
  for (const obs::CheckResult& c : obs::Registry::instance().run_checks()) {
    if (c.name != "serve_conservation") continue;
    law_checked = true;
    EXPECT_TRUE(c.ok);
  }
  EXPECT_TRUE(law_checked);
  // Every submit resolved exactly once, into exactly one bucket.
  EXPECT_EQ(tally.total(), 120);
  EXPECT_EQ(stats.submitted, 120);
  EXPECT_EQ(tally.other, 0);
  EXPECT_TRUE(stats.reconciles())
      << "submitted " << stats.submitted << " != requests " << stats.requests
      << " + invalid " << stats.rejected_invalid << " + full "
      << stats.rejected_queue_full << " + shutdown " << stats.rejected_shutdown
      << " + shed " << stats.shed_deadline << " + backend " << stats.backend_failed;
  // The per-result tallies are the counters, seen from the caller side.
  EXPECT_EQ(stats.requests, tally.ok + tally.degraded);
  EXPECT_EQ(stats.degraded, tally.degraded);
  EXPECT_EQ(stats.rejected_queue_full, tally.queue_full);
  EXPECT_EQ(stats.shed_deadline, tally.deadline);
  EXPECT_EQ(stats.backend_failed, tally.backend);
  EXPECT_EQ(stats.rejected_shutdown, tally.shutdown);
}

TEST(Chaos, WorkerStallsNeverLoseRequests) {
  fault::FaultConfig fc;
  fc.seed = 7;
  fc.worker_stall_prob = 0.4;
  fc.worker_stall_us = 3000;
  run_scenario(fc, "stalls");
}

TEST(Chaos, BackendFailuresResolveTyped) {
  fault::FaultConfig fc;
  fc.seed = 8;
  fc.backend_fail_prob = 0.3;
  run_scenario(fc, "backend-failures");
}

TEST(Chaos, ForcedQueuePressureDegradesAndSheds) {
  fault::FaultConfig fc;
  fc.seed = 9;
  fc.force_pressure = true;
  run_scenario(fc, "forced-pressure");

  fault::FaultConfig full;
  full.seed = 10;
  full.force_queue_full = true;
  run_scenario(full, "forced-queue-full");
}

TEST(Chaos, CombinedFaultMixStaysCoherent) {
  fault::FaultConfig fc;
  fc.seed = 11;
  fc.worker_stall_prob = 0.25;
  fc.worker_stall_us = 2000;
  fc.backend_fail_prob = 0.2;
  fc.force_pressure = true;
  run_scenario(fc, "combined");
}

TEST(Chaos, CorruptCheckpointReloadRollsBackUnderTraffic) {
  data::SyntheticSpec spec;
  spec.kind = data::DatasetKind::kMnist;
  spec.hw = 20;
  spec.channels = 1;
  spec.train_count = 4;
  spec.test_count = 8;
  spec.seed = 181;
  const data::Dataset ds = data::make_synthetic(spec);
  capsnet::CapsNetConfig cfg = capsnet::CapsNetConfig::tiny();
  cfg.input_hw = 20;
  Rng rng(45);
  capsnet::CapsNetModel model(cfg, rng);
  const std::string dir = ::testing::TempDir();
  ASSERT_TRUE(capsnet::save_params(model, dir + "/chaos.rdcn"));
  core::DeploymentManifest m =
      noisy_manifest(model, capsnet::slice_rows(ds.test_x, 0, 1));
  m.checkpoint = "chaos.rdcn";
  const std::string manifest_path = dir + "/chaos.manifest";
  ASSERT_TRUE(core::save_manifest(m, manifest_path));

  std::unique_ptr<ModelRegistry> registry = ModelRegistry::open(manifest_path);
  ASSERT_NE(registry, nullptr);

  // Every checkpoint read is corrupted from here on: reloads must all
  // fail, roll back, and never disturb in-flight traffic.
  fault::FaultConfig fc;
  fc.seed = 12;
  fc.checkpoint_corrupt_prob = 1.0;
  fault::ScopedFaultPlan chaos(fc);

  ServerConfig sc;
  sc.workers = 2;
  sc.max_batch = 4;
  sc.max_delay_us = 200;
  InferenceServer server(*registry, sc);
  server.start();

  std::atomic<bool> stop{false};
  std::thread reloader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      EXPECT_FALSE(registry->reload(manifest_path));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  const std::int64_t n = ds.test_x.shape().dim(0);
  std::vector<std::future<ServeResult>> futs;
  for (std::int64_t i = 0; i < 48; ++i) {
    const std::int64_t row = i % n;
    futs.push_back(server.submit(capsnet::slice_rows(ds.test_x, row, row + 1),
                                 i % 2 == 0 ? kVariantExact : kVariantEmulated));
  }
  for (auto& f : futs) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(120)), std::future_status::ready);
    const ServeResult res = f.get();
    EXPECT_TRUE(res.ok()) << serve_error_name(res.error.code);
  }
  stop.store(true, std::memory_order_relaxed);
  reloader.join();
  server.shutdown();

  EXPECT_EQ(registry->reloads_ok(), 0);
  EXPECT_GT(registry->reloads_failed(), 0);
  EXPECT_GT(fault::plan()->counters().checkpoint_corruptions, 0);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests, 48);
  EXPECT_TRUE(stats.reconciles());
}

TEST(Chaos, InertArmedPlanPreservesBitIdentity) {
  // An armed plan with every fault off must change nothing: the pinned-
  // arrival-order stream serves bit-identically to the unarmed run.
  const data::Dataset ds = small_dataset(10);
  std::unique_ptr<ModelRegistry> registry = make_registry(ds);

  const auto serve_pinned = [&]() {
    ServerConfig sc;
    sc.workers = 2;
    sc.max_batch = 4;
    sc.max_delay_us = 500;
    InferenceServer server(*registry, sc);
    std::vector<std::future<ServeResult>> futs;
    for (const char* variant : {kVariantExact, kVariantDesigned, kVariantEmulated}) {
      for (std::int64_t i = 0; i < 10; ++i) {
        futs.push_back(
            server.submit(capsnet::slice_rows(ds.test_x, i, i + 1), variant));
      }
    }
    server.start();
    std::vector<std::vector<float>> scores;
    for (auto& f : futs) {
      ServeResult res = f.get();
      EXPECT_TRUE(res.ok());
      scores.push_back(std::move(res.prediction.scores));
    }
    server.shutdown();
    return scores;
  };

  const std::vector<std::vector<float>> unarmed = serve_pinned();
  fault::FaultConfig inert;  // Defaults: every probability zero.
  ASSERT_FALSE(inert.any());
  fault::ScopedFaultPlan chaos(inert);
  const std::vector<std::vector<float>> armed = serve_pinned();
  ASSERT_EQ(unarmed.size(), armed.size());
  for (std::size_t i = 0; i < unarmed.size(); ++i) {
    ASSERT_EQ(unarmed[i], armed[i]) << "inert plan perturbed request " << i;
  }
}

TEST(Chaos, FaultPlanIsDeterministicPerSeed) {
  fault::FaultConfig fc;
  fc.seed = 99;
  fc.worker_stall_prob = 0.5;
  fc.backend_fail_prob = 0.25;
  const auto decisions = [](fault::FaultConfig cfg) {
    fault::FaultPlan plan(cfg);
    std::vector<bool> out;
    std::int64_t us = 0;
    for (int i = 0; i < 64; ++i) out.push_back(plan.stall_worker(us));
    for (int i = 0; i < 64; ++i) out.push_back(plan.fail_backend());
    return out;
  };
  const std::vector<bool> a = decisions(fc);
  EXPECT_EQ(a, decisions(fc));  // Same seed: same stream.
  fc.seed = 100;
  EXPECT_NE(a, decisions(fc));  // Different seed: different stream.

  // The stream actually mixes hits and misses at these probabilities.
  std::int64_t hits = 0;
  for (const bool b : a) hits += b ? 1 : 0;
  EXPECT_GT(hits, 0);
  EXPECT_LT(hits, static_cast<std::int64_t>(a.size()));
}

TEST(Chaos, FaultSpecParses) {
  fault::FaultConfig fc;
  ASSERT_TRUE(fault::parse_spec(
      "seed=7,stall=0.25,stall_us=1500,backend=0.1,ckpt=0.5,full=1,pressure=1", fc));
  EXPECT_EQ(fc.seed, 7U);
  EXPECT_DOUBLE_EQ(fc.worker_stall_prob, 0.25);
  EXPECT_EQ(fc.worker_stall_us, 1500);
  EXPECT_DOUBLE_EQ(fc.backend_fail_prob, 0.1);
  EXPECT_DOUBLE_EQ(fc.checkpoint_corrupt_prob, 0.5);
  EXPECT_TRUE(fc.force_queue_full);
  EXPECT_TRUE(fc.force_pressure);

  // The seed is an exact u64: 2^53 + 1 is not rounded through a double.
  ASSERT_TRUE(fault::parse_spec("seed=9007199254740993,kill_after=3,kill_name=w1", fc));
  EXPECT_EQ(fc.seed, 9007199254740993ULL);
  EXPECT_EQ(fc.kill_worker_after, 3);
  EXPECT_EQ(fc.kill_worker_name, "w1");

  ASSERT_TRUE(fault::parse_spec("", fc));
  EXPECT_FALSE(fc.any());
  EXPECT_FALSE(fault::parse_spec("stall", fc));          // No value.
  EXPECT_FALSE(fault::parse_spec("warp=1", fc));         // Unknown key.
  EXPECT_FALSE(fault::parse_spec("stall=fast", fc));     // Non-numeric.
  // Out of range: rejected, never cast.
  for (const char* bad : {"seed=-1", "seed=1e300", "seed=2.5", "stall_us=1e300",
                          "stall_us=-5", "stall=nan", "stall=-0.1", "backend=1.5",
                          "hb_drop=inf", "kill_after=1e19", "coord_crash=-1", "full=2",
                          // util/parse's rules: no empty items, integer keys
                          // take only decimal integers, whole tokens only.
                          "seed=1,,stall=0.5,", ",", "seed=1,", "=1", "stall_us=1e3",
                          "stall_us=1.0", "full=1.0", "pressure=1e0", "seed=+1", "stall= 0.5",
                          "seed=18446744073709551616", "stall=0x1p-2", "kill_name="}) {
    EXPECT_FALSE(fault::parse_spec(bad, fc)) << "accepted '" << bad << "'";
  }
}

}  // namespace
}  // namespace redcane::serve
