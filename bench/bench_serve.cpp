// Serving-runtime throughput: dynamic micro-batching vs one-by-one serving
// of the same request stream, same worker count, same model.
//
//   single   — max_batch = 1: every request is its own forward (the naive
//              serving loop a sweep-style evaluate() would give you).
//   batched  — max_batch = 32 with a short coalescing window: the
//              InferenceServer as deployed.
//
// The request queue is pre-filled before the workers start, so both modes
// serve an identical stream and the exact variant's predictions must match
// request-for-request (batching a per-sample-independent forward changes
// nothing). The batched server must be >= 2x the single-request server —
// the gate this binary exits on.
//
// A third segment drives 2x-saturation open-loop overload at the hardened
// admission path (bounded queue, per-request deadlines, degradation to the
// exact variant) and reports shed-rate, deadline-miss-rate, degraded share
// and overload p99. Results are appended as one JSON object to
// BENCH_serve.json so serving behavior is machine-readable across commits.
//
// Usage: bench_serve [--quick] [--workers N] [--json PATH]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/groups.hpp"
#include "serve/server.hpp"
#include "util/pool.hpp"

namespace redcane::bench {
namespace {

using Clock = std::chrono::steady_clock;

/// Registry over an untrained small CapsNet (throughput depends only on
/// architecture) with a synthetic designed variant: every MAC-output site
/// carries a small component noise, as a real manifest would.
std::unique_ptr<serve::ModelRegistry> make_registry(std::int64_t hw, const Tensor& probe) {
  capsnet::CapsNetConfig cfg = capsnet::CapsNetConfig::tiny();
  cfg.input_hw = hw;
  cfg.conv1_channels = 4;
  cfg.primary_types = 2;
  cfg.primary_dim = 2;
  cfg.class_dim = 4;
  cfg.conv1_kernel = 3;
  cfg.primary_kernel = 3;
  Rng rng(2020);
  auto model = std::make_unique<capsnet::CapsNetModel>(cfg, rng);

  core::DeploymentManifest m;
  m.model = model->name();
  m.profile = "tiny";
  m.input_hw = hw;
  m.input_channels = 1;
  m.num_classes = cfg.num_classes;
  m.noise_seed = 2020;
  for (const core::Site& site : core::extract_sites(*model, probe)) {
    core::ManifestSite ms;
    ms.site = site;
    ms.component = "synthetic";
    if (site.kind == capsnet::OpKind::kMacOutput) ms.nm = 0.005;
    m.sites.push_back(ms);
  }
  return std::make_unique<serve::ModelRegistry>(std::move(model), std::move(m));
}

struct ModeResult {
  std::string name;
  double ms = 0.0;
  double req_per_s = 0.0;
  double mean_batch = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::vector<std::int64_t> labels;  ///< Prediction per request, stream order.
};

/// Pre-fills the queue with `requests` samples (cycling the pool) for
/// `variant`, then starts the workers and times the drain.
ModeResult run_mode(const std::string& name, serve::ModelRegistry& registry,
                    const Tensor& pool, std::int64_t requests, const std::string& variant,
                    serve::ServerConfig sc) {
  ModeResult r;
  r.name = name;
  // Warm caches/allocator so the first timed batch is not a cold outlier.
  for (int i = 0; i < 8; ++i) {
    (void)registry.model().infer(capsnet::slice_rows(pool, 0, 1));
  }
  (void)registry.model().infer(
      capsnet::slice_rows(pool, 0, std::min<std::int64_t>(sc.max_batch, pool.shape().dim(0))));
  serve::InferenceServer server(registry, sc);
  std::vector<std::future<serve::ServeResult>> futs;
  futs.reserve(static_cast<std::size_t>(requests));
  const std::int64_t n = pool.shape().dim(0);
  for (std::int64_t i = 0; i < requests; ++i) {
    futs.push_back(server.submit(capsnet::slice_rows(pool, i % n, i % n + 1), variant));
  }
  const auto t0 = Clock::now();
  server.start();
  for (auto& f : futs) r.labels.push_back(f.get().prediction.label);
  r.ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  server.shutdown();
  serve::ServerStats stats = server.stats();  // One snapshot, queried in place.
  r.req_per_s = static_cast<double>(requests) / (r.ms / 1e3);
  r.mean_batch = stats.mean_batch_size();
  r.p50_us = stats.latency.p50_us;
  r.p99_us = stats.latency.p99_us;
  return r;
}

struct OverloadResult {
  double arrival_per_s = 0.0;  ///< Open-loop offered load [req/s].
  double fulfilled_per_s = 0.0;
  double shed_rate = 0.0;           ///< queue_full rejects / submitted.
  double deadline_miss_rate = 0.0;  ///< deadline sheds / submitted.
  double degraded_share = 0.0;      ///< degraded / fulfilled.
  double p99_us = 0.0;              ///< Over fulfilled requests.
};

/// Open-loop overload: offers `requests` at 2x the measured saturation
/// rate against a bounded queue with deadlines and degradation armed. A
/// robust server sheds/degrades and keeps p99 bounded; the seed runtime
/// would have grown the queue without bound.
OverloadResult run_overload(serve::ModelRegistry& registry, const Tensor& pool,
                            std::int64_t requests, double saturation_per_s,
                            int workers) {
  serve::ServerConfig sc;
  sc.workers = workers;
  sc.max_batch = 32;
  sc.max_delay_us = 500;
  sc.max_queue = 128;
  sc.deadline_us = 100'000;
  sc.degrade_under_pressure = true;
  serve::InferenceServer server(registry, sc);
  server.start();

  OverloadResult r;
  r.arrival_per_s = 2.0 * saturation_per_s;
  const double gap_s = 1.0 / r.arrival_per_s;
  std::vector<std::future<serve::ServeResult>> futs;
  futs.reserve(static_cast<std::size_t>(requests));
  const std::int64_t n = pool.shape().dim(0);
  const auto t0 = Clock::now();
  for (std::int64_t i = 0; i < requests; ++i) {
    // Expensive-variant traffic: exactly what degradation is for.
    const char* variant =
        i % 2 == 0 ? serve::kVariantDesigned : serve::kVariantEmulated;
    futs.push_back(server.submit(capsnet::slice_rows(pool, i % n, i % n + 1), variant));
    const auto next = t0 + std::chrono::duration<double>(gap_s * static_cast<double>(i + 1));
    while (Clock::now() < next) std::this_thread::yield();
  }
  std::int64_t fulfilled = 0;
  for (auto& f : futs) {
    if (f.get().ok()) ++fulfilled;
  }
  const double elapsed_s =
      std::chrono::duration<double>(Clock::now() - t0).count();
  server.shutdown();

  serve::ServerStats stats = server.stats();
  const auto total = static_cast<double>(stats.submitted);
  r.fulfilled_per_s = static_cast<double>(fulfilled) / elapsed_s;
  r.shed_rate = static_cast<double>(stats.rejected_queue_full) / total;
  r.deadline_miss_rate = static_cast<double>(stats.shed_deadline) / total;
  r.degraded_share = stats.requests == 0
                         ? 0.0
                         : static_cast<double>(stats.degraded) /
                               static_cast<double>(stats.requests);
  r.p99_us = stats.latency.p99_us;
  return r;
}

int run(bool quick, int workers_flag, const std::string& json_path) {
  print_header("Serving runtime: dynamic micro-batching vs one-by-one");

  const std::int64_t hw = 6;
  const std::int64_t requests = quick ? 512 : 1024;
  const int workers = workers_flag > 0 ? workers_flag : pool::threads();

  data::SyntheticSpec spec;
  spec.kind = data::DatasetKind::kMnist;
  spec.hw = hw;
  spec.channels = 1;
  spec.train_count = 4;  // Unused; traffic only reads the test split.
  spec.test_count = 64;
  spec.seed = 43;
  const data::Dataset ds = data::make_synthetic(spec);

  std::unique_ptr<serve::ModelRegistry> registry =
      make_registry(hw, capsnet::slice_rows(ds.test_x, 0, 1));

  serve::ServerConfig single;
  single.workers = workers;
  single.max_batch = 1;
  single.max_delay_us = 0;
  serve::ServerConfig batched;
  batched.workers = workers;
  batched.max_batch = 32;
  batched.max_delay_us = 2000;

  std::printf("CapsNet tiny %lldx%lld, %lld requests, %d worker(s)\n\n",
              static_cast<long long>(hw), static_cast<long long>(hw),
              static_cast<long long>(requests), workers);

  const ModeResult r_single = run_mode("single-request", *registry, ds.test_x, requests,
                                       serve::kVariantExact, single);
  const ModeResult r_batched = run_mode("batched (max 32)", *registry, ds.test_x, requests,
                                        serve::kVariantExact, batched);
  const ModeResult r_designed = run_mode("batched designed", *registry, ds.test_x, requests,
                                         serve::kVariantDesigned, batched);

  const auto report = [](const ModeResult& r) {
    std::printf("  %-18s %10.1f ms  %9.1f req/s  mean batch %5.1f  p50 %7.0f us  "
                "p99 %7.0f us\n",
                r.name.c_str(), r.ms, r.req_per_s, r.mean_batch, r.p50_us, r.p99_us);
  };
  report(r_single);
  report(r_batched);
  report(r_designed);

  // Exact-arithmetic predictions are per-sample independent, so batching
  // must not change them.
  const bool identical = r_single.labels == r_batched.labels;
  std::printf("\nexact predictions identical across serving modes: %s\n",
              identical ? "yes" : "NO");

  // ---- Overload segment: 2x saturation against the hardened admission
  // path (bounded queue + deadlines + degradation).
  const std::int64_t over_requests = quick ? 512 : 2048;
  const OverloadResult over = run_overload(*registry, ds.test_x, over_requests,
                                           r_batched.req_per_s, workers);
  std::printf("\noverload (2x saturation, %lld expensive-variant requests):\n"
              "  offered %.0f req/s -> fulfilled %.1f req/s, shed %.1f%%, "
              "deadline-missed %.1f%%, degraded %.1f%% of served, p99 %.0f us\n",
              static_cast<long long>(over_requests), over.arrival_per_s,
              over.fulfilled_per_s, over.shed_rate * 100.0,
              over.deadline_miss_rate * 100.0, over.degraded_share * 100.0,
              over.p99_us);

  const double speedup = r_single.ms / r_batched.ms;
  JsonFields fields;
  fields.boolean("quick", quick)
      .str("model", "CapsNet-tiny")
      .integer("input_hw", hw)
      .integer("requests", requests)
      .integer("workers", workers)
      .integer("max_batch", batched.max_batch)
      .number("single_ms", r_single.ms, "%.1f")
      .number("batched_ms", r_batched.ms, "%.1f")
      .number("designed_ms", r_designed.ms, "%.1f")
      .number("speedup", speedup, "%.2f")
      .number("batched_mean_batch", r_batched.mean_batch, "%.1f")
      .number("batched_p50_us", r_batched.p50_us, "%.0f")
      .number("batched_p99_us", r_batched.p99_us, "%.0f")
      .boolean("identical", identical)
      .number("overload_offered_per_s", over.arrival_per_s, "%.0f")
      .number("overload_fulfilled_per_s", over.fulfilled_per_s, "%.1f")
      .number("overload_shed_rate", over.shed_rate, "%.4f")
      .number("overload_deadline_miss_rate", over.deadline_miss_rate, "%.4f")
      .number("overload_degraded_share", over.degraded_share, "%.4f")
      .number("overload_p99_us", over.p99_us, "%.0f");
  append_bench_json(json_path, "serve", fields);

  const bool pass = identical && speedup >= 2.0;
  std::printf("\n%s: dynamic batching is %.2fx one-by-one serving "
              "(target >= 2x, identical exact predictions required)\n",
              pass ? "PASS" : "FAIL", speedup);
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace redcane::bench

int main(int argc, char** argv) {
  bool quick = false;
  int workers = 0;
  std::string json_path = "BENCH_serve.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) workers = std::atoi(argv[++i]);
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) json_path = argv[++i];
  }
  return redcane::bench::run(quick, workers, json_path);
}
