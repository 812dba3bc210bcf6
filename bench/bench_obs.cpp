// Observability overhead: the armed-but-idle cost of span tracing on the
// serving hot path must stay under 2% — the contract that makes leaving
// REDCANE_TRACE armed in production defensible.
//
// Reuses bench_serve's closed-loop segment (queue pre-filled before the
// workers start, exact variant, dynamic batching) and times the drain
// with tracing disarmed vs armed. Nobody drains the rings during the
// timed region, so the armed figure is pure emission cost: one relaxed
// armed-load per span plus two steady-clock reads and a seqlock publish.
//
// Measurement discipline: the two states alternate within each rep
// (disarmed, armed, disarmed, armed, ...) and the gate compares the
// per-state minimum over all reps — min-of-N of an interleaved sequence
// cancels thermal drift and one-off scheduler noise that a
// first-all-then-all layout would bake into one side.
//
// Also asserts the bit-identity contract directly: the served predictions
// of the armed drain must equal the disarmed drain's, request for
// request.
//
// Results are appended as one JSON object to BENCH_obs.json.
//
// Usage: bench_obs [--quick] [--workers N] [--json PATH]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/groups.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"
#include "util/pool.hpp"

namespace redcane::bench {
namespace {

using Clock = std::chrono::steady_clock;

/// Same registry recipe as bench_serve: throughput depends only on the
/// architecture, so an untrained tiny CapsNet is enough.
std::unique_ptr<serve::ModelRegistry> make_registry(std::int64_t hw, const Tensor& probe) {
  capsnet::CapsNetConfig cfg = capsnet::CapsNetConfig::tiny();
  cfg.input_hw = hw;
  cfg.conv1_channels = 8;
  cfg.primary_types = 4;
  cfg.primary_dim = 4;
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

/// One closed-loop drain: pre-fill the queue, start the workers, time to
/// the last fulfilled future. Returns the elapsed ms and the predictions.
double drain_once(serve::ModelRegistry& registry, const Tensor& pool,
                  std::int64_t requests, const serve::ServerConfig& sc,
                  std::vector<std::int64_t>* labels) {
  serve::InferenceServer server(registry, sc);
  std::vector<std::future<serve::ServeResult>> futs;
  futs.reserve(static_cast<std::size_t>(requests));
  const std::int64_t n = pool.shape().dim(0);
  for (std::int64_t i = 0; i < requests; ++i) {
    futs.push_back(
        server.submit(capsnet::slice_rows(pool, i % n, i % n + 1), serve::kVariantExact));
  }
  const auto t0 = Clock::now();
  server.start();
  labels->clear();
  for (auto& f : futs) labels->push_back(f.get().prediction.label);
  const double ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  server.shutdown();
  return ms;
}

int run(bool quick, int workers_flag, const std::string& json_path) {
  print_header("Observability: armed-but-idle tracing overhead on the serve path");

  // Heavier per-request work than bench_serve's segment: with a model this
  // side of trivial the drain finishes in ~1 ms and scheduler jitter alone
  // swamps a 2% gate. hw 10 pushes one drain into the tens of ms, where
  // min-of-N is stable well under 1%.
  const std::int64_t hw = 10;
  const std::int64_t requests = quick ? 512 : 2000;
  const int reps = quick ? 5 : 7;
  const int workers = workers_flag > 0 ? workers_flag : pool::threads();

  data::SyntheticSpec spec;
  spec.kind = data::DatasetKind::kMnist;
  spec.hw = hw;
  spec.channels = 1;
  spec.train_count = 4;
  spec.test_count = 64;
  spec.seed = 43;
  const data::Dataset ds = data::make_synthetic(spec);

  std::unique_ptr<serve::ModelRegistry> registry =
      make_registry(hw, capsnet::slice_rows(ds.test_x, 0, 1));

  serve::ServerConfig sc;
  sc.workers = workers;
  sc.max_batch = 32;
  sc.max_delay_us = 2000;

  // Warm caches/allocator (and every worker's first-emit ring allocation)
  // outside the timed region.
  std::vector<std::int64_t> warm;
  obs::trace_arm(true);
  (void)drain_once(*registry, ds.test_x, std::min<std::int64_t>(requests, 64), sc, &warm);
  obs::trace_arm(false);

  std::printf("CapsNet tiny %lldx%lld, %lld requests, %d worker(s), %d interleaved reps\n\n",
              static_cast<long long>(hw), static_cast<long long>(hw),
              static_cast<long long>(requests), workers, reps);

  double min_disarmed = 0.0;
  double min_armed = 0.0;
  std::vector<std::int64_t> labels_disarmed;
  std::vector<std::int64_t> labels_armed;
  bool identical = true;
  for (int rep = 0; rep < reps; ++rep) {
    std::vector<std::int64_t> l_off;
    std::vector<std::int64_t> l_on;
    obs::trace_arm(false);
    const double off_ms = drain_once(*registry, ds.test_x, requests, sc, &l_off);
    obs::trace_arm(true);
    const double on_ms = drain_once(*registry, ds.test_x, requests, sc, &l_on);
    obs::trace_arm(false);
    if (rep == 0) {
      min_disarmed = off_ms;
      min_armed = on_ms;
      labels_disarmed = l_off;
      labels_armed = l_on;
    } else {
      min_disarmed = std::min(min_disarmed, off_ms);
      min_armed = std::min(min_armed, on_ms);
    }
    identical = identical && l_off == labels_disarmed && l_on == labels_armed;
    std::printf("  rep %d: disarmed %8.1f ms   armed %8.1f ms\n", rep, off_ms, on_ms);
  }
  identical = identical && labels_disarmed == labels_armed;

  const double overhead_pct = (min_armed - min_disarmed) / min_disarmed * 100.0;
  const std::uint64_t buffered = obs::trace_buffered();
  const std::uint64_t dropped = obs::trace_dropped();

  std::printf("\nmin-of-%d: disarmed %.1f ms, armed %.1f ms  ->  overhead %+.2f%%\n",
              reps, min_disarmed, min_armed, overhead_pct);
  std::printf("rings after run: %llu events buffered, %llu dropped to wraparound\n",
              static_cast<unsigned long long>(buffered),
              static_cast<unsigned long long>(dropped));
  std::printf("armed-vs-disarmed served predictions identical: %s\n",
              identical ? "yes" : "NO");

  JsonFields fields;
  fields.boolean("quick", quick)
      .integer("requests", requests)
      .integer("reps", reps)
      .integer("workers", workers)
      .number("disarmed_ms", min_disarmed, "%.2f")
      .number("armed_ms", min_armed, "%.2f")
      .number("overhead_pct", overhead_pct, "%.2f")
      .integer("events_buffered", static_cast<std::int64_t>(buffered))
      .integer("events_dropped", static_cast<std::int64_t>(dropped))
      .boolean("identical", identical);
  append_bench_json(json_path, "obs", fields);

  const bool pass = identical && overhead_pct < 2.0;
  std::printf("\n%s: armed-but-idle tracing costs %+.2f%% on the closed-loop serve "
              "drain (gate < 2%%, identical predictions required)\n",
              pass ? "PASS" : "FAIL", overhead_pct);
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace redcane::bench

int main(int argc, char** argv) {
  bool quick = false;
  int workers = 0;
  std::string json_path = "BENCH_obs.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) workers = std::atoi(argv[++i]);
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) json_path = argv[++i];
  }
  return redcane::bench::run(quick, workers, json_path);
}
