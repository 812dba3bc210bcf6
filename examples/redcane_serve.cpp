// redcane_serve — design an approximate CapsNet with ReD-CaNe, then serve
// it as a long-lived batched inference service next to the exact baseline.
//
//   redcane_serve [--smoke] [--model capsnet|deepcaps] [--dataset mnist|...]
//                 [--epochs N] [--train N] [--test N] [--workers N]
//                 [--batch N] [--delay-us N] [--out PREFIX]
//   redcane_serve --manifest PATH [--workers N] [--batch N] ...
//
// Without --manifest: trains the model, runs the 6-step methodology, writes
// a checkpoint (PREFIX.rdcn) + deployment manifest (PREFIX.manifest), then
// re-opens both through serve::ModelRegistry — the same loadable path a
// production deployment would take. With --manifest: skips design and
// serves an existing manifest.
//
// The serving phase drives synthetic traffic through the InferenceServer
// and reports throughput, p50/p99 latency, micro-batch statistics, the
// accuracy of both variants, and the exact-vs-designed prediction
// agreement — the deployed answer to "what does the approximate network
// cost me, per request".
//
// --smoke is the CI profile: a 20x20 tiny CapsNet, a reduced NM grid, two
// workers, and a pass/fail gate on the serving path staying sane.
//
// --faults SPEC (or env REDCANE_FAULTS) arms the deterministic fault
// injector for the whole run — useful for eyeballing the typed-error and
// degradation paths outside the chaos test suite.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "capsnet/capsnet_model.hpp"
#include "capsnet/deepcaps_model.hpp"
#include "capsnet/serialize.hpp"
#include "capsnet/trainer.hpp"
#include "cli_common.hpp"
#include "core/manifest.hpp"
#include "core/methodology.hpp"
#include "data/synthetic.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/attack_eval.hpp"
#include "serve/server.hpp"
#include "util/fault.hpp"

using namespace redcane;
using examples::Args;

namespace {

using Clock = std::chrono::steady_clock;

struct TrafficReport {
  double elapsed_s = 0.0;
  std::vector<std::int64_t> exact_labels;     ///< Per test sample (-1 = errored).
  std::vector<std::int64_t> designed_labels;  ///< Per test sample.
  std::vector<std::int64_t> emulated_labels;  ///< Per test sample.
  std::int64_t errors = 0;        ///< Futures resolved with a failure code.
  std::int64_t degraded = 0;      ///< Served by exact under queue pressure.
};

/// Submits every test sample to all three variants (exact wave, designed
/// wave, emulated wave — same-variant runs are what the micro-batcher
/// coalesces) and waits for all results. A typed error (possible under
/// --faults) records label -1 and is tallied, never crashes the driver.
TrafficReport drive_traffic(serve::InferenceServer& server, const Tensor& test_x) {
  const std::int64_t n = test_x.shape().dim(0);
  TrafficReport report;
  std::vector<std::future<serve::ServeResult>> exact_futs;
  std::vector<std::future<serve::ServeResult>> designed_futs;
  std::vector<std::future<serve::ServeResult>> emulated_futs;
  const auto t0 = Clock::now();
  for (std::int64_t i = 0; i < n; ++i) {
    exact_futs.push_back(
        server.submit(capsnet::slice_rows(test_x, i, i + 1), serve::kVariantExact));
  }
  for (std::int64_t i = 0; i < n; ++i) {
    designed_futs.push_back(
        server.submit(capsnet::slice_rows(test_x, i, i + 1), serve::kVariantDesigned));
  }
  for (std::int64_t i = 0; i < n; ++i) {
    emulated_futs.push_back(
        server.submit(capsnet::slice_rows(test_x, i, i + 1), serve::kVariantEmulated));
  }
  const auto drain = [&report](std::vector<std::future<serve::ServeResult>>& futs,
                               std::vector<std::int64_t>& labels) {
    for (auto& f : futs) {
      const serve::ServeResult res = f.get();
      labels.push_back(res.ok() ? res.prediction.label : -1);
      if (!res.ok()) ++report.errors;
      if (res.ok() && res.prediction.degraded) ++report.degraded;
    }
  };
  drain(exact_futs, report.exact_labels);
  drain(designed_futs, report.designed_labels);
  drain(emulated_futs, report.emulated_labels);
  report.elapsed_s = std::chrono::duration<double>(Clock::now() - t0).count();
  return report;
}

double accuracy_of(const std::vector<std::int64_t>& pred,
                   const std::vector<std::int64_t>& labels) {
  std::int64_t hits = 0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    if (pred[i] == labels[i]) ++hits;
  }
  return pred.empty() ? 0.0 : static_cast<double>(hits) / static_cast<double>(pred.size());
}

/// Final path component (the manifest references its checkpoint relative
/// to the manifest's own directory).
std::string base_name(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

int run(const Args& args) {
  const bool smoke = args.has("--smoke");
  // Observability sinks: --trace-out arms span tracing now and writes
  // chrome://tracing JSON before exit; --metrics-out dumps the registry
  // exposition. REDCANE_TRACE / REDCANE_METRICS do the same from the env.
  const std::string trace_out = args.get("--trace-out", "");
  const std::string metrics_out = args.get("--metrics-out", "");
  if (!trace_out.empty()) obs::trace_arm(true);
  // Deterministic fault injection: --faults SPEC (or REDCANE_FAULTS in the
  // environment) arms a seed-driven plan for the whole run. The spec
  // grammar is fault::parse_spec's ("seed=N,stall=P,backend=P,...").
  std::string fault_spec = args.get("--faults", "");
  if (fault_spec.empty()) {
    if (const char* env = std::getenv("REDCANE_FAULTS")) fault_spec = env;
  }
  fault::FaultConfig fault_cfg;
  if (!fault_spec.empty() && !fault::parse_spec(fault_spec, fault_cfg)) {
    std::fprintf(stderr, "bad --faults spec '%s'\n", fault_spec.c_str());
    return 2;
  }
  std::optional<fault::ScopedFaultPlan> fault_plan;
  if (fault_cfg.any()) {
    fault_plan.emplace(fault_cfg);
    std::printf("fault injection armed: %s\n", fault_spec.c_str());
  }
  std::string manifest_path = args.get("--manifest", "");
  const std::string model_name = args.get("--model", "capsnet");
  const bool deepcaps = model_name == "deepcaps";
  const std::string out_prefix = args.get("--out", smoke ? "serve_smoke" : "serve_design");
  const auto test_n = args.get_int("--test", smoke ? 64 : 200, 1, examples::kIntMax);

  data::Dataset ds;
  std::unique_ptr<serve::ModelRegistry> registry;
  if (!manifest_path.empty()) {
    // ---- Serve an existing design: traffic geometry comes from the
    // manifest's model, not from CLI defaults.
    registry = serve::ModelRegistry::open(manifest_path);
    if (registry == nullptr) return 1;
    const Shape in = registry->model().input_shape();
    const data::DatasetKind kind = examples::dataset_kind_of(
        args.get("--dataset", in.dim(2) == 3 ? "cifar10" : "mnist"));
    ds = examples::load_cli_dataset(args, kind, in.dim(0), /*train_n=*/0, test_n);
    if (ds.test_x.shape().dim(3) != in.dim(2)) {
      std::fprintf(stderr, "dataset '%s' has %lld channels but %s expects %lld\n",
                   ds.name.c_str(), static_cast<long long>(ds.test_x.shape().dim(3)),
                   registry->manifest().model.c_str(), static_cast<long long>(in.dim(2)));
      return 2;
    }
  } else {
    // ---- Design phase: train, run ReD-CaNe, export checkpoint + manifest.
    const data::DatasetKind kind =
        examples::dataset_kind_of(args.get("--dataset", deepcaps ? "cifar10" : "mnist"));
    const std::int64_t hw = args.get_int("--hw", deepcaps ? 16 : (smoke ? 20 : 28), 1, 1 << 16);
    const std::int64_t train_n = args.get_int("--train", smoke ? 240 : 600, 1, examples::kIntMax);
    ds = examples::load_cli_dataset(args, kind, hw, train_n, test_n);
    Rng rng(args.get_uint64("--seed", 7));
    std::unique_ptr<capsnet::CapsModel> model;
    std::string profile = "tiny";
    if (deepcaps) {
      capsnet::DeepCapsConfig cfg = capsnet::DeepCapsConfig::tiny();
      cfg.input_hw = hw;
      cfg.input_channels = ds.train_x.shape().dim(3);
      model = std::make_unique<capsnet::DeepCapsModel>(cfg, rng);
    } else {
      capsnet::CapsNetConfig cfg = capsnet::CapsNetConfig::tiny();
      cfg.input_hw = hw;
      cfg.input_channels = ds.train_x.shape().dim(3);
      model = std::make_unique<capsnet::CapsNetModel>(cfg, rng);
    }

    const auto epochs =
        static_cast<int>(args.get_int("--epochs", smoke ? 3 : 6, 0, examples::kIntMax));
    std::printf("designing: training %s on %s (%d epochs, %lld samples)...\n",
                model->name().c_str(), ds.name.c_str(), epochs,
                static_cast<long long>(train_n));
    capsnet::TrainConfig tc;
    tc.epochs = epochs;
    tc.batch_size = 24;
    tc.lr = 3e-3;
    capsnet::train(*model, ds.train_x, ds.train_y, tc);

    core::MethodologyConfig mc;
    // Serving injects every site's component jointly, so per-operation
    // budgets compound (see bench_design_validation); half the paper's 1 pp
    // per-op budget keeps the deployed design within ~1 pp of exact.
    mc.tolerance_pct = args.get_real("--tolerance", 0.5);
    mc.profile_chain_length = deepcaps ? 9 : 81;
    if (smoke) {
      mc.resilience.sweep.nms = {0.5, 0.05, 0.005, 0.0};
      mc.profile_samples = 4000;
    }
    std::printf("running the 6-step methodology...\n");
    const core::MethodologyResult result =
        core::run_redcane(*model, ds.test_x, ds.test_y, ds.name, mc);
    std::printf("  baseline accuracy %.2f%%, %zu sites, mean MAC power saving %.1f%%\n",
                result.baseline_accuracy * 100.0, result.sites.size(),
                result.mean_mac_power_saving() * 100.0);

    const std::string ckpt_path = out_prefix + ".rdcn";
    manifest_path = out_prefix + ".manifest";
    if (!capsnet::save_params(*model, ckpt_path)) {
      std::fprintf(stderr, "cannot write checkpoint %s\n", ckpt_path.c_str());
      return 1;
    }
    // The manifest references its checkpoint relative to its own directory
    // (they sit side by side under out_prefix), so store the basename.
    const core::DeploymentManifest manifest = core::make_deployment_manifest(
        result, result.profiled, *model, profile, base_name(ckpt_path),
        /*noise_seed=*/2020);
    if (!core::save_manifest(manifest, manifest_path)) {
      std::fprintf(stderr, "cannot write manifest %s\n", manifest_path.c_str());
      return 1;
    }
    std::printf("wrote %s and %s\n\n", ckpt_path.c_str(), manifest_path.c_str());

    // Re-open through the deployment path — the same loadable route a
    // production rollout would take.
    registry = serve::ModelRegistry::open(manifest_path);
    if (registry == nullptr) return 1;
  }

  // ---- Serving phase.
  std::printf("serving %s (%lld designed noise sites, %lld emulated MAC layers, "
              "baseline %.2f%% at design time)\n",
              registry->manifest().model.c_str(),
              static_cast<long long>(registry->designed_noisy_sites()),
              static_cast<long long>(registry->emulated_sites()),
              registry->manifest().baseline_accuracy * 100.0);

  serve::ServerConfig sc;
  sc.workers = static_cast<int>(args.get_int("--workers", smoke ? 2 : 0, 0, examples::kIntMax));
  sc.max_batch = args.get_int("--batch", smoke ? 8 : 16, 1, examples::kIntMax);
  sc.max_delay_us = args.get_int("--delay-us", 2000, 0, examples::kIntMax);
  serve::InferenceServer server(*registry, sc);
  server.start();

  const TrafficReport traffic = drive_traffic(server, ds.test_x);
  server.shutdown();
  serve::ServerStats stats = server.stats();

  const double exact_acc = accuracy_of(traffic.exact_labels, ds.test_y);
  const double designed_acc = accuracy_of(traffic.designed_labels, ds.test_y);
  const double emulated_acc = accuracy_of(traffic.emulated_labels, ds.test_y);
  const double agreement = accuracy_of(traffic.designed_labels, traffic.exact_labels);
  const double emu_agreement = accuracy_of(traffic.emulated_labels, traffic.exact_labels);

  std::printf("\n--- serving report (%d workers, max_batch %lld, max_delay %lld us) ---\n",
              stats.workers, static_cast<long long>(sc.max_batch),
              static_cast<long long>(sc.max_delay_us));
  std::printf("requests: %lld in %.3f s  ->  %.1f req/s over %lld micro-batches "
              "(mean batch %.1f)\n",
              static_cast<long long>(stats.requests), traffic.elapsed_s,
              static_cast<double>(stats.requests) / traffic.elapsed_s,
              static_cast<long long>(stats.batches), stats.mean_batch_size());
  std::printf("latency: p50 %.0f us, p99 %.0f us, p99.9 %.0f us (max %.0f)\n",
              stats.latency.p50_us, stats.latency.p99_us,
              stats.latency.p999_us, stats.latency.max_us);
  if (traffic.errors > 0 || traffic.degraded > 0 || !stats.reconciles()) {
    std::printf("robustness: %lld typed errors, %lld degraded-served, "
                "%lld queue-full, %lld deadline-shed, %lld backend-failed "
                "(counters %s)\n",
                static_cast<long long>(traffic.errors),
                static_cast<long long>(stats.degraded),
                static_cast<long long>(stats.rejected_queue_full),
                static_cast<long long>(stats.shed_deadline),
                static_cast<long long>(stats.backend_failed),
                stats.reconciles() ? "reconcile" : "DO NOT RECONCILE");
  }
  std::printf("accuracy: exact %.2f%%, designed %.2f%% (drop %+.2f pp), "
              "emulated %.2f%% (drop %+.2f pp)\n",
              exact_acc * 100.0, designed_acc * 100.0,
              (designed_acc - exact_acc) * 100.0, emulated_acc * 100.0,
              (emulated_acc - exact_acc) * 100.0);
  std::printf("exact-vs-designed prediction agreement: %.2f%%\n", agreement * 100.0);
  std::printf("exact-vs-emulated prediction agreement: %.2f%% "
              "(noise model vs behavioral ground truth: %+.2f pp)\n",
              emu_agreement * 100.0, (emulated_acc - designed_acc) * 100.0);

  // ---- Attacked evaluation mode (Step-8 serving surface): re-drive every
  // variant with perturbed inputs through a fresh, not-yet-started server
  // on the same registry (pinned arrival order => worker-count-independent
  // predictions; see serve/attack_eval.hpp).
  const std::string attack_spec = args.get("--attack", smoke ? "fgsm:eps=0.05" : "");
  bool attacked_ok = true;
  if (!attack_spec.empty()) {
    const serve::ParsedAttack parsed = serve::parse_attack_spec(attack_spec);
    if (!parsed.ok()) {
      std::fprintf(stderr, "bad --attack spec: %s: %s\n",
                   serve::serve_error_name(parsed.error.code),
                   parsed.error.detail.c_str());
      return 2;
    }
    std::printf("\n--- attacked evaluation (%s) ---\n", parsed.spec.key().c_str());
    const struct {
      const char* variant;
      double clean_acc;
    } waves[] = {{serve::kVariantExact, exact_acc},
                 {serve::kVariantDesigned, designed_acc},
                 {serve::kVariantEmulated, emulated_acc}};
    for (const auto& wave : waves) {
      serve::InferenceServer attacked_server(*registry, sc);
      serve::AttackedEvalConfig ac;
      ac.variant = wave.variant;
      ac.spec_text = attack_spec;
      const serve::AttackedEvalReport rep = serve::run_attacked_eval(
          attacked_server, *registry, ds.test_x, ds.test_y, ac);
      attacked_server.shutdown();
      if (!rep.ok()) {
        std::printf("  %-9s refused: %s (%s)\n", wave.variant,
                    serve::serve_error_name(rep.error.code), rep.error.detail.c_str());
        attacked_ok = false;
        continue;
      }
      std::printf("  %-9s attacked %.2f%% (clean %.2f%%, drop %+.2f pp, "
                  "%lld request errors)\n",
                  wave.variant, rep.accuracy * 100.0, wave.clean_acc * 100.0,
                  (rep.accuracy - wave.clean_acc) * 100.0,
                  static_cast<long long>(rep.request_errors));
      attacked_ok = attacked_ok && rep.request_errors == 0 &&
                    rep.labels.size() == static_cast<std::size_t>(test_n);
    }
  }

  bool obs_ok = true;
  if (!trace_out.empty()) obs_ok = obs::trace_write_chrome(trace_out) && obs_ok;
  if (!metrics_out.empty())
    obs_ok = obs::Registry::instance().write_text(metrics_out) && obs_ok;

  if (smoke) {
    // The emulated variant's *accuracy* is not gated here: behavioral
    // execution of aggressive Step-6 components can legitimately diverge
    // from the noise model that selected them — quantifying that gap is
    // Step 7's job (core::cross_validate_design), and the emulated path's
    // correctness is pinned bitwise by tests/test_backend.cpp. The gate
    // checks the serving machinery: every wave served, designed variant
    // agreeing with exact.
    const bool ok = stats.requests == 3 * test_n && agreement >= 0.5 &&
                    stats.mean_batch_size() >= 1.0 && attacked_ok && obs_ok;
    std::printf("\nsmoke gate (all clean + attacked waves served, designed "
                "agreement >= 50%%): %s\n",
                ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
  }
  return obs_ok ? 0 : 1;
}

void usage() {
  std::puts(
      "usage: redcane_serve [--smoke] [--manifest PATH] [--model capsnet|deepcaps]\n"
      "                     [--dataset mnist|fashion|cifar10|svhn] [--hw N]\n"
      "                     [--epochs N] [--train N] [--test N] [--tolerance PP]\n"
      "                     [--workers N] [--batch N] [--delay-us N] [--out PREFIX]\n"
      "                     [--data-dir DIR] [--faults SPEC] [--attack SPEC]\n"
      "                     [--trace-out PATH] [--metrics-out PATH]\n"
      "  --faults (or env REDCANE_FAULTS) arms deterministic fault injection;\n"
      "  SPEC is e.g. \"seed=7,stall=0.1,backend=0.05\" (see util/fault.hpp)\n"
      "  --attack runs an attacked evaluation wave per variant; SPEC is e.g.\n"
      "  \"fgsm:eps=0.1\", \"pgd:eps=0.1,steps=5\", \"rotate:deg=15\" (attack/attack.hpp)");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  if (args.has("--help") || args.has("-h")) {
    usage();
    return 2;
  }
  return run(args);
}
