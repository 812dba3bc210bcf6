// Distributed sweep launcher: one binary, three roles.
//
//   redcane_dist --coordinator [--addr A] [--journal PATH] [--resume]
//                [--verify] [--profile quick|full]
//                [--trace-out PATH] [--metrics-out PATH]
//   redcane_dist --worker --addr A [--name N] [--profile quick|full]
//   redcane_dist --local [--profile quick|full]
//
// The coordinator shards the standard job (dist/job) across however many
// workers connect, journals every completed shard, and — with --verify —
// re-runs the whole job in-process and exits nonzero unless the
// distributed grids are bitwise identical. Workers rebuild the same
// model/dataset from the profile recipe and serve shards until shut
// down. --local skips sockets entirely (the degradation path, run
// directly).
//
// Environment (flags win over environment):
//   REDCANE_DIST_ADDR          default for --addr
//   REDCANE_DIST_JOURNAL       default for --journal
//   REDCANE_DIST_HEARTBEAT_MS  coordinator liveness deadline [ms]
//   REDCANE_DIST_RETRY_BUDGET  max reassignments per shard
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "cli_common.hpp"
#include "core/sweep_plan.hpp"
#include "dist/coordinator.hpp"
#include "dist/job.hpp"
#include "dist/worker.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/fault.hpp"

namespace {

using namespace redcane;

std::string env_or(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' ? v : fallback;
}

void print_grids(const dist::JobGrids& grids) {
  for (const core::ResilienceCurve& c : grids.curves) {
    std::printf("  curve %-22s", c.label.c_str());
    for (double d : c.drop_pct) std::printf(" %7.3f", d);
    std::printf("\n");
  }
  for (const core::RobustnessGrid& g : grids.grids) {
    std::printf("  grid %s/%s:", g.scenario.c_str(), g.backend.c_str());
    for (double a : g.accuracy) std::printf(" %.4f", a);
    std::printf("\n");
  }
}

void print_stats(const dist::DistStats& s, const dist::JournalStats& j) {
  std::printf(
      "  shards=%lld assigned=%lld ok=%lld dup=%lld late=%lld stolen=%lld "
      "lost=%lld cancelled=%lld requeues=%lld failed=%lld dropped=%lld "
      "local=%lld resumed=%lld workers=%lld refused=%lld corrupt=%lld "
      "heartbeats=%lld degraded=%d reconciles=%d\n",
      static_cast<long long>(s.shards_total), static_cast<long long>(s.assigned),
      static_cast<long long>(s.result_ok), static_cast<long long>(s.result_dup),
      static_cast<long long>(s.late_results), static_cast<long long>(s.stolen),
      static_cast<long long>(s.lost), static_cast<long long>(s.cancelled),
      static_cast<long long>(s.requeues), static_cast<long long>(s.failed_permanent),
      static_cast<long long>(s.dropped_completed),
      static_cast<long long>(s.local_completed),
      static_cast<long long>(s.journal_resumed),
      static_cast<long long>(s.workers_seen),
      static_cast<long long>(s.workers_refused),
      static_cast<long long>(s.corrupt_frames), static_cast<long long>(s.heartbeats),
      s.degraded ? 1 : 0, s.reconciles() ? 1 : 0);
  // Liveness economics: how much churn fault recovery cost, and what the
  // heartbeat round trip looked like (worker-measured, see dist/wire.hpp).
  std::printf("  liveness: steals=%lld retries=%lld", static_cast<long long>(s.stolen),
              static_cast<long long>(s.requeues));
  if (s.rtt_samples > 0) {
    std::printf(" | heartbeat rtt: mean=%.0f us min=%lld max=%lld (%lld samples)",
                static_cast<double>(s.rtt_sum_us) / static_cast<double>(s.rtt_samples),
                static_cast<long long>(s.rtt_min_us),
                static_cast<long long>(s.rtt_max_us),
                static_cast<long long>(s.rtt_samples));
  }
  std::printf("\n");
  if (j.existed || j.records_appended > 0) {
    std::printf("  journal: loaded=%lld appended=%lld torn_bytes=%lld\n",
                static_cast<long long>(j.records_loaded),
                static_cast<long long>(j.records_appended),
                static_cast<long long>(j.torn_bytes_truncated));
  }
}

int run_coordinator(const examples::Args& args, const std::string& profile,
                    const std::string& addr) {
  dist::StandardJob job = dist::make_standard_job(profile);

  dist::CoordinatorConfig cfg;
  cfg.addr = addr;
  cfg.job_hash = job.job_hash;
  // Flag, then environment variable, then default.
  cfg.heartbeat_deadline_ms = examples::Args::int_value(
      "--heartbeat-ms / REDCANE_DIST_HEARTBEAT_MS",
      args.get("--heartbeat-ms", env_or("REDCANE_DIST_HEARTBEAT_MS", "")), 1000, 1,
      examples::kIntMax);
  cfg.backoff.budget = static_cast<int>(examples::Args::int_value(
      "--retry-budget / REDCANE_DIST_RETRY_BUDGET",
      args.get("--retry-budget", env_or("REDCANE_DIST_RETRY_BUDGET", "")), 4, 0,
      examples::kIntMax));
  cfg.journal_path = args.get("--journal", env_or("REDCANE_DIST_JOURNAL", ""));
  if (args.has("--resume") && cfg.journal_path.empty()) {
    std::fprintf(stderr, "--resume needs --journal (or REDCANE_DIST_JOURNAL)\n");
    return 2;
  }
  if (!args.has("--resume") && !cfg.journal_path.empty()) {
    std::remove(cfg.journal_path.c_str());  // Fresh run, fresh journal.
  }

  core::SweepEngine engine(*job.model, job.dataset.test_x, job.dataset.test_y,
                           dist::job_engine_config(job, /*threads=*/0));
  dist::Coordinator coordinator(
      cfg, job.shards,
      [&engine](const core::SweepShard& s) { return core::run_shard(engine, s); });
  {
    std::string error;
    if (!coordinator.listen(&error)) {
      std::fprintf(stderr, "listen failed: %s\n", error.c_str());
      return 1;
    }
  }
  std::printf("[dist] coordinator on %s (job %016llx, %zu shards)\n",
              coordinator.bound_addr().c_str(),
              static_cast<unsigned long long>(job.job_hash), job.shards.size());

  const dist::CoordinatorResult result = coordinator.run();
  print_stats(result.stats, result.journal);
  if (!result.complete) {
    std::fprintf(stderr, "[dist] incomplete: %s\n", result.error.c_str());
    return 1;
  }
  if (!result.stats.reconciles()) {
    std::fprintf(stderr, "[dist] shard accounting does not reconcile\n");
    return 1;
  }
  const dist::JobGrids grids = dist::assemble_job(job, result.outcomes);
  print_grids(grids);

  if (args.has("--verify")) {
    std::printf("[dist] verifying against the in-process engine...\n");
    const dist::JobGrids reference = dist::run_job_in_process(job);
    if (!dist::grids_identical(grids, reference)) {
      std::fprintf(stderr, "[dist] VERIFY FAILED: grids differ from in-process run\n");
      return 1;
    }
    std::printf("[dist] verify ok: bitwise identical to the in-process run\n");
  }
  return 0;
}

int run_worker(const examples::Args& args, const std::string& profile,
               const std::string& addr) {
  dist::StandardJob job = dist::make_standard_job(profile);
  core::SweepEngine engine(*job.model, job.dataset.test_x, job.dataset.test_y,
                           dist::job_engine_config(job, /*threads=*/1));
  dist::WorkerConfig cfg;
  cfg.addr = addr;
  cfg.name = args.get("--name", "worker");
  cfg.job_hash = job.job_hash;
  const dist::WorkerStats stats = dist::run_worker(engine, cfg);
  std::printf("[dist] worker %s: shards=%llu heartbeats=%llu%s%s\n",
              cfg.name.c_str(), static_cast<unsigned long long>(stats.shards_done),
              static_cast<unsigned long long>(stats.heartbeats_sent),
              stats.error.empty() ? "" : " error=", stats.error.c_str());
  return stats.handshake_ok && stats.error.empty() ? 0 : 1;
}

int run_local(const std::string& profile) {
  dist::StandardJob job = dist::make_standard_job(profile);
  const dist::JobGrids grids = dist::run_job_in_process(job);
  print_grids(grids);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  examples::Args args(argc, argv);
  const std::string profile = args.get("--profile", "quick");
  const std::string addr =
      args.get("--addr", env_or("REDCANE_DIST_ADDR", "tcp:127.0.0.1:0"));

  // Chaos knobs (tests/CI): arm the process-wide fault plan from the env.
  const char* fault_spec = std::getenv("REDCANE_FAULTS");
  std::unique_ptr<redcane::fault::ScopedFaultPlan> faults;
  if (fault_spec != nullptr && fault_spec[0] != '\0') {
    redcane::fault::FaultConfig fc;
    if (!redcane::fault::parse_spec(fault_spec, fc)) {
      std::fprintf(stderr, "bad REDCANE_FAULTS spec '%s'\n", fault_spec);
      return 2;
    }
    faults = std::make_unique<redcane::fault::ScopedFaultPlan>(fc);
  }

  // Observability sinks (flags; REDCANE_TRACE / REDCANE_METRICS work too
  // via the library's env arming). --trace-out on the coordinator captures
  // the merged timeline: local spans plus worker spans reconstructed from
  // Result frames.
  const std::string trace_out = args.get("--trace-out", "");
  const std::string metrics_out = args.get("--metrics-out", "");
  if (!trace_out.empty()) redcane::obs::trace_arm(true);

  int rc = 2;
  if (args.has("--coordinator")) {
    rc = run_coordinator(args, profile, addr);
  } else if (args.has("--worker")) {
    rc = run_worker(args, profile, addr);
  } else if (args.has("--local")) {
    rc = run_local(profile);
  } else {
    std::fprintf(stderr,
                 "usage: redcane_dist --coordinator|--worker|--local [--addr A] "
                 "[--profile quick|full] [--journal PATH] [--resume] [--verify] "
                 "[--name N] [--heartbeat-ms N] [--retry-budget N] "
                 "[--trace-out PATH] [--metrics-out PATH]\n");
    return 2;
  }
  if (!trace_out.empty() && !redcane::obs::trace_write_chrome(trace_out)) rc = 1;
  if (!metrics_out.empty() &&
      !redcane::obs::Registry::instance().write_text(metrics_out))
    rc = 1;
  return rc;
}
