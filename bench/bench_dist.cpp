// Distributed sweep throughput: the standard dist job (dist/job) run two
// ways over the same recipe:
//
//   serial       — the in-process reference, every plan unchunked on one
//                  engine, one worker thread, a one-thread compute pool
//                  (run_job_in_process).
//   distributed  — a coordinator plus N worker loops (threads here; real
//                  deployments use processes — the protocol is identical)
//                  on a TCP loopback socket, each worker with its own
//                  independently rebuilt model/dataset/engine pinned to a
//                  single thread. Worker processes are the parallelism.
//
// Both paths must produce bit-identical grids; the full profile must be
// >= 2x the serial reference at 4 workers (the gate this binary exits on)
// when the machine has at least as many hardware threads as workers — on
// smaller machines the speedup is core-capped and the gate becomes an
// overhead bound instead. --quick shrinks the job for CI, where protocol
// overhead dominates the tiny shards, so the gate drops to completion +
// identity + a loose floor. Results append one JSON line (shared schema, bench_common) to
// BENCH_dist.json, or BENCH_dist_ci.json under --quick.
//
// Usage: bench_dist [--quick] [--workers N] [--json PATH]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/sweep_plan.hpp"
#include "dist/coordinator.hpp"
#include "dist/job.hpp"
#include "dist/worker.hpp"
#include "util/pool.hpp"

namespace redcane::bench {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

int run(bool quick, int workers, std::string json_path) {
  const std::string profile = quick ? "quick" : "full";
  if (json_path.empty())
    json_path = quick ? "BENCH_dist_ci.json" : "BENCH_dist.json";
  print_header("Distributed sweep execution: coordinator + " +
               std::to_string(workers) + " workers vs in-process serial (" +
               profile + " profile)");

  // The comparison is 1 thread vs N single-threaded workers; don't let the
  // serial reference quietly use the whole machine.
  pool::set_threads(1);

  // Serial reference (also the bitwise-identity baseline).
  dist::StandardJob ref_job = dist::make_standard_job(profile);
  ref_job.rc.threads = 1;
  const std::size_t shard_count = ref_job.shards.size();
  std::printf("job %016llx: %zu shards, %lld test images\n",
              static_cast<unsigned long long>(ref_job.job_hash), shard_count,
              static_cast<long long>(ref_job.dataset.test_x.shape().dim(0)));
  const Clock::time_point t_serial = Clock::now();
  const dist::JobGrids reference = dist::run_job_in_process(ref_job);
  const double serial_ms = ms_since(t_serial);
  std::printf("  %-22s %10.1f ms\n", "in-process serial", serial_ms);

  // Distributed run: coordinator + N worker loops over TCP loopback.
  dist::StandardJob job = dist::make_standard_job(profile);
  dist::CoordinatorConfig cfg;
  cfg.addr = "tcp:127.0.0.1:0";
  cfg.job_hash = job.job_hash;
  core::SweepEngine local_engine(*job.model, job.dataset.test_x, job.dataset.test_y,
                                 dist::job_engine_config(job, /*threads=*/1));
  dist::Coordinator coordinator(cfg, job.shards,
                                [&local_engine](const core::SweepShard& s) {
                                  return core::run_shard(local_engine, s);
                                });
  {
    std::string error;
    if (!coordinator.listen(&error)) {
      std::fprintf(stderr, "listen failed: %s\n", error.c_str());
      return 1;
    }
  }

  std::vector<dist::WorkerStats> worker_stats(static_cast<std::size_t>(workers));
  std::vector<std::thread> worker_threads;
  for (int i = 0; i < workers; ++i) {
    worker_threads.emplace_back([&, i] {
      // Each worker rebuilds the job from the recipe, exactly as a worker
      // process would — model/dataset/engine construction included.
      dist::StandardJob wjob = dist::make_standard_job(profile);
      core::SweepEngine engine(*wjob.model, wjob.dataset.test_x, wjob.dataset.test_y,
                               dist::job_engine_config(wjob, /*threads=*/1));
      dist::WorkerConfig wc;
      wc.addr = coordinator.bound_addr();
      wc.name = "w" + std::to_string(i);
      wc.job_hash = wjob.job_hash;
      worker_stats[static_cast<std::size_t>(i)] = dist::run_worker(engine, wc);
    });
  }

  const Clock::time_point t_dist = Clock::now();
  const dist::CoordinatorResult result = coordinator.run();
  const double dist_ms = ms_since(t_dist);
  for (std::thread& t : worker_threads) t.join();
  std::printf("  %-22s %10.1f ms  (%.2fx vs serial)\n", "distributed", dist_ms,
              serial_ms / dist_ms);
  for (int i = 0; i < workers; ++i)
    std::printf("    worker w%d: %llu shards\n", i,
                static_cast<unsigned long long>(
                    worker_stats[static_cast<std::size_t>(i)].shards_done));

  if (!result.complete) {
    std::fprintf(stderr, "FAIL: distributed run incomplete: %s\n",
                 result.error.c_str());
    return 1;
  }
  const bool reconciles = result.stats.reconciles();
  const dist::JobGrids grids = dist::assemble_job(job, result.outcomes);
  const bool identical = dist::grids_identical(grids, reference);
  const double speedup = serial_ms / dist_ms;
  std::printf("grids bit-identical to in-process serial: %s\n",
              identical ? "yes" : "NO");
  std::printf("shard accounting reconciles: %s  (assigned=%lld ok=%lld "
              "stolen=%lld lost=%lld)\n",
              reconciles ? "yes" : "NO",
              static_cast<long long>(result.stats.assigned),
              static_cast<long long>(result.stats.result_ok),
              static_cast<long long>(result.stats.stolen),
              static_cast<long long>(result.stats.lost));

  JsonFields fields;
  fields.boolean("quick", quick)
      .str("profile", profile)
      .integer("shards", static_cast<std::int64_t>(shard_count))
      .integer("workers", workers)
      .integer("hw_threads", std::thread::hardware_concurrency())
      .integer("test_images", ref_job.dataset.test_x.shape().dim(0))
      .number("serial_ms", serial_ms, "%.1f")
      .number("dist_ms", dist_ms, "%.1f")
      .number("speedup", speedup, "%.2f")
      .integer("assigned", result.stats.assigned)
      .integer("result_ok", result.stats.result_ok)
      .integer("stolen", result.stats.stolen)
      .integer("lost", result.stats.lost)
      .boolean("degraded", result.stats.degraded)
      .boolean("reconciles", reconciles)
      .boolean("bit_identical", identical);
  append_bench_json(json_path, "dist", fields);

  // Full gate: with real parallel hardware the fleet must pay for its
  // sockets (>= 2x at 4 workers). On a box with fewer cores than workers
  // the speedup is physically capped near cores/1, so the gate drops to an
  // overhead bound: distribution must not cost more than ~2x serial even
  // time-sliced onto one core. Quick gate: the CI job is tiny (protocol
  // overhead dominates ~ms shards), so only a loose anti-regression floor
  // on top of the correctness checks.
  const unsigned cores = std::thread::hardware_concurrency();
  double floor = 2.0;
  if (quick) {
    floor = 0.15;
  } else if (cores < static_cast<unsigned>(workers)) {
    std::printf("note: %u hardware threads < %d workers; speedup is "
                "core-capped, gating on overhead instead\n",
                cores, workers);
    floor = 0.5;
  }
  const bool pass = identical && reconciles && speedup >= floor;
  std::printf("\n%s: distributed is %.2fx in-process serial at %d workers "
              "(target >= %.1fx, bit-identical + reconciled required)\n",
              pass ? "PASS" : "FAIL", speedup, workers, floor);
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace redcane::bench

int main(int argc, char** argv) {
  bool quick = false;
  int workers = 4;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc)
      workers = std::atoi(argv[++i]);
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) json_path = argv[++i];
  }
  return redcane::bench::run(quick, workers, json_path);
}
