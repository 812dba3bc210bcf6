// Chaos suite of the distributed sweep layer: every distributed fault
// site (util/fault), alone and mixed, against a real coordinator +
// worker-loop deployment. The contract after every scenario:
//  * the run completes (via reassignment, late results, or graceful
//    degradation to local execution),
//  * DistStats::reconciles() — every assignment reached exactly one
//    terminal state, every completion has exactly one source,
//  * the assembled grids are BITWISE identical to the in-process
//    analyzer — faults may cost time, never values.
// Plus resume-from-journal under a simulated coordinator crash, and the
// same crossed with worker chaos.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/sweep_engine.hpp"
#include "core/sweep_plan.hpp"
#include "dist/coordinator.hpp"
#include "dist/job.hpp"
#include "dist/worker.hpp"
#include "obs/metrics.hpp"
#include "util/fault.hpp"

namespace redcane::dist {
namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

struct ChaosRun {
  CoordinatorResult result;
  JobGrids grids;
  std::vector<WorkerStats> workers;
};

/// Runs the quick standard job through a coordinator + `n_workers` worker
/// loops over a unix socket, under whatever fault plan the caller armed.
/// Worker loops are threads here (processes in production — the protocol
/// and the fault sites cannot tell the difference). With `w0_first`, the
/// other workers connect only once the coordinator has accepted a result,
/// which then can only be w0's: w0 is alone for its first shard and is
/// assigned a second whatever the scheduling.
ChaosRun run_chaos(const char* sock_name, int n_workers,
                   CoordinatorConfig cfg,
                   std::int64_t heartbeat_interval_ms = 50, bool w0_first = false) {
  StandardJob job = make_standard_job("quick");
  cfg.addr = "unix:" + temp_path(sock_name);
  cfg.job_hash = job.job_hash;

  core::SweepEngine local_engine(*job.model, job.dataset.test_x, job.dataset.test_y,
                                 job_engine_config(job, /*threads=*/1));
  Coordinator coordinator(cfg, job.shards,
                          [&local_engine](const core::SweepShard& s) {
                            return core::run_shard(local_engine, s);
                          });
  std::string error;
  EXPECT_TRUE(coordinator.listen(&error)) << error;

  ChaosRun run;
  run.workers.resize(static_cast<std::size_t>(n_workers));
  const obs::Counter& results_ok = obs::Registry::instance().counter("dist_result_ok_total");
  const std::int64_t results_before = results_ok.value();
  std::vector<std::thread> threads;
  for (int i = 0; i < n_workers; ++i) {
    threads.emplace_back([&, i] {
      StandardJob wjob = make_standard_job("quick");
      core::SweepEngine engine(*wjob.model, wjob.dataset.test_x, wjob.dataset.test_y,
                               job_engine_config(wjob, /*threads=*/1));
      while (w0_first && i > 0 && results_ok.value() == results_before) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      WorkerConfig wc;
      wc.addr = coordinator.bound_addr();
      wc.name = "w" + std::to_string(i);
      wc.job_hash = wjob.job_hash;
      wc.heartbeat_interval_ms = heartbeat_interval_ms;
      run.workers[static_cast<std::size_t>(i)] = run_worker(engine, wc);
    });
  }
  run.result = coordinator.run();
  for (std::thread& t : threads) t.join();
  if (run.result.complete) run.grids = assemble_job(job, run.result.outcomes);
  return run;
}

/// The post-chaos contract every scenario must satisfy.
void expect_contract(const ChaosRun& run) {
  ASSERT_TRUE(run.result.complete) << run.result.error;
  const DistStats& s = run.result.stats;
  EXPECT_TRUE(s.reconciles())
      << "assigned=" << s.assigned << " ok=" << s.result_ok
      << " dup=" << s.result_dup << " stolen=" << s.stolen << " lost=" << s.lost
      << " cancelled=" << s.cancelled << " requeues=" << s.requeues
      << " failed=" << s.failed_permanent << " dropped=" << s.dropped_completed;
  // Completion-source conservation: every shard exactly once.
  EXPECT_EQ(s.journal_resumed + s.results_accepted + s.local_completed,
            s.shards_total);

  StandardJob ref_job = make_standard_job("quick");
  const JobGrids reference = run_job_in_process(ref_job);
  EXPECT_TRUE(grids_identical(run.grids, reference))
      << "chaos changed grid values — determinism contract broken";
}

TEST(DistChaos, KillOneWorkerMidRun) {
  fault::FaultConfig fc;
  fc.kill_worker_after = 1;  // w0 exits after its first completed shard...
  fc.kill_worker_name = "w0";  // ...without sending the second result.
  fault::ScopedFaultPlan plan(fc);

  CoordinatorConfig cfg;
  cfg.heartbeat_deadline_ms = 300;
  const ChaosRun run = run_chaos("chaos_kill_one.sock", 3, cfg, 50, /*w0_first=*/true);
  expect_contract(run);
  EXPECT_TRUE(run.workers[0].killed_by_fault);
  // The killed worker's in-flight shard was recovered one way or another.
  EXPECT_GE(run.result.stats.lost + run.result.stats.stolen, 1);
  EXPECT_EQ(plan.plan().counters().worker_kills, 1);
}

TEST(DistChaos, KillEveryWorkerDegradesToLocal) {
  fault::FaultConfig fc;
  fc.kill_worker_after = 0;  // Every worker dies on its first shard.
  fault::ScopedFaultPlan plan(fc);

  CoordinatorConfig cfg;
  cfg.heartbeat_deadline_ms = 300;
  const ChaosRun run = run_chaos("chaos_kill_all.sock", 2, cfg);
  expect_contract(run);
  EXPECT_TRUE(run.result.stats.degraded);
  EXPECT_GT(run.result.stats.local_completed, 0);
  for (const WorkerStats& w : run.workers) EXPECT_TRUE(w.killed_by_fault);
}

TEST(DistChaos, HeartbeatLossWithSlowResultsForcesStealsButAcceptsLateWork) {
  fault::FaultConfig fc;
  fc.heartbeat_drop_prob = 1.0;  // Total heartbeat loss...
  fc.sock_stall_prob = 1.0;      // ...and every result delayed past the
  fc.sock_stall_us = 250'000;    // liveness deadline: every assignment is
  fault::ScopedFaultPlan plan(fc);  // stolen, then lands late.

  CoordinatorConfig cfg;
  cfg.heartbeat_deadline_ms = 100;
  cfg.backoff.base_us = 1'000;  // Requeue fast; the test bounds wall time.
  cfg.backoff.budget = 50;      // Steals are routine here, not failures.
  const ChaosRun run = run_chaos("chaos_hb.sock", 2, cfg);
  expect_contract(run);
  EXPECT_GT(run.result.stats.stolen, 0);
  // The anti-livelock path did real work: stolen assignments delivered.
  EXPECT_GT(run.result.stats.late_results + run.result.stats.result_dup, 0);
  EXPECT_GT(plan.plan().counters().heartbeats_dropped, 0);
  EXPECT_GT(plan.plan().counters().socket_stalls, 0);
}

TEST(DistChaos, CorruptedResultFramesAreFatalToTheConnectionNotTheRun) {
  fault::FaultConfig fc;
  fc.frame_corrupt_prob = 0.3;
  fault::ScopedFaultPlan plan(fc);

  CoordinatorConfig cfg;
  cfg.heartbeat_deadline_ms = 500;
  cfg.backoff.base_us = 1'000;
  cfg.backoff.budget = 50;  // Corruption costs retries, never the run.
  const ChaosRun run = run_chaos("chaos_frame.sock", 3, cfg);
  expect_contract(run);
  EXPECT_GT(run.result.stats.corrupt_frames, 0);
  EXPECT_GT(plan.plan().counters().frames_corrupted, 0);
  // A corrupt frame costs the worker its connection and the shard re-runs.
  EXPECT_GE(run.result.stats.lost, run.result.stats.corrupt_frames);
}

TEST(DistChaos, StalledSocketsDelayButDoNotCorrupt) {
  fault::FaultConfig fc;
  fc.sock_stall_prob = 0.5;
  fc.sock_stall_us = 30'000;  // Under the deadline: stalls alone, no steals.
  fault::ScopedFaultPlan plan(fc);

  CoordinatorConfig cfg;
  cfg.heartbeat_deadline_ms = 1000;
  const ChaosRun run = run_chaos("chaos_stall.sock", 2, cfg);
  expect_contract(run);
  EXPECT_GT(plan.plan().counters().socket_stalls, 0);
}

TEST(DistChaos, CombinedFaultMix) {
  fault::FaultConfig fc;
  fc.kill_worker_after = 2;
  fc.kill_worker_name = "w1";
  fc.heartbeat_drop_prob = 0.5;
  fc.frame_corrupt_prob = 0.1;
  fc.sock_stall_prob = 0.3;
  fc.sock_stall_us = 40'000;
  fault::ScopedFaultPlan plan(fc);

  CoordinatorConfig cfg;
  cfg.heartbeat_deadline_ms = 250;
  cfg.backoff.base_us = 1'000;
  cfg.backoff.budget = 50;
  const ChaosRun run = run_chaos("chaos_mix.sock", 3, cfg);
  expect_contract(run);
}

TEST(DistChaos, CoordinatorCrashThenResumeUnderWorkerChaos) {
  const std::string journal = temp_path("chaos_resume.rdj");
  std::remove(journal.c_str());

  // Phase 1: coordinator "crashes" after 4 journal appends while workers
  // are also stalling.
  {
    fault::FaultConfig fc;
    fc.coord_crash_after = 4;
    fc.sock_stall_prob = 0.3;
    fc.sock_stall_us = 20'000;
    fault::ScopedFaultPlan plan(fc);

    CoordinatorConfig cfg;
    cfg.journal_path = journal;
    const ChaosRun run = run_chaos("chaos_resume1.sock", 2, cfg);
    EXPECT_FALSE(run.result.complete);
    EXPECT_GE(run.result.journal.records_appended, 4);
  }

  // Phase 2: resume from the journal under a different fault mix; the
  // journaled shards must not re-run, and the final grids must be bitwise
  // those of an uninterrupted run.
  {
    fault::FaultConfig fc;
    fc.frame_corrupt_prob = 0.1;
    fault::ScopedFaultPlan plan(fc);

    CoordinatorConfig cfg;
    cfg.journal_path = journal;
    cfg.backoff.base_us = 1'000;
    cfg.backoff.budget = 50;
    const ChaosRun run = run_chaos("chaos_resume2.sock", 2, cfg);
    expect_contract(run);
    EXPECT_GE(run.result.stats.journal_resumed, 4);
    EXPECT_LE(run.result.stats.results_accepted + run.result.stats.local_completed,
              run.result.stats.shards_total - 4);
  }
}

}  // namespace
}  // namespace redcane::dist
