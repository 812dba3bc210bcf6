// Fault-tolerant distributed sweep coordinator.
//
// Owns a set of SweepShards (see core/sweep_plan.hpp) and drives them to
// completion across remote worker processes, surviving worker death,
// hangs, and corrupted result frames without changing a single bit of the
// assembled curves — shard values are order- and placement-independent by
// the sweep-plan determinism contract, so the scheduler is free to
// reassign at will.
//
// Scheduling: work-stealing with liveness deadlines. Each connected
// worker serves one shard at a time; any frame from a worker refreshes
// its last-seen stamp. A worker silent past the heartbeat deadline has
// its in-flight shard *stolen* — requeued with exponential backoff
// (dist/backoff) — while the connection stays open: if the straggler
// later delivers, the result is accepted as long as the shard is still
// incomplete (a late result is bitwise the same value a re-run would
// produce), which removes the livelock where every assignment is stolen
// just before finishing. Results for already-completed shards are
// dropped as duplicates. A shard abandoned more times than the retry
// budget is failed permanently (then local fallback, below, is its last
// resort).
//
// Every accepted result is appended to the crash-safe run journal
// (dist/journal) before it counts as complete, so a killed coordinator
// resumes without re-running finished shards.
//
// Graceful degradation: when no worker ever arrives, when every worker
// is lost mid-run, or when only budget-exhausted shards remain, the
// coordinator drains the remaining shards through the caller-supplied
// LocalExec (the in-process engine) instead of failing the run —
// distributed execution is an accelerator, never a correctness
// dependency.
//
// Accounting: every assignment reaches exactly one terminal state and
// every shard completion has exactly one source; DistStats::reconciles()
// checks the conservation laws (see struct) and the chaos tests assert
// it after every fault mix.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/sweep_plan.hpp"
#include "dist/backoff.hpp"
#include "dist/journal.hpp"

namespace redcane::dist {

struct CoordinatorConfig {
  std::string addr;            ///< dist_listen grammar ("unix:..." / "tcp:...").
  std::uint64_t job_hash = 0;  ///< Handshake guard (weights + grid recipe).
  std::int64_t heartbeat_deadline_ms = 1000;  ///< Silence before a steal.
  std::int64_t handshake_timeout_ms = 2000;
  std::int64_t worker_wait_ms = 3000;  ///< Wait for a first worker before degrading.
  int max_workers = 64;
  BackoffPolicy backoff;     ///< Requeue schedule + retry budget.
  std::string journal_path;  ///< "" = no journal (no crash resume).
};

/// In-process shard executor for graceful degradation — typically
/// core::run_shard on the coordinator's own engine. Called only from the
/// coordinator's run() thread.
using LocalExec = std::function<core::ShardOutcome(const core::SweepShard&)>;

/// Conservation-law counters of one coordinator run, a view of the
/// coordinator's instruments (children of the `dist_*_total` registry
/// counters). Besides the three laws below, on a complete run:
///   journal_resumed + results_accepted + local_completed == shards_total
struct DistStats {
  std::int64_t shards_total = 0;
  std::int64_t journal_resumed = 0;   ///< Completed from the resumed journal.
  std::int64_t assigned = 0;          ///< Assign frames sent.
  std::int64_t result_ok = 0;         ///< Active assignments returning an accepted result.
  std::int64_t result_dup = 0;        ///< Active assignments returning a duplicate.
  std::int64_t late_results = 0;      ///< Accepted results from already-stolen assignments.
  std::int64_t results_accepted = 0;  ///< result_ok + late_results.
  std::int64_t stolen = 0;            ///< Assignments stolen at the liveness deadline.
  std::int64_t lost = 0;              ///< Assignments abandoned by connection death.
  std::int64_t cancelled = 0;         ///< Assignments outstanding at shutdown.
  std::int64_t requeues = 0;          ///< Abandonments sent back to the queue.
  std::int64_t failed_permanent = 0;  ///< Abandonments past the retry budget.
  std::int64_t dropped_completed = 0; ///< Abandonments whose shard had already completed.
  std::int64_t local_completed = 0;   ///< Shards drained by the local fallback.
  std::int64_t workers_seen = 0;      ///< Successful handshakes.
  std::int64_t workers_refused = 0;   ///< Handshakes rejected (proto/job mismatch, capacity).
  std::int64_t corrupt_frames = 0;    ///< Connection-fatal bad frames received.
  std::int64_t heartbeats = 0;        ///< Heartbeat frames received.
  bool degraded = false;              ///< Local fallback engaged.

  // Heartbeat round-trip aggregates, from worker-measured RTTs carried in
  // v2 Heartbeat/Result frames (0 samples while workers are still waiting
  // for their first ack). Diagnostic only; no conservation law.
  std::int64_t rtt_samples = 0;
  std::int64_t rtt_min_us = 0;  ///< 0 until the first sample.
  std::int64_t rtt_max_us = 0;
  std::int64_t rtt_sum_us = 0;  ///< Mean = rtt_sum_us / rtt_samples.

  /// Assignment terminals (each assignment gets exactly one).
  [[nodiscard]] bool assignments_reconcile() const {
    return assigned == result_ok + result_dup + stolen + lost + cancelled;
  }
  /// Abandonment routing (each steal/loss goes exactly one way).
  [[nodiscard]] bool abandons_reconcile() const {
    return stolen + lost == requeues + failed_permanent + dropped_completed;
  }
  /// Accepted results by provenance.
  [[nodiscard]] bool results_reconcile() const {
    return results_accepted == result_ok + late_results;
  }
  /// True when the three laws above hold.
  [[nodiscard]] bool reconciles() const {
    return assignments_reconcile() && abandons_reconcile() && results_reconcile();
  }
};

struct CoordinatorResult {
  bool complete = false;  ///< Every shard has an outcome.
  /// Parallel to the constructor's shard list when complete.
  std::vector<core::ShardOutcome> outcomes;
  DistStats stats;
  JournalStats journal;
  std::string error;  ///< Diagnostic when !complete.
};

class Coordinator {
 public:
  /// `local` may be null; degradation then fails the run instead of
  /// draining in-process.
  Coordinator(CoordinatorConfig cfg, std::vector<core::SweepShard> shards,
              LocalExec local);
  ~Coordinator();
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Binds the listening socket (resolving tcp port 0) without serving.
  /// Call before starting workers that need bound_addr(); run() implies
  /// it. False + error on bind failure.
  [[nodiscard]] bool listen(std::string* error);
  [[nodiscard]] const std::string& bound_addr() const { return bound_addr_; }

  /// Runs the job to completion (or to unrecoverable failure / simulated
  /// coordinator crash). Blocking.
  [[nodiscard]] CoordinatorResult run();

 private:
  struct Impl;
  Impl* impl_;
  std::string bound_addr_;  ///< Mirrored from Impl after listen()/run().
};

}  // namespace redcane::dist
