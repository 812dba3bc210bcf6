// Distributed sweep worker: connects to a coordinator, executes assigned
// shards on its own SweepEngine, streams results back, and heartbeats.
//
// Each worker process builds its own model + test set (bitwise identical
// by construction: same training seed, same synthetic data generator —
// the job hash verifies the recipe at handshake). The worker never makes
// scheduling decisions: it runs exactly what it is assigned, one shard at
// a time, and the coordinator owns retry, reassignment, and dedup.
//
// Threads: one serving loop (recv/execute/send) plus one heartbeat
// thread sharing the socket under a send mutex, so a multi-second shard
// evaluation cannot starve the coordinator's liveness deadline. The
// serving thread runs its kernels inline (util/pool's InlineScope) — dist
// workers are the parallelism; letting each also fan out over the compute
// pool would oversubscribe the machine.
//
// Fault sites (util/fault, armed only in tests/chaos): kill-after-N-
// shards (exit without sending the pending result — the hard-crash
// case), heartbeat drop/delay, result-frame corruption, pre-send socket
// stall.
#pragma once

#include <cstdint>
#include <string>

#include "core/sweep_engine.hpp"

namespace redcane::dist {

struct WorkerConfig {
  std::string addr;             ///< Coordinator address (dist_listen grammar).
  std::string name = "worker";  ///< Diagnostic + kill_name fault selector.
  std::uint64_t job_hash = 0;   ///< Must match the coordinator's job.
  std::int64_t heartbeat_interval_ms = 100;
  std::int64_t connect_wait_ms = 5000;  ///< Total budget for connect retries.
};

struct WorkerStats {
  std::uint64_t shards_done = 0;
  std::uint64_t heartbeats_sent = 0;
  std::uint64_t heartbeat_acks = 0;  ///< HeartbeatAck frames received.
  std::uint64_t last_rtt_us = 0;     ///< Latest measured heartbeat RTT.
  bool handshake_ok = false;
  bool killed_by_fault = false;  ///< Exited via the kill_after fault site.
  std::string error;             ///< Terminal diagnostic ("" = clean shutdown).
};

/// Runs one worker until the coordinator shuts it down, the connection
/// dies, or a fault kills it. Blocking; call from a dedicated thread or
/// a worker process's main.
[[nodiscard]] WorkerStats run_worker(core::SweepEngine& engine, const WorkerConfig& cfg);

}  // namespace redcane::dist
