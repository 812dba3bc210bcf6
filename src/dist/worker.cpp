#include "dist/worker.hpp"

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "dist/wire.hpp"
#include "obs/trace.hpp"
#include "util/fault.hpp"

namespace redcane::dist {
namespace {

void sleep_us(std::int64_t us) {
  if (us > 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
}

/// Sends a result frame through the socket fault sites: pre-send stall,
/// then possibly a corrupted frame (CRC of the clean payload, one byte
/// flipped on the wire — the coordinator's checksum check must fire).
bool send_result(const Socket& sock, std::mutex& send_mu,
                 const ResultMsg& result) {
  util::ByteWriter w;
  encode_result(w, result);
  bool corrupt = false;
  if (fault::armed()) {
    fault::FaultPlan* plan = fault::plan();
    std::int64_t stall = 0;
    if (plan->stall_socket(stall)) sleep_us(stall);
    corrupt = plan->corrupt_result_frame();
  }
  std::lock_guard<std::mutex> lock(send_mu);
  return corrupt ? send_frame_corrupted(sock, MsgType::kResult, w.bytes())
                 : send_frame(sock, MsgType::kResult, w.bytes());
}

}  // namespace

WorkerStats run_worker(core::SweepEngine& engine, const WorkerConfig& cfg) {
  WorkerStats stats;

#ifdef _OPENMP
  // Workers ARE the parallelism; don't also fan each shard out over every
  // core (matches the serve worker-pool discipline).
  omp_set_num_threads(1);
#endif

  // Connect with retry: in the CI smoke the workers race the coordinator's
  // bind, and losing that race must not fail the run.
  Socket sock;
  {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(cfg.connect_wait_ms);
    std::string error;
    while (true) {
      sock = dist_connect(cfg.addr, &error);
      if (sock.valid()) break;
      if (std::chrono::steady_clock::now() >= deadline) {
        stats.error = "connect failed: " + error;
        return stats;
      }
      sleep_us(20'000);
    }
  }

  // Handshake.
  {
    util::ByteWriter w;
    HelloMsg hello;
    hello.proto = kProtoVersion;
    hello.job_hash = cfg.job_hash;
    hello.name = cfg.name;
    encode_hello(w, hello);
    if (!send_frame(sock, MsgType::kHello, w.bytes())) {
      stats.error = "hello send failed";
      return stats;
    }
    MsgType type{};
    std::vector<std::uint8_t> payload;
    const FrameStatus st = recv_frame(sock, 5000, &type, &payload);
    HelloAckMsg ack;
    util::ByteReader r(payload.data(), payload.size());
    if (st != FrameStatus::kOk || type != MsgType::kHelloAck ||
        !decode_hello_ack(r, &ack)) {
      stats.error = std::string("handshake failed: ") + frame_status_name(st);
      return stats;
    }
    if (!ack.accepted) {
      stats.error = "coordinator refused: " + ack.reason;
      return stats;
    }
    stats.handshake_ok = true;
  }

  // Heartbeat thread: liveness must not wait for a long shard evaluation.
  std::mutex send_mu;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> shards_done{0};
  std::atomic<std::uint64_t> heartbeats_sent{0};
  std::atomic<std::uint64_t> last_rtt_us{0};
  std::thread heartbeat([&] {
    while (!stop.load(std::memory_order_acquire)) {
      sleep_us(cfg.heartbeat_interval_ms * 1000);
      if (stop.load(std::memory_order_acquire)) break;
      if (fault::armed()) {
        fault::FaultPlan* plan = fault::plan();
        sleep_us(plan->heartbeat_delay_us());
        if (plan->drop_heartbeat()) continue;
      }
      util::ByteWriter w;
      HeartbeatMsg hb;
      hb.shards_done = shards_done.load(std::memory_order_relaxed);
      // RTT probe: the coordinator echoes this stamp in a HeartbeatAck;
      // the serving loop derives the round trip on this same clock.
      hb.t_send_us = obs::trace_now_us();
      hb.last_rtt_us = last_rtt_us.load(std::memory_order_relaxed);
      encode_heartbeat(w, hb);
      std::lock_guard<std::mutex> lock(send_mu);
      if (!send_frame(sock, MsgType::kHeartbeat, w.bytes())) return;
      heartbeats_sent.fetch_add(1, std::memory_order_relaxed);
    }
  });

  // Serving loop: one shard at a time, exactly as assigned.
  while (true) {
    MsgType type{};
    std::vector<std::uint8_t> payload;
    const FrameStatus st = recv_frame(sock, 200, &type, &payload);
    if (st == FrameStatus::kTimeout) continue;
    if (st != FrameStatus::kOk) {
      if (st != FrameStatus::kClosed)
        stats.error = std::string("recv failed: ") + frame_status_name(st);
      break;
    }
    if (type == MsgType::kShutdown) break;
    if (type == MsgType::kHeartbeatAck) {
      HeartbeatAckMsg ack;
      util::ByteReader r(payload.data(), payload.size());
      if (decode_heartbeat_ack(r, &ack)) {
        const std::uint64_t now = obs::trace_now_us();
        if (now >= ack.t_echo_us) {
          last_rtt_us.store(now - ack.t_echo_us, std::memory_order_relaxed);
        }
        ++stats.heartbeat_acks;
      }
      continue;
    }
    if (type != MsgType::kAssign) continue;  // Ignore unexpected-but-valid frames.

    AssignMsg assign;
    util::ByteReader r(payload.data(), payload.size());
    if (!decode_assign(r, &assign)) {
      stats.error = "undecodable assignment";
      break;
    }
    const core::SweepShard& shard = assign.shard;

    ResultMsg result;
    result.trace_id = assign.trace_id;
    core::ShardTimings timings;
    const std::uint64_t t_exec = obs::trace_now_us();
    {
      OBS_SPAN_ID("dist/worker_shard", assign.trace_id);
      result.outcome = core::run_shard(engine, shard, &timings);
    }
    result.exec_us = obs::trace_now_us() - t_exec;
    result.base_us = timings.base_us;
    result.points_us = timings.points_us;
    result.rtt_us = last_rtt_us.load(std::memory_order_relaxed);
    const std::uint64_t done_before =
        shards_done.load(std::memory_order_relaxed);

    // Kill fault: exit WITHOUT sending — the coordinator must recover the
    // shard via heartbeat deadline + reassignment, the hard-crash path.
    if (fault::armed() &&
        fault::plan()->kill_worker(
            cfg.name, static_cast<std::int64_t>(done_before))) {
      stats.killed_by_fault = true;
      stop.store(true, std::memory_order_release);
      break;
    }

    if (!send_result(sock, send_mu, result)) {
      stats.error = "result send failed";
      break;
    }
    shards_done.store(done_before + 1, std::memory_order_relaxed);
  }

  stop.store(true, std::memory_order_release);
  heartbeat.join();
  stats.shards_done = shards_done.load(std::memory_order_relaxed);
  stats.heartbeats_sent = heartbeats_sent.load(std::memory_order_relaxed);
  stats.last_rtt_us = last_rtt_us.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace redcane::dist
