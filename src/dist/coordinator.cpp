#include "dist/coordinator.hpp"

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "dist/wire.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/crc32.hpp"
#include "util/fault.hpp"

namespace redcane::dist {
namespace {

std::int64_t now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class Abandon { kSteal, kLost, kCancel };

/// Slots of Impl::counts, in the order of kCountTable.
enum Count : std::size_t {
  kShardsTotal, kJournalResumed, kAssigned, kResultOk, kResultDup, kLateResults,
  kResultsAccepted, kStolen, kLost, kCancelled, kRequeues, kFailedPermanent,
  kDroppedCompleted, kLocalCompleted, kWorkersSeen, kWorkersRefused, kCorruptFrames,
  kHeartbeats, kRttSamples, kRttSumUs, kCounts
};

/// Each DistStats counter by registry name.
const obs::CounterTable<DistStats, kCounts> kCountTable{{
    {"dist_shards_total", &DistStats::shards_total},
    {"dist_journal_resumed_total", &DistStats::journal_resumed},
    {"dist_assigned_total", &DistStats::assigned},
    {"dist_result_ok_total", &DistStats::result_ok},
    {"dist_result_dup_total", &DistStats::result_dup},
    {"dist_late_results_total", &DistStats::late_results},
    {"dist_results_accepted_total", &DistStats::results_accepted},
    {"dist_stolen_total", &DistStats::stolen},
    {"dist_lost_total", &DistStats::lost},
    {"dist_cancelled_total", &DistStats::cancelled},
    {"dist_requeues_total", &DistStats::requeues},
    {"dist_failed_permanent_total", &DistStats::failed_permanent},
    {"dist_dropped_completed_total", &DistStats::dropped_completed},
    {"dist_local_completed_total", &DistStats::local_completed},
    {"dist_workers_seen_total", &DistStats::workers_seen},
    {"dist_workers_refused_total", &DistStats::workers_refused},
    {"dist_corrupt_frames_total", &DistStats::corrupt_frames},
    {"dist_heartbeats_total", &DistStats::heartbeats},
    {"dist_rtt_samples_total", &DistStats::rtt_samples},
    {"dist_rtt_sum_us_total", &DistStats::rtt_sum_us},
}};

}  // namespace

struct Coordinator::Impl {
  CoordinatorConfig cfg;
  std::vector<core::SweepShard> shards;
  LocalExec local;

  Socket listener;
  std::string bound_addr;
  bool listening = false;

  /// Scheduler view of one shard. All fields under `mu`.
  struct ShardState {
    bool completed = false;
    bool failed = false;  ///< Retry budget exhausted; local drain is the last resort.
    bool queued = true;   ///< Awaiting (re)assignment.
    int failures = 0;     ///< Abandonment count (backoff attempt index).
    std::int64_t eligible_at_us = 0;
    int assigned_worker = -1;  ///< Worker id of the active assignment.
    std::uint64_t trace_id = 0;  ///< Correlation id of the latest assignment.
    core::ShardOutcome outcome;
  };

  struct WorkerConn {
    int id = 0;
    std::string name;
    Socket sock;
    std::thread thread;
    // Under mu:
    bool alive = false;  ///< Handshaked and connection healthy.
    bool stale = false;  ///< Past the liveness deadline; no new work until it speaks.
    std::int64_t last_seen_us = 0;
    std::int64_t current = -1;  ///< Shard index of the active assignment (-1 idle).
    std::uint64_t last_affinity = 0;  ///< Affinity key of the last assignment.
    bool has_affinity = false;
  };

  std::mutex mu;
  std::vector<ShardState> state;  ///< Parallel to shards.
  /// Cache-affinity key per shard (hash of spec+backend+component+bits):
  /// shards sharing a key reuse the same attacked eval set / backend plan
  /// inside one worker's engine, so the scheduler prefers handing a worker
  /// shards matching its previous assignment.
  std::vector<std::uint64_t> affinity;
  std::unordered_map<std::uint64_t, std::size_t> index_of_id;
  std::int64_t completed_count = 0;
  std::int64_t failed_count = 0;
  std::vector<std::unique_ptr<WorkerConn>> conns;
  /// Children of the dist_*_total registry counters, updated under `mu`.
  std::array<obs::Counter, kCounts> counts = obs::counters(kCountTable);
  bool degraded = false;        ///< Local fallback engaged.
  std::int64_t rtt_min_us = 0;  ///< 0 until the first sample.
  std::int64_t rtt_max_us = 0;
  Journal journal;
  bool journal_ok = false;
  bool crashed = false;  ///< Simulated coordinator crash (coord_crash fault).
  std::string error;

  std::atomic<bool> stop{false};

  // ---- shard bookkeeping (all callers hold mu) -----------------------

  /// Registry histograms (stable references; the registry leaks its
  /// instruments), resolved once, off the heartbeat and result paths.
  obs::Histogram& rtt_hist = obs::Registry::instance().histogram("dist_rtt_us");
  obs::Histogram& exec_hist = obs::Registry::instance().histogram("dist_shard_exec_us");

  /// Folds one worker-measured heartbeat RTT into the run aggregates.
  /// 0 means "no measurement yet" (the worker has not seen an ack).
  void record_rtt(std::uint64_t rtt_us) {
    if (rtt_us == 0) return;
    rtt_hist.observe(static_cast<double>(rtt_us));
    const auto r = static_cast<std::int64_t>(rtt_us);
    counts[kRttSamples].add();
    counts[kRttSumUs].add(r);
    if (rtt_min_us == 0 || r < rtt_min_us) rtt_min_us = r;
    if (r > rtt_max_us) rtt_max_us = r;
  }

  /// Picks the next shard for `w`: among eligible queued shards, prefer
  /// one sharing `w`'s last affinity key (its engine already holds that
  /// spec's attacked eval set); otherwise the first eligible. Pure
  /// scheduling preference — placement cannot change any value.
  std::int64_t pick_eligible(std::int64_t now, const WorkerConn* w) {
    std::int64_t first = -1;
    for (std::size_t i = 0; i < state.size(); ++i) {
      if (!(state[i].queued && !state[i].completed && !state[i].failed &&
            state[i].eligible_at_us <= now))
        continue;
      if (w != nullptr && w->has_affinity && affinity[i] == w->last_affinity)
        return static_cast<std::int64_t>(i);
      if (first < 0) first = static_cast<std::int64_t>(i);
    }
    return first;
  }

  /// Terminates `w`'s active assignment (if any) and routes the shard:
  /// already complete -> dropped; budget left -> requeue with backoff;
  /// budget exhausted -> failed permanently.
  void abandon_active(WorkerConn* w, Abandon why) {
    if (w->current < 0) return;
    ShardState& s = state[static_cast<std::size_t>(w->current)];
    const std::uint64_t shard_id = shards[static_cast<std::size_t>(w->current)].id;
    w->current = -1;
    s.assigned_worker = -1;
    switch (why) {
      case Abandon::kSteal: counts[kStolen].add(); break;
      case Abandon::kLost: counts[kLost].add(); break;
      case Abandon::kCancel: counts[kCancelled].add(); return;  // No requeue at shutdown.
    }
    if (s.completed) {
      counts[kDroppedCompleted].add();
      return;
    }
    ++s.failures;
    if (cfg.backoff.exhausted(s.failures)) {
      s.failed = true;
      s.queued = false;
      ++failed_count;
      counts[kFailedPermanent].add();
    } else {
      s.queued = true;
      s.eligible_at_us = now_us() + cfg.backoff.delay_us(shard_id, s.failures);
      counts[kRequeues].add();
    }
  }

  /// Records one completion (from any source) and journals it. Returns
  /// false when the coord_crash fault fires after the append.
  bool record_completion(std::size_t idx, core::ShardOutcome outcome) {
    ShardState& s = state[idx];
    s.completed = true;
    s.queued = false;
    if (s.failed) {  // A late result can rescue a budget-exhausted shard.
      s.failed = false;
      --failed_count;
    }
    s.outcome = std::move(outcome);
    ++completed_count;
    if (journal_ok && !journal.append(s.outcome)) {
      journal_ok = false;
      std::fprintf(stderr,
                   "dist: journal append failed; continuing without crash "
                   "resume\n");
    }
    if (fault::armed() &&
        fault::plan()->coord_crash(journal.stats().records_appended)) {
      crashed = true;
      error = "fault: simulated coordinator crash after journal append";
      stop.store(true, std::memory_order_release);
      return false;
    }
    return true;
  }

  // ---- per-connection serving ----------------------------------------

  void serve_conn(WorkerConn* w) {
    // Handshake.
    {
      MsgType type{};
      std::vector<std::uint8_t> payload;
      const FrameStatus st =
          recv_frame(w->sock, static_cast<int>(cfg.handshake_timeout_ms), &type, &payload);
      HelloMsg hello;
      WireReader r(payload.data(), payload.size());
      if (st != FrameStatus::kOk || type != MsgType::kHello ||
          !decode_hello(r, &hello)) {
        std::lock_guard<std::mutex> lock(mu);
        counts[kWorkersRefused].add();
        return;
      }
      HelloAckMsg ack;
      ack.worker_id = static_cast<std::uint32_t>(w->id);
      {
        std::lock_guard<std::mutex> lock(mu);
        if (hello.proto != kProtoVersion) {
          ack.reason = "protocol version mismatch";
        } else if (hello.job_hash != cfg.job_hash) {
          ack.reason = "job hash mismatch (different weights or grid)";
        } else if (degraded || stop.load(std::memory_order_acquire)) {
          ack.reason = "coordinator is shutting down or degraded";
        } else {
          ack.accepted = true;
          w->name = hello.name;
          w->alive = true;
          w->last_seen_us = now_us();
          counts[kWorkersSeen].add();
          // Remote spans synthesized from this worker's Result frames land
          // on pid = worker id + 1 (pid 0 is the coordinator process).
          obs::trace_set_process_name(static_cast<std::uint32_t>(w->id + 1),
                                      "worker:" + w->name);
        }
        if (!ack.accepted) counts[kWorkersRefused].add();
      }
      WireWriter ww;
      encode_hello_ack(ww, ack);
      const bool sent = send_frame(w->sock, MsgType::kHelloAck, ww.bytes());
      if (!ack.accepted || !sent) {
        std::lock_guard<std::mutex> lock(mu);
        w->alive = false;
        return;
      }
    }

    while (!stop.load(std::memory_order_acquire)) {
      // Hand out work when idle (and not deadline-stale: a silent worker
      // gets no fresh shards until it proves liveness again).
      bool have_assign = false;
      AssignMsg to_send;
      {
        std::lock_guard<std::mutex> lock(mu);
        if (w->alive && !w->stale && w->current < 0) {
          const std::int64_t idx = pick_eligible(now_us(), w);
          if (idx >= 0) {
            ShardState& s = state[static_cast<std::size_t>(idx)];
            s.queued = false;
            s.assigned_worker = w->id;
            s.trace_id = obs::next_correlation_id();
            w->current = idx;
            w->last_affinity = affinity[static_cast<std::size_t>(idx)];
            w->has_affinity = true;
            counts[kAssigned].add();
            to_send.trace_id = s.trace_id;
            to_send.shard = shards[static_cast<std::size_t>(idx)];
            have_assign = true;
          }
        }
      }
      if (have_assign) {
        WireWriter ww;
        encode_assign(ww, to_send);
        if (!send_frame(w->sock, MsgType::kAssign, ww.bytes())) {
          std::lock_guard<std::mutex> lock(mu);
          abandon_active(w, Abandon::kLost);
          w->alive = false;
          w->sock.close_now();
          return;
        }
      }

      MsgType type{};
      std::vector<std::uint8_t> payload;
      const FrameStatus st = recv_frame(w->sock, 20, &type, &payload);
      if (st == FrameStatus::kTimeout) continue;
      if (st != FrameStatus::kOk) {
        std::lock_guard<std::mutex> lock(mu);
        if (st == FrameStatus::kCorrupt || st == FrameStatus::kTooLarge)
          counts[kCorruptFrames].add();
        abandon_active(w, Abandon::kLost);
        w->alive = false;
        // Dropping the connection must be visible to the worker, or a peer
        // that only SENT garbage keeps recv-waiting on a half-dead socket.
        w->sock.close_now();
        return;
      }

      {
        std::lock_guard<std::mutex> lock(mu);
        w->last_seen_us = now_us();
        w->stale = false;
      }

      if (type == MsgType::kHeartbeat) {
        HeartbeatMsg hb;
        WireReader r(payload.data(), payload.size());
        if (!decode_heartbeat(r, &hb)) {
          std::lock_guard<std::mutex> lock(mu);
          counts[kCorruptFrames].add();
          abandon_active(w, Abandon::kLost);
          w->alive = false;
          w->sock.close_now();
          return;
        }
        {
          std::lock_guard<std::mutex> lock(mu);
          counts[kHeartbeats].add();
          record_rtt(hb.last_rtt_us);
        }
        // Echo the worker's send stamp so it can measure the round trip on
        // its own clock. This thread is the only sender on this socket, so
        // no send ordering can interleave mid-frame. Best effort: a failed
        // send means the connection is dying and the next recv reports it.
        WireWriter ww;
        encode_heartbeat_ack(ww, HeartbeatAckMsg{hb.t_send_us});
        (void)send_frame(w->sock, MsgType::kHeartbeatAck, ww.bytes());
        continue;
      }
      if (type != MsgType::kResult) continue;

      ResultMsg msg;
      WireReader r(payload.data(), payload.size());
      bool valid = decode_result(r, &msg);
      core::ShardOutcome& outcome = msg.outcome;
      std::size_t idx = 0;
      if (valid) {
        const auto it = index_of_id.find(outcome.id);
        valid = it != index_of_id.end();
        if (valid) {
          idx = it->second;
          // A frame that passes the CRC but carries the wrong number of
          // values is a worker-side logic failure (e.g. unknown emulated
          // component) — treat exactly like corruption: drop the
          // connection, requeue the shard.
          valid = outcome.acc.size() == shards[idx].expected_values();
        }
      }
      if (!valid) {
        std::lock_guard<std::mutex> lock(mu);
        counts[kCorruptFrames].add();
        abandon_active(w, Abandon::kLost);
        w->alive = false;
        w->sock.close_now();
        return;
      }

      // Stitch the worker's execution into the coordinator's timeline:
      // anchor the shipped durations at the frame's arrival time (worker
      // clocks are not comparable, arrival - exec is the best common
      // anchor). pid = worker id + 1 separates processes in the viewer.
      if (obs::trace_armed() && msg.exec_us > 0) {
        const std::uint64_t arrival = obs::trace_now_us();
        const std::uint64_t start =
            arrival > msg.exec_us ? arrival - msg.exec_us : 0;
        const auto pid = static_cast<std::uint32_t>(w->id + 1);
        obs::trace_emit_remote(pid, 1, "dist/worker_shard", start, msg.exec_us,
                               msg.trace_id);
        if (msg.base_us > 0) {
          obs::trace_emit_remote(pid, 1, "shard/base", start, msg.base_us,
                                 msg.trace_id);
        }
        if (msg.points_us > 0) {
          obs::trace_emit_remote(pid, 1, "shard/points", start + msg.base_us,
                                 msg.points_us, msg.trace_id);
        }
      }
      exec_hist.observe(static_cast<double>(msg.exec_us));

      std::lock_guard<std::mutex> lock(mu);
      record_rtt(msg.rtt_us);
      const bool was_active = w->current >= 0 &&
                              static_cast<std::size_t>(w->current) == idx;
      if (state[idx].completed) {
        // Duplicate (another worker or the local drain got there first).
        if (was_active) {
          counts[kResultDup].add();
          w->current = -1;
          state[idx].assigned_worker = -1;
        }
        continue;
      }
      // Accept — even from a stolen assignment: the value is bitwise what
      // any re-run would produce, and accepting stragglers removes the
      // steal-just-before-finish livelock.
      if (was_active) {
        counts[kResultOk].add();
        w->current = -1;
        state[idx].assigned_worker = -1;
      } else {
        counts[kLateResults].add();
      }
      counts[kResultsAccepted].add();
      if (!record_completion(idx, std::move(outcome))) {
        // Simulated coordinator crash: a dead process sends no Shutdown
        // but its fds do close — workers must see the connection drop.
        w->sock.close_now();
        return;
      }
    }

    // Clean shutdown: cancel whatever we still hold and tell the worker.
    bool tell_worker;
    bool simulate_crash;
    {
      std::lock_guard<std::mutex> lock(mu);
      abandon_active(w, Abandon::kCancel);
      tell_worker = w->alive && !crashed;
      simulate_crash = crashed;
      w->alive = false;
    }
    if (tell_worker) {
      // Best-effort; a dead peer just fails the send.
      (void)send_frame(w->sock, MsgType::kShutdown, {});
    } else if (simulate_crash) {
      w->sock.close_now();
    }
  }

  // ---- degradation ----------------------------------------------------

  /// Runs every incomplete shard through the local fallback. Returns
  /// false on coord_crash.
  bool drain_locally() {
    {
      std::lock_guard<std::mutex> lock(mu);
      degraded = true;
    }
    while (true) {
      core::SweepShard shard;
      std::size_t idx = 0;
      {
        std::lock_guard<std::mutex> lock(mu);
        bool found = false;
        for (std::size_t i = 0; i < state.size(); ++i) {
          if (!state[i].completed) {
            idx = i;
            shard = shards[i];
            found = true;
            break;
          }
        }
        if (!found) return true;
      }
      core::ShardOutcome outcome = local(shard);
      std::lock_guard<std::mutex> lock(mu);
      if (!state[idx].completed) {
        counts[kLocalCompleted].add();
        if (!record_completion(idx, std::move(outcome))) return false;
      }
    }
  }

  // ---- main loop ------------------------------------------------------

  bool do_listen(std::string* err) {
    if (listening) return true;
    listener = dist_listen(cfg.addr, &bound_addr, err);
    listening = listener.valid();
    return listening;
  }

  CoordinatorResult run() {
    OBS_SPAN("dist/run");
    CoordinatorResult result;
    {
      std::string err;
      if (!do_listen(&err)) {
        result.error = err;
        return result;
      }
    }

    // Journal open + resume.
    if (!cfg.journal_path.empty()) {
      std::vector<core::ShardOutcome> recovered;
      std::string err;
      if (!journal.open(cfg.journal_path, cfg.job_hash, &recovered, &err)) {
        result.error = err;
        return result;
      }
      journal_ok = true;
      std::lock_guard<std::mutex> lock(mu);
      for (core::ShardOutcome& o : recovered) {
        const auto it = index_of_id.find(o.id);
        if (it == index_of_id.end()) continue;
        const std::size_t idx = it->second;
        if (state[idx].completed ||
            o.acc.size() != shards[idx].expected_values())
          continue;
        ShardState& s = state[idx];
        s.completed = true;
        s.queued = false;
        s.outcome = std::move(o);
        ++completed_count;
        counts[kJournalResumed].add();
      }
    }

    const std::int64_t start = now_us();
    while (!stop.load(std::memory_order_acquire)) {
      // Accept (the 10 ms accept timeout is also the tick period).
      if (static_cast<int>(conns.size()) < cfg.max_workers) {
        Socket c = dist_accept(listener, 10);
        if (c.valid()) {
          auto conn = std::make_unique<WorkerConn>();
          conn->id = static_cast<int>(conns.size());
          conn->sock = std::move(c);
          WorkerConn* raw = conn.get();
          conn->thread = std::thread([this, raw] { serve_conn(raw); });
          conns.push_back(std::move(conn));
        }
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }

      bool need_drain = false;
      {
        std::lock_guard<std::mutex> lock(mu);
        const std::int64_t now = now_us();
        const std::int64_t total = static_cast<std::int64_t>(shards.size());
        if (completed_count == total) {
          stop.store(true, std::memory_order_release);
          break;
        }
        // Liveness deadlines: steal from the silent, but keep their
        // connection — a straggler's late result is still welcome.
        int live = 0;
        for (auto& w : conns) {
          if (!w->alive) continue;
          ++live;
          if (now - w->last_seen_us > cfg.heartbeat_deadline_ms * 1000) {
            w->stale = true;
            abandon_active(w.get(), Abandon::kSteal);
          }
        }
        const std::int64_t seen = counts[kWorkersSeen].value();
        const bool no_first_worker = seen == 0 && now - start > cfg.worker_wait_ms * 1000;
        const bool all_workers_lost = seen > 0 && live == 0;
        const bool only_failed_left =
            failed_count > 0 && completed_count + failed_count == total;
        need_drain = no_first_worker || all_workers_lost || only_failed_left;
      }
      if (need_drain) {
        if (!local) {
          std::lock_guard<std::mutex> lock(mu);
          error =
              "no workers available and no local fallback — cannot complete "
              "the sweep";
          stop.store(true, std::memory_order_release);
          break;
        }
        if (!drain_locally()) break;  // coord_crash fired mid-drain.
      }
    }

    stop.store(true, std::memory_order_release);
    for (auto& w : conns) {
      if (w->thread.joinable()) w->thread.join();
    }

    std::lock_guard<std::mutex> lock(mu);
    counts[kShardsTotal].add(static_cast<std::int64_t>(shards.size()));
    result.stats = obs::read(kCountTable, counts);
    result.stats.degraded = degraded;
    result.stats.rtt_min_us = rtt_min_us;
    result.stats.rtt_max_us = rtt_max_us;
    result.journal = journal.stats();
    result.error = error;
    result.complete =
        completed_count == static_cast<std::int64_t>(shards.size()) && !crashed;
    if (result.complete) {
      result.outcomes.reserve(state.size());
      for (ShardState& s : state) result.outcomes.push_back(std::move(s.outcome));
    } else if (result.error.empty()) {
      result.error = "sweep incomplete";
    }
    return result;
  }
};

Coordinator::Coordinator(CoordinatorConfig cfg, std::vector<core::SweepShard> shards,
                         LocalExec local)
    : impl_(new Impl) {
  // DistStats's laws over the process-wide totals (linear laws hold for
  // sums over runs), evaluated at quiescent points.
  obs::Registry& reg = obs::Registry::instance();
  reg.add_check("dist_assignment_conservation", [](const obs::Snapshot& s) {
    return obs::read(kCountTable, s).assignments_reconcile();
  });
  reg.add_check("dist_abandon_conservation", [](const obs::Snapshot& s) {
    return obs::read(kCountTable, s).abandons_reconcile();
  });
  reg.add_check("dist_results_conservation", [](const obs::Snapshot& s) {
    return obs::read(kCountTable, s).results_reconcile();
  });
  impl_->cfg = std::move(cfg);
  impl_->shards = std::move(shards);
  impl_->local = std::move(local);
  impl_->state.resize(impl_->shards.size());
  impl_->affinity.reserve(impl_->shards.size());
  for (std::size_t i = 0; i < impl_->shards.size(); ++i) {
    const core::SweepShard& s = impl_->shards[i];
    impl_->index_of_id[s.id] = i;
    WireWriter w;
    encode_attack_spec(w, s.spec);
    w.u8(static_cast<std::uint8_t>(s.backend));
    w.u32(static_cast<std::uint32_t>(s.bits));
    w.str(s.component);
    impl_->affinity.push_back(util::crc32(w.bytes().data(), w.bytes().size()));
  }
}

Coordinator::~Coordinator() { delete impl_; }

bool Coordinator::listen(std::string* error) {
  const bool ok = impl_->do_listen(error);
  if (ok) bound_addr_ = impl_->bound_addr;
  return ok;
}

CoordinatorResult Coordinator::run() {
  CoordinatorResult r = impl_->run();
  bound_addr_ = impl_->bound_addr;
  return r;
}

}  // namespace redcane::dist
