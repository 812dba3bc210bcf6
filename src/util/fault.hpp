// Deterministic fault injection for the runtime layers.
//
// ReD-CaNe injects noise into the *model* to measure its resilience; this
// module injects faults into the *runtime* to prove its resilience. It is
// a neutral layer below both users: the serving stack (src/serve/: worker
// stalls, backend execution failures, corrupted checkpoint reads,
// artificial queue pressure) and the distributed sweep (src/dist/: worker
// kills, heartbeat loss, frame corruption, socket stalls, coordinator
// crashes). The chaos suites (tests/test_chaos.cpp, tests/test_dist_chaos.cpp)
// arm every mix of these and assert each layer's fault-tolerance contract.
//
// Determinism: every decision is a pure function of (plan seed, fault
// site, per-site sequence number) through a splitmix64 hash — the k-th
// query at a site always answers the same for a given seed, regardless of
// which thread asks. Probabilities are compared against the hash mapped
// into [0, 1).
//
// Zero cost when off: the process-wide plan is a single atomic pointer,
// null by default. Production hooks read one relaxed-load branch
// (`fault::armed()`) and touch nothing else; arming happens only in tests,
// the chaos bench segment, and via the REDCANE_FAULTS env spec.
//
// Spec grammar (comma-separated key=value, e.g. for REDCANE_FAULTS or
// redcane_serve --faults). Values must be finite; probabilities lie in
// [0, 1], flags are 0 or 1, and counts and durations are non-negative
// integers that fit their field:
//   seed=N        decision-stream seed                     (default 1)
//   stall=P       worker stall probability per batch       (default 0)
//   stall_us=N    stall duration [us]                      (default 2000)
//   backend=P     backend execution failure probability    (default 0)
//   ckpt=P        checkpoint-read corruption probability   (default 0)
//   full=0|1      admission sees the queue as full         (default 0)
//   pressure=0|1  degraded mode forced on                  (default 0)
//
// Distributed-sweep fault sites (src/dist/), same grammar:
//   kill_after=N     worker exits after completing N shards   (default off)
//   kill_name=S      restrict kill_after to worker named S    (default all)
//   hb_drop=P        heartbeat-send drop probability          (default 0)
//   hb_delay_us=N    delay before each heartbeat send [us]    (default 0)
//   frame=P          result-frame payload corruption prob.    (default 0)
//   sock_stall=P     pre-send socket stall probability        (default 0)
//   sock_stall_us=N  socket stall duration [us]               (default 50000)
//   coord_crash=N    coordinator aborts after N journal
//                    appends (resume-from-journal tests)      (default off)
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace redcane::fault {

struct FaultConfig {
  std::uint64_t seed = 1;
  double worker_stall_prob = 0.0;      ///< Per popped batch.
  std::int64_t worker_stall_us = 2000; ///< Stall duration [us].
  double backend_fail_prob = 0.0;      ///< Per backend execution.
  double checkpoint_corrupt_prob = 0.0;  ///< Per checkpoint read.
  bool force_queue_full = false;       ///< Admission rejects everything.
  bool force_pressure = false;         ///< Degraded mode on regardless of depth.

  // Distributed-sweep sites (src/dist/).
  std::int64_t kill_worker_after = -1;   ///< Worker dies after N shards (-1 = off).
  std::string kill_worker_name;          ///< Restrict the kill to one worker ("" = any).
  double heartbeat_drop_prob = 0.0;      ///< Per heartbeat send.
  std::int64_t heartbeat_delay_us = 0;   ///< Added before every heartbeat send.
  double frame_corrupt_prob = 0.0;       ///< Per result frame sent.
  double sock_stall_prob = 0.0;          ///< Per result send.
  std::int64_t sock_stall_us = 50'000;   ///< Socket stall duration [us].
  std::int64_t coord_crash_after = -1;   ///< Coordinator aborts after N journal appends.

  [[nodiscard]] bool any() const {
    return worker_stall_prob > 0.0 || backend_fail_prob > 0.0 ||
           checkpoint_corrupt_prob > 0.0 || force_queue_full || force_pressure ||
           kill_worker_after >= 0 || heartbeat_drop_prob > 0.0 ||
           heartbeat_delay_us > 0 || frame_corrupt_prob > 0.0 ||
           sock_stall_prob > 0.0 || coord_crash_after >= 0;
  }
};

/// Injected-fault tally, for test reconciliation and chaos reports.
struct FaultCounters {
  std::int64_t worker_stalls = 0;
  std::int64_t backend_failures = 0;
  std::int64_t checkpoint_corruptions = 0;
  std::int64_t worker_kills = 0;
  std::int64_t heartbeats_dropped = 0;
  std::int64_t frames_corrupted = 0;
  std::int64_t socket_stalls = 0;
};

/// The fault sites: one sequence counter and one hit counter each. The
/// first six are probabilistic decision streams; the worker kill is a pure
/// comparison that only counts its hits.
enum class Site : std::uint8_t {
  kWorkerStall,
  kBackend,
  kCheckpoint,
  kHeartbeat,
  kFrame,
  kSocket,
  kWorkerKill,
};
inline constexpr std::size_t kSiteCount = static_cast<std::size_t>(Site::kWorkerKill) + 1;

/// A seed-driven fault decision stream. Thread-safe: per-site sequence
/// counters are atomic, decisions are pure hashes.
class FaultPlan {
 public:
  explicit FaultPlan(FaultConfig cfg);

  /// True when the worker should stall before handling its next batch;
  /// `us` receives the stall duration.
  [[nodiscard]] bool stall_worker(std::int64_t& us);

  /// True when this backend execution should fail.
  [[nodiscard]] bool fail_backend() { return decide(Site::kBackend); }

  /// True when this checkpoint read should be corrupted.
  [[nodiscard]] bool corrupt_checkpoint() { return decide(Site::kCheckpoint); }

  /// True when the dist worker named `name` should exit (without sending
  /// its pending result) after having completed `shards_done` shards. A
  /// pure comparison, not a decision stream: the k-th shard kill is the
  /// k-th shard kill on every replay.
  [[nodiscard]] bool kill_worker(const std::string& name, std::int64_t shards_done);

  /// True when this heartbeat send should be silently dropped.
  [[nodiscard]] bool drop_heartbeat() { return decide(Site::kHeartbeat); }

  /// Artificial delay added before every heartbeat send [us] (0 = none).
  [[nodiscard]] std::int64_t heartbeat_delay_us() const {
    return cfg_.heartbeat_delay_us;
  }

  /// True when this result frame's payload should be corrupted in flight.
  [[nodiscard]] bool corrupt_result_frame() { return decide(Site::kFrame); }

  /// True when the worker should stall before its next result send;
  /// `us` receives the stall duration.
  [[nodiscard]] bool stall_socket(std::int64_t& us);

  /// True when the coordinator should abort after its `appends`-th journal
  /// append (pure comparison — resume tests crash at a known point).
  [[nodiscard]] bool coord_crash(std::int64_t appends) const {
    return cfg_.coord_crash_after >= 0 && appends >= cfg_.coord_crash_after;
  }

  [[nodiscard]] bool queue_full() const { return cfg_.force_queue_full; }
  [[nodiscard]] bool pressure() const { return cfg_.force_pressure; }

  [[nodiscard]] const FaultConfig& config() const { return cfg_; }
  [[nodiscard]] FaultCounters counters() const;

 private:
  /// THE decision path of every probabilistic site: true when the next
  /// query at `site` should fault (counted as a hit). A site whose
  /// probability is 0 never faults and does not advance its sequence.
  [[nodiscard]] bool decide(Site site);

  FaultConfig cfg_;
  std::array<double, kSiteCount> prob_{};  ///< Per-site fault probability.
  std::array<std::atomic<std::uint64_t>, kSiteCount> seq_{};
  std::array<std::atomic<std::int64_t>, kSiteCount> hits_{};
};

/// True when a fault plan is armed process-wide. The only cost production
/// code pays when chaos is off.
[[nodiscard]] bool armed();

/// The armed plan (null when !armed()). Callers must check armed() first;
/// the pointer stays valid for the lifetime of the arming ScopedFaultPlan.
[[nodiscard]] FaultPlan* plan();

/// RAII arming of a process-wide plan (tests / chaos segments only).
/// Nesting is a programming error; the inner scope refuses and stays inert.
class ScopedFaultPlan {
 public:
  explicit ScopedFaultPlan(FaultConfig cfg);
  ~ScopedFaultPlan();

  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;

  [[nodiscard]] FaultPlan& plan() { return plan_; }

 private:
  FaultPlan plan_;
  bool installed_ = false;
};

/// Parses the spec grammar above into `out` (unparsed keys fail). Returns
/// false (leaving `out` unspecified) on a malformed spec or an
/// out-of-range value.
[[nodiscard]] bool parse_spec(const std::string& spec, FaultConfig& out);

/// Writes a copy of `src` truncated at a seed-driven offset strictly inside
/// the file (so parsers must reject it) to `dst`. Returns false on I/O
/// failure or when `src` is empty. Used by the checkpoint-read fault site.
[[nodiscard]] bool write_truncated_copy(const std::string& src, const std::string& dst,
                                        std::uint64_t seed);

}  // namespace redcane::fault
