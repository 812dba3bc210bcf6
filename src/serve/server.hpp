// InferenceServer: the batched, fault-tolerant serving runtime for
// designed approximate CapsNets.
//
// Requests (one sample + a variant name) are submitted from any thread and
// resolved through std::future<ServeResult>. Dedicated batch-loop threads
// (they block on the queue, so they are not compute-pool tasks) drain the
// MicroBatcher, run one shared-weight eval forward per micro-batch
// (CapsModel::infer is thread-safe for concurrent eval), and fulfill each
// request with its predicted label, class scores and measured latency.
// When several loops run, each runs its kernels inline (util/pool's
// InlineScope) so they do not oversubscribe the machine; a single loop
// keeps the compute pool.
//
// Fault tolerance: no caller input can kill the process and no promise is
// ever left unresolved. Invalid submits (unknown variant, bad shape,
// post-shutdown), admission rejections (bounded queue full), deadline
// misses and backend failures all resolve the future with a typed
// ServeError (serve/result.hpp) instead of the seed runtime's abort().
// Above the queue's high watermark the server can optionally serve
// expensive variants (designed/emulated) with the cheap exact variant —
// flagged on the Prediction and counted — and sheds load instead of
// wedging. util/fault.hpp injects worker stalls, backend failures and
// queue pressure behind zero-cost-when-off hooks; tests/test_chaos.cpp is
// the soak proving every future resolves under every fault mix.
//
// Determinism: batch composition never depends on which worker pops (see
// batcher.hpp) and each designed-variant batch's noise stream is seeded
// from the batch's first request id — scheduling cannot perturb the math.
// For a pinned arrival order (submit before start()) with no faults, no
// deadline and no bounded queue — the defaults — served outputs are
// bit-identical across worker counts (tests/test_serve.cpp); under live
// traffic, exact-variant outputs remain bit-identical per sample while
// designed-variant noise follows the realized batch layout.
//
// Lifecycle: construct -> (optionally submit) -> start() -> submit/await ->
// shutdown(). Requests submitted before start() queue up and are served
// once workers exist — the identity tests use this to pin batch layout.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/batcher.hpp"
#include "serve/registry.hpp"
#include "serve/result.hpp"

namespace redcane::serve {

struct ServerConfig {
  /// Batch loops in flight, each on its own thread; 0 = pool::threads()
  /// (REDCANE_THREADS, else hardware concurrency). A cap on concurrent
  /// batches, not the compute pool's size.
  int workers = 0;
  std::int64_t max_batch = 16;       ///< Micro-batch coalescing ceiling [requests].
  std::int64_t max_delay_us = 2000;  ///< Head-of-line batching wait [us].
  std::int64_t max_queue = 0;        ///< Admission bound [requests]; 0 = unbounded.
  std::int64_t deadline_us = 0;      ///< Per-request deadline [us]; 0 = none.
  /// Above the queue high watermark, serve designed/emulated requests with
  /// the exact variant (flagged + counted) instead of queueing expensive
  /// work the server cannot keep up with.
  bool degrade_under_pressure = false;
};

/// Latency summary of one server lifetime, read out of the server's
/// log-linear obs::Histogram: O(1) memory however long the server lives,
/// quantiles with bounded (1/obs::Histogram::kSubBuckets per octave)
/// relative error, exact max.
struct LatencySummary {
  std::int64_t count = 0;  ///< Fulfilled requests measured.
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  double max_us = 0.0;
};

/// Aggregate counters of one server lifetime, a view of the server's
/// instruments. Conservation law (asserted by tests/test_chaos.cpp):
/// submitted == requests + rejected_invalid + rejected_queue_full +
/// rejected_shutdown + shed_deadline + backend_failed.
struct ServerStats {
  std::int64_t submitted = 0;  ///< submit() calls, accepted or not.
  std::int64_t requests = 0;   ///< Requests fulfilled with a prediction.
  std::int64_t batches = 0;    ///< Micro-batches executed.
  std::int64_t rejected_invalid = 0;     ///< Unknown variant / bad shape.
  std::int64_t rejected_queue_full = 0;  ///< Admission-control rejections.
  std::int64_t rejected_shutdown = 0;    ///< Submits after close.
  std::int64_t shed_deadline = 0;        ///< Expired at pop time.
  std::int64_t backend_failed = 0;       ///< Resolved with kBackendFailure.
  std::int64_t degraded = 0;  ///< Subset of `requests` served by "exact".
  int workers = 0;            ///< Resolved worker count.
  /// Enqueue->done latency [us] summary of every fulfilled request.
  LatencySummary latency;

  /// Mean fulfilled micro-batch size [requests/batch].
  [[nodiscard]] double mean_batch_size() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(requests) / static_cast<double>(batches);
  }

  /// The conservation law above; every submit is accounted exactly once.
  [[nodiscard]] bool reconciles() const {
    return submitted == requests + rejected_invalid + rejected_queue_full +
                            rejected_shutdown + shed_deadline + backend_failed;
  }
};

class InferenceServer {
 public:
  InferenceServer(ModelRegistry& registry, ServerConfig cfg);
  /// Joins workers (runs shutdown() if the caller did not).
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Enqueues one sample ([H, W, C] or [1, H, W, C]) for `variant` and
  /// returns the future of its result. Never aborts and never dangles:
  /// an unknown variant, a shape mismatch, a full queue or a post-
  /// shutdown submit resolve the future immediately with the matching
  /// typed ServeError.
  std::future<ServeResult> submit(const Tensor& sample, const std::string& variant);

  /// Spawns the worker threads. Idempotent.
  void start();

  /// Closes intake, drains the queue, joins the workers. Idempotent.
  void shutdown();

  [[nodiscard]] ServerStats stats() const;
  [[nodiscard]] const ServerConfig& config() const { return cfg_; }

  /// This server's latency histogram (enqueue->done, microseconds), for
  /// callers that need quantiles beyond the ServerStats summary. Valid
  /// for the server's lifetime; its parent is the process-wide
  /// `serve_latency_us` registry histogram.
  [[nodiscard]] const obs::Histogram& latency_histogram() const {
    return latency_hist_;
  }

  /// Queue-pressure flag of the underlying batcher (or fault-forced).
  [[nodiscard]] bool pressured() const;

 private:
  void worker_loop();
  void process_batch(std::vector<QueuedRequest>& batch);
  void resolve_expired(std::vector<QueuedRequest>& expired);
  /// Resolves `r` with a typed error and counts it in its terminal bucket.
  void resolve_error(QueuedRequest& r, ServeErrorCode code, std::string detail);

  ModelRegistry& registry_;
  ServerConfig cfg_;
  MicroBatcher batcher_;
  std::vector<std::thread> worker_threads_;
  bool started_ = false;
  bool stopped_ = false;

  /// Slots of `counts_`, in the order of the name table in server.cpp.
  enum Count : std::size_t {
    kSubmitted, kRequests, kBatches, kRejectedInvalid, kRejectedQueueFull,
    kRejectedShutdown, kShedDeadline, kBackendFailed, kDegraded, kCounts
  };
  static const obs::CounterTable<ServerStats, kCounts> kCountTable;

  const int workers_;
  std::array<obs::Counter, kCounts> counts_;  ///< Children of serve_*_total.
  obs::Histogram latency_hist_;               ///< Child of serve_latency_us.
  std::atomic<std::uint64_t> next_id_{0};
};

}  // namespace redcane::serve
