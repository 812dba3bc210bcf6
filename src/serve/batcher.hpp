// Dynamic micro-batching request queue of the serving runtime, with
// bounded admission and per-request deadlines.
//
// Requests arrive one sample at a time; GEMM-backed CapsNet inference is
// far more efficient per sample on a batch, so the batcher coalesces the
// queue head into micro-batches: consecutive same-variant requests, up to
// `max_batch` of them, waiting at most `max_delay_us` past the head
// request's arrival for co-batchable followers (and not at all when a
// different-variant request is already queued right behind the run —
// waiting could not grow the batch).
//
// Backpressure (all opt-in, zero behavior change at the defaults):
//   * max_queue > 0 bounds the queue; push rejects with kFull at the
//     bound instead of growing an unbounded deque under a burst.
//   * high/low watermarks (derived from max_queue unless set) drive a
//     hysteresis `pressured()` flag: raised when depth reaches the high
//     watermark, cleared when it drains to the low one. The server uses
//     it to degrade expensive variants to "exact" (see server.hpp).
//   * a request whose `deadline` is set and already past at pop time is
//     shed into the `expired` list instead of wasting a batch slot; the
//     server resolves it with ServeError::kDeadlineExceeded.
//
// Workers pop under one lock and always take the queue-head run, so batch
// composition is a pure function of the queue's content at pop time —
// never of which worker pops. For a pinned arrival order (queue filled
// before the workers start) and no deadlines, batches and therefore served
// outputs are bit-identical across worker counts (tests/test_serve.cpp).
// Under live traffic, pop timing relative to arrivals still shapes the
// batches; exact-variant outputs are per-sample independent and stay
// bit-identical regardless, while designed-variant noise depends on the
// batch layout.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <string>
#include <vector>

#include "serve/result.hpp"
#include "tensor/tensor.hpp"

namespace redcane::serve {

using ServeClock = std::chrono::steady_clock;

/// One queued request: a single sample bound for a named model variant.
struct QueuedRequest {
  std::uint64_t id = 0;
  std::string variant;            ///< Variant that will execute it.
  std::string requested_variant;  ///< Variant the caller asked for (differs
                                  ///< from `variant` when degraded).
  bool degraded = false;
  Tensor x;  ///< One sample, [1, H, W, C].
  ServeClock::time_point enqueued;
  ServeClock::time_point deadline;  ///< Shed-after time; unset when !has_deadline.
  bool has_deadline = false;
  std::promise<ServeResult> done;
};

struct BatcherConfig {
  std::int64_t max_batch = 16;       ///< Coalescing ceiling [requests].
  std::int64_t max_delay_us = 2000;  ///< Head-of-line wait for co-batchable arrivals [us].
  std::int64_t max_queue = 0;        ///< Queue bound [requests]; 0 = unbounded.
  std::int64_t high_watermark = 0;   ///< Pressure on at this depth; 0 = 3/4 max_queue.
  std::int64_t low_watermark = 0;    ///< Pressure off at this depth; 0 = 1/2 max_queue.
};

/// Admission outcome of MicroBatcher::push.
enum class PushStatus {
  kAccepted,
  kClosed,  ///< Batcher closed: nothing would ever pop the request.
  kFull,    ///< Queue at max_queue: admission control rejected.
};

class MicroBatcher {
 public:
  /// Clamps max_batch to >= 1, delays/bounds to >= 0, and derives unset
  /// watermarks from max_queue (no-ops while max_queue == 0).
  explicit MicroBatcher(BatcherConfig cfg);

  /// Enqueues a request (FIFO). On kClosed/kFull `r` is left untouched so
  /// the caller can resolve its promise with the matching typed error.
  [[nodiscard]] PushStatus push(QueuedRequest& r);

  /// Blocks for the next micro-batch (the queue-head run of same-variant
  /// requests, bounded by max_batch/max_delay_us). Requests already past
  /// their deadline are moved to `expired` instead of `out` — `out` may
  /// come back empty while `expired` is not. Returns false once the
  /// batcher is closed and drained — the worker-pool exit signal.
  bool pop_batch(std::vector<QueuedRequest>& out, std::vector<QueuedRequest>& expired);

  /// Ends intake; blocked pop_batch calls drain the queue, then return false.
  void close();

  /// Requests currently queued (diagnostic).
  [[nodiscard]] std::size_t pending() const;

  /// Hysteresis queue-pressure flag (always false while max_queue == 0).
  /// Its transitions are counted process-wide as the registry counters
  /// serve_pressure_enter_total / serve_pressure_exit_total.
  [[nodiscard]] bool pressured() const {
    return pressured_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] const BatcherConfig& config() const { return cfg_; }

 private:
  /// Length of the same-variant run at the queue head, capped at max_batch.
  [[nodiscard]] std::size_t head_run_locked() const;
  void update_pressure_locked();

  BatcherConfig cfg_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<QueuedRequest> queue_;
  std::atomic<bool> pressured_{false};
  bool closed_ = false;
};

}  // namespace redcane::serve
