#include "serve/batcher.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace redcane::serve {

MicroBatcher::MicroBatcher(BatcherConfig cfg) : cfg_(cfg) {
  // A non-positive ceiling would make pop_batch hand out empty batches.
  cfg_.max_batch = std::max<std::int64_t>(1, cfg_.max_batch);
  cfg_.max_delay_us = std::max<std::int64_t>(0, cfg_.max_delay_us);
  cfg_.max_queue = std::max<std::int64_t>(0, cfg_.max_queue);
  if (cfg_.max_queue > 0) {
    if (cfg_.high_watermark <= 0) cfg_.high_watermark = cfg_.max_queue * 3 / 4;
    if (cfg_.low_watermark <= 0) cfg_.low_watermark = cfg_.max_queue / 2;
    cfg_.high_watermark = std::clamp<std::int64_t>(cfg_.high_watermark, 1, cfg_.max_queue);
    cfg_.low_watermark = std::clamp<std::int64_t>(cfg_.low_watermark, 0,
                                                  cfg_.high_watermark - 1);
  } else {
    cfg_.high_watermark = 0;
    cfg_.low_watermark = 0;
  }
}

void MicroBatcher::update_pressure_locked() {
  if (cfg_.max_queue == 0) return;
  const auto depth = static_cast<std::int64_t>(queue_.size());
  const bool was = pressured_.load(std::memory_order_relaxed);
  if (depth >= cfg_.high_watermark) {
    pressured_.store(true, std::memory_order_relaxed);
    if (!was) {
      static obs::Counter& enters =
          obs::Registry::instance().counter("serve_pressure_enter_total");
      enters.add();
    }
  } else if (depth <= cfg_.low_watermark) {
    pressured_.store(false, std::memory_order_relaxed);
    if (was) {
      static obs::Counter& exits =
          obs::Registry::instance().counter("serve_pressure_exit_total");
      exits.add();
    }
  }
}

PushStatus MicroBatcher::push(QueuedRequest& r) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return PushStatus::kClosed;
    if (cfg_.max_queue > 0 &&
        queue_.size() >= static_cast<std::size_t>(cfg_.max_queue)) {
      return PushStatus::kFull;
    }
    queue_.push_back(std::move(r));
    update_pressure_locked();
  }
  cv_.notify_all();
  return PushStatus::kAccepted;
}

std::size_t MicroBatcher::head_run_locked() const {
  const std::size_t cap =
      std::min(queue_.size(), static_cast<std::size_t>(cfg_.max_batch));
  std::size_t run = 0;
  while (run < cap && queue_[run].variant == queue_.front().variant) ++run;
  return run;
}

bool MicroBatcher::pop_batch(std::vector<QueuedRequest>& out,
                             std::vector<QueuedRequest>& expired) {
  out.clear();
  expired.clear();
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [&] { return closed_ || !queue_.empty(); });
    if (queue_.empty()) return false;  // Closed and drained.

    // Wait for co-batchable followers — but only while waiting could help:
    // not when the run already hit max_batch, not when a different-variant
    // request caps the run, and at most max_delay_us past the head arrival.
    const std::size_t run = head_run_locked();
    const auto deadline =
        queue_.front().enqueued + std::chrono::microseconds(cfg_.max_delay_us);
    const bool full = run >= static_cast<std::size_t>(cfg_.max_batch);
    const bool capped = queue_.size() > run;
    const auto now = ServeClock::now();
    if (closed_ || full || capped || now >= deadline) {
      out.reserve(run);
      for (std::size_t i = 0; i < run; ++i) {
        // Expired requests are shed here, at pop time, instead of wasting
        // a batch slot: the caller resolves them with kDeadlineExceeded.
        QueuedRequest& head = queue_.front();
        if (head.has_deadline && now >= head.deadline) {
          expired.push_back(std::move(head));
        } else {
          out.push_back(std::move(head));
        }
        queue_.pop_front();
      }
      update_pressure_locked();
      // Another worker may be mid-wait on the (now consumed) old head.
      cv_.notify_all();
      return true;
    }
    cv_.wait_until(lock, deadline);
  }
}

void MicroBatcher::close() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

std::size_t MicroBatcher::pending() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

}  // namespace redcane::serve
