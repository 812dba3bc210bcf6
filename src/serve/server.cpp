#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "obs/trace.hpp"
#include "tensor/ops.hpp"
#include "tensor/workspace.hpp"
#include "util/fault.hpp"

namespace redcane::serve {
namespace {

// Process-wide mirrors of the per-instance ServerStats counters. The
// conservation law holds for the registry totals too: every term is a
// sum over server instances, and the law is linear. References are
// resolved once; each increment after that is one relaxed fetch_add.
struct ServeMetrics {
  obs::Counter& submitted;
  obs::Counter& requests;
  obs::Counter& batches;
  obs::Counter& rejected_invalid;
  obs::Counter& rejected_queue_full;
  obs::Counter& rejected_shutdown;
  obs::Counter& shed_deadline;
  obs::Counter& backend_failed;
  obs::Counter& degraded;
  obs::Histogram& latency_us;
};

ServeMetrics& metrics() {
  static ServeMetrics* m = [] {
    obs::Registry& reg = obs::Registry::instance();
    auto* mm = new ServeMetrics{
        reg.counter("serve_submitted_total"),
        reg.counter("serve_requests_total"),
        reg.counter("serve_batches_total"),
        reg.counter("serve_rejected_invalid_total"),
        reg.counter("serve_rejected_queue_full_total"),
        reg.counter("serve_rejected_shutdown_total"),
        reg.counter("serve_shed_deadline_total"),
        reg.counter("serve_backend_failed_total"),
        reg.counter("serve_degraded_total"),
        reg.histogram("serve_latency_us"),
    };
    // ServerStats::reconciles(), restated over the process-wide totals.
    // Evaluated at quiescent points (exposition, tests) — between a
    // submit's `submitted` bump and its terminal accounting the law is
    // transiently short, exactly as for the per-instance struct.
    reg.add_check("serve_conservation", [](const obs::Snapshot& s) {
      return s.counter("serve_submitted_total") ==
             s.counter("serve_requests_total") +
                 s.counter("serve_rejected_invalid_total") +
                 s.counter("serve_rejected_queue_full_total") +
                 s.counter("serve_rejected_shutdown_total") +
                 s.counter("serve_shed_deadline_total") +
                 s.counter("serve_backend_failed_total");
    });
    return mm;
  }();
  return *m;
}

}  // namespace

int InferenceServer::resolve_workers(int requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("REDCANE_SERVE_THREADS")) {
    const int parsed = std::atoi(env);
    if (parsed > 0) return parsed;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

InferenceServer::InferenceServer(ModelRegistry& registry, ServerConfig cfg)
    : registry_(registry),
      cfg_(cfg),
      batcher_(BatcherConfig{cfg.max_batch, cfg.max_delay_us, cfg.max_queue,
                             /*high_watermark=*/0, /*low_watermark=*/0}) {
  stats_.workers = resolve_workers(cfg_.workers);
}

InferenceServer::~InferenceServer() { shutdown(); }

bool InferenceServer::pressured() const {
  if (fault::armed() && fault::plan()->pressure()) return true;
  return batcher_.pressured();
}

std::future<ServeResult> InferenceServer::reject(QueuedRequest&& r,
                                                 ServeErrorCode code,
                                                 std::string detail) {
  ServeResult res;
  res.error = {code, std::move(detail)};
  res.prediction.request_id = r.id;
  res.prediction.variant = r.requested_variant;
  std::future<ServeResult> fut = r.done.get_future();
  r.done.set_value(std::move(res));
  {
    const std::lock_guard<std::mutex> lock(stats_mu_);
    switch (code) {
      case ServeErrorCode::kUnknownVariant:
      case ServeErrorCode::kBadShape:
        ++stats_.rejected_invalid;
        metrics().rejected_invalid.add();
        break;
      case ServeErrorCode::kShutdown:
        ++stats_.rejected_shutdown;
        metrics().rejected_shutdown.add();
        break;
      case ServeErrorCode::kQueueFull:
        ++stats_.rejected_queue_full;
        metrics().rejected_queue_full.add();
        break;
      default: break;
    }
  }
  return fut;
}

std::future<ServeResult> InferenceServer::submit(const Tensor& sample,
                                                 const std::string& variant) {
  QueuedRequest r;
  r.requested_variant = variant;
  r.variant = variant;
  r.enqueued = ServeClock::now();
  {
    const std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.submitted;
    r.id = next_id_++;
  }
  metrics().submitted.add();
  // Request ids start at 0 but correlation id 0 means "untagged".
  OBS_SPAN_ID("serve/submit", r.id + 1);

  if (!registry_.has_variant(variant)) {
    return reject(std::move(r), ServeErrorCode::kUnknownVariant,
                  "no variant '" + variant + "' in the registry");
  }
  const Shape in = registry_.input_shape();
  const Shape row{1, in.dim(0), in.dim(1), in.dim(2)};
  if (sample.shape() == row) {
    r.x = sample;
  } else if (sample.shape().rank() == 3 && sample.numel() == row.numel()) {
    r.x = sample.reshaped(row);
  } else {
    return reject(std::move(r), ServeErrorCode::kBadShape,
                  "sample shape " + sample.shape().to_string() +
                      " does not fit input " + in.to_string());
  }

  if (cfg_.deadline_us > 0) {
    r.deadline = r.enqueued + std::chrono::microseconds(cfg_.deadline_us);
    r.has_deadline = true;
  }

  // Graceful degradation: above the high watermark (or under a forced-
  // pressure fault), expensive variants ride the cheap exact path. The
  // substitution happens at admission so the request coalesces with exact
  // traffic; the prediction carries the degraded flag.
  if (cfg_.degrade_under_pressure && variant != kVariantExact && pressured()) {
    r.variant = kVariantExact;
    r.degraded = true;
  }

  if (fault::armed() && fault::plan()->queue_full()) {
    return reject(std::move(r), ServeErrorCode::kQueueFull,
                  "injected queue-pressure fault");
  }

  std::future<ServeResult> fut = r.done.get_future();
  switch (batcher_.push(r)) {
    case PushStatus::kAccepted: return fut;
    case PushStatus::kClosed: {
      // The batcher left `r` (and its promise) untouched: resolve it with
      // the typed shutdown error instead of the seed runtime's abort.
      ServeResult res;
      res.error = {ServeErrorCode::kShutdown, "submit after shutdown"};
      res.prediction.request_id = r.id;
      res.prediction.variant = r.requested_variant;
      r.done.set_value(std::move(res));
      metrics().rejected_shutdown.add();
      const std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.rejected_shutdown;
      return fut;
    }
    case PushStatus::kFull: {
      ServeResult res;
      res.error = {ServeErrorCode::kQueueFull,
                   "queue at max_queue=" + std::to_string(cfg_.max_queue)};
      res.prediction.request_id = r.id;
      res.prediction.variant = r.requested_variant;
      r.done.set_value(std::move(res));
      metrics().rejected_queue_full.add();
      const std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.rejected_queue_full;
      return fut;
    }
  }
  return fut;  // Unreachable.
}

void InferenceServer::start() {
  if (started_ || stopped_) return;
  started_ = true;
  const int workers = stats_.workers;
  obs::Registry::instance().gauge("serve_workers").set(workers);
  pool_.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    pool_.emplace_back([this, workers] {
#ifdef _OPENMP
      // Same discipline as core/sweep_engine: with several workers, batch-
      // level parallelism already covers the machine — a full OpenMP team
      // per worker would oversubscribe it. A single worker keeps the full
      // team so batched GEMMs still use every core.
      if (workers > 1) omp_set_num_threads(1);
#endif
      // One scratch arena per worker (ws::Workspace is thread-keyed):
      // pre-grow it here so the first served batch pays no allocator
      // cold-start; after that, forwards run zero-allocation scratch.
      ws::Workspace::tls().reserve(std::size_t{1} << 20);
      worker_loop();
    });
  }
}

void InferenceServer::shutdown() {
  if (stopped_) return;
  stopped_ = true;
  batcher_.close();
  if (!started_) {
    // Never started: drain inline so queued futures still resolve.
    worker_loop();
  }
  for (std::thread& t : pool_) t.join();
  pool_.clear();
}

void InferenceServer::worker_loop() {
  std::vector<QueuedRequest> batch;
  std::vector<QueuedRequest> expired;
  while (batcher_.pop_batch(batch, expired)) {
    if (fault::armed()) {
      std::int64_t stall_us = 0;
      if (fault::plan()->stall_worker(stall_us) && stall_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(stall_us));
      }
    }
    resolve_expired(expired);
    if (!batch.empty()) process_batch(batch);
  }
}

void InferenceServer::resolve_expired(std::vector<QueuedRequest>& expired) {
  if (expired.empty()) return;
  for (QueuedRequest& r : expired) {
    ServeResult res;
    res.error = {ServeErrorCode::kDeadlineExceeded,
                 "deadline of " + std::to_string(cfg_.deadline_us) +
                     " us passed before a batch slot opened"};
    res.prediction.request_id = r.id;
    res.prediction.variant = r.requested_variant;
    r.done.set_value(std::move(res));
  }
  metrics().shed_deadline.add(static_cast<std::int64_t>(expired.size()));
  const std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.shed_deadline += static_cast<std::int64_t>(expired.size());
}

void InferenceServer::process_batch(std::vector<QueuedRequest>& batch) {
  const auto n = static_cast<std::int64_t>(batch.size());
  // Correlated with the riders' serve/submit spans via the first request
  // id — the same key the designed variant's noise stream is seeded from.
  OBS_SPAN_ID("serve/batch", batch.front().id + 1);
  // Assemble from the requests' own (submit-validated) row shape, not the
  // registry's live shape — a concurrent hot reload must not tear a batch.
  const Shape& row = batch.front().x.shape();
  Tensor x(Shape{n, row.dim(1), row.dim(2), row.dim(3)});
  const std::int64_t row_n = x.numel() / n;
  for (std::int64_t i = 0; i < n; ++i) {
    std::memcpy(x.data().data() + i * row_n,
                batch[static_cast<std::size_t>(i)].x.data().data(),
                static_cast<std::size_t>(row_n) * sizeof(float));
  }

  // One backend execution per micro-batch. The designed variant's noise
  // stream is keyed by the batch's first request id: independent of worker
  // identity, so outputs only depend on batch composition. The emulated
  // variant is RNG-free — its outputs depend on the batch tensor alone.
  const RunResult run = [&] {
    OBS_SPAN_ID("serve/infer", batch.front().id + 1);
    return registry_.run(batch.front().variant, x, batch.front().id);
  }();
  if (!run.ok) {
    // Typed failure for every rider of the batch; the process (and every
    // other in-flight batch) keeps serving.
    for (std::int64_t i = 0; i < n; ++i) {
      QueuedRequest& r = batch[static_cast<std::size_t>(i)];
      ServeResult res;
      res.error = {ServeErrorCode::kBackendFailure, run.error};
      res.prediction.request_id = r.id;
      res.prediction.variant = r.requested_variant;
      r.done.set_value(std::move(res));
    }
    metrics().backend_failed.add(n);
    const std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.backend_failed += n;
    return;
  }

  const Tensor lengths = capsnet::CapsModel::class_lengths(run.output);
  const std::vector<std::int64_t> labels = ops::argmax_last_axis(lengths);

  const auto done = ServeClock::now();
  const std::int64_t classes = lengths.shape().dim(-1);
  std::int64_t degraded = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    QueuedRequest& r = batch[static_cast<std::size_t>(i)];
    ServeResult res;
    Prediction& p = res.prediction;
    p.request_id = r.id;
    p.variant = r.requested_variant;
    p.served_by = r.variant;
    p.degraded = r.degraded;
    p.label = labels[static_cast<std::size_t>(i)];
    p.scores.assign(lengths.data().begin() + i * classes,
                    lengths.data().begin() + (i + 1) * classes);
    p.batch_size = n;
    p.latency_us =
        std::chrono::duration<double, std::micro>(done - r.enqueued).count();
    latency_hist_.observe(p.latency_us);
    metrics().latency_us.observe(p.latency_us);
    if (r.degraded) {
      ++degraded;
      res.error = {ServeErrorCode::kDegradedServed,
                   "served by '" + r.variant + "' under queue pressure"};
    }
    r.done.set_value(std::move(res));
  }

  metrics().requests.add(n);
  metrics().degraded.add(degraded);
  metrics().batches.add();
  const std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.requests += n;
  stats_.degraded += degraded;
  ++stats_.batches;
}

ServerStats InferenceServer::stats() const {
  ServerStats out;
  {
    const std::lock_guard<std::mutex> lock(stats_mu_);
    out = stats_;
  }
  out.latency.count = latency_hist_.count();
  out.latency.mean_us =
      out.latency.count == 0
          ? 0.0
          : latency_hist_.sum() / static_cast<double>(out.latency.count);
  out.latency.p50_us = latency_hist_.percentile(50.0);
  out.latency.p99_us = latency_hist_.percentile(99.0);
  out.latency.p999_us = latency_hist_.percentile(99.9);
  out.latency.max_us = latency_hist_.max();
  return out;
}

}  // namespace redcane::serve
