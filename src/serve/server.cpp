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
#include "util/parse.hpp"

namespace redcane::serve {

const obs::CounterTable<ServerStats, InferenceServer::kCounts> InferenceServer::kCountTable{{
    {"serve_submitted_total", &ServerStats::submitted},
    {"serve_requests_total", &ServerStats::requests},
    {"serve_batches_total", &ServerStats::batches},
    {"serve_rejected_invalid_total", &ServerStats::rejected_invalid},
    {"serve_rejected_queue_full_total", &ServerStats::rejected_queue_full},
    {"serve_rejected_shutdown_total", &ServerStats::rejected_shutdown},
    {"serve_shed_deadline_total", &ServerStats::shed_deadline},
    {"serve_backend_failed_total", &ServerStats::backend_failed},
    {"serve_degraded_total", &ServerStats::degraded},
}};

int InferenceServer::resolve_workers(int requested) {
  if (requested > 0) return requested;
  const char* env = std::getenv("REDCANE_SERVE_THREADS");
  if (int n = 0; env != nullptr && util::parse_int(env, &n, 1)) return n;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

InferenceServer::InferenceServer(ModelRegistry& registry, ServerConfig cfg)
    : registry_(registry),
      cfg_(cfg),
      batcher_(BatcherConfig{cfg.max_batch, cfg.max_delay_us, cfg.max_queue,
                             /*high_watermark=*/0, /*low_watermark=*/0}),
      workers_(resolve_workers(cfg.workers)),
      counts_(obs::counters(kCountTable)),
      latency_hist_(obs::Registry::instance().histogram("serve_latency_us")) {
  // The ServerStats law over the process-wide totals (a linear law holds
  // for sums over instances), evaluated at quiescent points.
  obs::Registry::instance().add_check("serve_conservation", [](const obs::Snapshot& s) {
    return obs::read(kCountTable, s).reconciles();
  });
}

InferenceServer::~InferenceServer() { shutdown(); }

bool InferenceServer::pressured() const {
  if (fault::armed() && fault::plan()->pressure()) return true;
  return batcher_.pressured();
}

void InferenceServer::resolve_error(QueuedRequest& r, ServeErrorCode code,
                                    std::string detail) {
  ServeResult res;
  res.error = {code, std::move(detail)};
  res.prediction.request_id = r.id;
  res.prediction.variant = r.requested_variant;
  r.done.set_value(std::move(res));
  switch (code) {
    case ServeErrorCode::kUnknownVariant:
    case ServeErrorCode::kBadShape: counts_[kRejectedInvalid].add(); break;
    case ServeErrorCode::kShutdown: counts_[kRejectedShutdown].add(); break;
    case ServeErrorCode::kQueueFull: counts_[kRejectedQueueFull].add(); break;
    case ServeErrorCode::kDeadlineExceeded: counts_[kShedDeadline].add(); break;
    case ServeErrorCode::kBackendFailure: counts_[kBackendFailed].add(); break;
    default: break;
  }
}

std::future<ServeResult> InferenceServer::submit(const Tensor& sample,
                                                 const std::string& variant) {
  QueuedRequest r;
  r.requested_variant = variant;
  r.variant = variant;
  r.enqueued = ServeClock::now();
  r.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  counts_[kSubmitted].add();
  // Request ids start at 0 but correlation id 0 means "untagged".
  OBS_SPAN_ID("serve/submit", r.id + 1);
  std::future<ServeResult> fut = r.done.get_future();

  if (!registry_.has_variant(variant)) {
    resolve_error(r, ServeErrorCode::kUnknownVariant, "no variant '" + variant + "' in the registry");
    return fut;
  }
  const Shape in = registry_.input_shape();
  const Shape row{1, in.dim(0), in.dim(1), in.dim(2)};
  if (sample.shape() == row) {
    r.x = sample;
  } else if (sample.shape().rank() == 3 && sample.numel() == row.numel()) {
    r.x = sample.reshaped(row);
  } else {
    resolve_error(r, ServeErrorCode::kBadShape,
                  "sample shape " + sample.shape().to_string() + " does not fit input " +
                      in.to_string());
    return fut;
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
    resolve_error(r, ServeErrorCode::kQueueFull, "injected queue-pressure fault");
    return fut;
  }

  // On kClosed/kFull the batcher left `r` (and its promise) untouched:
  // resolve it with the typed error instead of the seed runtime's abort.
  switch (batcher_.push(r)) {
    case PushStatus::kAccepted: break;
    case PushStatus::kClosed:
      resolve_error(r, ServeErrorCode::kShutdown, "submit after shutdown");
      break;
    case PushStatus::kFull:
      resolve_error(r, ServeErrorCode::kQueueFull,
                    "queue at max_queue=" + std::to_string(cfg_.max_queue));
      break;
  }
  return fut;
}

void InferenceServer::start() {
  if (started_ || stopped_) return;
  started_ = true;
  const int workers = workers_;
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
  for (QueuedRequest& r : expired) {
    resolve_error(r, ServeErrorCode::kDeadlineExceeded,
                  "deadline of " + std::to_string(cfg_.deadline_us) +
                      " us passed before a batch slot opened");
  }
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
    for (QueuedRequest& r : batch) resolve_error(r, ServeErrorCode::kBackendFailure, run.error);
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
    if (r.degraded) {
      ++degraded;
      res.error = {ServeErrorCode::kDegradedServed,
                   "served by '" + r.variant + "' under queue pressure"};
    }
    r.done.set_value(std::move(res));
  }

  counts_[kRequests].add(n);
  counts_[kDegraded].add(degraded);
  counts_[kBatches].add();
}

ServerStats InferenceServer::stats() const {
  ServerStats out = obs::read(kCountTable, counts_);
  out.workers = workers_;
  const std::int64_t n = latency_hist_.count();
  out.latency = {n, n == 0 ? 0.0 : latency_hist_.sum() / static_cast<double>(n),
                 latency_hist_.percentile(50.0), latency_hist_.percentile(99.0),
                 latency_hist_.percentile(99.9), latency_hist_.max()};
  return out;
}

}  // namespace redcane::serve
