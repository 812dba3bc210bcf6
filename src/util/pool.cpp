#include "util/pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "util/parse.hpp"

namespace redcane::pool {
namespace {

using Clock = std::chrono::steady_clock;

/// Upper bound on the pool size, whatever REDCANE_THREADS asks for.
constexpr int kMaxThreads = 256;
/// How long an idle worker spins before it parks [ns]: long enough to span
/// the gaps between the regions of one forward pass, short enough that an
/// idle process costs nothing.
constexpr std::int64_t kSpinNs = 50'000;

/// Regions started on this thread run inline while positive: on every
/// worker, inside a chunk on the caller, and under an InlineScope.
thread_local int tl_inline = 0;

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

// The claim word packs [epoch:32 | chunks:16 | next:16], so the claim that
// takes a chunk also proves the region it belongs to is still current.
constexpr int kIndexBits = 16;
constexpr std::uint64_t kIndexMask = (std::uint64_t{1} << kIndexBits) - 1;

std::uint32_t epoch_of(std::uint64_t w) { return static_cast<std::uint32_t>(w >> 32); }
int chunks_of(std::uint64_t w) { return static_cast<int>((w >> kIndexBits) & kIndexMask); }
int next_of(std::uint64_t w) { return static_cast<int>(w & kIndexMask); }
std::uint64_t pack(std::uint32_t epoch, int chunks) {
  return (std::uint64_t{epoch} << 32) | (static_cast<std::uint64_t>(chunks) << kIndexBits);
}

class Pool {
 public:
  /// Never destroyed: parked workers may outlive static destructors.
  static Pool& instance() {
    static Pool* const pool = new Pool();
    return *pool;
  }

  [[nodiscard]] int threads() const { return threads_.load(std::memory_order_relaxed); }

  void resize(int n) {
    // Take the pool from every caller: wait out the region in flight.
    while (busy_.exchange(true, std::memory_order_acquire)) std::this_thread::yield();
    stop_workers();
    threads_.store(std::clamp(n, 1, kMaxThreads), std::memory_order_relaxed);
    busy_.store(false, std::memory_order_release);
  }

  void run(std::int64_t n, double cost_per_item, RangeFn fn) {
    const double by_work = static_cast<double>(n) * cost_per_item / kMinChunkNs;
    const auto cap = static_cast<double>(std::min<std::int64_t>(n, threads()));
    // The negated test also sends a NaN cost inline.
    if (tl_inline > 0 || !(by_work >= 2.0) || cap < 2.0 ||
        busy_.exchange(true, std::memory_order_acquire)) {
      fn(0, n);
      return;
    }
    // This thread owns the pool until it releases busy_ below.
    const int chunks = static_cast<int>(std::min(by_work, cap));
    if (workers_.empty()) start_workers();
    fn_ = &fn;
    n_ = n;
    done_.store(0, std::memory_order_relaxed);
    const std::uint32_t epoch = epoch_of(claim_.load(std::memory_order_relaxed)) + 1;
    claim_.store(pack(epoch, chunks), std::memory_order_seq_cst);

    ++tl_inline;
    work(epoch);
    --tl_inline;
    for (int spins = 0; done_.load(std::memory_order_acquire) != chunks; ++spins) {
      if (spins < 4096) {
        cpu_relax();
      } else {
        std::this_thread::yield();  // A worker holding a chunk was preempted.
      }
    }
    fn_ = nullptr;
    const std::exception_ptr error = std::exchange(error_, nullptr);
    busy_.store(false, std::memory_order_release);
    if (error) std::rethrow_exception(error);
  }

 private:
  Pool() : threads_(std::min(configured_threads(), kMaxThreads)) {}

  void start_workers() {
    // A worker the system refuses to start leaves its chunks to the caller.
    try {
      for (int i = 1; i < threads(); ++i) workers_.emplace_back([this] { worker_main(); });
    } catch (const std::system_error&) {
    }
  }

  void stop_workers() {
    {
      const std::lock_guard<std::mutex> lock(park_mu_);
      stop_.store(true, std::memory_order_seq_cst);
    }
    park_cv_.notify_all();
    for (std::thread& t : workers_) t.join();
    workers_.clear();
    stop_.store(false, std::memory_order_relaxed);
  }

  void worker_main() {
    tl_inline = 1;
    std::uint32_t seen = epoch_of(claim_.load(std::memory_order_acquire));
    while (true) {
      await(seen);
      if (stop_.load(std::memory_order_acquire)) return;
      seen = epoch_of(claim_.load(std::memory_order_acquire));
      work(seen);
    }
  }

  /// Returns once a region newer than `seen` is published or the pool
  /// stops: spins for kSpinNs, then parks.
  void await(std::uint32_t seen) {
    const auto fresh = [&] {
      return stop_.load(std::memory_order_seq_cst) ||
             epoch_of(claim_.load(std::memory_order_seq_cst)) != seen;
    };
    const Clock::time_point until = Clock::now() + std::chrono::nanoseconds(kSpinNs);
    for (int i = 1;; ++i) {
      if (fresh()) return;
      cpu_relax();
      if (i % 32 == 0 && Clock::now() >= until) break;
    }
    std::unique_lock<std::mutex> lock(park_mu_);
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    park_cv_.wait(lock, fresh);
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
  }

  /// Wakes one parked worker, if any. A lost wake-up costs speed, never a
  /// result: the caller runs every chunk nobody claims.
  void wake_one() {
    if (sleepers_.load(std::memory_order_seq_cst) == 0) return;
    { const std::lock_guard<std::mutex> lock(park_mu_); }
    park_cv_.notify_one();
  }

  /// Claims and runs chunks of region `epoch` until none is left. Each
  /// claimer that leaves chunks unclaimed wakes one more worker, so the
  /// wake-ups chain instead of queueing on the caller.
  void work(std::uint32_t epoch) {
    std::uint64_t w = claim_.load(std::memory_order_acquire);
    while (epoch_of(w) == epoch && next_of(w) < chunks_of(w)) {
      if (!claim_.compare_exchange_weak(w, w + 1, std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
        continue;
      }
      const int c = next_of(w);
      const int chunks = chunks_of(w);
      if (c + 1 < chunks) wake_one();
      try {
        (*fn_)(n_ * c / chunks, n_ * (c + 1) / chunks);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu_);
        if (!error_) error_ = std::current_exception();
      }
      done_.fetch_add(1, std::memory_order_acq_rel);
      w = claim_.load(std::memory_order_acquire);
    }
  }

  std::atomic<int> threads_;
  /// Held by the caller whose region is in flight, or by resize().
  std::atomic<bool> busy_{false};
  std::vector<std::thread> workers_;  ///< Changed only by the owner.

  // The region in flight. fn_ and n_ are written by the owner before the
  // claim word publishes them and read only after a successful claim.
  const RangeFn* fn_ = nullptr;
  std::int64_t n_ = 0;
  std::atomic<std::uint64_t> claim_{0};
  std::atomic<int> done_{0};  ///< Chunks finished.
  std::mutex error_mu_;
  std::exception_ptr error_;  ///< First exception of the region.

  std::mutex park_mu_;
  std::condition_variable park_cv_;
  std::atomic<int> sleepers_{0};
  std::atomic<bool> stop_{false};
};

}  // namespace

int configured_threads() {
  const char* env = std::getenv("REDCANE_THREADS");
  if (int n = 0; env != nullptr && util::parse_int(env, &n, 1)) return n;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int threads() { return Pool::instance().threads(); }

void set_threads(int n) { Pool::instance().resize(n > 0 ? n : configured_threads()); }

InlineScope::InlineScope(bool active) : active_(active) { tl_inline += active_ ? 1 : 0; }
InlineScope::~InlineScope() { tl_inline -= active_ ? 1 : 0; }

void parallel_for(std::int64_t n, double cost_per_item, RangeFn fn) {
  if (n <= 0) return;
  Pool::instance().run(n, cost_per_item, fn);
}

}  // namespace redcane::pool
