// The one compute pool: every data-parallel kernel loop in the library runs
// on it, and so do the sweep engine's grid points.
//
// One process-wide pool holds threads() - 1 workers; the thread that calls
// parallel_for is the last participant. threads() is REDCANE_THREADS when
// that is a whole decimal integer in [1, INT_MAX] (util/parse's rule), else
// the hardware concurrency. The workers start with the first region that
// splits, once per process.
//
// Rules of a region, parallel_for(n, cost_per_item, fn):
//  * Chunks. [0, n) is cut into at most threads() static contiguous chunks
//    of equal item count, and into no more chunks than the estimated work
//    (n * cost_per_item) holds kMinChunkNs of. fn(begin, end) runs once per
//    chunk. Each item therefore stays on one thread, and a kernel whose
//    items are independent rows computes the same bits at any thread count.
//  * Claim. Every participant, the caller included, claims the next
//    unstarted chunk from one counter until none is left, then the caller
//    waits for the chunks in flight. No region waits on a worker that has
//    not woken: the caller runs any chunk nobody has claimed.
//  * Spin, then park. A worker that finds no region spins for 50 us before
//    it parks on a condition variable, so the back-to-back regions of one
//    forward pass meet a hot team, while an idle process uses no CPU.
//  * Inline. The region runs as fn(0, n) on the caller when the work is
//    under two chunks, when threads() is 1, when the caller is itself
//    running a chunk (a nested region), under an InlineScope, or while the
//    pool serves another caller's region.
//
// An exception thrown by fn is rethrown on the caller after every chunk
// of the region has finished.
//
// Threads that block on queues or sockets (serve batch workers, dist
// coordinator connections and heartbeats) stay dedicated std::threads;
// only compute goes through the pool.
#pragma once

#include <cstdint>
#include <memory>
#include <type_traits>

namespace redcane::pool {

/// Least estimated work a chunk is given [ns of one core].
inline constexpr double kMinChunkNs = 4000.0;

/// Threads a region may use, the calling thread included.
[[nodiscard]] int threads();

/// REDCANE_THREADS as a thread count; hardware concurrency when it is unset
/// or not a whole decimal integer in [1, INT_MAX].
[[nodiscard]] int configured_threads();

/// Restarts the pool with `n` threads (0 = configured_threads()). Waits for
/// any region in flight; tests and serial reference runs use it.
void set_threads(int n);

/// While alive (and `active`), every region started on this thread runs
/// inline. For threads that are themselves one of several parallel workers
/// (a multi-worker server's batch loops, a dist worker), whose kernels
/// would otherwise compete for the pool.
class InlineScope {
 public:
  explicit InlineScope(bool active = true);
  ~InlineScope();
  InlineScope(const InlineScope&) = delete;
  InlineScope& operator=(const InlineScope&) = delete;

 private:
  bool active_;
};

/// A non-owning reference to a callable fn(begin, end); it must outlive
/// the region, as an argument of the parallel_for call always does.
class RangeFn {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, RangeFn>)
  RangeFn(F&& f)  // NOLINT(google-explicit-constructor): a view, like std::function_ref.
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_([](void* o, std::int64_t b, std::int64_t e) {
          (*static_cast<std::remove_reference_t<F>*>(o))(b, e);
        }) {}
  void operator()(std::int64_t begin, std::int64_t end) const { call_(obj_, begin, end); }

 private:
  void* obj_;
  void (*call_)(void*, std::int64_t, std::int64_t);
};

/// Runs fn(begin, end) over [0, n) by the rules above. `cost_per_item` is
/// the estimated serial time of one item in nanoseconds of one core; only
/// its order of magnitude matters.
void parallel_for(std::int64_t n, double cost_per_item, RangeFn fn);

}  // namespace redcane::pool
