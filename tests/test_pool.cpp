// Compute-pool contracts (util/pool):
//  * every index of a region runs exactly once, at every pool size;
//  * nested regions, regions under an InlineScope, and regions started
//    while the pool serves another caller run inline on their caller;
//  * row-partitioned kernels compute the same bits at 1, 2 and 4 threads;
//  * idle workers park: a process whose regions have stopped burns no CPU
//    (spin-waiting teams once made the tier-1 suite ~40x slower);
//  * REDCANE_THREADS follows util/parse's number rule.
#include "util/pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <thread>
#include <vector>

#include "capsnet/squash.hpp"
#include "tensor/gemm.hpp"
#include "tensor/random.hpp"

namespace redcane::pool {
namespace {

/// Restores the default pool size when a test ends, pass or fail.
struct PoolSize {
  explicit PoolSize(int n) { set_threads(n); }
  ~PoolSize() { set_threads(0); }
};

/// Items per chunk at this cost: kMinChunkNs / (kMinChunkNs / 1000).
constexpr std::int64_t kChunk = 1000;
constexpr double kItemNs = kMinChunkNs / static_cast<double>(kChunk);

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

TEST(Pool, EveryIndexRunsExactlyOnce) {
  for (const int threads : {1, 2, 3, 4}) {
    const PoolSize size(threads);
    for (const std::int64_t n : {std::int64_t{0}, std::int64_t{1}, kChunk - 1, kChunk + 1,
                                 std::int64_t{1'000'000}}) {
      std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
      std::atomic<int> calls{0};
      parallel_for(n, kItemNs, [&](std::int64_t begin, std::int64_t end) {
        ASSERT_LE(0, begin);
        ASSERT_LT(begin, end);
        ASSERT_LE(end, n);
        calls.fetch_add(1, std::memory_order_relaxed);
        for (std::int64_t i = begin; i < end; ++i) {
          hits[static_cast<std::size_t>(i)].fetch_add(1, std::memory_order_relaxed);
        }
      });
      for (std::int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
            << "index " << i << " of n = " << n << " at " << threads << " threads";
      }
      // Below two chunks of work a region is one inline call; far above,
      // one call per thread.
      if (n < 2 * kChunk || threads == 1) {
        EXPECT_EQ(calls.load(), n == 0 ? 0 : 1) << "n = " << n;
      } else {
        EXPECT_EQ(calls.load(), threads) << "n = " << n;
      }
    }
  }
}

TEST(Pool, NestedScopedAndConcurrentCallersRunInline) {
  const PoolSize size(4);
  const std::int64_t n = 64 * kChunk;

  // Nested: a region inside a chunk is one inline call on that chunk's thread.
  std::atomic<int> outer_calls{0};
  std::atomic<int> inner_mismatches{0};
  parallel_for(n, kItemNs, [&](std::int64_t, std::int64_t) {
    outer_calls.fetch_add(1);
    const std::thread::id me = std::this_thread::get_id();
    int inner_calls = 0;
    parallel_for(n, kItemNs, [&](std::int64_t begin, std::int64_t end) {
      ++inner_calls;
      if (begin != 0 || end != n || std::this_thread::get_id() != me) {
        inner_mismatches.fetch_add(1);
      }
    });
    if (inner_calls != 1) inner_mismatches.fetch_add(1);
  });
  EXPECT_GT(outer_calls.load(), 1) << "the outer region should have split";
  EXPECT_EQ(inner_mismatches.load(), 0);

  // Scoped: under an InlineScope the same region is one call on this thread.
  {
    const InlineScope serial;
    int calls = 0;
    parallel_for(n, kItemNs, [&](std::int64_t begin, std::int64_t end) {
      ++calls;
      EXPECT_EQ(begin, 0);
      EXPECT_EQ(end, n);
    });
    EXPECT_EQ(calls, 1);
  }

  // Concurrent: while thread A's region holds the pool, thread B's region
  // runs inline on B. A's first chunk waits until B's region has returned.
  std::atomic<bool> a_running{false};
  std::atomic<bool> b_done{false};
  std::atomic<int> a_calls{0};
  std::thread a([&] {
    parallel_for(n, kItemNs, [&](std::int64_t begin, std::int64_t) {
      a_calls.fetch_add(1);
      if (begin != 0) return;
      a_running.store(true);
      while (!b_done.load()) std::this_thread::yield();
    });
  });
  while (!a_running.load()) std::this_thread::yield();
  int b_calls = 0;
  const std::thread::id b_id = std::this_thread::get_id();
  parallel_for(n, kItemNs, [&](std::int64_t begin, std::int64_t end) {
    ++b_calls;
    EXPECT_EQ(begin, 0);
    EXPECT_EQ(end, n);
    EXPECT_EQ(std::this_thread::get_id(), b_id);
  });
  b_done.store(true);
  a.join();
  EXPECT_EQ(b_calls, 1);
  EXPECT_GT(a_calls.load(), 1);
}

TEST(Pool, RowPartitionedKernelsAreBitwiseEqualAcrossThreadCounts) {
  Rng rng(7);
  const std::int64_t m = 777, n = 130, k = 301;
  Tensor a(Shape{m, k});
  Tensor b(Shape{k, n});
  for (float& v : a.data()) v = static_cast<float>(rng.normal());
  for (float& v : b.data()) v = static_cast<float>(rng.normal());
  Tensor caps(Shape{4096, 16});
  for (float& v : caps.data()) v = static_cast<float>(rng.normal());

  std::vector<float> gemm_ref;
  Tensor squash_ref;
  for (const int threads : {1, 2, 4}) {
    const PoolSize size(threads);
    std::vector<float> c(static_cast<std::size_t>(m * n));
    gemm::gemm_f32(false, false, m, n, k, a.data().data(), b.data().data(), 0.0F, c.data());
    const Tensor v = capsnet::squash(caps);
    if (threads == 1) {
      gemm_ref = c;
      squash_ref = v;
      continue;
    }
    EXPECT_EQ(std::memcmp(c.data(), gemm_ref.data(), c.size() * sizeof(float)), 0)
        << "gemm_f32 at " << threads << " threads";
    EXPECT_EQ(std::memcmp(v.data().data(), squash_ref.data().data(),
                          static_cast<std::size_t>(v.numel()) * sizeof(float)),
              0)
        << "squash at " << threads << " threads";
  }
}

TEST(Pool, IdleWorkersParkAndUseNoCpu) {
  const PoolSize size(4);
  // A burst of small regions that split, back to back.
  std::atomic<std::int64_t> sum{0};
  for (int r = 0; r < 2000; ++r) {
    parallel_for(8 * kChunk, kItemNs, [&](std::int64_t begin, std::int64_t end) {
      sum.fetch_add(end - begin, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(sum.load(), 2000 * 8 * kChunk);

  const double cpu0 = cpu_seconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const double idle_cpu = cpu_seconds() - cpu0;
  // Three workers spinning through the window would burn ~300 ms of CPU;
  // parked workers spend at most their 50 us spin tail each.
  EXPECT_LT(idle_cpu, 0.010) << "idle workers burned " << idle_cpu * 1e3 << " ms of CPU";
}

TEST(Pool, ThreadsVariableFollowsTheNumberRule) {
  const char* saved = std::getenv("REDCANE_THREADS");
  const std::string restore = saved != nullptr ? saved : "";
  const unsigned hw_threads = std::thread::hardware_concurrency();
  const int hw = hw_threads == 0 ? 1 : static_cast<int>(hw_threads);
  // Anything but a whole decimal integer in [1, INT_MAX] falls back to the
  // hardware concurrency, never to a wrapped or truncated count.
  for (const char* bad : {"10000000000", "4abc", " 3", "+3", "0", "-2", "3.0"}) {
    ASSERT_EQ(::setenv("REDCANE_THREADS", bad, 1), 0);
    EXPECT_EQ(configured_threads(), hw) << "REDCANE_THREADS=" << bad;
  }
  ASSERT_EQ(::setenv("REDCANE_THREADS", "3", 1), 0);
  EXPECT_EQ(configured_threads(), 3);
  set_threads(0);  // The default size is the variable's.
  EXPECT_EQ(threads(), 3);
  set_threads(5);  // The one setter overrides it.
  EXPECT_EQ(threads(), 5);
  ::unsetenv("REDCANE_THREADS");
  EXPECT_EQ(configured_threads(), hw);
  if (saved != nullptr) ::setenv("REDCANE_THREADS", restore.c_str(), 1);
  set_threads(0);
}

}  // namespace
}  // namespace redcane::pool
