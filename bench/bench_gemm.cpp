// Measures the two layers of the compute core's speedup story:
//
//  1. Lowering: naive 7-deep conv loops vs the im2col + blocked-GEMM path
//     vs the LUT-accelerated approximate path (the PR-1 refactor).
//  2. Microkernel dispatch: the previous scalar cache-blocked GEMM vs the
//     runtime-dispatched SIMD microkernel core (tensor/microkernel.hpp),
//     reported in GFLOP/s — the gate is >= 2x whenever a SIMD target
//     (sse/avx2) is active; on scalar-only hardware the fallback is
//     logged and the gate is waived.
//
// Every resilience sweep and every served batch is a loop of these
// kernels, so these ratios are the throughput of the whole methodology.
// Results are appended as one JSON object to BENCH_gemm.json, the
// machine-readable perf trajectory of the core across commits.
//
// Usage: bench_gemm [--quick] [--json <path>]
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>

#include "approx/library.hpp"
#include "bench_common.hpp"
#include "nn/conv2d.hpp"
#include "quant/approx_conv.hpp"
#include "quant/lut_cache.hpp"
#include "tensor/gemm.hpp"
#include "tensor/lut_kernel.hpp"
#include "tensor/microkernel.hpp"
#include "tensor/ops.hpp"
#include "tensor/random.hpp"
#include "util/pool.hpp"

namespace redcane::bench {
namespace {

using Clock = std::chrono::steady_clock;

double time_ms(const std::function<void()>& fn, int iters) {
  fn();  // Warm-up (page faults, caches, workspace arenas).
  const auto t0 = Clock::now();
  for (int i = 0; i < iters; ++i) fn();
  const auto t1 = Clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count() / iters;
}

/// The seed's 7-deep conv loop nest (scalar accumulation, per-tap bounds
/// checks) — the baseline every conv path used before the refactor.
Tensor naive_conv(const Tensor& x, const Tensor& w, const Tensor& bias, std::int64_t stride,
                  std::int64_t pad) {
  const std::int64_t n = x.shape().dim(0);
  const std::int64_t h = x.shape().dim(1);
  const std::int64_t wd = x.shape().dim(2);
  const std::int64_t cin = x.shape().dim(3);
  const std::int64_t kh = w.shape().dim(0);
  const std::int64_t kw = w.shape().dim(1);
  const std::int64_t cout = w.shape().dim(3);
  const std::int64_t ho = (h + 2 * pad - kh) / stride + 1;
  const std::int64_t wo = (wd + 2 * pad - kw) / stride + 1;
  Tensor out(Shape{n, ho, wo, cout});
  for (std::int64_t ni = 0; ni < n; ++ni) {
    for (std::int64_t oy = 0; oy < ho; ++oy) {
      for (std::int64_t ox = 0; ox < wo; ++ox) {
        for (std::int64_t co = 0; co < cout; ++co) {
          float acc = bias.empty() ? 0.0F : bias.at(co);
          for (std::int64_t ky = 0; ky < kh; ++ky) {
            const std::int64_t iy = oy * stride + ky - pad;
            if (iy < 0 || iy >= h) continue;
            for (std::int64_t kx = 0; kx < kw; ++kx) {
              const std::int64_t ix = ox * stride + kx - pad;
              if (ix < 0 || ix >= wd) continue;
              for (std::int64_t ci = 0; ci < cin; ++ci) {
                acc += x(ni, iy, ix, ci) * w(ky, kx, ci, co);
              }
            }
          }
          out(ni, oy, ox, co) = acc;
        }
      }
    }
  }
  return out;
}

// The pre-microkernel compute core: the cache-blocked, row-block-parallel
// scalar i-k-j kernel that gemm_f32 ran before SIMD dispatch, now on the
// compute pool like the core it is compared with. This is the "current
// scalar blocked GEMM" the >= 2x gate measures against (auto-vectorized at
// baseline -O3 like it always was).
void legacy_blocked_gemm(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
                         const float* b, float* c) {
  constexpr std::int64_t kBlockM = 64;
  constexpr std::int64_t kBlockN = 256;
  constexpr std::int64_t kBlockK = 128;
  std::memset(c, 0, static_cast<std::size_t>(m * n) * sizeof(float));
  const std::int64_t blocks = (m + kBlockM - 1) / kBlockM;
  const double block_ns = 0.15 * static_cast<double>(kBlockM * n * k);  // ~7 MAC/ns.
  pool::parallel_for(blocks, block_ns, [&](std::int64_t first, std::int64_t last) {
    for (std::int64_t i0 = first * kBlockM; i0 < std::min(m, last * kBlockM); i0 += kBlockM) {
      const std::int64_t i1 = std::min(i0 + kBlockM, m);
      for (std::int64_t k0 = 0; k0 < k; k0 += kBlockK) {
        const std::int64_t k1 = std::min(k0 + kBlockK, k);
        for (std::int64_t j0 = 0; j0 < n; j0 += kBlockN) {
          const std::int64_t j1 = std::min(j0 + kBlockN, n);
          for (std::int64_t i = i0; i < i1; ++i) {
            const float* arow = a + i * k;
            float* crow = c + i * n;
            for (std::int64_t kk = k0; kk < k1; ++kk) {
              const float aik = arow[kk];
              const float* brow = b + kk * n;
              for (std::int64_t j = j0; j < j1; ++j) crow[j] += aik * brow[j];
            }
          }
        }
      }
    }
  });
}

int run(bool quick, const std::string& json_path) {
  print_header("GEMM compute core: lowering + SIMD microkernel dispatch");

  Rng rng(42);
  // DeepCaps mid-stack capsule conv: 16x16 map, 32 types x 8D in and out
  // (256 channels each side), 3x3 kernel — the layer class that dominates
  // resilience-sweep wall time. --quick shrinks it for CI smoke runs.
  const std::int64_t batch = quick ? 1 : 2;
  const std::int64_t hw = quick ? 8 : 16;
  const std::int64_t ch = quick ? 64 : 256;
  const Tensor x = ops::uniform(Shape{batch, hw, hw, ch}, -1.0, 1.0, rng);
  const Tensor w = ops::uniform(Shape{3, 3, ch, ch}, -0.2, 0.2, rng);
  const Tensor bias = ops::uniform(Shape{ch}, -0.1, 0.1, rng);
  const int iters = quick ? 2 : 3;

  const double t_naive =
      time_ms([&] { (void)naive_conv(x, w, bias, 1, 1); }, iters);
  const double t_gemm =
      time_ms([&] { (void)nn::conv2d_forward(x, w, bias, 1, 1); }, iters);

  quant::ApproxConvSpec aspec;
  aspec.stride = 1;
  aspec.pad = 1;
  const approx::Multiplier& mul = approx::exact_multiplier();
  // The emulated path twice: once through the retained scalar LUT kernel
  // (the seed's `lut_ms` series continues unbroken), once through the
  // dispatched LUT microkernels (tensor/lut_kernel.hpp).
  const gemm::mk::Target entry_target = gemm::mk::active().target;
  quant::lut_cache_reset_stats();
  gemm::mk::force(gemm::mk::Target::kScalar);
  const double t_lut =
      time_ms([&] { (void)quant::approx_conv2d(x, w, bias, aspec, mul); }, iters);
  gemm::mk::force(entry_target);
  const double t_lut_simd =
      time_ms([&] { (void)quant::approx_conv2d(x, w, bias, aspec, mul); }, iters);
  const quant::LutCacheStats lut_stats = quant::lut_cache_stats();
  const char* lut_dispatch = gemm::lk::active().name;
  const double lut_speedup = t_lut / t_lut_simd;

  const double macs = static_cast<double>(batch * hw * hw) * 9.0 * ch * ch;
  std::printf("conv layer [%lld, %lld, %lld, %lld] * [3, 3, %lld, %lld]  (%.1f MMACs)\n\n",
              static_cast<long long>(batch), static_cast<long long>(hw),
              static_cast<long long>(hw), static_cast<long long>(ch),
              static_cast<long long>(ch), static_cast<long long>(ch), macs / 1e6);
  std::printf("  %-34s %10.2f ms  %8.1f MMAC/s\n", "naive 7-loop conv", t_naive,
              macs / t_naive / 1e3);
  std::printf("  %-34s %10.2f ms  %8.1f MMAC/s  (%.2fx vs naive)\n", "im2col + blocked GEMM",
              t_gemm, macs / t_gemm / 1e3, t_naive / t_gemm);
  std::printf("  %-34s %10.2f ms  %8.1f MMAC/s  (%.2fx vs naive)\n",
              "LUT-approx scalar (retained path)", t_lut, macs / t_lut / 1e3, t_naive / t_lut);
  std::printf("  %-34s %10.2f ms  %8.1f MMAC/s  (%.2fx vs LUT scalar)\n",
              (std::string("LUT-approx ") + lut_dispatch + " microkernel").c_str(), t_lut_simd,
              macs / t_lut_simd / 1e3, lut_speedup);
  std::printf("  emulated vs exact SIMD conv: %.2fx before, %.2fx after  |  LUT cache: "
              "%llu hits / %llu misses (%.0f%% hit rate)\n",
              t_lut / t_gemm, t_lut_simd / t_gemm,
              static_cast<unsigned long long>(lut_stats.hits),
              static_cast<unsigned long long>(lut_stats.misses),
              100.0 * lut_stats.hit_rate());

  // ---- Microkernel dispatch: scalar blocked core vs SIMD core ----------
  const gemm::mk::KernelOps& kops = gemm::mk::active();
  const bool simd = kops.target != gemm::mk::Target::kScalar;
  std::printf("\ndispatch: %s (%s)\n", kops.name,
              simd ? "SIMD microkernel, 6x16 register tile" : "scalar fallback");

  const std::int64_t mm = quick ? 192 : 512;
  const int mm_iters = quick ? 5 : 10;
  const Tensor ma = ops::uniform(Shape{mm, mm}, -1.0, 1.0, rng);
  const Tensor mb = ops::uniform(Shape{mm, mm}, -1.0, 1.0, rng);
  Tensor mc(Shape{mm, mm});
  const double flops = 2.0 * static_cast<double>(mm) * mm * mm;

  const double t_legacy = time_ms(
      [&] {
        legacy_blocked_gemm(mm, mm, mm, ma.data().data(), mb.data().data(),
                            mc.data().data());
      },
      mm_iters);
  const double t_dispatch = time_ms(
      [&] {
        gemm::gemm_f32(false, false, mm, mm, mm, ma.data().data(), mb.data().data(), 0.0F,
                       mc.data().data());
      },
      mm_iters);
  const double gflops_legacy = flops / t_legacy / 1e6;
  const double gflops_dispatch = flops / t_dispatch / 1e6;
  const double simd_speedup = t_legacy / t_dispatch;

  std::printf("\nmatmul [%lld x %lld x %lld]\n", static_cast<long long>(mm),
              static_cast<long long>(mm), static_cast<long long>(mm));
  std::printf("  %-34s %10.2f ms  %8.1f GFLOP/s\n", "scalar blocked GEMM (pre-SIMD core)",
              t_legacy, gflops_legacy);
  std::printf("  %-34s %10.2f ms  %8.1f GFLOP/s  (%.2fx vs scalar blocked)\n",
              (std::string(kops.name) + " microkernel GEMM").c_str(), t_dispatch,
              gflops_dispatch, simd_speedup);

  JsonFields fields;
  fields.boolean("quick", quick)
      .str("target", kops.name)
      .integer("mnk", mm)
      .number("scalar_gflops", gflops_legacy, "%.2f")
      .number("simd_gflops", gflops_dispatch, "%.2f")
      .number("simd_speedup", simd_speedup, "%.2f")
      .number("conv_naive_ms", t_naive, "%.2f")
      .number("conv_gemm_ms", t_gemm, "%.2f")
      .number("conv_speedup", t_naive / t_gemm, "%.2f")
      .number("lut_ms", t_lut, "%.2f")
      .number("lut_simd_ms", t_lut_simd, "%.2f")
      .number("lut_speedup", lut_speedup, "%.2f")
      .str("lut_dispatch", lut_dispatch)
      .number("lut_cache_hit_rate", lut_stats.hit_rate(), "%.2f");
  if (append_bench_json(json_path, "gemm", fields)) {
    std::printf("appended results to %s\n", json_path.c_str());
  }

  const double conv_speedup = t_naive / t_gemm;
  bool pass = conv_speedup >= 2.0;
  std::printf("\n%s: im2col+GEMM is %.2fx the naive conv path (target >= 2x)\n",
              conv_speedup >= 2.0 ? "PASS" : "FAIL", conv_speedup);
  if (simd) {
    pass = pass && simd_speedup >= 2.0;
    std::printf("%s: %s microkernel GEMM is %.2fx the scalar blocked core (target >= 2x)\n",
                simd_speedup >= 2.0 ? "PASS" : "FAIL", kops.name, simd_speedup);
    pass = pass && lut_speedup >= 2.0;
    std::printf("%s: %s LUT-GEMM is %.2fx the retained scalar LUT path (target >= 2x)\n",
                lut_speedup >= 2.0 ? "PASS" : "FAIL", lut_dispatch, lut_speedup);
  } else {
    std::printf("SKIP: scalar dispatch fallback active (no FMA SIMD on this cpu) — "
                "float and LUT speedup gates waived\n");
  }
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace redcane::bench

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path = "BENCH_gemm.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) json_path = argv[++i];
  }
  return redcane::bench::run(quick, json_path);
}
