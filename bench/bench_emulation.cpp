// Behavioral-emulation throughput: batched LUT-datapath execution vs the
// per-image approx_conv reference path.
//
//   per-image — quant::approx_conv2d called once per sample, the usage
//               pattern of the pre-backend validation flows (and of any
//               per-request serving loop): every call re-fits quantization
//               params, rebuilds the 256x256 product table (65536 virtual
//               multiplier calls — the process-wide LUT cache is evicted
//               per call to preserve this series' meaning), and runs a
//               small integer GEMM.
//   batched   — the same conv executed once over the whole batch through
//               the shared LUT-accumulate core (quant/lut_gemm.hpp): a
//               cached product table, one big masked integer GEMM through
//               the dispatched LUT microkernels (tensor/lut_kernel.hpp)
//               with row blocks split across the compute pool, all
//               staging in the per-thread workspace arena.
//
// The batched path must be >= 2x the per-image path — the gate this binary
// exits on. A second (ungated, reported) section measures the full-network
// EmulatedBackend the serving runtime's "emulated" variant runs: batched
// micro-batch inference vs per-image inference. Results are appended as
// one JSON object to BENCH_emulation.json.
//
// Usage: bench_emulation [--quick] [--json PATH]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "approx/library.hpp"
#include "backend/backend.hpp"
#include "bench_common.hpp"
#include "capsnet/capsnet_model.hpp"
#include "capsnet/trainer.hpp"
#include "nn/im2col.hpp"
#include "quant/approx_conv.hpp"
#include "quant/lut_cache.hpp"
#include "tensor/lut_kernel.hpp"
#include "tensor/ops.hpp"

namespace redcane::bench {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(const Clock::time_point& t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

int run(bool quick, const std::string& json_path) {
  print_header("Behavioral emulation: batched LUT datapath vs per-image approx_conv");

  // 16x16 keeps the per-image GEMM below the per-call table build — the
  // cost batching amortizes — matching the tiny-profile serving geometry;
  // at much larger extents the (irreducible) GEMM dominates both modes.
  const std::int64_t hw = quick ? 14 : 16;
  const std::int64_t batch = quick ? 16 : 32;
  const int reps = quick ? 3 : 5;
  const approx::Multiplier& mul = approx::multiplier_by_name("axm_drum4_dm1");

  Rng rng(2020);
  const Tensor x = ops::uniform(Shape{batch, hw, hw, 1}, 0.0, 1.0, rng);
  const Tensor w = ops::uniform(Shape{9, 9, 1, 8}, -0.5, 0.5, rng);
  const Tensor bias = ops::uniform(Shape{8}, -0.1, 0.1, rng);
  quant::ApproxConvSpec spec;

  // Correctness guard before timing: the batched emulated conv with the
  // accurate multiplier must track the exact reference within quantization
  // error, or the speedup below is measuring broken math.
  {
    const Tensor ref = quant::reference_conv2d(x, w, bias, spec);
    const Tensor emu = quant::approx_conv2d(x, w, bias, spec, approx::exact_multiplier());
    double max_err = 0.0;
    for (std::int64_t i = 0; i < ref.numel(); ++i) {
      max_err = std::max(max_err, std::abs(static_cast<double>(ref.at(i) - emu.at(i))));
    }
    if (max_err > 0.25) {
      std::printf("FAIL: exact-multiplier emulation off by %.3f vs reference\n", max_err);
      return 1;
    }
  }

  // Warm the workspace arenas and the page cache; reset the LUT-cache
  // counters afterwards so the hit rate below reflects steady state.
  (void)quant::approx_conv2d(x, w, bias, spec, mul);
  quant::lut_cache_reset_stats();

  double per_image_ms = 0.0;
  {
    const auto t0 = Clock::now();
    for (int r = 0; r < reps; ++r) {
      for (std::int64_t i = 0; i < batch; ++i) {
        // The reference path is defined as the pre-backend per-request
        // pattern: every call re-fits params AND rebuilds the product
        // table. The process-wide cache would silently hand it a hot
        // table, so evict per call to keep the series' meaning.
        quant::lut_cache_invalidate(&mul);
        (void)quant::approx_conv2d(capsnet::slice_rows(x, i, i + 1), w, bias, spec, mul);
      }
    }
    per_image_ms = ms_since(t0) / reps;
    quant::lut_cache_reset_stats();  // Evictions above are not steady state.
  }
  double batched_ms = 0.0;
  {
    const auto t0 = Clock::now();
    for (int r = 0; r < reps; ++r) {
      (void)quant::approx_conv2d(x, w, bias, spec, mul);
    }
    batched_ms = ms_since(t0) / reps;
  }
  const double conv_speedup = per_image_ms / batched_ms;
  std::printf("conv 9x9, %lldx%lld, %lld images, drum4 LUT datapath (dispatch: %s):\n",
              static_cast<long long>(hw), static_cast<long long>(hw),
              static_cast<long long>(batch), gemm::lk::active().name);
  std::printf("  per-image  %10.2f ms  (%6.1f img/s)\n", per_image_ms,
              1e3 * static_cast<double>(batch) / per_image_ms);
  std::printf("  batched    %10.2f ms  (%6.1f img/s)  -> %.2fx\n", batched_ms,
              1e3 * static_cast<double>(batch) / batched_ms, conv_speedup);

  // Per-phase breakdown of one batched emulated conv — each stage timed
  // through the same public APIs approx_conv2d composes, so a future
  // regression localizes to a phase instead of hiding in the wall time.
  double phase_quant_ms = 0.0;
  double phase_build_ms = 0.0;
  double phase_mac_ms = 0.0;
  double phase_dequant_ms = 0.0;
  {
    const nn::ConvDims d = nn::make_conv_dims(x.shape(), w.shape(), spec.stride, spec.pad);
    const std::int64_t m = d.rows();
    const std::int64_t k = d.cols();
    const std::int64_t n = d.cout;
    std::vector<std::uint8_t> qx(static_cast<std::size_t>(x.numel()));
    std::vector<std::uint8_t> qw(static_cast<std::size_t>(w.numel()));
    // Every phase runs the code layout and the orientation approx_conv2d
    // picks for this shape.
    std::vector<std::uint8_t> cols(static_cast<std::size_t>(m * k));
    std::vector<std::uint8_t> mask(static_cast<std::size_t>(m * k));
    gemm::lk::LutProblem p;
    p.m = m;
    p.n = n;
    p.k = k;
    p.lanes = quant::lut_lanes(m, n, k);
    p.a = cols.data();
    p.mask = spec.pad > 0 ? mask.data() : nullptr;
    p.b = qw.data();
    quant::QuantParams px;
    quant::QuantParams pw;
    {
      const auto t0 = Clock::now();
      for (int r = 0; r < reps; ++r) {
        px = quant::fit_params(x, spec.bits);
        pw = quant::fit_params(w, spec.bits);
        quant::quantize_u8(x, px, qx.data());
        quant::quantize_u8(w, pw, qw.data());
        nn::im2col_codes(qx.data(), d, cols.data(), p.mask == nullptr ? nullptr : mask.data(),
                         p.lanes == gemm::lk::Lanes::kPositions);
      }
      phase_quant_ms = ms_since(t0) / reps;
    }
    {
      // Cold table preparation: the cost the process-wide cache removes
      // from every call after the first.
      std::vector<std::uint32_t> raw(256 * 256);
      const auto t0 = Clock::now();
      for (int r = 0; r < reps; ++r) {
        quant::build_product_lut(&mul, raw.data());
        (void)gemm::lk::LutTables::build(raw.data(), (1 << spec.bits) - 1);
      }
      phase_build_ms = ms_since(t0) / reps;
    }
    const gemm::lk::LutTables& tables = quant::lut_cache_get(&mul, spec.bits);
    std::vector<std::uint64_t> acc_qq(static_cast<std::size_t>(m * n));
    std::vector<std::uint64_t> acc_qw(static_cast<std::size_t>(m * n));
    std::vector<std::uint64_t> acc_qa(static_cast<std::size_t>(m));
    std::vector<std::int64_t> taps(static_cast<std::size_t>(m));
    {
      // The integer sums alone, block by block on this thread.
      const std::int64_t rb = gemm::lk::block_rows(p.lanes, n, k);
      const auto t0 = Clock::now();
      for (int r = 0; r < reps; ++r) {
        for (std::int64_t i0 = 0; i0 < m; i0 += rb) {
          gemm::lk::LutBlockOut o;
          o.qq64 = acc_qq.data() + i0 * n;
          o.qw = acc_qw.data() + i0 * n;
          o.qa = acc_qa.data() + i0;
          o.taps = taps.data() + i0;
          gemm::lk::lut_block(p, 0, i0, std::min(m, i0 + rb), tables, nullptr, o);
        }
      }
      phase_mac_ms = ms_since(t0) / reps;
    }
    {
      // lut_gemm_dequant fuses MAC + affine dequantization; the dequant
      // share is its total minus the MAC phase above.
      std::vector<float> out(static_cast<std::size_t>(m * n));
      const auto t0 = Clock::now();
      for (int r = 0; r < reps; ++r) {
        quant::lut_gemm_dequant(p, px, pw, tables, nullptr, nullptr,
                                quant::LutOutput{out.data(), n, 0});
      }
      phase_dequant_ms = std::max(0.0, ms_since(t0) / reps - phase_mac_ms);
    }
    std::printf("  phases     quantize+im2col %.2f ms | LUT build (cold) %.2f ms | "
                "multiply-accumulate %.2f ms | dequant %.2f ms\n",
                phase_quant_ms, phase_build_ms, phase_mac_ms, phase_dequant_ms);
  }

  // Full-network behavioral emulation (the serving "emulated" variant):
  // whole micro-batch through EmulatedBackend vs one image at a time. The
  // tiny profile's stacked 9x9 kernels need at least 20x20 inputs.
  const std::int64_t model_hw = 20;
  const std::int64_t model_batch = quick ? 8 : batch;
  const Tensor mx = ops::uniform(Shape{model_batch, model_hw, model_hw, 1}, 0.0, 1.0, rng);
  capsnet::CapsNetConfig cfg = capsnet::CapsNetConfig::tiny();
  cfg.input_hw = model_hw;
  Rng mrng(7);
  capsnet::CapsNetModel model(cfg, mrng);
  backend::EmulationPlan plan;
  for (const std::string& layer : model.layer_names()) {
    (void)plan.set_by_name(layer, mul.info().name);
  }
  const backend::EmulatedBackend emulated(std::move(plan));
  (void)emulated.run(model, capsnet::slice_rows(mx, 0, 1), 0);  // Warm-up.

  double model_single_ms = 0.0;
  {
    const auto t0 = Clock::now();
    for (int r = 0; r < reps; ++r) {
      for (std::int64_t i = 0; i < model_batch; ++i) {
        (void)emulated.run(model, capsnet::slice_rows(mx, i, i + 1), 0);
      }
    }
    model_single_ms = ms_since(t0) / reps;
  }
  double model_batched_ms = 0.0;
  {
    const auto t0 = Clock::now();
    for (int r = 0; r < reps; ++r) (void)emulated.run(model, mx, 0);
    model_batched_ms = ms_since(t0) / reps;
  }
  const double model_speedup = model_single_ms / model_batched_ms;
  std::printf("full CapsNet-tiny emulated forward (%zu planned MAC layers, %lld images):\n",
              emulated.plan().size(), static_cast<long long>(model_batch));
  std::printf("  per-image  %10.2f ms  (%6.1f img/s)\n", model_single_ms,
              1e3 * static_cast<double>(model_batch) / model_single_ms);
  std::printf("  batched    %10.2f ms  (%6.1f img/s)  -> %.2fx\n", model_batched_ms,
              1e3 * static_cast<double>(model_batch) / model_batched_ms, model_speedup);

  const quant::LutCacheStats cache_stats = quant::lut_cache_stats();
  std::printf("LUT cache since warm-up: %llu hits / %llu misses (%.0f%% hit rate, "
              "%llu tables resident)\n",
              static_cast<unsigned long long>(cache_stats.hits),
              static_cast<unsigned long long>(cache_stats.misses),
              100.0 * cache_stats.hit_rate(),
              static_cast<unsigned long long>(cache_stats.entries));

  JsonFields fields;
  fields.boolean("quick", quick)
      .integer("input_hw", hw)
      .integer("batch", batch)
      .str("component", mul.info().name)
      .str("dispatch", gemm::lk::active().name)
      .number("per_image_conv_ms", per_image_ms, "%.2f")
      .number("batched_conv_ms", batched_ms, "%.2f")
      .number("conv_speedup", conv_speedup, "%.2f")
      .number("phase_quantize_ms", phase_quant_ms, "%.2f")
      .number("phase_lut_build_ms", phase_build_ms, "%.2f")
      .number("phase_mac_ms", phase_mac_ms, "%.2f")
      .number("phase_dequant_ms", phase_dequant_ms, "%.2f")
      .number("cache_hit_rate", cache_stats.hit_rate(), "%.2f")
      .number("model_per_image_ms", model_single_ms, "%.2f")
      .number("model_batched_ms", model_batched_ms, "%.2f")
      .number("model_speedup", model_speedup, "%.2f");
  if (append_bench_json(json_path, "emulation", fields)) {
    std::printf("appended results to %s\n", json_path.c_str());
  }

  const bool pass = conv_speedup >= 2.0;
  std::printf("\n%s: batched emulation is %.2fx the per-image approx_conv reference "
              "(target >= 2x) [input_hw=%lld, batch=%lld, dispatch=%s]\n",
              pass ? "PASS" : "FAIL", conv_speedup, static_cast<long long>(hw),
              static_cast<long long>(batch), gemm::lk::active().name);
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace redcane::bench

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path = "BENCH_emulation.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) json_path = argv[++i];
  }
  return redcane::bench::run(quick, json_path);
}
