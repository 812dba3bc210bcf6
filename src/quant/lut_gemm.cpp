#include "quant/lut_gemm.hpp"

#include <algorithm>
#include <optional>

#include "approx/library.hpp"
#include "quant/lut_cache.hpp"
#include "tensor/lut_kernel.hpp"
#include "tensor/workspace.hpp"
#include "util/pool.hpp"

namespace redcane::quant {
namespace {

/// gemm::U32Accum adapter over a behavioral adder.
class AdderAccum final : public gemm::U32Accum {
 public:
  explicit AdderAccum(const approx::Adder& adder) : adder_(adder) {}
  [[nodiscard]] std::uint32_t add(std::uint32_t a, std::uint32_t b) const override {
    return adder_.add(a, b);
  }

 private:
  const approx::Adder& adder_;
};

}  // namespace

void build_product_lut(const approx::Multiplier* mul, std::uint32_t* lut) {
  const approx::Multiplier& m = mul == nullptr ? approx::exact_multiplier() : *mul;
  for (int a = 0; a < 256; ++a) {
    for (int b = 0; b < 256; ++b) {
      lut[(a << 8) | b] =
          m.multiply(static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b));
    }
  }
}

gemm::lk::Lanes lut_lanes(std::int64_t m, std::int64_t n, std::int64_t k) {
  // Set from single-thread timings of both orientations (AVX2, exact and
  // drum4 tables): positions win 1.3-14x from 64x16x9 and 40x16x36 up to
  // 25600x8x81, channels win ~2x at 1024x32x8 and at every m of the
  // ClassCaps shape n = 80, k = 4, and 20x16x36 and 16x16x144 are a wash.
  return m >= 2 * n && n <= 2 * k ? gemm::lk::Lanes::kPositions : gemm::lk::Lanes::kChannels;
}

void lut_gemm_dequant(const gemm::lk::LutProblem& p, const QuantParams& pa,
                      const QuantParams& pb, const gemm::lk::LutTables& tables,
                      const approx::Adder* adder, const float* bias, const LutOutput& out) {
  const std::int64_t n = p.n;
  const std::int64_t rb = gemm::lk::block_rows(p.lanes, n, p.k);
  const std::int64_t blocks = (p.m + rb - 1) / rb;
  const std::int64_t tasks = p.groups * blocks;
  // The exact path keeps 64-bit product sums (unbounded k); the adder path
  // runs the 32-bit accumulator datapath the chain models. Both feed the
  // identical dequantization, so an exact adder object reproduces the
  // exact-path floats bit-for-bit (8-bit code sums stay far below 2^32).
  std::optional<AdderAccum> chain;
  if (adder != nullptr) chain.emplace(*adder);
  const gemm::U32Accum* accum = chain ? &*chain : nullptr;
  const double sa = pa.step();
  const double sb = pb.step();

  // A task is one row block: its LUT MACs plus the double dequantization.
  const double task_ns =
      static_cast<double>(rb * n) * (static_cast<double>(p.k) * gemm::lk::kNsPerLutMac + 2.0);
  pool::parallel_for(tasks, task_ns, [&](std::int64_t first, std::int64_t last) {
    for (std::int64_t task = first; task < last; ++task) {
      const std::int64_t g = task / blocks;
      const std::int64_t i0 = (task % blocks) * rb;
      const std::int64_t rows = std::min(p.m, i0 + rb) - i0;
      ws::Workspace& wksp = ws::Workspace::tls();
      const ws::Workspace::Scope scope(wksp);
      const auto cells = static_cast<std::size_t>(rows * n);
      gemm::lk::LutBlockOut acc;
      if (accum == nullptr) {
        acc.qq64 = wksp.alloc<std::uint64_t>(cells);
      } else {
        acc.qq32 = wksp.alloc<std::uint32_t>(cells);
      }
      acc.qw = wksp.alloc<std::uint64_t>(cells);
      acc.qa = wksp.alloc<std::uint64_t>(static_cast<std::size_t>(rows));
      acc.taps = wksp.alloc<std::int64_t>(static_cast<std::size_t>(rows));
      gemm::lk::lut_block(p, g, i0, i0 + rows, tables, accum, acc);

      for (std::int64_t r = 0; r < rows; ++r) {
        const double row_base = pa.min * pb.min * static_cast<double>(acc.taps[r]) +
                                pb.min * sa * static_cast<double>(acc.qa[r]);
        float* orow = out.data + g * out.group + (i0 + r) * out.row;
        for (std::int64_t j = 0; j < n; ++j) {
          const std::size_t idx = static_cast<std::size_t>(r * n + j);
          double v = row_base;
          v += pa.min * sb * static_cast<double>(acc.qw[idx]);
          v += sa * sb *
               (accum == nullptr ? static_cast<double>(acc.qq64[idx])
                                 : static_cast<double>(acc.qq32[idx]));
          if (bias != nullptr) v += bias[j];
          orow[j] = static_cast<float>(v);
        }
      }
    }
  });
}

QuantOperands::QuantOperands(const Tensor& a, const Tensor& b, const approx::Multiplier* mul,
                             int bits, ws::Workspace& wksp)
    : pa(fit_params(a, bits)),
      pb(fit_params(b, bits)),
      qa(wksp.alloc<std::uint8_t>(static_cast<std::size_t>(a.numel()))),
      qb(wksp.alloc<std::uint8_t>(static_cast<std::size_t>(b.numel()))) {
  quantize_u8(a, pa, qa);
  quantize_u8(b, pb, qb);
  tables = &lut_cache_get(mul, bits);
}

Tensor approx_matmul(const Tensor& a, const Tensor& b, const Tensor& bias,
                     const MacUnit& unit, int bits) {
  const std::int64_t m = a.shape().dim(0);
  const std::int64_t k = a.shape().dim(1);
  const std::int64_t n = b.shape().dim(1);
  ws::Workspace& wksp = ws::Workspace::tls();
  const ws::Workspace::Scope scope(wksp);
  const QuantOperands q(a, b, unit.mul, bits, wksp);

  gemm::lk::LutProblem p;
  p.lanes = lut_lanes(m, n, k);
  p.m = m;
  p.n = n;
  p.k = k;
  p.a = q.qa;
  p.b = q.qb;
  if (p.lanes == gemm::lk::Lanes::kPositions) {
    std::uint8_t* tap_major = wksp.alloc<std::uint8_t>(static_cast<std::size_t>(a.numel()));
    for (std::int64_t i = 0; i < m; ++i) {
      for (std::int64_t kk = 0; kk < k; ++kk) tap_major[kk * m + i] = q.qa[i * k + kk];
    }
    p.a = tap_major;
  }
  Tensor out(Shape{m, n});
  lut_gemm_dequant(p, q.pa, q.pb, *q.tables, unit.adder,
                   bias.empty() ? nullptr : bias.data().data(), LutOutput{out.data().data(), n, 0});
  return out;
}

}  // namespace redcane::quant
