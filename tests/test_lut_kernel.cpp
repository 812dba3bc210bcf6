// Dispatched LUT-GEMM microkernel contracts (tensor/lut_kernel +
// quant/lut_cache):
//  * every dispatch tier reproduces the retained scalar kernels bitwise —
//    all accumulator outputs, across tail shapes (k/m/n off the lane
//    widths), null and random masks, all-valid and all-masked rows, and
//    both real product tables (exact = all nibble rows, drum = mixed);
//  * the approximate-adder chain driver is bit-for-bit the seed chain
//    kernel under every tier (SIMD staging must not touch chain order);
//  * the positions orientation (lanes along m over tap-major codes, a
//    table column per weight code) and grouped blocks with a shared mask
//    reproduce the same oracle, for symmetric and asymmetric tables;
//  * LutTables::build proves nibble decomposition per row (never falsely),
//    derives a flush cadence that keeps u32 partials exact even for
//    pathological table values, builds a column view only for tables that
//    are asymmetric over the reachable codes, and refuses codes wider than
//    8 bits;
//  * forcing an unsupported target is rejected without changing dispatch;
//  * the process-wide LUT cache hits on repeated (multiplier, bits) keys,
//    separates wordlengths, is race-free on first touch, and drops entries
//    of plan-owned multipliers when the EmulationPlan dies.
#include "tensor/lut_kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

#include "approx/library.hpp"
#include "backend/emulation.hpp"
#include "obs/metrics.hpp"
#include "quant/lut_cache.hpp"
#include "quant/lut_gemm.hpp"
#include "tensor/gemm.hpp"
#include "tensor/random.hpp"

namespace redcane::gemm::lk {
namespace {

class ExactAccum final : public gemm::U32Accum {
 public:
  [[nodiscard]] std::uint32_t add(std::uint32_t a, std::uint32_t b) const override {
    return a + b;
  }
};

class AdderAccum final : public gemm::U32Accum {
 public:
  explicit AdderAccum(const approx::Adder& a) : a_(a) {}
  [[nodiscard]] std::uint32_t add(std::uint32_t x, std::uint32_t y) const override {
    return a_.add(x, y);
  }

 private:
  const approx::Adder& a_;
};

/// Restores float+LUT dispatch on scope exit (force repoints both).
class DispatchGuard {
 public:
  DispatchGuard() : saved_(mk::active().target) {}
  ~DispatchGuard() { mk::force(saved_); }

 private:
  mk::Target saved_;
};

std::vector<mk::Target> supported_targets() {
  std::vector<mk::Target> out;
  for (const mk::Target t : {mk::Target::kScalar, mk::Target::kSse, mk::Target::kAvx2}) {
    if (mk::supported(t)) out.push_back(t);
  }
  return out;
}

struct CodeProblem {
  std::int64_t m = 0;
  std::int64_t n = 0;
  std::int64_t k = 0;
  std::vector<std::uint8_t> a;
  std::vector<std::uint8_t> b;
  std::vector<std::uint8_t> mask;  ///< Empty = null mask.
};

CodeProblem make_problem(std::int64_t m, std::int64_t n, std::int64_t k, int mask_kind,
                         std::uint64_t seed) {
  CodeProblem p;
  p.m = m;
  p.n = n;
  p.k = k;
  Rng rng(seed);
  p.a.resize(static_cast<std::size_t>(m * k));
  p.b.resize(static_cast<std::size_t>(k * n));
  for (auto& v : p.a) v = static_cast<std::uint8_t>(rng.next_u64() % 256);
  for (auto& v : p.b) v = static_cast<std::uint8_t>(rng.next_u64() % 256);
  if (mask_kind == 1) {  // Random taps; row 0 forced all-valid, row m-1 all-masked.
    p.mask.resize(static_cast<std::size_t>(m * k));
    for (auto& v : p.mask) v = static_cast<std::uint8_t>(rng.next_u64() % 2);
    for (std::int64_t kk = 0; kk < k; ++kk) {
      p.mask[static_cast<std::size_t>(kk)] = 1;
      p.mask[static_cast<std::size_t>((m - 1) * k + kk)] = 0;
    }
  } else if (mask_kind == 2) {  // All-ones mask (must equal the null mask).
    p.mask.assign(static_cast<std::size_t>(m * k), 1);
  }
  return p;
}

/// Every accumulator of one LutProblem run block by block.
struct BlockSums {
  std::vector<std::uint64_t> qq64;
  std::vector<std::uint32_t> qq32;
  std::vector<std::uint64_t> qw;
  std::vector<std::uint64_t> qa;
  std::vector<std::int64_t> taps;
};

/// Runs `p` (row-major codes) through lut_block in orientation `lanes`,
/// laying the codes and mask out tap-major for the positions orientation.
/// Outputs are pre-filled with junk so an unwritten element shows.
BlockSums run_blocks(const CodeProblem& p, Lanes lanes, const LutTables& tables,
                     const gemm::U32Accum* accum) {
  std::vector<std::uint8_t> a = p.a;
  std::vector<std::uint8_t> mask = p.mask;
  if (lanes == Lanes::kPositions) {
    for (std::int64_t i = 0; i < p.m; ++i) {
      for (std::int64_t kk = 0; kk < p.k; ++kk) {
        a[static_cast<std::size_t>(kk * p.m + i)] = p.a[static_cast<std::size_t>(i * p.k + kk)];
        if (!mask.empty()) {
          mask[static_cast<std::size_t>(kk * p.m + i)] =
              p.mask[static_cast<std::size_t>(i * p.k + kk)];
        }
      }
    }
  }
  LutProblem prob;
  prob.lanes = lanes;
  prob.m = p.m;
  prob.n = p.n;
  prob.k = p.k;
  prob.a = a.data();
  prob.mask = mask.empty() ? nullptr : mask.data();
  prob.b = p.b.data();
  const std::size_t mn = static_cast<std::size_t>(p.m * p.n);
  const std::size_t ms = static_cast<std::size_t>(p.m);
  BlockSums s;
  s.qq64.assign(accum == nullptr ? mn : 0, 0xAA);
  s.qq32.assign(accum == nullptr ? 0 : mn, 0xAA);
  s.qw.assign(mn, 0xAA);
  s.qa.assign(ms, 0xAA);
  s.taps.assign(ms, -1);
  const std::int64_t rb = block_rows(lanes, p.n, p.k);
  for (std::int64_t i0 = 0; i0 < p.m; i0 += rb) {
    LutBlockOut out;
    out.qq64 = accum == nullptr ? s.qq64.data() + i0 * p.n : nullptr;
    out.qq32 = accum == nullptr ? nullptr : s.qq32.data() + i0 * p.n;
    out.qw = s.qw.data() + i0 * p.n;
    out.qa = s.qa.data() + i0;
    out.taps = s.taps.data() + i0;
    lut_block(prob, 0, i0, std::min(p.m, i0 + rb), tables, accum, out);
  }
  return s;
}

/// A table no library multiplier has: lut[a][b] != lut[b][a] for most
/// pairs, and no row decomposes into nibbles.
std::vector<std::uint32_t> asymmetric_table() {
  std::vector<std::uint32_t> t(256 * 256);
  for (std::uint32_t a = 0; a < 256; ++a) {
    for (std::uint32_t b = 0; b < 256; ++b) {
      t[(a << 8) | b] = a * b + ((a ^ (b >> 1)) & 15) * ((b & 3) + 1);
    }
  }
  return t;
}

void expect_tiers_match_oracle(const CodeProblem& p, const std::uint32_t* raw,
                               const LutTables& tables, const char* tag) {
  // The exact-adder chain runs the 32-bit accumulator datapath, so it can
  // only be compared to the u64 kernel when row sums cannot wrap.
  const bool chain_fits_u32 =
      static_cast<std::uint64_t>(tables.max_value) * static_cast<std::uint64_t>(p.k) <
      (1ULL << 32);
  const std::uint8_t* mask = p.mask.empty() ? nullptr : p.mask.data();
  const std::size_t mn = static_cast<std::size_t>(p.m * p.n);
  const std::size_t ms = static_cast<std::size_t>(p.m);

  std::vector<std::uint64_t> qq_o(mn);
  std::vector<std::uint64_t> qw_o(mn);
  std::vector<std::uint64_t> qa_o(ms);
  std::vector<std::int64_t> taps_o(ms);
  gemm::gemm_u8_lut(p.m, p.n, p.k, p.a.data(), mask, p.b.data(), raw, qq_o.data(),
                    qw_o.data(), qa_o.data(), taps_o.data());

  std::vector<std::uint32_t> cq_o(mn);
  const AdderAccum trunc(approx::adder_by_name("axa_trunc6"));
  std::vector<std::uint64_t> cw_o(mn);
  std::vector<std::uint64_t> ca_o(ms);
  std::vector<std::int64_t> ctaps_o(ms);
  gemm::gemm_u8_lut_chain(p.m, p.n, p.k, p.a.data(), mask, p.b.data(), raw, trunc,
                          cq_o.data(), cw_o.data(), ca_o.data(), ctaps_o.data());

  const DispatchGuard guard;
  for (const mk::Target t : supported_targets()) {
    ASSERT_TRUE(mk::force(t));
    SCOPED_TRACE(std::string(tag) + " tier=" + ops_for(t).name);

    std::vector<std::uint64_t> qq(mn, 0xAA);
    std::vector<std::uint64_t> qw(mn, 0xAA);
    std::vector<std::uint64_t> qa(ms, 0xAA);
    std::vector<std::int64_t> taps(ms, -1);
    lut_gemm_u8(p.m, p.n, p.k, p.a.data(), mask, p.b.data(), tables, qq.data(), qw.data(),
                qa.data(), taps.data());
    EXPECT_EQ(qq, qq_o);
    EXPECT_EQ(qw, qw_o);
    EXPECT_EQ(qa, qa_o);
    EXPECT_EQ(taps, taps_o);

    std::vector<std::uint32_t> cq(mn, 0xAA);
    std::vector<std::uint64_t> cw(mn, 0xAA);
    std::vector<std::uint64_t> ca(ms, 0xAA);
    std::vector<std::int64_t> ctaps(ms, -1);
    lut_gemm_u8_chain(p.m, p.n, p.k, p.a.data(), mask, p.b.data(), tables, trunc, cq.data(),
                      cw.data(), ca.data(), ctaps.data());
    EXPECT_EQ(cq, cq_o);
    EXPECT_EQ(cw, cw_o);
    EXPECT_EQ(ca, ca_o);
    EXPECT_EQ(ctaps, ctaps_o);

    // An exact-adder chain equals the exact kernel's sums whenever they
    // fit the 32-bit accumulator it models, tier by tier.
    if (chain_fits_u32) {
      const ExactAccum exact;
      lut_gemm_u8_chain(p.m, p.n, p.k, p.a.data(), mask, p.b.data(), tables, exact,
                        cq.data(), cw.data(), ca.data(), ctaps.data());
      for (std::size_t i = 0; i < mn; ++i) {
        ASSERT_EQ(static_cast<std::uint64_t>(cq[i]), qq_o[i]) << "exact chain qq at " << i;
      }
    }

    // The positions orientation (lanes along m over tap-major codes), block
    // by block: the same sums, exact and through the adder chain.
    const BlockSums pos = run_blocks(p, Lanes::kPositions, tables, nullptr);
    EXPECT_EQ(pos.qq64, qq_o);
    EXPECT_EQ(pos.qw, qw_o);
    EXPECT_EQ(pos.qa, qa_o);
    EXPECT_EQ(pos.taps, taps_o);
    const BlockSums pos_chain = run_blocks(p, Lanes::kPositions, tables, &trunc);
    EXPECT_EQ(pos_chain.qq32, cq_o);
    EXPECT_EQ(pos_chain.qw, cw_o);
    EXPECT_EQ(pos_chain.qa, ca_o);
    EXPECT_EQ(pos_chain.taps, ctaps_o);
  }
}

TEST(LutKernel, AllTiersMatchScalarOracleAcrossShapesMasksAndTables) {
  std::vector<std::uint32_t> lut_exact(256 * 256);
  quant::build_product_lut(nullptr, lut_exact.data());
  const LutTables t_exact = LutTables::build(lut_exact.data());

  std::vector<std::uint32_t> lut_drum(256 * 256);
  quant::build_product_lut(&approx::multiplier_by_name("axm_drum4_dm1"), lut_drum.data());
  const LutTables t_drum = LutTables::build(lut_drum.data());

  const std::vector<std::uint32_t> lut_asym = asymmetric_table();
  const LutTables t_asym = LutTables::build(lut_asym.data());
  ASSERT_NE(t_asym.transposed, nullptr);

  // Shapes straddle the lane widths: n in {1, 5, 16, 33, 40} exercises the
  // 32/16-lane bodies and every tail, k odd exercises tap loops, m = 1
  // exercises the no-parallel edge. The m >> n shapes are CapsNet-tiny's
  // conv1 and PrimaryCaps at batch 1 (lanes along positions in the
  // layers), and 37x3x5 gives the positions orientation a 5-lane tail.
  const std::int64_t shapes[][3] = {{7, 5, 23},  {3, 33, 17},  {1, 1, 1},
                                    {5, 64, 48}, {2, 40, 9},   {4, 16, 31},
                                    {400, 8, 81}, {36, 16, 648}, {37, 3, 5}};
  for (const auto& s : shapes) {
    for (int mask_kind = 0; mask_kind < 3; ++mask_kind) {
      const CodeProblem p =
          make_problem(s[0], s[1], s[2], mask_kind, 1000 + static_cast<std::uint64_t>(
                                                              s[0] * 31 + s[1] + mask_kind));
      SCOPED_TRACE("shape " + std::to_string(s[0]) + "x" + std::to_string(s[1]) + "x" +
                   std::to_string(s[2]) + " mask_kind=" + std::to_string(mask_kind));
      expect_tiers_match_oracle(p, lut_exact.data(), t_exact, "exact");
      expect_tiers_match_oracle(p, lut_drum.data(), t_drum, "drum4");
      expect_tiers_match_oracle(p, lut_asym.data(), t_asym, "asymmetric");
    }
  }
}

TEST(LutKernel, ColumnViewOnlyForAsymmetricTables) {
  // Every library multiplier commutes on 8-bit codes, so its row view is
  // its column view and no second copy is built.
  for (const approx::Multiplier* mul : approx::multiplier_library()) {
    EXPECT_EQ(quant::lut_cache_get(mul, 8).transposed, nullptr) << mul->info().name;
  }
  const std::vector<std::uint32_t> raw = asymmetric_table();
  const LutTables t = LutTables::build(raw.data());
  ASSERT_NE(t.transposed, nullptr);
  EXPECT_EQ(&t.columns(), t.transposed.get());
  const LutTables& c = t.columns();
  for (int a = 0; a < 256; ++a) {
    for (int b = 0; b < 256; ++b) {
      ASSERT_EQ(c.lut[static_cast<std::size_t>((b << 8) | a)],
                raw[static_cast<std::size_t>((a << 8) | b)]);
    }
  }
  EXPECT_EQ(c.max_value, t.max_value);
  EXPECT_EQ(c.flush_every, t.flush_every);
  EXPECT_EQ(c.transposed, nullptr);

  // Symmetry is judged over the reachable codes only: a table that
  // differs only past code 15 needs no column view at 4 bits.
  std::vector<std::uint32_t> low(256 * 256);
  quant::build_product_lut(nullptr, low.data());
  low[(200 << 8) | 3] += 1;
  EXPECT_NE(LutTables::build(low.data()).transposed, nullptr);
  EXPECT_EQ(LutTables::build(low.data(), 15).transposed, nullptr);
}

TEST(LutKernel, GroupedBlocksWithSharedMaskMatchPerGroupOracle) {
  // Three groups with their own codes and weights, one shared padding mask
  // (mask_group = 0), in both orientations and through both drivers.
  std::vector<std::uint32_t> raw(256 * 256);
  quant::build_product_lut(&approx::multiplier_by_name("axm_res2_14vp"), raw.data());
  const LutTables tables = LutTables::build(raw.data());
  const AdderAccum loa(approx::adder_by_name("axa_loa6"));
  const std::int64_t groups = 3;
  const std::int64_t m = 70;
  const std::int64_t n = 6;
  const std::int64_t k = 19;
  const CodeProblem shared = make_problem(m, n, k, 1, 91);
  std::vector<CodeProblem> per_group;
  for (std::int64_t g = 0; g < groups; ++g) {
    CodeProblem p = make_problem(m, n, k, 0, 300 + static_cast<std::uint64_t>(g));
    p.mask = shared.mask;
    per_group.push_back(p);
  }
  const DispatchGuard guard;
  for (const mk::Target t : supported_targets()) {
    ASSERT_TRUE(mk::force(t));
    for (const Lanes lanes : {Lanes::kChannels, Lanes::kPositions}) {
      for (const gemm::U32Accum* accum : {static_cast<const gemm::U32Accum*>(nullptr),
                                          static_cast<const gemm::U32Accum*>(&loa)}) {
        SCOPED_TRACE(std::string(ops_for(t).name) +
                     (lanes == Lanes::kPositions ? " positions" : " channels") +
                     (accum == nullptr ? " exact" : " chain"));
        // Pack every group in the orientation's layout.
        std::vector<std::uint8_t> a(static_cast<std::size_t>(groups * m * k));
        std::vector<std::uint8_t> mask(static_cast<std::size_t>(m * k));
        std::vector<std::uint8_t> b(static_cast<std::size_t>(groups * k * n));
        for (std::int64_t g = 0; g < groups; ++g) {
          for (std::int64_t i = 0; i < m; ++i) {
            for (std::int64_t kk = 0; kk < k; ++kk) {
              const std::size_t to = static_cast<std::size_t>(
                  lanes == Lanes::kPositions ? kk * m + i : i * k + kk);
              const std::size_t from = static_cast<std::size_t>(i * k + kk);
              a[static_cast<std::size_t>(g * m * k) + to] = per_group[g].a[from];
              mask[to] = shared.mask[from];
            }
          }
          std::copy(per_group[g].b.begin(), per_group[g].b.end(),
                    b.begin() + static_cast<std::ptrdiff_t>(g * k * n));
        }
        LutProblem prob;
        prob.lanes = lanes;
        prob.m = m;
        prob.n = n;
        prob.k = k;
        prob.groups = groups;
        prob.a = a.data();
        prob.a_group = m * k;
        prob.mask = mask.data();
        prob.b = b.data();
        prob.b_group = k * n;
        for (std::int64_t g = 0; g < groups; ++g) {
          const CodeProblem& p = per_group[static_cast<std::size_t>(g)];
          const std::size_t mn = static_cast<std::size_t>(m * n);
          std::vector<std::uint64_t> qq(mn);
          std::vector<std::uint32_t> cq(mn);
          std::vector<std::uint64_t> qw(mn);
          std::vector<std::uint64_t> qa(static_cast<std::size_t>(m));
          std::vector<std::int64_t> taps(static_cast<std::size_t>(m));
          if (accum == nullptr) {
            gemm::gemm_u8_lut(m, n, k, p.a.data(), p.mask.data(), p.b.data(), raw.data(),
                              qq.data(), qw.data(), qa.data(), taps.data());
          } else {
            gemm::gemm_u8_lut_chain(m, n, k, p.a.data(), p.mask.data(), p.b.data(), raw.data(),
                                    *accum, cq.data(), qw.data(), qa.data(), taps.data());
          }
          std::vector<std::uint64_t> gq(mn, 0xAA);
          std::vector<std::uint32_t> gc(mn, 0xAA);
          std::vector<std::uint64_t> gw(mn, 0xAA);
          std::vector<std::uint64_t> ga(static_cast<std::size_t>(m), 0xAA);
          std::vector<std::int64_t> gt(static_cast<std::size_t>(m), -1);
          const std::int64_t rb = block_rows(lanes, n, k);
          for (std::int64_t i0 = 0; i0 < m; i0 += rb) {
            LutBlockOut out;
            out.qq64 = accum == nullptr ? gq.data() + i0 * n : nullptr;
            out.qq32 = accum == nullptr ? nullptr : gc.data() + i0 * n;
            out.qw = gw.data() + i0 * n;
            out.qa = ga.data() + i0;
            out.taps = gt.data() + i0;
            lut_block(prob, g, i0, std::min(m, i0 + rb), tables, accum, out);
          }
          if (accum == nullptr) {
            EXPECT_EQ(gq, qq) << "group " << g;
          } else {
            EXPECT_EQ(gc, cq) << "group " << g;
          }
          EXPECT_EQ(gw, qw) << "group " << g;
          EXPECT_EQ(ga, qa) << "group " << g;
          EXPECT_EQ(gt, taps) << "group " << g;
        }
      }
    }
  }
}

TEST(LutKernel, TableBuildRefusesCodesPastEightBits) {
  // Earlier tests started compute-pool threads: re-execute instead of forking.
#ifdef GTEST_FLAG_SET
  GTEST_FLAG_SET(death_test_style, "threadsafe");
#else
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
#endif
  std::vector<std::uint32_t> raw(256 * 256, 1);
  EXPECT_DEATH((void)LutTables::build(raw.data(), 256), "max_code 256");
  EXPECT_DEATH((void)LutTables::build(raw.data(), -1), "max_code -1");
  EXPECT_DEATH((void)quant::lut_cache_get(nullptr, 9), "wordlength 9");
  EXPECT_DEATH((void)quant::lut_cache_get(nullptr, 0), "wordlength 0");
}

TEST(LutKernel, NibbleDecompositionProvenExactlyPerRow) {
  std::vector<std::uint32_t> lut_exact(256 * 256);
  quant::build_product_lut(nullptr, lut_exact.data());
  const LutTables t_exact = LutTables::build(lut_exact.data());
  // a*b = a*(b>>4)*16 + a*(b&15), both halves <= 255*15*16 < 2^16: every
  // exact row decomposes.
  EXPECT_TRUE(t_exact.any_nibble);
  for (int r = 0; r < 256; ++r) EXPECT_EQ(t_exact.nibble_ok[static_cast<std::size_t>(r)], 1);
  EXPECT_EQ(t_exact.max_value, 255u * 255u);

  // Synthetic mixed table: even rows r*b (decomposable), odd rows carry a
  // nibble cross term (l & 1) * h that no H[h] + L[l] split can express.
  std::vector<std::uint32_t> mixed(256 * 256);
  for (int r = 0; r < 256; ++r) {
    for (int b = 0; b < 256; ++b) {
      const std::uint32_t base = static_cast<std::uint32_t>(r * b);
      mixed[static_cast<std::size_t>((r << 8) | b)] =
          (r % 2 == 0) ? base
                       : base + static_cast<std::uint32_t>((b & 1) * (b >> 4));
    }
  }
  const LutTables t_mixed = LutTables::build(mixed.data());
  for (int r = 0; r < 256; ++r) {
    EXPECT_EQ(t_mixed.nibble_ok[static_cast<std::size_t>(r)], r % 2 == 0 ? 1 : 0)
        << "row " << r;
  }

  // Restricting max_code can make a row decomposable that is not at 255:
  // the odd rows above are linear over b in [0, 15] (the cross term needs
  // h > 0). At 4-bit codes every row must decompose.
  const LutTables t_mixed4 = LutTables::build(mixed.data(), 15);
  for (int r = 0; r < 16; ++r) {
    EXPECT_EQ(t_mixed4.nibble_ok[static_cast<std::size_t>(r)], 1) << "row " << r;
  }

  // The mixed table still runs bitwise-equal through every tier.
  const CodeProblem p = make_problem(5, 37, 29, 1, 77);
  expect_tiers_match_oracle(p, mixed.data(), t_mixed, "mixed");
}

TEST(LutKernel, HugeTableValuesFlushBeforeU32Wrap) {
  // Constant 2^30 entries: flush_every collapses to 3, so a k = 50 row sum
  // (50 * 2^30 > 2^32) is only correct if the SIMD tiers flush their u32
  // partials on the derived cadence. L[0] alone exceeds u16, so no row
  // decomposes and the general (gather) path carries the whole test.
  std::vector<std::uint32_t> huge(256 * 256, 1u << 30);
  const LutTables t = LutTables::build(huge.data());
  EXPECT_FALSE(t.any_nibble);
  EXPECT_EQ(t.max_value, 1u << 30);
  EXPECT_EQ(t.flush_every, 3);

  const CodeProblem p = make_problem(3, 21, 50, 0, 9);
  expect_tiers_match_oracle(p, huge.data(), t, "huge");

  // All-zero table: cadence falls back to the code-side clamp.
  std::vector<std::uint32_t> zero(256 * 256, 0);
  const LutTables tz = LutTables::build(zero.data());
  EXPECT_EQ(tz.max_value, 0u);
  EXPECT_EQ(tz.flush_every, 16843009);
}

TEST(LutKernel, HugeTableValuesFlushMaskedPartialsInBothOrientations) {
  // flush_every = 3 with padding taps: the masked weight-code and product
  // partials of both orientations must spill on the same cadence.
  std::vector<std::uint32_t> huge(256 * 256, 1u << 30);
  const LutTables t = LutTables::build(huge.data());
  ASSERT_EQ(t.flush_every, 3);
  expect_tiers_match_oracle(make_problem(40, 5, 50, 1, 17), huge.data(), t, "huge masked");
}

TEST(LutKernel, ForcedTargetRejectionAndTierNames) {
  const DispatchGuard guard;
  for (const mk::Target t : {mk::Target::kScalar, mk::Target::kSse, mk::Target::kAvx2}) {
    if (mk::supported(t)) {
      EXPECT_TRUE(mk::force(t));
      EXPECT_EQ(ops_for(t).target, t);
      EXPECT_EQ(&active(), &ops_for(t));
    } else {
      const mk::Target before = mk::active().target;
      EXPECT_FALSE(mk::force(t));  // Rejected without faulting...
      EXPECT_EQ(mk::active().target, before);  // ...and dispatch unchanged.
    }
  }
  EXPECT_STREQ(ops_for(mk::Target::kScalar).name, "scalar");
#if defined(__x86_64__) || defined(__i386__)
  EXPECT_STREQ(ops_for(mk::Target::kSse).name, "ssse3");
  EXPECT_STREQ(ops_for(mk::Target::kAvx2).name, "avx2");
#endif
}

TEST(LutCache, HitsMissesWordlengthsAndConcurrentFirstTouch) {
  // Each hit or miss is recorded once: the cache's resettable view and the
  // process-wide lut_cache_*_total counters move together (a reset zeroes
  // only the view).
  obs::Snapshot before;
  const auto expect_registry_moved_by = [&](const quant::LutCacheStats& view) {
    const obs::Snapshot after = obs::Registry::instance().snapshot();
    EXPECT_EQ(after.counter("lut_cache_hits_total") - before.counter("lut_cache_hits_total"),
              static_cast<std::int64_t>(view.hits));
    EXPECT_EQ(after.counter("lut_cache_misses_total") - before.counter("lut_cache_misses_total"),
              static_cast<std::int64_t>(view.misses));
  };

  quant::lut_cache_clear();
  quant::lut_cache_reset_stats();
  before = obs::Registry::instance().snapshot();

  const LutTables& a = quant::lut_cache_get(nullptr, 8);
  const LutTables& b = quant::lut_cache_get(&approx::exact_multiplier(), 8);
  EXPECT_EQ(&a, &b);  // Null normalizes to the exact component.
  const LutTables& c = quant::lut_cache_get(nullptr, 6);
  EXPECT_NE(&a, &c);  // Wordlength is part of the key.
  quant::LutCacheStats s = quant::lut_cache_stats();
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.entries, 2u);
  expect_registry_moved_by(s);

  // Concurrent first touch of one new key: exactly one build wins, every
  // thread sees the same entry.
  quant::lut_cache_clear();
  quant::lut_cache_reset_stats();
  before = obs::Registry::instance().snapshot();
  const approx::Multiplier& drum = approx::multiplier_by_name("axm_drum4_dm1");
  std::vector<const LutTables*> seen(8, nullptr);
  std::vector<std::thread> threads;
  threads.reserve(seen.size());
  for (std::size_t i = 0; i < seen.size(); ++i) {
    threads.emplace_back([&, i] { seen[i] = &quant::lut_cache_get(&drum, 8); });
  }
  for (auto& th : threads) th.join();
  for (const LutTables* p : seen) EXPECT_EQ(p, seen[0]);
  s = quant::lut_cache_stats();
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.hits + s.misses, seen.size());
  EXPECT_GE(s.misses, 1u);  // Racing losers may also count as builds-then-hits.
  expect_registry_moved_by(s);
}

TEST(LutCache, PlanScopedInvalidationDropsCallerOwnedEntries) {
  // A multiplier the component library does not own (behaviorally exact,
  // but a distinct cache identity).
  class LocalMul final : public approx::Multiplier {
   public:
    LocalMul() : approx::Multiplier({"test_local_mul", "exact", 0, "", 0.0, 0.0}) {}
    [[nodiscard]] std::uint32_t multiply(std::uint8_t a, std::uint8_t b) const override {
      return static_cast<std::uint32_t>(a) * b;
    }
  };

  quant::lut_cache_clear();
  quant::lut_cache_reset_stats();
  auto local = std::make_unique<LocalMul>();
  {
    backend::EmulationPlan plan;
    backend::SiteUnit site;
    site.unit.mul = local.get();
    plan.set("Conv1", site);
    (void)quant::lut_cache_get(local.get(), 8);
    (void)quant::lut_cache_get(nullptr, 8);  // Library entry, must survive.
    EXPECT_EQ(quant::lut_cache_stats().entries, 2u);
  }  // ~EmulationPlan: the plan-owned multiplier's entry is dropped.
  EXPECT_EQ(quant::lut_cache_stats().entries, 1u);

  // Library components are never plan-invalidated.
  {
    backend::EmulationPlan plan;
    ASSERT_TRUE(plan.set_by_name("Conv1", "axm_drum4_dm1"));
    (void)quant::lut_cache_get(&approx::multiplier_by_name("axm_drum4_dm1"), 8);
    EXPECT_EQ(quant::lut_cache_stats().entries, 2u);
  }
  EXPECT_EQ(quant::lut_cache_stats().entries, 2u);

  // Manual invalidation for callers not routing through a plan.
  (void)quant::lut_cache_get(local.get(), 8);
  EXPECT_EQ(quant::lut_cache_stats().entries, 3u);
  quant::lut_cache_invalidate(local.get());
  EXPECT_EQ(quant::lut_cache_stats().entries, 2u);
}

}  // namespace
}  // namespace redcane::gemm::lk
