// Runtime-dispatched u8 LUT-GEMM microkernels: the SIMD inner loops of the
// behavioral-emulation datapath (quant/lut_gemm.hpp sits on top).
//
// The emulated MAC core is a table-lookup GEMM C = A * B with activation
// codes A [m, k] and weight codes B [k, n]: every (a, b) code pair is
// routed through a 256x256 product table materialized from a behavioral
// multiplier. The dominant cost is one lookup stream per tap, and the
// SIMD lanes run along whichever output dimension the caller picks
// (quant::lut_lanes holds the one rule):
//
//  * channels  — lanes along n: qq[i][j...] += lut_row(a[i][kk])[b[kk][j...]],
//                A row-major [m, k]. The table row is fixed per (i, kk).
//  * positions — lanes along m: qq[j][i...] += lut_col(b[kk][j])[a[kk][i...]],
//                A tap-major [k, m]. The weight code is the fixed factor and
//                the output positions are the long region (the nckernel
//                region-multiply idiom), reading a column of the table —
//                LutTables::columns().
//
// Each lookup stream has three tiers, selected by the SAME dispatch as the
// float microkernels (tensor/microkernel.hpp — REDCANE_GEMM_KERNEL env /
// mk::force cover both kernel families):
//
//  * avx2   — 32-lane `_mm256_shuffle_epi8` nibble lookup for rows whose
//             table decomposes as lut[(h<<4)|l] = H[h] + L[l] (every row of
//             the exact multiplier, and of any operand-truncating family
//             that stays affine in the low nibble), with an
//             `_mm256_i32gather_epi32` 8-lane gather for general rows.
//  * ssse3  — the same nibble decomposition on 16 `_mm_shuffle_epi8`
//             lanes; general rows fall back to scalar lookups. Mapped from
//             the float core's `sse` tier (FMA hardware implies SSSE3).
//  * scalar — delegates to the retained seed loops in tensor/gemm.cpp
//             (gemm_u8_lut / gemm_u8_lut_chain), the oracle every SIMD
//             tier is tested against bit-for-bit.
//
// Nibble decomposition (the nckernel binary8 idiom, carried from GF(256)
// to integer product tables): a 256-entry u32 row is split — when valid —
// into two 16-entry u16 tables indexed by the operand nibbles, stored as
// four 16-byte pshufb planes (L-lo, L-hi, H-lo, H-hi). One 32-lane lookup
// is then two shuffles per table + byte interleaves + one u16 add, instead
// of 32 serialized L1 loads. Validity (exact equality against the row and
// all sums fitting u16) is PROVEN per row at table-build time, so taking
// the nibble path never changes a single bit.
//
// Determinism contract: all accumulation is exact integer arithmetic, so
// the orientation cannot change a sum. The exact tier keeps u64 sums via
// u32 partials flushed before they can wrap (flush cadence comes from the
// table's max entry, not from the lane width, so every tier flushes
// identically); a padding tap (mask 0) adds exactly zero to qq, to the
// weight-code sum, to the activation-code sum and to the tap count in
// both orientations. The approximate-adder tier stages SIMD lookups and
// runs the behavioral U32Accum chain SCALAR — one u32 add chain per
// output element in ascending k, exactly the seed kernel's order. Threads
// split only across output elements. Results are therefore bitwise
// identical across orientations, scalar/ssse3/avx2 dispatch and thread
// counts (tests/test_lut_kernel.cpp asserts all three).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "tensor/gemm.hpp"
#include "tensor/microkernel.hpp"

namespace redcane::gemm::lk {

/// A 256x256 product table prepared for dispatched execution: the raw u32
/// table plus the per-row nibble decomposition (where provable) and the
/// overflow-safe u32 flush cadence. Built once per (multiplier, bits) by
/// the process-wide cache in quant/lut_cache.hpp; immutable afterwards and
/// safe to share across threads.
struct LutTables {
  /// Raw product table: lut[(a << 8) | b], row-major in the a code.
  std::vector<std::uint32_t> lut;

  /// Nibble planes, 64 bytes per row r: bytes [0,16) = low bytes of the
  /// 16-entry L table (indexed by b & 15), [16,32) = high bytes of L,
  /// [32,48) / [48,64) = the H table (indexed by b >> 4). Row r is only
  /// meaningful when nibble_ok[r] != 0, and then for every code b in the
  /// quantization range: L[b & 15] + H[b >> 4] == lut[(r << 8) | b], with
  /// the sum fitting u16.
  std::vector<std::uint8_t> nib;

  /// Per-row flag: the row admits the nibble decomposition above.
  std::vector<std::uint8_t> nibble_ok;

  /// Largest table entry over the [0, max_code]^2 range codes can reach.
  std::uint32_t max_value = 0;

  /// Taps a u32 partial accumulator can absorb before it must be flushed
  /// into the u64 row sum (floor(2^32-1 / max_value), clamped so the
  /// exact b-code side sums stay safe too). Identical for every tier.
  std::int64_t flush_every = 0;

  /// Any row decomposed (cheap skip of the nibble branch when none did).
  bool any_nibble = false;

  /// The column view, built only when the table is not symmetric over the
  /// reachable codes: its row w is column w of `lut` (lut[(a << 8) | w]
  /// over a), with its own nibble proof and flush cadence. Null for a
  /// symmetric table (every library multiplier), whose row view already is
  /// its column view.
  std::shared_ptr<const LutTables> transposed;

  /// Rows indexed by the weight code b, looked up by the activation code a
  /// (the positions orientation's table).
  [[nodiscard]] const LutTables& columns() const { return transposed ? *transposed : *this; }

  /// Prepares dispatch metadata from a raw 256x256 table. `max_code` is
  /// the largest operand code quantization can emit ((1 << bits) - 1, so
  /// at most 255; larger values abort); rows/columns beyond it are never
  /// looked up and do not constrain the decomposition, the flush cadence
  /// or the symmetry test that decides whether a column view is built.
  [[nodiscard]] static LutTables build(const std::uint32_t* raw, int max_code = 255);
};

/// One dispatch tier. The function pointers are the row primitives the
/// drivers below compose: `brow`/`codes` is the lane operand (weight codes
/// of one B row in the channels orientation, activation codes of one tap
/// in the positions orientation), lanes never lie across k, and every
/// primitive handles any n.
struct LutOps {
  mk::Target target;  ///< The float-core tier this maps from.
  const char* name;   ///< "scalar" | "ssse3" | "avx2".

  /// qq[j] += lut_row[codes[j]] for j in [0, n) — general row. A lane
  /// whose mask byte is 0 adds exactly zero (null mask = every lane live).
  void (*accum_gen)(std::int64_t n, const std::uint32_t* lrow, const std::uint8_t* codes,
                    const std::uint8_t* mask, std::uint32_t* qq);
  /// qq[j] += L[c & 15] + H[c >> 4] from a 64-byte nibble row, masked the
  /// same way.
  void (*accum_nib)(std::int64_t n, const std::uint8_t* nibrow, const std::uint8_t* codes,
                    const std::uint8_t* mask, std::uint32_t* qq);
  /// prod[j] = lut_row[b_row[j]] — lookup staging for the adder chain.
  void (*stage_gen)(std::int64_t n, const std::uint32_t* lrow, const std::uint8_t* brow,
                    std::uint32_t* prod);
  /// prod[j] = L[b & 15] + H[b >> 4] — nibble staging for the adder chain.
  void (*stage_nib)(std::int64_t n, const std::uint8_t* nibrow, const std::uint8_t* brow,
                    std::uint32_t* prod);
  /// acc[j] += codes[j] (masked the same way) — the code side sums of the
  /// affine expansion.
  void (*accum_codes)(std::int64_t n, const std::uint8_t* codes, const std::uint8_t* mask,
                      std::uint32_t* acc);
  /// acc[i] += mask[i] ? value : 0 — masked weight-code sum (value = one
  /// weight code) and tap count (value = 1).
  void (*accum_const_masked)(std::int64_t n, const std::uint8_t* mask, std::uint32_t value,
                             std::uint32_t* acc);
};

/// Tier table for a float-core target (kSse maps to the ssse3 tier).
const LutOps& ops_for(mk::Target t);

/// The tier matching the float core's current dispatch (mk::active()).
const LutOps& active();

/// Which output dimension the SIMD lanes run along (see the file comment).
enum class Lanes : std::uint8_t {
  kChannels,   ///< Lanes along n; A row-major [m, k] (a[i * k + kk]).
  kPositions,  ///< Lanes along m; A tap-major [k, m] (a[kk * m + i]).
};

/// A batch of `groups` independent u8 LUT-GEMMs that share one product
/// table. Group g multiplies A_g (m x k codes at a + g * a_group, laid out
/// per `lanes`) by B_g (row-major [k, n] at b + g * b_group). The validity
/// mask, when non-null, has A's layout at mask + g * mask_group (a stride
/// of 0 shares one mask across groups).
struct LutProblem {
  Lanes lanes = Lanes::kChannels;
  std::int64_t m = 0;
  std::int64_t n = 0;
  std::int64_t k = 0;
  std::int64_t groups = 1;
  const std::uint8_t* a = nullptr;
  const std::uint8_t* mask = nullptr;  ///< Null = every tap valid.
  const std::uint8_t* b = nullptr;
  std::int64_t a_group = 0;
  std::int64_t mask_group = 0;
  std::int64_t b_group = 0;
};

/// Integer accumulators of one row block, row-major over the block in
/// either orientation: qq/qw[r * n + j] and qa/taps[r] for r = i - i0.
/// Exactly one of qq64 (exact accumulation) and qq32 (adder chain) is set.
struct LutBlockOut {
  std::uint64_t* qq64 = nullptr;
  std::uint32_t* qq32 = nullptr;
  std::uint64_t* qw = nullptr;
  std::uint64_t* qa = nullptr;
  std::int64_t* taps = nullptr;
};

/// Output positions [i0, i1) of group `g`, all n channels, through the
/// active tier: sum over the valid taps of the table products (exactly
/// when `accum` is null, else as one `accum` chain per element in
/// ascending k), of the weight codes, of the activation codes, and the tap
/// count. Serial; callers split blocks across threads. Scratch comes from
/// the calling thread's workspace arena.
void lut_block(const LutProblem& p, std::int64_t g, std::int64_t i0, std::int64_t i1,
               const LutTables& tables, const U32Accum* accum, const LutBlockOut& out);

/// Output positions per block in orientation `lanes` for an n x k
/// product: a multiple of the lane width that keeps one block's tap-major
/// codes and sums near L1/L2 (positions), or a row count that amortizes
/// the hoisted column sums (channels).
[[nodiscard]] std::int64_t block_rows(Lanes lanes, std::int64_t n, std::int64_t k);

/// Serial cost of one dispatched LUT multiply-accumulate, the work estimate
/// the LUT-GEMM drivers give pool::parallel_for [ns, one core].
inline constexpr double kNsPerLutMac = 0.2;

/// Dispatched drop-in for gemm::gemm_u8_lut (exact accumulation): same
/// accumulator outputs, bitwise, for any tier, over row-major A in the
/// channels orientation. The scalar tier delegates to the retained seed
/// loop. When `a_mask` is null the weight-code sums
/// are hoisted to one set of column sums shared by every row; with a mask,
/// fully-valid rows still share them and only partial (padding) rows pay
/// the per-row side accumulation.
void lut_gemm_u8(std::int64_t m, std::int64_t n, std::int64_t k, const std::uint8_t* a,
                 const std::uint8_t* a_mask, const std::uint8_t* b, const LutTables& tables,
                 std::uint64_t* acc_qq, std::uint64_t* acc_qw, std::uint64_t* acc_qa,
                 std::int64_t* taps);

/// Dispatched drop-in for gemm::gemm_u8_lut_chain: SIMD lookup staging
/// feeding the behavioral accumulator, which runs scalar — one u32 add
/// chain per output element in ascending k, bit-for-bit the seed order.
void lut_gemm_u8_chain(std::int64_t m, std::int64_t n, std::int64_t k, const std::uint8_t* a,
                       const std::uint8_t* a_mask, const std::uint8_t* b,
                       const LutTables& tables, const U32Accum& accum, std::uint32_t* acc_qq,
                       std::uint64_t* acc_qw, std::uint64_t* acc_qa, std::int64_t* taps);

}  // namespace redcane::gemm::lk
