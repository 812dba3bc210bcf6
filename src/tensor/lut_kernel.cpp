#include "tensor/lut_kernel.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "tensor/workspace.hpp"
#include "util/pool.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define REDCANE_LK_X86 1
#include <immintrin.h>
#else
#define REDCANE_LK_X86 0
#endif

namespace redcane::gemm::lk {
namespace {

// The exact-code side sums accumulate bytes (<= 255), so a u32 partial is
// safe for floor((2^32 - 1) / 255) taps; flush_every is clamped to this so
// one cadence covers every partial accumulator in a row.
constexpr std::int64_t kCodeFlushEvery = 16843009;

/// Scalar lookup through a 64-byte nibble row — the tail path of the SIMD
/// primitives and the scalar tier's nibble entry. Equals the raw table
/// value by the build-time proof.
inline std::uint32_t nib_lookup(const std::uint8_t* nibrow, std::uint8_t code) {
  const std::uint32_t lo = code & 0x0F;
  const std::uint32_t hi = code >> 4;
  const std::uint32_t l =
      static_cast<std::uint32_t>(nibrow[lo]) | (static_cast<std::uint32_t>(nibrow[16 + lo]) << 8);
  const std::uint32_t h = static_cast<std::uint32_t>(nibrow[32 + hi]) |
                          (static_cast<std::uint32_t>(nibrow[48 + hi]) << 8);
  return l + h;
}

// ------------------------------------------------------------ scalar tier
// Reference semantics for every primitive; the drivers never reach these
// under scalar dispatch (they delegate to the retained seed loops in
// tensor/gemm.cpp), but the table stays total for tests and future tiers.

void accum_gen_scalar(std::int64_t n, const std::uint32_t* lrow, const std::uint8_t* codes,
                      const std::uint8_t* mask, std::uint32_t* qq) {
  for (std::int64_t j = 0; j < n; ++j) {
    if (mask == nullptr || mask[j] != 0) qq[j] += lrow[codes[j]];
  }
}

void accum_nib_scalar(std::int64_t n, const std::uint8_t* nibrow, const std::uint8_t* codes,
                      const std::uint8_t* mask, std::uint32_t* qq) {
  for (std::int64_t j = 0; j < n; ++j) {
    if (mask == nullptr || mask[j] != 0) qq[j] += nib_lookup(nibrow, codes[j]);
  }
}

void stage_gen_scalar(std::int64_t n, const std::uint32_t* lrow, const std::uint8_t* brow,
                      std::uint32_t* prod) {
  for (std::int64_t j = 0; j < n; ++j) prod[j] = lrow[brow[j]];
}

void stage_nib_scalar(std::int64_t n, const std::uint8_t* nibrow, const std::uint8_t* brow,
                      std::uint32_t* prod) {
  for (std::int64_t j = 0; j < n; ++j) prod[j] = nib_lookup(nibrow, brow[j]);
}

void accum_codes_scalar(std::int64_t n, const std::uint8_t* codes, const std::uint8_t* mask,
                        std::uint32_t* acc) {
  for (std::int64_t j = 0; j < n; ++j) {
    if (mask == nullptr || mask[j] != 0) acc[j] += codes[j];
  }
}

void accum_const_masked_scalar(std::int64_t n, const std::uint8_t* mask, std::uint32_t value,
                               std::uint32_t* acc) {
  for (std::int64_t i = 0; i < n; ++i) {
    if (mask[i] != 0) acc[i] += value;
  }
}

#if REDCANE_LK_X86

// ------------------------------------------------------------- ssse3 tier
// 16-lane nibble lookup: two pshufb per 16-entry u16 table (low-byte and
// high-byte planes), byte interleave into u16 lanes, one u16 add — the
// nckernel binary8 region-multiply idiom with + in place of ^.

/// u16 nibble sums of 16 codes; lanes whose `dead` byte is 0xFF read 0
/// (pass zero for no masking).
__attribute__((target("ssse3"))) inline void nib_sum16_ssse3(const std::uint8_t* nibrow,
                                                             __m128i codes, __m128i dead,
                                                             __m128i& s0, __m128i& s1) {
  const __m128i low4 = _mm_set1_epi8(0x0F);
  const __m128i tll = _mm_loadu_si128(reinterpret_cast<const __m128i*>(nibrow));
  const __m128i tlh = _mm_loadu_si128(reinterpret_cast<const __m128i*>(nibrow + 16));
  const __m128i thl = _mm_loadu_si128(reinterpret_cast<const __m128i*>(nibrow + 32));
  const __m128i thh = _mm_loadu_si128(reinterpret_cast<const __m128i*>(nibrow + 48));
  const __m128i lo = _mm_and_si128(codes, low4);
  const __m128i hi = _mm_and_si128(_mm_srli_epi16(codes, 4), low4);
  const __m128i ll = _mm_andnot_si128(dead, _mm_shuffle_epi8(tll, lo));
  const __m128i lh = _mm_andnot_si128(dead, _mm_shuffle_epi8(tlh, lo));
  const __m128i hl = _mm_andnot_si128(dead, _mm_shuffle_epi8(thl, hi));
  const __m128i hh = _mm_andnot_si128(dead, _mm_shuffle_epi8(thh, hi));
  // Interleave byte planes into u16 lanes: s0 = codes j..j+7, s1 = j+8..15.
  s0 = _mm_add_epi16(_mm_unpacklo_epi8(ll, lh), _mm_unpacklo_epi8(hl, hh));
  s1 = _mm_add_epi16(_mm_unpackhi_epi8(ll, lh), _mm_unpackhi_epi8(hl, hh));
}

/// qq[0..16) += the u16 sums s0 (lanes 0..7) and s1 (lanes 8..15).
__attribute__((target("ssse3"))) inline void add16_u32_ssse3(__m128i s0, __m128i s1,
                                                             std::uint32_t* qq) {
  const __m128i zero = _mm_setzero_si128();
  __m128i* q = reinterpret_cast<__m128i*>(qq);
  _mm_storeu_si128(q + 0, _mm_add_epi32(_mm_loadu_si128(q + 0), _mm_unpacklo_epi16(s0, zero)));
  _mm_storeu_si128(q + 1, _mm_add_epi32(_mm_loadu_si128(q + 1), _mm_unpackhi_epi16(s0, zero)));
  _mm_storeu_si128(q + 2, _mm_add_epi32(_mm_loadu_si128(q + 2), _mm_unpacklo_epi16(s1, zero)));
  _mm_storeu_si128(q + 3, _mm_add_epi32(_mm_loadu_si128(q + 3), _mm_unpackhi_epi16(s1, zero)));
}

/// prod[0..16) = the u16 sums s0 (lanes 0..7) and s1 (lanes 8..15).
__attribute__((target("ssse3"))) inline void store16_u32_ssse3(__m128i s0, __m128i s1,
                                                               std::uint32_t* prod) {
  const __m128i zero = _mm_setzero_si128();
  __m128i* p = reinterpret_cast<__m128i*>(prod);
  _mm_storeu_si128(p + 0, _mm_unpacklo_epi16(s0, zero));
  _mm_storeu_si128(p + 1, _mm_unpackhi_epi16(s0, zero));
  _mm_storeu_si128(p + 2, _mm_unpacklo_epi16(s1, zero));
  _mm_storeu_si128(p + 3, _mm_unpackhi_epi16(s1, zero));
}

/// 0xFF in every byte whose mask byte is 0 (a padding lane).
__attribute__((target("ssse3"))) inline __m128i dead16_ssse3(const std::uint8_t* mask) {
  return _mm_cmpeq_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(mask)),
                        _mm_setzero_si128());
}

__attribute__((target("ssse3"))) void accum_nib_ssse3(std::int64_t n, const std::uint8_t* nibrow,
                                                      const std::uint8_t* codes,
                                                      const std::uint8_t* mask,
                                                      std::uint32_t* qq) {
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m128i s0;
    __m128i s1;
    nib_sum16_ssse3(nibrow, _mm_loadu_si128(reinterpret_cast<const __m128i*>(codes + i)),
                    mask == nullptr ? _mm_setzero_si128() : dead16_ssse3(mask + i), s0, s1);
    add16_u32_ssse3(s0, s1, qq + i);
  }
  accum_nib_scalar(n - i, nibrow, codes + i, mask == nullptr ? nullptr : mask + i, qq + i);
}

__attribute__((target("ssse3"))) void stage_nib_ssse3(std::int64_t n, const std::uint8_t* nibrow,
                                                      const std::uint8_t* brow,
                                                      std::uint32_t* prod) {
  std::int64_t j = 0;
  for (; j + 16 <= n; j += 16) {
    __m128i s0;
    __m128i s1;
    nib_sum16_ssse3(nibrow, _mm_loadu_si128(reinterpret_cast<const __m128i*>(brow + j)),
                    _mm_setzero_si128(), s0, s1);
    store16_u32_ssse3(s0, s1, prod + j);
  }
  for (; j < n; ++j) prod[j] = nib_lookup(nibrow, brow[j]);
}

__attribute__((target("ssse3"))) void accum_codes_ssse3(std::int64_t n, const std::uint8_t* codes,
                                                        const std::uint8_t* mask,
                                                        std::uint32_t* qw) {
  const __m128i zero = _mm_setzero_si128();
  std::int64_t j = 0;
  for (; j + 16 <= n; j += 16) {
    __m128i c = _mm_loadu_si128(reinterpret_cast<const __m128i*>(codes + j));
    if (mask != nullptr) c = _mm_andnot_si128(dead16_ssse3(mask + j), c);
    const __m128i w0 = _mm_unpacklo_epi8(c, zero);
    const __m128i w1 = _mm_unpackhi_epi8(c, zero);
    __m128i* q = reinterpret_cast<__m128i*>(qw + j);
    _mm_storeu_si128(q + 0, _mm_add_epi32(_mm_loadu_si128(q + 0), _mm_unpacklo_epi16(w0, zero)));
    _mm_storeu_si128(q + 1, _mm_add_epi32(_mm_loadu_si128(q + 1), _mm_unpackhi_epi16(w0, zero)));
    _mm_storeu_si128(q + 2, _mm_add_epi32(_mm_loadu_si128(q + 2), _mm_unpacklo_epi16(w1, zero)));
    _mm_storeu_si128(q + 3, _mm_add_epi32(_mm_loadu_si128(q + 3), _mm_unpackhi_epi16(w1, zero)));
  }
  accum_codes_scalar(n - j, codes + j, mask == nullptr ? nullptr : mask + j, qw + j);
}

// -------------------------------------------------------------- avx2 tier
// Nibble rows: the ssse3 shuffle sequence on 32 lanes (tables broadcast to
// both 128-bit halves; pshufb and byte interleaves are lane-local, so the
// u16 halves extract back to contiguous runs), then one 16-lane ssse3 step
// for a 16..31 tail. General rows: 8-lane u32 gathers, unrolled x2 so
// independent gathers overlap, then one 8-lane step for an 8..15 tail.
// The last few lanes are shifted down out of one overlapping load and
// stored lane-masked, so a short row (36 output positions, say) never
// falls back to scalar lookups; only rows shorter than one step do.

/// The four 16-byte planes of a nibble row, broadcast to both halves.
struct NibPlanes {
  __m256i ll, lh, hl, hh;
};

__attribute__((target("avx2"))) inline __m256i plane_avx2(const std::uint8_t* at) {
  return _mm256_broadcastsi128_si256(_mm_loadu_si128(reinterpret_cast<const __m128i*>(at)));
}

__attribute__((target("avx2"))) inline NibPlanes load_planes_avx2(const std::uint8_t* nibrow) {
  return NibPlanes{plane_avx2(nibrow), plane_avx2(nibrow + 16), plane_avx2(nibrow + 32),
                   plane_avx2(nibrow + 48)};
}

/// u16 nibble sums of 32 codes: s0 holds codes {0..7, 16..23}, s1 holds
/// {8..15, 24..31}. Lanes whose `dead` byte is 0xFF read 0.
__attribute__((target("avx2"))) inline void nib_sum32_avx2(const NibPlanes& t, __m256i codes,
                                                           __m256i dead, __m256i& s0,
                                                           __m256i& s1) {
  const __m256i low4 = _mm256_set1_epi8(0x0F);
  const __m256i lo = _mm256_and_si256(codes, low4);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(codes, 4), low4);
  const __m256i ll = _mm256_andnot_si256(dead, _mm256_shuffle_epi8(t.ll, lo));
  const __m256i lh = _mm256_andnot_si256(dead, _mm256_shuffle_epi8(t.lh, lo));
  const __m256i hl = _mm256_andnot_si256(dead, _mm256_shuffle_epi8(t.hl, hi));
  const __m256i hh = _mm256_andnot_si256(dead, _mm256_shuffle_epi8(t.hh, hi));
  s0 = _mm256_add_epi16(_mm256_unpacklo_epi8(ll, lh), _mm256_unpacklo_epi8(hl, hh));
  s1 = _mm256_add_epi16(_mm256_unpackhi_epi8(ll, lh), _mm256_unpackhi_epi8(hl, hh));
}

/// The u32 lanes of 32 nibble sums in code order.
__attribute__((target("avx2"))) inline void widen32_avx2(__m256i s0, __m256i s1, __m256i out[4]) {
  out[0] = _mm256_cvtepu16_epi32(_mm256_castsi256_si128(s0));
  out[1] = _mm256_cvtepu16_epi32(_mm256_castsi256_si128(s1));
  out[2] = _mm256_cvtepu16_epi32(_mm256_extracti128_si256(s0, 1));
  out[3] = _mm256_cvtepu16_epi32(_mm256_extracti128_si256(s1, 1));
}

/// 0xFF in every byte whose mask byte is 0 (a padding lane).
__attribute__((target("avx2"))) inline __m256i dead32_avx2(const std::uint8_t* mask) {
  return _mm256_cmpeq_epi8(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(mask)),
                           _mm256_setzero_si256());
}

/// Selects the first r (0..8) u32 lanes.
__attribute__((target("avx2"))) inline __m256i first_lanes_avx2(std::int64_t r) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(r)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/// out[0..r) += v (kAccum) or = v for the first r (1..8) u32 lanes; the
/// lanes past r are neither read nor written.
template <bool kAccum>
__attribute__((target("avx2"))) inline void store_first_avx2(__m256i v, std::int64_t r,
                                                             std::uint32_t* out) {
  const __m256i keep = first_lanes_avx2(r);
  int* q = reinterpret_cast<int*>(out);
  if (kAccum) v = _mm256_add_epi32(_mm256_maskload_epi32(q, keep), v);
  _mm256_maskstore_epi32(q, keep, v);
}

/// dead16_ssse3 of 16 mask bytes after the byte shuffle `down`.
__attribute__((target("ssse3"))) inline __m128i dead16_shuffled_ssse3(const std::uint8_t* mask,
                                                                      __m128i down) {
  return _mm_cmpeq_epi8(
      _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(mask)), down),
      _mm_setzero_si128());
}

/// Shared body of the nibble primitives: `kAccum` adds into out, else
/// stores; a null mask means every lane is live.
template <bool kAccum>
__attribute__((target("avx2"))) inline void nib_rows_avx2(std::int64_t n,
                                                          const std::uint8_t* nibrow,
                                                          const std::uint8_t* codes,
                                                          const std::uint8_t* mask,
                                                          std::uint32_t* out) {
  const NibPlanes t = load_planes_avx2(nibrow);
  std::int64_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256i s0;
    __m256i s1;
    nib_sum32_avx2(t, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(codes + i)),
                   mask == nullptr ? _mm256_setzero_si256() : dead32_avx2(mask + i), s0, s1);
    __m256i w[4];
    widen32_avx2(s0, s1, w);
    __m256i* q = reinterpret_cast<__m256i*>(out + i);
    for (int g = 0; g < 4; ++g) {
      _mm256_storeu_si256(q + g, kAccum ? _mm256_add_epi32(_mm256_loadu_si256(q + g), w[g]) : w[g]);
    }
  }
  if (i + 16 <= n) {
    __m128i s0;
    __m128i s1;
    nib_sum16_ssse3(nibrow, _mm_loadu_si128(reinterpret_cast<const __m128i*>(codes + i)),
                    mask == nullptr ? _mm_setzero_si128() : dead16_ssse3(mask + i), s0, s1);
    if (kAccum) {
      add16_u32_ssse3(s0, s1, out + i);
    } else {
      store16_u32_ssse3(s0, s1, out + i);
    }
    i += 16;
  }
  if (i == n) return;
  if (n < 16) {
    for (; i < n; ++i) {
      const std::uint32_t v = mask != nullptr && mask[i] == 0 ? 0 : nib_lookup(nibrow, codes[i]);
      out[i] = kAccum ? out[i] + v : v;
    }
    return;
  }
  // 1..15 lanes left: load the row's last 16 codes (and mask bytes),
  // shift the r unfinished ones down to lanes 0..r-1, and store just those
  // lanes (masked stores never touch the lanes past n).
  const std::int64_t r = n - i;
  const __m128i iota = _mm_setr_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
  const __m128i past = _mm_cmpgt_epi8(iota, _mm_set1_epi8(static_cast<char>(r - 1)));
  const __m128i down = _mm_or_si128(_mm_add_epi8(iota, _mm_set1_epi8(static_cast<char>(16 - r))),
                                    past);  // 0xFF lanes shuffle in zero.
  const __m128i tail_codes =
      _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(codes + n - 16)), down);
  __m128i dead = past;
  if (mask != nullptr) {
    dead = _mm_or_si128(dead, dead16_shuffled_ssse3(mask + n - 16, down));
  }
  __m128i s0;
  __m128i s1;
  nib_sum16_ssse3(nibrow, tail_codes, dead, s0, s1);
  store_first_avx2<kAccum>(_mm256_cvtepu16_epi32(s0), std::min<std::int64_t>(r, 8), out + i);
  if (r > 8) store_first_avx2<kAccum>(_mm256_cvtepu16_epi32(s1), r - 8, out + i + 8);
}

__attribute__((target("avx2"))) void accum_nib_avx2(std::int64_t n, const std::uint8_t* nibrow,
                                                    const std::uint8_t* codes,
                                                    const std::uint8_t* mask, std::uint32_t* qq) {
  if (mask == nullptr) {
    nib_rows_avx2<true>(n, nibrow, codes, nullptr, qq);  // The unmasked loop, specialized.
  } else {
    nib_rows_avx2<true>(n, nibrow, codes, mask, qq);
  }
}

__attribute__((target("avx2"))) void stage_nib_avx2(std::int64_t n, const std::uint8_t* nibrow,
                                                    const std::uint8_t* brow,
                                                    std::uint32_t* prod) {
  nib_rows_avx2<false>(n, nibrow, brow, nullptr, prod);
}

/// 8 u32 table reads at codes[0..8); lanes with a zero mask byte read 0
/// without touching the table.
__attribute__((target("avx2"))) inline __m256i gather8_avx2(const int* base,
                                                            const std::uint8_t* codes,
                                                            const std::uint8_t* mask) {
  const __m256i idx =
      _mm256_cvtepu8_epi32(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(codes)));
  if (mask == nullptr) return _mm256_i32gather_epi32(base, idx, 4);
  const __m256i live = _mm256_cmpgt_epi32(
      _mm256_cvtepu8_epi32(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(mask))),
      _mm256_setzero_si256());
  return _mm256_mask_i32gather_epi32(_mm256_setzero_si256(), base, idx, live, 4);
}

/// Shared body of the general-row primitives (see nib_rows_avx2).
template <bool kAccum>
__attribute__((target("avx2"))) inline void gen_rows_avx2(std::int64_t n,
                                                          const std::uint32_t* lrow,
                                                          const std::uint8_t* codes,
                                                          const std::uint8_t* mask,
                                                          std::uint32_t* out) {
  const int* base = reinterpret_cast<const int*>(lrow);
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i g0 = gather8_avx2(base, codes + i, mask == nullptr ? nullptr : mask + i);
    const __m256i g1 = gather8_avx2(base, codes + i + 8, mask == nullptr ? nullptr : mask + i + 8);
    __m256i* q = reinterpret_cast<__m256i*>(out + i);
    _mm256_storeu_si256(q + 0, kAccum ? _mm256_add_epi32(_mm256_loadu_si256(q + 0), g0) : g0);
    _mm256_storeu_si256(q + 1, kAccum ? _mm256_add_epi32(_mm256_loadu_si256(q + 1), g1) : g1);
  }
  if (i + 8 <= n) {
    const __m256i g0 = gather8_avx2(base, codes + i, mask == nullptr ? nullptr : mask + i);
    __m256i* q = reinterpret_cast<__m256i*>(out + i);
    _mm256_storeu_si256(q, kAccum ? _mm256_add_epi32(_mm256_loadu_si256(q), g0) : g0);
    i += 8;
  }
  if (i == n) return;
  if (n < 8) {
    for (; i < n; ++i) {
      const std::uint32_t v = mask != nullptr && mask[i] == 0 ? 0 : lrow[codes[i]];
      out[i] = kAccum ? out[i] + v : v;
    }
    return;
  }
  // 1..7 lanes left: load the row's last 8 codes (and mask bytes), shift
  // the r unfinished ones down to lanes 0..r-1, gather just those lanes.
  const std::int64_t r = n - i;
  const __m128i shift = _mm_cvtsi32_si128(static_cast<int>(8 * (8 - r)));
  __m256i live = first_lanes_avx2(r);
  if (mask != nullptr) {
    const __m128i tail_mask =
        _mm_srl_epi64(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(mask + n - 8)), shift);
    live = _mm256_and_si256(
        live, _mm256_cmpgt_epi32(_mm256_cvtepu8_epi32(tail_mask), _mm256_setzero_si256()));
  }
  const __m256i idx = _mm256_cvtepu8_epi32(
      _mm_srl_epi64(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(codes + n - 8)), shift));
  store_first_avx2<kAccum>(
      _mm256_mask_i32gather_epi32(_mm256_setzero_si256(), base, idx, live, 4), r, out + i);
}

__attribute__((target("avx2"))) void accum_gen_avx2(std::int64_t n, const std::uint32_t* lrow,
                                                    const std::uint8_t* codes,
                                                    const std::uint8_t* mask, std::uint32_t* qq) {
  if (mask == nullptr) {
    gen_rows_avx2<true>(n, lrow, codes, nullptr, qq);  // The unmasked loop, specialized.
  } else {
    gen_rows_avx2<true>(n, lrow, codes, mask, qq);
  }
}

__attribute__((target("avx2"))) void stage_gen_avx2(std::int64_t n, const std::uint32_t* lrow,
                                                    const std::uint8_t* brow,
                                                    std::uint32_t* prod) {
  gen_rows_avx2<false>(n, lrow, brow, nullptr, prod);
}

/// acc[0..32) += the 32 bytes of `bytes` widened to u32.
__attribute__((target("avx2"))) inline void add_bytes32_avx2(__m256i bytes, std::uint32_t* acc) {
  __m256i* q = reinterpret_cast<__m256i*>(acc);
  const __m128i lo = _mm256_castsi256_si128(bytes);
  const __m128i hi = _mm256_extracti128_si256(bytes, 1);
  const __m256i w[4] = {_mm256_cvtepu8_epi32(lo), _mm256_cvtepu8_epi32(_mm_srli_si128(lo, 8)),
                        _mm256_cvtepu8_epi32(hi), _mm256_cvtepu8_epi32(_mm_srli_si128(hi, 8))};
  for (int g = 0; g < 4; ++g) {
    _mm256_storeu_si256(q + g, _mm256_add_epi32(_mm256_loadu_si256(q + g), w[g]));
  }
}

__attribute__((target("avx2"))) void accum_codes_avx2(std::int64_t n, const std::uint8_t* codes,
                                                      const std::uint8_t* mask,
                                                      std::uint32_t* acc) {
  std::int64_t j = 0;
  for (; j + 32 <= n; j += 32) {
    __m256i c = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(codes + j));
    if (mask != nullptr) c = _mm256_andnot_si256(dead32_avx2(mask + j), c);
    add_bytes32_avx2(c, acc + j);
  }
  accum_codes_scalar(n - j, codes + j, mask == nullptr ? nullptr : mask + j, acc + j);
}

__attribute__((target("avx2"))) void accum_const_masked_avx2(std::int64_t n,
                                                             const std::uint8_t* mask,
                                                             std::uint32_t value,
                                                             std::uint32_t* acc) {
  const __m256i v = _mm256_set1_epi32(static_cast<int>(value));
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i live = _mm256_cmpgt_epi32(
        _mm256_cvtepu8_epi32(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(mask + i))),
        _mm256_setzero_si256());
    __m256i* q = reinterpret_cast<__m256i*>(acc + i);
    _mm256_storeu_si256(q, _mm256_add_epi32(_mm256_loadu_si256(q), _mm256_and_si256(live, v)));
  }
  accum_const_masked_scalar(n - i, mask + i, value, acc + i);
}

#endif  // REDCANE_LK_X86

constexpr LutOps kScalarLutOps{mk::Target::kScalar, "scalar",           accum_gen_scalar,
                               accum_nib_scalar,    stage_gen_scalar,   stage_nib_scalar,
                               accum_codes_scalar,  accum_const_masked_scalar};
#if REDCANE_LK_X86
// General rows have no ssse3 lookup idiom (no gather pre-AVX2): the tier
// keeps the scalar stream for them and wins on nibble rows + side sums.
constexpr LutOps kSsse3LutOps{mk::Target::kSse,    "ssse3",           accum_gen_scalar,
                              accum_nib_ssse3,     stage_gen_scalar,  stage_nib_ssse3,
                              accum_codes_ssse3,   accum_const_masked_scalar};
constexpr LutOps kAvx2LutOps{mk::Target::kAvx2,    "avx2",            accum_gen_avx2,
                             accum_nib_avx2,       stage_gen_avx2,    stage_nib_avx2,
                             accum_codes_avx2,     accum_const_masked_avx2};
#endif

/// Column sums of the B code matrix — the weight-code side of the affine
/// expansion, shared by every fully-valid output row.
void col_code_sums(const LutOps& ops, const std::uint8_t* b, std::int64_t k, std::int64_t n,
                   std::uint64_t* out) {
  ws::Workspace& wksp = ws::Workspace::tls();
  const ws::Workspace::Scope scope(wksp);
  std::uint32_t* part = wksp.alloc<std::uint32_t>(static_cast<std::size_t>(n));
  std::memset(part, 0, static_cast<std::size_t>(n) * sizeof(std::uint32_t));
  std::memset(out, 0, static_cast<std::size_t>(n) * sizeof(std::uint64_t));
  std::int64_t since = 0;
  for (std::int64_t kk = 0; kk < k; ++kk) {
    ops.accum_codes(n, b + kk * n, nullptr, part);
    if (++since == kCodeFlushEvery) {
      for (std::int64_t j = 0; j < n; ++j) out[j] += part[j];
      std::memset(part, 0, static_cast<std::size_t>(n) * sizeof(std::uint32_t));
      since = 0;
    }
  }
  for (std::int64_t j = 0; j < n; ++j) out[j] += part[j];
}

/// Marks rows whose mask has no padding tap (they share the hoisted column
/// sums). Null mask = every row full.
void mark_full_rows(const std::uint8_t* a_mask, std::int64_t m, std::int64_t k,
                    std::uint8_t* row_full, bool& any_full, bool& any_partial) {
  any_full = false;
  any_partial = false;
  if (a_mask == nullptr) {
    std::memset(row_full, 1, static_cast<std::size_t>(m));
    any_full = m > 0;
    return;
  }
  for (std::int64_t i = 0; i < m; ++i) {
    const bool full =
        std::memchr(a_mask + i * k, 0, static_cast<std::size_t>(k)) == nullptr;
    row_full[i] = full ? 1 : 0;
    any_full = any_full || full;
    any_partial = any_partial || !full;
  }
}

void zero_u32(std::uint32_t* p, std::int64_t n) {
  std::memset(p, 0, static_cast<std::size_t>(n) * sizeof(std::uint32_t));
}

void zero_u64(std::uint64_t* p, std::int64_t n) {
  std::memset(p, 0, static_cast<std::size_t>(n) * sizeof(std::uint64_t));
}

/// Moves u32 partials into their u64 sums dst[r * stride] (stored when
/// `first`, the sums holding nothing yet, else added) and zeroes them.
void spill(std::uint32_t* part, std::int64_t rows, std::uint64_t* dst, std::int64_t stride,
           bool first) {
  for (std::int64_t r = 0; r < rows; ++r) {
    dst[r * stride] = (first ? 0 : dst[r * stride]) + part[r];
  }
  zero_u32(part, rows);
}

/// The fields of a LutTables the inner loops read, copied into locals.
struct TableView {
  explicit TableView(const LutTables& t)
      : lut(t.lut.data()), nib(t.nib.data()), ok(t.nibble_ok.data()), any(t.any_nibble) {}
  [[nodiscard]] bool nibble(std::uint8_t code) const { return any && ok[code] != 0; }
  [[nodiscard]] const std::uint8_t* nib_row(std::uint8_t code) const {
    return nib + static_cast<std::size_t>(code) * 64;
  }
  [[nodiscard]] const std::uint32_t* row(std::uint8_t code) const {
    return lut + (static_cast<std::size_t>(code) << 8);
  }
  const std::uint32_t* lut;
  const std::uint8_t* nib;
  const std::uint8_t* ok;
  bool any;
};

/// Rows [i0, i1) of group g with the lanes along the n channels: per
/// (row, tap) the table row of the activation code is fixed and the lanes
/// stream the weight codes of one B row. `kChain`: accumulate through
/// `accum` (non-null) instead of exactly; a template so each inner loop
/// stays branch-free.
template <bool kChain>
void block_channels(const LutOps& ops, const LutProblem& p, std::int64_t g, std::int64_t i0,
                    std::int64_t i1, const LutTables& t, const U32Accum* accum,
                    const LutBlockOut& out) {
  const std::int64_t n = p.n;
  const std::int64_t k = p.k;
  const std::int64_t rows = i1 - i0;
  const std::uint8_t* a = p.a + g * p.a_group + i0 * k;
  const std::uint8_t* mask = p.mask == nullptr ? nullptr : p.mask + g * p.mask_group + i0 * k;
  const std::uint8_t* b = p.b + g * p.b_group;

  ws::Workspace& wksp = ws::Workspace::tls();
  const ws::Workspace::Scope scope(wksp);
  std::uint8_t* row_full = wksp.alloc<std::uint8_t>(static_cast<std::size_t>(rows));
  bool any_full = false;
  bool any_partial = false;
  mark_full_rows(mask, rows, k, row_full, any_full, any_partial);
  std::uint64_t* colsum = nullptr;
  if (any_full) {
    colsum = wksp.alloc<std::uint64_t>(static_cast<std::size_t>(n));
    col_code_sums(ops, b, k, n, colsum);
  }
  // u32 product partials (exact) or staged products (adder chain).
  std::uint32_t* lanes = wksp.alloc<std::uint32_t>(static_cast<std::size_t>(n));
  std::uint32_t* qw32 =
      any_partial ? wksp.alloc<std::uint32_t>(static_cast<std::size_t>(n)) : nullptr;
  const std::int64_t cadence = kChain ? kCodeFlushEvery : t.flush_every;
  // Locals, not member reads: the opaque primitive calls would force a
  // reload of every table field and function pointer after each tap.
  const TableView tv(t);
  const auto gen = ops.accum_gen;
  const auto nib = ops.accum_nib;
  const auto stage_gen = ops.stage_gen;
  const auto stage_nib = ops.stage_nib;
  const auto codes_sum = ops.accum_codes;

  for (std::int64_t r = 0; r < rows; ++r) {
    const bool full = row_full[r] != 0;
    const std::uint8_t* arow = a + r * k;
    const std::uint8_t* mrow = full ? nullptr : mask + r * k;
    std::uint64_t* qwrow = out.qw + r * n;
    if constexpr (!kChain) {
      zero_u32(lanes, n);
    } else {
      zero_u32(out.qq32 + r * n, n);
    }
    if (!full) zero_u32(qw32, n);
    std::uint64_t qa = 0;
    std::int64_t taps = 0;
    std::int64_t since = 0;
    bool spilled = false;  // A partial reached row r's u64 sums before the end.
    for (std::int64_t kk = 0; kk < k; ++kk) {
      if (mrow != nullptr && mrow[kk] == 0) continue;  // Padding tap: true zero.
      const std::uint8_t code = arow[kk];
      const std::uint8_t* brow = b + kk * n;
      if constexpr (kChain) {
        if (tv.nibble(code)) {
          stage_nib(n, tv.nib_row(code), brow, lanes);
        } else {
          stage_gen(n, tv.row(code), brow, lanes);
        }
        // The behavioral chain stays scalar and in ascending k: with an
        // approximate accum, error accrues exactly as in the hardware
        // accumulator it models (carry cuts see the realized partial sums).
        std::uint32_t* qq = out.qq32 + r * n;
        for (std::int64_t j = 0; j < n; ++j) qq[j] = accum->add(qq[j], lanes[j]);
      } else if (tv.nibble(code)) {
        nib(n, tv.nib_row(code), brow, nullptr, lanes);
      } else {
        gen(n, tv.row(code), brow, nullptr, lanes);
      }
      if (!full) codes_sum(n, brow, nullptr, qw32);
      qa += code;
      ++taps;
      if (++since == cadence) {
        if (!kChain) spill(lanes, n, out.qq64 + r * n, 1, !spilled);
        if (!full) spill(qw32, n, qwrow, 1, !spilled);
        spilled = true;
        since = 0;
      }
    }
    if (!kChain) spill(lanes, n, out.qq64 + r * n, 1, !spilled);
    if (full) {
      std::memcpy(qwrow, colsum, static_cast<std::size_t>(n) * sizeof(std::uint64_t));
    } else {
      spill(qw32, n, qwrow, 1, !spilled);
    }
    out.qa[r] = qa;
    out.taps[r] = taps;
  }
}

/// Output positions [i0, i1) of group g with the lanes along the
/// positions: per (channel, tap) the weight code is fixed, so the lanes
/// stream the tap-major activation codes through one column of the table.
/// `kChain` as for block_channels.
template <bool kChain>
void block_positions(const LutOps& ops, const LutProblem& p, std::int64_t g, std::int64_t i0,
                     std::int64_t i1, const LutTables& tables, const U32Accum* accum,
                     const LutBlockOut& out) {
  const std::int64_t m = p.m;
  const std::int64_t n = p.n;
  const std::int64_t k = p.k;
  const std::int64_t rows = i1 - i0;
  const std::uint8_t* a = p.a + g * p.a_group + i0;  // Tap kk's codes at a + kk * m.
  const std::uint8_t* mask = p.mask == nullptr ? nullptr : p.mask + g * p.mask_group + i0;
  const std::uint8_t* b = p.b + g * p.b_group;
  const LutTables& t = tables.columns();

  ws::Workspace& wksp = ws::Workspace::tls();
  const ws::Workspace::Scope scope(wksp);
  // u32 product partials (exact) or the chain values themselves (adder).
  std::uint32_t* part = wksp.alloc<std::uint32_t>(static_cast<std::size_t>(rows));
  std::uint32_t* prod =
      kChain ? wksp.alloc<std::uint32_t>(static_cast<std::size_t>(rows)) : nullptr;
  // Activation-code partials first, then weight-code partials (masked).
  std::uint32_t* side = wksp.alloc<std::uint32_t>(static_cast<std::size_t>(rows));
  std::uint32_t* count =
      mask == nullptr ? nullptr : wksp.alloc<std::uint32_t>(static_cast<std::size_t>(rows));

  // The activation-code sums and tap counts do not depend on the channel.
  zero_u64(out.qa, rows);
  zero_u32(side, rows);
  if (mask != nullptr) {
    zero_u32(count, rows);
    std::memset(out.taps, 0, static_cast<std::size_t>(rows) * sizeof(std::int64_t));
  }
  std::int64_t since = 0;
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const std::uint8_t* mrow = mask == nullptr ? nullptr : mask + kk * m;
    ops.accum_codes(rows, a + kk * m, mrow, side);
    if (mrow != nullptr) ops.accum_const_masked(rows, mrow, 1, count);
    if (++since == kCodeFlushEvery || kk + 1 == k) {
      spill(side, rows, out.qa, 1, false);
      if (mask != nullptr) {
        for (std::int64_t r = 0; r < rows; ++r) out.taps[r] += count[r];
        zero_u32(count, rows);
      }
      since = 0;
    }
  }
  if (mask == nullptr) std::fill(out.taps, out.taps + rows, k);

  const std::int64_t cadence = kChain ? kCodeFlushEvery : t.flush_every;
  const TableView tv(t);
  const auto gen = ops.accum_gen;
  const auto nib = ops.accum_nib;
  const auto stage_gen = ops.stage_gen;
  const auto stage_nib = ops.stage_nib;
  const auto const_masked = ops.accum_const_masked;
  for (std::int64_t j = 0; j < n; ++j) {
    std::uint64_t* qq64 = kChain ? nullptr : out.qq64 + j;
    std::uint64_t* qw = out.qw + j;
    zero_u32(part, rows);
    if (mask != nullptr) zero_u32(side, rows);
    std::uint64_t wsum = 0;
    bool spilled = false;  // A partial was flushed into column j before the end.
    since = 0;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const std::uint8_t w = b[kk * n + j];
      const std::uint8_t* codes = a + kk * m;
      const std::uint8_t* mrow = mask == nullptr ? nullptr : mask + kk * m;
      if constexpr (kChain) {
        if (tv.nibble(w)) {
          stage_nib(rows, tv.nib_row(w), codes, prod);
        } else {
          stage_gen(rows, tv.row(w), codes, prod);
        }
        // One scalar chain per output element, still in ascending k.
        for (std::int64_t r = 0; r < rows; ++r) {
          if (mrow == nullptr || mrow[r] != 0) part[r] = accum->add(part[r], prod[r]);
        }
      } else if (tv.nibble(w)) {
        nib(rows, tv.nib_row(w), codes, mrow, part);
      } else {
        gen(rows, tv.row(w), codes, mrow, part);
      }
      if (mrow != nullptr) {
        const_masked(rows, mrow, w, side);
      } else {
        wsum += w;
      }
      if (++since == cadence) {
        if (!kChain) spill(part, rows, qq64, n, !spilled);
        if (mask != nullptr) spill(side, rows, qw, n, !spilled);
        spilled = true;
        since = 0;
      }
    }
    if constexpr (kChain) {
      for (std::int64_t r = 0; r < rows; ++r) out.qq32[r * n + j] = part[r];
    } else {
      spill(part, rows, qq64, n, !spilled);
    }
    if (mask != nullptr) {
      spill(side, rows, qw, n, !spilled);
    } else {
      for (std::int64_t r = 0; r < rows; ++r) qw[r * n] = wsum;
    }
  }
}

/// The scalar tier: the retained seed loops over row-major codes (a
/// tap-major block is transposed back first), the oracle of every tier.
void block_scalar(const LutProblem& p, std::int64_t g, std::int64_t i0, std::int64_t i1,
                  const LutTables& tables, const U32Accum* accum, const LutBlockOut& out) {
  const std::int64_t m = p.m;
  const std::int64_t k = p.k;
  const std::int64_t rows = i1 - i0;
  const std::uint8_t* a = p.a + g * p.a_group;
  const std::uint8_t* mask = p.mask == nullptr ? nullptr : p.mask + g * p.mask_group;
  const std::uint8_t* b = p.b + g * p.b_group;

  ws::Workspace& wksp = ws::Workspace::tls();
  const ws::Workspace::Scope scope(wksp);
  const auto row_major = [&](const std::uint8_t* src) -> const std::uint8_t* {
    if (src == nullptr) return nullptr;
    if (p.lanes == Lanes::kChannels) return src + i0 * k;
    std::uint8_t* dst = wksp.alloc<std::uint8_t>(static_cast<std::size_t>(rows * k));
    for (std::int64_t r = 0; r < rows; ++r) {
      for (std::int64_t kk = 0; kk < k; ++kk) dst[r * k + kk] = src[kk * m + i0 + r];
    }
    return dst;
  };
  const std::uint8_t* arows = row_major(a);
  const std::uint8_t* mrows = row_major(mask);
  if (accum == nullptr) {
    gemm::gemm_u8_lut(rows, p.n, k, arows, mrows, b, tables.lut.data(), out.qq64, out.qw,
                      out.qa, out.taps);
  } else {
    gemm::gemm_u8_lut_chain(rows, p.n, k, arows, mrows, b, tables.lut.data(), *accum,
                            out.qq32, out.qw, out.qa, out.taps);
  }
}

/// Row view of `raw`: per-row nibble proofs and the flush cadence.
LutTables build_rows(const std::uint32_t* raw, int max_code) {
  LutTables t;
  t.lut.assign(raw, raw + 256 * 256);
  t.nib.assign(256 * 64, 0);
  t.nibble_ok.assign(256, 0);

  const int hi_max = max_code >> 4;
  const int lo_max = std::min(max_code, 15);
  for (int a = 0; a <= max_code; ++a) {
    const std::uint32_t* row = raw + (static_cast<std::size_t>(a) << 8);
    for (int bcode = 0; bcode <= max_code; ++bcode) {
      t.max_value = std::max(t.max_value, row[bcode]);
    }

    // Candidate decomposition: L from the h = 0 edge, H from the l = 0
    // edge relative to row[0] (forcing H[0] = 0). Valid iff every
    // reachable code reassembles exactly and all sums stay u16.
    std::uint32_t l_tab[16] = {0};
    std::uint32_t h_tab[16] = {0};
    bool ok = true;
    for (int l = 0; l <= lo_max && ok; ++l) {
      l_tab[l] = row[l];
      ok = l_tab[l] <= 0xFFFF;
    }
    for (int h = 0; h <= hi_max && ok; ++h) {
      const std::uint32_t edge = row[h << 4];
      ok = edge >= row[0] && (edge - row[0]) <= 0xFFFF;
      if (ok) h_tab[h] = edge - row[0];
    }
    for (int bcode = 0; bcode <= max_code && ok; ++bcode) {
      const std::uint32_t sum = h_tab[bcode >> 4] + l_tab[bcode & 15];
      ok = sum <= 0xFFFF && sum == row[bcode];
    }
    if (!ok) continue;
    t.nibble_ok[static_cast<std::size_t>(a)] = 1;
    t.any_nibble = true;
    std::uint8_t* nibrow = t.nib.data() + static_cast<std::size_t>(a) * 64;
    for (int e = 0; e < 16; ++e) {
      nibrow[e] = static_cast<std::uint8_t>(l_tab[e] & 0xFF);
      nibrow[16 + e] = static_cast<std::uint8_t>(l_tab[e] >> 8);
      nibrow[32 + e] = static_cast<std::uint8_t>(h_tab[e] & 0xFF);
      nibrow[48 + e] = static_cast<std::uint8_t>(h_tab[e] >> 8);
    }
  }

  const std::uint64_t by_value =
      t.max_value == 0 ? kCodeFlushEvery : 0xFFFFFFFFULL / t.max_value;
  t.flush_every = static_cast<std::int64_t>(
      std::max<std::uint64_t>(1, std::min<std::uint64_t>(by_value, kCodeFlushEvery)));
  return t;
}

/// Runs C = A * B over row-major A through the channels orientation (the
/// fixed-surface drivers below), splitting row blocks across threads.
void run_channels(std::int64_t m, std::int64_t n, std::int64_t k, const std::uint8_t* a,
                  const std::uint8_t* a_mask, const std::uint8_t* b, const LutTables& tables,
                  const U32Accum* accum, std::uint64_t* acc_qq64, std::uint32_t* acc_qq32,
                  std::uint64_t* acc_qw, std::uint64_t* acc_qa, std::int64_t* taps) {
  LutProblem p;
  p.m = m;
  p.n = n;
  p.k = k;
  p.a = a;
  p.mask = a_mask;
  p.b = b;
  const std::int64_t rb = block_rows(Lanes::kChannels, n, k);
  const std::int64_t blocks = (m + rb - 1) / rb;
  pool::parallel_for(blocks, static_cast<double>(rb * n * k) * kNsPerLutMac,
                     [&](std::int64_t first, std::int64_t last) {
    for (std::int64_t blk = first; blk < last; ++blk) {
      const std::int64_t i0 = blk * rb;
      LutBlockOut o;
      o.qq64 = acc_qq64 == nullptr ? nullptr : acc_qq64 + i0 * n;
      o.qq32 = acc_qq32 == nullptr ? nullptr : acc_qq32 + i0 * n;
      o.qw = acc_qw + i0 * n;
      o.qa = acc_qa + i0;
      o.taps = taps + i0;
      lut_block(p, 0, i0, std::min(m, i0 + rb), tables, accum, o);
    }
  });
}

}  // namespace

LutTables LutTables::build(const std::uint32_t* raw, int max_code) {
  if (max_code < 0 || max_code > 255) {
    std::fprintf(stderr, "redcane::gemm fatal: LUT max_code %d outside [0, 255]\n", max_code);
    std::abort();
  }
  LutTables t = build_rows(raw, max_code);
  bool symmetric = true;
  for (int a = 0; a <= max_code && symmetric; ++a) {
    for (int bcode = a + 1; bcode <= max_code && symmetric; ++bcode) {
      symmetric = raw[(a << 8) | bcode] == raw[(bcode << 8) | a];
    }
  }
  if (!symmetric) {
    std::vector<std::uint32_t> cols(256 * 256);
    for (int a = 0; a < 256; ++a) {
      for (int bcode = 0; bcode < 256; ++bcode) cols[(bcode << 8) | a] = raw[(a << 8) | bcode];
    }
    t.transposed = std::make_shared<const LutTables>(build_rows(cols.data(), max_code));
  }
  return t;
}

const LutOps& ops_for(mk::Target t) {
#if REDCANE_LK_X86
  switch (t) {
    case mk::Target::kSse:
      return kSsse3LutOps;
    case mk::Target::kAvx2:
      return kAvx2LutOps;
    case mk::Target::kScalar:
      break;
  }
#else
  (void)t;
#endif
  return kScalarLutOps;
}

const LutOps& active() { return ops_for(mk::active().target); }

std::int64_t block_rows(Lanes lanes, std::int64_t n, std::int64_t k) {
  if (lanes == Lanes::kChannels) return 64;  // Amortizes the per-block column sums.
  // At most about 64 KiB of tap-major codes and 4096 output elements (the
  // column-strided u64 sums) per block, in whole 32-lane steps.
  constexpr std::int64_t kCodeBytes = 64 * 1024;
  constexpr std::int64_t kCells = 4096;
  const std::int64_t rows =
      std::min(kCodeBytes / std::max<std::int64_t>(k, 1), kCells / std::max<std::int64_t>(n, 1));
  return std::max<std::int64_t>(32, rows / 32 * 32);
}

void lut_block(const LutProblem& p, std::int64_t g, std::int64_t i0, std::int64_t i1,
               const LutTables& tables, const U32Accum* accum, const LutBlockOut& out) {
  const LutOps& ops = active();
  if (ops.target == mk::Target::kScalar) {
    block_scalar(p, g, i0, i1, tables, accum, out);
  } else if (p.lanes == Lanes::kPositions) {
    accum == nullptr ? block_positions<false>(ops, p, g, i0, i1, tables, accum, out)
                     : block_positions<true>(ops, p, g, i0, i1, tables, accum, out);
  } else {
    accum == nullptr ? block_channels<false>(ops, p, g, i0, i1, tables, accum, out)
                     : block_channels<true>(ops, p, g, i0, i1, tables, accum, out);
  }
}

void lut_gemm_u8(std::int64_t m, std::int64_t n, std::int64_t k, const std::uint8_t* a,
                 const std::uint8_t* a_mask, const std::uint8_t* b, const LutTables& tables,
                 std::uint64_t* acc_qq, std::uint64_t* acc_qw, std::uint64_t* acc_qa,
                 std::int64_t* taps) {
  run_channels(m, n, k, a, a_mask, b, tables, nullptr, acc_qq, nullptr, acc_qw, acc_qa, taps);
}

void lut_gemm_u8_chain(std::int64_t m, std::int64_t n, std::int64_t k, const std::uint8_t* a,
                       const std::uint8_t* a_mask, const std::uint8_t* b,
                       const LutTables& tables, const U32Accum& accum, std::uint32_t* acc_qq,
                       std::uint64_t* acc_qw, std::uint64_t* acc_qa, std::int64_t* taps) {
  run_channels(m, n, k, a, a_mask, b, tables, &accum, nullptr, acc_qq, acc_qw, acc_qa, taps);
}

}  // namespace redcane::gemm::lk
