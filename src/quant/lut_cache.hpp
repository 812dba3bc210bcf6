// Process-wide cache of prepared LUT-GEMM product tables.
//
// Before this cache, every emulated layer call rebuilt its 256x256 product
// table — 65536 virtual Multiplier::multiply calls — even though a serving
// run or a sweep re-executes the same (multiplier, bits) site thousands of
// times. A prepared gemm::lk::LutTables additionally carries the per-row
// nibble decomposition proof, which makes the rebuild even less free. The
// cache memoizes LutTables::build by (multiplier identity, bits) behind a
// mutex; entries are heap-stable (unique_ptr), so the returned reference
// stays valid while readers use it concurrently.
//
// Identity & lifetime: the key couples the multiplier's address with its
// library name, so two distinct components can never alias. Library
// components live for the whole process and their entries are cached
// forever. A caller that emulates through a multiplier it owns (anything
// not in approx::multiplier_library()) must invalidate on destruction or
// the same address could be reused by a later allocation and hit a stale
// table — backend::EmulationPlan does this automatically for every
// non-library multiplier it referenced (plan-scoped invalidation).
#pragma once

#include <cstdint>

#include "approx/multiplier.hpp"
#include "tensor/lut_kernel.hpp"

namespace redcane::quant {

/// Cache counters since process start (or the last reset_stats).
struct LutCacheStats {
  std::uint64_t hits = 0;    ///< Lookups served from a cached table.
  std::uint64_t misses = 0;  ///< Lookups that built a new table.
  std::uint64_t entries = 0; ///< Tables currently resident.

  [[nodiscard]] double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// The prepared product table of (`mul`, `bits`), building and caching it
/// on first use, column view included when the table is asymmetric. Null
/// `mul` means the exact multiplier (same normalization as
/// build_product_lut). `bits` must lie in [1, 8] (aborts otherwise).
/// Thread-safe; the reference is valid until the entry is invalidated
/// (library multipliers: never).
[[nodiscard]] const gemm::lk::LutTables& lut_cache_get(const approx::Multiplier* mul,
                                                       int bits = 8);

/// Drops every entry keyed by `mul` (all wordlengths). No-op when nothing
/// is cached for it. Callers owning short-lived multipliers must call this
/// before the multiplier dies.
void lut_cache_invalidate(const approx::Multiplier* mul);

/// Drops all entries (tests).
void lut_cache_clear();

[[nodiscard]] LutCacheStats lut_cache_stats();

/// Zeroes the cache's own hit/miss counts (entry count is live state, not
/// a counter). The process-wide lut_cache_*_total registry counters are
/// not reset.
void lut_cache_reset_stats();

}  // namespace redcane::quant
