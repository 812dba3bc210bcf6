// splitmix64 — the repo's standard seed-scrambling finalizer, shared by
// the fault injector (util/fault) and the distributed retry
// jitter (dist/backoff) so both decision streams are pure functions of
// (seed, site, sequence) with no shared state.
#pragma once

#include <cstdint>

namespace redcane::util {

[[nodiscard]] inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Hash of (seed, site, seq) mapped into [0, 1).
[[nodiscard]] inline double unit_hash(std::uint64_t seed, std::uint64_t site,
                                      std::uint64_t seq) {
  const std::uint64_t h = splitmix64(splitmix64(seed ^ site) ^ seq);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace redcane::util
