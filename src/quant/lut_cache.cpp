#include "quant/lut_cache.hpp"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>

#include "approx/library.hpp"
#include "obs/metrics.hpp"
#include "quant/lut_gemm.hpp"

namespace redcane::quant {
namespace {

// Address + library name + wordlength. The name disambiguates address
// reuse across invalidation epochs for caller-owned multipliers (a reused
// allocation with the same name and bits would still be wrong — that is
// what lut_cache_invalidate is for — but the common collision, a different
// component landing on a freed address, can never false-hit).
using Key = std::tuple<const approx::Multiplier*, std::string, int>;

struct Cache {
  std::mutex mu;
  std::map<Key, std::unique_ptr<gemm::lk::LutTables>> entries;
  // The cache's own, resettable counts; each add also lands on the
  // registry total of the same name, which is never reset.
  obs::Counter hits{obs::Registry::instance().counter("lut_cache_hits_total")};
  obs::Counter misses{obs::Registry::instance().counter("lut_cache_misses_total")};
};

Cache& cache() {
  static Cache c;  // Leak-free program-lifetime singleton.
  return c;
}

}  // namespace

const gemm::lk::LutTables& lut_cache_get(const approx::Multiplier* mul, int bits) {
  if (bits < 1 || bits > 8) {
    std::fprintf(stderr, "redcane::quant fatal: LUT wordlength %d outside [1, 8]\n", bits);
    std::abort();
  }
  const approx::Multiplier& m = mul == nullptr ? approx::exact_multiplier() : *mul;
  Key key{&m, m.info().name, bits};

  Cache& c = cache();
  {
    const std::lock_guard<std::mutex> lock(c.mu);
    const auto it = c.entries.find(key);
    if (it != c.entries.end()) {
      c.hits.add();
      return *it->second;
    }
  }

  // Build outside the lock: table materialization (65536 virtual multiply
  // calls, the nibble proofs, and the column view of an asymmetric
  // table) is the expensive part, and concurrent
  // first-touch builders of the same key must not serialize behind it.
  // The loser of the insert race discards its build.
  std::vector<std::uint32_t> raw(256 * 256);
  build_product_lut(&m, raw.data());
  auto built = std::make_unique<gemm::lk::LutTables>(
      gemm::lk::LutTables::build(raw.data(), (1 << bits) - 1));

  const std::lock_guard<std::mutex> lock(c.mu);
  auto [it, inserted] = c.entries.try_emplace(std::move(key), std::move(built));
  (inserted ? c.misses : c.hits).add();
  return *it->second;
}

void lut_cache_invalidate(const approx::Multiplier* mul) {
  if (mul == nullptr) return;
  Cache& c = cache();
  const std::lock_guard<std::mutex> lock(c.mu);
  for (auto it = c.entries.begin(); it != c.entries.end();) {
    if (std::get<0>(it->first) == mul) {
      it = c.entries.erase(it);
    } else {
      ++it;
    }
  }
}

void lut_cache_clear() {
  Cache& c = cache();
  const std::lock_guard<std::mutex> lock(c.mu);
  c.entries.clear();
}

LutCacheStats lut_cache_stats() {
  Cache& c = cache();
  const std::lock_guard<std::mutex> lock(c.mu);
  return LutCacheStats{static_cast<std::uint64_t>(c.hits.value()),
                       static_cast<std::uint64_t>(c.misses.value()),
                       static_cast<std::uint64_t>(c.entries.size())};
}

void lut_cache_reset_stats() {
  Cache& c = cache();
  const std::lock_guard<std::mutex> lock(c.mu);
  c.hits.reset();
  c.misses.reset();
}

}  // namespace redcane::quant
