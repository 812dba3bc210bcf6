#include "noise/noise_model.hpp"

#include <cstdint>

#include "tensor/stats.hpp"
#include "tensor/workspace.hpp"

namespace redcane::noise {

void inject_noise(Tensor& x, const NoiseSpec& spec, Rng& rng) {
  if (spec.is_zero() || x.empty()) return;
  const double range = stats::range(x).width();
  if (range <= 0.0) return;
  const double stddev = spec.nm * range;
  const double mean = spec.na * range;
  // The RNG stream is inherently sequential (and its draw order is the
  // reproducibility contract of every sweep), so draws are staged into an
  // arena buffer first and the application sweep vectorizes separately.
  // Same draws, same adds, same results as the fused loop.
  const std::size_t count = static_cast<std::size_t>(x.numel());
  ws::Workspace& wksp = ws::Workspace::tls();
  const ws::Workspace::Scope scope(wksp);
  float* delta = wksp.alloc<float>(count);
  rng.fill_normal(delta, count, mean, stddev);
  float* xd = x.data().data();
#pragma omp simd
  for (std::size_t i = 0; i < count; ++i) xd[i] += delta[i];
}

}  // namespace redcane::noise
