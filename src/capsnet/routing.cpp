#include "capsnet/routing.hpp"

#include <cstdio>
#include <cstdlib>

#include "capsnet/squash.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "tensor/workspace.hpp"
#include "util/pool.hpp"

namespace redcane::capsnet {
namespace {

struct VoteDims {
  std::int64_t m, i, j, d;
};

/// Serial cost of a strided copy of `floats` floats [ns, one core], the
/// per-sample work estimate of the loops below.
double copy_ns(std::int64_t floats) { return 0.5 * static_cast<double>(floats); }

VoteDims dims_of(const Tensor& u_hat) {
  if (u_hat.shape().rank() != 4) {
    std::fprintf(stderr, "redcane::capsnet fatal: routing expects votes [m, I, J, D]\n");
    std::abort();
  }
  return {u_hat.shape().dim(0), u_hat.shape().dim(1), u_hat.shape().dim(2),
          u_hat.shape().dim(3)};
}

/// Transposes votes [m, I, J, D] -> [m, J, I, D] so both routing
/// contractions become contiguous (I x D) blocks per (m, j).
void transpose_votes(const float* ud, const VoteDims& dd, float* td) {
  const double sample_ns = copy_ns(dd.i * dd.j * dd.d);
  pool::parallel_for(dd.m, sample_ns, [&](std::int64_t first, std::int64_t last) {
    for (std::int64_t m = first; m < last; ++m) {
      for (std::int64_t i = 0; i < dd.i; ++i) {
        for (std::int64_t j = 0; j < dd.j; ++j) {
          const float* src = &ud[((m * dd.i + i) * dd.j + j) * dd.d];
          float* dst = &td[((m * dd.j + j) * dd.i + i) * dd.d];
          for (std::int64_t k = 0; k < dd.d; ++k) dst[k] = src[k];
        }
      }
    }
  });
}

/// Transposes coefficients [m, I, J] -> [m, J, I].
void transpose_coeffs(const float* cd, const VoteDims& dd, float* td) {
  const double sample_ns = copy_ns(dd.i * dd.j);
  pool::parallel_for(dd.m, sample_ns, [&](std::int64_t first, std::int64_t last) {
    for (std::int64_t m = first; m < last; ++m) {
      for (std::int64_t i = 0; i < dd.i; ++i) {
        const float* src = &cd[(m * dd.i + i) * dd.j];
        for (std::int64_t j = 0; j < dd.j; ++j) {
          td[(m * dd.j + j) * dd.i + i] = src[j];
        }
      }
    }
  });
}

}  // namespace

RoutingResult dynamic_routing(const Tensor& u_hat, int iterations, PerturbationHook* hook,
                              const std::string& layer) {
  const VoteDims dd = dims_of(u_hat);
  // Logits b are a hook site (kLogitsUpdate may perturb them in place), so
  // they stay a Tensor; the transposed votes/coefficients are pure scratch
  // carved from the per-thread arena — no per-call vector churn.
  Tensor b(Shape{dd.m, dd.i, dd.j});
  RoutingResult out;

  ws::Workspace& wksp = ws::Workspace::tls();
  const ws::Workspace::Scope scope(wksp);
  const std::size_t votes_elems = static_cast<std::size_t>(dd.m * dd.j * dd.i * dd.d);
  const std::size_t coeff_elems = static_cast<std::size_t>(dd.m * dd.j * dd.i);
  float* u_t = wksp.alloc<float>(votes_elems);
  float* c_t = wksp.alloc<float>(coeff_elems);
  float* delta_t = wksp.alloc<float>(coeff_elems);

  // Votes are constant across iterations: transpose once, then every
  // weighted sum / agreement update is a batched GEMM over (m, j) blocks.
  // No per-element zero tests anywhere: a coupling coefficient that
  // underflows to 0 still multiplies its vote, so 0 * NaN / 0 * Inf
  // propagate per IEEE semantics (the old loop skipped cij == 0 operands).
  transpose_votes(u_hat.data().data(), dd, u_t);

  for (int it = 0; it < iterations; ++it) {
    Tensor c = ops::softmax(b, 2);
    emit(hook, layer, OpKind::kSoftmax, c);

    // s[(m,j), 1, D] = c_t[(m,j), 1, I] * u_t[(m,j), I, D].
    Tensor s(Shape{dd.m, dd.j, dd.d});
    transpose_coeffs(c.data().data(), dd, c_t);
    gemm::gemm_batched_f32(dd.m * dd.j, 1, dd.d, dd.i, c_t, dd.i, u_t, dd.i * dd.d, 0.0F,
                           s.data().data(), dd.d);
    emit(hook, layer, OpKind::kMacOutput, s);

    Tensor v = squash(s);
    emit(hook, layer, OpKind::kActivation, v);

    if (it + 1 < iterations) {
      // Agreement update b[m,i,j] += <u_hat[m,i,j,:], v[m,j,:]>, computed as
      // delta_t[(m,j), I, 1] = u_t[(m,j), I, D] * v[(m,j), D, 1].
      // The dot accumulates in float like every other GEMM in the core (the
      // pre-GEMM loop used a double accumulator); D is a capsule dimension
      // (<= 16), so the rounding drift is far below the noise magnitudes
      // swept.
      gemm::gemm_batched_f32(dd.m * dd.j, dd.i, 1, dd.d, u_t, dd.i * dd.d,
                             v.data().data(), dd.d, 0.0F, delta_t, dd.i);
      auto bd = b.data();
      const double sample_ns = copy_ns(dd.i * dd.j);
  pool::parallel_for(dd.m, sample_ns, [&](std::int64_t first, std::int64_t last) {
        for (std::int64_t m = first; m < last; ++m) {
          for (std::int64_t i = 0; i < dd.i; ++i) {
            for (std::int64_t j = 0; j < dd.j; ++j) {
              bd[static_cast<std::size_t>((m * dd.i + i) * dd.j + j)] +=
                  delta_t[(m * dd.j + j) * dd.i + i];
            }
          }
        }
      });
      emit(hook, layer, OpKind::kLogitsUpdate, b);
    }

    out.s = std::move(s);
    out.c = std::move(c);
    out.v = std::move(v);
  }
  return out;
}

Tensor routing_backward(const Tensor& u_hat, const RoutingResult& fwd, const Tensor& grad_v) {
  const VoteDims dd = dims_of(u_hat);
  // dL/ds through squash, then distribute to votes weighted by the final c:
  // grad_u_t[(m,j), I, D] = c_t[(m,j), I, 1] * grad_s[(m,j), 1, D].
  const Tensor grad_s = squash_backward(fwd.s, grad_v);
  ws::Workspace& wksp = ws::Workspace::tls();
  const ws::Workspace::Scope scope(wksp);
  float* c_t = wksp.alloc<float>(static_cast<std::size_t>(dd.m * dd.j * dd.i));
  float* grad_u_t = wksp.alloc<float>(static_cast<std::size_t>(dd.m * dd.j * dd.i * dd.d));
  transpose_coeffs(fwd.c.data().data(), dd, c_t);
  gemm::gemm_batched_f32(dd.m * dd.j, dd.i, dd.d, 1, c_t, dd.i, grad_s.data().data(), dd.d,
                         0.0F, grad_u_t, dd.i * dd.d);

  Tensor grad_u(u_hat.shape());
  auto gu = grad_u.data();
  const double sample_ns = copy_ns(dd.i * dd.j * dd.d);
  pool::parallel_for(dd.m, sample_ns, [&](std::int64_t first, std::int64_t last) {
    for (std::int64_t m = first; m < last; ++m) {
      for (std::int64_t j = 0; j < dd.j; ++j) {
        for (std::int64_t i = 0; i < dd.i; ++i) {
          const float* src = &grad_u_t[((m * dd.j + j) * dd.i + i) * dd.d];
          float* dst = &gu[static_cast<std::size_t>(((m * dd.i + i) * dd.j + j) * dd.d)];
          for (std::int64_t k = 0; k < dd.d; ++k) dst[k] = src[k];
        }
      }
    }
  });
  return grad_u;
}

}  // namespace redcane::capsnet
