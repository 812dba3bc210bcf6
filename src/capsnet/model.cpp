#include "capsnet/model.hpp"

#include <cstdio>
#include <cstdlib>

namespace redcane::capsnet {
namespace {

/// Why forward_range cannot run [first, last) over `state`, or null.
const char* range_error(int first, int last, int stages, const StageState& state) {
  if (first < 0) return "first < 0";
  if (first > last) return "first > last";
  if (last > stages) return "last > num_stages()";
  if (state.at.size() != static_cast<std::size_t>(stages) + 1) {
    return "state.at.size() != num_stages() + 1";
  }
  if (state.at[static_cast<std::size_t>(first)].empty()) return "empty entry boundary";
  return nullptr;
}

}  // namespace

Tensor CapsModel::forward(const Tensor& x, bool train, PerturbationHook* hook) {
  return run_stages(0, num_stages(), std::span<const Tensor>(&x, 1), train, hook, nullptr);
}

Tensor CapsModel::forward_range(int first, int last, StageState& state, PerturbationHook* hook,
                                bool record) {
  const int stages = num_stages();
  if (const char* why = range_error(first, last, stages, state)) {
    std::fprintf(stderr,
                 "redcane::capsnet fatal: forward_range(%d, %d) over %d stages and %zu "
                 "boundaries: %s\n",
                 first, last, stages, state.at.size(), why);
    std::abort();
  }
  return run_stages(first, last, state.at[static_cast<std::size_t>(first)], /*train=*/false,
                    hook, record ? &state : nullptr);
}

Tensor CapsModel::run_stages(int first, int last, std::span<const Tensor> entry, bool train,
                             PerturbationHook* hook, StageState* record) {
  Boundary scratch[2];  // Stage k writes one while it reads the other.
  std::span<const Tensor> cur = entry;
  for (int k = first; k < last; ++k) {
    Boundary& next =
        record != nullptr ? record->at[static_cast<std::size_t>(k) + 1] : scratch[k % 2];
    next.clear();
    stage(k, cur, next, train, hook);
    cur = next;
  }
  if (last != num_stages()) return Tensor();
  if (record != nullptr || first == last) return cur[0];
  return std::move(scratch[(last - 1) % 2][0]);
}

}  // namespace redcane::capsnet
