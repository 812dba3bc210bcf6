#include "backend/emulation.hpp"

#include <algorithm>

#include "approx/library.hpp"
#include "quant/lut_cache.hpp"

namespace redcane::backend {
namespace {

thread_local const EmulationPlan* g_active_plan = nullptr;

/// Non-aborting library lookups (approx::*_by_name abort on unknown names,
/// which is wrong for data that arrives from a manifest file).
const approx::Multiplier* find_multiplier(const std::string& name) {
  for (const approx::Multiplier* m : approx::multiplier_library()) {
    if (m->info().name == name) return m;
  }
  return nullptr;
}

const approx::Adder* find_adder(const std::string& name) {
  for (const approx::Adder* a : approx::adder_library()) {
    if (a->info().name == name) return a;
  }
  return nullptr;
}

}  // namespace

EmulationPlan::~EmulationPlan() {
  // Plan-scoped invalidation: drop cached product tables of multipliers
  // this plan referenced that the component library does not own — their
  // storage may be reused once the caller tears them down, and a stale
  // cache hit on the recycled address would serve the wrong table.
  const std::vector<const approx::Multiplier*>& lib = approx::multiplier_library();
  for (const auto& entry : entries_) {
    const approx::Multiplier* mul = entry.second.unit.mul;
    if (mul == nullptr) continue;
    if (std::find(lib.begin(), lib.end(), mul) == lib.end()) {
      quant::lut_cache_invalidate(mul);
    }
  }
}

void EmulationPlan::set(const std::string& layer, const SiteUnit& unit) {
  for (auto& entry : entries_) {
    if (entry.first == layer) {
      entry.second = unit;
      return;
    }
  }
  entries_.emplace_back(layer, unit);
}

bool EmulationPlan::set_by_name(const std::string& layer, const std::string& multiplier,
                                const std::string& adder, int bits) {
  if (bits < 1 || bits > 8) return false;
  SiteUnit u;
  u.bits = bits;
  if (!multiplier.empty()) {
    u.unit.mul = find_multiplier(multiplier);
    if (u.unit.mul == nullptr) return false;
  }
  if (!adder.empty()) {
    u.unit.adder = find_adder(adder);
    if (u.unit.adder == nullptr) return false;
  }
  set(layer, u);
  return true;
}

const SiteUnit* EmulationPlan::find(const std::string& layer) const {
  for (const auto& entry : entries_) {
    if (entry.first == layer) return &entry.second;
  }
  return nullptr;
}

std::vector<std::string> EmulationPlan::layers() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& entry : entries_) out.push_back(entry.first);
  return out;
}

EmulationScope::EmulationScope(const EmulationPlan& plan) : previous_(g_active_plan) {
  g_active_plan = &plan;
}

EmulationScope::~EmulationScope() { g_active_plan = previous_; }

const EmulationPlan* active_plan() { return g_active_plan; }

const SiteUnit* active_mac_unit(const std::string& layer) {
  return g_active_plan == nullptr ? nullptr : g_active_plan->find(layer);
}

}  // namespace redcane::backend
