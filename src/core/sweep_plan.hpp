// The one sweep path: plan -> run_shard -> assemble.
//
// A ReD-CaNe sweep is a grid of independent, per-point-salted evaluations
// over one test set: the Steps 2/4 resilience curves and the Step-8
// exact, noise and emulated robustness grids alike. Every caller — the
// in-process ResilienceAnalyzer, the distributed coordinator, its workers
// and its local fallback (src/dist/) — runs a grid through the same three
// phases:
//
//   plan      — plan_curve / plan_attack_exact / plan_attack_noise /
//               plan_attack_emulated: grid geometry -> one GridPlan whose
//               shards carry the serial analyzer's salting discipline (salts
//               1..N in grid order, restarting per Step-8 severity row);
//   execute   — run_shard(engine, shard) on ANY SweepEngine over the same
//               (weights, test set). In process, run_plan runs each plan
//               shard whole; a dist job splits them with chunk_plan and
//               workers run the chunks;
//   assemble  — assemble(plan, outcomes) folds the outcomes back into the
//               plan's curve or grid, independent of which engine
//               produced them.
//
// Because every point carries its own salt and noise streams are seeded
// per point (see sweep_engine.hpp), a grid split into shards of any size,
// executed in any order, on any mix of engines with bitwise-identical
// weights, assembles into curves bitwise identical to the single-process
// run. That determinism contract is what lets the distributed coordinator
// reassign shards from dead workers freely.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/resilience.hpp"
#include "core/sweep_engine.hpp"

namespace redcane::core {

/// Execution backend of a shard's evaluations.
enum class ShardBackend : std::uint8_t {
  kNoise = 0,     ///< Noise-model grid points (Steps 2/4, Step-8 noise rows).
  kEmulated = 1,  ///< One behavioral component cell (Step-8 emulated grid).
};

/// One schedulable unit of sweep work. All points of a shard share one
/// eval set (the clean set for identity specs, a perturbed set otherwise).
/// A shard with no points still reports the set's noise-free accuracy —
/// that is how exact-backend grid rows and clean baselines distribute.
struct SweepShard {
  std::uint64_t id = 0;
  attack::AttackSpec spec;  ///< Identity = the clean eval set.
  ShardBackend backend = ShardBackend::kNoise;
  std::string component;  ///< Emulated only: approximate-multiplier name.
  int bits = 8;           ///< Emulated only: operand wordlength.
  std::vector<SweepPointSpec> points;

  /// Number of accuracy values a correct result must carry.
  [[nodiscard]] std::size_t expected_values() const {
    return backend == ShardBackend::kEmulated ? 1 : points.size();
  }
};

/// Result of one shard: per-point accuracies (empty for point-less shards,
/// a single value for emulated shards) plus the eval set's noise-free
/// accuracy (the NM = 0 column / exact row every assembly needs).
struct ShardOutcome {
  std::uint64_t id = 0;
  double base = 0.0;
  std::vector<double> acc;
};

/// Wall-time split of one run_shard call. Diagnostic only (dist workers
/// ship it back in Result frames for the merged trace); never feeds any
/// computed value.
struct ShardTimings {
  std::uint64_t base_us = 0;    ///< ensure_attacked + base-accuracy phase.
  std::uint64_t points_us = 0;  ///< Point (or emulated) evaluation phase.
};

/// Executes one shard on a local engine — THE shard-granular entry point,
/// called in process, by the coordinator's local fallback and by remote
/// dist workers alike. Returns acc.size() != shard.expected_values() only
/// on failure (unknown emulated component); callers treat that as a
/// corrupt result. When `timings` is non-null it receives the phase
/// profile.
[[nodiscard]] ShardOutcome run_shard(SweepEngine& engine, const SweepShard& shard,
                                     ShardTimings* timings = nullptr);

/// Sentinel in GridPlan::cells: the value is the shard's noise-free
/// accuracy (the NM = 0 column, an exact-backend cell) instead of a point.
inline constexpr std::size_t kCleanPoint = static_cast<std::size_t>(-1);

/// Which grid a plan describes.
enum class GridKind : std::uint8_t {
  kCurve,     ///< Steps 2/4: one ResilienceCurve over the NM axis.
  kExact,     ///< Step 8: attacked accuracy per severity.
  kNoise,     ///< Step 8: (severity x NM) accuracy.
  kEmulated,  ///< Step 8: (severity x component) accuracy.
};

/// One sweep grid: its axes plus the unchunked shards that compute it.
struct GridPlan {
  GridKind kind = GridKind::kCurve;
  capsnet::OpKind op = capsnet::OpKind::kMacOutput;  ///< Curve: group swept.
  std::optional<std::string> layer;                  ///< Curve: layer-wise target.
  std::string scenario;                 ///< Step 8: attack::Scenario::name().
  std::vector<double> severities;       ///< Step 8: row axis.
  std::vector<double> nms;              ///< Curve / noise grid: column axis.
  std::vector<std::string> components;  ///< Emulated grid: column axis.
  /// The values each shard contributes to the grid, in order: an index
  /// into its point accuracies, or kCleanPoint for its noise-free accuracy.
  std::vector<std::size_t> cells;
  /// One shard per curve, per severity row (exact, noise) or per
  /// (severity, component) cell (emulated), in row-major grid order.
  std::vector<SweepShard> shards;
};

/// A Steps-2/4 curve: one noise shard over the clean set, salts 1..N in
/// grid order (the serial analyzer's discipline).
[[nodiscard]] GridPlan plan_curve(const NmSweep& sweep, capsnet::OpKind kind,
                                  const std::optional<std::string>& layer);

/// Step 8, exact backend: one point-less shard per severity.
[[nodiscard]] GridPlan plan_attack_exact(const attack::Scenario& scenario);

/// Step 8, noise backend: one shard per severity row, noise in every
/// operation of `group`; salts restart at 1 per row, so rows are
/// order-independent.
[[nodiscard]] GridPlan plan_attack_noise(const NmSweep& sweep, const attack::Scenario& scenario,
                                         capsnet::OpKind group);

/// Step 8, emulated backend: one shard per (severity, component) cell,
/// every MAC-output layer executed through the component's LUT datapath at
/// `bits`. Components unknown to the multiplier library are skipped with a
/// stderr note.
[[nodiscard]] GridPlan plan_attack_emulated(const attack::Scenario& scenario,
                                            const std::vector<std::string>& components,
                                            int bits);

/// Everything a list of plans assembles into, each kind in plan order.
struct SweepGrids {
  std::vector<ResilienceCurve> curves;
  std::vector<RobustnessGrid> grids;
};

/// Appends the plan's shards to `out`, each split into chunks of at most
/// `chunk` points (a point-less shard stays one), with ids continuing from
/// out->size(). Chunk boundaries cannot change values: every point carries
/// its own salt.
void chunk_plan(const GridPlan& plan, std::size_t chunk, std::vector<SweepShard>* out);

/// THE assembler: folds the outcomes of the plan's shards — in shard
/// order, a shard's chunks consecutive — into the plan's curve or grid,
/// appended to `out`. Returns how many outcomes it consumed, so a job's
/// flat outcome list assembles plan after plan.
std::size_t assemble(const GridPlan& plan, std::span<const ShardOutcome> outcomes,
                     SweepGrids* out);

/// In-process execution: run_shard on every plan shard whole, then
/// assemble into `out`.
void run_plan(SweepEngine& engine, const GridPlan& plan, SweepGrids* out);

}  // namespace redcane::core
