// The "standard job": a fully specified distributed sweep — model recipe,
// dataset recipe, grid geometry, sharding, and assembly routing — that
// every participant (coordinator, worker processes, the in-process
// bitwise reference) can rebuild independently from a profile name.
//
// Distribution never ships weights or data: a worker reconstructs the
// model from the same deterministic Rng seed and the dataset from the
// same synthetic-generator spec, so its copies are bitwise identical to
// the coordinator's by construction. The job hash — a CRC-32 of the full
// recipe string (profile, model config, dataset spec, seeds, grid
// geometry, chunking) — travels in the Hello handshake and the journal
// header, refusing any participant whose recipe drifted.
//
// Grid contents per profile (all three Step-8 backends + Steps 2/4):
//   Step 2  group curves (plan_curve) over selected OpKinds
//   Step 4  layer curves over discovered MAC layers
//   Step 8  exact rows, (severity x NM) noise grids, and
//           (severity x component) emulated grids for an FGSM scenario
// The job is a list of core::GridPlans. Their shards, chunked, form one
// flat shard list with consecutive ids in plan order, so the outcomes of
// any run assemble plan after plan through core::assemble — the same
// assembler the in-process analyzer uses.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "capsnet/model.hpp"
#include "core/resilience.hpp"
#include "core/sweep_plan.hpp"
#include "data/dataset.hpp"

namespace redcane::dist {

/// Everything the distributed curves assemble into — the unit of the
/// bitwise-identity acceptance check against the in-process run.
using JobGrids = core::SweepGrids;

/// True when every value of both results is bitwise equal (exact double
/// comparison — the determinism contract, not a tolerance check).
[[nodiscard]] bool grids_identical(const JobGrids& a, const JobGrids& b);

struct StandardJob {
  std::string profile;  ///< "quick" | "full".
  std::unique_ptr<capsnet::CapsModel> model;
  data::Dataset dataset;
  core::ResilienceConfig rc;
  std::uint64_t job_hash = 0;
  /// The job's grids in assembly order: curves, then the Step-8 exact,
  /// noise and emulated grids.
  std::vector<core::GridPlan> plans;
  /// Every plan's shards, chunked, ids consecutive from 0 in plan order.
  std::vector<core::SweepShard> shards;
};

/// Engine configuration matching the job's grid values. `threads` caps the
/// grid points THAT engine evaluates at once (1 for dist workers — worker
/// processes are the parallelism); it cannot change any value.
[[nodiscard]] core::SweepEngineConfig job_engine_config(const StandardJob& job,
                                                        int threads);

/// Builds the job for a profile: "quick" (seconds; tests and CI smoke) or
/// "full" (the bench_dist workload). Aborts on an unknown profile name.
[[nodiscard]] StandardJob make_standard_job(const std::string& profile);

/// Assembles completed shard outcomes (one per job shard, any order) into
/// the job's curves and grids.
[[nodiscard]] JobGrids assemble_job(const StandardJob& job,
                                    const std::vector<core::ShardOutcome>& outcomes);

/// The in-process run: every plan through core::run_plan on one local
/// engine (no chunking, no sockets).
[[nodiscard]] JobGrids run_job_in_process(StandardJob& job);

}  // namespace redcane::dist
