// Parallel resilience-sweep engine with prefix-activation caching.
//
// A ReD-CaNe sweep evaluates one trained model over one test set at many
// independent (injection rules, NM) grid points. Two structural facts make
// the serial driver wasteful:
//
//  1. Points are independent: each gets its own seed-salted
//     GaussianInjector, so the curves do not depend on execution order.
//     The engine runs points concurrently on the compute pool and still
//     produces bit-identical curves.
//  2. Noise injected at a site cannot change activations computed before
//     it. The engine records the clean stage-boundary activations of every
//     test batch once (CapsModel::forward_range with record=true) and
//     replays only the suffix from the first stage whose sites a point's
//     rules can match.
//
// Step-8 robustness scenarios add a third axis: input perturbations
// (adversarial attacks, affine transforms) that enter at stage 0. A
// perturbed input invalidates every downstream activation, so the engine
// keeps an input-batch-keyed variant of the prefix cache: one EvalSet
// (perturbed batches + their clean stage checkpoints + attacked accuracy)
// per canonical AttackSpec::key(). Building a set costs one attack
// generation plus one recording pass; every grid point sharing the spec —
// the whole noise axis of a robustness grid row — then replays suffixes
// from it exactly as clean points do. Gradient attacks run train-mode
// forwards on the shared model, so sets are built serially on the
// coordinating thread before any point runs.
//
// Points run as tasks of the compute pool (util/pool): at most
// SweepEngineConfig::threads of them at once, else one per pool thread
// (REDCANE_THREADS, else the hardware concurrency).
//
// Contracts:
//  * The model and test set must not change for the lifetime of the
//    engine: prefixes are recorded once and replayed against the weights
//    they were computed with. Rebuild the engine (or analyzer) after
//    mutating weights. (Train-mode attack forwards mutate layer caches,
//    not weights, so they do not invalidate recorded prefixes.)
//  * With prefix_cache on, the engine holds every stage-boundary
//    activation of the test set — once per cached attack spec. The
//    perturbed-set cache is LRU-bounded by
//    SweepEngineConfig::input_cache_budget (bytes of batches +
//    checkpoints); evicted specs rebuild bitwise identically on the next
//    request (attack generation is RNG-free). The clean base set is
//    always held. For full-scale models either sweep a subsample, shrink
//    the budget, or set prefix_cache = false, which records nothing.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "attack/attack.hpp"
#include "backend/backend.hpp"
#include "capsnet/model.hpp"
#include "noise/injector.hpp"
#include "obs/metrics.hpp"

namespace redcane::core {

/// Salt mixing constant shared by every sweep driver: point seed =
/// base seed ^ (salt * kSaltMix). Home is backend/backend.hpp (the lowest
/// layer that salts streams); this alias keeps every core-level seeding
/// site reading the same constant the backends use, so the engine
/// reproduces the serial analyzer's — and the serving runtime's —
/// per-point noise streams.
inline constexpr std::uint64_t kSaltMix = backend::kSaltMix;

struct SweepEngineConfig {
  std::uint64_t seed = 2020;
  std::int64_t eval_batch = 64;
  /// Grid points evaluated at once, on the compute pool; 0 = one per pool
  /// thread. A cap on points in flight, not the pool's size.
  int threads = 0;
  /// Replay noisy points from cached clean prefixes instead of running the
  /// full network. Off = every point is a full forward (the pre-engine
  /// behavior, still bit-identical).
  bool prefix_cache = true;
  /// Byte budget of the input-batch-keyed (attacked) EvalSet cache. Sets
  /// are evicted least-recently-used once the cached batches + checkpoints
  /// exceed it; the set being built/used is never evicted, so the budget
  /// bounds steady-state memory, not a single set. Re-evaluating an
  /// evicted spec rebuilds it bitwise identically (attacks are RNG-free).
  /// <= 0 = unbounded (the pre-LRU behavior). The clean base set is not
  /// part of this cache and never evicts.
  std::int64_t input_cache_budget = std::int64_t{256} << 20;
};

/// Exploration-cost counters of one engine lifetime, a view of the
/// engine's instruments (children of the `sweep_*_total` counters).
struct SweepEngineStats {
  std::int64_t evaluations = 0;     ///< Noisy test-set evaluations run.
  std::int64_t cache_hits = 0;      ///< Batch forwards resumed from a cached prefix.
  std::int64_t stages_skipped = 0;  ///< Stage executions avoided by prefix caching.
  std::int64_t stages_total = 0;    ///< Stage executions a full-forward driver would run.
  std::int64_t input_sets = 0;      ///< Perturbed eval sets built (input-keyed cache misses).
  std::int64_t input_cache_hits = 0;  ///< Evaluations served by an already-built set.
  std::int64_t input_evictions = 0;   ///< Perturbed sets evicted by the LRU byte budget.
  std::int64_t input_cache_bytes = 0; ///< Current bytes held by cached perturbed sets.
  int threads = 1;                  ///< Cap on points in flight, resolved.

  /// Fraction of stage executions skipped, in [0, 1].
  [[nodiscard]] double skip_fraction() const {
    return stages_total == 0 ? 0.0
                             : static_cast<double>(stages_skipped) /
                                   static_cast<double>(stages_total);
  }

  /// The stage law: skipped and (separately counted) run stages partition
  /// the full-forward count; prefix caching only ever removes work.
  [[nodiscard]] bool stages_reconcile(std::int64_t stages_run) const {
    return stages_skipped + stages_run == stages_total && stages_skipped <= stages_total;
  }

  /// Fraction of input-keyed lookups served without regenerating the
  /// attack (a robustness grid with P noise points per severity row should
  /// approach (P-1)/P), in [0, 1].
  [[nodiscard]] double input_hit_rate() const {
    const std::int64_t lookups = input_sets + input_cache_hits;
    return lookups == 0 ? 0.0
                        : static_cast<double>(input_cache_hits) /
                              static_cast<double>(lookups);
  }
};

/// One grid point: the injection rules and the salt of its noise stream.
struct SweepPointSpec {
  std::vector<noise::InjectionRule> rules;
  std::uint64_t salt = 0;
};

class SweepEngine {
 public:
  SweepEngine(capsnet::CapsModel& model, const Tensor& test_x,
              const std::vector<std::int64_t>& test_y, SweepEngineConfig cfg);

  SweepEngine(const SweepEngine&) = delete;
  SweepEngine& operator=(const SweepEngine&) = delete;

  // The three evaluators. Each reads the eval set of `spec`: the clean test
  // set for the identity spec (AttackSpec::none()), otherwise the inputs
  // perturbed by `spec` — the severity axis of a Step-8 grid. The first use
  // of a spec builds its set on the calling thread (for the identity spec,
  // the recording forward that seeds the prefix cache); later uses are
  // cache hits.

  /// Noise-free accuracy in [0, 1] of the eval set of `spec`.
  [[nodiscard]] double accuracy(const attack::AttackSpec& spec);

  /// Accuracies of noisy `points` on the eval set of `spec`, in point
  /// order. Points replay prefix-cached suffixes on up to `threads`
  /// workers; a single worker runs on the calling thread. Bit-identical
  /// across thread counts and to evaluating each point on its own.
  [[nodiscard]] std::vector<double> evaluate(const attack::AttackSpec& spec,
                                             const std::vector<SweepPointSpec>& points);

  /// Accuracy of one execution backend on the eval set of `spec`.
  /// Hook-expressible backends (ExecBackend::rules() non-null) replay from
  /// the prefix cache exactly like points; opaque backends (e.g.
  /// EmulatedBackend, whose planned layers re-execute from the input on)
  /// run full batched forwards through ExecBackend::run. Step 7's
  /// noise-model cross-validation and Step 8's emulated grids drive this.
  [[nodiscard]] double evaluate(const attack::AttackSpec& spec, const backend::ExecBackend& b,
                                std::uint64_t salt);

  /// Counts so far; the registry totals already include them (worker
  /// partials are added when `evaluate(spec, points)` joins its workers).
  [[nodiscard]] SweepEngineStats stats() const;
  [[nodiscard]] const SweepEngineConfig& config() const { return cfg_; }
  [[nodiscard]] capsnet::CapsModel& model() { return model_; }
  [[nodiscard]] const Tensor& test_x() const { return test_x_; }

 private:
  /// One evaluation input set: its batches, their clean stage-boundary
  /// checkpoints, and its noise-free accuracy. The clean set and every
  /// perturbed set share this layout, so every replay path is common code.
  struct EvalSet {
    std::vector<Tensor> batch_x;
    std::vector<capsnet::StageState> checkpoints;
    double accuracy = 0.0;
    std::int64_t bytes = 0;  ///< Footprint of batches + checkpoints.
  };

  void ensure_prepared();
  /// Runs the recording clean pass of `set` (checkpoints + accuracy).
  void record_set(EvalSet& set);
  /// Returns the (building if needed) eval set for `spec`. Identity specs
  /// alias the clean base set. Must run on the coordinating thread:
  /// gradient attacks are not thread-safe (train-mode forwards).
  [[nodiscard]] const EvalSet& ensure_attacked(const attack::AttackSpec& spec);
  /// First stage whose sites any rule can match (num_stages() for none —
  /// the point then cannot perturb anything and replays nothing).
  [[nodiscard]] int first_affected_stage(const std::vector<noise::InjectionRule>& rules) const;
  /// One rule-expressible backend execution over all batches of `set`,
  /// prefix-replayed (b.rules() must be non-null; the hook comes from
  /// b.make_hook(salt), so the backend's own stream seeding is honored).
  /// Stage counts go to the caller's partial `stats`.
  [[nodiscard]] double eval_point(const backend::ExecBackend& b, std::uint64_t salt,
                                  const EvalSet& set, SweepEngineStats& stats) const;
  /// Adds the stage counts of a partial to the engine's counters.
  void count_stages(const SweepEngineStats& partial);

  capsnet::CapsModel& model_;
  const Tensor& test_x_;
  const std::vector<std::int64_t>& test_y_;
  SweepEngineConfig cfg_;

  bool prepared_ = false;
  std::vector<std::vector<std::int64_t>> batch_y_;  ///< Labels per batch (all sets).
  EvalSet base_;                                    ///< Clean test batches.
  /// Input-batch-keyed cache: AttackSpec::key() -> perturbed eval set, in
  /// least-recently-used order (front = coldest). unique_ptr keeps the
  /// reference ensure_attacked returns stable across reordering and later
  /// insertions; eviction only happens inside ensure_attacked, before the
  /// reference for the current evaluation is handed out.
  std::vector<std::pair<std::string, std::unique_ptr<EvalSet>>> attacked_;
  std::vector<std::pair<std::string, capsnet::OpKind>> site_stage_keys_;
  std::vector<int> site_stage_vals_;                ///< Parallel to keys: first stage.

  /// Slots of `counts_`, in the order of the name table in sweep_engine.cpp.
  enum Count : std::size_t {
    kEvaluations, kCacheHits, kStagesSkipped, kStagesRun, kStagesTotal,
    kInputSets, kInputCacheHits, kInputEvictions, kCounts
  };
  static const obs::CounterTable<SweepEngineStats, kCounts> kCountTable;
  std::array<obs::Counter, kCounts> counts_;  ///< Children of sweep_*_total.
  std::int64_t input_cache_bytes_ = 0;
  int threads_ = 1;
};

}  // namespace redcane::core
