#include "core/sweep_engine.hpp"

#include <algorithm>
#include <atomic>

#include "capsnet/trainer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/workspace.hpp"
#include "util/pool.hpp"

namespace redcane::core {
namespace {

/// Records which stage first emits each (layer, kind) site.
class StageRecorder final : public capsnet::PerturbationHook {
 public:
  explicit StageRecorder(int stage) : stage_(stage) {}
  void set_stage(int stage) { stage_ = stage; }

  void process(const std::string& layer, capsnet::OpKind kind, Tensor&) override {
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (keys[i].first == layer && keys[i].second == kind) return;  // First stage wins.
    }
    keys.emplace_back(layer, kind);
    stages.push_back(stage_);
  }

  std::vector<std::pair<std::string, capsnet::OpKind>> keys;
  std::vector<int> stages;

 private:
  int stage_;
};

/// Grid points in flight: the configured cap, else one per pool thread.
int point_slots(int cap) { return cap > 0 ? cap : pool::threads(); }

}  // namespace

const obs::CounterTable<SweepEngineStats, SweepEngine::kCounts> SweepEngine::kCountTable{{
    {"sweep_evaluations_total", &SweepEngineStats::evaluations},
    {"sweep_stage_cache_hits_total", &SweepEngineStats::cache_hits},
    {"sweep_stages_skipped_total", &SweepEngineStats::stages_skipped},
    {"sweep_stages_run_total", nullptr},
    {"sweep_stages_total", &SweepEngineStats::stages_total},
    {"sweep_input_sets_total", &SweepEngineStats::input_sets},
    {"sweep_input_cache_hits_total", &SweepEngineStats::input_cache_hits},
    {"sweep_input_evictions_total", &SweepEngineStats::input_evictions},
}};

SweepEngine::SweepEngine(capsnet::CapsModel& model, const Tensor& test_x,
                         const std::vector<std::int64_t>& test_y, SweepEngineConfig cfg)
    : model_(model), test_x_(test_x), test_y_(test_y), cfg_(cfg),
      counts_(obs::counters(kCountTable)) {
  obs::Registry::instance().add_check("sweep_stage_conservation", [](const obs::Snapshot& s) {
    return obs::read(kCountTable, s).stages_reconcile(s.counter(kCountTable[kStagesRun].name));
  });
}

SweepEngineStats SweepEngine::stats() const {
  SweepEngineStats out = obs::read(kCountTable, counts_);
  out.input_cache_bytes = input_cache_bytes_;
  out.threads = threads_;
  return out;
}

void SweepEngine::count_stages(const SweepEngineStats& partial) {
  counts_[kCacheHits].add(partial.cache_hits);
  counts_[kStagesSkipped].add(partial.stages_skipped);
  counts_[kStagesRun].add(partial.stages_total - partial.stages_skipped);
  counts_[kStagesTotal].add(partial.stages_total);
}

void SweepEngine::record_set(EvalSet& set) {
  // One clean pass per batch: yields the set's noise-free accuracy and —
  // only when prefix caching is on — the stage-boundary checkpoints noisy
  // points replay from (recording them otherwise would hold every
  // intermediate activation of the test set for nothing).
  const int stages = model_.num_stages();
  std::int64_t hits = 0;
  set.checkpoints.clear();
  set.checkpoints.resize(set.batch_x.size());
  for (std::size_t b = 0; b < set.batch_x.size(); ++b) {
    capsnet::StageState& st = set.checkpoints[b];
    st.at.resize(static_cast<std::size_t>(stages) + 1);
    st.at[0] = {set.batch_x[b]};
    const Tensor v = model_.forward_range(0, stages, st, nullptr,
                                          /*record=*/cfg_.prefix_cache);
    hits += capsnet::count_correct(v, batch_y_[b]);
  }
  set.accuracy = static_cast<double>(hits) / static_cast<double>(test_x_.shape().dim(0));

  set.bytes = 0;
  for (const Tensor& x : set.batch_x) {
    set.bytes += x.numel() * static_cast<std::int64_t>(sizeof(float));
  }
  for (const capsnet::StageState& st : set.checkpoints) {
    for (const std::vector<Tensor>& boundary : st.at) {
      for (const Tensor& t : boundary) {
        set.bytes += t.numel() * static_cast<std::int64_t>(sizeof(float));
      }
    }
  }
}

void SweepEngine::ensure_prepared() {
  if (prepared_) return;
  prepared_ = true;
  threads_ = point_slots(cfg_.threads);

  const std::int64_t n = test_x_.shape().dim(0);
  for (std::int64_t at = 0; at < n; at += cfg_.eval_batch) {
    const std::int64_t end = std::min(n, at + cfg_.eval_batch);
    base_.batch_x.push_back(capsnet::slice_rows(test_x_, at, end));
    batch_y_.emplace_back(test_y_.begin() + at, test_y_.begin() + end);
  }

  // Map every hook site to the first stage that emits it, by probing one
  // stage at a time with a single test row. Discovered dynamically, so any
  // CapsModel (and any future stage split) is handled without tables.
  const int stages = model_.num_stages();
  {
    capsnet::StageState probe;
    probe.at.resize(static_cast<std::size_t>(stages) + 1);
    probe.at[0] = {capsnet::slice_rows(test_x_, 0, 1)};
    StageRecorder rec(0);
    for (int k = 0; k < stages; ++k) {
      rec.set_stage(k);
      (void)model_.forward_range(k, k + 1, probe, &rec, /*record=*/true);
    }
    site_stage_keys_ = std::move(rec.keys);
    site_stage_vals_ = std::move(rec.stages);
  }

  record_set(base_);
}

const SweepEngine::EvalSet& SweepEngine::ensure_attacked(const attack::AttackSpec& spec) {
  ensure_prepared();
  if (spec.is_identity()) return base_;  // Clean set; not an input-cache event.

  const std::string key = spec.key();
  for (std::size_t i = 0; i < attacked_.size(); ++i) {
    if (attacked_[i].first == key) {
      counts_[kInputCacheHits].add();
      // Refresh to most-recently-used (back). The unique_ptr payload does
      // not move, so the returned reference is stable.
      if (i + 1 != attacked_.size()) {
        auto entry = std::move(attacked_[i]);
        attacked_.erase(attacked_.begin() + static_cast<std::ptrdiff_t>(i));
        attacked_.push_back(std::move(entry));
      }
      return *attacked_.back().second;
    }
  }

  // Miss: generate the perturbed batches serially on this (the
  // coordinating) thread — gradient attacks run train-mode forwards that
  // mutate layer caches — then record their clean checkpoints so every
  // noisy point over this spec replays suffixes like clean points do.
  OBS_SPAN("sweep/attack_build");
  counts_[kInputSets].add();
  auto set = std::make_unique<EvalSet>();
  set->batch_x.reserve(base_.batch_x.size());
  for (std::size_t b = 0; b < base_.batch_x.size(); ++b) {
    set->batch_x.push_back(attack::apply_attack(model_, base_.batch_x[b], batch_y_[b], spec));
  }
  record_set(*set);
  input_cache_bytes_ += set->bytes;
  attacked_.emplace_back(key, std::move(set));

  // LRU eviction under the byte budget. The just-built set (back) is
  // exempt: it is about to be used, and evicting it would livelock a
  // budget smaller than one set.
  if (cfg_.input_cache_budget > 0) {
    while (attacked_.size() > 1 && input_cache_bytes_ > cfg_.input_cache_budget) {
      input_cache_bytes_ -= attacked_.front().second->bytes;
      attacked_.erase(attacked_.begin());
      counts_[kInputEvictions].add();
    }
  }
  return *attacked_.back().second;
}

double SweepEngine::accuracy(const attack::AttackSpec& spec) {
  return ensure_attacked(spec).accuracy;
}

int SweepEngine::first_affected_stage(
    const std::vector<noise::InjectionRule>& rules) const {
  int first = model_.num_stages();
  for (std::size_t i = 0; i < site_stage_keys_.size(); ++i) {
    for (const noise::InjectionRule& rule : rules) {
      if (rule.matches(site_stage_keys_[i].first, site_stage_keys_[i].second)) {
        first = std::min(first, site_stage_vals_[i]);
        break;
      }
    }
  }
  return first;
}

double SweepEngine::eval_point(const backend::ExecBackend& b, std::uint64_t salt,
                               const EvalSet& set, SweepEngineStats& stats) const {
  // One hook per point, from the backend's own stream seeding (for a
  // NoiseBackend: base seed ^ salt * kSaltMix, exactly the serial
  // analyzer's and the serving "designed" variant's discipline). Sites
  // before the replay stage never match any rule, so they draw nothing
  // from the stream; skipping them leaves the draws untouched.
  const std::vector<noise::InjectionRule>& rules = *b.rules();
  const std::unique_ptr<capsnet::PerturbationHook> hook = b.make_hook(salt);
  const int stages = model_.num_stages();
  const int from = cfg_.prefix_cache ? first_affected_stage(rules) : 0;

  std::int64_t hits = 0;
  for (std::size_t b = 0; b < set.batch_x.size(); ++b) {
    stats.stages_total += stages;
    stats.stages_skipped += from;
    if (from > 0) ++stats.cache_hits;

    Tensor v;
    if (from >= stages) {
      // No site matches: the noisy forward is the clean forward.
      v = set.checkpoints[b].at[static_cast<std::size_t>(stages)][0];
    } else {
      // One deliberate copy of the entry boundary: it isolates the shared
      // checkpoint from any hook/model that might mutate stage inputs, and
      // measures as noise next to the replayed suffix compute.
      capsnet::StageState st;
      st.at.resize(static_cast<std::size_t>(stages) + 1);
      st.at[static_cast<std::size_t>(from)] =
          set.checkpoints[b].at[static_cast<std::size_t>(from)];
      v = model_.forward_range(from, stages, st, hook.get(), /*record=*/false);
    }
    hits += capsnet::count_correct(v, batch_y_[b]);
  }
  return static_cast<double>(hits) / static_cast<double>(test_x_.shape().dim(0));
}

double SweepEngine::evaluate(const attack::AttackSpec& spec, const backend::ExecBackend& b,
                             std::uint64_t salt) {
  const EvalSet& set = ensure_attacked(spec);
  counts_[kEvaluations].add();
  SweepEngineStats partial;
  if (b.rules() != nullptr) {
    const double acc = eval_point(b, salt, set, partial);
    count_stages(partial);
    return acc;
  }

  // Opaque backend: no site rules to bound the perturbation, so no prefix
  // is provably clean — run full batched forwards.
  std::int64_t hits = 0;
  for (std::size_t batch = 0; batch < set.batch_x.size(); ++batch) {
    partial.stages_total += model_.num_stages();
    const Tensor v = b.run(model_, set.batch_x[batch], salt);
    hits += capsnet::count_correct(v, batch_y_[batch]);
  }
  count_stages(partial);
  return static_cast<double>(hits) / static_cast<double>(test_x_.shape().dim(0));
}

std::vector<double> SweepEngine::evaluate(const attack::AttackSpec& spec,
                                          const std::vector<SweepPointSpec>& points) {
  // Attack generation (or input-cache lookup) happens here, before any
  // point runs: points only ever replay const checkpoints.
  const EvalSet& set = ensure_attacked(spec);
  OBS_SPAN("sweep/evaluate");
  threads_ = point_slots(cfg_.threads);
  counts_[kEvaluations].add(static_cast<std::int64_t>(points.size()));
  const int slots = std::max(1, std::min(threads_, static_cast<int>(points.size())));

  // Each point owns its result and its injector; per-slot stats merge after
  // the region. Result assembly is by index, so curves are independent of
  // scheduling order.
  std::vector<double> acc(points.size(), 0.0);
  std::atomic<std::size_t> next{0};
  std::vector<SweepEngineStats> slot_stats(static_cast<std::size_t>(slots));
  const auto drain = [&](SweepEngineStats& mine) {
    for (std::size_t i = next.fetch_add(1); i < points.size(); i = next.fetch_add(1)) {
      acc[i] = eval_point(backend::NoiseBackend(points[i].rules, cfg_.seed), points[i].salt,
                          set, mine);
    }
  };
  if (slots == 1) {
    drain(slot_stats[0]);  // The point's kernels keep the pool.
  } else {
    // One pool chunk per slot, each draining the shared point queue; a
    // point lasts milliseconds, so every slot gets its own chunk. Kernels
    // inside a chunk run inline: point-level parallelism covers the
    // machine. A slot the pool cannot staff finds the queue empty.
    pool::parallel_for(slots, 1e9, [&](std::int64_t first, std::int64_t last) {
      // Warm this thread's scratch arena once; every forward of every grid
      // point then runs on recycled buffers.
      ws::Workspace::tls().reserve(std::size_t{1} << 20);
      for (std::int64_t s = first; s < last; ++s) drain(slot_stats[static_cast<std::size_t>(s)]);
    });
  }
  for (const SweepEngineStats& mine : slot_stats) count_stages(mine);
  return acc;
}

}  // namespace redcane::core
