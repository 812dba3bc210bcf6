#include "dist/job.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "capsnet/capsnet_model.hpp"
#include "capsnet/trainer.hpp"
#include "core/groups.hpp"
#include "data/synthetic.hpp"
#include "util/crc32.hpp"

namespace redcane::dist {
namespace {

struct Profile {
  capsnet::CapsNetConfig model_cfg;
  data::SyntheticSpec data_spec;
  core::ResilienceConfig rc;
  std::uint64_t model_seed = 2020;
  std::vector<capsnet::OpKind> group_kinds;
  bool all_mac_layers = false;  ///< Step-4 curves for every MAC layer vs the first.
  std::vector<double> severities;
  std::vector<std::string> components;
  std::size_t chunk = 2;  ///< Max noise points per shard.
};

Profile quick_profile() {
  Profile p;
  // Mirrors the sweep-engine test model: every injection site present at a
  // scale where the whole job runs in seconds.
  p.model_cfg.input_hw = 14;
  p.model_cfg.conv1_kernel = 5;
  p.model_cfg.conv1_channels = 8;
  p.model_cfg.primary_kernel = 5;
  p.model_cfg.primary_stride = 2;
  p.model_cfg.primary_types = 2;
  p.model_cfg.primary_dim = 4;
  p.model_cfg.class_dim = 4;
  p.data_spec.hw = 14;
  p.data_spec.train_count = 4;  // Unused: jobs evaluate, never train.
  p.data_spec.test_count = 32;
  p.data_spec.seed = 99;
  p.rc.sweep.nms = {0.5, 0.1, 0.02, 0.0};
  p.rc.eval_batch = 16;
  p.group_kinds = {capsnet::OpKind::kMacOutput, capsnet::OpKind::kSoftmax};
  p.severities = {0.05, 0.1};
  p.components = {"axm_exact", "axm_drum4_dm1"};
  return p;
}

Profile full_profile() {
  Profile p;
  p.model_cfg = capsnet::CapsNetConfig::tiny();
  p.data_spec.hw = p.model_cfg.input_hw;
  p.data_spec.train_count = 4;
  p.data_spec.test_count = 192;
  p.data_spec.seed = 99;
  p.rc.sweep = core::NmSweep::paper();
  p.rc.eval_batch = 64;
  p.group_kinds = {capsnet::OpKind::kMacOutput, capsnet::OpKind::kActivation,
                   capsnet::OpKind::kSoftmax, capsnet::OpKind::kLogitsUpdate};
  p.all_mac_layers = true;
  p.severities = {0.05, 0.1, 0.2};
  p.components = {"axm_exact", "axm_drum4_dm1", "axm_res2_14vp"};
  return p;
}

void append_kv(std::string& s, const char* key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s=%.17g;", key, v);
  s += buf;
}

void append_kv(std::string& s, const char* key, std::int64_t v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s=%" PRId64 ";", key, v);
  s += buf;
}

/// The job hash: CRC-32 of the complete recipe. Anything that could make
/// two participants disagree on a value — model shape or seed, dataset
/// generator inputs, grid geometry, chunking — must be in here.
std::uint64_t hash_recipe(const Profile& p, const std::string& profile,
                          const std::vector<std::string>& mac_layers) {
  std::string s = "redcane-dist-job-v1;profile=" + profile + ";model=capsnet;";
  append_kv(s, "hw", p.model_cfg.input_hw);
  append_kv(s, "c1k", p.model_cfg.conv1_kernel);
  append_kv(s, "c1c", p.model_cfg.conv1_channels);
  append_kv(s, "pk", p.model_cfg.primary_kernel);
  append_kv(s, "ps", p.model_cfg.primary_stride);
  append_kv(s, "pt", p.model_cfg.primary_types);
  append_kv(s, "pd", p.model_cfg.primary_dim);
  append_kv(s, "cd", p.model_cfg.class_dim);
  append_kv(s, "mseed", static_cast<std::int64_t>(p.model_seed));
  append_kv(s, "dhw", p.data_spec.hw);
  append_kv(s, "dtest", p.data_spec.test_count);
  append_kv(s, "dseed", static_cast<std::int64_t>(p.data_spec.seed));
  append_kv(s, "seed", static_cast<std::int64_t>(p.rc.seed));
  append_kv(s, "batch", p.rc.eval_batch);
  append_kv(s, "na", p.rc.sweep.na);
  for (double nm : p.rc.sweep.nms) append_kv(s, "nm", nm);
  for (capsnet::OpKind k : p.group_kinds)
    append_kv(s, "kind", static_cast<std::int64_t>(k));
  for (const std::string& layer : mac_layers) s += "layer=" + layer + ";";
  for (double sev : p.severities) append_kv(s, "sev", sev);
  for (const std::string& c : p.components) s += "comp=" + c + ";";
  append_kv(s, "bits", std::int64_t{8});
  append_kv(s, "chunk", static_cast<std::int64_t>(p.chunk));
  return util::crc32(s.data(), s.size());
}

}  // namespace

core::SweepEngineConfig job_engine_config(const StandardJob& job, int threads) {
  core::SweepEngineConfig ec = core::engine_config(job.rc);
  ec.threads = threads;
  return ec;
}

StandardJob make_standard_job(const std::string& profile) {
  Profile p;
  if (profile == "quick") {
    p = quick_profile();
  } else if (profile == "full") {
    p = full_profile();
  } else {
    std::fprintf(stderr, "dist: unknown job profile '%s'\n", profile.c_str());
    std::abort();
  }

  StandardJob job;
  job.profile = profile;
  job.rc = p.rc;

  // Deterministic weights: same Rng seed => bitwise-identical parameters
  // in every process. Jobs evaluate resilience geometry, so an untrained
  // (but fixed) model is sufficient — and keeps workers start-up cheap.
  Rng rng(p.model_seed);
  job.model = std::make_unique<capsnet::CapsNetModel>(p.model_cfg, rng);
  job.dataset = data::make_synthetic(p.data_spec);

  // Step-4 layers, discovered the same way the analyzer discovers them.
  const Tensor probe = capsnet::slice_rows(job.dataset.test_x, 0, 1);
  std::vector<std::string> mac_layers;
  for (const core::Site& site : core::extract_sites(*job.model, probe)) {
    if (site.kind != capsnet::OpKind::kMacOutput) continue;
    mac_layers.push_back(site.layer);
    if (!p.all_mac_layers) break;
  }

  job.job_hash = hash_recipe(p, profile, mac_layers);

  attack::Scenario scenario;
  scenario.kind = attack::AttackKind::kFgsm;
  scenario.severities = p.severities;
  const auto add = [&](core::GridPlan plan) {
    core::chunk_plan(plan, p.chunk, &job.shards);
    job.plans.push_back(std::move(plan));
  };
  for (capsnet::OpKind kind : p.group_kinds)
    add(core::plan_curve(job.rc.sweep, kind, std::nullopt));
  for (const std::string& layer : mac_layers)
    add(core::plan_curve(job.rc.sweep, capsnet::OpKind::kMacOutput, layer));
  add(core::plan_attack_exact(scenario));
  add(core::plan_attack_noise(job.rc.sweep, scenario, capsnet::OpKind::kMacOutput));
  add(core::plan_attack_emulated(scenario, p.components, /*bits=*/8));
  return job;
}

JobGrids assemble_job(const StandardJob& job,
                      const std::vector<core::ShardOutcome>& outcomes) {
  // Outcomes arrive parallel to job.shards, whose ids are their indices;
  // order them by id anyway so any completion order assembles the same.
  std::vector<core::ShardOutcome> by_id(job.shards.size());
  for (const core::ShardOutcome& o : outcomes) {
    if (o.id < by_id.size()) by_id[o.id] = o;
  }
  JobGrids out;
  std::span<const core::ShardOutcome> rest(by_id);
  for (const core::GridPlan& plan : job.plans) {
    rest = rest.subspan(core::assemble(plan, rest, &out));
  }
  return out;
}

JobGrids run_job_in_process(StandardJob& job) {
  core::SweepEngine engine(*job.model, job.dataset.test_x, job.dataset.test_y,
                           core::engine_config(job.rc));
  JobGrids out;
  for (const core::GridPlan& plan : job.plans) core::run_plan(engine, plan, &out);
  return out;
}

bool grids_identical(const JobGrids& a, const JobGrids& b) {
  if (a.curves.size() != b.curves.size() || a.grids.size() != b.grids.size())
    return false;
  for (std::size_t i = 0; i < a.curves.size(); ++i) {
    const core::ResilienceCurve& x = a.curves[i];
    const core::ResilienceCurve& y = b.curves[i];
    if (x.label != y.label || x.nms != y.nms) return false;
    if (x.drop_pct.size() != y.drop_pct.size()) return false;
    for (std::size_t j = 0; j < x.drop_pct.size(); ++j) {
      if (x.drop_pct[j] != y.drop_pct[j]) return false;  // Bitwise, no tolerance.
    }
  }
  for (std::size_t i = 0; i < a.grids.size(); ++i) {
    const core::RobustnessGrid& x = a.grids[i];
    const core::RobustnessGrid& y = b.grids[i];
    if (x.scenario != y.scenario || x.backend != y.backend ||
        x.severities != y.severities || x.nms != y.nms ||
        x.components != y.components)
      return false;
    if (x.accuracy.size() != y.accuracy.size()) return false;
    for (std::size_t j = 0; j < x.accuracy.size(); ++j) {
      if (x.accuracy[j] != y.accuracy[j]) return false;
    }
  }
  return true;
}

}  // namespace redcane::dist
