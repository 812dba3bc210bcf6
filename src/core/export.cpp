#include "core/export.hpp"

#include <cstdio>

#include "util/bytes.hpp"

namespace redcane::core {
namespace {

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// Minimal JSON string escaping (our identifiers are ASCII; quotes and
/// backslashes are escaped for safety).
std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

std::string curve_to_json(const ResilienceCurve& c) {
  std::string out = "{";
  out += "\"label\":" + json_str(c.label);
  out += ",\"kind\":" + json_str(capsnet::op_kind_name(c.kind));
  out += ",\"layer\":" + (c.layer ? json_str(*c.layer) : "null");
  out += ",\"nm\":[";
  for (std::size_t i = 0; i < c.nms.size(); ++i) {
    if (i != 0) out += ',';
    out += fmt_double(c.nms[i]);
  }
  out += "],\"drop_pct\":[";
  for (std::size_t i = 0; i < c.drop_pct.size(); ++i) {
    if (i != 0) out += ',';
    out += fmt_double(c.drop_pct[i]);
  }
  out += "]}";
  return out;
}

std::string robustness_grid_to_json(const RobustnessGrid& g) {
  std::string out = "{";
  out += "\"scenario\":" + json_str(g.scenario);
  out += ",\"backend\":" + json_str(g.backend);
  out += ",\"severities\":[";
  for (std::size_t i = 0; i < g.severities.size(); ++i) {
    if (i != 0) out += ',';
    out += fmt_double(g.severities[i]);
  }
  out += "],\"nm\":[";
  for (std::size_t i = 0; i < g.nms.size(); ++i) {
    if (i != 0) out += ',';
    out += fmt_double(g.nms[i]);
  }
  out += "],\"components\":[";
  for (std::size_t i = 0; i < g.components.size(); ++i) {
    if (i != 0) out += ',';
    out += json_str(g.components[i]);
  }
  // Row-major [severity][column], matching RobustnessGrid::at.
  out += "],\"accuracy\":[";
  for (std::size_t i = 0; i < g.accuracy.size(); ++i) {
    if (i != 0) out += ',';
    out += fmt_double(g.accuracy[i]);
  }
  out += "]}";
  return out;
}

}  // namespace

std::string curves_to_csv(const std::vector<ResilienceCurve>& curves) {
  std::string out = "label,kind,layer,nm,drop_pct\n";
  for (const ResilienceCurve& c : curves) {
    for (std::size_t i = 0; i < c.nms.size(); ++i) {
      out += c.label + "," + capsnet::op_kind_name(c.kind) + "," + c.layer.value_or("") +
             "," + fmt_double(c.nms[i]) + "," + fmt_double(c.drop_pct[i]) + "\n";
    }
  }
  return out;
}

std::string selections_to_csv(const std::vector<SiteSelection>& selections) {
  std::string out = "layer,kind,tolerable_nm,component,power_uw,power_saving\n";
  for (const SiteSelection& s : selections) {
    out += s.site.layer + "," + capsnet::op_kind_name(s.site.kind) + "," +
           fmt_double(s.tolerable_nm) + "," +
           (s.component ? s.component->info().name : "") + "," +
           (s.component ? fmt_double(s.component->info().power_uw) : "") + "," +
           fmt_double(s.power_saving()) + "\n";
  }
  return out;
}

std::string profiles_to_csv(const std::vector<ProfiledComponent>& profiled) {
  std::string out = "name,family,analog,power_uw,area_um2,nm,na,gaussian_like\n";
  for (const ProfiledComponent& p : profiled) {
    const approx::MultiplierInfo& info = p.mul->info();
    out += info.name + "," + info.family + "," + info.paper_analog + "," +
           fmt_double(info.power_uw) + "," + fmt_double(info.area_um2) + "," +
           fmt_double(p.nm) + "," + fmt_double(p.na) + "," +
           (p.gaussian_like ? "1" : "0") + "\n";
  }
  return out;
}

std::string result_to_json(const MethodologyResult& r) {
  std::string out = "{";
  out += "\"model\":" + json_str(r.model_name);
  out += ",\"dataset\":" + json_str(r.dataset_name);
  out += ",\"baseline_accuracy\":" + fmt_double(r.baseline_accuracy);

  out += ",\"sites\":[";
  for (std::size_t i = 0; i < r.sites.size(); ++i) {
    if (i != 0) out += ',';
    out += "{\"layer\":" + json_str(r.sites[i].layer) +
           ",\"kind\":" + json_str(capsnet::op_kind_name(r.sites[i].kind)) + "}";
  }
  out += "]";

  out += ",\"group_curves\":[";
  for (std::size_t i = 0; i < r.group_curves.size(); ++i) {
    if (i != 0) out += ',';
    out += curve_to_json(r.group_curves[i]);
  }
  out += "]";

  out += ",\"layer_curves\":[";
  for (std::size_t i = 0; i < r.layer_curves.size(); ++i) {
    if (i != 0) out += ',';
    out += curve_to_json(r.layer_curves[i]);
  }
  out += "]";

  out += ",\"resilient_groups\":[";
  for (std::size_t i = 0; i < r.resilient_groups.size(); ++i) {
    if (i != 0) out += ',';
    out += json_str(capsnet::op_kind_name(r.resilient_groups[i]));
  }
  out += "]";

  out += ",\"selections\":[";
  for (std::size_t i = 0; i < r.selections.size(); ++i) {
    const SiteSelection& s = r.selections[i];
    if (i != 0) out += ',';
    out += "{\"layer\":" + json_str(s.site.layer) +
           ",\"kind\":" + json_str(capsnet::op_kind_name(s.site.kind)) +
           ",\"tolerable_nm\":" + fmt_double(s.tolerable_nm) +
           ",\"component\":" + json_str(s.component ? s.component->info().name : "") +
           ",\"power_saving\":" + fmt_double(s.power_saving()) + "}";
  }
  out += "]";

  if (r.has_cross_validation) {
    const CrossValidationResult& cv = r.cross_validation;
    out += ",\"cross_validation\":{";
    out += "\"baseline_accuracy\":" + fmt_double(cv.baseline_accuracy);
    out += ",\"predicted_joint\":" + fmt_double(cv.predicted_joint);
    out += ",\"emulated_joint\":" + fmt_double(cv.emulated_joint);
    out += ",\"joint_delta_pp\":" + fmt_double(cv.joint_delta_pp());
    out += ",\"max_abs_delta_pp\":" + fmt_double(cv.max_abs_delta_pp());
    out += ",\"entries\":[";
    for (std::size_t i = 0; i < cv.entries.size(); ++i) {
      const CrossValidationEntry& e = cv.entries[i];
      if (i != 0) out += ',';
      out += "{\"layer\":" + json_str(e.site.layer) +
             ",\"component\":" + json_str(e.component) +
             ",\"nm\":" + fmt_double(e.nm) + ",\"na\":" + fmt_double(e.na) +
             ",\"predicted_accuracy\":" + fmt_double(e.predicted_accuracy) +
             ",\"emulated_accuracy\":" + fmt_double(e.emulated_accuracy) +
             ",\"delta_pp\":" + fmt_double(e.delta_pp()) + "}";
    }
    out += "]}";
  }

  if (r.has_robustness) {
    const RobustnessResult& rb = r.robustness;
    out += ",\"robustness\":{";
    out += "\"baseline_accuracy\":" + fmt_double(rb.baseline_accuracy);
    out += ",\"input_sets\":" + std::to_string(rb.sweep_stats.input_sets);
    out += ",\"input_cache_hits\":" + std::to_string(rb.sweep_stats.input_cache_hits);
    out += ",\"input_hit_rate\":" + fmt_double(rb.sweep_stats.input_hit_rate());
    out += ",\"grids\":[";
    for (std::size_t i = 0; i < rb.grids.size(); ++i) {
      if (i != 0) out += ',';
      out += robustness_grid_to_json(rb.grids[i]);
    }
    out += "]}";
  }

  out += ",\"evaluations_run\":" + std::to_string(r.evaluations_run);
  out += ",\"evaluations_saved\":" + std::to_string(r.evaluations_saved_by_pruning);
  out += ",\"sweep_threads\":" + std::to_string(r.sweep_stats.threads);
  out += ",\"sweep_cache_hits\":" + std::to_string(r.sweep_stats.cache_hits);
  out += ",\"sweep_stages_skipped\":" + std::to_string(r.sweep_stats.stages_skipped);
  out += ",\"sweep_stages_total\":" + std::to_string(r.sweep_stats.stages_total);
  out += ",\"mean_mac_power_saving\":" + fmt_double(r.mean_mac_power_saving());
  out += "}";
  return out;
}

bool write_text_file(const std::string& path, const std::string& content) {
  return util::write_file(path, content.data(), content.size());
}

}  // namespace redcane::core
