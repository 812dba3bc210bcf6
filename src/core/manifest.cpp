#include "core/manifest.hpp"

#include <cstdio>

#include "core/export.hpp"
#include "util/bytes.hpp"
#include "util/parse.hpp"

namespace redcane::core {
namespace {

constexpr const char* kVersionLine = "redcane-manifest v1";

/// Geometry fields must be sane before a model is built from them: a
/// negative or absurd count would otherwise construct a broken registry
/// (or a multi-terabyte tensor) from one bad manifest line.
constexpr std::int64_t kMaxExtent = 1 << 16;
/// A manifest is a few dozen short lines; anything near this is not one.
constexpr std::size_t kMaxManifestBytes = 1 << 20;

bool valid_manifest(const DeploymentManifest& m) {
  if (m.model.empty()) return false;
  // One selection per operation site: a duplicate (layer, kind) entry
  // means the manifest is inconsistent about what runs there.
  for (std::size_t i = 0; i < m.sites.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (m.sites[j].site == m.sites[i].site) return false;
    }
  }
  return true;
}

/// Whitespace-separated tokens of one line, as views into it.
std::vector<std::string_view> tokens_of(std::string_view line) {
  constexpr std::string_view kSpace = " \t\r\v\f";
  std::vector<std::string_view> out;
  for (std::size_t at = 0; (at = line.find_first_not_of(kSpace, at)) != std::string_view::npos;) {
    out.push_back(line.substr(at, line.find_first_of(kSpace, at) - at));
    at += out.back().size();
  }
  return out;
}

std::string fmt_full(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

const char* op_kind_token(capsnet::OpKind kind) {
  switch (kind) {
    case capsnet::OpKind::kMacOutput: return "mac";
    case capsnet::OpKind::kActivation: return "activation";
    case capsnet::OpKind::kSoftmax: return "softmax";
    case capsnet::OpKind::kLogitsUpdate: return "logits";
  }
  return "?";
}

bool op_kind_from_token(const std::string& token, capsnet::OpKind& out) {
  if (token == "mac") out = capsnet::OpKind::kMacOutput;
  else if (token == "activation") out = capsnet::OpKind::kActivation;
  else if (token == "softmax") out = capsnet::OpKind::kSoftmax;
  else if (token == "logits") out = capsnet::OpKind::kLogitsUpdate;
  else return false;
  return true;
}

DeploymentManifest make_deployment_manifest(const MethodologyResult& r,
                                            const std::vector<ProfiledComponent>& profiled,
                                            const capsnet::CapsModel& model,
                                            const std::string& profile,
                                            const std::string& checkpoint_path,
                                            std::uint64_t noise_seed) {
  DeploymentManifest m;
  m.model = r.model_name;
  m.profile = profile;
  const Shape in = model.input_shape();
  m.input_hw = in.dim(0);
  m.input_channels = in.dim(2);
  m.num_classes = model.num_classes();
  m.checkpoint = checkpoint_path;
  m.noise_seed = noise_seed;
  m.baseline_accuracy = r.baseline_accuracy;
  for (const SiteSelection& s : r.selections) {
    ManifestSite site;
    site.site = s.site;
    site.tolerable_nm = s.tolerable_nm;
    if (s.component != nullptr) {
      site.component = s.component->info().name;
      for (const ProfiledComponent& pc : profiled) {
        if (pc.mul == s.component) {
          site.nm = pc.nm;
          site.na = pc.na;
          break;
        }
      }
    }
    m.sites.push_back(site);
  }
  return m;
}

std::string manifest_to_text(const DeploymentManifest& m) {
  std::string out = std::string(kVersionLine) + "\n";
  out += "model " + m.model + "\n";
  out += "profile " + m.profile + "\n";
  out += "input_hw " + std::to_string(m.input_hw) + "\n";
  out += "input_channels " + std::to_string(m.input_channels) + "\n";
  out += "num_classes " + std::to_string(m.num_classes) + "\n";
  if (!m.checkpoint.empty()) out += "checkpoint " + m.checkpoint + "\n";
  out += "noise_seed " + std::to_string(m.noise_seed) + "\n";
  out += "baseline_accuracy " + fmt_full(m.baseline_accuracy) + "\n";
  for (const ManifestSite& s : m.sites) {
    out += "site " + s.site.layer + " " + op_kind_token(s.site.kind) + " " +
           (s.component.empty() ? "-" : s.component) + " " + fmt_full(s.nm) + " " +
           fmt_full(s.na) + " " + fmt_full(s.tolerable_nm) + "\n";
  }
  return out;
}

bool manifest_from_text(const std::string& text, DeploymentManifest& out) {
  out = DeploymentManifest{};
  const std::string_view all = text;
  std::size_t end = all.find('\n');
  if (all.substr(0, end) != kVersionLine) return false;
  while (end != std::string_view::npos) {
    const std::size_t begin = end + 1;
    end = all.find('\n', begin);
    const std::string_view line = all.substr(begin, end - begin);
    if (line.empty() || line[0] == '#') continue;
    const std::vector<std::string_view> f = tokens_of(line);
    const std::string_view key = f.empty() ? std::string_view() : f[0];
    const std::string_view v = f.size() == 2 ? f[1] : std::string_view();
    bool ok = f.size() == 2;
    if (key == "model") out.model = v;
    else if (key == "profile") out.profile = v;
    else if (key == "input_hw") ok = util::parse_int(v, &out.input_hw, 0, kMaxExtent);
    else if (key == "input_channels") ok = util::parse_int(v, &out.input_channels, 0, kMaxExtent);
    else if (key == "num_classes") ok = util::parse_int(v, &out.num_classes, 0, kMaxExtent);
    else if (key == "noise_seed") ok = util::parse_int(v, &out.noise_seed);
    else if (key == "baseline_accuracy") ok = util::parse_real(v, &out.baseline_accuracy);
    else if (key == "checkpoint" && f.size() >= 2) {
      // Rest of the line: checkpoint paths may contain spaces.
      out.checkpoint = line.substr(static_cast<std::size_t>(f[1].data() - line.data()));
      ok = true;
    } else if (key == "site" && f.size() == 7) {
      // NaN/Inf noise would propagate straight into every served batch of
      // the designed variant; the number rule refuses it.
      ManifestSite s;
      s.site.layer = f[1];
      if (f[3] != "-") s.component = f[3];
      ok = op_kind_from_token(std::string(f[2]), s.site.kind) &&
           util::parse_real(f[4], &s.nm) && util::parse_real(f[5], &s.na) &&
           util::parse_real(f[6], &s.tolerable_nm);
      out.sites.push_back(std::move(s));
    } else {
      ok = false;  // Unknown key: refuse rather than silently drop config.
    }
    if (!ok) return false;
  }
  return valid_manifest(out);
}

bool save_manifest(const DeploymentManifest& m, const std::string& path) {
  return write_text_file(path, manifest_to_text(m));
}

bool load_manifest(const std::string& path, DeploymentManifest& out) {
  std::vector<std::uint8_t> bytes;
  return util::read_file(path, kMaxManifestBytes, &bytes) &&
         manifest_from_text(std::string(bytes.begin(), bytes.end()), out);
}

}  // namespace redcane::core
