#include "util/fault.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "util/hash.hpp"

namespace redcane::fault {
namespace {

std::atomic<FaultPlan*> g_plan{nullptr};

/// Per-site decision-stream constants, indexed by Site. Changing one
/// changes the fault stream every seed replays at that site. The worker
/// kill draws no stream.
constexpr std::array<std::uint64_t, kSiteCount> kSiteHash = {
    0x57414C4Cu,  // "WALL" worker stall
    0x4241434Bu,  // "BACK" backend failure
    0x434B5054u,  // "CKPT" checkpoint corruption
    0x48424554u,  // "HBET" heartbeat drop
    0x46524D45u,  // "FRME" frame corruption
    0x534F434Bu,  // "SOCK" socket stall
    0,            // worker kill
};

constexpr std::size_t slot(Site site) { return static_cast<std::size_t>(site); }

}  // namespace

FaultPlan::FaultPlan(FaultConfig cfg)
    : cfg_(std::move(cfg)),
      prob_{cfg_.worker_stall_prob, cfg_.backend_fail_prob, cfg_.checkpoint_corrupt_prob,
            cfg_.heartbeat_drop_prob, cfg_.frame_corrupt_prob, cfg_.sock_stall_prob, 0.0} {}

bool FaultPlan::decide(Site site) {
  const std::size_t i = slot(site);
  if (prob_[i] <= 0.0) return false;
  const std::uint64_t n = seq_[i].fetch_add(1, std::memory_order_relaxed);
  if (util::unit_hash(cfg_.seed, kSiteHash[i], n) >= prob_[i]) return false;
  hits_[i].fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool FaultPlan::stall_worker(std::int64_t& us) {
  if (!decide(Site::kWorkerStall)) return false;
  us = cfg_.worker_stall_us;
  return true;
}

bool FaultPlan::stall_socket(std::int64_t& us) {
  if (!decide(Site::kSocket)) return false;
  us = cfg_.sock_stall_us;
  return true;
}

bool FaultPlan::kill_worker(const std::string& name, std::int64_t shards_done) {
  if (cfg_.kill_worker_after < 0) return false;
  if (!cfg_.kill_worker_name.empty() && cfg_.kill_worker_name != name) return false;
  if (shards_done < cfg_.kill_worker_after) return false;
  hits_[slot(Site::kWorkerKill)].fetch_add(1, std::memory_order_relaxed);
  return true;
}

FaultCounters FaultPlan::counters() const {
  const auto hits = [this](Site s) { return hits_[slot(s)].load(std::memory_order_relaxed); };
  FaultCounters c;
  c.worker_stalls = hits(Site::kWorkerStall);
  c.backend_failures = hits(Site::kBackend);
  c.checkpoint_corruptions = hits(Site::kCheckpoint);
  c.worker_kills = hits(Site::kWorkerKill);
  c.heartbeats_dropped = hits(Site::kHeartbeat);
  c.frames_corrupted = hits(Site::kFrame);
  c.socket_stalls = hits(Site::kSocket);
  return c;
}

bool armed() { return g_plan.load(std::memory_order_acquire) != nullptr; }

FaultPlan* plan() { return g_plan.load(std::memory_order_acquire); }

ScopedFaultPlan::ScopedFaultPlan(FaultConfig cfg) : plan_(std::move(cfg)) {
  FaultPlan* expected = nullptr;
  installed_ =
      g_plan.compare_exchange_strong(expected, &plan_, std::memory_order_release);
  if (!installed_) {
    std::fprintf(stderr, "fault: a plan is already armed; nested scope stays inert\n");
  }
}

ScopedFaultPlan::~ScopedFaultPlan() {
  if (installed_) g_plan.store(nullptr, std::memory_order_release);
}

bool parse_spec(const std::string& spec, FaultConfig& out) {
  out = FaultConfig{};
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) return false;
    const std::string key = item.substr(0, eq);
    const std::string val = item.substr(eq + 1);
    if (key == "kill_name") {  // The one string-valued key.
      if (val.empty()) return false;
      out.kill_worker_name = val;
      continue;
    }
    char* end = nullptr;
    const double num = std::strtod(val.c_str(), &end);
    if (end == val.c_str() || *end != '\0' || !std::isfinite(num)) return false;

    // Range-checked stores: a value outside its field is rejected, never
    // cast (a float-to-integer cast out of range is undefined behavior).
    const bool whole = num >= 0.0 && num == std::floor(num);
    const auto prob = [&](double& field) {
      field = num;
      return num >= 0.0 && num <= 1.0;
    };
    const auto integer = [&](std::int64_t& field) {
      if (!whole || num >= 0x1p63) return false;
      field = static_cast<std::int64_t>(num);
      return true;
    };
    const auto flag = [&](bool& field) {
      field = num != 0.0;
      return num == 0.0 || num == 1.0;
    };
    bool ok = false;
    if (key == "seed") {
      ok = whole && num < 0x1p64;
      if (ok) out.seed = static_cast<std::uint64_t>(num);
    } else if (key == "stall") ok = prob(out.worker_stall_prob);
    else if (key == "stall_us") ok = integer(out.worker_stall_us);
    else if (key == "backend") ok = prob(out.backend_fail_prob);
    else if (key == "ckpt") ok = prob(out.checkpoint_corrupt_prob);
    else if (key == "full") ok = flag(out.force_queue_full);
    else if (key == "pressure") ok = flag(out.force_pressure);
    else if (key == "kill_after") ok = integer(out.kill_worker_after);
    else if (key == "hb_drop") ok = prob(out.heartbeat_drop_prob);
    else if (key == "hb_delay_us") ok = integer(out.heartbeat_delay_us);
    else if (key == "frame") ok = prob(out.frame_corrupt_prob);
    else if (key == "sock_stall") ok = prob(out.sock_stall_prob);
    else if (key == "sock_stall_us") ok = integer(out.sock_stall_us);
    else if (key == "coord_crash") ok = integer(out.coord_crash_after);
    if (!ok) return false;
  }
  return true;
}

bool write_truncated_copy(const std::string& src, const std::string& dst,
                          std::uint64_t seed) {
  std::FILE* in = std::fopen(src.c_str(), "rb");
  if (in == nullptr) return false;
  std::vector<char> bytes;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0) bytes.insert(bytes.end(), buf, buf + n);
  std::fclose(in);
  if (bytes.empty()) return false;
  // Strictly inside the file: at least one byte is always missing, so a
  // length-validating parser (capsnet::load_params) is guaranteed to
  // reject the copy.
  const std::size_t cut = static_cast<std::size_t>(util::splitmix64(seed) % bytes.size());
  std::FILE* outf = std::fopen(dst.c_str(), "wb");
  if (outf == nullptr) return false;
  const bool ok = cut == 0 || std::fwrite(bytes.data(), 1, cut, outf) == cut;
  std::fclose(outf);
  return ok;
}

}  // namespace redcane::fault
