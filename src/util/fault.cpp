#include "util/fault.hpp"

#include <cstdio>
#include <limits>
#include <utility>
#include <vector>

#include "util/bytes.hpp"
#include "util/hash.hpp"
#include "util/parse.hpp"

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
  std::vector<std::pair<std::string_view, std::string_view>> items;
  if (!util::split_key_values(spec, &items)) return false;
  for (const auto& [key, val] : items) {
    // Range-checked stores under util/parse's number rule: a value outside
    // its field is rejected, never cast.
    const auto prob = [val](double& field) {
      return util::parse_real(val, &field) && field >= 0.0 && field <= 1.0;
    };
    const auto integer = [val](std::int64_t& field) { return util::parse_int(val, &field, 0); };
    const auto flag = [val](bool& field) {
      int v = 0;
      const bool ok = util::parse_int(val, &v, 0, 1);
      field = v == 1;
      return ok;
    };
    bool ok = false;
    if (key == "kill_name") {  // The one string-valued key.
      out.kill_worker_name = val;
      ok = !val.empty();
    } else if (key == "seed") ok = util::parse_int(val, &out.seed);
    else if (key == "stall") ok = prob(out.worker_stall_prob);
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
  std::vector<std::uint8_t> bytes;
  if (!util::read_file(src, std::numeric_limits<std::size_t>::max(), &bytes) ||
      bytes.empty())
    return false;
  // Strictly inside the file: at least one byte is always missing, so a
  // length-validating parser (capsnet::load_params) is guaranteed to
  // reject the copy.
  const std::size_t cut = static_cast<std::size_t>(util::splitmix64(seed) % bytes.size());
  return util::write_file(dst, bytes.data(), cut);
}

}  // namespace redcane::fault
