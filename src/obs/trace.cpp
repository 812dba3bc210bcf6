#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>
#include <utility>

#include "util/bytes.hpp"

namespace redcane::obs {
namespace {

std::atomic<bool> g_armed{false};
std::atomic<std::uint64_t> g_next_corr{1};

const std::chrono::steady_clock::time_point g_epoch =
    std::chrono::steady_clock::now();

constexpr std::size_t kRingCapacity = 4096;  // Power of two.
constexpr std::size_t kRingMask = kRingCapacity - 1;

// One event slot. Every field is a relaxed atomic; `seq` is the seqlock
// generation tag: 0 while a write is in progress, generation+1 once the
// slot is published. A drain that observes any other value discards the
// slot instead of reading torn data.
struct Slot {
  std::atomic<std::uint64_t> seq{0};
  std::atomic<const char*> name{nullptr};
  std::atomic<std::uint64_t> ts_us{0};
  std::atomic<std::uint64_t> dur_us{0};
  std::atomic<std::uint64_t> corr{0};
  std::atomic<std::uint32_t> tid{0};
  std::atomic<std::uint32_t> pid{0};
};

// Single-writer ring: only the owning thread advances `head`; any thread
// may drain. Rings are heap-allocated, registered once, and never freed,
// so a drain can walk them after the owning thread exits.
struct Ring {
  Slot slots[kRingCapacity];
  std::atomic<std::uint64_t> head{0};     ///< Next generation to write.
  std::atomic<std::uint64_t> drained{0};  ///< Drain cursor.
  std::atomic<std::uint64_t> dropped{0};  ///< Overwritten-undrained count.
  std::uint32_t tid = 0;

  void emit(const char* name, std::uint64_t ts, std::uint64_t dur,
            std::uint64_t corr, std::uint32_t event_tid,
            std::uint32_t pid) noexcept {
    const std::uint64_t g = head.load(std::memory_order_relaxed);
    Slot& s = slots[g & kRingMask];
    s.seq.store(0, std::memory_order_relaxed);
    // Publish the in-progress marker before any field overwrite, so a
    // concurrent drain reading new field bytes must also see seq != old.
    std::atomic_thread_fence(std::memory_order_release);
    s.name.store(name, std::memory_order_relaxed);
    s.ts_us.store(ts, std::memory_order_relaxed);
    s.dur_us.store(dur, std::memory_order_relaxed);
    s.corr.store(corr, std::memory_order_relaxed);
    s.tid.store(event_tid, std::memory_order_relaxed);
    s.pid.store(pid, std::memory_order_relaxed);
    s.seq.store(g + 1, std::memory_order_release);
    head.store(g + 1, std::memory_order_release);
    if (g >= drained.load(std::memory_order_relaxed) + kRingCapacity) {
      dropped.fetch_add(1, std::memory_order_relaxed);
    }
  }
};

struct Global {
  std::mutex mu;
  std::vector<Ring*> rings;  // Leaked: valid past owning-thread exit.
  std::vector<std::pair<std::uint32_t, std::string>> process_names;
  std::set<std::string> interned;
  std::uint32_t next_tid = 1;
};

Global& global() {
  static Global* g = new Global();  // Intentionally leaked.
  return *g;
}

thread_local Ring* t_ring = nullptr;

Ring& ring() {
  if (t_ring == nullptr) {
    Ring* r = new Ring();  // Leaked via the global list.
    Global& g = global();
    std::lock_guard<std::mutex> lock(g.mu);
    r->tid = g.next_tid++;
    g.rings.push_back(r);
    t_ring = r;
  }
  return *t_ring;
}

void drain_ring(Ring& r, std::vector<TraceEvent>& out) {
  const std::uint64_t h = r.head.load(std::memory_order_acquire);
  std::uint64_t start = r.drained.load(std::memory_order_relaxed);
  if (h > kRingCapacity && start < h - kRingCapacity) {
    start = h - kRingCapacity;
  }
  for (std::uint64_t g = start; g < h; ++g) {
    Slot& s = r.slots[g & kRingMask];
    if (s.seq.load(std::memory_order_acquire) != g + 1) continue;
    TraceEvent e;
    e.name = s.name.load(std::memory_order_relaxed);
    e.ts_us = s.ts_us.load(std::memory_order_relaxed);
    e.dur_us = s.dur_us.load(std::memory_order_relaxed);
    e.corr = s.corr.load(std::memory_order_relaxed);
    e.tid = s.tid.load(std::memory_order_relaxed);
    e.pid = s.pid.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (s.seq.load(std::memory_order_relaxed) != g + 1) continue;  // Torn.
    out.push_back(e);
  }
  r.drained.store(h, std::memory_order_relaxed);
}

void json_escape_into(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    const unsigned char c = static_cast<unsigned char>(*s);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += static_cast<char>(c);
    } else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += static_cast<char>(c);
    }
  }
}

}  // namespace

bool trace_armed() noexcept {
  return g_armed.load(std::memory_order_relaxed);
}

void trace_arm(bool on) noexcept {
  g_armed.store(on, std::memory_order_relaxed);
}

std::uint64_t trace_now_us() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - g_epoch)
          .count());
}

std::uint64_t next_correlation_id() noexcept {
  return g_next_corr.fetch_add(1, std::memory_order_relaxed);
}

const char* trace_intern(const std::string& name) {
  Global& g = global();
  std::lock_guard<std::mutex> lock(g.mu);
  return g.interned.insert(name).first->c_str();
}

void trace_emit(const char* name, std::uint64_t ts_us, std::uint64_t dur_us,
                std::uint64_t corr) noexcept {
  Ring& r = ring();
  r.emit(name, ts_us, dur_us, corr, r.tid, /*pid=*/0);
}

void trace_emit_remote(std::uint32_t pid, std::uint32_t tid, const char* name,
                       std::uint64_t ts_us, std::uint64_t dur_us,
                       std::uint64_t corr) noexcept {
  ring().emit(name, ts_us, dur_us, corr, tid, pid);
}

void trace_set_process_name(std::uint32_t pid, const std::string& name) {
  Global& g = global();
  std::lock_guard<std::mutex> lock(g.mu);
  for (auto& [id, n] : g.process_names) {
    if (id == pid) {
      n = name;
      return;
    }
  }
  g.process_names.emplace_back(pid, name);
}

std::vector<TraceEvent> trace_drain() {
  std::vector<Ring*> rings;
  {
    Global& g = global();
    std::lock_guard<std::mutex> lock(g.mu);
    rings = g.rings;
  }
  std::vector<TraceEvent> out;
  for (Ring* r : rings) drain_ring(*r, out);
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
                     return a.dur_us > b.dur_us;  // Parents before children.
                   });
  return out;
}

std::uint64_t trace_dropped() {
  Global& g = global();
  std::lock_guard<std::mutex> lock(g.mu);
  std::uint64_t total = 0;
  for (const Ring* r : g.rings) {
    total += r->dropped.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t trace_buffered() {
  Global& g = global();
  std::lock_guard<std::mutex> lock(g.mu);
  std::uint64_t total = 0;
  for (const Ring* r : g.rings) {
    const std::uint64_t h = r->head.load(std::memory_order_acquire);
    std::uint64_t d = r->drained.load(std::memory_order_relaxed);
    if (h > kRingCapacity && d < h - kRingCapacity) d = h - kRingCapacity;
    total += h - d;
  }
  return total;
}

bool trace_write_chrome(const std::string& path) {
  const std::vector<TraceEvent> events = trace_drain();
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  {
    Global& g = global();
    std::lock_guard<std::mutex> lock(g.mu);
    std::vector<std::pair<std::uint32_t, std::string>> names =
        g.process_names;
    bool has_self = false;
    for (const auto& [pid, _] : names) has_self |= (pid == 0);
    if (!has_self) names.emplace_back(0, "redcane");
    for (const auto& [pid, pname] : names) {
      if (!first) out += ',';
      first = false;
      out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
      out += std::to_string(pid);
      out += ",\"tid\":0,\"args\":{\"name\":\"";
      json_escape_into(out, pname.c_str());
      out += "\"}}";
    }
  }
  char buf[160];
  for (const TraceEvent& e : events) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    json_escape_into(out, e.name != nullptr ? e.name : "?");
    std::snprintf(buf, sizeof buf,
                  "\",\"ph\":\"X\",\"pid\":%u,\"tid\":%u,\"ts\":%llu,"
                  "\"dur\":%llu",
                  e.pid, e.tid, static_cast<unsigned long long>(e.ts_us),
                  static_cast<unsigned long long>(e.dur_us));
    out += buf;
    if (e.corr != 0) {
      std::snprintf(buf, sizeof buf, ",\"args\":{\"corr\":%llu}",
                    static_cast<unsigned long long>(e.corr));
      out += buf;
    }
    out += '}';
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  if (util::write_file(path, out.data(), out.size())) return true;
  std::fprintf(stderr, "obs: cannot write trace file %s\n", path.c_str());
  return false;
}

void trace_reset_for_test() {
  Global& g = global();
  std::lock_guard<std::mutex> lock(g.mu);
  for (Ring* r : g.rings) {
    r->drained.store(r->head.load(std::memory_order_acquire),
                     std::memory_order_relaxed);
    r->dropped.store(0, std::memory_order_relaxed);
  }
  g.process_names.clear();
}

namespace {

void trace_atexit() {
  const char* path = std::getenv("REDCANE_TRACE");
  if (path != nullptr && path[0] != '\0') trace_write_chrome(path);
}

}  // namespace

void trace_env_arm() {
  static bool armed = [] {
    const char* path = std::getenv("REDCANE_TRACE");
    if (path != nullptr && path[0] != '\0') {
      trace_arm(true);
      std::atexit(trace_atexit);
    }
    return true;
  }();
  (void)armed;
}

namespace {
// Library-level arm: any binary linking obs honors REDCANE_TRACE
// without per-main wiring.
const bool g_env_arm = (trace_env_arm(), true);
}  // namespace

}  // namespace redcane::obs
