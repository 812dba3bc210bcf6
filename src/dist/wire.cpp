#include "dist/wire.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "util/crc32.hpp"
#include "util/parse.hpp"

namespace redcane::dist {

// ---- domain encodings ------------------------------------------------

void encode_attack_spec(util::ByteWriter& w, const attack::AttackSpec& s) {
  w.u8(static_cast<std::uint8_t>(s.kind));
  w.f64(s.epsilon);
  w.u32(static_cast<std::uint32_t>(s.steps));
  w.f64(s.step_size);
  w.f64(s.severity);
  w.f64(s.clip_min);
  w.f64(s.clip_max);
  w.f64(s.margin.m_plus);
  w.f64(s.margin.m_minus);
  w.f64(s.margin.lambda);
}

bool decode_attack_spec(util::ByteReader& r, attack::AttackSpec* s) {
  std::uint8_t kind = 0;
  std::uint32_t steps = 0;
  bool ok = r.u8(&kind) && r.f64(&s->epsilon) && r.u32(&steps) &&
            r.f64(&s->step_size) && r.f64(&s->severity) && r.f64(&s->clip_min) &&
            r.f64(&s->clip_max) && r.f64(&s->margin.m_plus) &&
            r.f64(&s->margin.m_minus) && r.f64(&s->margin.lambda);
  if (!ok) return false;
  if (kind > static_cast<std::uint8_t>(attack::AttackKind::kScale)) return false;
  // parse_attack_spec's value ranges, plus the identity values plans put on
  // the wire (eps 0, angle 0, factor 1, step 0 = the default step rule).
  for (double v : {s->epsilon, s->step_size, s->severity, s->clip_min, s->clip_max,
                   s->margin.m_plus, s->margin.m_minus, s->margin.lambda}) {
    if (!std::isfinite(v)) return false;
  }
  s->kind = static_cast<attack::AttackKind>(kind);
  s->steps = static_cast<int>(steps);
  return steps >= 1 && steps <= static_cast<std::uint32_t>(std::numeric_limits<int>::max()) &&
         s->epsilon >= 0.0 && s->step_size >= 0.0 && s->clip_min <= s->clip_max &&
         (s->kind != attack::AttackKind::kScale || s->severity > 0.0);
}

namespace {

// Smallest encodings of the counted entries: a count n is rejected unless
// n entries of this size fit in the bytes left.
constexpr std::size_t kMinRuleBytes = 3 + 4 + 8 + 8;  ///< Flags, empty layer, nm, na.
constexpr std::size_t kMinPointBytes = 4 + 8;         ///< Rule count, salt.
constexpr std::size_t kAccBytes = 8;                  ///< One f64.

void encode_rule(util::ByteWriter& w, const noise::InjectionRule& rule) {
  w.u8(rule.kind.has_value() ? 1 : 0);
  w.u8(rule.kind.has_value() ? static_cast<std::uint8_t>(*rule.kind) : 0);
  w.u8(rule.layer.has_value() ? 1 : 0);
  w.str(rule.layer.has_value() ? *rule.layer : std::string());
  w.f64(rule.noise.nm);
  w.f64(rule.noise.na);
}

bool decode_rule(util::ByteReader& r, noise::InjectionRule* rule) {
  std::uint8_t has_kind = 0, kind = 0, has_layer = 0;
  std::string layer;
  bool ok = r.u8(&has_kind) && r.u8(&kind) && r.u8(&has_layer) && r.str(&layer) &&
            r.f64(&rule->noise.nm) && r.f64(&rule->noise.na);
  if (!ok) return false;
  if (kind > static_cast<std::uint8_t>(capsnet::OpKind::kLogitsUpdate)) return false;
  // Canonical: flags are 0/1, and an unset field carries encode_rule's
  // placeholder (kind 0, empty layer), not a value the decoder would drop.
  if (has_kind > 1 || has_layer > 1 || (has_kind == 0 && kind != 0) ||
      (has_layer == 0 && !layer.empty()))
    return false;
  rule->kind = has_kind != 0
                   ? std::optional<capsnet::OpKind>(static_cast<capsnet::OpKind>(kind))
                   : std::nullopt;
  rule->layer = has_layer != 0 ? std::optional<std::string>(std::move(layer))
                               : std::nullopt;
  return true;
}

void encode_point(util::ByteWriter& w, const core::SweepPointSpec& p) {
  w.u32(static_cast<std::uint32_t>(p.rules.size()));
  for (const noise::InjectionRule& rule : p.rules) encode_rule(w, rule);
  w.u64(p.salt);
}

bool decode_point(util::ByteReader& r, core::SweepPointSpec* p) {
  std::uint32_t n = 0;
  if (!r.count(kMinRuleBytes, &n)) return false;
  p->rules.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!decode_rule(r, &p->rules[i])) return false;
  }
  return r.u64(&p->salt);
}

}  // namespace

void encode_hello(util::ByteWriter& w, const HelloMsg& m) {
  w.u32(m.proto);
  w.u64(m.job_hash);
  w.str(m.name);
}

bool decode_hello(util::ByteReader& r, HelloMsg* m) {
  return r.u32(&m->proto) && r.u64(&m->job_hash) && r.str(&m->name) && r.done();
}

void encode_hello_ack(util::ByteWriter& w, const HelloAckMsg& m) {
  w.u8(m.accepted ? 1 : 0);
  w.u32(m.worker_id);
  w.str(m.reason);
}

bool decode_hello_ack(util::ByteReader& r, HelloAckMsg* m) {
  std::uint8_t accepted = 0;
  if (!(r.u8(&accepted) && r.u32(&m->worker_id) && r.str(&m->reason) && r.done()) ||
      accepted > 1)
    return false;
  m->accepted = accepted != 0;
  return true;
}

void encode_heartbeat(util::ByteWriter& w, const HeartbeatMsg& m) {
  w.u64(m.shards_done);
  w.u64(m.t_send_us);
  w.u64(m.last_rtt_us);
}

bool decode_heartbeat(util::ByteReader& r, HeartbeatMsg* m) {
  return r.u64(&m->shards_done) && r.u64(&m->t_send_us) &&
         r.u64(&m->last_rtt_us) && r.done();
}

void encode_heartbeat_ack(util::ByteWriter& w, const HeartbeatAckMsg& m) {
  w.u64(m.t_echo_us);
}

bool decode_heartbeat_ack(util::ByteReader& r, HeartbeatAckMsg* m) {
  return r.u64(&m->t_echo_us) && r.done();
}

void encode_assign(util::ByteWriter& w, const AssignMsg& m) {
  w.u64(m.trace_id);
  encode_shard(w, m.shard);
}

bool decode_assign(util::ByteReader& r, AssignMsg* m) {
  // decode_shard consumes the remainder and enforces done().
  return r.u64(&m->trace_id) && decode_shard(r, &m->shard);
}

void encode_result(util::ByteWriter& w, const ResultMsg& m) {
  w.u64(m.trace_id);
  w.u64(m.exec_us);
  w.u64(m.base_us);
  w.u64(m.points_us);
  w.u64(m.rtt_us);
  encode_outcome(w, m.outcome);
}

bool decode_result(util::ByteReader& r, ResultMsg* m) {
  // decode_outcome consumes the remainder and enforces done().
  return r.u64(&m->trace_id) && r.u64(&m->exec_us) && r.u64(&m->base_us) &&
         r.u64(&m->points_us) && r.u64(&m->rtt_us) &&
         decode_outcome(r, &m->outcome);
}

void encode_shard(util::ByteWriter& w, const core::SweepShard& s) {
  w.u64(s.id);
  encode_attack_spec(w, s.spec);
  w.u8(static_cast<std::uint8_t>(s.backend));
  w.str(s.component);
  w.u32(static_cast<std::uint32_t>(s.bits));
  w.u32(static_cast<std::uint32_t>(s.points.size()));
  for (const core::SweepPointSpec& p : s.points) encode_point(w, p);
}

bool decode_shard(util::ByteReader& r, core::SweepShard* s) {
  std::uint8_t backend = 0;
  std::uint32_t bits = 0, npoints = 0;
  if (!(r.u64(&s->id) && decode_attack_spec(r, &s->spec) && r.u8(&backend) &&
        r.str(&s->component) && r.u32(&bits) && r.count(kMinPointBytes, &npoints)))
    return false;
  if (backend > static_cast<std::uint8_t>(core::ShardBackend::kEmulated)) return false;
  s->backend = static_cast<core::ShardBackend>(backend);
  s->bits = static_cast<int>(bits);
  s->points.resize(npoints);
  for (std::uint32_t i = 0; i < npoints; ++i) {
    if (!decode_point(r, &s->points[i])) return false;
  }
  return r.done();
}

void encode_outcome(util::ByteWriter& w, const core::ShardOutcome& o) {
  w.u64(o.id);
  w.f64(o.base);
  w.u32(static_cast<std::uint32_t>(o.acc.size()));
  for (double a : o.acc) w.f64(a);
}

bool decode_outcome(util::ByteReader& r, core::ShardOutcome* o) {
  std::uint32_t n = 0;
  if (!(r.u64(&o->id) && r.f64(&o->base) && r.count(kAccBytes, &n))) return false;
  o->acc.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!r.f64(&o->acc[i])) return false;
  }
  return r.done();
}

// ---- sockets ---------------------------------------------------------

Socket::~Socket() { close_now(); }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close_now();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close_now() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

const char* frame_status_name(FrameStatus s) {
  switch (s) {
    case FrameStatus::kOk: return "ok";
    case FrameStatus::kTimeout: return "timeout";
    case FrameStatus::kClosed: return "closed";
    case FrameStatus::kCorrupt: return "corrupt";
    case FrameStatus::kTooLarge: return "too-large";
    case FrameStatus::kError: return "error";
  }
  return "unknown";
}

namespace {

struct ParsedAddr {
  bool is_unix = false;
  std::string path;  ///< unix.
  std::string host;  ///< tcp.
  std::uint16_t port = 0;
};

bool parse_addr(const std::string& addr, ParsedAddr* out, std::string* error) {
  if (addr.rfind("unix:", 0) == 0) {
    out->is_unix = true;
    out->path = addr.substr(5);
    if (out->path.empty()) {
      if (error) *error = "empty unix socket path in '" + addr + "'";
      return false;
    }
    // sun_path is a fixed 108-byte field; longer paths silently truncate.
    if (out->path.size() >= sizeof(sockaddr_un{}.sun_path)) {
      if (error) *error = "unix socket path too long: '" + out->path + "'";
      return false;
    }
    return true;
  }
  if (addr.rfind("tcp:", 0) == 0) {
    const std::string rest = addr.substr(4);
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 == rest.size()) {
      if (error) *error = "expected tcp:host:port, got '" + addr + "'";
      return false;
    }
    out->is_unix = false;
    out->host = rest.substr(0, colon);
    if (!util::parse_int(std::string_view(rest).substr(colon + 1), &out->port)) {
      if (error) *error = "bad tcp port in '" + addr + "'";
      return false;
    }
    return true;
  }
  if (error) *error = "address must start with unix: or tcp:, got '" + addr + "'";
  return false;
}

bool send_all(int fd, const void* data, std::size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    // MSG_NOSIGNAL: a dying peer must surface as EPIPE, not kill the
    // coordinator process with SIGPIPE.
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (w == 0) return false;
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

/// Reads exactly n bytes. first_timeout_ms bounds the wait for the FIRST
/// byte only (negative = wait forever); subsequent bytes of a started
/// read use a generous fixed deadline so a mid-frame stall cannot wedge
/// the receiver forever.
FrameStatus recv_exact(int fd, void* data, std::size_t n, int first_timeout_ms) {
  char* p = static_cast<char*>(data);
  bool first = true;
  while (n > 0) {
    pollfd pfd{fd, POLLIN, 0};
    const int timeout = first ? first_timeout_ms : 10'000;
    const int pr = ::poll(&pfd, 1, timeout);
    if (pr < 0) {
      if (errno == EINTR) continue;
      return FrameStatus::kError;
    }
    if (pr == 0) return first ? FrameStatus::kTimeout : FrameStatus::kError;
    const ssize_t r = ::recv(fd, p, n, 0);
    if (r < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return FrameStatus::kError;
    }
    if (r == 0) return first ? FrameStatus::kClosed : FrameStatus::kError;
    first = false;
    p += r;
    n -= static_cast<std::size_t>(r);
  }
  return FrameStatus::kOk;
}

}  // namespace

Socket dist_listen(const std::string& addr, std::string* bound_addr,
                   std::string* error) {
  ParsedAddr parsed;
  if (!parse_addr(addr, &parsed, error)) return Socket();
  if (parsed.is_unix) {
    Socket s(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!s.valid()) {
      if (error) *error = std::string("socket: ") + std::strerror(errno);
      return Socket();
    }
    ::unlink(parsed.path.c_str());  // Stale path from a crashed coordinator.
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    std::strncpy(sa.sun_path, parsed.path.c_str(), sizeof(sa.sun_path) - 1);
    if (::bind(s.fd(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0 ||
        ::listen(s.fd(), 64) != 0) {
      if (error) *error = std::string("bind/listen ") + addr + ": " + std::strerror(errno);
      return Socket();
    }
    if (bound_addr) *bound_addr = addr;
    return s;
  }
  Socket s(::socket(AF_INET, SOCK_STREAM, 0));
  if (!s.valid()) {
    if (error) *error = std::string("socket: ") + std::strerror(errno);
    return Socket();
  }
  const int one = 1;
  ::setsockopt(s.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(parsed.port);
  if (::inet_pton(AF_INET, parsed.host.c_str(), &sa.sin_addr) != 1) {
    if (error) *error = "bad tcp host '" + parsed.host + "' (numeric IPv4 only)";
    return Socket();
  }
  if (::bind(s.fd(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0 ||
      ::listen(s.fd(), 64) != 0) {
    if (error) *error = std::string("bind/listen ") + addr + ": " + std::strerror(errno);
    return Socket();
  }
  if (bound_addr) {
    sockaddr_in actual{};
    socklen_t len = sizeof(actual);
    if (::getsockname(s.fd(), reinterpret_cast<sockaddr*>(&actual), &len) == 0) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "tcp:%s:%u", parsed.host.c_str(),
                    static_cast<unsigned>(ntohs(actual.sin_port)));
      *bound_addr = buf;
    } else {
      *bound_addr = addr;
    }
  }
  return s;
}

Socket dist_accept(const Socket& listener, int timeout_ms) {
  pollfd pfd{listener.fd(), POLLIN, 0};
  const int pr = ::poll(&pfd, 1, timeout_ms);
  if (pr <= 0) return Socket();
  const int fd = ::accept(listener.fd(), nullptr, nullptr);
  if (fd < 0) return Socket();
  return Socket(fd);
}

Socket dist_connect(const std::string& addr, std::string* error) {
  ParsedAddr parsed;
  if (!parse_addr(addr, &parsed, error)) return Socket();
  if (parsed.is_unix) {
    Socket s(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!s.valid()) {
      if (error) *error = std::string("socket: ") + std::strerror(errno);
      return Socket();
    }
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    std::strncpy(sa.sun_path, parsed.path.c_str(), sizeof(sa.sun_path) - 1);
    if (::connect(s.fd(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
      if (error) *error = std::string("connect ") + addr + ": " + std::strerror(errno);
      return Socket();
    }
    return s;
  }
  Socket s(::socket(AF_INET, SOCK_STREAM, 0));
  if (!s.valid()) {
    if (error) *error = std::string("socket: ") + std::strerror(errno);
    return Socket();
  }
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(parsed.port);
  if (::inet_pton(AF_INET, parsed.host.c_str(), &sa.sin_addr) != 1) {
    if (error) *error = "bad tcp host '" + parsed.host + "' (numeric IPv4 only)";
    return Socket();
  }
  if (::connect(s.fd(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    if (error) *error = std::string("connect ") + addr + ": " + std::strerror(errno);
    return Socket();
  }
  const int one = 1;
  ::setsockopt(s.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return s;
}

namespace {

bool send_frame_impl(const Socket& s, MsgType type,
                     const std::vector<std::uint8_t>& payload, bool corrupt) {
  // Frame: u32 len | u32 crc | u8 type | payload. The type byte lives
  // inside the checksummed region so a flipped type is caught too.
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size() + 1);
  if (len > kMaxFrame) return false;
  std::uint32_t crc = util::crc32_init();
  const std::uint8_t type_byte = static_cast<std::uint8_t>(type);
  crc = util::crc32_update(crc, &type_byte, 1);
  crc = util::crc32_update(crc, payload.data(), payload.size());
  util::ByteWriter header;
  header.u32(len);
  header.u32(crc);
  header.u8(type_byte);
  if (!send_all(s.fd(), header.bytes().data(), header.bytes().size())) return false;
  if (payload.empty()) return true;
  if (!corrupt) return send_all(s.fd(), payload.data(), payload.size());
  std::vector<std::uint8_t> dirty = payload;
  // Past the leading u64 id field when possible, so the receiver sees a
  // plausibly-shaped frame whose CRC check must still fire.
  const std::size_t at = dirty.size() > 8 ? 8 : dirty.size() - 1;
  dirty[at] ^= 0x5A;
  return send_all(s.fd(), dirty.data(), dirty.size());
}

}  // namespace

bool send_frame(const Socket& s, MsgType type, const std::vector<std::uint8_t>& payload) {
  return send_frame_impl(s, type, payload, /*corrupt=*/false);
}

bool send_frame_corrupted(const Socket& s, MsgType type,
                          const std::vector<std::uint8_t>& payload) {
  return send_frame_impl(s, type, payload, /*corrupt=*/true);
}

FrameStatus recv_frame(const Socket& s, int timeout_ms, MsgType* type,
                       std::vector<std::uint8_t>* payload) {
  std::uint8_t header[8];
  FrameStatus st = recv_exact(s.fd(), header, sizeof(header), timeout_ms);
  if (st != FrameStatus::kOk) return st;
  std::uint32_t len = 0, crc = 0;
  util::ByteReader h(header, sizeof(header));
  if (!(h.u32(&len) && h.u32(&crc)) || len == 0 || len > kMaxFrame)
    return FrameStatus::kTooLarge;
  std::vector<std::uint8_t> body(len);
  // The sender already committed to this frame; a stall now is a wedged
  // peer, bounded by the same mid-read deadline recv_exact applies.
  st = recv_exact(s.fd(), body.data(), body.size(), 10'000);
  if (st == FrameStatus::kClosed || st == FrameStatus::kTimeout) return FrameStatus::kError;
  if (st != FrameStatus::kOk) return st;
  if (util::crc32(body.data(), body.size()) != crc) return FrameStatus::kCorrupt;
  const std::uint8_t type_byte = body[0];
  if (type_byte < static_cast<std::uint8_t>(MsgType::kHello) ||
      type_byte > static_cast<std::uint8_t>(MsgType::kHeartbeatAck))
    return FrameStatus::kCorrupt;
  *type = static_cast<MsgType>(type_byte);
  payload->assign(body.begin() + 1, body.end());
  return FrameStatus::kOk;
}

}  // namespace redcane::dist
