// Wire protocol of the distributed sweep layer.
//
// Framing: every message is [u32 payload length][u32 CRC-32 of payload]
// [payload], little-endian, over a stream socket ("unix:/path" or
// "tcp:host:port"). The CRC (util::crc32 — the same checksum the run
// journal and v2 checkpoints use) makes frame corruption — a chaos fault
// site and a real failure mode over TCP-less transports — detectable
// instead of silently poisoning a curve. A frame that fails the length
// bound, the CRC, or payload decoding is *connection-fatal*: the receiver
// cannot resynchronize a byte stream after a bad length prefix, so it
// drops the connection and the coordinator requeues whatever that worker
// held.
//
// Payload encoding is explicit little-endian scalar writes (no struct
// memcpy): u8/u32/u64, f64 as IEEE-754 bit pattern in a u64, strings as
// u32 length + bytes. Doubles travel as bit patterns, not text, because
// the determinism contract is *bitwise* grid equality between distributed
// and in-process runs.
//
// Message flow:
//   worker -> Hello{proto, job_hash, name}  -> coordinator
//   coordinator -> HelloAck{accepted, worker_id, reason}
//   coordinator -> Assign{trace_id, SweepShard} | HeartbeatAck | Shutdown
//   worker -> Result{trace_id, timings, ShardOutcome}
//          |  Heartbeat{shards_done, t_send_us, last_rtt_us}
//
// The job hash in Hello is the coordinator's defense against a worker
// built from different weights or grid geometry: mismatched workers are
// refused at handshake, before they can contribute values that would
// break bitwise identity.
//
// Protocol v2 (observability): Assign carries a u64 trace/correlation id
// that the worker echoes in its Result alongside per-shard phase timings
// and its last measured heartbeat RTT, so the coordinator can synthesize
// worker spans into one merged chrome://tracing timeline (obs/trace).
// Heartbeats carry the worker's steady-clock send stamp; the coordinator
// echoes it in a HeartbeatAck and the worker derives the RTT from the
// echo. v1 peers are refused at handshake by the existing proto check.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/sweep_plan.hpp"

namespace redcane::dist {

inline constexpr std::uint32_t kProtoVersion = 2;
/// Frames above this are rejected before allocation (a corrupt length
/// prefix must not trigger a multi-GB read).
inline constexpr std::uint32_t kMaxFrame = 64u << 20;

enum class MsgType : std::uint8_t {
  kHello = 1,     ///< worker -> coord: proto version, job hash, name.
  kHelloAck = 2,  ///< coord -> worker: accepted / refusal reason.
  kAssign = 3,    ///< coord -> worker: trace id + one SweepShard.
  kResult = 4,    ///< worker -> coord: trace id + timings + ShardOutcome.
  kHeartbeat = 5, ///< worker -> coord: liveness + shards_done + RTT probe.
  kShutdown = 6,  ///< coord -> worker: no more work, exit cleanly.
  kHeartbeatAck = 7,  ///< coord -> worker: echo of Heartbeat.t_send_us.
};

/// Append-only little-endian payload builder.
class WireWriter {
 public:
  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f64(double v);  ///< IEEE-754 bit pattern via u64.
  void str(const std::string& s);

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return buf_; }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked payload reader. Every getter returns false once any
/// prior read failed (sticky), so decode functions can chain reads and
/// check once.
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}

  [[nodiscard]] bool u8(std::uint8_t* v);
  [[nodiscard]] bool u32(std::uint32_t* v);
  [[nodiscard]] bool u64(std::uint64_t* v);
  [[nodiscard]] bool f64(double* v);
  [[nodiscard]] bool str(std::string* s);

  [[nodiscard]] bool ok() const { return ok_; }
  /// Unread bytes. Decoders bound every count field by it before
  /// allocating, so an inflated count cannot request more entries than
  /// the payload could hold.
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }
  /// True when the payload was consumed exactly (trailing garbage is a
  /// decode failure — it means the two sides disagree on the schema).
  [[nodiscard]] bool done() const { return ok_ && pos_ == size_; }

 private:
  [[nodiscard]] bool take(void* out, std::size_t n);

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// ---- message payloads ------------------------------------------------

struct HelloMsg {
  std::uint32_t proto = kProtoVersion;
  std::uint64_t job_hash = 0;
  std::string name;
};

struct HelloAckMsg {
  bool accepted = false;
  std::uint32_t worker_id = 0;
  std::string reason;  ///< Refusal diagnostic.
};

struct HeartbeatMsg {
  std::uint64_t shards_done = 0;
  /// Worker steady-clock send stamp [us]; echoed back in HeartbeatAck so
  /// the worker can measure the round trip on its own clock.
  std::uint64_t t_send_us = 0;
  /// Worker's most recent measured RTT [us]; 0 until the first ack.
  std::uint64_t last_rtt_us = 0;
};

struct HeartbeatAckMsg {
  std::uint64_t t_echo_us = 0;  ///< Heartbeat.t_send_us, unmodified.
};

/// One shard assignment. `trace_id` correlates the coordinator's
/// scheduling spans with the worker's execution spans in a merged trace;
/// it never influences execution.
struct AssignMsg {
  std::uint64_t trace_id = 0;
  core::SweepShard shard;
};

/// One shard result with the worker-side profile: total run_shard wall
/// time split into the attacked-set/base phase and the point-eval phase,
/// plus the worker's latest heartbeat RTT. Timings are diagnostic only —
/// the outcome's values carry the determinism contract.
struct ResultMsg {
  std::uint64_t trace_id = 0;
  std::uint64_t exec_us = 0;    ///< Total run_shard wall time.
  std::uint64_t base_us = 0;    ///< ensure_attacked + base-accuracy phase.
  std::uint64_t points_us = 0;  ///< Point-evaluation phase.
  std::uint64_t rtt_us = 0;     ///< Worker's last measured heartbeat RTT.
  core::ShardOutcome outcome;
};

/// Attack-spec codec, public because the coordinator also hashes the
/// encoding as a shard's cache-affinity key (shards sharing a spec reuse
/// a worker's attacked eval set).
void encode_attack_spec(WireWriter& w, const attack::AttackSpec& s);
[[nodiscard]] bool decode_attack_spec(WireReader& r, attack::AttackSpec* s);

void encode_hello(WireWriter& w, const HelloMsg& m);
[[nodiscard]] bool decode_hello(WireReader& r, HelloMsg* m);
void encode_hello_ack(WireWriter& w, const HelloAckMsg& m);
[[nodiscard]] bool decode_hello_ack(WireReader& r, HelloAckMsg* m);
void encode_heartbeat(WireWriter& w, const HeartbeatMsg& m);
[[nodiscard]] bool decode_heartbeat(WireReader& r, HeartbeatMsg* m);
void encode_heartbeat_ack(WireWriter& w, const HeartbeatAckMsg& m);
[[nodiscard]] bool decode_heartbeat_ack(WireReader& r, HeartbeatAckMsg* m);
void encode_assign(WireWriter& w, const AssignMsg& m);
[[nodiscard]] bool decode_assign(WireReader& r, AssignMsg* m);
void encode_result(WireWriter& w, const ResultMsg& m);
[[nodiscard]] bool decode_result(WireReader& r, ResultMsg* m);
void encode_shard(WireWriter& w, const core::SweepShard& s);
[[nodiscard]] bool decode_shard(WireReader& r, core::SweepShard* s);
void encode_outcome(WireWriter& w, const core::ShardOutcome& o);
[[nodiscard]] bool decode_outcome(WireReader& r, core::ShardOutcome* o);

// ---- sockets ---------------------------------------------------------

/// Move-only RAII wrapper of a connected (or listening) socket fd.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int fd() const { return fd_; }
  void close_now();

 private:
  int fd_ = -1;
};

/// Outcome of one frame receive.
enum class FrameStatus {
  kOk,
  kTimeout,   ///< No complete frame within the deadline; stream intact.
  kClosed,    ///< Orderly peer close at a frame boundary.
  kCorrupt,   ///< CRC mismatch — connection-fatal.
  kTooLarge,  ///< Length prefix beyond kMaxFrame — connection-fatal.
  kError,     ///< I/O error / close mid-frame — connection-fatal.
};

[[nodiscard]] const char* frame_status_name(FrameStatus s);

/// Binds + listens on "unix:/path" (unlinking a stale path first) or
/// "tcp:host:port" (SO_REUSEADDR; port 0 picks an ephemeral port). On
/// success, `bound_addr` (if non-null) receives the resolved address —
/// with the real port for tcp:...:0 — in the same grammar, suitable for
/// passing to dist_connect. Invalid socket + `error` on failure.
[[nodiscard]] Socket dist_listen(const std::string& addr, std::string* bound_addr,
                                 std::string* error);

/// Accepts one connection; invalid socket on timeout or error. A timeout
/// is not an error — the coordinator polls accept between ticks.
[[nodiscard]] Socket dist_accept(const Socket& listener, int timeout_ms);

/// Connects to an address in the dist_listen grammar. Invalid socket +
/// `error` on failure (no internal retry; callers own the retry loop).
[[nodiscard]] Socket dist_connect(const std::string& addr, std::string* error);

/// Sends one framed message (blocking until fully written). False on any
/// send error — the connection is then unusable.
[[nodiscard]] bool send_frame(const Socket& s, MsgType type,
                              const std::vector<std::uint8_t>& payload);

/// Fault-injection variant: frames `payload` with the CRC of the CLEAN
/// bytes, then flips one payload byte on the wire, guaranteeing the
/// receiver's checksum check fires. Chaos tests only.
[[nodiscard]] bool send_frame_corrupted(const Socket& s, MsgType type,
                                        const std::vector<std::uint8_t>& payload);

/// Receives one framed message, waiting up to `timeout_ms` for the first
/// byte. The rest of a started frame is read under a fixed generous
/// deadline instead — once a length prefix arrives the peer has committed
/// to the frame, and a mid-frame stall is a wedged connection (kError),
/// not a quiet one (kTimeout). On kOk, `type` and `payload` hold the
/// CRC-verified message.
[[nodiscard]] FrameStatus recv_frame(const Socket& s, int timeout_ms, MsgType* type,
                                     std::vector<std::uint8_t>* payload);

}  // namespace redcane::dist
