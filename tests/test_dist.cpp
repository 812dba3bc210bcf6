// Distributed sweep layer contracts (src/dist/):
//  * the wire codec round-trips every message type exactly, rejects
//    truncated/trailing-garbage payloads and inflated count fields
//    (before allocating), and the framed transport
//    detects corruption, oversize frames, timeouts and orderly close;
//  * the run journal recovers exactly the records that reached disk,
//    truncates torn tails, and refuses a mismatched job hash;
//  * a coordinator plus real worker loops produces grids bitwise
//    identical to the in-process run, with reconciled accounting,
//    under normal operation, degradation, and journal resume;
//  * chunking a plan differently cannot change any assembled value.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/sweep_engine.hpp"
#include "core/sweep_plan.hpp"
#include "dist/coordinator.hpp"
#include "dist/job.hpp"
#include "dist/journal.hpp"
#include "dist/wire.hpp"
#include "dist/worker.hpp"
#include "obs/metrics.hpp"
#include "util/fault.hpp"

namespace redcane::dist {
namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

// ---- wire codec ------------------------------------------------------

TEST(DistWire, HelloRoundTrip) {
  HelloMsg in;
  in.proto = kProtoVersion;
  in.job_hash = 0xDEADBEEFCAFEull;
  in.name = "worker-7";
  util::ByteWriter w;
  encode_hello(w, in);

  HelloMsg out;
  util::ByteReader r(w.bytes().data(), w.bytes().size());
  ASSERT_TRUE(decode_hello(r, &out));
  EXPECT_EQ(out.proto, in.proto);
  EXPECT_EQ(out.job_hash, in.job_hash);
  EXPECT_EQ(out.name, in.name);
}

TEST(DistWire, HelloAckRoundTrip) {
  HelloAckMsg in;
  in.accepted = false;
  in.worker_id = 3;
  in.reason = "job hash mismatch";
  util::ByteWriter w;
  encode_hello_ack(w, in);

  HelloAckMsg out;
  util::ByteReader r(w.bytes().data(), w.bytes().size());
  ASSERT_TRUE(decode_hello_ack(r, &out));
  EXPECT_EQ(out.accepted, in.accepted);
  EXPECT_EQ(out.worker_id, in.worker_id);
  EXPECT_EQ(out.reason, in.reason);
}

TEST(DistWire, HeartbeatRoundTrip) {
  HeartbeatMsg in;
  in.shards_done = 41;
  util::ByteWriter w;
  encode_heartbeat(w, in);
  HeartbeatMsg out;
  util::ByteReader r(w.bytes().data(), w.bytes().size());
  ASSERT_TRUE(decode_heartbeat(r, &out));
  EXPECT_EQ(out.shards_done, 41u);
}

core::SweepShard sample_shard() {
  core::SweepShard s;
  s.id = 12;
  s.spec = attack::AttackSpec::fgsm(0.1);
  s.backend = core::ShardBackend::kNoise;
  s.component = "axm_drum4_dm1";
  s.bits = 6;
  core::SweepPointSpec p1;
  p1.rules.push_back(noise::group_rule(capsnet::OpKind::kMacOutput, {0.5, 0.1}));
  p1.salt = 3;
  core::SweepPointSpec p2;
  p2.rules.push_back(
      noise::layer_rule(capsnet::OpKind::kSoftmax, "Caps1", {0.2, 0.0}));
  p2.rules.push_back(noise::group_rule(capsnet::OpKind::kActivation, {0.1, 0.0}));
  p2.salt = 9;
  s.points = {p1, p2};
  return s;
}

TEST(DistWire, ShardRoundTripIncludingOptionalRuleFields) {
  const core::SweepShard in = sample_shard();
  util::ByteWriter w;
  encode_shard(w, in);

  core::SweepShard out;
  util::ByteReader r(w.bytes().data(), w.bytes().size());
  ASSERT_TRUE(decode_shard(r, &out));
  EXPECT_EQ(out.id, in.id);
  EXPECT_EQ(out.spec.kind, in.spec.kind);
  EXPECT_EQ(out.spec.severity, in.spec.severity);
  EXPECT_EQ(out.backend, in.backend);
  EXPECT_EQ(out.component, in.component);
  EXPECT_EQ(out.bits, in.bits);
  ASSERT_EQ(out.points.size(), in.points.size());
  for (std::size_t i = 0; i < in.points.size(); ++i) {
    EXPECT_EQ(out.points[i].salt, in.points[i].salt);
    ASSERT_EQ(out.points[i].rules.size(), in.points[i].rules.size());
    for (std::size_t j = 0; j < in.points[i].rules.size(); ++j) {
      const noise::InjectionRule& a = in.points[i].rules[j];
      const noise::InjectionRule& b = out.points[i].rules[j];
      EXPECT_EQ(b.kind.has_value(), a.kind.has_value());
      if (a.kind.has_value() && b.kind.has_value()) EXPECT_EQ(*b.kind, *a.kind);
      EXPECT_EQ(b.layer.has_value(), a.layer.has_value());
      if (a.layer.has_value() && b.layer.has_value()) EXPECT_EQ(*b.layer, *a.layer);
      EXPECT_EQ(b.noise.nm, a.noise.nm);
      EXPECT_EQ(b.noise.na, a.noise.na);
    }
  }
}

TEST(DistWire, OutcomeRoundTripIsBitExact) {
  core::ShardOutcome in;
  in.id = 7;
  in.base = 0.8125;
  in.acc = {0.5, 0.0, 1.0, 0.1234567891234567};
  util::ByteWriter w;
  encode_outcome(w, in);

  core::ShardOutcome out;
  util::ByteReader r(w.bytes().data(), w.bytes().size());
  ASSERT_TRUE(decode_outcome(r, &out));
  EXPECT_EQ(out.id, in.id);
  EXPECT_EQ(out.base, in.base);  // Bitwise via f64 bit-pattern transport.
  ASSERT_EQ(out.acc.size(), in.acc.size());
  for (std::size_t i = 0; i < in.acc.size(); ++i) EXPECT_EQ(out.acc[i], in.acc[i]);
}

TEST(DistWire, DecodeRejectsTruncationAndTrailingGarbage) {
  util::ByteWriter w;
  encode_shard(w, sample_shard());

  core::SweepShard out;
  // Truncated at every prefix length: never decodes, never overreads.
  for (std::size_t n = 0; n < w.bytes().size(); ++n) {
    util::ByteReader r(w.bytes().data(), n);
    EXPECT_FALSE(decode_shard(r, &out)) << "prefix " << n;
  }
  // One trailing byte: the schema mismatch must be detected.
  std::vector<std::uint8_t> extra = w.bytes();
  extra.push_back(0);
  util::ByteReader r(extra.data(), extra.size());
  EXPECT_FALSE(decode_shard(r, &out));
}

/// Overwrites the little-endian u32 at `at` with 0xFFFFFFFF.
std::vector<std::uint8_t> inflate_u32(std::vector<std::uint8_t> bytes, std::size_t at) {
  for (std::size_t i = 0; i < 4; ++i) bytes[at + i] = 0xFF;
  return bytes;
}

// Inflated count fields are rejected before any allocation: each decoder
// bounds its count by the bytes left, so a 2^32-1 count cannot request
// gigabytes (a throw there would terminate a coordinator thread).
TEST(DistWire, ResultAccCountIsBoundedBeforeAllocation) {
  // An empty result is 60 bytes: 5 u64 header fields, the outcome's id and
  // base, then the u32 acc count.
  util::ByteWriter w;
  encode_result(w, ResultMsg{});
  ASSERT_EQ(w.bytes().size(), 60u);
  const std::vector<std::uint8_t> bad = inflate_u32(w.bytes(), 56);
  ResultMsg out;
  util::ByteReader r(bad.data(), bad.size());
  EXPECT_FALSE(decode_result(r, &out));
  EXPECT_TRUE(out.outcome.acc.empty());
}

TEST(DistWire, ShardPointCountIsBoundedBeforeAllocation) {
  core::SweepShard s = sample_shard();
  s.points.clear();
  util::ByteWriter w;
  encode_shard(w, s);  // Ends with the u32 point count.
  const std::vector<std::uint8_t> bad = inflate_u32(w.bytes(), w.bytes().size() - 4);
  core::SweepShard out;
  util::ByteReader r(bad.data(), bad.size());
  EXPECT_FALSE(decode_shard(r, &out));
  EXPECT_TRUE(out.points.empty());
}

TEST(DistWire, PointRuleCountIsBoundedBeforeAllocation) {
  core::SweepShard s = sample_shard();
  s.points.resize(1);
  util::ByteWriter w;
  encode_shard(w, s);
  // The point's rule count is the first field after the point-less shard.
  core::SweepShard header = s;
  header.points.clear();
  util::ByteWriter h;
  encode_shard(h, header);
  const std::vector<std::uint8_t> bad = inflate_u32(w.bytes(), h.bytes().size());
  core::SweepShard good;
  util::ByteReader ok(w.bytes().data(), w.bytes().size());
  ASSERT_TRUE(decode_shard(ok, &good));
  core::SweepShard out;
  util::ByteReader r(bad.data(), bad.size());
  EXPECT_FALSE(decode_shard(r, &out));
  ASSERT_EQ(out.points.size(), 1u);
  EXPECT_TRUE(out.points[0].rules.empty());
}

// Wire-decoded attack specs get the value ranges the text grammar
// enforces. Identity values (eps 0, angle 0, factor 1) and step 0 (the
// default-step rule) stay legal: plans put them on the wire.
TEST(DistWire, AttackSpecValuesAreRangeChecked) {
  const auto decodes = [](const std::vector<std::uint8_t>& bytes) {
    attack::AttackSpec out;
    util::ByteReader r(bytes.data(), bytes.size());
    return decode_attack_spec(r, &out) && r.done();
  };
  const auto encoded = [](const attack::AttackSpec& spec) {
    util::ByteWriter w;
    encode_attack_spec(w, spec);
    return w.bytes();
  };
  const auto legal = [&](const attack::AttackSpec& spec) { return decodes(encoded(spec)); };

  EXPECT_TRUE(legal(attack::AttackSpec::none()));
  EXPECT_TRUE(legal(attack::AttackSpec::fgsm(0.0)));
  EXPECT_TRUE(legal(attack::AttackSpec::fgsm(0.1)));
  EXPECT_TRUE(legal(attack::AttackSpec::pgd(0.1, 7, 0.0)));
  EXPECT_TRUE(legal(attack::AttackSpec::pgd(0.1, std::numeric_limits<int>::max(), 0.01)));
  EXPECT_TRUE(legal(attack::AttackSpec::rotate(0.0)));
  EXPECT_TRUE(legal(attack::AttackSpec::rotate(-15.0)));
  EXPECT_TRUE(legal(attack::AttackSpec::translate(-2.0)));
  EXPECT_TRUE(legal(attack::AttackSpec::scale(1.0)));

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // PGD with a NaN epsilon and INT_MAX steps: parse_attack_spec refuses it.
  EXPECT_FALSE(legal(attack::AttackSpec::pgd(nan, std::numeric_limits<int>::max())));
  EXPECT_FALSE(legal(attack::AttackSpec::fgsm(inf)));
  EXPECT_FALSE(legal(attack::AttackSpec::fgsm(-0.1)));
  EXPECT_FALSE(legal(attack::AttackSpec::pgd(0.1, 7, -0.01)));
  EXPECT_FALSE(legal(attack::AttackSpec::pgd(0.1, 0)));
  EXPECT_FALSE(legal(attack::AttackSpec::rotate(nan)));
  EXPECT_FALSE(legal(attack::AttackSpec::translate(-inf)));
  EXPECT_FALSE(legal(attack::AttackSpec::scale(0.0)));
  EXPECT_FALSE(legal(attack::AttackSpec::scale(-1.0)));
  attack::AttackSpec clip = attack::AttackSpec::fgsm(0.1);
  clip.clip_min = 1.0;
  clip.clip_max = 0.0;
  EXPECT_FALSE(legal(clip));
  attack::AttackSpec margin = attack::AttackSpec::fgsm(0.1);
  margin.margin.lambda = nan;
  EXPECT_FALSE(legal(margin));
  // A u32 step count above INT_MAX (it would wrap negative in an int).
  // Steps follow the kind byte and the f64 epsilon.
  EXPECT_FALSE(decodes(inflate_u32(encoded(attack::AttackSpec::pgd(0.1, 7)), 9)));
}

// Decoders are canonical: they accept only bytes the encoders write, so a
// decoded message re-encodes to its input. Flags are 0/1, and an unset
// optional carries the encoder's placeholder instead of a dropped value.
TEST(DistWire, DecodersRejectNonCanonicalBytes) {
  HelloAckMsg ack;
  ack.accepted = true;
  util::ByteWriter aw;
  encode_hello_ack(aw, ack);
  std::vector<std::uint8_t> bad_ack = aw.bytes();
  bad_ack[0] = 2;
  HelloAckMsg ack_out;
  util::ByteReader ar(bad_ack.data(), bad_ack.size());
  EXPECT_FALSE(decode_hello_ack(ar, &ack_out));

  // One point holding one rule; the rule's bytes start after the
  // point-less shard and the point's u32 rule count.
  const auto rule_shard = [](const noise::InjectionRule& rule) {
    core::SweepShard s = sample_shard();
    s.points.resize(1);
    s.points[0].rules = {rule};
    return s;
  };
  core::SweepShard header = sample_shard();
  header.points.clear();
  util::ByteWriter hw;
  encode_shard(hw, header);
  const std::size_t at = hw.bytes().size() + 4;  // has_kind, kind, has_layer, layer.
  const auto decodes = [](const std::vector<std::uint8_t>& bytes) {
    core::SweepShard out;
    util::ByteReader r(bytes.data(), bytes.size());
    return decode_shard(r, &out);
  };
  const auto encoded = [](const core::SweepShard& s) {
    util::ByteWriter w;
    encode_shard(w, s);
    return w.bytes();
  };

  noise::InjectionRule neither;  // No kind, no layer: flags 0, kind 0, "".
  neither.noise = {0.1, 0.0};
  const std::vector<std::uint8_t> plain = encoded(rule_shard(neither));
  ASSERT_TRUE(decodes(plain));
  for (const auto& [offset, value] : std::vector<std::pair<std::size_t, std::uint8_t>>{
           {0, 2}, {1, 1}, {2, 2}}) {
    std::vector<std::uint8_t> bad = plain;
    bad[at + offset] = value;
    EXPECT_FALSE(decodes(bad)) << "byte " << offset << " = " << int{value};
  }
  // A layer string behind a zero has_layer flag.
  const std::vector<std::uint8_t> layered =
      encoded(rule_shard(noise::layer_rule(capsnet::OpKind::kSoftmax, "Caps1", {0.2, 0.0})));
  ASSERT_TRUE(decodes(layered));
  std::vector<std::uint8_t> hidden = layered;
  hidden[at + 2] = 0;
  EXPECT_FALSE(decodes(hidden));
}

TEST(DistWire, TcpPortFollowsTheNumberRule) {
  for (const char* bad : {"tcp:127.0.0.1:+0", "tcp:127.0.0.1: 1", "tcp:127.0.0.1:65536",
                          "tcp:127.0.0.1:-1", "tcp:127.0.0.1:1x", "tcp:127.0.0.1:0x10"}) {
    std::string error;
    EXPECT_FALSE(dist_listen(bad, nullptr, &error).valid()) << bad;
    EXPECT_NE(error.find("bad tcp port"), std::string::npos) << bad << ": " << error;
  }
}

TEST(DistWire, StandardJobShardsPassTheDecoder) {
  for (const char* profile : {"quick", "full"}) {
    const StandardJob job = make_standard_job(profile);
    for (const core::SweepShard& shard : job.shards) {
      util::ByteWriter w;
      encode_shard(w, shard);
      core::SweepShard out;
      util::ByteReader r(w.bytes().data(), w.bytes().size());
      EXPECT_TRUE(decode_shard(r, &out)) << profile << " shard " << shard.id;
    }
  }
}

// ---- framed transport ------------------------------------------------

struct SocketPair {
  Socket client;
  Socket server;
};

SocketPair connected_pair(const char* name) {
  const std::string addr = "unix:" + temp_path(name);
  std::string bound;
  std::string error;
  Socket listener = dist_listen(addr, &bound, &error);
  EXPECT_TRUE(listener.valid()) << error;
  SocketPair p;
  p.client = dist_connect(bound, &error);
  EXPECT_TRUE(p.client.valid()) << error;
  p.server = dist_accept(listener, /*timeout_ms=*/2000);
  EXPECT_TRUE(p.server.valid());
  return p;
}

TEST(DistFrame, SendRecvRoundTrip) {
  SocketPair p = connected_pair("frame_ok.sock");
  util::ByteWriter w;
  encode_heartbeat(w, HeartbeatMsg{99});
  ASSERT_TRUE(send_frame(p.client, MsgType::kHeartbeat, w.bytes()));

  MsgType type{};
  std::vector<std::uint8_t> payload;
  ASSERT_EQ(recv_frame(p.server, 2000, &type, &payload), FrameStatus::kOk);
  EXPECT_EQ(type, MsgType::kHeartbeat);
  HeartbeatMsg hb;
  util::ByteReader r(payload.data(), payload.size());
  ASSERT_TRUE(decode_heartbeat(r, &hb));
  EXPECT_EQ(hb.shards_done, 99u);
}

TEST(DistFrame, CorruptedFrameIsDetected) {
  SocketPair p = connected_pair("frame_bad.sock");
  util::ByteWriter w;
  encode_heartbeat(w, HeartbeatMsg{5});
  ASSERT_TRUE(send_frame_corrupted(p.client, MsgType::kHeartbeat, w.bytes()));

  MsgType type{};
  std::vector<std::uint8_t> payload;
  EXPECT_EQ(recv_frame(p.server, 2000, &type, &payload), FrameStatus::kCorrupt);
}

TEST(DistFrame, OversizeLengthPrefixIsRejectedBeforeAllocation) {
  SocketPair p = connected_pair("frame_huge.sock");
  // Hand-craft a header claiming a frame beyond kMaxFrame.
  const std::uint32_t len = kMaxFrame + 1;
  const std::uint32_t crc = 0;
  std::uint8_t header[8];
  std::memcpy(header, &len, 4);
  std::memcpy(header + 4, &crc, 4);
  ASSERT_EQ(::send(p.client.fd(), header, sizeof header, 0),
            static_cast<ssize_t>(sizeof header));

  MsgType type{};
  std::vector<std::uint8_t> payload;
  EXPECT_EQ(recv_frame(p.server, 2000, &type, &payload), FrameStatus::kTooLarge);
}

TEST(DistFrame, TimeoutAndOrderlyClose) {
  SocketPair p = connected_pair("frame_idle.sock");
  MsgType type{};
  std::vector<std::uint8_t> payload;
  EXPECT_EQ(recv_frame(p.server, 50, &type, &payload), FrameStatus::kTimeout);
  p.client.close_now();
  EXPECT_EQ(recv_frame(p.server, 2000, &type, &payload), FrameStatus::kClosed);
}

// ---- journal ---------------------------------------------------------

core::ShardOutcome outcome_of(std::uint64_t id, double base,
                              std::vector<double> acc) {
  core::ShardOutcome o;
  o.id = id;
  o.base = base;
  o.acc = std::move(acc);
  return o;
}

TEST(DistJournal, AppendThenReloadRecoversEveryRecord) {
  const std::string path = temp_path("journal_basic.rdj");
  std::remove(path.c_str());
  constexpr std::uint64_t kJob = 0xABCD;

  {
    Journal j;
    std::vector<core::ShardOutcome> recovered;
    std::string error;
    ASSERT_TRUE(j.open(path, kJob, &recovered, &error)) << error;
    EXPECT_FALSE(j.stats().existed);
    EXPECT_TRUE(recovered.empty());
    ASSERT_TRUE(j.append(outcome_of(0, 0.5, {0.25, 0.125})));
    ASSERT_TRUE(j.append(outcome_of(1, 0.75, {})));
    ASSERT_TRUE(j.append(outcome_of(2, 0.0, {1.0})));
  }

  Journal j;
  std::vector<core::ShardOutcome> recovered;
  std::string error;
  ASSERT_TRUE(j.open(path, kJob, &recovered, &error)) << error;
  EXPECT_TRUE(j.stats().existed);
  EXPECT_EQ(j.stats().records_loaded, 3);
  EXPECT_EQ(j.stats().torn_bytes_truncated, 0);
  ASSERT_EQ(recovered.size(), 3u);
  EXPECT_EQ(recovered[0].id, 0u);
  EXPECT_EQ(recovered[0].base, 0.5);
  ASSERT_EQ(recovered[0].acc.size(), 2u);
  EXPECT_EQ(recovered[0].acc[1], 0.125);
  EXPECT_EQ(recovered[1].id, 1u);
  EXPECT_TRUE(recovered[1].acc.empty());
  EXPECT_EQ(recovered[2].acc[0], 1.0);
}

TEST(DistJournal, TornTailIsTruncatedAndAppendsContinue) {
  const std::string path = temp_path("journal_torn.rdj");
  std::remove(path.c_str());
  constexpr std::uint64_t kJob = 0x1234;

  {
    Journal j;
    std::vector<core::ShardOutcome> recovered;
    std::string error;
    ASSERT_TRUE(j.open(path, kJob, &recovered, &error)) << error;
    ASSERT_TRUE(j.append(outcome_of(0, 0.5, {0.25})));
    ASSERT_TRUE(j.append(outcome_of(1, 0.5, {0.75})));
  }
  // Simulate a crash mid-append: a partial record at the tail.
  {
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const std::uint32_t len = 64;  // Claims 64 payload bytes; writes 3.
    ASSERT_EQ(std::fwrite(&len, 1, 4, f), 4u);
    ASSERT_EQ(std::fwrite("xyz", 1, 3, f), 3u);
    std::fclose(f);
  }

  std::vector<core::ShardOutcome> recovered;
  std::string error;
  Journal j;
  ASSERT_TRUE(j.open(path, kJob, &recovered, &error)) << error;
  EXPECT_EQ(j.stats().records_loaded, 2);
  EXPECT_EQ(j.stats().torn_bytes_truncated, 7);
  ASSERT_EQ(recovered.size(), 2u);

  // The truncated journal is immediately appendable again.
  ASSERT_TRUE(j.append(outcome_of(2, 0.5, {0.125})));
  j.close_now();
  Journal j2;
  std::vector<core::ShardOutcome> again;
  ASSERT_TRUE(j2.open(path, kJob, &again, &error)) << error;
  ASSERT_EQ(again.size(), 3u);
  EXPECT_EQ(again[2].acc[0], 0.125);
}

TEST(DistJournal, CorruptMiddleRecordTruncatesFromThere) {
  const std::string path = temp_path("journal_corrupt.rdj");
  std::remove(path.c_str());
  constexpr std::uint64_t kJob = 0x77;

  long first_record_end = 0;
  {
    Journal j;
    std::vector<core::ShardOutcome> recovered;
    std::string error;
    ASSERT_TRUE(j.open(path, kJob, &recovered, &error)) << error;
    ASSERT_TRUE(j.append(outcome_of(0, 0.5, {0.25})));
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    first_record_end = std::ftell(f);
    std::fclose(f);
    ASSERT_TRUE(j.append(outcome_of(1, 0.5, {0.75})));
    ASSERT_TRUE(j.append(outcome_of(2, 0.5, {0.875})));
  }
  // Flip one byte inside the second record's payload.
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(0, std::fseek(f, first_record_end + 12, SEEK_SET));
    const int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(0, std::fseek(f, first_record_end + 12, SEEK_SET));
    ASSERT_NE(EOF, std::fputc(c ^ 0x40, f));
    std::fclose(f);
  }

  std::vector<core::ShardOutcome> recovered;
  std::string error;
  Journal j;
  ASSERT_TRUE(j.open(path, kJob, &recovered, &error)) << error;
  // Everything from the corrupt record on is gone; the journal cannot
  // know record 3 was good without trusting a bad length prefix.
  EXPECT_EQ(j.stats().records_loaded, 1);
  EXPECT_GT(j.stats().torn_bytes_truncated, 0);
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0].id, 0u);
}

TEST(DistJournal, RefusesMismatchedJobHash) {
  const std::string path = temp_path("journal_hash.rdj");
  std::remove(path.c_str());
  {
    Journal j;
    std::vector<core::ShardOutcome> recovered;
    std::string error;
    ASSERT_TRUE(j.open(path, 0xAAAA, &recovered, &error)) << error;
    ASSERT_TRUE(j.append(outcome_of(0, 0.5, {0.25})));
  }
  Journal j;
  std::vector<core::ShardOutcome> recovered;
  std::string error;
  EXPECT_FALSE(j.open(path, 0xBBBB, &recovered, &error));
  EXPECT_FALSE(error.empty());

  // The mismatch must not have destroyed the original journal.
  Journal ok;
  ASSERT_TRUE(ok.open(path, 0xAAAA, &recovered, &error)) << error;
  EXPECT_EQ(ok.stats().records_loaded, 1);
}

// ---- end-to-end ------------------------------------------------------

/// Spawns `n` worker loops (threads here; processes in production — the
/// protocol cannot tell) against `addr`, each with an independently
/// rebuilt model/dataset/engine, exactly as a worker process would.
struct WorkerFleet {
  std::vector<std::thread> threads;
  std::vector<WorkerStats> stats;

  WorkerFleet(int n, const std::string& addr, const std::string& profile,
              std::int64_t heartbeat_interval_ms = 100)
      : stats(static_cast<std::size_t>(n)) {
    for (int i = 0; i < n; ++i) {
      threads.emplace_back([this, i, addr, profile, heartbeat_interval_ms] {
        StandardJob job = make_standard_job(profile);
        core::SweepEngine engine(*job.model, job.dataset.test_x,
                                 job.dataset.test_y,
                                 job_engine_config(job, /*threads=*/1));
        WorkerConfig wc;
        wc.addr = addr;
        wc.name = "w" + std::to_string(i);
        wc.job_hash = job.job_hash;
        wc.heartbeat_interval_ms = heartbeat_interval_ms;
        stats[static_cast<std::size_t>(i)] = run_worker(engine, wc);
      });
    }
  }
  ~WorkerFleet() { join(); }
  void join() {
    for (std::thread& t : threads)
      if (t.joinable()) t.join();
  }
};

struct CoordRun {
  CoordinatorResult result;
  JobGrids grids;
};

CoordRun run_distributed(StandardJob& job, CoordinatorConfig cfg, int workers,
                         bool with_local = true) {
  core::SweepEngine local_engine(*job.model, job.dataset.test_x, job.dataset.test_y,
                                 job_engine_config(job, /*threads=*/1));
  LocalExec local;
  if (with_local) {
    local = [&local_engine](const core::SweepShard& s) {
      return core::run_shard(local_engine, s);
    };
  }
  Coordinator coordinator(cfg, job.shards, local);
  std::string error;
  EXPECT_TRUE(coordinator.listen(&error)) << error;

  CoordRun run;
  if (workers > 0) {
    WorkerFleet fleet(workers, coordinator.bound_addr(), job.profile);
    run.result = coordinator.run();
  } else {
    run.result = coordinator.run();
  }
  if (run.result.complete) run.grids = assemble_job(job, run.result.outcomes);
  return run;
}

/// Each dist_*_total registry counter next to the DistStats field it totals.
const std::vector<std::pair<const char*, std::int64_t DistStats::*>> kDistTotals = {
    {"dist_shards_total", &DistStats::shards_total},
    {"dist_journal_resumed_total", &DistStats::journal_resumed},
    {"dist_assigned_total", &DistStats::assigned},
    {"dist_result_ok_total", &DistStats::result_ok},
    {"dist_result_dup_total", &DistStats::result_dup},
    {"dist_late_results_total", &DistStats::late_results},
    {"dist_results_accepted_total", &DistStats::results_accepted},
    {"dist_stolen_total", &DistStats::stolen},
    {"dist_lost_total", &DistStats::lost},
    {"dist_cancelled_total", &DistStats::cancelled},
    {"dist_requeues_total", &DistStats::requeues},
    {"dist_failed_permanent_total", &DistStats::failed_permanent},
    {"dist_dropped_completed_total", &DistStats::dropped_completed},
    {"dist_local_completed_total", &DistStats::local_completed},
    {"dist_workers_seen_total", &DistStats::workers_seen},
    {"dist_workers_refused_total", &DistStats::workers_refused},
    {"dist_corrupt_frames_total", &DistStats::corrupt_frames},
    {"dist_heartbeats_total", &DistStats::heartbeats},
    {"dist_rtt_samples_total", &DistStats::rtt_samples},
    {"dist_rtt_sum_us_total", &DistStats::rtt_sum_us},
};

TEST(DistEndToEnd, TwoWorkersProduceBitIdenticalGrids) {
  StandardJob job = make_standard_job("quick");
  CoordinatorConfig cfg;
  cfg.addr = "unix:" + temp_path("e2e_two.sock");
  cfg.job_hash = job.job_hash;

  const obs::Snapshot before = obs::Registry::instance().snapshot();
  const CoordRun run = run_distributed(job, cfg, /*workers=*/2);
  const obs::Snapshot after = obs::Registry::instance().snapshot();
  ASSERT_TRUE(run.result.complete) << run.result.error;
  // The registry totals grew by exactly this run's stats, and the three
  // laws hold over them.
  for (const auto& [name, field] : kDistTotals) {
    EXPECT_EQ(after.counter(name) - before.counter(name), run.result.stats.*field) << name;
  }
  int dist_checks = 0;
  for (const obs::CheckResult& c : obs::Registry::instance().run_checks()) {
    if (c.name.rfind("dist_", 0) != 0) continue;
    ++dist_checks;
    EXPECT_TRUE(c.ok) << c.name;
  }
  EXPECT_EQ(dist_checks, 3);
  EXPECT_TRUE(run.result.stats.reconciles());
  EXPECT_FALSE(run.result.stats.degraded);
  EXPECT_EQ(run.result.stats.workers_seen, 2);
  EXPECT_EQ(run.result.stats.journal_resumed + run.result.stats.results_accepted +
                run.result.stats.local_completed,
            run.result.stats.shards_total);

  StandardJob ref_job = make_standard_job("quick");
  const JobGrids reference = run_job_in_process(ref_job);
  EXPECT_TRUE(grids_identical(run.grids, reference));
}

TEST(DistEndToEnd, NoWorkersDegradesToLocalExecution) {
  StandardJob job = make_standard_job("quick");
  CoordinatorConfig cfg;
  cfg.addr = "unix:" + temp_path("e2e_none.sock");
  cfg.job_hash = job.job_hash;
  cfg.worker_wait_ms = 100;  // Don't wait long for the fleet that never comes.

  const CoordRun run = run_distributed(job, cfg, /*workers=*/0);
  ASSERT_TRUE(run.result.complete) << run.result.error;
  EXPECT_TRUE(run.result.stats.degraded);
  EXPECT_TRUE(run.result.stats.reconciles());
  EXPECT_EQ(run.result.stats.local_completed, run.result.stats.shards_total);

  StandardJob ref_job = make_standard_job("quick");
  const JobGrids reference = run_job_in_process(ref_job);
  EXPECT_TRUE(grids_identical(run.grids, reference));
}

TEST(DistEndToEnd, NoWorkersAndNoLocalFallbackFailsCleanly) {
  StandardJob job = make_standard_job("quick");
  CoordinatorConfig cfg;
  cfg.addr = "unix:" + temp_path("e2e_nofallback.sock");
  cfg.job_hash = job.job_hash;
  cfg.worker_wait_ms = 100;

  const CoordRun run =
      run_distributed(job, cfg, /*workers=*/0, /*with_local=*/false);
  EXPECT_FALSE(run.result.complete);
  EXPECT_FALSE(run.result.error.empty());
}

TEST(DistEndToEnd, MismatchedJobHashWorkerIsRefused) {
  StandardJob job = make_standard_job("quick");
  CoordinatorConfig cfg;
  cfg.addr = "unix:" + temp_path("e2e_refuse.sock");
  cfg.job_hash = job.job_hash;
  cfg.worker_wait_ms = 400;  // Refused workers don't count; degrade quickly.

  core::SweepEngine local_engine(*job.model, job.dataset.test_x, job.dataset.test_y,
                                 job_engine_config(job, /*threads=*/1));
  Coordinator coordinator(cfg, job.shards,
                          [&local_engine](const core::SweepShard& s) {
                            return core::run_shard(local_engine, s);
                          });
  std::string error;
  ASSERT_TRUE(coordinator.listen(&error)) << error;

  std::thread impostor([addr = coordinator.bound_addr(),
                        wrong_hash = job.job_hash ^ 1] {
    std::string err;
    Socket sock = dist_connect(addr, &err);
    ASSERT_TRUE(sock.valid()) << err;
    util::ByteWriter w;
    HelloMsg hello;
    hello.proto = kProtoVersion;
    hello.job_hash = wrong_hash;  // A worker built from a drifted recipe.
    hello.name = "impostor";
    encode_hello(w, hello);
    ASSERT_TRUE(send_frame(sock, MsgType::kHello, w.bytes()));
    MsgType type{};
    std::vector<std::uint8_t> payload;
    ASSERT_EQ(recv_frame(sock, 2000, &type, &payload), FrameStatus::kOk);
    ASSERT_EQ(type, MsgType::kHelloAck);
    HelloAckMsg ack;
    util::ByteReader r(payload.data(), payload.size());
    ASSERT_TRUE(decode_hello_ack(r, &ack));
    EXPECT_FALSE(ack.accepted);
    EXPECT_FALSE(ack.reason.empty());
  });

  const CoordinatorResult result = coordinator.run();
  impostor.join();
  ASSERT_TRUE(result.complete) << result.error;
  EXPECT_GE(result.stats.workers_refused, 1);
  EXPECT_EQ(result.stats.workers_seen, 0);
  EXPECT_TRUE(result.stats.degraded);
  EXPECT_TRUE(result.stats.reconciles());
}

TEST(DistEndToEnd, ResumeFromJournalSkipsCompletedShards) {
  const std::string journal = temp_path("e2e_resume.rdj");
  std::remove(journal.c_str());

  // First run: crash the coordinator (simulated) after 5 journal appends.
  {
    fault::FaultConfig fc;
    fc.coord_crash_after = 5;
    fault::ScopedFaultPlan plan(fc);

    StandardJob job = make_standard_job("quick");
    CoordinatorConfig cfg;
    cfg.addr = "unix:" + temp_path("e2e_resume1.sock");
    cfg.job_hash = job.job_hash;
    cfg.journal_path = journal;

    const CoordRun run = run_distributed(job, cfg, /*workers=*/2);
    EXPECT_FALSE(run.result.complete);
  }

  // Second run resumes: journaled shards are not re-run, the rest
  // completes, and the grids are bitwise those of an uninterrupted run.
  StandardJob job = make_standard_job("quick");
  CoordinatorConfig cfg;
  cfg.addr = "unix:" + temp_path("e2e_resume2.sock");
  cfg.job_hash = job.job_hash;
  cfg.journal_path = journal;

  const CoordRun run = run_distributed(job, cfg, /*workers=*/2);
  ASSERT_TRUE(run.result.complete) << run.result.error;
  EXPECT_GE(run.result.stats.journal_resumed, 5);
  EXPECT_TRUE(run.result.stats.reconciles());
  EXPECT_EQ(run.result.stats.journal_resumed + run.result.stats.results_accepted +
                run.result.stats.local_completed,
            run.result.stats.shards_total);
  // Resumed shards were not re-assigned.
  EXPECT_LE(run.result.stats.results_accepted,
            run.result.stats.shards_total - run.result.stats.journal_resumed);

  StandardJob ref_job = make_standard_job("quick");
  const JobGrids reference = run_job_in_process(ref_job);
  EXPECT_TRUE(grids_identical(run.grids, reference));
}

// ---- chunk invariance ------------------------------------------------

TEST(DistPlan, ChunkSizeCannotChangeAssembledValues) {
  StandardJob job = make_standard_job("quick");
  core::SweepEngine engine(*job.model, job.dataset.test_x, job.dataset.test_y,
                           job_engine_config(job, /*threads=*/1));

  // Every plan of the job (curves and all three Step-8 grids), chunked
  // three ways and run shard by shard, assembles bitwise like the whole
  // plan run in process.
  JobGrids whole;
  for (const core::GridPlan& plan : job.plans) core::run_plan(engine, plan, &whole);
  for (std::size_t chunk : {std::size_t{1}, std::size_t{3}, std::size_t{1000}}) {
    JobGrids chunked;
    for (const core::GridPlan& plan : job.plans) {
      std::vector<core::SweepShard> shards;
      core::chunk_plan(plan, chunk, &shards);
      std::vector<core::ShardOutcome> outcomes;
      for (const core::SweepShard& s : shards) outcomes.push_back(core::run_shard(engine, s));
      EXPECT_EQ(core::assemble(plan, outcomes, &chunked), outcomes.size());
    }
    EXPECT_TRUE(grids_identical(chunked, whole)) << "chunk " << chunk;
  }
}

}  // namespace
}  // namespace redcane::dist
