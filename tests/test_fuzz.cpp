// Deterministic fuzz suite of every decoder of outside input:
//  * dist wire payloads (every message type) and framed messages;
//  * RDJ1 run journals;
//  * model checkpoints;
//  * deployment manifests;
//  * the attack and fault grammars.
//
// Seeds are real encodings (the quick job's first Assign, a Result, a
// 3-record journal, a CapsNet-tiny checkpoint, manifest_to_text output, the
// accept lists of test_attack and test_chaos). Each iteration applies one
// to three mutations — bit flip, truncation, appended bytes, a u32
// overwritten with 0xFFFFFFFF, a splice with another seed — under a fixed
// mutator seed and a fixed iteration count, so every run replays the same
// inputs. Invariants:
//  * a binary decoder rejects its input, or re-encoding the result
//    reproduces the input bytes (decoders are canonical);
//  * the journal recovers a prefix of its records, bitwise, and leaves
//    exactly those records on disk;
//  * a failed load_params leaves the model unchanged;
//  * a manifest is rejected, or it survives to_text/from_text field for
//    field;
//  * every accepted attack spec passes the wire decoder;
//  * every accepted fault spec has its probabilities in [0, 1].
// No input may crash or trip a sanitizer: CI runs this suite under
// ASan+UBSan with a 64 MB cap on any single allocation. A failing input is
// printed as hex; it stays in the suite as a named case.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "attack/attack.hpp"
#include "capsnet/capsnet_model.hpp"
#include "capsnet/serialize.hpp"
#include "core/manifest.hpp"
#include "dist/job.hpp"
#include "dist/journal.hpp"
#include "dist/wire.hpp"
#include "util/bytes.hpp"
#include "util/crc32.hpp"
#include "util/fault.hpp"
#include "util/hash.hpp"

namespace redcane {
namespace {

using Bytes = std::vector<std::uint8_t>;

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

Bytes bytes_of(const std::string& s) { return Bytes(s.begin(), s.end()); }

std::string hex(const Bytes& b) {
  std::string out;
  char buf[3];
  for (const std::uint8_t c : b) {
    std::snprintf(buf, sizeof(buf), "%02x", c);
    out += buf;
  }
  return out;
}

void write_bytes(const std::string& path, const Bytes& b) {
  ASSERT_TRUE(util::write_file(path, b.data(), b.size())) << path;
}

Bytes read_bytes(const std::string& path) {
  Bytes b;
  EXPECT_TRUE(util::read_file(path, std::size_t{1} << 26, &b)) << path;
  return b;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// ---- mutator -----------------------------------------------------------

class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() { return util::splitmix64(state_++); }
  std::size_t below(std::size_t n) { return n == 0 ? 0 : static_cast<std::size_t>(next() % n); }

  /// One to three stacked mutations of `b`; splices draw from `partners`.
  Bytes mutate(Bytes b, const std::vector<Bytes>& partners) {
    const std::size_t rounds = 1 + below(3);
    for (std::size_t k = 0; k < rounds; ++k) {
      switch (below(5)) {
        case 0:  // Bit flip.
          if (!b.empty()) b[below(b.size())] ^= static_cast<std::uint8_t>(1u << below(8));
          break;
        case 1:  // Truncation.
          b.resize(below(b.size() + 1));
          break;
        case 2:  // Appended bytes.
          for (std::size_t n = 1 + below(16); n > 0; --n) {
            b.push_back(static_cast<std::uint8_t>(next()));
          }
          break;
        case 3:  // A u32 overwritten with 0xFFFFFFFF.
          if (b.size() >= 4) {
            std::fill_n(b.begin() + static_cast<std::ptrdiff_t>(below(b.size() - 3)), 4, 0xFF);
          }
          break;
        default: {  // Splice: a prefix of this input, a suffix of another seed.
          const Bytes& other = partners[below(partners.size())];
          b.resize(below(b.size() + 1));
          b.insert(b.end(), other.begin() + static_cast<std::ptrdiff_t>(below(other.size() + 1)),
                   other.end());
        }
      }
    }
    return b;
  }

 private:
  std::uint64_t state_;
};

/// Runs `check` on every seed, then on `iterations` mutants. Stops at the
/// first failure and prints the input that caused it.
void fuzz(const std::vector<Bytes>& seeds, const std::vector<Bytes>& partners,
          std::uint64_t seed, int iterations, const std::function<void(const Bytes&)>& check) {
  for (const Bytes& s : seeds) {
    check(s);
    ASSERT_FALSE(::testing::Test::HasFailure()) << "seed input " << hex(s);
  }
  Mutator m(seed);
  for (int i = 0; i < iterations; ++i) {
    const Bytes input = m.mutate(seeds[m.below(seeds.size())], partners);
    check(input);
    ASSERT_FALSE(::testing::Test::HasFailure()) << "iteration " << i << " input " << hex(input);
  }
}

// ---- seeds ---------------------------------------------------------------

struct WireSeed {
  dist::MsgType type;
  Bytes payload;
};

template <typename Msg>
Bytes encoded(void (*encode)(util::ByteWriter&, const Msg&), const Msg& m) {
  util::ByteWriter w;
  encode(w, m);
  return w.bytes();
}

core::ShardOutcome sample_outcome(std::uint64_t id) {
  core::ShardOutcome o;
  o.id = id;
  o.base = 0.8125;
  o.acc = {0.75, 0.5, 0.1234567891234567, 0.0, 1.0};
  return o;
}

const std::vector<WireSeed>& wire_seeds() {
  static const std::vector<WireSeed> seeds = [] {
    const dist::StandardJob job = dist::make_standard_job("quick");
    dist::HelloMsg hello;
    hello.job_hash = job.job_hash;
    hello.name = "worker-0";
    dist::HelloAckMsg ack;
    ack.accepted = true;
    ack.worker_id = 2;
    dist::HelloAckMsg refusal;
    refusal.reason = "job hash mismatch";
    dist::AssignMsg assign;
    assign.trace_id = 0x1234;
    assign.shard = job.shards.front();
    dist::ResultMsg result;
    result.trace_id = 0x1234;
    result.exec_us = 5000;
    result.base_us = 1200;
    result.points_us = 3800;
    result.rtt_us = 90;
    result.outcome = sample_outcome(job.shards.front().id);
    std::vector<WireSeed> out = {
        {dist::MsgType::kHello, encoded(dist::encode_hello, hello)},
        {dist::MsgType::kHelloAck, encoded(dist::encode_hello_ack, ack)},
        {dist::MsgType::kHelloAck, encoded(dist::encode_hello_ack, refusal)},
        {dist::MsgType::kAssign, encoded(dist::encode_assign, assign)},
        {dist::MsgType::kResult, encoded(dist::encode_result, result)},
        {dist::MsgType::kHeartbeat, encoded(dist::encode_heartbeat, dist::HeartbeatMsg{3, 77, 9})},
        {dist::MsgType::kHeartbeatAck,
         encoded(dist::encode_heartbeat_ack, dist::HeartbeatAckMsg{77})},
        {dist::MsgType::kShutdown, Bytes{}},
    };
    // A shard whose rules carry every optional-field combination.
    dist::AssignMsg rules = assign;
    rules.shard.points.resize(1);
    rules.shard.points[0].rules = {
        noise::group_rule(capsnet::OpKind::kMacOutput, {0.5, 0.1}),
        noise::layer_rule(capsnet::OpKind::kSoftmax, "Caps1", {0.2, 0.0}), noise::InjectionRule{}};
    out.push_back({dist::MsgType::kAssign, encoded(dist::encode_assign, rules)});
    return out;
  }();
  return seeds;
}

std::vector<Bytes> payloads_of(const std::vector<WireSeed>& seeds) {
  std::vector<Bytes> out;
  for (const WireSeed& s : seeds) out.push_back(s.payload);
  return out;
}

/// The exact bytes send_frame puts on the wire.
Bytes framed(dist::MsgType type, const Bytes& payload) {
  int fds[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  dist::Socket writer(fds[0]);
  dist::Socket reader(fds[1]);
  EXPECT_TRUE(dist::send_frame(writer, type, payload));
  writer.close_now();
  Bytes out;
  std::uint8_t buf[4096];
  for (ssize_t n; (n = ::recv(reader.fd(), buf, sizeof(buf), 0)) > 0;) {
    out.insert(out.end(), buf, buf + n);
  }
  return out;
}

constexpr std::uint64_t kJournalJob = 0x4AD8AA9A;

const std::vector<core::ShardOutcome>& journal_records() {
  static const std::vector<core::ShardOutcome> records = {
      sample_outcome(0), sample_outcome(1), core::ShardOutcome{2, 0.5, {}}};
  return records;
}

/// An RDJ1 journal holding journal_records(), and the file offset after
/// each record (offsets[k] = bytes of the header and the first k records).
struct JournalSeed {
  Bytes bytes;
  std::vector<std::size_t> offsets;
};

const JournalSeed& journal_seed() {
  static const JournalSeed seed = [] {
    const std::string path = temp_path("fuzz_seed.rdj");
    std::remove(path.c_str());
    JournalSeed s;
    dist::Journal j;
    std::vector<core::ShardOutcome> none;
    std::string error;
    EXPECT_TRUE(j.open(path, kJournalJob, &none, &error)) << error;
    s.offsets.push_back(read_bytes(path).size());
    for (const core::ShardOutcome& o : journal_records()) {
      EXPECT_TRUE(j.append(o));
      s.offsets.push_back(read_bytes(path).size());
    }
    j.close_now();
    s.bytes = read_bytes(path);
    return s;
  }();
  return seed;
}

capsnet::CapsNetConfig checkpoint_config() {
  capsnet::CapsNetConfig cfg = capsnet::CapsNetConfig::tiny();
  cfg.input_hw = 20;  // Keeps the checkpoint small: 2x2 primary grid.
  return cfg;
}

const Bytes& checkpoint_seed() {
  static const Bytes seed = [] {
    Rng rng(101);
    capsnet::CapsNetModel model(checkpoint_config(), rng);
    const std::string path = temp_path("fuzz_seed.rdcn");
    EXPECT_TRUE(capsnet::save_params(model, path));
    return read_bytes(path);
  }();
  return seed;
}

const Bytes& manifest_seed() {
  static const Bytes seed = [] {
    core::DeploymentManifest m;
    m.model = "CapsNet";
    m.profile = "tiny";
    m.input_hw = 20;
    m.input_channels = 1;
    m.num_classes = 10;
    m.checkpoint = "my designs/model v2.rdcn";
    m.noise_seed = 909;
    m.baseline_accuracy = 0.8125;
    const char* layers[] = {"Conv1", "PrimaryCaps", "ClassCaps"};
    for (const char* layer : layers) {
      core::ManifestSite s;
      s.site = {layer, capsnet::OpKind::kMacOutput};
      s.component = "axm_drum3_jv3";
      s.nm = 0.05;
      s.na = -0.001;
      s.tolerable_nm = 0.1;
      m.sites.push_back(s);
    }
    core::ManifestSite act;
    act.site = {"Conv1", capsnet::OpKind::kActivation};
    m.sites.push_back(act);
    return bytes_of(core::manifest_to_text(m));
  }();
  return seed;
}

std::vector<Bytes> attack_seeds() {
  std::vector<Bytes> out;
  for (const char* s : {"none", "fgsm:eps=0.1", "pgd:eps=0.1,steps=5,step=0.02", "pgd:eps=0.1",
                        "rotate:deg=15", "translate:px=2", "scale:factor=1.2",
                        "translate:px=1e300", "translate:px=-1e300", "scale:factor=1e-320"}) {
    out.push_back(bytes_of(s));
  }
  return out;
}

std::vector<Bytes> fault_seeds() {
  std::vector<Bytes> out;
  for (const char* s :
       {"seed=7,stall=0.25,stall_us=1500,backend=0.1,ckpt=0.5,full=1,pressure=1", "",
        "seed=9007199254740993,kill_after=3,kill_name=w1"}) {
    out.push_back(bytes_of(s));
  }
  return out;
}

/// Every seed of every target: the splice partners of a target.
std::vector<Bytes> all_seeds() {
  std::vector<Bytes> out = payloads_of(wire_seeds());
  out.push_back(journal_seed().bytes);
  out.push_back(checkpoint_seed());
  out.push_back(manifest_seed());
  for (const Bytes& b : attack_seeds()) out.push_back(b);
  for (const Bytes& b : fault_seeds()) out.push_back(b);
  return out;
}

// ---- invariants ----------------------------------------------------------

/// Decodes `in` as a Msg: a rejection, or a message that re-encodes to
/// exactly `in`.
template <typename Msg>
bool rejects_or_round_trips(const Bytes& in, bool (*decode)(util::ByteReader&, Msg*),
                            void (*encode)(util::ByteWriter&, const Msg&), const char* what) {
  Msg msg;
  util::ByteReader r(in.data(), in.size());
  if (!decode(r, &msg)) return false;
  EXPECT_EQ(encoded(encode, msg), in) << what << " accepted non-canonical bytes";
  return true;
}

/// Every payload decoder sees every input, whatever type it was seeded as.
int check_wire_payload(const Bytes& in) {
  return rejects_or_round_trips(in, dist::decode_hello, dist::encode_hello, "Hello") +
         rejects_or_round_trips(in, dist::decode_hello_ack, dist::encode_hello_ack, "HelloAck") +
         rejects_or_round_trips(in, dist::decode_heartbeat, dist::encode_heartbeat, "Heartbeat") +
         rejects_or_round_trips(in, dist::decode_heartbeat_ack, dist::encode_heartbeat_ack,
                                "HeartbeatAck") +
         rejects_or_round_trips(in, dist::decode_assign, dist::encode_assign, "Assign") +
         rejects_or_round_trips(in, dist::decode_result, dist::encode_result, "Result") +
         rejects_or_round_trips(in, dist::decode_shard, dist::encode_shard, "SweepShard") +
         rejects_or_round_trips(in, dist::decode_outcome, dist::encode_outcome, "ShardOutcome");
}

/// A received frame is a CRC-verified prefix of the bytes sent.
bool check_frame(const Bytes& in) {
  int fds[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  dist::Socket writer(fds[0]);
  dist::Socket reader(fds[1]);
  if (!in.empty()) {
    EXPECT_EQ(::send(writer.fd(), in.data(), in.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(in.size()));
  }
  writer.close_now();
  dist::MsgType type{};
  Bytes payload;
  if (dist::recv_frame(reader, 1000, &type, &payload) != dist::FrameStatus::kOk) return false;
  const Bytes again = framed(type, payload);
  EXPECT_LE(again.size(), in.size());
  EXPECT_TRUE(again.size() <= in.size() && std::equal(again.begin(), again.end(), in.begin()))
      << "frame accepted bytes send_frame would not write";
  return true;
}

bool same_outcome(const core::ShardOutcome& a, const core::ShardOutcome& b) {
  if (a.id != b.id || !same_bits(a.base, b.base) || a.acc.size() != b.acc.size()) return false;
  for (std::size_t i = 0; i < a.acc.size(); ++i) {
    if (!same_bits(a.acc[i], b.acc[i])) return false;
  }
  return true;
}

/// Opens `in` as a journal: refused, or a prefix of the seed's records,
/// which is then exactly what stays on disk.
bool check_journal(const Bytes& in) {
  const std::string path = temp_path("fuzz.rdj");
  write_bytes(path, in);
  dist::Journal j;
  std::vector<core::ShardOutcome> recovered;
  std::string error;
  if (!j.open(path, kJournalJob, &recovered, &error)) return false;
  j.close_now();
  const JournalSeed& seed = journal_seed();
  EXPECT_LE(recovered.size(), journal_records().size());
  if (recovered.size() > journal_records().size()) return true;
  for (std::size_t i = 0; i < recovered.size(); ++i) {
    EXPECT_TRUE(same_outcome(recovered[i], journal_records()[i])) << "record " << i;
  }
  const auto kept_end = static_cast<std::ptrdiff_t>(seed.offsets[recovered.size()]);
  const Bytes kept(seed.bytes.begin(), seed.bytes.begin() + kept_end);
  EXPECT_EQ(read_bytes(path), kept) << "journal left bytes other than its recovered records";
  return true;
}

std::vector<float> flat_params(capsnet::CapsModel& model) {
  std::vector<float> out;
  for (nn::Param* p : model.params()) {
    out.insert(out.end(), p->value.data().begin(), p->value.data().end());
  }
  return out;
}

bool same_floats(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](float x, float y) {
           return std::bit_cast<std::uint32_t>(x) == std::bit_cast<std::uint32_t>(y);
         });
}

bool same_manifest(const core::DeploymentManifest& a, const core::DeploymentManifest& b) {
  if (a.model != b.model || a.profile != b.profile || a.input_hw != b.input_hw ||
      a.input_channels != b.input_channels || a.num_classes != b.num_classes ||
      a.checkpoint != b.checkpoint || a.noise_seed != b.noise_seed ||
      !same_bits(a.baseline_accuracy, b.baseline_accuracy) || a.sites.size() != b.sites.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.sites.size(); ++i) {
    const core::ManifestSite& x = a.sites[i];
    const core::ManifestSite& y = b.sites[i];
    if (x.site.layer != y.site.layer || x.site.kind != y.site.kind ||
        x.component != y.component || !same_bits(x.nm, y.nm) || !same_bits(x.na, y.na) ||
        !same_bits(x.tolerable_nm, y.tolerable_nm)) {
      return false;
    }
  }
  return true;
}

bool check_manifest(const Bytes& in) {
  const std::string text(in.begin(), in.end());
  core::DeploymentManifest m;
  if (!core::manifest_from_text(text, m)) return false;
  core::DeploymentManifest back;
  EXPECT_TRUE(core::manifest_from_text(core::manifest_to_text(m), back));
  EXPECT_TRUE(same_manifest(m, back)) << "manifest changed through to_text/from_text";
  return true;
}

bool check_attack_spec(const Bytes& in) {
  attack::AttackSpec spec;
  std::string error;
  if (!attack::parse_attack_spec(std::string(in.begin(), in.end()), &spec, &error)) {
    EXPECT_FALSE(error.empty());
    return false;
  }
  const Bytes wire = encoded(dist::encode_attack_spec, spec);
  attack::AttackSpec back;
  util::ByteReader r(wire.data(), wire.size());
  EXPECT_TRUE(dist::decode_attack_spec(r, &back) && r.done()) << "spec " << spec.key();
  EXPECT_EQ(encoded(dist::encode_attack_spec, back), wire);
  return true;
}

bool check_fault_spec(const Bytes& in) {
  fault::FaultConfig fc;
  if (!fault::parse_spec(std::string(in.begin(), in.end()), fc)) return false;
  for (const double p : {fc.worker_stall_prob, fc.backend_fail_prob, fc.checkpoint_corrupt_prob,
                         fc.heartbeat_drop_prob, fc.frame_corrupt_prob, fc.sock_stall_prob}) {
    EXPECT_TRUE(p >= 0.0 && p <= 1.0) << p;
  }
  for (const std::int64_t us : {fc.worker_stall_us, fc.heartbeat_delay_us, fc.sock_stall_us}) {
    EXPECT_GE(us, 0);
  }
  return true;
}

// ---- fuzz targets --------------------------------------------------------

TEST(Fuzz, WirePayloadsRejectOrRoundTrip) {
  int accepted = 0;
  fuzz(payloads_of(wire_seeds()), all_seeds(), 1, 20000,
       [&](const Bytes& in) { accepted += check_wire_payload(in) > 0; });
  RecordProperty("accepted", accepted);
  EXPECT_GT(accepted, 1000) << "mutants never reach the accept path";
}

TEST(Fuzz, FramesAreCrcVerifiedPrefixesOfTheInput) {
  std::vector<Bytes> frames;
  for (const WireSeed& s : wire_seeds()) frames.push_back(framed(s.type, s.payload));
  int accepted = 0;
  fuzz(frames, all_seeds(), 2, 2000, [&](const Bytes& in) { accepted += check_frame(in); });
  RecordProperty("accepted", accepted);
  EXPECT_GT(accepted, 50);
}

TEST(Fuzz, JournalRecoversAPrefixOfItsRecords) {
  // Splicing the journal with itself can legitimately repeat a record, so
  // its partners are the other formats' seeds.
  std::vector<Bytes> partners = all_seeds();
  std::erase(partners, journal_seed().bytes);
  int accepted = 0;
  fuzz({journal_seed().bytes}, partners, 3, 2000,
       [&](const Bytes& in) { accepted += check_journal(in); });
  RecordProperty("accepted", accepted);
  EXPECT_GT(accepted, 500);
}

TEST(Fuzz, FailedCheckpointLoadLeavesTheModelUnchanged) {
  Rng rng(102);  // Not the seed checkpoint's init.
  capsnet::CapsNetModel target(checkpoint_config(), rng);
  std::vector<float> current = flat_params(target);
  const std::string path = temp_path("fuzz.rdcn");
  const std::string resaved = temp_path("fuzz_resaved.rdcn");
  Mutator reseal(4);
  int accepted = 0;
  fuzz({checkpoint_seed()}, all_seeds(), 5, 1200, [&](const Bytes& mutant) {
    // Half the mutants get a valid CRC footer, so the count and size checks
    // behind the checksum see them too.
    Bytes in = mutant;
    if (in.size() >= 8 && reseal.below(2) == 0) {
      const std::uint32_t crc = util::crc32(in.data() + 4, in.size() - 8);
      for (int i = 0; i < 4; ++i) in[in.size() - 4 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
    }
    write_bytes(path, in);
    if (!capsnet::load_params(target, path)) {
      EXPECT_TRUE(same_floats(flat_params(target), current)) << "failed load changed the model";
      return;
    }
    ++accepted;
    current = flat_params(target);
    ASSERT_TRUE(capsnet::save_params(target, resaved));
    EXPECT_EQ(read_bytes(resaved), in) << "accepted checkpoint does not re-encode to itself";
  });
  RecordProperty("accepted", accepted);
  EXPECT_GT(accepted, 40);
}

TEST(Fuzz, ManifestRejectsOrRoundTrips) {
  int accepted = 0;
  fuzz({manifest_seed()}, all_seeds(), 6, 20000,
       [&](const Bytes& in) { accepted += check_manifest(in); });
  RecordProperty("accepted", accepted);
  EXPECT_GT(accepted, 500);
}

TEST(Fuzz, AcceptedAttackSpecsPassTheWireDecoder) {
  int accepted = 0;
  fuzz(attack_seeds(), all_seeds(), 7, 20000,
       [&](const Bytes& in) { accepted += check_attack_spec(in); });
  RecordProperty("accepted", accepted);
  EXPECT_GT(accepted, 100);
}

TEST(Fuzz, AcceptedFaultSpecsKeepProbabilitiesInRange) {
  int accepted = 0;
  fuzz(fault_seeds(), all_seeds(), 8, 20000,
       [&](const Bytes& in) { accepted += check_fault_spec(in); });
  RecordProperty("accepted", accepted);
  EXPECT_GT(accepted, 1000);
}

// Inputs the fuzzer found, kept as named cases.
TEST(Fuzz, NamedCases) {
  // A HelloAck whose `accepted` byte is 0x4D: found against a decoder that
  // read any non-zero byte as true, which re-encodes as 0x01.
  EXPECT_EQ(check_wire_payload({0x4D, 0, 0, 0, 0, 0, 0, 0, 0}), 0);

  // An Assign whose emulated shard asks for 9-bit codes: the frame
  // decodes and re-encodes to itself, so only the range check refuses it
  // (the table build it reached wrote past a 16-entry stack array).
  dist::AssignMsg wide;
  wide.shard = dist::make_standard_job("quick").shards.front();
  wide.shard.backend = core::ShardBackend::kEmulated;
  wide.shard.bits = 9;
  EXPECT_EQ(check_wire_payload(encoded(dist::encode_assign, wide)), 0);

  // A record header claiming 0xFFFFFFFF payload bytes after the three good
  // records: a torn tail, refused before anything is sized for it.
  Bytes inflated = journal_seed().bytes;
  inflated.insert(inflated.end(), {0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 1, 2, 3});
  EXPECT_TRUE(check_journal(inflated));
  dist::Journal j;
  std::vector<core::ShardOutcome> recovered;
  std::string error;
  ASSERT_TRUE(j.open(temp_path("fuzz.rdj"), kJournalJob, &recovered, &error)) << error;
  EXPECT_EQ(recovered.size(), journal_records().size());
}

}  // namespace
}  // namespace redcane
