#include "dist/journal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "dist/wire.hpp"
#include "util/bytes.hpp"
#include "util/crc32.hpp"

namespace redcane::dist {
namespace {

constexpr std::uint32_t kMagic = 0x314A4452;  // "RDJ1" as a little-endian u32.
constexpr std::uint32_t kVersion = 1;
constexpr std::uint32_t kHeaderSize = 4 + 4 + 8;
constexpr std::uint32_t kRecordHeaderSize = 4 + 4;

bool write_exact(int fd, const void* data, std::size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

}  // namespace

Journal::~Journal() { close_now(); }

void Journal::close_now() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool Journal::open(const std::string& path, std::uint64_t job_hash,
                   std::vector<core::ShardOutcome>* recovered, std::string* error) {
  close_now();
  stats_ = JournalStats{};
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd_ < 0) {
    if (error) *error = "journal open " + path + ": " + std::strerror(errno);
    return false;
  }
  struct stat st{};
  if (::fstat(fd_, &st) != 0) {
    if (error) *error = "journal stat " + path + ": " + std::strerror(errno);
    close_now();
    return false;
  }

  if (st.st_size == 0) {
    // Fresh journal: write and sync the header before any record.
    util::ByteWriter header;
    header.u32(kMagic);
    header.u32(kVersion);
    header.u64(job_hash);
    if (!write_exact(fd_, header.bytes().data(), header.bytes().size()) ||
        ::fsync(fd_) != 0) {
      if (error) *error = "journal header write " + path + ": " + std::strerror(errno);
      close_now();
      return false;
    }
    return true;
  }

  stats_.existed = true;
  // Parsed in memory: a record longer than the bytes left allocates nothing.
  std::vector<std::uint8_t> file;
  const bool read = util::read_file(path, static_cast<std::size_t>(st.st_size), &file);
  util::ByteReader h(file.data(), file.size());
  std::uint32_t magic = 0, version = 0;
  std::uint64_t stored_hash = 0;
  if (!read || !(h.u32(&magic) && h.u32(&version) && h.u64(&stored_hash)) ||
      magic != kMagic || version != kVersion) {
    if (error) *error = "journal " + path + ": not a v1 run journal";
    close_now();
    return false;
  }
  if (stored_hash != job_hash) {
    // Refuse, don't truncate: the file belongs to a different job and the
    // caller may still want it.
    if (error) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "journal job hash mismatch (journal %016llx, job %016llx) — "
                    "refusing to resume a different grid",
                    static_cast<unsigned long long>(stored_hash),
                    static_cast<unsigned long long>(job_hash));
      *error = std::string(path) + ": " + buf;
    }
    close_now();
    return false;
  }

  // Scan records until the torn tail (if any).
  off_t good_end = kHeaderSize;
  while (true) {
    const std::uint8_t* at = file.data() + good_end;
    util::ByteReader rh(at, file.size() - static_cast<std::size_t>(good_end));
    std::uint32_t len = 0, crc = 0;
    if (!(rh.u32(&len) && rh.u32(&crc)) || len == 0 || len > rh.remaining()) break;
    util::ByteReader r(at + kRecordHeaderSize, len);
    core::ShardOutcome outcome;
    if (util::crc32(at + kRecordHeaderSize, len) != crc || !decode_outcome(r, &outcome)) break;
    if (recovered) recovered->push_back(std::move(outcome));
    ++stats_.records_loaded;
    good_end += static_cast<off_t>(kRecordHeaderSize + len);
  }

  if (good_end < st.st_size) {
    stats_.torn_bytes_truncated = st.st_size - good_end;
    if (::ftruncate(fd_, good_end) != 0) {
      if (error) *error = "journal truncate " + path + ": " + std::strerror(errno);
      close_now();
      return false;
    }
  }
  if (::lseek(fd_, good_end, SEEK_SET) < 0) {
    if (error) *error = "journal seek " + path + ": " + std::strerror(errno);
    close_now();
    return false;
  }
  return true;
}

bool Journal::append(const core::ShardOutcome& outcome) {
  if (fd_ < 0) return false;
  util::ByteWriter payload;
  encode_outcome(payload, outcome);
  const std::vector<std::uint8_t>& p = payload.bytes();
  util::ByteWriter header;
  header.u32(static_cast<std::uint32_t>(p.size()));
  header.u32(util::crc32(p.data(), p.size()));
  if (!write_exact(fd_, header.bytes().data(), header.bytes().size()) ||
      !write_exact(fd_, p.data(), p.size()) || ::fsync(fd_) != 0) {
    // A half-written record is exactly the torn tail load() recovers from.
    close_now();
    return false;
  }
  ++stats_.records_appended;
  return true;
}

}  // namespace redcane::dist
