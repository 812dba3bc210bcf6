// Crash-safe run journal of the distributed sweep coordinator.
//
// Append-only file of completed-shard records, fsync'd per append, so a
// coordinator killed mid-run resumes without re-running any shard whose
// result already reached disk. Layout:
//
//   header:  magic "RDJ1" | u32 version | u64 job_hash
//   records: repeated  u32 len | u32 crc32(payload) | payload
//
// where payload is the wire encoding of one core::ShardOutcome (the same
// encoder the socket frames use — one serialization, two transports).
// Doubles are stored as IEEE-754 bit patterns, so a resumed grid is
// *bitwise* identical to the uninterrupted run.
//
// A crash can tear only the last record (appends are sequential and
// fsync'd). load() therefore scans until the first short/corrupt record,
// truncates the file back to the last good byte, and reports the torn
// bytes — the interrupted shard simply re-runs. A journal whose
// job_hash does not match refuses to load: resuming a different grid
// geometry or different weights would splice unrelated accuracies into
// the curves.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/sweep_plan.hpp"

namespace redcane::dist {

struct JournalStats {
  bool existed = false;                   ///< File was present before open.
  std::int64_t records_loaded = 0;        ///< Valid records recovered.
  std::int64_t torn_bytes_truncated = 0;  ///< Bytes cut from a torn tail.
  std::int64_t records_appended = 0;      ///< Appends this session.
};

/// One coordinator's journal handle. Not thread-safe: the coordinator
/// serializes appends under its state mutex.
class Journal {
 public:
  Journal() = default;
  ~Journal();
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Opens (creating if absent) the journal at `path` for `job_hash`,
  /// recovering every intact record into `recovered`. False + `error` on
  /// I/O failure, bad header, or job-hash mismatch.
  [[nodiscard]] bool open(const std::string& path, std::uint64_t job_hash,
                          std::vector<core::ShardOutcome>* recovered,
                          std::string* error);

  /// Appends one record and fsyncs. False on I/O failure — the
  /// coordinator then degrades to journal-less operation (completing the
  /// run still works; only crash-resume is lost).
  [[nodiscard]] bool append(const core::ShardOutcome& outcome);

  [[nodiscard]] bool is_open() const { return fd_ >= 0; }
  [[nodiscard]] const JournalStats& stats() const { return stats_; }

  void close_now();

 private:
  int fd_ = -1;
  JournalStats stats_;
};

}  // namespace redcane::dist
