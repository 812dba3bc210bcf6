// The one byte codec: wire payloads and frame headers, the run journal and
// checkpoints. Explicit little-endian scalars (f64/f32 as IEEE-754 bits),
// strings as u32 length + bytes. Decoders allocate nothing the bytes cannot
// fill: counts are checked against remaining(), files against a cap.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace redcane::util {

/// Append-only little-endian buffer builder.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) { le(v); }
  void u64(std::uint64_t v) { le(v); }
  void f64(double v) { le(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  void f32s(std::span<const float> v) {
    for (const float f : v) le(std::bit_cast<std::uint32_t>(f));
  }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return buf_; }

 private:
  template <typename T>
  void le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked reader over a borrowed buffer. Every getter returns false
/// once any prior read failed (sticky), so decode functions can chain reads
/// and check once.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}

  [[nodiscard]] bool u8(std::uint8_t* v) { return take(v, 1); }
  [[nodiscard]] bool u32(std::uint32_t* v) { return le(v); }
  [[nodiscard]] bool u64(std::uint64_t* v) { return le(v); }
  [[nodiscard]] bool f64(double* v);
  [[nodiscard]] bool str(std::string* s);
  [[nodiscard]] bool f32s(std::span<float> out);
  /// A u32 count of entries of >= `entry_bytes` each that fit in the bytes left.
  [[nodiscard]] bool count(std::size_t entry_bytes, std::uint32_t* n) {
    return u32(n) && (*n <= remaining() / entry_bytes || (ok_ = false));
  }

  /// Unread bytes. Decoders bound every count field by it before
  /// allocating, so an inflated count cannot request more entries than
  /// the input could hold.
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }
  /// True when the input was consumed exactly (trailing garbage is a
  /// decode failure — it means the two sides disagree on the schema).
  [[nodiscard]] bool done() const { return ok_ && pos_ == size_; }

 private:
  [[nodiscard]] bool take(void* out, std::size_t n);
  template <typename T>
  [[nodiscard]] bool le(T* v) {
    std::uint8_t b[sizeof(T)];
    if (!take(b, sizeof(T))) return false;
    *v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) *v |= static_cast<T>(b[i]) << (8 * i);
    return true;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Reads the whole file at `path` into `out`. False when it cannot be read
/// or holds more than `max_bytes` bytes.
[[nodiscard]] bool read_file(const std::string& path, std::size_t max_bytes,
                             std::vector<std::uint8_t>* out);

/// Writes `n` bytes to `path`, replacing it. False on any I/O failure.
[[nodiscard]] bool write_file(const std::string& path, const void* data, std::size_t n);

}  // namespace redcane::util
