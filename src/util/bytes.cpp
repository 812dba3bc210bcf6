#include "util/bytes.hpp"

#include <cstdio>
#include <cstring>

namespace redcane::util {

bool ByteReader::take(void* out, std::size_t n) {
  if (!ok_ || remaining() < n) return ok_ = false;
  std::memcpy(out, data_ + pos_, n);
  pos_ += n;
  return true;
}

bool ByteReader::f64(double* v) {
  std::uint64_t bits = 0;
  if (!le(&bits)) return false;
  *v = std::bit_cast<double>(bits);
  return true;
}

bool ByteReader::str(std::string* s) {
  std::uint32_t n = 0;
  if (!u32(&n) || remaining() < n) return ok_ = false;
  s->assign(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return true;
}

bool ByteReader::f32s(std::span<float> out) {
  for (float& f : out) {
    std::uint32_t bits = 0;
    if (!le(&bits)) return false;
    f = std::bit_cast<float>(bits);
  }
  return true;
}

bool read_file(const std::string& path, std::size_t max_bytes,
               std::vector<std::uint8_t>* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  out->clear();
  bool ok = true;
  std::uint8_t buf[1 << 14];
  for (std::size_t n = sizeof(buf); ok && n == sizeof(buf);) {
    n = std::fread(buf, 1, sizeof(buf), f);
    ok = n <= max_bytes - out->size() && std::ferror(f) == 0;
    if (ok) out->insert(out->end(), buf, buf + n);
  }
  std::fclose(f);
  return ok;
}

bool write_file(const std::string& path, const void* data, std::size_t n) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool wrote = n == 0 || std::fwrite(data, 1, n, f) == n;
  return std::fclose(f) == 0 && wrote;
}

}  // namespace redcane::util
