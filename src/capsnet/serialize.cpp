#include "capsnet/serialize.hpp"

#include <algorithm>

#include "util/bytes.hpp"
#include "util/crc32.hpp"

namespace redcane::capsnet {

constexpr std::uint32_t kMagic = 0x32434452;  // "RDC2" as a little-endian u32.

std::uint64_t checkpoint_bytes(const ParamLayout& layout) {
  return 16 + 8 * static_cast<std::uint64_t>(layout.tensors) +
         4 * static_cast<std::uint64_t>(layout.floats);
}

bool save_params(CapsModel& model, const std::string& path) {
  const std::vector<nn::Param*> params = model.params();
  util::ByteWriter w;
  w.u32(kMagic);
  w.u64(params.size());
  for (nn::Param* p : params) {
    w.u64(static_cast<std::uint64_t>(p->value.numel()));
    w.f32s(p->value.data());
  }
  const std::vector<std::uint8_t>& b = w.bytes();
  w.u32(util::crc32(b.data() + 4, b.size() - 4));
  return util::write_file(path, b.data(), b.size());
}

bool load_params(CapsModel& model, const std::string& path) {
  const std::vector<nn::Param*> params = model.params();
  ParamLayout layout{static_cast<std::int64_t>(params.size()), 0};
  for (nn::Param* p : params) layout.floats += p->value.numel();
  const std::uint64_t size = checkpoint_bytes(layout);
  std::vector<std::uint8_t> file;
  if (!util::read_file(path, size, &file) || file.size() != size) return false;

  // Stage every float; the model is written only once all checks passed.
  std::vector<float> staged(static_cast<std::size_t>(layout.floats));
  util::ByteReader r(file.data(), file.size());
  std::uint32_t magic = 0, crc = 0;
  std::uint64_t count = 0;
  bool ok = r.u32(&magic) && magic == kMagic && r.u64(&count) && count == params.size();
  std::size_t at = 0;
  for (nn::Param* p : params) {
    const auto n = static_cast<std::size_t>(p->value.numel());
    std::uint64_t stored_n = 0;
    ok = ok && r.u64(&stored_n) && stored_n == n &&
         r.f32s(std::span<float>(staged).subspan(at, n));
    at += n;
  }
  if (!(ok && r.u32(&crc) && r.done() && crc == util::crc32(file.data() + 4, size - 8))) {
    return false;
  }
  at = 0;
  for (nn::Param* p : params) {
    std::copy_n(staged.begin() + static_cast<std::ptrdiff_t>(at), p->value.numel(),
                p->value.data().begin());
    at += static_cast<std::size_t>(p->value.numel());
  }
  return true;
}

}  // namespace redcane::capsnet
