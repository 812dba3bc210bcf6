// The one number rule and `key=value,...` splitter for outside text. A
// number is accepted only as a whole token (no whitespace, no '+'); a real
// must be finite; an integer must be exact and in its field's range, never
// wrapped, truncated or rounded — std::from_chars's rule. List items need an
// '=' and a key; an empty item is an error; an empty list has zero items.
#pragma once

#include <charconv>
#include <limits>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace redcane::util {

[[nodiscard]] bool parse_real(std::string_view text, double* out);

/// An exact decimal integer of T in [lo, hi]. `*out` changes only on success.
template <typename T>
[[nodiscard]] bool parse_int(std::string_view text, T* out,
                             std::type_identity_t<T> lo = std::numeric_limits<T>::min(),
                             std::type_identity_t<T> hi = std::numeric_limits<T>::max()) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || v < lo || v > hi) return false;
  *out = v;
  return true;
}

/// Splits "k1=v1,k2=v2" into (key, value) views into `text`.
[[nodiscard]] bool split_key_values(
    std::string_view text, std::vector<std::pair<std::string_view, std::string_view>>* out);

}  // namespace redcane::util
