#include "util/parse.hpp"

#include <cmath>

namespace redcane::util {

bool parse_real(std::string_view text, double* out) {
  double v = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

bool split_key_values(std::string_view text,
                      std::vector<std::pair<std::string_view, std::string_view>>* out) {
  out->clear();
  for (std::size_t at = 0; !text.empty() && at != std::string_view::npos;) {
    const std::size_t comma = text.find(',', at);
    const std::string_view item = text.substr(at, comma - at);
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos || eq == 0) return false;
    out->emplace_back(item.substr(0, eq), item.substr(eq + 1));
    at = comma == std::string_view::npos ? comma : comma + 1;
  }
  return true;
}

}  // namespace redcane::util
