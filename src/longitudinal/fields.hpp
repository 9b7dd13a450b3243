// Field decoding shared by the journal and snapshot codecs. Both formats are
// tab-separated text whose integers the encoders print with "%" PRIu64, so
// decoding accepts exactly that spelling: ASCII digits filling the whole
// field, value within uint64. A sign, a leading space or an out-of-range
// value is a corrupt field, never a number.
#pragma once

#include <charconv>
#include <cstdint>
#include <string_view>
#include <vector>

namespace dnsboot::longitudinal {

inline std::vector<std::string_view> split_tabs(std::string_view line) {
  std::vector<std::string_view> fields;
  std::size_t start = 0;
  while (true) {
    std::size_t tab = line.find('\t', start);
    if (tab == std::string_view::npos) {
      fields.push_back(line.substr(start));
      return fields;
    }
    fields.push_back(line.substr(start, tab - start));
    start = tab + 1;
  }
}

inline bool parse_u64(std::string_view text, std::uint64_t* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

}  // namespace dnsboot::longitudinal
