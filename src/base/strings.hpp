// Small ASCII string helpers. DNS is ASCII-case-insensitive, so lowering is
// done with an explicit ASCII table rather than locale-dependent tolower.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace dnsboot {

// Inline: called per octet on the name-comparison and canonicalization hot
// paths (an out-of-line call per character dominated survey profiles).
constexpr char ascii_lower(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}
std::string ascii_lower(std::string_view s);
constexpr bool ascii_iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (ascii_lower(a[i]) != ascii_lower(b[i])) return false;
  }
  return true;
}
bool starts_with(std::string_view s, std::string_view prefix);

// Multiply-xorshift hash of a short byte string, eight bytes per step, for
// in-memory tables (DNS names, the name compressor's suffixes). It reads
// words in host byte order, so its values must never reach output or
// order anything.
inline std::uint64_t hash_short(std::string_view bytes) {
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ull;
  std::uint64_t h = bytes.size();
  const char* p = bytes.data();
  std::size_t n = bytes.size();
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    h = (h ^ word) * kMul;
    h ^= h >> 29;
  }
  std::uint64_t tail = 0;
  if (n > 0) std::memcpy(&tail, p, n);
  h = (h ^ tail) * kMul;
  return h ^ (h >> 32);
}

// Split on a single delimiter; empty fields preserved.
std::vector<std::string> split(std::string_view s, char delim);
// Split on runs of whitespace; no empty fields.
std::vector<std::string> split_whitespace(std::string_view s);
std::string join(const std::vector<std::string>& parts, std::string_view sep);
std::string trim(std::string_view s);

// Thousands-separated integer formatting for report tables ("56 446 359",
// as typeset in the paper).
std::string format_count(std::uint64_t n);
// Fixed-precision percentage, e.g. format_percent(0.123456, 1) == "12.3".
std::string format_percent(double fraction, int decimals = 1);

}  // namespace dnsboot
