// Simulated network addresses. An IpAddress is either IPv4 or IPv6; the
// simulator treats them as opaque endpoint identities (there is no routing —
// delivery is by exact address, with anycast pools layered on top).
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <string>

namespace dnsboot::net {

class IpAddress {
 public:
  IpAddress() = default;

  static IpAddress v4(std::array<std::uint8_t, 4> octets);
  static IpAddress v6(std::array<std::uint8_t, 16> octets);
  // Deterministic synthetic addresses for the ecosystem generator: maps an
  // index into 10.x.y.z (v4) or fd00::/8 space (v6).
  static IpAddress synthetic_v4(std::uint32_t index);
  static IpAddress synthetic_v6(std::uint64_t index);

  bool is_v6() const { return is_v6_; }
  const std::array<std::uint8_t, 16>& bytes() const { return bytes_; }
  std::string to_text() const;

  auto operator<=>(const IpAddress&) const = default;

 private:
  // IPv4 stored in the first 4 bytes.
  std::array<std::uint8_t, 16> bytes_{};
  bool is_v6_ = false;
};

// FNV-1a over the address bytes + family, for the unordered routing and
// pacing tables on the datagram hot path.
struct IpAddressHash {
  std::size_t operator()(const IpAddress& address) const noexcept {
    std::uint64_t h = 14695981039346656037ull;
    for (std::uint8_t b : address.bytes()) {
      h ^= b;
      h *= 1099511628211ull;
    }
    h ^= address.is_v6() ? 0x76u : 0x34u;
    h *= 1099511628211ull;
    return static_cast<std::size_t>(h);
  }
};

}  // namespace dnsboot::net
