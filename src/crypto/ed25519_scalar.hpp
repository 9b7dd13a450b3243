// Scalar arithmetic modulo the Ed25519 group order
// L = 2^252 + 27742317777372353535851937790883648493.
//
// Internal to crypto/ed25519.cpp; a header of inline functions so that
// tests/crypto_test.cpp can check the reduction against a reference.
//
// Scalars are 32-byte little-endian strings. Reduction is Barrett's
// (HAC 14.42) over 64-bit limbs with mu = floor(2^512 / L): any value below
// 2^512 reduces to [0, L) after at most two final subtractions of L.
#pragma once

#include <cstddef>
#include <cstdint>

namespace dnsboot::crypto::ed25519_detail {

using U128 = unsigned __int128;

// L and floor(2^512 / L), 64-bit limbs, least significant first.
inline constexpr std::uint64_t kOrderL[4] = {
    0x5812631a5cf5d3edULL, 0x14def9dea2f79cd6ULL, 0, 0x1000000000000000ULL};
inline constexpr std::uint64_t kBarrettMu[5] = {
    0xed9ce5a30a2c131bULL, 0x2106215d086329a7ULL, 0xffffffffffffffebULL,
    0xffffffffffffffffULL, 0x000000000000000fULL};

inline std::uint64_t load64_le(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int b = 7; b >= 0; --b) v = v << 8 | p[b];
  return v;
}

inline void store64_le(std::uint8_t* p, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) p[b] = static_cast<std::uint8_t>(v >> (8 * b));
}

// True when the four-limb value s is below L.
inline bool limbs_below_l(const std::uint64_t s[4]) {
  for (int i = 3; i >= 0; --i) {
    if (s[i] != kOrderL[i]) return s[i] < kOrderL[i];
  }
  return false;  // s == L
}

// True when the 32-byte scalar s is below L (RFC 8032 §5.1.7's S check).
inline bool scalar_below_l(const std::uint8_t s[32]) {
  std::uint64_t limbs[4];
  for (std::size_t i = 0; i < 4; ++i) limbs[i] = load64_le(s + 8 * i);
  return limbs_below_l(limbs);
}

// out = x mod L for the 512-bit x (eight limbs, least significant first).
inline void barrett_reduce(std::uint8_t out[32], const std::uint64_t x[8]) {
  // q = floor(floor(x / 2^192) * mu / 2^320) is floor(x / L) or up to two
  // less, so r = x - q * L lies in [0, 3L) and fits the low five limbs.
  std::uint64_t q2[10] = {};
  for (int i = 0; i < 5; ++i) {
    std::uint64_t carry = 0;
    for (int j = 0; j < 5; ++j) {
      const U128 t =
          static_cast<U128>(x[3 + i]) * kBarrettMu[j] + q2[i + j] + carry;
      q2[i + j] = static_cast<std::uint64_t>(t);
      carry = static_cast<std::uint64_t>(t >> 64);
    }
    q2[i + 5] = carry;
  }
  const std::uint64_t* q = q2 + 5;

  // q * L mod 2^320.
  std::uint64_t ql[5] = {};
  for (int i = 0; i < 5; ++i) {
    std::uint64_t carry = 0;
    for (int j = 0; i + j < 5; ++j) {
      const std::uint64_t l = j < 4 ? kOrderL[j] : 0;
      const U128 t = static_cast<U128>(q[i]) * l + ql[i + j] + carry;
      ql[i + j] = static_cast<std::uint64_t>(t);
      carry = static_cast<std::uint64_t>(t >> 64);
    }
  }

  std::uint64_t r[5];
  std::uint64_t borrow = 0;
  for (int i = 0; i < 5; ++i) {
    const U128 t = static_cast<U128>(x[i]) - ql[i] - borrow;
    r[i] = static_cast<std::uint64_t>(t);
    borrow = static_cast<std::uint64_t>(t >> 64) & 1;
  }

  for (int pass = 0; pass < 2 && (r[4] != 0 || !limbs_below_l(r)); ++pass) {
    borrow = 0;
    for (int i = 0; i < 5; ++i) {
      const std::uint64_t l = i < 4 ? kOrderL[i] : 0;
      const U128 t = static_cast<U128>(r[i]) - l - borrow;
      r[i] = static_cast<std::uint64_t>(t);
      borrow = static_cast<std::uint64_t>(t >> 64) & 1;
    }
  }
  for (std::size_t i = 0; i < 4; ++i) store64_le(out + 8 * i, r[i]);
}

// r = h mod L for a 64-byte little-endian h (a SHA-512 output).
inline void scalar_reduce(std::uint8_t r[32], const std::uint8_t h[64]) {
  std::uint64_t x[8];
  for (std::size_t i = 0; i < 8; ++i) x[i] = load64_le(h + 8 * i);
  barrett_reduce(r, x);
}

// r = (a * b + c) mod L for 32-byte little-endian a, b and c. The sum stays
// below 2^512 for any such inputs.
inline void scalar_muladd(std::uint8_t r[32], const std::uint8_t a[32],
                          const std::uint8_t b[32], const std::uint8_t c[32]) {
  std::uint64_t al[4], bl[4];
  for (std::size_t i = 0; i < 4; ++i) {
    al[i] = load64_le(a + 8 * i);
    bl[i] = load64_le(b + 8 * i);
  }
  std::uint64_t x[8] = {};
  for (std::size_t i = 0; i < 4; ++i) x[i] = load64_le(c + 8 * i);
  for (int i = 0; i < 4; ++i) {
    std::uint64_t carry = 0;
    for (int j = 0; j < 4; ++j) {
      const U128 t = static_cast<U128>(al[i]) * bl[j] + x[i + j] + carry;
      x[i + j] = static_cast<std::uint64_t>(t);
      carry = static_cast<std::uint64_t>(t >> 64);
    }
    x[i + 4] = carry;  // row i is the first to reach limb i + 4
  }
  barrett_reduce(r, x);
}

}  // namespace dnsboot::crypto::ed25519_detail
