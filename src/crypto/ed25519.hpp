// Ed25519 (RFC 8032) — DNSSEC signature algorithm 15 (RFC 8080).
//
// Self-contained implementation: radix-2^51 field arithmetic over
// GF(2^255-19), Edwards point arithmetic in ref10's coordinate forms, and
// Barrett reduction mod the group order L (crypto/ed25519_scalar.hpp). Base-
// point multiples come from a signed radix-256 table of affine points built
// on first use (480 KiB); the verifier's [k]A uses signed radix-16 digits.
// Validated against the RFC 8032 test vectors and a golden digest of keys,
// signatures and verdicts in tests/crypto_test.cpp.
//
// NOTE: This implementation is *not* constant-time. dnsboot signs synthetic
// zones inside a simulator; it never holds keys that protect real data. The
// variable-time scalar multiplication is considerably simpler and faster to
// audit, which is the right trade-off here.
#pragma once

#include <array>
#include <cstdint>

#include "base/bytes.hpp"

namespace dnsboot::crypto {

inline constexpr std::size_t kEd25519SeedSize = 32;
inline constexpr std::size_t kEd25519PublicKeySize = 32;
inline constexpr std::size_t kEd25519SignatureSize = 64;

using Ed25519Seed = std::array<std::uint8_t, kEd25519SeedSize>;
using Ed25519PublicKey = std::array<std::uint8_t, kEd25519PublicKeySize>;
using Ed25519Signature = std::array<std::uint8_t, kEd25519SignatureSize>;

// A seed's expansion (RFC 8032 §5.1.5): the clamped secret scalar and the
// prefix that derives each signature's nonce. Signers hold keys long-term,
// so expanding once saves one SHA-512 per signature.
struct Ed25519SecretKey {
  std::array<std::uint8_t, 32> scalar;
  std::array<std::uint8_t, 32> prefix;
};

Ed25519SecretKey ed25519_expand_seed(const Ed25519Seed& seed);

// Derive the public key (RFC 8032 §5.1.5).
Ed25519PublicKey ed25519_public_key(const Ed25519SecretKey& secret);

// Sign a message (RFC 8032 §5.1.6). `public_key` must equal
// ed25519_public_key(secret): deriving it once saves one base-point
// multiplication per signature.
Ed25519Signature ed25519_sign(const Ed25519SecretKey& secret,
                              const Ed25519PublicKey& public_key,
                              BytesView message);

// Entries in each thread's verification memo (see ed25519_verify): about
// 0.5 MiB per thread that verifies.
inline constexpr std::size_t kEd25519VerifyMemoCapacity = 4096;

// Verify a signature (RFC 8032 §5.1.7). Returns false for malformed points,
// out-of-range scalars, and signature mismatches alike.
//
// Every call checks S < L and hashes k = SHA512(R || A || M) mod L; the
// point decoding, both scalar multiplications and the final compare run only
// when (A, R, S, k) misses a per-thread memo of earlier outcomes. The
// equation reads the message only through k, so a hit returns exactly what
// the full computation would (DESIGN.md §14.5).
bool ed25519_verify(const Ed25519PublicKey& public_key, BytesView message,
                    const Ed25519Signature& signature);

}  // namespace dnsboot::crypto
