// DNSSEC-facing key-pair abstraction. dnsboot signs every synthetic zone with
// Ed25519 (DNSSEC algorithm 15, RFC 8080); the abstraction exists so tests can
// exercise unknown-algorithm handling in the validator.
#pragma once

#include <cstdint>

#include "base/bytes.hpp"
#include "base/rng.hpp"
#include "crypto/ed25519.hpp"

namespace dnsboot::crypto {

// DNSSEC algorithm numbers (IANA registry). Only ED25519 is implemented;
// the others appear in parsed data and in the CDS delete sentinel.
enum class DnssecAlgorithm : std::uint8_t {
  kDelete = 0,  // CDS/CDNSKEY delete sentinel (RFC 8078 §4)
  kRsaSha256 = 8,
  kEcdsaP256Sha256 = 13,
  kEd25519 = 15,
  kPrivateOid = 254,
};

// DNSKEY flags (RFC 4034 §2.1).
inline constexpr std::uint16_t kDnskeyFlagZone = 0x0100;  // ZONE bit
inline constexpr std::uint16_t kDnskeyFlagSep = 0x0001;   // SEP bit (KSK)
inline constexpr std::uint16_t kZskFlags = kDnskeyFlagZone;               // 256
inline constexpr std::uint16_t kKskFlags = kDnskeyFlagZone | kDnskeyFlagSep;  // 257

// An Ed25519 signing key with its DNSKEY metadata.
class KeyPair {
 public:
  // Deterministically derive a key from an RNG stream (the ecosystem
  // generator owns seeding, so the whole synthetic Internet reproduces).
  static KeyPair generate(Rng& rng, std::uint16_t flags);

  std::uint16_t flags() const { return flags_; }
  bool is_ksk() const { return (flags_ & kDnskeyFlagSep) != 0; }
  DnssecAlgorithm algorithm() const { return DnssecAlgorithm::kEd25519; }

  // Raw public key bytes as carried in DNSKEY RDATA (32 bytes for alg 15).
  Bytes public_key() const;

  Ed25519Signature sign(BytesView message) const;
  bool verify(BytesView message, const Ed25519Signature& sig) const;

  static bool verify_with(BytesView public_key, BytesView message,
                          BytesView signature);

 private:
  KeyPair(const Ed25519Seed& seed, std::uint16_t flags);

  Ed25519SecretKey secret_;
  Ed25519PublicKey public_key_;
  std::uint16_t flags_;
};

}  // namespace dnsboot::crypto
