// libFuzzer entry point for the bytes that reach Ed25519 point decoding off
// the wire: a DNSKEY's public key and an RRSIG's signature. The input splits
// into a 32-byte key, a 64-byte signature and the message (missing bytes
// are zero). Checks:
//   * the verifier returns for any key and signature;
//   * a second call gives the first call's verdict (the per-thread memo's
//     hit against the full computation);
//   * a signature under a key derived from the input verifies, and a one-bit
//     flip of its R, its S or the key (bits picked by the input) does not.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>

#include "crypto/ed25519.hpp"
#include "crypto/sha2.hpp"

namespace crypto = dnsboot::crypto;

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  crypto::Ed25519PublicKey key{};
  crypto::Ed25519Signature signature{};
  const std::size_t key_bytes = std::min(size, key.size());
  std::copy(data, data + key_bytes, key.begin());
  const std::size_t signature_bytes =
      std::min(size - key_bytes, signature.size());
  std::copy(data + key_bytes, data + key_bytes + signature_bytes,
            signature.begin());
  const dnsboot::BytesView message(data + key_bytes + signature_bytes,
                                   size - key_bytes - signature_bytes);

  const bool verdict = crypto::ed25519_verify(key, message, signature);
  if (crypto::ed25519_verify(key, message, signature) != verdict) {
    std::abort();
  }

  // The seed is a hash of the whole input; its bytes also pick the flips.
  const crypto::Ed25519Seed seed =
      crypto::Sha256::digest(dnsboot::BytesView(data, size));
  const crypto::Ed25519SecretKey secret = crypto::ed25519_expand_seed(seed);
  const crypto::Ed25519PublicKey public_key = crypto::ed25519_public_key(secret);
  const crypto::Ed25519Signature good =
      crypto::ed25519_sign(secret, public_key, message);
  if (!crypto::ed25519_verify(public_key, message, good)) std::abort();
  const auto bit = [&](std::size_t i) {
    return static_cast<std::uint8_t>(1u << (seed[i] % 8));
  };
  crypto::Ed25519Signature bad_r = good;
  bad_r[seed[0] % 32] ^= bit(1);
  crypto::Ed25519Signature bad_s = good;
  bad_s[32 + seed[2] % 32] ^= bit(3);
  crypto::Ed25519PublicKey bad_key = public_key;
  bad_key[seed[4] % 32] ^= bit(5);
  if (crypto::ed25519_verify(public_key, message, bad_r) ||
      crypto::ed25519_verify(public_key, message, bad_s) ||
      crypto::ed25519_verify(bad_key, message, good)) {
    std::abort();
  }
  return 0;
}
