#include "crypto/keys.hpp"

#include <cstring>

namespace dnsboot::crypto {

KeyPair::KeyPair(const Ed25519Seed& seed, std::uint16_t flags)
    : secret_(ed25519_expand_seed(seed)),
      public_key_(ed25519_public_key(secret_)),
      flags_(flags) {}

KeyPair KeyPair::generate(Rng& rng, std::uint16_t flags) {
  Ed25519Seed seed;
  rng.fill(seed.data(), seed.size());
  return KeyPair(seed, flags);
}

Bytes KeyPair::public_key() const {
  return Bytes(public_key_.begin(), public_key_.end());
}

Ed25519Signature KeyPair::sign(BytesView message) const {
  return ed25519_sign(secret_, public_key_, message);
}

bool KeyPair::verify(BytesView message, const Ed25519Signature& sig) const {
  return ed25519_verify(public_key_, message, sig);
}

bool KeyPair::verify_with(BytesView public_key, BytesView message,
                          BytesView signature) {
  if (public_key.size() != kEd25519PublicKeySize ||
      signature.size() != kEd25519SignatureSize) {
    return false;
  }
  Ed25519PublicKey pk;
  Ed25519Signature sig;
  std::memcpy(pk.data(), public_key.data(), pk.size());
  std::memcpy(sig.data(), signature.data(), sig.size());
  return ed25519_verify(pk, message, sig);
}

}  // namespace dnsboot::crypto
