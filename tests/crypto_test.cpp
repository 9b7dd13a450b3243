#include <gtest/gtest.h>

#include <latch>
#include <thread>
#include <vector>

#include "base/encoding.hpp"
#include "base/rng.hpp"
#include "crypto/ed25519.hpp"
#include "crypto/keys.hpp"
#include "crypto/sha2.hpp"

namespace dnsboot::crypto {
namespace {

[[maybe_unused]] std::string hex_of(BytesView b) { return hex_encode(b); }

template <std::size_t N>
std::string hex_of(const std::array<std::uint8_t, N>& a) {
  return hex_encode(BytesView(a.data(), a.size()));
}

Bytes from_hex(const std::string& s) { return hex_decode(s).value(); }

// --- SHA-2 (FIPS 180-4 / well-known vectors) -------------------------------

TEST(Sha256, EmptyString) {
  EXPECT_EQ(hex_of(Sha256::digest({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hex_of(Sha256::digest(to_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(
      hex_of(Sha256::digest(to_bytes(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionA) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(to_bytes(chunk));
  EXPECT_EQ(hex_of(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingMatchesOneShot) {
  Rng rng(77);
  Bytes data = rng.bytes(10000);
  // Feed in awkward chunk sizes straddling block boundaries.
  Sha256 h;
  std::size_t pos = 0;
  std::size_t sizes[] = {1, 63, 64, 65, 127, 128, 500, 9000};
  for (std::size_t s : sizes) {
    std::size_t take = std::min(s, data.size() - pos);
    h.update(BytesView(data.data() + pos, take));
    pos += take;
  }
  h.update(BytesView(data.data() + pos, data.size() - pos));
  EXPECT_EQ(hex_of(h.finish()), hex_of(Sha256::digest(data)));
}

TEST(Sha512, Abc) {
  EXPECT_EQ(hex_of(Sha512::digest(to_bytes("abc"))),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
}

TEST(Sha512, EmptyString) {
  EXPECT_EQ(hex_of(Sha512::digest({})),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
            "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e");
}

TEST(Sha384, Abc) {
  EXPECT_EQ(hex_of(Sha384::digest(to_bytes("abc"))),
            "cb00753f45a35e8bb5a03d699ac65007272c32ab0eded1631a8b605a43ff5bed"
            "8086072ba1e7cc2358baeca134c825a7");
}

TEST(Sha384, EmptyString) {
  EXPECT_EQ(hex_of(Sha384::digest({})),
            "38b060a751ac96384cd9327eb1b1e36a21fdb71114be07434c0cc7bf63f6e1da"
            "274edebfe76f65fbd51ad2f14898b95b");
}

class Sha2Boundary : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Sha2Boundary, StreamingEqualsOneShotAtBlockBoundaries) {
  Rng rng(GetParam() + 1);
  Bytes data = rng.bytes(GetParam());
  // one-shot
  auto one256 = Sha256::digest(data);
  auto one512 = Sha512::digest(data);
  // byte-at-a-time
  Sha256 s256;
  Sha512 s512;
  for (auto b : data) {
    s256.update(BytesView(&b, 1));
    s512.update(BytesView(&b, 1));
  }
  EXPECT_EQ(hex_of(s256.finish()), hex_of(one256));
  EXPECT_EQ(hex_of(s512.finish()), hex_of(one512));
}

INSTANTIATE_TEST_SUITE_P(BlockEdges, Sha2Boundary,
                         ::testing::Values(0, 1, 55, 56, 57, 63, 64, 65, 111,
                                           112, 119, 120, 127, 128, 129, 255,
                                           256, 257));

// --- Ed25519 (RFC 8032 §7.1 vectors) ---------------------------------------

// The group order L, little-endian.
constexpr std::uint8_t kGroupOrder[32] = {
    0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58, 0xd6, 0x9c, 0xf7,
    0xa2, 0xde, 0xf9, 0xde, 0x14, 0,    0,    0,    0,    0,    0,
    0,    0,    0,    0,    0,    0,    0,    0,    0,    0x10};

struct Rfc8032Vector {
  const char* seed;
  const char* public_key;
  const char* message;
  const char* signature;
};

const Rfc8032Vector kVectors[] = {
    // TEST 1 (empty message)
    {"9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
     "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a", "",
     "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
     "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"},
    // TEST 2 (one byte)
    {"4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
     "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c", "72",
     "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
     "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"},
    // TEST 3 (two bytes)
    {"c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
     "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
     "af82",
     "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
     "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"},
};

class Ed25519Rfc8032 : public ::testing::TestWithParam<int> {};

TEST_P(Ed25519Rfc8032, PublicKeyDerivation) {
  const auto& v = kVectors[GetParam()];
  Ed25519Seed seed;
  auto seed_bytes = from_hex(v.seed);
  std::copy(seed_bytes.begin(), seed_bytes.end(), seed.begin());
  EXPECT_EQ(hex_of(ed25519_public_key(seed)), v.public_key);
}

TEST_P(Ed25519Rfc8032, SignatureMatchesVector) {
  const auto& v = kVectors[GetParam()];
  Ed25519Seed seed;
  auto seed_bytes = from_hex(v.seed);
  std::copy(seed_bytes.begin(), seed_bytes.end(), seed.begin());
  Bytes msg = from_hex(v.message);
  EXPECT_EQ(hex_of(ed25519_sign(seed, msg)), v.signature);
}

TEST_P(Ed25519Rfc8032, SignatureVerifies) {
  const auto& v = kVectors[GetParam()];
  Ed25519PublicKey pk;
  auto pk_bytes = from_hex(v.public_key);
  std::copy(pk_bytes.begin(), pk_bytes.end(), pk.begin());
  Ed25519Signature sig;
  auto sig_bytes = from_hex(v.signature);
  std::copy(sig_bytes.begin(), sig_bytes.end(), sig.begin());
  EXPECT_TRUE(ed25519_verify(pk, from_hex(v.message), sig));
}

INSTANTIATE_TEST_SUITE_P(Vectors, Ed25519Rfc8032, ::testing::Values(0, 1, 2));

TEST(Ed25519, RejectsTamperedMessage) {
  Rng rng(101);
  auto kp = KeyPair::generate(rng, kZskFlags);
  Bytes msg = to_bytes("the quick brown fox");
  auto sig = kp.sign(msg);
  EXPECT_TRUE(kp.verify(msg, sig));
  msg[0] ^= 1;
  EXPECT_FALSE(kp.verify(msg, sig));
}

TEST(Ed25519, RejectsTamperedSignature) {
  Rng rng(102);
  auto kp = KeyPair::generate(rng, kZskFlags);
  Bytes msg = to_bytes("message");
  auto sig = kp.sign(msg);
  for (std::size_t i : {std::size_t{0}, std::size_t{31}, std::size_t{32},
                        std::size_t{63}}) {
    auto bad = sig;
    bad[i] ^= 0x40;
    EXPECT_FALSE(kp.verify(msg, bad)) << "flipped byte " << i;
  }
}

TEST(Ed25519, RejectsWrongKey) {
  Rng rng(103);
  auto kp1 = KeyPair::generate(rng, kZskFlags);
  auto kp2 = KeyPair::generate(rng, kZskFlags);
  Bytes msg = to_bytes("message");
  auto sig = kp1.sign(msg);
  EXPECT_FALSE(kp2.verify(msg, sig));
}

TEST(Ed25519, RejectsHighSValue) {
  // S >= L must be rejected (RFC 8032 §5.1.7 malleability check).
  Rng rng(104);
  auto kp = KeyPair::generate(rng, kZskFlags);
  Bytes msg = to_bytes("m");
  auto sig = kp.sign(msg);
  // Set S to L itself (first invalid value).
  std::copy(kGroupOrder, kGroupOrder + 32, sig.begin() + 32);
  EXPECT_FALSE(kp.verify(msg, sig));
}

TEST(Ed25519, RejectsNonPointPublicKey) {
  Ed25519PublicKey pk;
  pk.fill(0xff);  // not a valid curve point encoding
  Ed25519Signature sig{};
  EXPECT_FALSE(ed25519_verify(pk, to_bytes("x"), sig));
}

TEST(Ed25519, SignIsDeterministic) {
  Rng rng(105);
  auto kp = KeyPair::generate(rng, kKskFlags);
  Bytes msg = to_bytes("deterministic");
  EXPECT_EQ(hex_of(kp.sign(msg)), hex_of(kp.sign(msg)));
}

class Ed25519RandomRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(Ed25519RandomRoundTrip, SignVerifyRandomMessages) {
  Rng rng(1000 + GetParam());
  auto kp = KeyPair::generate(rng, kZskFlags);
  Bytes msg = rng.bytes(static_cast<std::size_t>(GetParam()) * 37 % 300);
  auto sig = kp.sign(msg);
  EXPECT_TRUE(kp.verify(msg, sig));
  if (!msg.empty()) {
    msg[msg.size() / 2] ^= 0x80;
    EXPECT_FALSE(kp.verify(msg, sig));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Ed25519RandomRoundTrip, ::testing::Range(1, 9));

// --- Ed25519 verification memo (DESIGN.md §14.5) -----------------------------
// Each case first leaves an outcome in the calling thread's memo, then makes
// a call that the memo must not answer from it, or must answer the same way.

// S + L: satisfies the group equation whenever S does.
Ed25519Signature add_l_to_s(Ed25519Signature sig) {
  unsigned carry = 0;
  for (std::size_t i = 0; i < 32; ++i) {
    const unsigned sum = sig[32 + i] + kGroupOrder[i] + carry;
    sig[32 + i] = static_cast<std::uint8_t>(sum);
    carry = sum >> 8;
  }
  return sig;
}

struct SignedTriple {
  Bytes message;
  Ed25519Signature signature;
  bool valid;
};

// `count` distinct triples under `key`. Every third has the low bit of S
// flipped: a reject that shares A, R and k with the signer's true signature.
std::vector<SignedTriple> make_triples(const KeyPair& key, std::size_t count) {
  std::vector<SignedTriple> triples;
  for (std::size_t i = 0; i < count; ++i) {
    Bytes message = to_bytes("triple " + std::to_string(i));
    Ed25519Signature signature = key.sign(message);
    const bool valid = i % 3 != 2;
    if (!valid) signature[32] ^= 0x01;
    triples.push_back({std::move(message), signature, valid});
  }
  return triples;
}

TEST(Ed25519Memo, OtherMessageUnderCachedAcceptIsRejected) {
  Rng rng(201);
  auto kp = KeyPair::generate(rng, kZskFlags);
  Bytes msg = to_bytes("cached message");
  auto sig = kp.sign(msg);
  ASSERT_TRUE(kp.verify(msg, sig));
  ASSERT_TRUE(kp.verify(msg, sig));
  EXPECT_FALSE(kp.verify(to_bytes("cached massage"), sig));
  EXPECT_TRUE(kp.verify(msg, sig));
}

TEST(Ed25519Memo, CachedSignatureWithSPlusLIsRejected) {
  Rng rng(202);
  auto kp = KeyPair::generate(rng, kZskFlags);
  Bytes msg = to_bytes("malleable");
  auto sig = kp.sign(msg);
  ASSERT_TRUE(kp.verify(msg, sig));
  const Ed25519Signature high = add_l_to_s(sig);
  EXPECT_FALSE(kp.verify(msg, high));
  EXPECT_FALSE(kp.verify(msg, high));
  EXPECT_TRUE(kp.verify(msg, sig));
}

TEST(Ed25519Memo, CachedRejectLeavesTrueSignatureAccepted) {
  Rng rng(203);
  auto kp = KeyPair::generate(rng, kZskFlags);
  Bytes msg = to_bytes("flipped");
  auto sig = kp.sign(msg);
  auto bad = sig;
  bad[32] ^= 0x01;  // S moves by one and stays below L
  ASSERT_FALSE(kp.verify(msg, bad));
  ASSERT_FALSE(kp.verify(msg, bad));
  EXPECT_TRUE(kp.verify(msg, sig));
  EXPECT_FALSE(kp.verify(msg, bad));
}

TEST(Ed25519Memo, NonPointKeyIsRejectedOnBothCalls) {
  Rng rng(204);
  auto kp = KeyPair::generate(rng, kZskFlags);
  Bytes msg = to_bytes("no such point");
  auto sig = kp.sign(msg);
  ASSERT_TRUE(kp.verify(msg, sig));
  // y = 2: (y^2 - 1) / (d y^2 + 1) has no square root mod p.
  Ed25519PublicKey non_point{};
  non_point[0] = 2;
  EXPECT_FALSE(ed25519_verify(non_point, msg, sig));
  EXPECT_FALSE(ed25519_verify(non_point, msg, sig));
}

TEST(Ed25519Memo, MoreTriplesThanCapacityKeepTheirResults) {
  Rng rng(205);
  auto kp = KeyPair::generate(rng, kZskFlags);
  const auto triples = make_triples(
      kp, kEd25519VerifyMemoCapacity + kEd25519VerifyMemoCapacity / 4);
  std::size_t wrong = 0;
  auto check = [&](std::size_t i) {
    const SignedTriple& t = triples[i];
    if (kp.verify(t.message, t.signature) != t.valid) ++wrong;
  };
  for (std::size_t i = 0; i < triples.size(); ++i) {
    check(i);
    check(i);                            // just stored
    if (i % 8 == 0) check(i / 2);        // older, perhaps overwritten
    if (i >= 64) check(i - 64);          // recent, usually still held
  }
  EXPECT_EQ(wrong, 0u);
}

TEST(Ed25519Memo, ThreadsVerifyOverlappingSetsConcurrently) {
  Rng rng(206);
  auto kp = KeyPair::generate(rng, kZskFlags);
  const auto triples = make_triples(kp, 96);
  constexpr std::size_t kThreads = 4;
  std::vector<std::size_t> wrong(kThreads, 0);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    // Thread t verifies triples [24t, 24t + 48) mod 96, overlapping both
    // neighbours by half, three times over.
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (int pass = 0; pass < 3; ++pass) {
        for (std::size_t i = 0; i < 48; ++i) {
          const SignedTriple& x = triples[(24 * t + i) % triples.size()];
          if (kp.verify(x.message, x.signature) != x.valid) ++wrong[t];
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(wrong, std::vector<std::size_t>(kThreads, 0));
}

TEST(KeyPair, FlagsAndAlgorithm) {
  Rng rng(106);
  auto zsk = KeyPair::generate(rng, kZskFlags);
  auto ksk = KeyPair::generate(rng, kKskFlags);
  EXPECT_FALSE(zsk.is_ksk());
  EXPECT_TRUE(ksk.is_ksk());
  EXPECT_EQ(zsk.flags(), 256);
  EXPECT_EQ(ksk.flags(), 257);
  EXPECT_EQ(static_cast<int>(zsk.algorithm()), 15);
  EXPECT_EQ(zsk.public_key().size(), 32u);
}

TEST(KeyPair, VerifyWithRawBytes) {
  Rng rng(107);
  auto kp = KeyPair::generate(rng, kZskFlags);
  Bytes msg = to_bytes("raw");
  auto sig = kp.sign(msg);
  Bytes sig_bytes(sig.begin(), sig.end());
  EXPECT_TRUE(KeyPair::verify_with(kp.public_key(), msg, sig_bytes));
  // Wrong sizes must fail cleanly, not crash.
  EXPECT_FALSE(KeyPair::verify_with(Bytes{1, 2, 3}, msg, sig_bytes));
  EXPECT_FALSE(KeyPair::verify_with(kp.public_key(), msg, Bytes{1, 2}));
}

TEST(KeyPair, GenerateIsDeterministicPerRngState) {
  Rng a(500), b(500);
  auto k1 = KeyPair::generate(a, kZskFlags);
  auto k2 = KeyPair::generate(b, kZskFlags);
  EXPECT_EQ(k1.public_key(), k2.public_key());
}

}  // namespace
}  // namespace dnsboot::crypto
