#include <gtest/gtest.h>

#include <latch>
#include <thread>
#include <vector>

#include "base/encoding.hpp"
#include "base/rng.hpp"
#include "crypto/ed25519.hpp"
#include "crypto/ed25519_scalar.hpp"
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
  EXPECT_EQ(hex_of(ed25519_public_key(ed25519_expand_seed(seed))),
            v.public_key);
}

TEST_P(Ed25519Rfc8032, SignatureMatchesVector) {
  const auto& v = kVectors[GetParam()];
  Ed25519Seed seed;
  auto seed_bytes = from_hex(v.seed);
  std::copy(seed_bytes.begin(), seed_bytes.end(), seed.begin());
  Bytes msg = from_hex(v.message);
  const Ed25519SecretKey secret = ed25519_expand_seed(seed);
  EXPECT_EQ(hex_of(ed25519_sign(secret, ed25519_public_key(secret), msg)),
            v.signature);
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

// --- Ed25519 byte identity ---------------------------------------------------
// Ed25519 is deterministic, so a kernel rewrite must reproduce every key,
// signature and verdict. The digests below were taken from the byte-wise
// reduction, double-and-add implementation the current kernels replaced.

Ed25519Seed seed_from(Rng& rng) {
  Ed25519Seed seed;
  const Bytes bytes = rng.bytes(seed.size());
  std::copy(bytes.begin(), bytes.end(), seed.begin());
  return seed;
}

template <std::size_t N>
void flip_bit(std::array<std::uint8_t, N>& bytes, std::size_t from, Rng& rng) {
  bytes[from + rng.next_below(N - from)] ^=
      static_cast<std::uint8_t>(1u << rng.next_below(8));
}

TEST(Ed25519Golden, KeysSignaturesAndVerdictsMatchDigest) {
  // Per (seed, message): A, the signature, and the verdicts on it intact and
  // with one bit flipped in R, in S, in A and in the message.
  Rng rng(8032);
  Sha256 digest;
  std::size_t accepted = 0;
  for (int i = 0; i < 256; ++i) {
    const Ed25519Seed seed = seed_from(rng);
    Bytes message = rng.bytes(rng.next_below(200));
    const Ed25519SecretKey secret = ed25519_expand_seed(seed);
    const Ed25519PublicKey pk = ed25519_public_key(secret);
    const Ed25519Signature sig = ed25519_sign(secret, pk, message);
    Ed25519Signature bad_r = sig;
    flip_bit(bad_r, 0, rng);
    Ed25519Signature bad_s = sig;
    flip_bit(bad_s, 32, rng);
    Ed25519PublicKey bad_key = pk;
    flip_bit(bad_key, 0, rng);
    const std::uint8_t verdicts[5] = {
        ed25519_verify(pk, message, sig),
        ed25519_verify(pk, message, bad_r),
        ed25519_verify(pk, message, bad_s),
        ed25519_verify(bad_key, message, sig),
        [&] {
          if (message.empty()) {
            message.push_back(0);
          } else {
            message[rng.next_below(message.size())] ^= 0x10;
          }
          return ed25519_verify(pk, message, sig);
        }()};
    for (std::uint8_t v : verdicts) accepted += v;
    digest.update(BytesView(pk.data(), pk.size()));
    digest.update(BytesView(sig.data(), sig.size()));
    digest.update(BytesView(verdicts, sizeof verdicts));
  }
  EXPECT_EQ(accepted, 256u);  // each intact signature, nothing tampered
  EXPECT_EQ(hex_of(digest.finish()),
            "97ecb238afc325f0c89c03fcafe3a23c7ff8795705d005c7bfa40da8349e13de");
}

TEST(Ed25519Golden, SmallOrderKeysMatchDigest) {
  // A of small order, R of small order, S = 0: the check point is -[k]A,
  // so some of these verify, and which ones depends on [k]A being exact for
  // points outside the prime-order group.
  const char* const kKeys[] = {
      // The eight points of order dividing 8, canonically encoded.
      "0100000000000000000000000000000000000000000000000000000000000000",
      "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
      "0000000000000000000000000000000000000000000000000000000000000000",
      "0000000000000000000000000000000000000000000000000000000000000080",
      "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05",
      "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc85",
      "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a",
      "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac03fa",
      // y = p and y = p + 1: non-canonical spellings of two of them.
      "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
      "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
  };
  constexpr std::size_t kCanonical = 8;
  std::vector<Ed25519PublicKey> keys;
  for (const char* hex : kKeys) {
    const Bytes b = from_hex(hex);
    keys.emplace_back();
    std::copy(b.begin(), b.end(), keys.back().begin());
  }
  Sha256 digest;
  std::size_t accepted = 0;
  for (const Ed25519PublicKey& a : keys) {
    for (std::size_t r = 0; r < kCanonical; ++r) {
      for (int m = 0; m < 4; ++m) {
        Ed25519Signature sig{};
        std::copy(keys[r].begin(), keys[r].end(), sig.begin());
        const Bytes message = to_bytes("small order " + std::to_string(m));
        const std::uint8_t verdict = ed25519_verify(a, message, sig);
        accepted += verdict;
        digest.update(BytesView(&verdict, 1));
      }
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_EQ(hex_of(digest.finish()),
            "a0bb74711873a514d650715da963d9ab39008fd7664cbd49c08702d9dbcae76c");
}

// --- Scalar arithmetic mod L (crypto/ed25519_scalar.hpp) ---------------------

using Wide = std::array<std::uint8_t, 64>;

// x * y + z over little-endian byte strings; the caller keeps it below 2^512.
Wide wide_muladd(BytesView x, BytesView y, BytesView z) {
  std::array<std::uint64_t, 64> column{};
  for (std::size_t i = 0; i < z.size(); ++i) column[i] += z[i];
  for (std::size_t i = 0; i < x.size(); ++i) {
    for (std::size_t j = 0; j < y.size(); ++j) {
      column[i + j] += static_cast<std::uint64_t>(x[i]) * y[j];
    }
  }
  Wide out;
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    carry += column[i];
    out[i] = static_cast<std::uint8_t>(carry);
    carry >>= 8;
  }
  return out;
}

// Reference reduction: long division by L one bit at a time, on bytes.
std::array<std::uint8_t, 32> reference_mod_l(const Wide& x) {
  std::array<std::uint8_t, 33> r{};  // r < L, so 2r + 1 fits
  for (std::size_t bit = x.size() * 8; bit-- > 0;) {
    unsigned carry = (x[bit / 8] >> (bit % 8)) & 1;
    for (auto& byte : r) {
      const unsigned v = byte * 2u + carry;
      byte = static_cast<std::uint8_t>(v);
      carry = v >> 8;
    }
    bool at_least_l = true;
    for (std::size_t i = r.size(); i-- > 0;) {
      const std::uint8_t l = i < 32 ? kGroupOrder[i] : 0;
      if (r[i] != l) {
        at_least_l = r[i] > l;
        break;
      }
    }
    if (!at_least_l) continue;
    int borrow = 0;
    for (std::size_t i = 0; i < r.size(); ++i) {
      const int v = r[i] - (i < 32 ? kGroupOrder[i] : 0) - borrow;
      r[i] = static_cast<std::uint8_t>(v);
      borrow = v < 0;
    }
  }
  std::array<std::uint8_t, 32> out;
  std::copy(r.begin(), r.begin() + 32, out.begin());
  return out;
}

std::array<std::uint8_t, 32> barrett_mod_l(const Wide& x) {
  std::array<std::uint8_t, 32> out;
  ed25519_detail::scalar_reduce(out.data(), x.data());
  return out;
}

const BytesView kL(kGroupOrder, 32);

Wide wide_of(const Bytes& bytes) {
  Wide w{};
  std::copy(bytes.begin(), bytes.end(), w.begin());
  return w;
}

TEST(ScalarModL, EdgeValuesReduceLikeLongDivision) {
  const Bytes one = {1}, two = {2};
  Wide l_minus_1 = wide_muladd(kL, one, {});
  l_minus_1[0] -= 1;  // L's low byte is 0xed: no borrow
  Wide two_l_minus_1 = wide_muladd(kL, two, {});
  two_l_minus_1[0] -= 1;
  Wide max;
  max.fill(0xff);
  const struct {
    const char* name;
    Wide value;
    Wide expected;
  } cases[] = {
      {"0", Wide{}, Wide{}},
      {"1", wide_of(one), wide_of(one)},
      {"L-1", l_minus_1, l_minus_1},
      {"L", wide_muladd(kL, one, {}), Wide{}},
      {"L+1", wide_muladd(kL, one, one), wide_of(one)},
      {"2L-1", two_l_minus_1, l_minus_1},
      {"2^512-1", max,
       wide_of(from_hex("000f9c44e31106a447938568a71b0ed0"
                        "65bef517d273ecce3d9a307c1b419903"))},
  };
  for (const auto& c : cases) {
    const auto reference = reference_mod_l(c.value);
    EXPECT_TRUE(std::equal(reference.begin(), reference.end(),
                           c.expected.begin()))
        << c.name;
    EXPECT_EQ(barrett_mod_l(c.value), reference) << c.name;
  }
}

TEST(ScalarModL, RandomMultiplesOfLPlusRemainder) {
  Rng rng(252);
  for (int i = 0; i < 300; ++i) {
    // q < 2^256 and r < 2^252 < L, so q * L + r < 2^510 reduces to r.
    const Bytes q = rng.bytes(32);
    Bytes r = rng.bytes(32);
    r[31] &= 0x0f;
    const Wide x = wide_muladd(q, kL, r);
    const auto reduced = barrett_mod_l(x);
    EXPECT_TRUE(std::equal(reduced.begin(), reduced.end(), r.begin())) << i;
    EXPECT_EQ(reduced, reference_mod_l(x)) << i;
    // Any 512-bit string, too.
    Wide any;
    const Bytes bytes = rng.bytes(any.size());
    std::copy(bytes.begin(), bytes.end(), any.begin());
    EXPECT_EQ(barrett_mod_l(any), reference_mod_l(any)) << i;
  }
}

TEST(ScalarModL, MulAddMatchesLongDivision) {
  Rng rng(253);
  for (int i = 0; i < 300; ++i) {
    Bytes a = rng.bytes(32), b = rng.bytes(32), c = rng.bytes(32);
    if (i == 0) {  // the largest inputs: (2^256 - 1)^2 + 2^256 - 1
      std::fill(a.begin(), a.end(), 0xff);
      std::fill(b.begin(), b.end(), 0xff);
      std::fill(c.begin(), c.end(), 0xff);
    }
    std::array<std::uint8_t, 32> out;
    ed25519_detail::scalar_muladd(out.data(), a.data(), b.data(), c.data());
    EXPECT_EQ(out, reference_mod_l(wide_muladd(a, b, c))) << i;
  }
}

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
