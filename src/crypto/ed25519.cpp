#include "crypto/ed25519.hpp"

#include <cstring>
#include <memory>
#include <optional>

#include "crypto/sha2.hpp"

namespace dnsboot::crypto {
namespace {

// ---------------------------------------------------------------------------
// Field arithmetic over GF(p), p = 2^255 - 19, radix-2^51 limbs.
// Invariant outside of intermediate sums: each limb < 2^52.
// ---------------------------------------------------------------------------

struct Fe {
  std::uint64_t v[5];
};

constexpr std::uint64_t kMask51 = (1ULL << 51) - 1;

Fe fe_zero() { return Fe{{0, 0, 0, 0, 0}}; }
Fe fe_one() { return Fe{{1, 0, 0, 0, 0}}; }

Fe fe_from_u64(std::uint64_t x) {
  Fe r = fe_zero();
  r.v[0] = x & kMask51;
  r.v[1] = x >> 51;
  return r;
}

Fe fe_add(const Fe& a, const Fe& b) {
  Fe r;
  for (int i = 0; i < 5; ++i) r.v[i] = a.v[i] + b.v[i];
  return r;
}

// a - b, computed as a + 2p - b so all limbs stay non-negative.
Fe fe_sub(const Fe& a, const Fe& b) {
  static constexpr std::uint64_t k2p[5] = {
      0xfffffffffffdaULL, 0xffffffffffffeULL, 0xffffffffffffeULL,
      0xffffffffffffeULL, 0xffffffffffffeULL};
  Fe r;
  for (int i = 0; i < 5; ++i) r.v[i] = a.v[i] + k2p[i] - b.v[i];
  // Partial carry to keep limbs bounded.
  std::uint64_t c;
  for (int i = 0; i < 4; ++i) {
    c = r.v[i] >> 51;
    r.v[i] &= kMask51;
    r.v[i + 1] += c;
  }
  c = r.v[4] >> 51;
  r.v[4] &= kMask51;
  r.v[0] += c * 19;
  return r;
}

Fe fe_mul(const Fe& a, const Fe& b) {
  using u128 = unsigned __int128;
  const std::uint64_t a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3], a4 = a.v[4];
  const std::uint64_t b0 = b.v[0], b1 = b.v[1], b2 = b.v[2], b3 = b.v[3], b4 = b.v[4];
  const std::uint64_t b1_19 = b1 * 19, b2_19 = b2 * 19, b3_19 = b3 * 19, b4_19 = b4 * 19;

  u128 t0 = (u128)a0 * b0 + (u128)a1 * b4_19 + (u128)a2 * b3_19 +
            (u128)a3 * b2_19 + (u128)a4 * b1_19;
  u128 t1 = (u128)a0 * b1 + (u128)a1 * b0 + (u128)a2 * b4_19 +
            (u128)a3 * b3_19 + (u128)a4 * b2_19;
  u128 t2 = (u128)a0 * b2 + (u128)a1 * b1 + (u128)a2 * b0 +
            (u128)a3 * b4_19 + (u128)a4 * b3_19;
  u128 t3 = (u128)a0 * b3 + (u128)a1 * b2 + (u128)a2 * b1 +
            (u128)a3 * b0 + (u128)a4 * b4_19;
  u128 t4 = (u128)a0 * b4 + (u128)a1 * b3 + (u128)a2 * b2 +
            (u128)a3 * b1 + (u128)a4 * b0;

  Fe r;
  std::uint64_t c;
  c = static_cast<std::uint64_t>(t0 >> 51); r.v[0] = static_cast<std::uint64_t>(t0) & kMask51; t1 += c;
  c = static_cast<std::uint64_t>(t1 >> 51); r.v[1] = static_cast<std::uint64_t>(t1) & kMask51; t2 += c;
  c = static_cast<std::uint64_t>(t2 >> 51); r.v[2] = static_cast<std::uint64_t>(t2) & kMask51; t3 += c;
  c = static_cast<std::uint64_t>(t3 >> 51); r.v[3] = static_cast<std::uint64_t>(t3) & kMask51; t4 += c;
  c = static_cast<std::uint64_t>(t4 >> 51); r.v[4] = static_cast<std::uint64_t>(t4) & kMask51;
  r.v[0] += c * 19;
  c = r.v[0] >> 51; r.v[0] &= kMask51; r.v[1] += c;
  return r;
}

// Dedicated squaring: the symmetric cross terms fold into doubled products,
// ~3/5 the multiply work of the general fe_mul.
Fe fe_sq(const Fe& a) {
  using u128 = unsigned __int128;
  const std::uint64_t a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3],
                      a4 = a.v[4];
  const std::uint64_t a0_2 = a0 * 2, a1_2 = a1 * 2, a2_2 = a2 * 2,
                      a3_19 = a3 * 19, a4_19 = a4 * 19;

  u128 t0 = (u128)a0 * a0 + (u128)a1_2 * a4_19 + (u128)a2_2 * a3_19;
  u128 t1 = (u128)a0_2 * a1 + (u128)a2_2 * a4_19 + (u128)a3 * a3_19;
  u128 t2 = (u128)a0_2 * a2 + (u128)a1 * a1 + (u128)a3 * 2 * a4_19;
  u128 t3 = (u128)a0_2 * a3 + (u128)a1_2 * a2 + (u128)a4 * a4_19;
  u128 t4 = (u128)a0_2 * a4 + (u128)a1_2 * a3 + (u128)a2 * a2;

  Fe r;
  std::uint64_t c;
  c = static_cast<std::uint64_t>(t0 >> 51); r.v[0] = static_cast<std::uint64_t>(t0) & kMask51; t1 += c;
  c = static_cast<std::uint64_t>(t1 >> 51); r.v[1] = static_cast<std::uint64_t>(t1) & kMask51; t2 += c;
  c = static_cast<std::uint64_t>(t2 >> 51); r.v[2] = static_cast<std::uint64_t>(t2) & kMask51; t3 += c;
  c = static_cast<std::uint64_t>(t3 >> 51); r.v[3] = static_cast<std::uint64_t>(t3) & kMask51; t4 += c;
  c = static_cast<std::uint64_t>(t4 >> 51); r.v[4] = static_cast<std::uint64_t>(t4) & kMask51;
  r.v[0] += c * 19;
  c = r.v[0] >> 51; r.v[0] &= kMask51; r.v[1] += c;
  return r;
}

// n successive squarings.
Fe fe_sqn(Fe a, int n) {
  for (int i = 0; i < n; ++i) a = fe_sq(a);
  return a;
}

// Square-and-multiply with a big-endian 32-byte exponent. Variable time.
Fe fe_pow(const Fe& base, const std::uint8_t exponent_be[32]) {
  Fe result = fe_one();
  bool started = false;
  for (int byte = 0; byte < 32; ++byte) {
    for (int bit = 7; bit >= 0; --bit) {
      if (started) result = fe_sq(result);
      if ((exponent_be[byte] >> bit) & 1) {
        result = fe_mul(result, base);
        started = true;
      } else if (started) {
        // nothing: square already applied
      }
    }
  }
  return result;
}

// z^(2^250 - 1): the shared prefix of the inversion and sqrt addition
// chains (the classic curve25519 ladder — 249 squarings, 11 multiplies,
// versus ~128 multiplies for the old bit-scan fe_pow).
Fe fe_pow_2_250_m1(const Fe& z) {
  Fe t0 = fe_sq(z);                      // z^2
  Fe t1 = fe_mul(z, fe_sqn(t0, 2));      // z^9
  t0 = fe_mul(t0, t1);                   // z^11
  t1 = fe_mul(t1, fe_sq(t0));            // z^31 = z^(2^5 - 1)
  t1 = fe_mul(fe_sqn(t1, 5), t1);        // z^(2^10 - 1)
  Fe t2 = fe_mul(fe_sqn(t1, 10), t1);    // z^(2^20 - 1)
  t2 = fe_mul(fe_sqn(t2, 20), t2);       // z^(2^40 - 1)
  t2 = fe_sqn(t2, 10);                   // z^(2^50 - 2^10)
  t1 = fe_mul(t2, t1);                   // z^(2^50 - 1)
  t2 = fe_mul(fe_sqn(t1, 50), t1);       // z^(2^100 - 1)
  t2 = fe_mul(fe_sqn(t2, 100), t2);      // z^(2^200 - 1)
  return fe_mul(fe_sqn(t2, 50), t1);     // z^(2^250 - 1)
}

Fe fe_invert(const Fe& a) {
  // a^(p-2), p-2 = 2^255 - 21 = (2^250 - 1)·2^5 + 11.
  Fe t = fe_sqn(fe_pow_2_250_m1(a), 5);  // a^(2^255 - 2^5)
  Fe a2 = fe_sq(a);                      // a^2
  Fe a9 = fe_mul(a, fe_sqn(a2, 2));      // a^9
  Fe a11 = fe_mul(a2, a9);               // a^11
  return fe_mul(t, a11);
}

Fe fe_pow_p58(const Fe& a) {
  // a^((p-5)/8), (p-5)/8 = 2^252 - 3 = (2^250 - 1)·4 + 1.
  Fe t = fe_sqn(fe_pow_2_250_m1(a), 2);  // a^(2^252 - 4)
  return fe_mul(t, a);
}

void fe_tobytes(std::uint8_t out[32], const Fe& a) {
  // Full carry so limbs < 2^51.
  Fe t = a;
  std::uint64_t c;
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < 4; ++i) {
      c = t.v[i] >> 51;
      t.v[i] &= kMask51;
      t.v[i + 1] += c;
    }
    c = t.v[4] >> 51;
    t.v[4] &= kMask51;
    t.v[0] += c * 19;
  }
  // Canonical reduction: q = t + 19; if q >= 2^255 then t >= p, use q - 2^255.
  Fe q = t;
  q.v[0] += 19;
  for (int i = 0; i < 4; ++i) {
    c = q.v[i] >> 51;
    q.v[i] &= kMask51;
    q.v[i + 1] += c;
  }
  bool ge_p = (q.v[4] >> 51) != 0;
  q.v[4] &= kMask51;
  const Fe& r = ge_p ? q : t;
  // Serialize 255 bits little-endian.
  std::uint64_t packed[4];
  packed[0] = r.v[0] | (r.v[1] << 51);
  packed[1] = (r.v[1] >> 13) | (r.v[2] << 38);
  packed[2] = (r.v[2] >> 26) | (r.v[3] << 25);
  packed[3] = (r.v[3] >> 39) | (r.v[4] << 12);
  for (int i = 0; i < 4; ++i) {
    for (int b = 0; b < 8; ++b) {
      out[8 * i + b] = static_cast<std::uint8_t>(packed[i] >> (8 * b));
    }
  }
}

Fe fe_frombytes(const std::uint8_t in[32]) {
  std::uint64_t w[4];
  for (int i = 0; i < 4; ++i) {
    std::uint64_t v = 0;
    for (int b = 7; b >= 0; --b) v = v << 8 | in[8 * i + b];
    w[i] = v;
  }
  Fe r;
  r.v[0] = w[0] & kMask51;
  r.v[1] = (w[0] >> 51 | w[1] << 13) & kMask51;
  r.v[2] = (w[1] >> 38 | w[2] << 26) & kMask51;
  r.v[3] = (w[2] >> 25 | w[3] << 39) & kMask51;
  r.v[4] = (w[3] >> 12) & kMask51;  // top bit (sign) dropped by the mask
  return r;
}

bool fe_is_zero(const Fe& a) {
  std::uint8_t bytes[32];
  fe_tobytes(bytes, a);
  std::uint8_t acc = 0;
  for (auto b : bytes) acc |= b;
  return acc == 0;
}

bool fe_is_negative(const Fe& a) {
  std::uint8_t bytes[32];
  fe_tobytes(bytes, a);
  return bytes[0] & 1;
}

bool fe_equal(const Fe& a, const Fe& b) { return fe_is_zero(fe_sub(a, b)); }

Fe fe_neg(const Fe& a) { return fe_sub(fe_zero(), a); }

// Curve constants, computed once (avoids transcription errors).
struct Constants {
  Fe d;        // -121665/121666
  Fe d2;       // 2*d
  Fe sqrt_m1;  // sqrt(-1) = 2^((p-1)/4)
};

const Constants& constants() {
  static const Constants c = [] {
    Constants out;
    Fe num = fe_neg(fe_from_u64(121665));
    Fe den = fe_from_u64(121666);
    out.d = fe_mul(num, fe_invert(den));
    out.d2 = fe_add(out.d, out.d);
    // (p-1)/4 = 2^253 - 5
    static constexpr std::uint8_t kExp[32] = {
        0x1f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
        0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
        0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xfb};
    out.sqrt_m1 = fe_pow(fe_from_u64(2), kExp);
    return out;
  }();
  return c;
}

// ---------------------------------------------------------------------------
// Point arithmetic, extended coordinates (X:Y:Z:T), x = X/Z, y = Y/Z, T=XY/Z.
// ---------------------------------------------------------------------------

struct Point {
  Fe x, y, z, t;
};

Point point_identity() { return Point{fe_zero(), fe_one(), fe_one(), fe_zero()}; }

// RFC 8032 §5.1.4 addition.
Point point_add(const Point& p, const Point& q) {
  Fe a = fe_mul(fe_sub(p.y, p.x), fe_sub(q.y, q.x));
  Fe b = fe_mul(fe_add(p.y, p.x), fe_add(q.y, q.x));
  Fe c = fe_mul(fe_mul(p.t, constants().d2), q.t);
  Fe d = fe_mul(fe_add(p.z, p.z), q.z);
  Fe e = fe_sub(b, a);
  Fe f = fe_sub(d, c);
  Fe g = fe_add(d, c);
  Fe h = fe_add(b, a);
  return Point{fe_mul(e, f), fe_mul(g, h), fe_mul(f, g), fe_mul(e, h)};
}

// RFC 8032 §5.1.4 doubling.
Point point_double(const Point& p) {
  Fe a = fe_sq(p.x);
  Fe b = fe_sq(p.y);
  Fe c = fe_add(fe_sq(p.z), fe_sq(p.z));
  Fe h = fe_add(a, b);
  Fe xy = fe_add(p.x, p.y);
  Fe e = fe_sub(h, fe_sq(xy));
  Fe g = fe_sub(a, b);
  Fe f = fe_add(c, g);
  return Point{fe_mul(e, f), fe_mul(g, h), fe_mul(f, g), fe_mul(e, h)};
}

Point point_neg(const Point& p) {
  return Point{fe_neg(p.x), p.y, p.z, fe_neg(p.t)};
}

// Variable-time scalar multiplication, MSB-first double-and-add.
Point point_scalarmult(const Point& p, const std::uint8_t scalar_le[32]) {
  Point r = point_identity();
  for (int byte = 31; byte >= 0; --byte) {
    for (int bit = 7; bit >= 0; --bit) {
      r = point_double(r);
      if ((scalar_le[byte] >> bit) & 1) r = point_add(r, p);
    }
  }
  return r;
}

void point_encode(std::uint8_t out[32], const Point& p) {
  Fe zinv = fe_invert(p.z);
  Fe x = fe_mul(p.x, zinv);
  Fe y = fe_mul(p.y, zinv);
  fe_tobytes(out, y);
  if (fe_is_negative(x)) out[31] |= 0x80;
}

// RFC 8032 §5.1.3 decompression. Returns false for non-points.
bool point_decode(Point& out, const std::uint8_t in[32]) {
  Fe y = fe_frombytes(in);
  bool x_sign = (in[31] & 0x80) != 0;

  // Solve x^2 = (y^2 - 1) / (d y^2 + 1).
  Fe y2 = fe_sq(y);
  Fe u = fe_sub(y2, fe_one());
  Fe v = fe_add(fe_mul(constants().d, y2), fe_one());
  // Candidate root: x = u v^3 (u v^7)^((p-5)/8).
  Fe v3 = fe_mul(fe_sq(v), v);
  Fe v7 = fe_mul(fe_sq(v3), v);
  Fe x = fe_mul(fe_mul(u, v3), fe_pow_p58(fe_mul(u, v7)));

  Fe vx2 = fe_mul(v, fe_sq(x));
  if (!fe_equal(vx2, u)) {
    if (fe_equal(vx2, fe_neg(u))) {
      x = fe_mul(x, constants().sqrt_m1);
    } else {
      return false;
    }
  }
  if (fe_is_zero(x) && x_sign) return false;  // -0 is not canonical
  if (fe_is_negative(x) != x_sign) x = fe_neg(x);

  out.x = x;
  out.y = y;
  out.z = fe_one();
  out.t = fe_mul(x, y);
  return true;
}

const Point& base_point() {
  static const Point b = [] {
    // Canonical encoding of the base point (y = 4/5, x positive... the
    // standard generator has sign bit 0): 0x58 0x66 0x66 ... 0x66.
    std::uint8_t enc[32];
    enc[0] = 0x58;
    std::memset(enc + 1, 0x66, 31);
    Point p;
    bool ok = point_decode(p, enc);
    (void)ok;
    return p;
  }();
  return b;
}

// A table entry in "cached" form: (Y+X, Y−X, Z, T·2d). Storing the sums and
// the 2d product once per entry shaves two additions and one multiply off
// every table addition relative to the generic point_add.
struct CachedPoint {
  Fe y_plus_x, y_minus_x, z, t2d;
};

CachedPoint point_cache(const Point& p) {
  return CachedPoint{fe_add(p.y, p.x), fe_sub(p.y, p.x), p.z,
                     fe_mul(p.t, constants().d2)};
}

Point point_add_cached(const Point& p, const CachedPoint& q) {
  Fe a = fe_mul(fe_sub(p.y, p.x), q.y_minus_x);
  Fe b = fe_mul(fe_add(p.y, p.x), q.y_plus_x);
  Fe c = fe_mul(q.t2d, p.t);
  Fe d = fe_mul(fe_add(p.z, p.z), q.z);
  Fe e = fe_sub(b, a);
  Fe f = fe_sub(d, c);
  Fe g = fe_add(d, c);
  Fe h = fe_add(b, a);
  return Point{fe_mul(e, f), fe_mul(g, h), fe_mul(f, g), fe_mul(e, h)};
}

// Precomputed multiples of the base point for 8-bit fixed-window scalar
// multiplication: table[w][j-1] = j * 256^w * B, cached form. Signing and
// key generation perform a base multiplication per call; 32 cached
// additions per multiply is ~4x cheaper than the 4-bit Point table this
// replaces (and ~40x cheaper than double-and-add). ~1.3 MiB, built once.
struct BaseTable {
  CachedPoint entry[32][255];
};

const BaseTable& base_table() {
  static const BaseTable& table = *[] {
    auto* t = new BaseTable;  // leaked singleton, like the name pool
    Point window_base = base_point();  // 256^w * B
    for (int w = 0; w < 32; ++w) {
      Point acc = window_base;
      for (int j = 0; j < 255; ++j) {
        t->entry[w][j] = point_cache(acc);
        acc = point_add(acc, window_base);
      }
      window_base = acc;  // 256 * window_base
    }
    return t;
  }();
  return table;
}

// r = scalar * B via the precomputed window table (variable time).
Point point_scalarmult_base(const std::uint8_t scalar_le[32]) {
  const BaseTable& table = base_table();
  Point acc = point_identity();
  for (int w = 0; w < 32; ++w) {
    int byte = scalar_le[w];
    if (byte != 0) acc = point_add_cached(acc, table.entry[w][byte - 1]);
  }
  return acc;
}

// ---------------------------------------------------------------------------
// Scalar arithmetic mod L = 2^252 + 27742317777372353535851937790883648493.
// TweetNaCl-style byte-wise reduction.
// ---------------------------------------------------------------------------

constexpr std::int64_t kL[32] = {0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12,
                                 0x58, 0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9,
                                 0xde, 0x14, 0,    0,    0,    0,    0,
                                 0,    0,    0,    0,    0,    0,    0,
                                 0,    0,    0,    0x10};

void mod_l(std::uint8_t r[32], std::int64_t x[64]) {
  std::int64_t carry;
  for (int i = 63; i >= 32; --i) {
    carry = 0;
    int j;
    for (j = i - 32; j < i - 12; ++j) {
      x[j] += carry - 16 * x[i] * kL[j - (i - 32)];
      carry = (x[j] + 128) >> 8;
      x[j] -= carry << 8;
    }
    x[j] += carry;
    x[i] = 0;
  }
  carry = 0;
  for (int j = 0; j < 32; ++j) {
    x[j] += carry - (x[31] >> 4) * kL[j];
    carry = x[j] >> 8;
    x[j] &= 255;
  }
  for (int j = 0; j < 32; ++j) x[j] -= carry * kL[j];
  for (int i = 0; i < 32; ++i) {
    x[i + 1] += x[i] >> 8;
    r[i] = static_cast<std::uint8_t>(x[i] & 255);
  }
}

// Reduce a 64-byte little-endian value mod L.
void scalar_reduce(std::uint8_t r[32], const std::uint8_t h[64]) {
  std::int64_t x[64];
  for (int i = 0; i < 64; ++i) x[i] = h[i];
  mod_l(r, x);
}

// r = (a*b + c) mod L, inputs 32-byte little-endian.
void scalar_muladd(std::uint8_t r[32], const std::uint8_t a[32],
                   const std::uint8_t b[32], const std::uint8_t c[32]) {
  std::int64_t x[64];
  for (auto& v : x) v = 0;
  for (int i = 0; i < 32; ++i) x[i] = c[i];
  for (int i = 0; i < 32; ++i) {
    for (int j = 0; j < 32; ++j) {
      x[i + j] += static_cast<std::int64_t>(a[i]) * b[j];
    }
  }
  mod_l(r, x);
}

// Checks s < L (malleability check, RFC 8032 §5.1.7).
bool scalar_in_range(const std::uint8_t s[32]) {
  for (int i = 31; i >= 0; --i) {
    if (s[i] < kL[i]) return true;
    if (s[i] > kL[i]) return false;
  }
  return false;  // s == L
}

void clamp(std::uint8_t scalar[32]) {
  scalar[0] &= 248;
  scalar[31] &= 127;
  scalar[31] |= 64;
}

struct ExpandedSecret {
  std::uint8_t scalar[32];
  std::uint8_t prefix[32];
};

ExpandedSecret expand_seed(const Ed25519Seed& seed) {
  auto h = Sha512::digest(BytesView(seed.data(), seed.size()));
  ExpandedSecret out;
  std::memcpy(out.scalar, h.data(), 32);
  std::memcpy(out.prefix, h.data() + 32, 32);
  clamp(out.scalar);
  return out;
}

// ---------------------------------------------------------------------------
// Verification memo (DESIGN.md §14.5). For S < L the verification equation
// reads the message only through k = SHA512(R || A || M) mod L, so its
// outcome is a function of the 128 bytes (A, R, S, k), and a table keyed on
// them returns exactly what the full computation would.
// ---------------------------------------------------------------------------

// 4-way set-associative, one per thread: a full set overwrites its oldest
// way. Accepts and rejects are both stored.
class VerifyMemo {
 public:
  using Key = std::array<std::uint8_t, 128>;  // A || R || S || k

  std::optional<bool> find(const Key& key) const {
    for (const Entry& entry : sets_[set_of(key)].ways) {
      if (entry.used && entry.key == key) return entry.accepted;
    }
    return std::nullopt;
  }

  void insert(const Key& key, bool accepted) {
    Set& set = sets_[set_of(key)];
    set.ways[set.next] = Entry{key, true, accepted};
    set.next = static_cast<std::uint8_t>((set.next + 1) % kWays);
  }

 private:
  static constexpr std::size_t kWays = 4;
  static constexpr std::size_t kSets = kEd25519VerifyMemoCapacity / kWays;
  static_assert(kSets * kWays == kEd25519VerifyMemoCapacity &&
                (kSets & (kSets - 1)) == 0);

  struct Entry {
    Key key;
    bool used;
    bool accepted;
  };
  struct Set {
    std::array<Entry, kWays> ways;
    std::uint8_t next;  // the way the next insert overwrites
  };

  // k, a hash output, is the key's last 32 bytes: its low bits spread keys
  // evenly over the sets.
  static std::size_t set_of(const Key& key) {
    return (key[96] | static_cast<std::size_t>(key[97]) << 8) & (kSets - 1);
  }

  std::array<Set, kSets> sets_{};
};

// Allocated on a thread's first verification, so threads that never verify
// hold no table; freed when the thread exits.
VerifyMemo& verify_memo() {
  thread_local const std::unique_ptr<VerifyMemo> memo =
      std::make_unique<VerifyMemo>();
  return *memo;
}

// Check [S]B == R + [k]A  <=>  [S]B + [k](-A) == R for a memo key whose S is
// already range-checked. False when A is not a curve point.
bool verify_equation(const VerifyMemo::Key& key) {
  const std::uint8_t* a_bytes = key.data();
  const std::uint8_t* r_bytes = key.data() + 32;
  const std::uint8_t* s_bytes = key.data() + 64;
  const std::uint8_t* k = key.data() + 96;
  Point a;
  if (!point_decode(a, a_bytes)) return false;
  Point sb = point_scalarmult_base(s_bytes);
  Point ka = point_scalarmult(point_neg(a), k);
  Point check = point_add(sb, ka);
  std::uint8_t check_bytes[32];
  point_encode(check_bytes, check);
  return std::memcmp(check_bytes, r_bytes, 32) == 0;
}

}  // namespace

Ed25519PublicKey ed25519_public_key(const Ed25519Seed& seed) {
  ExpandedSecret sec = expand_seed(seed);
  Point a = point_scalarmult_base(sec.scalar);
  Ed25519PublicKey pk;
  point_encode(pk.data(), a);
  return pk;
}

Ed25519Signature ed25519_sign(const Ed25519Seed& seed, BytesView message) {
  return ed25519_sign(seed, ed25519_public_key(seed), message);
}

Ed25519Signature ed25519_sign(const Ed25519Seed& seed,
                              const Ed25519PublicKey& public_key,
                              BytesView message) {
  ExpandedSecret sec = expand_seed(seed);
  const Ed25519PublicKey& pk = public_key;

  // r = SHA512(prefix || M) mod L
  Sha512 hr;
  hr.update(BytesView(sec.prefix, 32));
  hr.update(message);
  auto r_full = hr.finish();
  std::uint8_t r[32];
  scalar_reduce(r, r_full.data());

  Point rp = point_scalarmult_base(r);
  Ed25519Signature sig;
  point_encode(sig.data(), rp);

  // k = SHA512(R || A || M) mod L
  Sha512 hk;
  hk.update(BytesView(sig.data(), 32));
  hk.update(BytesView(pk.data(), pk.size()));
  hk.update(message);
  auto k_full = hk.finish();
  std::uint8_t k[32];
  scalar_reduce(k, k_full.data());

  // S = (r + k*s) mod L
  scalar_muladd(sig.data() + 32, k, sec.scalar, r);
  return sig;
}

bool ed25519_verify(const Ed25519PublicKey& public_key, BytesView message,
                    const Ed25519Signature& signature) {
  const std::uint8_t* s_bytes = signature.data() + 32;
  if (!scalar_in_range(s_bytes)) return false;

  // Key = A || R || S || k, with k = SHA512(R || A || M) mod L.
  VerifyMemo::Key key{};
  std::memcpy(key.data(), public_key.data(), 32);
  std::memcpy(key.data() + 32, signature.data(), 64);
  Sha512 hk;
  hk.update(BytesView(signature.data(), 32));
  hk.update(BytesView(public_key.data(), public_key.size()));
  hk.update(message);
  auto k_full = hk.finish();
  scalar_reduce(key.data() + 96, k_full.data());

  VerifyMemo& memo = verify_memo();
  if (const std::optional<bool> known = memo.find(key)) return *known;
  const bool accepted = verify_equation(key);
  memo.insert(key, accepted);
  return accepted;
}

}  // namespace dnsboot::crypto
