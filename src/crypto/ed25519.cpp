#include "crypto/ed25519.hpp"

#include <cstring>
#include <memory>
#include <optional>
#include <vector>

#include "crypto/ed25519_scalar.hpp"
#include "crypto/sha2.hpp"

namespace dnsboot::crypto {
namespace {

using ed25519_detail::load64_le;
using ed25519_detail::scalar_below_l;
using ed25519_detail::scalar_muladd;
using ed25519_detail::scalar_reduce;
using ed25519_detail::store64_le;
using U128 = ed25519_detail::U128;

// ---------------------------------------------------------------------------
// Field arithmetic over GF(p), p = 2^255 - 19, radix-2^51 limbs.
// Invariant outside of intermediate sums: each limb < 2^52. fe_mul and fe_sq
// accept limbs below 2^54 (a sum of up to three such elements); fe_sub's
// subtrahend must come straight from fe_mul, fe_sq or fe_sub, whose limbs
// stay below the 2p it adds.
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

// Carries the five 128-bit column sums of a product into limbs below 2^52,
// with 2^255 = 19 folding the top carry into limb 0. For factors below 2^54
// per limb every column is below 2^115, and column 4 (no factor 19) below
// 5 * 2^108. The wide carries of columns 0, 2 and 3 go first and those of 1
// and 4 next, so the critical path is three carry levels deep instead of
// the six of one sequential chain.
Fe fe_carry_wide(U128 t0, U128 t1, U128 t2, U128 t3, U128 t4) {
  const auto lo = [](U128 t) {
    return static_cast<std::uint64_t>(t) & kMask51;
  };
  const auto hi = [](U128 t) { return static_cast<std::uint64_t>(t >> 51); };
  // Level 1: columns 0 -> 1, 2 -> 3 and 3 -> 4, from the raw sums.
  t1 += hi(t0);
  t4 += hi(t3);
  std::uint64_t r3 = lo(t3) + hi(t2);  // below 2^64
  // Level 2: 1 -> 2, 4 -> 0 and 3 -> 4.
  std::uint64_t r2 = lo(t2) + hi(t1);
  std::uint64_t r0 = lo(t0) + 19 * hi(t4);  // hi(t4) < 5 * 2^57 + 2^13
  const std::uint64_t r4 = lo(t4) + (r3 >> 51);
  std::uint64_t r1 = lo(t1);
  r3 &= kMask51;
  // Level 3: the two limbs that took a wide carry at level 2 pass on what
  // is left (below 2^13).
  r3 += r2 >> 51;
  r1 += r0 >> 51;
  return Fe{{r0 & kMask51, r1, r2 & kMask51, r3, r4}};
}

Fe fe_mul(const Fe& a, const Fe& b) {
  const std::uint64_t a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3], a4 = a.v[4];
  const std::uint64_t b0 = b.v[0], b1 = b.v[1], b2 = b.v[2], b3 = b.v[3], b4 = b.v[4];
  const std::uint64_t b1_19 = b1 * 19, b2_19 = b2 * 19, b3_19 = b3 * 19, b4_19 = b4 * 19;

  return fe_carry_wide(
      (U128)a0 * b0 + (U128)a1 * b4_19 + (U128)a2 * b3_19 + (U128)a3 * b2_19 +
          (U128)a4 * b1_19,
      (U128)a0 * b1 + (U128)a1 * b0 + (U128)a2 * b4_19 + (U128)a3 * b3_19 +
          (U128)a4 * b2_19,
      (U128)a0 * b2 + (U128)a1 * b1 + (U128)a2 * b0 + (U128)a3 * b4_19 +
          (U128)a4 * b3_19,
      (U128)a0 * b3 + (U128)a1 * b2 + (U128)a2 * b1 + (U128)a3 * b0 +
          (U128)a4 * b4_19,
      (U128)a0 * b4 + (U128)a1 * b3 + (U128)a2 * b2 + (U128)a3 * b1 +
          (U128)a4 * b0);
}

// Dedicated squaring: the symmetric cross terms fold into doubled products,
// ~3/5 the multiply work of the general fe_mul.
Fe fe_sq(const Fe& a) {
  const std::uint64_t a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3],
                      a4 = a.v[4];
  const std::uint64_t a0_2 = a0 * 2, a1_2 = a1 * 2, a2_2 = a2 * 2,
                      a3_19 = a3 * 19, a4_19 = a4 * 19;

  return fe_carry_wide(
      (U128)a0 * a0 + (U128)a1_2 * a4_19 + (U128)a2_2 * a3_19,
      (U128)a0_2 * a1 + (U128)a2_2 * a4_19 + (U128)a3 * a3_19,
      (U128)a0_2 * a2 + (U128)a1 * a1 + (U128)a3 * 2 * a4_19,
      (U128)a0_2 * a3 + (U128)a1_2 * a2 + (U128)a4 * a4_19,
      (U128)a0_2 * a4 + (U128)a1_2 * a3 + (U128)a2 * a2);
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
  for (std::size_t i = 0; i < 4; ++i) store64_le(out + 8 * i, packed[i]);
}

Fe fe_frombytes(const std::uint8_t in[32]) {
  std::uint64_t w[4];
  for (std::size_t i = 0; i < 4; ++i) w[i] = load64_le(in + 8 * i);
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
// Point arithmetic (RFC 8032 §5.1.4 formulas, in ref10's coordinate forms).
// The addition and doubling laws are complete on this curve, so every input
// point, small-order ones included, takes the same path.
// ---------------------------------------------------------------------------

// Extended coordinates (X:Y:Z:T): x = X/Z, y = Y/Z, T = XY/Z.
struct Point {
  Fe x, y, z, t;
};

// Projective coordinates (X:Y:Z), an extended point without T: enough to
// double from.
struct ProjectivePoint {
  Fe x, y, z;
};

// The "completed" result of an addition or doubling, (E:H:G:F) with
// x = E/G and y = H/F, before the final multiplications.
struct CompletedPoint {
  Fe e, h, g, f;
};

// An addend in "cached" form: (Y+X, Y−X, Z, T·2d). Storing the sums and the
// 2d product once per addend shaves two additions and one multiply off every
// addition that uses it.
struct CachedPoint {
  Fe y_plus_x, y_minus_x, z, t2d;
};

// A cached addend with Z = 1: (y+x, y−x, 2dxy). One multiply cheaper again.
struct AffinePoint {
  Fe y_plus_x, y_minus_x, xy2d;
};

Point point_identity() {
  return Point{fe_zero(), fe_one(), fe_one(), fe_zero()};
}

Point to_extended(const CompletedPoint& p) {
  return Point{fe_mul(p.e, p.f), fe_mul(p.h, p.g), fe_mul(p.g, p.f),
               fe_mul(p.e, p.h)};
}

ProjectivePoint to_projective(const CompletedPoint& p) {
  return ProjectivePoint{fe_mul(p.e, p.f), fe_mul(p.h, p.g), fe_mul(p.g, p.f)};
}

CachedPoint point_cache(const Point& p) {
  return CachedPoint{fe_add(p.y, p.x), fe_sub(p.y, p.x), p.z,
                     fe_mul(p.t, constants().d2)};
}

// 2p, four squarings: T is neither read nor needed.
CompletedPoint point_double(const ProjectivePoint& p) {
  const Fe a = fe_sq(p.x);
  const Fe b = fe_sq(p.y);
  const Fe zz = fe_sq(p.z);
  const Fe h = fe_add(a, b);
  const Fe g = fe_sub(a, b);
  return CompletedPoint{fe_sub(h, fe_sq(fe_add(p.x, p.y))), h, g,
                        fe_add(fe_add(zz, zz), g)};
}

// Shared tail of the additions: (y1−x1)·qm, (y1+x1)·qp, t1·qt and 2·z1·qz
// combine to p + q, or to p − q when `subtract` (−q swaps qp and qm and
// negates qt).
CompletedPoint point_add_terms(const Fe& a, const Fe& b, const Fe& c,
                               const Fe& d, bool subtract) {
  const Fe sum = fe_add(d, c);
  const Fe diff = fe_sub(d, c);
  return CompletedPoint{fe_sub(b, a), fe_add(b, a), subtract ? diff : sum,
                        subtract ? sum : diff};
}

CompletedPoint point_add(const Point& p, const CachedPoint& q,
                         bool subtract) {
  const Fe a = fe_mul(fe_sub(p.y, p.x), subtract ? q.y_plus_x : q.y_minus_x);
  const Fe b = fe_mul(fe_add(p.y, p.x), subtract ? q.y_minus_x : q.y_plus_x);
  const Fe c = fe_mul(p.t, q.t2d);
  const Fe zz = fe_mul(p.z, q.z);
  return point_add_terms(a, b, c, fe_add(zz, zz), subtract);
}

CompletedPoint point_add(const Point& p, const AffinePoint& q, bool subtract) {
  const Fe a = fe_mul(fe_sub(p.y, p.x), subtract ? q.y_plus_x : q.y_minus_x);
  const Fe b = fe_mul(fe_add(p.y, p.x), subtract ? q.y_minus_x : q.y_plus_x);
  const Fe c = fe_mul(p.t, q.xy2d);
  return point_add_terms(a, b, c, fe_add(p.z, p.z), subtract);
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

// Multiples of the base point for signed radix-256 scalar multiplication:
// entry[w][j-1] = j * 256^w * B for j = 1..128, affine. A scalar's 32 signed
// digits in [-128, 128] then cost one 7-multiply addition each. 480 KiB,
// built once; each window's 128 Z coordinates share one inversion.
struct BaseTable {
  AffinePoint entry[32][128];
};

const BaseTable& base_table() {
  static const BaseTable& table = *[] {
    auto* t = new BaseTable;  // leaked singleton, like the name pool
    std::vector<Point> multiple(128);
    std::vector<Fe> z_prefix(128);  // z_prefix[j] = Z_0 · ... · Z_j
    Point window_base = base_point();  // 256^w * B
    for (int w = 0; w < 32; ++w) {
      const CachedPoint step = point_cache(window_base);
      multiple[0] = window_base;
      z_prefix[0] = window_base.z;
      for (int j = 1; j < 128; ++j) {
        multiple[j] = to_extended(point_add(multiple[j - 1], step, false));
        z_prefix[j] = fe_mul(z_prefix[j - 1], multiple[j].z);
      }
      // Montgomery's trick: inv is 1 / z_prefix[j] at the top of each step.
      Fe inv = fe_invert(z_prefix[127]);
      for (int j = 127; j >= 0; --j) {
        Fe z_inv = inv;
        if (j > 0) {
          z_inv = fe_mul(inv, z_prefix[j - 1]);
          inv = fe_mul(inv, multiple[j].z);
        }
        const Fe x = fe_mul(multiple[j].x, z_inv);
        const Fe y = fe_mul(multiple[j].y, z_inv);
        t->entry[w][j] = AffinePoint{fe_add(y, x), fe_sub(y, x),
                                     fe_mul(fe_mul(x, y), constants().d2)};
      }
      const Point& top = multiple[127];  // 128 * 256^w * B
      window_base =
          to_extended(point_double(ProjectivePoint{top.x, top.y, top.z}));
    }
    return t;
  }();
  return table;
}

// r = scalar * B for a scalar below 2^255 (its top bit clear, as for every
// clamped or reduced scalar). Variable time.
Point point_scalarmult_base(const std::uint8_t scalar_le[32]) {
  const BaseTable& table = base_table();
  Point acc = point_identity();
  int carry = 0;
  for (int w = 0; w < 32; ++w) {
    // Bytes become signed digits in [-128, 127]; the top one, at most
    // 127 + 1, keeps its carry.
    int digit = scalar_le[w] + carry;
    carry = w < 31 && digit > 127;
    digit -= carry * 256;
    if (digit == 0) continue;
    const bool negative = digit < 0;
    const AffinePoint& entry = table.entry[w][(negative ? -digit : digit) - 1];
    acc = to_extended(point_add(acc, entry, negative));
  }
  return acc;
}

// r = k * p for a scalar k below 2^253 (a reduced one). Signed radix-16
// digits in [-8, 8] index an eight-entry table of p..8p; each digit costs
// four doublings, the first three without T.
Point point_scalarmult(const Point& p, const std::uint8_t k_le[32]) {
  int digit[64];
  for (std::size_t i = 0; i < 32; ++i) {
    digit[2 * i] = k_le[i] & 15;
    digit[2 * i + 1] = k_le[i] >> 4;
  }
  for (int i = 0; i < 63; ++i) {
    const int carry = (digit[i] + 8) >> 4;
    digit[i] -= carry * 16;
    digit[i + 1] += carry;
  }

  CachedPoint table[8];
  table[0] = point_cache(p);
  Point multiple = p;
  for (int j = 1; j < 8; ++j) {
    multiple = to_extended(point_add(multiple, table[0], false));
    table[j] = point_cache(multiple);
  }

  Point acc = point_identity();
  for (int i = 63; i >= 0; --i) {
    if (i < 63) {
      ProjectivePoint q{acc.x, acc.y, acc.z};
      for (int d = 0; d < 3; ++d) q = to_projective(point_double(q));
      acc = to_extended(point_double(q));
    }
    if (digit[i] != 0) {
      const bool negative = digit[i] < 0;
      const CachedPoint& entry = table[(negative ? -digit[i] : digit[i]) - 1];
      acc = to_extended(point_add(acc, entry, negative));
    }
  }
  return acc;
}

void clamp(std::uint8_t scalar[32]) {
  scalar[0] &= 248;
  scalar[31] &= 127;
  scalar[31] |= 64;
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

// Check [S]B == R + [k]A  <=>  [S]B - [k]A == R for a memo key whose S is
// already range-checked. False when A is not a curve point.
bool verify_equation(const VerifyMemo::Key& key) {
  const std::uint8_t* a_bytes = key.data();
  const std::uint8_t* r_bytes = key.data() + 32;
  const std::uint8_t* s_bytes = key.data() + 64;
  const std::uint8_t* k = key.data() + 96;
  Point a;
  if (!point_decode(a, a_bytes)) return false;
  const Point sb = point_scalarmult_base(s_bytes);
  const Point ka = point_scalarmult(a, k);
  std::uint8_t check_bytes[32];
  point_encode(check_bytes, to_extended(point_add(sb, point_cache(ka), true)));
  return std::memcmp(check_bytes, r_bytes, 32) == 0;
}

}  // namespace

Ed25519SecretKey ed25519_expand_seed(const Ed25519Seed& seed) {
  auto h = Sha512::digest(BytesView(seed.data(), seed.size()));
  Ed25519SecretKey out;
  std::memcpy(out.scalar.data(), h.data(), 32);
  std::memcpy(out.prefix.data(), h.data() + 32, 32);
  clamp(out.scalar.data());
  return out;
}

Ed25519PublicKey ed25519_public_key(const Ed25519SecretKey& secret) {
  Point a = point_scalarmult_base(secret.scalar.data());
  Ed25519PublicKey pk;
  point_encode(pk.data(), a);
  return pk;
}

Ed25519Signature ed25519_sign(const Ed25519SecretKey& secret,
                              const Ed25519PublicKey& public_key,
                              BytesView message) {
  const Ed25519PublicKey& pk = public_key;

  // r = SHA512(prefix || M) mod L
  Sha512 hr;
  hr.update(BytesView(secret.prefix.data(), secret.prefix.size()));
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
  scalar_muladd(sig.data() + 32, k, secret.scalar.data(), r);
  return sig;
}

bool ed25519_verify(const Ed25519PublicKey& public_key, BytesView message,
                    const Ed25519Signature& signature) {
  const std::uint8_t* s_bytes = signature.data() + 32;
  if (!scalar_below_l(s_bytes)) return false;

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
