#include "base/rng.hpp"

#include <cassert>
#include <cmath>

namespace dnsboot {

namespace {
std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

std::uint64_t SplitMix64::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) : seed_(seed) {
  SplitMix64 sm(seed);
  for (auto& s : s_) s = sm.next();
  // xoshiro state must not be all-zero; SplitMix64 output makes this
  // astronomically unlikely, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next_u64() {
  std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  assert(bound > 0);
  // Lemire's nearly-divisionless method.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  std::uint64_t l = static_cast<std::uint64_t>(m);
  if (l < bound) {
    std::uint64_t t = -bound % bound;
    while (l < t) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::next_double() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return next_double() < p;
}

void Rng::fill(std::uint8_t* out, std::size_t n) {
  std::size_t i = 0;
  while (i + 8 <= n) {
    std::uint64_t v = next_u64();
    for (int b = 0; b < 8; ++b) out[i++] = static_cast<std::uint8_t>(v >> (8 * b));
  }
  if (i < n) {
    std::uint64_t v = next_u64();
    while (i < n) {
      out[i++] = static_cast<std::uint8_t>(v & 0xff);
      v >>= 8;
    }
  }
}

std::vector<std::uint8_t> Rng::bytes(std::size_t n) {
  std::vector<std::uint8_t> out(n);
  fill(out.data(), n);
  return out;
}

Rng Rng::fork(const std::string& label) const {
  return Rng(seed_ ^ fnv1a(label) ^ 0xa5a5a5a5a5a5a5a5ULL);
}

ZipfSampler::ZipfSampler(double exponent, std::uint64_t n)
    : s_(exponent), n_(n) {
  assert(n >= 1);
  assert(exponent > 0.0);
  h_integral_x1_ = h_integral(1.5) - 1.0;
  h_integral_n_ = h_integral(static_cast<double>(n) + 0.5);
  sdiv_ = 2.0 - h_integral_inverse(h_integral(2.5) - h(2.0));
}

double ZipfSampler::h(double x) const { return std::exp(-s_ * std::log(x)); }

double ZipfSampler::h_integral(double x) const {
  double log_x = std::log(x);
  // Integral of x^-s: handles s == 1 via the helper below.
  double t = log_x * (1.0 - s_);
  double helper = (std::abs(t) > 1e-8) ? std::expm1(t) / t : 1.0 + t / 2.0 + t * t / 6.0;
  return log_x * helper;
}

double ZipfSampler::h_integral_inverse(double x) const {
  double t = x * (1.0 - s_);
  if (t < -1.0) t = -1.0;  // numerical guard
  double helper = (std::abs(t) > 1e-8) ? std::log1p(t) / t : 1.0 - t / 2.0 + t * t / 3.0;
  return std::exp(x * helper);
}

std::uint64_t ZipfSampler::sample(Rng& rng) const {
  // Rejection-inversion sampling (Hörmann & Derflinger 1996).
  while (true) {
    double u = h_integral_n_ + rng.next_double() * (h_integral_x1_ - h_integral_n_);
    double x = h_integral_inverse(u);
    std::uint64_t k = static_cast<std::uint64_t>(x + 0.5);
    if (k < 1) k = 1;
    if (k > n_) k = n_;
    double kd = static_cast<double>(k);
    if (kd - x <= sdiv_ || u >= h_integral(kd + 0.5) - h(kd)) {
      return k;
    }
  }
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t shard_network_seed(std::uint64_t base_seed,
                                 std::size_t shard_index, std::size_t shards) {
  if (shards <= 1) return base_seed;
  SplitMix64 mix(base_seed);
  std::uint64_t derived = mix.next();
  return derived ^
         (0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(shard_index) + 1));
}

}  // namespace dnsboot
