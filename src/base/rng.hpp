// Deterministic random number generation for the ecosystem generator and
// failure injection. Everything in dnsboot that is "random" flows through
// these types so that a run is exactly reproducible from its seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dnsboot {

// SplitMix64 — used to expand a single seed into generator state.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();

 private:
  std::uint64_t state_;
};

// xoshiro256** — the workhorse generator. Fast, high quality, 2^256-1 period.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  std::uint64_t next_u64();
  // Uniform in [0, bound) without modulo bias (Lemire's method).
  std::uint64_t next_below(std::uint64_t bound);
  // Uniform double in [0, 1).
  double next_double();
  // Bernoulli trial.
  bool chance(double p);
  // Fill a byte buffer.
  void fill(std::uint8_t* out, std::size_t n);
  std::vector<std::uint8_t> bytes(std::size_t n);

  // Derive an independent child generator; stable for (seed, label).
  Rng fork(const std::string& label) const;

 private:
  std::uint64_t s_[4];
  std::uint64_t seed_;
};

// Zipf(s, n) sampler over ranks 1..n. DNS operator portfolio sizes and
// domain-name popularity are heavy-tailed; the generator uses this to draw
// realistic long-tail assignments (rejection-inversion, Hörmann & Derflinger).
class ZipfSampler {
 public:
  ZipfSampler(double exponent, std::uint64_t n);
  std::uint64_t sample(Rng& rng) const;

  double exponent() const { return s_; }
  std::uint64_t n() const { return n_; }

 private:
  double h(double x) const;
  double h_integral(double x) const;
  double h_integral_inverse(double x) const;

  double s_;
  std::uint64_t n_;
  double h_integral_x1_;
  double h_integral_n_;
  double sdiv_;
};

// FNV-1a — stable string hashing for fork labels and operator bucketing.
std::uint64_t fnv1a(const std::string& s);

// Stable shard assignment of a zone by its canonical name text. Shared by
// the ecosystem's streaming shard builder (which decides which zones a shard
// world materializes) and the analysis executor (which partitions scan
// targets) — the two MUST agree or shards would scan zones they never built.
inline std::size_t shard_of_canonical(const std::string& canonical_text,
                                      std::size_t shards) {
  if (shards <= 1) return 0;
  return static_cast<std::size_t>(fnv1a(canonical_text) % shards);
}

// Network seed of shard `shard_index` of `shards` in a world whose base
// network seed is `base_seed`. One shard passes the base seed through
// unchanged, so a one-shard run is exactly the single-world run; otherwise
// each shard gets a SplitMix64-derived seed so shard networks draw
// independent jitter and loss.
std::uint64_t shard_network_seed(std::uint64_t base_seed,
                                 std::size_t shard_index, std::size_t shards);

}  // namespace dnsboot
