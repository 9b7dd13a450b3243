// Shared plumbing for the two workloads: options, per-round samples, result
// reporting, and the derivation of every input from --seed.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "layers.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scratch_dir;  // writable directory for the monitor's journal
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::string failure;  // first failed check, reported on stderr
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  // Record a correctness check; the first failure is kept for diagnosis.
  void check(bool ok, const std::string& what) {
    if (ok) return;
    if (correct) failure = what;
    correct = false;
  }
};

// End-to-end samples, one per round. A workload runs in rounds of one to
// four seconds: each sets up a fresh world and then serves requests in it.
// On a shared machine other tenants slow whole rounds by up to a third, at
// random, while the same world on the same CPU runs at full speed in the
// next run. So the rate and latency are reported from the faster quarter
// of rounds (upper quartile of rates, lower quartile of latencies): a
// slower program is slower in every round, a noisy neighbour only in some.
// Set-up time is the median over rounds.
struct EndToEnd {
  std::vector<double> setup_s;
  std::vector<double> latency_ms;  // the round's median request latency
  std::vector<double> rate;        // the round's ops per second
};

// Per-layer totals of a traced run, summed over its rounds.
struct LayerTotals {
  std::vector<double> plan_ms;
  std::vector<double> build_ms;
  std::vector<double> report_ms;
  double net_s = 0;
  double server_s = 0;
  double client_s = 0;
  double decode_s = 0;
  double encode_s = 0;
  std::uint64_t queries = 0;  // queries the servers answered
  std::uint64_t bytes = 0;    // bytes on the wire, both directions
  double ops = 0;             // the workload's unit of work (probe, query)
  double namepool_bytes_per_zone = 0;  // first round only

  void add(const LayerClock& clock) {
    net_s += clock.self_seconds(Layer::kNet);
    server_s += clock.self_seconds(Layer::kServer);
    client_s += clock.self_seconds(Layer::kClient);
    decode_s += clock.self_seconds(Layer::kDecode);
    encode_s += clock.self_seconds(Layer::kEncode);
  }
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Pin the calling thread to the CPU that round `round` uses. Rounds rotate
// over every CPU the process may run on: on a shared host one CPU at a time
// can run much slower for a while, and a run that visits all of them lets
// the quartiles and medians over rounds discount it. Does nothing if the
// affinity calls fail.
void pin_to_round_cpu(int round);

// Seed of round `round`: every input of a run is a function of --seed.
std::uint64_t round_seed(std::uint64_t seed, std::uint64_t round);

// Linear interpolation between closest ranks (the numpy default).
double percentile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

// Bytes the process-wide name pool has reserved so far.
double namepool_bytes();

// Append the end-to-end metrics (trace off) or the per-layer metrics
// (trace on) to `result`.
void report_end_to_end(const EndToEnd& e2e, RunResult* result);
void report_layers(const LayerTotals& layers, RunResult* result);

RunResult run_monitor(const RunOptions& options);
RunResult run_serve(const RunOptions& options);

}  // namespace perfbench
