// perfbench — end-to-end benchmark of two dnsboot services: a longitudinal
// monitor (dnsboot-monitor --motion kasp) and an authoritative server over
// real loopback sockets (dnsboot-serve).
//
//   perfbench --workload monitor|serve --seed N --seconds S --trace 0|1
//             [--scratch DIR]
//
// Prints one JSON line: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the run is
// traced at the layer boundaries and the metrics are per layer.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "base/rng.hpp"
#include "bench.hpp"
#include "dns/name_pool.hpp"

namespace perfbench {

std::uint64_t round_seed(std::uint64_t seed, std::uint64_t round) {
  dnsboot::SplitMix64 mix(seed ^ (0xbe9c4a11ull * (round + 1)));
  return mix.next();
}

void pin_to_round_cpu(int round) {
  static const std::vector<int> cpus = [] {
    std::vector<int> allowed;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set)) allowed.push_back(cpu);
      }
    }
    return allowed;
  }();
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[static_cast<std::size_t>(round) % cpus.size()], &set);
  sched_setaffinity(0, sizeof set, &set);
}

double namepool_bytes() {
  return static_cast<double>(
      dnsboot::dns::NamePool::instance().stats().arena_bytes);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

namespace {

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace

void report_end_to_end(const EndToEnd& e2e, RunResult* result) {
  result->metrics.push_back({"ops_per_s", percentile(e2e.rate, 0.75), "1/s"});
  result->metrics.push_back({"p50_ms", percentile(e2e.latency_ms, 0.25), "ms"});
  result->metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  result->metrics.push_back({"setup_s", median(e2e.setup_s), "s"});
}

void report_layers(const LayerTotals& layers, RunResult* result) {
  const double queries = static_cast<double>(std::max<std::uint64_t>(1, layers.queries));
  auto per_query_us = [queries](double seconds) { return seconds * 1e6 / queries; };
  auto& m = result->metrics;
  m.push_back({"plan_ms", median(layers.plan_ms), "ms"});
  m.push_back({"build_ms", median(layers.build_ms), "ms"});
  m.push_back({"net_us_per_query", per_query_us(layers.net_s), "us"});
  m.push_back({"server_us_per_query", per_query_us(layers.server_s), "us"});
  m.push_back({"client_us_per_query", per_query_us(layers.client_s), "us"});
  m.push_back({"decode_us_per_query", per_query_us(layers.decode_s), "us"});
  m.push_back({"encode_us_per_query", per_query_us(layers.encode_s), "us"});
  m.push_back({"report_ms", median(layers.report_ms), "ms"});
  m.push_back({"queries_per_op",
               layers.ops > 0 ? static_cast<double>(layers.queries) / layers.ops : 0,
               "count"});
  m.push_back({"bytes_per_query", static_cast<double>(layers.bytes) / queries, "B"});
  m.push_back({"namepool_bytes_per_zone", layers.namepool_bytes_per_zone, "B"});
}

}  // namespace perfbench

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload monitor|serve --seed N "
               "--seconds S --trace 0|1 [--scratch DIR]\n",
               why);
  return 2;
}

bool parse_u64(const char* text, std::uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0') return false;
  *out = value;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) return usage("missing value after a flag");
    const char* value = argv[++i];
    std::uint64_t number = 0;
    if (std::strcmp(flag, "--workload") == 0) {
      options.workload = value;
      have_workload = true;
    } else if (std::strcmp(flag, "--seed") == 0) {
      if (!parse_u64(value, &options.seed)) return usage("bad --seed");
    } else if (std::strcmp(flag, "--seconds") == 0) {
      if (!parse_u64(value, &number) || number == 0) return usage("bad --seconds");
      options.seconds = static_cast<double>(number);
    } else if (std::strcmp(flag, "--trace") == 0) {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return usage("--trace takes 0 or 1");
      }
      options.trace = value[0] == '1';
    } else if (std::strcmp(flag, "--scratch") == 0) {
      options.scratch_dir = value;
    } else {
      return usage("unknown flag");
    }
  }
  if (!have_workload) return usage("--workload is required");

  perfbench::RunResult result;
  if (options.workload == "monitor") {
    if (options.scratch_dir.empty()) return usage("monitor needs --scratch");
    result = perfbench::run_monitor(options);
  } else if (options.workload == "serve") {
    result = perfbench::run_serve(options);
  } else {
    return usage("unknown workload");
  }

  for (const perfbench::Metric& metric : result.metrics) {
    result.check(std::isfinite(metric.value), metric.name + " is not finite");
  }
  if (!result.correct) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", result.failure.c_str());
  }
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  char buffer[128];
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& metric = result.metrics[i];
    std::snprintf(buffer, sizeof buffer, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metric.name.c_str(),
                  std::isfinite(metric.value) ? metric.value : 0.0, metric.unit.c_str());
    json += buffer;
  }
  json += "}}";
  // A failed check is reported through "correct", not the exit code.
  std::printf("%s\n", json.c_str());
  return 0;
}
