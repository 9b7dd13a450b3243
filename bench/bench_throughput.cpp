// bench_throughput — end-to-end throughput of the sharded survey executor
// (DESIGN.md §9, §14): zones/sec, events/sec, and peak-RSS bytes/zone for
// each requested thread count over the same sharded workload, with a
// byte-identity check on the merged reports across thread counts.
//
// Usage:
//   bench_throughput [--scale X] [--threads 1,4,8] [--shards N] [--seed S]
//                    [--json PATH] [--fail-if-slower]
//                    [--max-bytes-per-zone N]
//
// --scale is relative to the bench's reference population (scale 1.0 =
// 1/40000 of the paper's 287.6 M zones, ~7.2 k zones); --fail-if-slower
// exits non-zero when the last thread count's zones/sec is below the first's
// (the CI smoke gate). --max-bytes-per-zone is the memory-budget gate: it
// fails the run when any thread count's peak RSS divided by the zone count
// exceeds the budget. Worlds are built per shard from a shared
// EcosystemPlan, so peak memory tracks the largest concurrent set of shard
// slices, not the whole population.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "analysis/parallel.hpp"
#include "analysis/report_io.hpp"
#include "base/strings.hpp"
#include "bench_json.hpp"
#include "ecosystem/plan.hpp"

namespace {

using namespace dnsboot;

constexpr double kReferenceDenom = 40000.0;

struct RunMeasurement {
  std::size_t threads = 0;
  std::size_t shards = 0;
  double wall_ms = 0;
  std::uint64_t zones = 0;
  std::uint64_t events = 0;
  std::uint64_t queries = 0;
  double simulated_sec = 0;
  std::uint64_t peak_rss_bytes = 0;  // peak during this run (0 = unknown)
  bool rss_reset_ok = false;         // false: peak is since process start
  std::string report_json;
  obs::Histogram rtt_usec;  // merged dnsboot_engine_rtt_usec

  double zones_per_sec() const {
    return wall_ms > 0 ? zones / (wall_ms / 1000.0) : 0.0;
  }
  double events_per_sec() const {
    return wall_ms > 0 ? static_cast<double>(events) / (wall_ms / 1000.0)
                       : 0.0;
  }
  double bytes_per_zone() const {
    return zones > 0 ? static_cast<double>(peak_rss_bytes) /
                           static_cast<double>(zones)
                     : 0.0;
  }
};

RunMeasurement run_once(const ecosystem::EcosystemPlan& plan,
                        const ecosystem::EcosystemConfig& config,
                        std::uint64_t seed, std::size_t shards,
                        std::size_t threads) {
  auto source = [&plan, &config, shards](
                    std::size_t shard,
                    std::uint64_t net_seed) -> analysis::ShardWorld {
    analysis::ShardWorld world;
    world.network = std::make_unique<net::SimNetwork>(net_seed);
    world.network->set_default_link(
        net::LinkModel{5 * net::kMillisecond, 2 * net::kMillisecond, 0.0});
    auto eco = std::make_shared<ecosystem::Ecosystem>(
        ecosystem::build_shard(*world.network, config, plan, shard, shards));
    world.hints = eco->hints;
    world.targets = std::move(eco->scan_targets);
    world.ns_domain_to_operator = eco->ns_domain_to_operator;
    world.now = eco->now;
    world.keepalive = std::move(eco);
    return world;
  };

  analysis::ShardedSurveyOptions options;
  options.shards = shards;
  options.threads = threads;
  options.base_network_seed = seed ^ 0xd15b007;

  RunMeasurement m;
  m.rss_reset_ok = bench::reset_peak_rss();
  auto start = std::chrono::steady_clock::now();
  auto result = analysis::run_sharded_survey(source, options);
  auto end = std::chrono::steady_clock::now();
  m.peak_rss_bytes = bench::read_peak_rss_bytes();

  m.threads = result.threads;
  m.shards = result.shards;
  m.wall_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  m.zones = result.merged.survey.total;
  m.events = result.events_processed;
  m.queries = result.merged.engine_stats.queries;
  m.simulated_sec =
      result.merged.simulated_duration / static_cast<double>(net::kSecond);
  m.report_json = analysis::survey_to_json(result.merged);
  if (const obs::Histogram* rtt =
          result.merged.metrics->find_histogram("dnsboot_engine_rtt_usec")) {
    m.rtt_usec = *rtt;
  }
  return m;
}

std::vector<std::size_t> parse_thread_list(const char* arg) {
  std::vector<std::size_t> out;
  for (const std::string& part : split(arg, ',')) {
    int v = std::atoi(part.c_str());
    if (v >= 1) out.push_back(static_cast<std::size_t>(v));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 1.0;
  std::vector<std::size_t> thread_counts{1, 8};
  std::size_t shards = 8;
  std::uint64_t seed = 1;
  std::string json_path;
  bool fail_if_slower = false;
  double max_bytes_per_zone = 0;  // 0 = gate off

  for (int i = 1; i < argc; ++i) {
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--scale") == 0) {
      scale = std::atof(need_value("--scale"));
      if (scale <= 0) return 2;
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      thread_counts = parse_thread_list(need_value("--threads"));
      if (thread_counts.empty()) return 2;
    } else if (std::strcmp(argv[i], "--shards") == 0) {
      shards = static_cast<std::size_t>(std::atoi(need_value("--shards")));
      if (shards < 1) return 2;
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = std::strtoull(need_value("--seed"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json_path = need_value("--json");
    } else if (std::strcmp(argv[i], "--fail-if-slower") == 0) {
      fail_if_slower = true;
    } else if (std::strcmp(argv[i], "--max-bytes-per-zone") == 0) {
      max_bytes_per_zone = std::atof(need_value("--max-bytes-per-zone"));
      if (max_bytes_per_zone <= 0) return 2;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }

  const double eco_scale = scale / kReferenceDenom;
  std::printf(
      "bench_throughput — sharded survey executor, scale %.2f "
      "(1/%.0f of the paper population), %zu shards\n",
      scale, kReferenceDenom / scale, shards);

  // The plan is the shared immutable half of world construction: computed
  // once, read concurrently by every shard worker in every run.
  ecosystem::EcosystemConfig config;
  config.seed = seed;
  config.scale = eco_scale;
  const ecosystem::EcosystemPlan plan = ecosystem::make_ecosystem_plan(config);

  std::vector<RunMeasurement> runs;
  bool identical = true;
  for (std::size_t threads : thread_counts) {
    RunMeasurement m = run_once(plan, config, seed, shards, threads);
    if (!runs.empty() && m.report_json != runs.front().report_json) {
      identical = false;
    }
    std::printf(
        "threads %2zu: %8llu zones in %9.1f ms  %8.1f zones/s  "
        "%10.0f events/s  %llu queries  %6.1f MiB peak  %7.0f B/zone%s\n",
        threads, static_cast<unsigned long long>(m.zones), m.wall_ms,
        m.zones_per_sec(), m.events_per_sec(),
        static_cast<unsigned long long>(m.queries),
        static_cast<double>(m.peak_rss_bytes) / (1024.0 * 1024.0),
        m.bytes_per_zone(), m.rss_reset_ok ? "" : " (no clear_refs)");
    runs.push_back(std::move(m));
  }

  double speedup = 0.0;
  if (runs.size() > 1 && runs.front().zones_per_sec() > 0) {
    speedup = runs.back().zones_per_sec() / runs.front().zones_per_sec();
    std::printf("speedup %zu-thread vs %zu-thread: %.2fx\n",
                runs.back().threads, runs.front().threads, speedup);
  }
  std::printf("merged reports identical across thread counts: %s\n",
              identical ? "yes" : "NO");

  bench::BenchJson json("throughput");
  json.add("scale", scale)
      .add("scale_denom", kReferenceDenom / scale)
      .add("shards", static_cast<std::uint64_t>(shards))
      .add("seed", seed)
      .add("reports_identical", identical)
      .begin_array("runs");
  for (const RunMeasurement& m : runs) {
    json.begin_object()
        .add("threads", static_cast<std::uint64_t>(m.threads))
        .add("shards", static_cast<std::uint64_t>(m.shards))
        .add("zones", m.zones)
        .add("wall_ms", m.wall_ms)
        .add("zones_per_sec", m.zones_per_sec())
        .add("events_per_sec", m.events_per_sec())
        .add("queries", m.queries)
        .add("simulated_sec", m.simulated_sec)
        .add("peak_rss_bytes", m.peak_rss_bytes)
        .add("bytes_per_zone", m.bytes_per_zone())
        .add("rss_reset_ok", m.rss_reset_ok)
        .add_histogram("rtt_usec", m.rtt_usec)
        .end_object();
  }
  json.end_array();
  if (runs.size() > 1) json.add("speedup_last_vs_first", speedup);
  if (!json.write(json_path)) {
    std::fprintf(stderr, "cannot write bench json\n");
    return 1;
  }

  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: merged reports differ across thread counts\n");
    return 1;
  }
  if (fail_if_slower && runs.size() > 1 && speedup < 1.0) {
    std::fprintf(stderr, "FAIL: %zu threads slower than %zu (%.2fx)\n",
                 runs.back().threads, runs.front().threads, speedup);
    return 1;
  }
  if (max_bytes_per_zone > 0) {
    for (const RunMeasurement& m : runs) {
      if (m.bytes_per_zone() > max_bytes_per_zone) {
        std::fprintf(stderr,
                     "FAIL: %zu threads used %.0f bytes/zone "
                     "(budget %.0f)\n",
                     m.threads, m.bytes_per_zone(), max_bytes_per_zone);
        return 1;
      }
    }
  }
  return 0;
}
