// Chaos-resilience measurements: the scanner under a 30%-loss hostile world,
// fixed-retry seed policy vs the adaptive policy (escalating timeouts,
// jittered backoff, circuit breakers, retry budget, requeue pass).
// Reported per run: completion rate by scan quality, wasted sends, fail-fast
// rejections, and the per-fault-class drop counters from the simulator.
#include <chrono>
#include <cstdio>
#include <string>

#include "analysis/survey.hpp"
#include "bench_json.hpp"
#include "ecosystem/world.hpp"
#include "tools/cli.hpp"

namespace {

using namespace dnsboot;

struct ChaosResult {
  std::uint64_t zones = 0;
  std::uint64_t complete = 0;
  std::uint64_t degraded = 0;
  std::uint64_t not_observed = 0;
  std::uint64_t unreachable = 0;
  std::uint64_t requeued = 0;
  std::uint64_t recovered = 0;
  std::uint64_t sends = 0;
  std::uint64_t wasted = 0;
  std::uint64_t retries = 0;
  std::uint64_t fail_fast = 0;
  std::uint64_t budget_denied = 0;
  double simulated_hours = 0;
  // Owned copy of the network's registry: a FaultStats view would dangle
  // once run_once's SimNetwork dies, so the fault counters are read through
  // fault() by metric name instead.
  obs::MetricsRegistry net_metrics;
  std::uint64_t fault(const char* name) const {
    return net_metrics.counter_value(name);
  }
  std::uint64_t queries = 0;
  std::uint64_t events = 0;
  double wall_ms = 0;
};

ChaosResult run_once(double scale, const std::string& preset, bool adaptive,
                     int scan_attempts) {
  auto wall_start = std::chrono::steady_clock::now();
  ecosystem::WorldSpec spec;
  spec.config.scale = scale;
  spec.network_seed = 20250705;
  spec.chaos = preset;
  const ecosystem::World world = ecosystem::build_world(spec);
  net::SimNetwork& network = *world.network;
  const ecosystem::Ecosystem& eco = world.eco;

  analysis::SurveyRunOptions options;
  if (adaptive) options.engine = resolver::resilient_query_options();
  options.scanner.max_scan_attempts = scan_attempts;
  auto result = analysis::run_survey(network, eco, options);
  ChaosResult out;
  out.zones = result.survey.total;
  out.complete = result.survey.scan_complete;
  out.degraded = result.survey.scan_degraded;
  out.not_observed = result.survey.scan_not_observed;
  out.unreachable = result.survey.scan_unreachable;
  out.requeued = result.scanner_stats.zones_requeued;
  out.recovered = result.scanner_stats.zones_recovered;
  out.sends = result.engine_stats.sends;
  out.wasted = result.engine_stats.wasted_sends();
  out.retries = result.engine_stats.retries;
  out.fail_fast = result.engine_stats.fail_fast;
  out.budget_denied = result.engine_stats.budget_denied;
  out.simulated_hours = result.simulated_duration / (3600.0 * net::kSecond);
  out.net_metrics = *network.metrics_registry();
  out.queries = result.engine_stats.queries;
  out.events = network.events_processed();
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - wall_start)
                    .count();
  return out;
}

void add_json_run(dnsboot::bench::BenchJson& json, const char* label,
                  const ChaosResult& r) {
  double wall_sec = r.wall_ms / 1000.0;
  json.begin_object()
      .add("run", label)
      .add("threads", std::uint64_t{1})
      .add("zones", r.zones)
      .add("wall_ms", r.wall_ms)
      .add("zones_per_sec", wall_sec > 0 ? r.zones / wall_sec : 0.0)
      .add("events_per_sec",
           wall_sec > 0 ? static_cast<double>(r.events) / wall_sec : 0.0)
      .add("queries", r.queries)
      .add("sends", r.sends)
      .add("wasted_sends", r.wasted)
      .add("complete", r.complete)
      .add("degraded", r.degraded)
      .end_object();
}

void report(const char* label, const ChaosResult& r) {
  double zones = r.zones ? static_cast<double>(r.zones) : 1.0;
  std::printf("%-34s complete %5.1f%% degraded %5.1f%% lost %5.1f%% | "
              "%8llu sends (%llu wasted, %.1f%%) retries %llu "
              "fail-fast %llu | requeue %llu->%llu | %.2f sim-h\n",
              label, 100.0 * static_cast<double>(r.complete) / zones,
              100.0 * static_cast<double>(r.degraded) / zones,
              100.0 * static_cast<double>(r.not_observed + r.unreachable) /
                  zones,
              static_cast<unsigned long long>(r.sends),
              static_cast<unsigned long long>(r.wasted),
              r.sends ? 100.0 * static_cast<double>(r.wasted) / r.sends : 0.0,
              static_cast<unsigned long long>(r.retries),
              static_cast<unsigned long long>(r.fail_fast),
              static_cast<unsigned long long>(r.requeued),
              static_cast<unsigned long long>(r.recovered),
              r.simulated_hours);
}

}  // namespace

int main(int argc, char** argv) {
  double scale_denom = 40000;
  dnsboot::cli::FlagParser parser(
      "bench_chaos — scanner resilience under injected faults: fixed-retry\n"
      "vs adaptive policy in clean, mild and hostile worlds");
  parser.value("--scale-denom", &scale_denom,
               "world scale divisor (zones ~ 1/N of the paper's)", 1e-9);
  if (!parser.parse(argc, argv)) return 2;
  if (parser.help_requested()) return 0;

  std::printf("bench_chaos — scanner resilience under injected faults\n");
  const double scale = 1.0 / scale_denom;

  std::printf("\n== clean world (baseline) ==\n");
  report("fixed-retry, 1 pass", run_once(scale, "off", false, 1));

  std::printf("\n== mild chaos (5%% loss, flaps) ==\n");
  report("fixed-retry, 1 pass", run_once(scale, "mild", false, 1));
  report("adaptive, 2 passes", run_once(scale, "mild", true, 2));

  std::printf("\n== hostile chaos (30%% loss, flaps, blackholes) ==\n");
  auto fixed = run_once(scale, "hostile", false, 1);
  auto adaptive1 = run_once(scale, "hostile", true, 1);
  auto adaptive2 = run_once(scale, "hostile", true, 2);
  report("fixed-retry, 1 pass", fixed);
  report("adaptive, 1 pass", adaptive1);
  report("adaptive, 2 passes", adaptive2);

  std::printf("\n== takeaways ==\n");
  double fixed_lost = static_cast<double>(fixed.not_observed +
                                          fixed.unreachable);
  double adaptive_lost = static_cast<double>(adaptive2.not_observed +
                                             adaptive2.unreachable);
  std::printf("zones lost to the scan: fixed %0.0f vs adaptive %0.0f\n",
              fixed_lost, adaptive_lost);
  std::printf("requeue pass recovered %llu zones to a better observation\n",
              static_cast<unsigned long long>(adaptive2.recovered));
  std::printf("fault classes (adaptive, hostile): blackholed %llu, "
              "flap-dropped %llu, burst-dropped %llu, lost %llu, "
              "corrupted %llu, reordered %llu, duplicated %llu\n",
              static_cast<unsigned long long>(
                  adaptive2.fault("dnsboot_net_fault_blackholed")),
              static_cast<unsigned long long>(
                  adaptive2.fault("dnsboot_net_fault_flap_dropped")),
              static_cast<unsigned long long>(
                  adaptive2.fault("dnsboot_net_fault_burst_dropped")),
              static_cast<unsigned long long>(
                  adaptive2.fault("dnsboot_net_fault_lost")),
              static_cast<unsigned long long>(
                  adaptive2.fault("dnsboot_net_fault_corrupted")),
              static_cast<unsigned long long>(
                  adaptive2.fault("dnsboot_net_fault_reordered")),
              static_cast<unsigned long long>(
                  adaptive2.fault("dnsboot_net_fault_duplicated")));

  dnsboot::bench::BenchJson json("chaos");
  json.begin_array("runs");
  add_json_run(json, "hostile_fixed_1pass", fixed);
  add_json_run(json, "hostile_adaptive_1pass", adaptive1);
  add_json_run(json, "hostile_adaptive_2pass", adaptive2);
  json.end_array();
  if (!json.write()) {
    std::fprintf(stderr, "cannot write bench json\n");
    return 1;
  }
  return 0;
}
