// Adversarial-resilience measurements: the same survey run clean and under
// the adversarial chaos preset (off-path spoof sweeps, wrong-ID floods,
// wrong-tuple injections, truncation games, garbage — DESIGN.md §13).
// Reported per run: scan throughput and simulated RTT tail under attack vs
// clean, the attack/defense ledger, and the headline correctness gate — the
// per-zone report must be byte-identical (modulo the under_attack
// provenance column) between the two runs. --fail-if-slower additionally
// gates on the attacked run's wall-clock throughput.
//
// Usage: bench_adversarial [--scale F] [--seed S] [--json PATH]
//                          [--fail-if-slower]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

#include "analysis/report_io.hpp"
#include "analysis/survey.hpp"
#include "base/strings.hpp"
#include "bench_json.hpp"
#include "ecosystem/world.hpp"
#include "obs/stats.hpp"
#include "tools/cli.hpp"

namespace {

using namespace dnsboot;

// 1/40000 of the paper's 287.6 M zones at --scale 1, like bench_throughput.
constexpr double kReferenceDenom = 40000.0;

struct RunMeasurement {
  std::uint64_t zones = 0;
  std::uint64_t queries = 0;
  std::uint64_t sends = 0;
  std::uint64_t events = 0;
  double wall_ms = 0;
  double simulated_sec = 0;
  obs::Histogram rtt_usec;
  std::string report_csv;  // per-zone CSV minus the under_attack column
  // Attack/defense ledger (all zero on the clean run).
  std::uint64_t injected = 0;
  std::uint64_t forged_rejected = 0;
  std::uint64_t forgery_aborts = 0;
  std::uint64_t accepted_forgeries = 0;
  std::uint64_t endpoints_attacked = 0;

  double qps() const {
    return wall_ms > 0 ? queries / (wall_ms / 1000.0) : 0.0;
  }
  double zones_per_sec() const {
    return wall_ms > 0 ? zones / (wall_ms / 1000.0) : 0.0;
  }
};

// `csv` without the column headed `column`. The column is located by its
// header name and cut counting from the end of each row, so quoted commas
// in earlier fields (zone names, dnssec_reason) cannot shift it.
std::string drop_column(const std::string& csv, const std::string& column) {
  const std::vector<std::string> header =
      split(csv.substr(0, csv.find('\n')), ',');
  const auto at = std::find(header.begin(), header.end(), column);
  if (at == header.end()) return csv;
  const std::size_t after = static_cast<std::size_t>(header.end() - at) - 1;
  std::string out;
  std::size_t start = 0;
  while (start < csv.size()) {
    std::size_t end = csv.find('\n', start);
    if (end == std::string::npos) end = csv.size();
    const std::string line = csv.substr(start, end - start);
    // [cut, keep) is the comma before the column plus the column itself.
    std::size_t keep = line.size();
    std::size_t cut = line.size();
    for (std::size_t i = 0; i <= after && cut != std::string::npos; ++i) {
      keep = cut;
      cut = cut == 0 ? std::string::npos : line.rfind(',', cut - 1);
    }
    out += cut == std::string::npos ? line
                                    : line.substr(0, cut) + line.substr(keep);
    out += '\n';
    start = end + 1;
  }
  return out;
}

RunMeasurement run_once(double eco_scale, std::uint64_t seed,
                        const std::string& preset) {
  auto wall_start = std::chrono::steady_clock::now();
  ecosystem::WorldSpec spec = ecosystem::seeded_spec(seed, eco_scale);
  spec.chaos = preset;
  const ecosystem::World world = ecosystem::build_world(spec);
  net::SimNetwork& network = *world.network;
  const ecosystem::Ecosystem& eco = world.eco;

  // Engine options identical across presets on purpose: the identity gate
  // compares the two runs' reports.
  analysis::SurveyRunOptions options;
  options.keep_reports = true;
  auto result = analysis::run_survey(network, eco, options);
  RunMeasurement m;
  m.zones = result.survey.total;
  m.queries = result.engine_stats.queries;
  m.sends = result.engine_stats.sends;
  m.events = network.events_processed();
  m.simulated_sec = result.simulated_duration /
                    static_cast<double>(net::kSecond);
  if (const obs::Histogram* rtt =
          result.metrics->find_histogram("dnsboot_engine_rtt_usec")) {
    m.rtt_usec = *rtt;
  }
  m.report_csv =
      drop_column(analysis::reports_to_csv(result.reports), "under_attack");
  m.injected = network.attack_stats().total_injected();
  obs::DefenseStats defense(*result.metrics);
  m.forged_rejected = defense.forged_rejected;
  m.forgery_aborts = defense.forgery_aborts;
  m.accepted_forgeries = defense.accepted_forgeries;
  m.endpoints_attacked = world.chaos.endpoints_attacked;
  m.wall_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - wall_start)
                  .count();
  return m;
}

void report(const char* label, const RunMeasurement& m) {
  std::printf(
      "%-12s %6llu zones in %8.1f ms  %8.1f zones/s  %8.0f qps  "
      "rtt p99 %6.0f us | injected %llu, rejected %llu, aborts %llu, "
      "accepted forgeries %llu\n",
      label, static_cast<unsigned long long>(m.zones), m.wall_ms,
      m.zones_per_sec(), m.qps(), m.rtt_usec.quantile(0.99),
      static_cast<unsigned long long>(m.injected),
      static_cast<unsigned long long>(m.forged_rejected),
      static_cast<unsigned long long>(m.forgery_aborts),
      static_cast<unsigned long long>(m.accepted_forgeries));
}

void add_json_run(bench::BenchJson& json, const char* label,
                  const RunMeasurement& m) {
  json.begin_object()
      .add("run", label)
      .add("zones", m.zones)
      .add("wall_ms", m.wall_ms)
      .add("zones_per_sec", m.zones_per_sec())
      .add("qps", m.qps())
      .add("queries", m.queries)
      .add("sends", m.sends)
      .add("simulated_sec", m.simulated_sec)
      .add("endpoints_attacked", m.endpoints_attacked)
      .add("injected", m.injected)
      .add("forged_rejected", m.forged_rejected)
      .add("forgery_aborts", m.forgery_aborts)
      .add("accepted_forgeries", m.accepted_forgeries)
      .add_histogram("rtt_usec", m.rtt_usec)
      .end_object();
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 1.0;
  std::uint64_t seed = 1;
  std::string json_path;
  bool fail_if_slower = false;

  cli::FlagParser parser(
      "bench_adversarial — survey throughput and report identity, clean vs\n"
      "the adversarial chaos preset");
  parser.value("--scale", &scale,
               "population relative to 1/40000 of the paper's", 1e-9);
  parser.value("--seed", &seed, "ecosystem seed");
  parser.value("--json", &json_path, "PATH", "bench JSON output path");
  parser.flag("--fail-if-slower", &fail_if_slower,
              "exit non-zero when the attacked run is over 4x slower");
  if (!parser.parse(argc, argv)) return 2;
  if (parser.help_requested()) return 0;

  const double eco_scale = scale / kReferenceDenom;
  std::printf(
      "bench_adversarial — survey throughput under attack, scale %.2f "
      "(1/%.0f of the paper population)\n",
      scale, kReferenceDenom / scale);

  RunMeasurement clean = run_once(eco_scale, seed, "off");
  RunMeasurement attacked = run_once(eco_scale, seed, "adversarial");
  report("clean", clean);
  report("adversarial", attacked);

  const double slowdown = attacked.wall_ms > 0 && clean.wall_ms > 0
                              ? attacked.wall_ms / clean.wall_ms
                              : 1.0;
  std::printf("slowdown under attack: %.2fx wall, rtt p99 %+0.0f us\n",
              slowdown,
              attacked.rtt_usec.quantile(0.99) -
                  clean.rtt_usec.quantile(0.99));

  bench::BenchJson json("adversarial");
  json.add("seed", seed).add("scale", scale);
  json.begin_array("runs");
  add_json_run(json, "clean", clean);
  add_json_run(json, "adversarial", attacked);
  json.end_array();
  json.add("slowdown_wall", slowdown);
  json.add("reports_identical", clean.report_csv == attacked.report_csv);
  if (!json.write(json_path)) {
    std::fprintf(stderr, "cannot write bench json\n");
    return 1;
  }

  // Correctness gates always apply: the attack must have happened, nothing
  // forged may have been accepted, and the adoption report must match the
  // clean run byte for byte.
  if (attacked.injected == 0 || attacked.endpoints_attacked == 0) {
    std::fprintf(stderr, "FAIL: adversarial preset injected nothing\n");
    return 1;
  }
  if (attacked.accepted_forgeries != 0) {
    std::fprintf(stderr, "FAIL: %llu forged responses accepted\n",
                 static_cast<unsigned long long>(attacked.accepted_forgeries));
    return 1;
  }
  if (clean.report_csv != attacked.report_csv) {
    std::fprintf(stderr, "FAIL: clean and adversarial reports differ\n");
    return 1;
  }
  // Perf gate: crafted traffic costs simulator events, but the defense path
  // must stay cheap — 4x wall-clock is already pathological.
  if (fail_if_slower && slowdown > 4.0) {
    std::fprintf(stderr, "FAIL: adversarial run %.2fx slower than clean\n",
                 slowdown);
    return 1;
  }
  return 0;
}
