// dnsboot-survey — the command-line front end: build the paper-calibrated
// synthetic Internet at a chosen scale, run the full scan + analysis, and
// write the results as JSON (aggregate) and optionally CSV (per zone).
//
// Usage:
//   dnsboot-survey [--scale-denom N] [--seed S] [--json FILE] [--csv FILE]
//                  [--no-pathologies] [--no-signal-scan] [--lint] [--quiet]
//                  [--chaos off|mild|hostile|adversarial] [--chaos-seed S]
//                  [--scan-attempts N] [--threads N] [--shards N]
//                  [--bench-json FILE] [--metrics-json FILE]
//                  [--trace FILE] [--trace-sample N]
//
// With --chaos, the built world gets a deterministic fault schedule (lossy,
// flapping, blackholed links; slow, rate-limited, SERVFAIL-flapping servers)
// and the scan switches to the resilient policy: adaptive timeouts, jittered
// backoff, per-server circuit breakers, and an end-of-scan requeue pass.
//
// With --shards S the zone population is split into S shards, each scanned
// in its own simulated world, and --threads N (at most S) workers scan them.
// The shard count is part of the workload and changes the report; the
// thread count never does (DESIGN.md §9).
//
// With --wire HOST:PORT the scan leaves the simulator entirely and runs
// over real UDP/TCP sockets against a dnsboot-serve process started with
// the same --seed and --scale-denom (DESIGN.md §10). Both sides derive the
// identical virtual→real address map from the seed, and the resulting
// report is byte-identical to the simulated run.
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "analysis/parallel.hpp"
#include "analysis/report_io.hpp"
#include "analysis/survey.hpp"
#include "base/strings.hpp"
#include "bench/bench_json.hpp"
#include "cli.hpp"
#include "ecosystem/world.hpp"
#include "lint/chaos_lint.hpp"
#include "lint/ecosystem_lint.hpp"
#include "lint/report.hpp"
#include "net/wire/wire_transport.hpp"
#include "obs/stats.hpp"
#include "obs/trace.hpp"

using namespace dnsboot;

namespace {

struct CliOptions {
  double scale_denom = 4000;
  std::uint64_t seed = 1;
  cli::OutputOptions output;
  std::string csv_path;
  bool pathologies = true;
  bool signal_scan = true;
  bool lint_preflight = false;
  std::string chaos = "off";
  std::uint64_t chaos_seed = 0xc4a05;
  int scan_attempts = 0;  // 0 = derived from the chaos preset
  std::size_t threads = 1;
  std::size_t shards = 1;
  std::string bench_json_path;
  std::string wire;  // HOST:PORT of a dnsboot-serve base endpoint
  double qps = 0;    // 0 = engine default (the paper's 50 qps per NS)
  std::uint64_t trace_sample = 64;  // trace every Nth candidate span
};

cli::FlagParser make_parser(CliOptions* options) {
  cli::FlagParser parser(
      "dnsboot-survey — build the paper-calibrated synthetic Internet, run\n"
      "the full bootstrapping scan + analysis, and write the results");
  parser.value("--scale-denom", &options->scale_denom,
               "world scale divisor (zones ~ 1/N of the paper's)", 1e-9);
  parser.value("--seed", &options->seed, "ecosystem seed");
  cli::OutputFlagSet output_flags;
  output_flags.with_trace = true;
  output_flags.json_help = "write the aggregate report as JSON";
  cli::add_output_flags(parser, &options->output, output_flags);
  parser.value("--trace-sample", &options->trace_sample,
               "trace every Nth span candidate (1 = all, 0 = off)");
  parser.value("--csv", &options->csv_path, "FILE",
               "write per-zone reports as CSV");
  parser.flag("--no-pathologies", &options->pathologies,
              "build a misconfiguration-free world", false);
  parser.flag("--no-signal-scan", &options->signal_scan,
              "skip the RFC 9615 signal-zone scan", false);
  parser.flag("--lint", &options->lint_preflight,
              "static lint preflight before scanning");
  // The choice list comes from the preset registry so a preset added there
  // is accepted here and an unknown name is a usage error (exit 2), never a
  // silent fallback to "off".
  parser.choice("--chaos", &options->chaos, ecosystem::chaos_preset_names(),
                "inject a deterministic fault or attack schedule");
  parser.value("--chaos-seed", &options->chaos_seed, "fault schedule seed");
  parser.value("--scan-attempts", &options->scan_attempts,
               "scan passes per zone", 1);
  parser.value("--threads", &options->threads,
               "scan worker threads (at most --shards)", 1);
  parser.value("--shards", &options->shards,
               "zone shards (default 1; changes the report, --threads "
               "never does)",
               1);
  parser.value("--bench-json", &options->bench_json_path, "FILE",
               "write throughput metrics as bench JSON");
  parser.value("--wire", &options->wire, "HOST:PORT",
               "scan over real sockets against dnsboot-serve at this base "
               "endpoint (nameserver N at HOST+N:PORT)");
  parser.value("--qps", &options->qps,
               "per-nameserver query rate (default: the paper's 50; wire "
               "scans run in real time, so pacing bounds wall clock)",
               1e-9);
  return parser;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  cli::FlagParser parser = make_parser(&options);
  if (!parser.parse(argc, argv)) return 2;
  if (parser.help_requested()) return 0;

  std::optional<net::RealEndpoint> wire_base;
  if (!options.wire.empty()) {
    wire_base = net::parse_endpoint(options.wire);
    if (!wire_base || !net::is_loopback(wire_base->host)) {
      std::fprintf(stderr,
                   "--wire requires HOST:PORT with HOST in 127.0.0.0/8 "
                   "(nameserver N serves at HOST+N:PORT), got '%s'\n",
                   options.wire.c_str());
      return 2;
    }
    if (options.chaos != "off") {
      std::fprintf(stderr,
                   "--chaos applies to the serving side; start dnsboot-serve "
                   "with the fault schedule instead\n");
      return 2;
    }
    if (options.threads > 1 || options.shards > 1) {
      std::fprintf(stderr, "--wire scans from a single client worker\n");
      return 2;
    }
  }

  if (options.threads > options.shards) {
    std::fprintf(stderr,
                 "--threads %zu exceeds --shards %zu: a worker scans whole "
                 "shards, so pass --shards N with N >= --threads\n",
                 options.threads, options.shards);
    return 2;
  }

  const bool chaos = options.chaos != "off";

  ecosystem::WorldSpec spec =
      ecosystem::seeded_spec(options.seed, 1.0 / options.scale_denom);
  spec.config.inject_pathologies = options.pathologies;
  spec.chaos = options.chaos;
  spec.chaos_seed = options.chaos_seed;
  // The shared immutable half of world construction (DESIGN.md §14):
  // computed once, read concurrently by every shard worker.
  const ecosystem::EcosystemPlan eco_plan =
      ecosystem::make_ecosystem_plan(spec.config);

  // Shard 0's world doubles as the preflight view (chaos summary, and with
  // one shard the lint/wire population); it is handed to the executor
  // instead of being rebuilt. Its chaos plan is every shard's.
  ecosystem::World first_world =
      ecosystem::build_world(spec, eco_plan, 0, options.shards);
  if (!options.output.quiet) {
    std::printf("dnsboot-survey: %llu zones (scale 1/%.0f, seed %llu)\n",
                static_cast<unsigned long long>(eco_plan.zones_total),
                options.scale_denom,
                static_cast<unsigned long long>(options.seed));
  }

  if (chaos) {
    if (!options.output.quiet) {
      const ecosystem::ChaosPlan& chaos_plan = first_world.chaos;
      std::printf(
          "chaos '%s': %llu faulted endpoints (%llu blackholed, "
          "%llu flapping), %llu faulted servers, %llu attacked endpoints, "
          "%llu hardened servers\n",
          options.chaos.c_str(),
          static_cast<unsigned long long>(chaos_plan.endpoints_faulted),
          static_cast<unsigned long long>(chaos_plan.endpoints_blackholed),
          static_cast<unsigned long long>(chaos_plan.endpoints_flapping),
          static_cast<unsigned long long>(chaos_plan.servers_faulted),
          static_cast<unsigned long long>(chaos_plan.endpoints_attacked),
          static_cast<unsigned long long>(chaos_plan.servers_hardened));
    }
  }

  if (options.lint_preflight) {
    // Static preflight: lint every zone the servers publish before spending
    // simulated traffic on the scan. Reported per rule; the scan proceeds
    // either way (the point of the survey is to *measure* broken zones).
    // Shard worlds only hold their slice, so with shards > 1 the lint pass
    // builds a throwaway whole world (full-world memory profile — lint is an
    // explicit opt-in diagnostic).
    std::optional<ecosystem::World> whole_world;
    if (options.shards > 1) {
      whole_world = ecosystem::build_world(spec, eco_plan, 0, 1);
    }
    const ecosystem::World& lint_world =
        whole_world.has_value() ? *whole_world : first_world;
    const ecosystem::Ecosystem& lint_eco = lint_world.eco;
    auto view = lint::collect_view(lint_eco.servers, lint_eco.now);
    auto lint_report = lint::lint_ecosystem(view);
    // L106: a chaos plan must never make a zone structurally unobservable.
    lint_report.merge(
        lint::lint_chaos(lint_eco.servers, lint_world.chaos.links));
    std::printf("lint preflight: %zu zone version(s), %zu finding(s)\n",
                lint_report.zones_checked(), lint_report.size());
    for (const auto& [rule, count] : lint_report.counts_by_rule()) {
      const lint::RuleInfo& info = lint::rule_info(rule);
      std::printf("  %s %-24s %zu\n", std::string(info.code).c_str(),
                  std::string(info.name).c_str(), count);
    }
  }

  analysis::SurveyRunOptions run_options;
  run_options.scanner.scan_signal_zones = options.signal_scan;
  run_options.keep_reports = !options.csv_path.empty();
  // One tracer shared by every shard's engine/scanner (the ring is
  // mutex-protected; the sampling counter is atomic). Only wired when the
  // user asked for a trace file — a null tracer costs the hot paths nothing.
  std::optional<obs::Tracer> tracer;
  if (!options.output.trace_path.empty()) {
    obs::TracerOptions tracer_options;
    tracer_options.sample_every = options.trace_sample;
    tracer.emplace(tracer_options);
    run_options.tracer = &*tracer;
  }
  // The adversarial preset keeps the clean run's engine policy: its links
  // are fault-free by construction, and the clean-vs-adversarial report
  // identity only holds when both runs draw from identical engine options.
  const bool lossy_chaos =
      options.chaos == "mild" || options.chaos == "hostile";
  if (lossy_chaos) {
    // The resilient retry policy, and a second scan pass for transient
    // losers.
    run_options.engine = resolver::resilient_query_options();
    run_options.scanner.max_scan_attempts = 2;
  }
  if (options.scan_attempts > 0) {
    run_options.scanner.max_scan_attempts = options.scan_attempts;
  }
  if (options.qps > 0) {
    run_options.engine.per_server_qps = options.qps;
  }

  analysis::ShardedSurveyOptions sharded_options;
  sharded_options.run = run_options;
  sharded_options.shards = options.shards;
  sharded_options.threads = options.threads;
  analysis::ShardWorldSource source = [&](std::size_t shard) {
    // Shard 0 reuses the preflight world; only one worker ever receives
    // shard 0, so the move is safe.
    if (shard == 0) return std::move(first_world);
    return ecosystem::build_world(spec, eco_plan, shard, options.shards);
  };

  analysis::SurveyRunResult result;
  // Simulator events, or datagrams delivered over the wire.
  std::uint64_t events = 0;
  const auto wall_start = std::chrono::steady_clock::now();
  if (!wire_base.has_value()) {
    result = analysis::run_sharded_survey(source, sharded_options);
    events = result.metrics->counter_value("dnsboot_net_events");
  } else {
    // Real-socket scan: derive the same virtual→real map dnsboot-serve
    // derived from this seed, then run the identical pipeline over a wire
    // transport. Nothing serves locally — queries cross the kernel to the
    // serve process at the mapped loopback addresses.
    net::WireAddressMap map(*wire_base);
    for (const auto& server : first_world.eco.servers) {
      for (const auto& address : server->addresses()) {
        if (!map.add(address)) {
          std::fprintf(stderr,
                       "the world's nameserver addresses run past "
                       "127.255.255.254 from --wire %s; pick a lower host "
                       "or a smaller scale\n",
                       options.wire.c_str());
          return 2;
        }
      }
    }
    net::WireTransport transport(map);
    result = analysis::run_survey(transport, first_world.eco, run_options);
    events = transport.datagrams_delivered();
    if (!transport.error().empty()) {
      std::fprintf(stderr, "wire transport: %s\n", transport.error().c_str());
      return 1;
    }
    if (result.engine_stats.responses == 0) {
      std::fprintf(stderr,
                   "no responses over the wire — is dnsboot-serve running at "
                   "%s with the same --seed and --scale-denom?\n",
                   wire_base->to_text().c_str());
    }
  }
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - wall_start)
                             .count();

  if (!options.output.quiet) {
    const analysis::Survey& s = result.survey;
    double total = static_cast<double>(s.total - s.unresolved);
    std::printf("unsigned %s (%s%%), secured %s (%s%%), invalid %s, "
                "islands %s; with CDS %s; signal zones %s\n",
                format_count(s.unsigned_zones).c_str(),
                format_percent(s.unsigned_zones / total).c_str(),
                format_count(s.secured).c_str(),
                format_percent(s.secured / total).c_str(),
                format_count(s.invalid).c_str(),
                format_count(s.islands).c_str(),
                format_count(s.with_cds).c_str(),
                format_count(s.ab_total.with_signal).c_str());
    if (chaos) {
      double zones = static_cast<double>(s.total);
      std::printf(
          "robustness: complete %s (%s%%), degraded %s, not-observed %s, "
          "unreachable %s; requeued %s, recovered %s\n",
          format_count(s.scan_complete).c_str(),
          format_percent(s.scan_complete / zones).c_str(),
          format_count(s.scan_degraded).c_str(),
          format_count(s.scan_not_observed).c_str(),
          format_count(s.scan_unreachable).c_str(),
          format_count(result.scanner_stats.zones_requeued).c_str(),
          format_count(result.scanner_stats.zones_recovered).c_str());
      std::printf(
          "engine: %s sends (%s wasted), %s retries, fail-fast %s, "
          "servfail-cache hits %s, budget-denied %s\n",
          format_count(result.engine_stats.sends).c_str(),
          format_count(result.engine_stats.wasted_sends()).c_str(),
          format_count(result.engine_stats.retries).c_str(),
          format_count(result.engine_stats.fail_fast).c_str(),
          format_count(result.engine_stats.servfail_cache_hits).c_str(),
          format_count(result.engine_stats.budget_denied).c_str());
      // Attack/defense ledger (views over the merged registry; all zero
      // outside the adversarial preset, so only printed when non-trivial).
      obs::AttackStats attack_view(*result.metrics);
      obs::DefenseStats defense_view(*result.metrics);
      if (attack_view.total_injected() > 0 ||
          defense_view.forged_rejected > 0) {
        std::printf(
            "adversary: %s injected (%s spoofs, %s floods, %s wrong-tuple, "
            "%s tc, %s malformed); rejected %s forged + %s wrong-port, "
            "%s tcp aborts, %s accepted forgeries; zones under attack %s\n",
            format_count(attack_view.total_injected()).c_str(),
            format_count(attack_view.spoofs_injected).c_str(),
            format_count(attack_view.floods_injected).c_str(),
            format_count(attack_view.wrong_tuple_injected).c_str(),
            format_count(attack_view.tc_injected).c_str(),
            format_count(attack_view.malformed_injected).c_str(),
            format_count(defense_view.forged_rejected).c_str(),
            format_count(defense_view.port_rejected).c_str(),
            format_count(defense_view.forgery_aborts).c_str(),
            format_count(defense_view.accepted_forgeries).c_str(),
            format_count(s.zones_under_attack).c_str());
      }
    }
    const double wall_sec = wall_ms / 1000.0;
    const double zones_per_sec =
        wall_sec > 0 ? static_cast<double>(result.survey.total) / wall_sec
                     : 0.0;
    const double simulated_sec =
        result.simulated_duration / static_cast<double>(net::kSecond);
    if (wire_base.has_value()) {
      std::printf("wire scan via %s: wall %.2f s, %.1f zones/s\n",
                  wire_base->to_text().c_str(), wall_sec, zones_per_sec);
    } else {
      std::printf(
          "%zu shard(s) on %zu thread(s): wall %.2f s, %.1f zones/s, "
          "simulated %.0f s (%.0fx wall)\n",
          options.shards, options.threads, wall_sec, zones_per_sec,
          simulated_sec, wall_sec > 0 ? simulated_sec / wall_sec : 0.0);
    }
    // Volume lives here (and in --bench-json), not in the JSON report,
    // which stays transport-independent.
    std::printf("traffic: %s datagrams, %s bytes\n",
                format_count(result.datagrams).c_str(),
                format_count(result.bytes_on_wire).c_str());
  }

  if (!options.bench_json_path.empty()) {
    const double wall_sec = wall_ms / 1000.0;
    bench::BenchJson bench_json("survey");
    bench_json.add("threads", static_cast<std::uint64_t>(options.threads))
        .add("shards", static_cast<std::uint64_t>(options.shards))
        .add("seed", options.seed)
        .add("scale_denom", options.scale_denom)
        .add("chaos", options.chaos)
        .add("transport", wire_base.has_value() ? "wire" : "sim")
        .add("datagrams", result.datagrams)
        .add("bytes_on_wire", result.bytes_on_wire)
        .add("zones", result.survey.total)
        .add("wall_ms", wall_ms)
        .add("zones_per_sec",
             wall_sec > 0
                 ? static_cast<double>(result.survey.total) / wall_sec
                 : 0.0)
        .add("events_per_sec",
             wall_sec > 0
                 ? static_cast<double>(events) / wall_sec
                 : 0.0)
        .add("queries", result.engine_stats.queries)
        .add("simulated_sec",
             result.simulated_duration / static_cast<double>(net::kSecond));
    if (const obs::Histogram* rtt =
            result.metrics->find_histogram("dnsboot_engine_rtt_usec")) {
      bench_json.add_histogram("rtt_usec", *rtt);
    }
    if (const obs::Histogram* zone =
            result.metrics->find_histogram("dnsboot_scanner_zone_usec")) {
      bench_json.add_histogram("zone_usec", *zone);
    }
    if (!bench_json.write(options.bench_json_path)) {
      std::fprintf(stderr, "cannot write %s\n",
                   options.bench_json_path.c_str());
      return 1;
    }
  }

  if (!options.output.json_path.empty()) {
    if (!cli::write_file(options.output.json_path, analysis::survey_to_json(result))) {
      std::fprintf(stderr, "cannot write %s\n", options.output.json_path.c_str());
      return 1;
    }
    if (!options.output.quiet) {
      std::printf("wrote %s\n", options.output.json_path.c_str());
    }
  }
  if (!options.csv_path.empty()) {
    if (!cli::write_file(options.csv_path,
                    analysis::reports_to_csv(result.reports))) {
      std::fprintf(stderr, "cannot write %s\n", options.csv_path.c_str());
      return 1;
    }
    if (!options.output.quiet) {
      std::printf("wrote %s (%zu rows)\n", options.csv_path.c_str(),
                  result.reports.size());
    }
  }
  if (!options.output.metrics_json_path.empty()) {
    if (!cli::write_file(options.output.metrics_json_path,
                         result.metrics->to_json())) {
      std::fprintf(stderr, "cannot write %s\n",
                   options.output.metrics_json_path.c_str());
      return 1;
    }
    if (!options.output.quiet) {
      std::printf("wrote %s\n", options.output.metrics_json_path.c_str());
    }
  }
  if (tracer.has_value()) {
    if (!cli::write_file(options.output.trace_path, tracer->to_jsonl())) {
      std::fprintf(stderr, "cannot write %s\n",
                   options.output.trace_path.c_str());
      return 1;
    }
    if (!options.output.quiet) {
      std::printf(
          "wrote %s (%llu spans of %llu candidates, %llu dropped)\n",
          options.output.trace_path.c_str(),
          static_cast<unsigned long long>(tracer->recorded()),
          static_cast<unsigned long long>(tracer->candidates()),
          static_cast<unsigned long long>(tracer->dropped()));
    }
  }
  return 0;
}
