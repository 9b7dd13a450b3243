// dnsboot-monitor — the continuous longitudinal measurement daemon
// (DESIGN.md §15).
//
// Where dnsboot-survey answers "what is deployed right now", this tool
// answers "how is deployment moving": it builds the same deterministic
// ecosystem from --seed / --scale-denom, arms the KASP policy clock (zones
// sign and publish CDS, registries install DS, keys roll cleanly or break
// and get repaired, some zones tear DNSSEC down via the RFC 8078 delete
// sentinel — DESIGN.md §16), and then re-probes every zone on an adaptive
// cadence for --sim-days of simulated time. Phase transitions are journaled
// (append = acknowledged, crash-safe), periodically compacted into
// snapshots, and folded incrementally into adoption reports:
//
//   dnsboot-monitor --scale-denom 50000 --seed 7 --sim-days 30
//       --chaos mild --state-dir /tmp/mon --snapshot-every 6h
//       --json adoption.json --csv adoption.csv       (one command line)
//
// Restarting after a crash (same flags, same --state-dir) re-simulates the
// identical world from time zero, verifies the regenerated transition stream
// byte-for-byte against the recovered journal, and continues appending where
// the crash cut off — the final journal and reports match an uninterrupted
// run exactly.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "cli.hpp"
#include "dns/name_pool.hpp"
#include "ecosystem/chaos.hpp"
#include "ecosystem/plan.hpp"
#include "kasp/clock.hpp"
#include "longitudinal/monitor.hpp"
#include "net/simnet.hpp"
#include "obs/metrics_http.hpp"

using namespace dnsboot;

namespace {

struct CliOptions {
  double scale_denom = 20000;
  std::uint64_t seed = 1;
  bool pathologies = true;
  std::string chaos = "off";
  std::uint64_t chaos_seed = 0xc4a05;

  std::uint64_t sim_days_usec = 30 * cli::kUsecPerDay;  // --sim-days
  std::uint64_t snapshot_every_usec = 0;                // --snapshot-every
  std::uint64_t batch_window_usec = 30 * cli::kUsecPerSecond;
  std::uint64_t max_runtime_usec = 0;  // wall-clock cap on post-run serving
  std::uint32_t stable_probes = 3;
  std::string state_dir;
  std::string csv_path;
  bool no_lifecycle = false;
  std::uint32_t metrics_port = 0;
  cli::OutputOptions output;
};

cli::FlagParser make_parser(CliOptions* options) {
  cli::FlagParser parser(
      "dnsboot-monitor — continuous longitudinal measurement: re-probe a\n"
      "generated ecosystem for simulated weeks, journal every DNSSEC\n"
      "bootstrapping transition, and emit incremental adoption reports");
  parser.value("--scale-denom", &options->scale_denom,
               "world scale divisor (zones ~ 1/N of the paper's)", 1e-9);
  parser.value("--seed", &options->seed, "world + schedule seed");
  parser.flag("--no-pathologies", &options->pathologies,
              "monitor a misconfiguration-free world", false);
  parser.choice("--chaos", &options->chaos, ecosystem::chaos_preset_names(),
                "inject the deterministic fault schedule");
  parser.value("--chaos-seed", &options->chaos_seed, "fault schedule seed");
  parser.duration("--sim-days", &options->sim_days_usec, cli::kUsecPerDay,
                  "simulated monitoring window — bare number = days, or "
                  "12h/90m");
  parser.duration("--snapshot-every", &options->snapshot_every_usec,
                  cli::kUsecPerMinute,
                  "compacted snapshot cadence in sim time, e.g. 15m or 6h "
                  "(0 = off; needs --state-dir)");
  parser.duration("--batch-window", &options->batch_window_usec,
                  cli::kUsecPerSecond,
                  "coalesce due zones for this long before each batch scan");
  parser.duration("--max-seconds", &options->max_runtime_usec,
                  cli::kUsecPerSecond,
                  "wall-clock cap on serving /metrics after the simulation "
                  "finishes (0 = exit immediately unless --metrics-port)");
  parser.value("--stable-probes", &options->stable_probes,
               "unchanged bootstrapped probes before 'maintained'", 1);
  parser.value("--state-dir", &options->state_dir, "DIR",
               "journal + snapshot directory (enables crash-safe persistence)");
  parser.value("--csv", &options->csv_path, "FILE",
               "write the adoption curve as CSV");
  parser.flag("--no-lifecycle", &options->no_lifecycle,
              "skip the scripted world motion entirely (static world)");
  parser.value("--metrics-port", &options->metrics_port,
               "serve Prometheus GET /metrics on 127.0.0.1:N (0 = off)");
  cli::OutputFlagSet output_flags;
  output_flags.json_help = "write the adoption report as JSON";
  cli::add_output_flags(parser, &options->output, output_flags);
  return parser;
}

std::atomic<bool> g_stop{false};
void handle_signal(int) { g_stop.store(true); }

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  cli::FlagParser parser = make_parser(&options);
  if (!parser.parse(argc, argv)) return 2;
  if (parser.help_requested()) return 0;

  // Same derived network seed as dnsboot-survey/-serve, so all three tools
  // construct bit-identical worlds from the same --seed.
  net::SimNetwork network(options.seed ^ 0xd15b007);
  ecosystem::EcosystemConfig config;
  config.seed = options.seed;
  config.scale = 1.0 / options.scale_denom;
  config.inject_pathologies = options.pathologies;
  const ecosystem::EcosystemPlan plan = ecosystem::make_ecosystem_plan(config);
  ecosystem::Ecosystem eco =
      ecosystem::build_shard(network, config, plan, 0, 1);
  if (options.chaos != "off") {
    ecosystem::ChaosOptions chaos_options =
        ecosystem::chaos_preset(options.chaos);
    chaos_options.seed = options.chaos_seed;
    ecosystem::apply_chaos(network, eco, chaos_options);
  }

  // The registry-side world motion uses its own resolver vantage — the same
  // split as reality, where registry CDS scanners and measurement scanners
  // are different hosts.
  resolver::QueryEngine registry_engine(
      network, net::IpAddress::v4({192, 0, 2, 252}), {});
  resolver::DelegationResolver registry_resolver(registry_engine, eco.hints);
  std::unique_ptr<kasp::PolicyClock> motion;
  if (!options.no_lifecycle) {
    kasp::KaspOptions kasp_options;
    kasp_options.seed = options.seed;
    kasp_options.horizon = options.sim_days_usec;
    motion = std::make_unique<kasp::PolicyClock>(
        network, registry_engine, registry_resolver, eco, kasp_options);
  }

  longitudinal::MonitorOptions monitor_options;
  monitor_options.seed = options.seed;
  monitor_options.horizon = options.sim_days_usec;
  monitor_options.batch_window = options.batch_window_usec;
  monitor_options.snapshot_every = options.snapshot_every_usec;
  monitor_options.stable_probes = options.stable_probes;
  monitor_options.state_dir = options.state_dir;
  longitudinal::Monitor monitor(network, eco, monitor_options, motion.get());

  Status started = monitor.start();
  if (!started.ok()) {
    std::fprintf(stderr, "dnsboot-monitor: %s\n",
                 started.error().to_string().c_str());
    return 1;
  }

  // Pre-create the NamePool gauges too: after this point the registry's
  // name maps are frozen and a scrape thread may snapshot concurrently.
  dns::NamePool::instance().export_gauges(monitor.metrics());

  obs::MetricsHttpServer metrics_server;
  if (options.metrics_port != 0) {
    const bool up = metrics_server.start(
        static_cast<std::uint16_t>(options.metrics_port),
        [&monitor]() { return monitor.metrics().to_prometheus(); });
    if (!up) {
      std::fprintf(stderr, "dnsboot-monitor: metrics listener failed: %s\n",
                   metrics_server.error().c_str());
      return 1;
    }
    if (!options.output.quiet) {
      std::printf("dnsboot-monitor: /metrics on 127.0.0.1:%u\n",
                  metrics_server.port());
    }
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  if (!options.output.quiet) {
    std::printf(
        "dnsboot-monitor: %zu zones, %zu %s steps, %.1f sim days"
        "%s%s\n",
        eco.scan_targets.size(), motion ? motion->planned_steps() : 0,
        motion ? std::string(motion->motion_name()).c_str() : "motion",
        static_cast<double>(options.sim_days_usec) /
            static_cast<double>(cli::kUsecPerDay),
        options.chaos != "off" ? (", chaos " + options.chaos).c_str() : "",
        options.state_dir.empty()
            ? ""
            : (", state in " + options.state_dir).c_str());
    std::fflush(stdout);
  }

  monitor.run();
  dns::NamePool::instance().export_gauges(monitor.metrics());

  if (!options.output.quiet) {
    std::printf(
        "dnsboot-monitor: done — %llu probes in %llu batches, "
        "%llu transitions (%zu kinds), journal +%llu/=%llu, %llu snapshots\n",
        static_cast<unsigned long long>(monitor.probes_completed()),
        static_cast<unsigned long long>(monitor.batches_run()),
        static_cast<unsigned long long>(monitor.reporter().transitions()),
        monitor.reporter().distinct_kinds(),
        static_cast<unsigned long long>(monitor.journal_appended()),
        static_cast<unsigned long long>(monitor.journal_replayed()),
        static_cast<unsigned long long>(monitor.snapshots_written()));
    std::fflush(stdout);
  }
  if (monitor.journal_mismatches() > 0) {
    std::fprintf(stderr,
                 "dnsboot-monitor: %llu journal mismatches — the recovered "
                 "journal was not produced by this seed/flags\n",
                 static_cast<unsigned long long>(monitor.journal_mismatches()));
    return 1;
  }

  // Final compacted snapshot: a restart from here replays nothing.
  if (!options.state_dir.empty()) {
    Status snap = monitor.write_snapshot();
    if (!snap.ok()) {
      std::fprintf(stderr, "dnsboot-monitor: snapshot failed: %s\n",
                   snap.error().to_string().c_str());
      return 1;
    }
  }

  bool io_ok = true;
  if (!options.output.json_path.empty()) {
    io_ok &= cli::write_file(options.output.json_path,
                             monitor.reporter().to_json());
  }
  if (!options.csv_path.empty()) {
    io_ok &= cli::write_file(options.csv_path, monitor.reporter().to_csv());
  }
  if (!options.output.metrics_json_path.empty()) {
    io_ok &= cli::write_file(options.output.metrics_json_path,
                             monitor.metrics().to_json());
  }
  if (!io_ok) {
    std::fprintf(stderr, "dnsboot-monitor: failed writing an output file\n");
    return 1;
  }

  // Keep /metrics scrapeable until a signal or, when --max-seconds is set,
  // the wall-clock cap (dnsboot-serve's contract).
  if (options.metrics_port != 0) {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::microseconds(options.max_runtime_usec);
    while (!g_stop.load() && (options.max_runtime_usec == 0 ||
                              std::chrono::steady_clock::now() < deadline)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  metrics_server.stop();
  return 0;
}
