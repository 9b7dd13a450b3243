// bench_longitudinal — throughput of the continuous monitoring service
// (DESIGN.md §15) over one live world driven by the KASP policy clock
// (DESIGN.md §16): how fast the clock scripts the population's RFC 7583
// schedule (pure CPU: per-zone policy jitter + scenario placement),
// end-to-end transitions/sec and applied key events/sec of the monitor run
// (each event re-signs a zone and may drive registry DS churn), its
// steady-state peak RSS, and journal replay (recover + decode + crc verify)
// records/sec over a synthetic journal.
//
// Usage:
//   bench_longitudinal [--scale-denom N] [--seed S] [--sim-days D]
//                      [--journal-records N] [--json PATH]
//                      [--fail-if-slower] [--min-replay-rate R]
//                      [--min-script-rate R] [--min-event-rate R]
//
// Any run fails when a scripted step fails to apply or replay loses a
// record. --fail-if-slower is the CI smoke gate on top: the run also fails
// when the live run produced no transitions, or when journal replay (what
// bounds restart time after a crash), schedule scripting or live key events
// fall below their --min-*-rate thresholds.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>

#include "bench_json.hpp"
#include "ecosystem/plan.hpp"
#include "kasp/clock.hpp"
#include "longitudinal/monitor.hpp"
#include "tools/cli.hpp"

namespace {

using namespace dnsboot;

struct LiveRun {
  std::uint64_t zones = 0;
  std::uint64_t planned = 0;
  std::uint64_t applied = 0;
  std::uint64_t failed = 0;
  std::uint64_t probes = 0;
  std::uint64_t batches = 0;
  std::uint64_t transitions = 0;
  std::size_t kinds = 0;
  double script_wall_ms = 0;  // PolicyClock construction (scheduling only)
  double live_wall_ms = 0;    // monitor run with the clock armed
  std::uint64_t peak_rss_bytes = 0;
  bool rss_reset_ok = false;

  double script_steps_per_sec() const {
    return script_wall_ms > 0 ? planned / (script_wall_ms / 1000.0) : 0.0;
  }
  double key_events_per_sec() const {
    return live_wall_ms > 0 ? applied / (live_wall_ms / 1000.0) : 0.0;
  }
  double transitions_per_sec() const {
    return live_wall_ms > 0 ? transitions / (live_wall_ms / 1000.0) : 0.0;
  }
  double probes_per_sec() const {
    return live_wall_ms > 0 ? probes / (live_wall_ms / 1000.0) : 0.0;
  }
};

LiveRun run_live(double scale_denom, std::uint64_t seed,
                 std::uint64_t sim_days_usec) {
  net::SimNetwork network(seed ^ 0xd15b007);
  ecosystem::EcosystemConfig config;
  config.seed = seed;
  config.scale = 1.0 / scale_denom;
  const ecosystem::EcosystemPlan plan = ecosystem::make_ecosystem_plan(config);
  ecosystem::Ecosystem eco =
      ecosystem::build_shard(network, config, plan, 0, 1);

  resolver::QueryEngine registry_engine(
      network, net::IpAddress::v4({192, 0, 2, 252}), {});
  resolver::DelegationResolver registry_resolver(registry_engine, eco.hints);
  kasp::KaspOptions kasp_options;
  kasp_options.seed = seed;
  kasp_options.horizon = sim_days_usec;

  LiveRun run;
  run.zones = eco.scan_targets.size();

  const auto script_start = std::chrono::steady_clock::now();
  kasp::PolicyClock clock(network, registry_engine, registry_resolver, eco,
                          kasp_options);
  const auto script_end = std::chrono::steady_clock::now();
  run.script_wall_ms =
      std::chrono::duration<double, std::milli>(script_end - script_start)
          .count();
  run.planned = clock.planned_steps();

  longitudinal::MonitorOptions options;
  options.seed = seed;
  options.horizon = sim_days_usec;
  longitudinal::Monitor monitor(network, eco, options, &clock);

  run.rss_reset_ok = bench::reset_peak_rss();
  const auto start = std::chrono::steady_clock::now();
  if (!monitor.start().ok()) return run;
  monitor.run();
  const auto end = std::chrono::steady_clock::now();
  run.live_wall_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  run.peak_rss_bytes = bench::read_peak_rss_bytes();
  run.applied = clock.applied();
  run.failed = clock.failed();
  run.probes = monitor.probes_completed();
  run.batches = monitor.batches_run();
  run.transitions = monitor.reporter().transitions();
  run.kinds = monitor.reporter().distinct_kinds();
  return run;
}

struct ReplayRun {
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;
  double wall_ms = 0;
  double records_per_sec() const {
    return wall_ms > 0 ? records / (wall_ms / 1000.0) : 0.0;
  }
};

// Synthesize a journal of `records` transitions and measure recover():
// the full restart path — read, split, decode, crc-verify every line.
ReplayRun run_replay(std::uint64_t records) {
  namespace fs = std::filesystem;
  char tmpl[] = "/tmp/bench_longitudinal_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  ReplayRun run;
  if (dir == nullptr) return run;
  const std::string path = std::string(dir) + "/journal.log";
  {
    auto journal = longitudinal::Journal::open(path, "bench");
    if (!journal.ok()) return run;
    longitudinal::Transition t;
    auto zone = dns::Name::from_text("replay-victim.example.ch.");
    if (!zone.ok()) return run;
    t.zone = std::move(zone).take();
    t.cds_changed = true;
    t.cds_digest = "00112233aabbccdd";
    t.operator_name = "BenchOp";
    for (std::uint64_t seq = 1; seq <= records; ++seq) {
      t.seq = seq;
      t.at = seq * 250000;
      t.from = static_cast<longitudinal::ZonePhase>(seq % 6);
      t.to = static_cast<longitudinal::ZonePhase>((seq + 1) % 6);
      if (!journal->append(t).ok()) return run;
    }
  }
  run.bytes = fs::file_size(path);

  const auto start = std::chrono::steady_clock::now();
  auto recovered = longitudinal::Journal::recover(path);
  const auto end = std::chrono::steady_clock::now();
  run.wall_ms = std::chrono::duration<double, std::milli>(end - start).count();
  if (recovered.ok()) run.records = recovered->transitions.size();
  fs::remove_all(dir);
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  double scale_denom = 400000;
  std::uint64_t seed = 1;
  std::uint64_t sim_days_usec = 10 * cli::kUsecPerDay;
  std::uint64_t journal_records = 50000;
  std::string json_path;
  bool fail_if_slower = false;
  double min_replay_rate = 50000;  // records/sec
  double min_script_rate = 50;     // steps/sec scripted
  double min_event_rate = 1;       // applied key events/sec

  cli::FlagParser parser(
      "bench_longitudinal — KASP schedule scripting steps/sec, monitor "
      "transitions/sec and key events/sec, journal replay records/sec, "
      "steady-state RSS");
  parser.value("--scale-denom", &scale_denom, "world scale divisor", 1e-9);
  parser.value("--seed", &seed, "world + schedule seed");
  parser.duration("--sim-days", &sim_days_usec, cli::kUsecPerDay,
                  "simulated monitoring window for the live run");
  parser.value("--journal-records", &journal_records,
               "synthetic journal size for the replay measurement", 1);
  parser.value("--json", &json_path, "FILE", "write BENCH_longitudinal.json");
  parser.flag("--fail-if-slower", &fail_if_slower,
              "exit non-zero when the live run saw no transitions or a rate "
              "falls below its --min-*-rate threshold",
              true);
  parser.value("--min-replay-rate", &min_replay_rate,
               "replay gate threshold, records/sec", 1.0);
  parser.value("--min-script-rate", &min_script_rate,
               "schedule scripting gate, steps/sec", 1.0);
  parser.value("--min-event-rate", &min_event_rate,
               "live key-event gate, events/sec", 1e-3);
  if (!parser.parse(argc, argv)) return 2;
  if (parser.help_requested()) return 0;

  std::printf("bench_longitudinal — scale 1/%.0f, seed %llu, %.1f sim days\n",
              scale_denom, static_cast<unsigned long long>(seed),
              static_cast<double>(sim_days_usec) /
                  static_cast<double>(cli::kUsecPerDay));

  const LiveRun live = run_live(scale_denom, seed, sim_days_usec);
  std::printf("script: %llu zones  %llu steps in %.1f ms  %.0f steps/s\n",
              static_cast<unsigned long long>(live.zones),
              static_cast<unsigned long long>(live.planned),
              live.script_wall_ms, live.script_steps_per_sec());
  std::printf(
      "live:   %llu/%llu key events (%llu failed)  %llu probes (%llu "
      "batches)  %llu transitions (%zu kinds)  %.1f ms  %.2f events/s  "
      "%.1f trans/s  %.0f probes/s  %.1f MiB peak%s\n",
      static_cast<unsigned long long>(live.applied),
      static_cast<unsigned long long>(live.planned),
      static_cast<unsigned long long>(live.failed),
      static_cast<unsigned long long>(live.probes),
      static_cast<unsigned long long>(live.batches),
      static_cast<unsigned long long>(live.transitions), live.kinds,
      live.live_wall_ms, live.key_events_per_sec(), live.transitions_per_sec(),
      live.probes_per_sec(),
      static_cast<double>(live.peak_rss_bytes) / (1024.0 * 1024.0),
      live.rss_reset_ok ? "" : " (no clear_refs)");

  const ReplayRun replay = run_replay(journal_records);
  std::printf(
      "replay: %llu records (%.1f MiB) in %.1f ms  %.0f records/s\n",
      static_cast<unsigned long long>(replay.records),
      static_cast<double>(replay.bytes) / (1024.0 * 1024.0), replay.wall_ms,
      replay.records_per_sec());

  bench::BenchJson json("longitudinal");
  json.add("scale_denom", scale_denom)
      .add("seed", seed)
      .add("sim_days",
           static_cast<double>(sim_days_usec) /
               static_cast<double>(cli::kUsecPerDay))
      .add("zones", live.zones)
      .add("planned_steps", live.planned)
      .add("applied_steps", live.applied)
      .add("failed_steps", live.failed)
      .add("script_wall_ms", live.script_wall_ms)
      .add("script_steps_per_sec", live.script_steps_per_sec())
      .add("probes", live.probes)
      .add("batches", live.batches)
      .add("transitions", live.transitions)
      .add("transition_kinds", static_cast<std::uint64_t>(live.kinds))
      .add("live_wall_ms", live.live_wall_ms)
      .add("key_events_per_sec", live.key_events_per_sec())
      .add("transitions_per_sec", live.transitions_per_sec())
      .add("probes_per_sec", live.probes_per_sec())
      .add("peak_rss_bytes", live.peak_rss_bytes)
      .add("rss_reset_ok", live.rss_reset_ok)
      .add("replay_records", replay.records)
      .add("replay_bytes", replay.bytes)
      .add("replay_wall_ms", replay.wall_ms)
      .add("replay_records_per_sec", replay.records_per_sec());
  if (!json.write(json_path)) {
    std::fprintf(stderr, "cannot write bench json\n");
    return 1;
  }

  if (live.failed != 0 || live.applied != live.planned) {
    std::fprintf(stderr,
                 "FAIL: %llu of %llu scripted steps applied (%llu failed)\n",
                 static_cast<unsigned long long>(live.applied),
                 static_cast<unsigned long long>(live.planned),
                 static_cast<unsigned long long>(live.failed));
    return 1;
  }
  if (replay.records != journal_records) {
    std::fprintf(stderr, "FAIL: replay recovered %llu of %llu records\n",
                 static_cast<unsigned long long>(replay.records),
                 static_cast<unsigned long long>(journal_records));
    return 1;
  }
  if (fail_if_slower) {
    if (live.transitions == 0) {
      std::fprintf(stderr, "FAIL: live run produced no transitions\n");
      return 1;
    }
    if (replay.records_per_sec() < min_replay_rate) {
      std::fprintf(stderr, "FAIL: replay rate %.0f records/s below %.0f\n",
                   replay.records_per_sec(), min_replay_rate);
      return 1;
    }
    if (live.script_steps_per_sec() < min_script_rate) {
      std::fprintf(stderr, "FAIL: scripting rate %.0f steps/s below %.0f\n",
                   live.script_steps_per_sec(), min_script_rate);
      return 1;
    }
    if (live.key_events_per_sec() < min_event_rate) {
      std::fprintf(stderr, "FAIL: key-event rate %.2f/s below %.2f\n",
                   live.key_events_per_sec(), min_event_rate);
      return 1;
    }
  }
  return 0;
}
