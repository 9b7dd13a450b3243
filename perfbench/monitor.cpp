// monitor — what dnsboot-monitor --motion kasp --state-dir does: build the
// world, arm the RFC 7583 KASP policy clock and the monitor with a journal
// on disk (set-up), then re-probe the population through simulated days of
// key rollovers. The request is one simulated hour of monitoring: the wall
// time a monitor of this population needs per hour it keeps watch.
#include <filesystem>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "ecosystem/plan.hpp"
#include "kasp/clock.hpp"
#include "longitudinal/monitor.hpp"
#include "net/simnet.hpp"

namespace perfbench {

namespace {

using namespace dnsboot;

// ~300 zones watched for two simulated days: the first day carries the
// initial probe wave and the KASP bootstraps, the second the rollovers.
constexpr double kScaleDenom = 1000000;
constexpr net::SimTime kHour = net::SimTime{3600} * net::kSecond;
constexpr net::SimTime kHorizon = 48 * kHour;
constexpr int kMinRounds = 3;

}  // namespace

RunResult run_monitor(const RunOptions& options) {
  RunResult result;
  EndToEnd e2e;
  LayerTotals layers;
  const Clock::time_point started = Clock::now();

  for (int round = 0; round < kMinRounds || seconds_since(started) < options.seconds;
       ++round) {
    const std::uint64_t seed = round_seed(options.seed, round);
    pin_to_round_cpu(round);
    const double pool_before = namepool_bytes();
    const std::filesystem::path state_dir =
        std::filesystem::path(options.scratch_dir) / ("monitor-" + std::to_string(round));
    std::filesystem::remove_all(state_dir);
    std::filesystem::create_directories(state_dir);
    LayerClock clock;

    // Set-up: plan, world, KASP clock, monitor (journal opened, first probes
    // and every motion step scheduled).
    const Clock::time_point setup_start = Clock::now();
    ecosystem::EcosystemConfig config;
    config.seed = seed;
    config.scale = 1.0 / kScaleDenom;
    const ecosystem::EcosystemPlan plan = ecosystem::make_ecosystem_plan(config);
    const double plan_s = seconds_since(setup_start);
    // The simulator, seeded as the tools seed theirs; a traced run wraps it.
    std::unique_ptr<net::SimNetwork> network;
    Traced<net::SimNetwork>* traced = nullptr;
    if (options.trace) {
      auto wrapped = std::make_unique<Traced<net::SimNetwork>>(clock, seed ^ 0xd15b007);
      traced = wrapped.get();
      network = std::move(wrapped);
    } else {
      network = std::make_unique<net::SimNetwork>(seed ^ 0xd15b007);
    }
    ecosystem::Ecosystem eco = ecosystem::build_shard(*network, config, plan, 0, 1);
    const double build_s = seconds_since(setup_start) - plan_s;
    if (traced != nullptr) traced->set_bind_layer(Layer::kClient);

    resolver::QueryEngine registry_engine(
        *network, net::IpAddress::v4({192, 0, 2, 252}), {});
    resolver::DelegationResolver registry_resolver(registry_engine, eco.hints);
    kasp::KaspOptions kasp_options;
    kasp_options.seed = seed;
    kasp_options.horizon = kHorizon;
    kasp::PolicyClock motion(*network, registry_engine, registry_resolver, eco,
                             kasp_options);
    longitudinal::MonitorOptions monitor_options;
    monitor_options.seed = seed;
    monitor_options.horizon = kHorizon;
    monitor_options.snapshot_every = 12 * kHour;
    monitor_options.state_dir = state_dir.string();
    longitudinal::Monitor monitor(*network, eco, monitor_options, &motion);
    const Status status = monitor.start();
    const double setup_s = seconds_since(setup_start);
    result.check(status.ok(), "monitor.start failed");
    if (!status.ok()) break;

    // Requests: advance the world one simulated hour at a time, then drain
    // the probes still in flight at the horizon.
    const Clock::time_point run_start = Clock::now();
    std::vector<double> step_ms;
    for (net::SimTime until = kHour; until <= kHorizon; until += kHour) {
      const Clock::time_point step_start = Clock::now();
      {
        // run_until is not virtual: the traced run opens the loop's span here.
        std::optional<LayerClock::Span> span;
        if (traced != nullptr) span.emplace(clock, Layer::kNet);
        network->run_until(until);
      }
      step_ms.push_back(seconds_since(step_start) * 1e3);
    }
    network->run();
    const double run_s = seconds_since(run_start);

    // What dnsboot-monitor writes at exit: final snapshot and the reports.
    const Clock::time_point report_start = Clock::now();
    const Status snapshot = monitor.write_snapshot();
    const std::string json = monitor.reporter().to_json();
    const std::string csv = monitor.reporter().to_csv();
    const std::string metrics = monitor.metrics().to_json();
    const double report_s = seconds_since(report_start);

    const std::uint64_t probes = monitor.probes_completed();
    std::uint64_t unprobed = 0;
    for (const dns::Name& zone : eco.scan_targets) {
      const longitudinal::ZoneHistory* history = monitor.history().find(zone);
      if (history == nullptr || history->probes == 0) ++unprobed;
    }
    result.attempted += probes;
    result.failed += unprobed + motion.failed() + monitor.journal_mismatches();
    e2e.setup_s.push_back(setup_s);
    e2e.latency_ms.push_back(median(step_ms));
    e2e.rate.push_back(static_cast<double>(probes) / run_s);

    // Every zone was probed, the KASP clock applied its whole schedule, and
    // each acknowledged transition reached the journal.
    result.check(snapshot.ok(), "final snapshot failed");
    result.check(unprobed == 0, std::to_string(unprobed) + " zones left unprobed");
    result.check(motion.failed() == 0, "KASP steps failed");
    result.check(motion.applied() > 0, "KASP clock applied no step");
    result.check(monitor.reporter().transitions() > 0, "no transitions");
    result.check(monitor.journal_appended() == monitor.reporter().transitions(),
                 "journal and report disagree");
    result.check(!json.empty() && !csv.empty() && !metrics.empty(),
                 "empty monitor output");

    if (traced != nullptr) {
      layers.plan_ms.push_back(plan_s * 1e3);
      layers.build_ms.push_back(build_s * 1e3);
      layers.report_ms.push_back(report_s * 1e3);
      layers.add(clock);
      layers.queries += clock.spans(Layer::kServer);
      layers.bytes += network->bytes_sent();
      layers.ops += static_cast<double>(probes);
      if (round == 0) {
        layers.namepool_bytes_per_zone =
            (namepool_bytes() - pool_before) /
            static_cast<double>(eco.scan_targets.size());
      }
    }
    std::filesystem::remove_all(state_dir);
  }

  if (options.trace) {
    report_layers(layers, &result);
  } else {
    report_end_to_end(e2e, &result);
  }
  return result;
}

}  // namespace perfbench
