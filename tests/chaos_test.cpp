// Chaos acceptance tests: a hostile world (heavy loss, flapping links,
// transient-SERVFAIL servers) must complete a full survey with zero aborted
// scans — every zone yields a complete or explicitly-degraded observation
// with per-probe failure provenance — and the resilient policy must
// demonstrably beat the seed's fixed-retry policy on wasted sends.
#include <gtest/gtest.h>

#include "analysis/survey.hpp"
#include "ecosystem/chaos.hpp"
#include "ecosystem/plan.hpp"
#include "lint/chaos_lint.hpp"
#include "net/simnet.hpp"
#include "scanner/scanner.hpp"

namespace dnsboot {
namespace {

using ecosystem::ChaosOptions;
using ecosystem::ChaosPlan;
using ecosystem::EcosystemConfig;
using ecosystem::OperatorProfile;

OperatorProfile chaos_operator() {
  OperatorProfile p;
  p.name = "OpChaos";
  p.ns_domains = {"opchaos.net"};
  p.tld = "net";
  p.customer_tld = "com";
  p.domains = 20;
  p.secured = 5;
  p.islands = 3;
  p.cds_domains = 8;
  p.publishes_signal = true;
  return p;
}

// The acceptance world: 30% loss, flapping links, transient-SERVFAIL
// servers. Fractions are high because the custom world is tiny — the point
// is that the plan actually faults endpoints and servers (asserted below).
ChaosOptions acceptance_chaos() {
  ChaosOptions chaos;
  chaos.seed = 0xacce97;
  chaos.loss_rate = 0.30;
  chaos.duplicate_rate = 0.05;
  chaos.reorder_rate = 0.10;
  chaos.flap_fraction = 0.5;
  chaos.flap_period = 10 * net::kSecond;
  chaos.flap_down = 2 * net::kSecond;
  chaos.servfail_flap_fraction = 0.9;
  chaos.servfail_flap_period = 10 * net::kSecond;
  chaos.servfail_flap_fail = 2 * net::kSecond;
  return chaos;
}

struct ChaosWorld {
  std::unique_ptr<net::SimNetwork> network;
  ecosystem::Ecosystem eco;
  ChaosPlan plan;
  analysis::SurveyRunResult result;
};

// Build the world, apply the chaos schedule, run the full survey pipeline.
ChaosWorld run_chaos_survey(const ChaosOptions& chaos, bool adaptive,
                            int scan_attempts) {
  ChaosWorld world;
  world.network = std::make_unique<net::SimNetwork>(42);
  world.network->set_default_link(
      net::LinkModel{2 * net::kMillisecond, net::kMillisecond, 0.0});
  EcosystemConfig config;
  config.scale = 1.0;
  config.operators = {chaos_operator()};
  config.inject_pathologies = false;
  world.eco = ecosystem::build_shard(
      *world.network, config, ecosystem::make_ecosystem_plan(config), 0, 1);
  world.plan = ecosystem::apply_chaos(*world.network, world.eco, chaos);

  analysis::SurveyRunOptions options;
  options.keep_reports = true;
  if (adaptive) options.engine = resolver::resilient_query_options();
  options.engine.per_server_qps = 1000;  // keep tests fast
  options.scanner.max_scan_attempts = scan_attempts;
  world.result = analysis::run_survey(*world.network, world.eco, options);
  return world;
}

TEST(Chaos, PlanIsDeterministicAndExemptsInfrastructure) {
  auto build_plan = [](std::uint64_t seed) {
    auto network = std::make_unique<net::SimNetwork>(42);
    EcosystemConfig config;
    config.scale = 1.0;
    config.operators = {chaos_operator()};
    config.inject_pathologies = false;
    auto eco = ecosystem::build_shard(
        *network, config, ecosystem::make_ecosystem_plan(config), 0, 1);
    ChaosOptions chaos = ecosystem::chaos_preset("hostile");
    chaos.seed = seed;
    auto plan = ecosystem::apply_chaos(*network, eco, chaos);

    // Infrastructure stays clean: no link rule, no server fault gate.
    for (const auto& server : eco.servers) {
      const std::string& id = server->config().id;
      if (id == "root" || id.rfind("nic.", 0) == 0) {
        for (const auto& address : server->addresses()) {
          EXPECT_EQ(plan.links.count(address), 0u) << id;
        }
        const auto& faults = server->config().faults;
        EXPECT_EQ(faults.rate_limit_qps, 0.0) << id;
        EXPECT_EQ(faults.flap_period, 0u) << id;
        EXPECT_EQ(faults.slow_start_queries, 0u) << id;
      }
    }
    return plan;
  };
  ChaosPlan a = build_plan(7);
  ChaosPlan b = build_plan(7);
  EXPECT_EQ(a.endpoints_faulted, b.endpoints_faulted);
  EXPECT_EQ(a.endpoints_blackholed, b.endpoints_blackholed);
  EXPECT_EQ(a.endpoints_flapping, b.endpoints_flapping);
  EXPECT_EQ(a.servers_faulted, b.servers_faulted);
  ASSERT_EQ(a.links.size(), b.links.size());
  for (const auto& [address, profile] : a.links) {
    auto it = b.links.find(address);
    ASSERT_NE(it, b.links.end());
    EXPECT_EQ(profile.flap_phase, it->second.flap_phase);
    EXPECT_EQ(profile.blackholes.size(), it->second.blackholes.size());
  }
  // The hostile preset really faults things in this world.
  EXPECT_GT(a.endpoints_faulted, 0u);
}

TEST(Chaos, HostileSurveyCompletesEveryZoneWithProvenance) {
  auto world = run_chaos_survey(acceptance_chaos(), /*adaptive=*/true,
                                /*scan_attempts=*/3);
  // The world really is chaotic.
  EXPECT_GT(world.plan.endpoints_flapping, 0u);
  EXPECT_GT(world.plan.servers_faulted, 0u);

  const analysis::Survey& survey = world.result.survey;
  // Zero aborted scans: every target produced a delivered observation.
  ASSERT_EQ(survey.total, world.eco.scan_targets.size());
  ASSERT_EQ(world.result.reports.size(), world.eco.scan_targets.size());
  // Every zone is complete or explicitly degraded — the chaos world never
  // silently loses a zone.
  EXPECT_EQ(survey.scan_complete + survey.scan_degraded, survey.total);
  EXPECT_EQ(survey.scan_not_observed, 0u);
  EXPECT_EQ(survey.scan_unreachable, 0u);
  // The scan was actually degraded somewhere (otherwise this test proves
  // nothing) and every degraded report carries per-probe provenance.
  EXPECT_GT(survey.scan_degraded, 0u);
  for (const auto& report : world.result.reports) {
    if (report.scan_quality == analysis::ScanQuality::kDegraded) {
      EXPECT_GT(report.failed_probes, 0u) << report.zone.to_text();
    }
    if (report.scan_quality == analysis::ScanQuality::kComplete) {
      EXPECT_EQ(report.failed_probes, 0u) << report.zone.to_text();
    }
  }
  // The engine worked for it: retries happened, and some recovered zones
  // were re-scanned by the requeue pass.
  EXPECT_GT(world.result.engine_stats.retries, 0u);
}

TEST(Chaos, RequeuePassRaisesCompleteFraction) {
  // Same world, same seeds; the only difference is the bounded end-of-scan
  // requeue. It must measurably raise the complete fraction. Loss-dominated
  // chaos: every failure is transient, so a second pass can go clean.
  ChaosOptions chaos;
  chaos.seed = 0x2e9;
  chaos.loss_rate = 0.30;
  auto single = run_chaos_survey(chaos, true, 1);
  auto requeued = run_chaos_survey(chaos, true, 3);
  ASSERT_EQ(single.result.survey.total, requeued.result.survey.total);
  EXPECT_GT(requeued.result.survey.scan_complete,
            single.result.survey.scan_complete);
  EXPECT_GT(requeued.result.scanner_stats.zones_requeued, 0u);
  EXPECT_GT(requeued.result.scanner_stats.zones_recovered, 0u);
  // Requeueing never delivers duplicates: one observation per zone.
  EXPECT_EQ(requeued.result.survey.total, requeued.eco.scan_targets.size());
}

TEST(Chaos, AdaptivePolicyWastesFewerSendsThanFixedRetry) {
  // A world with permanently dead endpoints: the fixed-retry seed policy
  // keeps pouring attempts into the blackholes; the breaker + retry budget
  // must spend strictly fewer wasted sends on the same seed.
  ChaosOptions chaos;
  chaos.seed = 0xdead;
  chaos.loss_rate = 0.15;
  chaos.blackhole_fraction = 0.4;
  chaos.blackhole_start = 0;
  chaos.blackhole_duration = net::kSimTimeForever;
  auto fixed = run_chaos_survey(chaos, /*adaptive=*/false, 1);
  auto adaptive = run_chaos_survey(chaos, /*adaptive=*/true, 1);
  ASSERT_GT(fixed.plan.endpoints_blackholed, 0u);
  EXPECT_LT(adaptive.result.engine_stats.wasted_sends(),
            fixed.result.engine_stats.wasted_sends());
  // The savings came from the health tracker: fail-fast rejections happened.
  EXPECT_GT(adaptive.result.engine_stats.fail_fast, 0u);
  // Both surveys still delivered every zone.
  EXPECT_EQ(fixed.result.survey.total, fixed.eco.scan_targets.size());
  EXPECT_EQ(adaptive.result.survey.total, adaptive.eco.scan_targets.size());
}

TEST(Chaos, LintFlagsPermanentlyUnobservableZones) {
  net::SimNetwork network(42);
  EcosystemConfig config;
  config.scale = 1.0;
  config.operators = {chaos_operator()};
  config.inject_pathologies = false;
  auto eco = ecosystem::build_shard(
      network, config, ecosystem::make_ecosystem_plan(config), 0, 1);

  net::FaultProfile dead;
  dead.blackholes.push_back(net::TimeWindow{});  // [0, forever)
  ASSERT_TRUE(dead.permanently_dead());

  // Kill every operator-side address: every operator zone becomes
  // structurally unobservable and must be flagged.
  std::map<net::IpAddress, net::FaultProfile> links;
  for (const auto& server : eco.servers) {
    const std::string& id = server->config().id;
    if (id == "root" || id.rfind("nic.", 0) == 0) continue;
    for (const auto& address : server->addresses()) links[address] = dead;
  }
  auto report = lint::lint_chaos(eco.servers, links);
  EXPECT_GT(report.size(), 0u);
  for (const auto& finding : report.findings()) {
    EXPECT_EQ(finding.rule, lint::RuleId::kChaosUnobservable);
  }

  // One live address per server keeps every zone observable: no findings.
  std::map<net::IpAddress, net::FaultProfile> partial = links;
  for (const auto& server : eco.servers) {
    if (!server->addresses().empty()) {
      partial.erase(server->addresses().front());
    }
  }
  EXPECT_EQ(lint::lint_chaos(eco.servers, partial).size(), 0u);

  // A time-bounded blackhole is degrading, not unobservable.
  net::FaultProfile windowed;
  windowed.blackholes.push_back(
      net::TimeWindow{0, 30 * net::kSecond});
  for (auto& [address, profile] : links) profile = windowed;
  EXPECT_EQ(lint::lint_chaos(eco.servers, links).size(), 0u);
}

TEST(Chaos, FailureProvenanceClassification) {
  using scanner::ProbeFailure;
  // Transient scan-side failures: a retry might have observed the zone.
  EXPECT_TRUE(scanner::is_transient(ProbeFailure::kTimeout));
  EXPECT_TRUE(scanner::is_transient(ProbeFailure::kServFail));
  EXPECT_TRUE(scanner::is_transient(ProbeFailure::kCircuitOpen));
  EXPECT_TRUE(scanner::is_transient(ProbeFailure::kRefused));
  // Permanent operator-side behaviour: retrying cannot help.
  EXPECT_FALSE(scanner::is_transient(ProbeFailure::kFormErr));
  EXPECT_FALSE(scanner::is_transient(ProbeFailure::kNotImp));
  EXPECT_FALSE(scanner::is_transient(ProbeFailure::kNone));

  // Resolution-failure strings follow the same split.
  EXPECT_TRUE(scanner::is_transient_failure("query.timeout: no response"));
  EXPECT_TRUE(scanner::is_transient_failure(
      "resolve.unreachable: no nameserver answered"));
  EXPECT_FALSE(scanner::is_transient_failure(
      "resolve.nxdomain: no such delegation"));
  EXPECT_FALSE(scanner::is_transient_failure("name.too_long: oversized"));
}

}  // namespace
}  // namespace dnsboot
