// Registry-side CDS processing tests: the full loop — scan, decide, edit the
// TLD zone, and confirm on re-scan that the child's DNSSEC chain closed.
#include <gtest/gtest.h>

#include "ecosystem/plan.hpp"
#include "net/simnet.hpp"
#include "registry/cds_processor.hpp"

namespace dnsboot::registry {
namespace {

using ecosystem::EcosystemConfig;
using ecosystem::OperatorProfile;
using Action = ProcessingOutcome::Action;

dns::Name name_of(const std::string& text) {
  return std::move(dns::Name::from_text(text)).take();
}

OperatorProfile ab_operator(bool with_signal) {
  OperatorProfile p;
  p.name = "BootHost";
  p.ns_domains = {"boothost.net"};
  p.tld = "net";
  p.customer_tld = "ch";
  p.domains = 8;
  p.secured = 2;
  p.islands = 4;
  p.cds_domains = 6;
  p.island_cds_fraction = 1.0;
  p.island_cds_delete_fraction = 0.25;  // 1 delete island
  p.publishes_signal = with_signal;
  p.signal_includes_delete = with_signal;
  return p;
}

struct Fixture {
  net::SimNetwork network{31};
  ecosystem::Ecosystem eco;
  std::unique_ptr<resolver::QueryEngine> engine;
  std::unique_ptr<resolver::DelegationResolver> resolver;
  std::unique_ptr<CdsProcessor> processor;

  explicit Fixture(bool with_signal = true,
                   UnauthenticatedPolicy policy = UnauthenticatedPolicy::kNever,
                   net::SimTime holddown = 10 * net::kSecond) {
    network.set_default_link(
        net::LinkModel{net::kMillisecond, 0, 0.0});
    EcosystemConfig config;
    config.scale = 1.0;
    config.operators = {ab_operator(with_signal)};
    config.inject_pathologies = false;
    eco = ecosystem::build_shard(
        network, config, ecosystem::make_ecosystem_plan(config), 0, 1);

    resolver::QueryEngineOptions engine_options;
    engine_options.per_server_qps = 5000;
    engine = std::make_unique<resolver::QueryEngine>(
        network, net::IpAddress::v4({192, 0, 2, 249}), engine_options);
    resolver = std::make_unique<resolver::DelegationResolver>(*engine,
                                                              eco.hints);
    RegistryConfig registry_config;
    registry_config.tld = name_of("ch.");
    registry_config.unauthenticated = policy;
    registry_config.holddown = holddown;
    registry_config.now = eco.now;
    processor = std::make_unique<CdsProcessor>(
        network, *engine, *resolver, eco.registries.at("ch."),
        registry_config);
  }

  ProcessingOutcome run(const std::string& zone) {
    ProcessingOutcome outcome;
    bool done = false;
    processor->process(name_of(zone), [&](ProcessingOutcome result) {
      outcome = std::move(result);
      done = true;
    });
    network.run();
    EXPECT_TRUE(done);
    return outcome;
  }

  bool has_ds(const std::string& zone) {
    return eco.registries.at("ch.").zone->find_rrset(
               name_of(zone), dns::RRType::kDS) != nullptr;
  }
};

// Zone layout for BootHost (count-ordered): 0-1 secured, 2-5 islands
// (island 2 carries the delete sentinel, 3-5 valid CDS), 6-7 unsigned.

TEST(CdsProcessor, BootstrapsEligibleIslandAndChainCloses) {
  Fixture fx;
  ASSERT_FALSE(fx.has_ds("boothost-3.ch."));
  auto outcome = fx.run("boothost-3.ch.");
  EXPECT_EQ(outcome.action, Action::kBootstrapped) << outcome.reason;
  EXPECT_TRUE(fx.has_ds("boothost-3.ch."));

  // Re-scan: the zone must now validate as Secure end-to-end.
  auto second = fx.run("boothost-3.ch.");
  EXPECT_EQ(second.report.dnssec, dnssec::ZoneDnssecStatus::kSecure)
      << second.report.dnssec_reason;
  EXPECT_EQ(second.action, Action::kNone);  // CDS already matches DS
}

TEST(CdsProcessor, RefusesIslandWithoutSignals) {
  Fixture fx(/*with_signal=*/false);
  auto outcome = fx.run("boothost-3.ch.");
  EXPECT_EQ(outcome.action, Action::kRejected);
  EXPECT_FALSE(fx.has_ds("boothost-3.ch."));
}

TEST(CdsProcessor, UnsignedZoneIsIgnored) {
  Fixture fx;
  auto outcome = fx.run("boothost-7.ch.");
  EXPECT_EQ(outcome.action, Action::kNone);
  EXPECT_FALSE(fx.has_ds("boothost-7.ch."));
}

TEST(CdsProcessor, DeleteSentinelRemovesNothingWhenNoDs) {
  Fixture fx;
  // Island 2 publishes the delete sentinel but has no DS installed.
  auto outcome = fx.run("boothost-2.ch.");
  EXPECT_EQ(outcome.action, Action::kNone);
}

TEST(CdsProcessor, DeleteSentinelRemovesInstalledDs) {
  Fixture fx;
  // Manually install a DS for the delete-requesting island, then process.
  ASSERT_TRUE(fx.processor
                  ->install_ds(name_of("boothost-2.ch."),
                               {dns::DsRdata{1, 15, 2, Bytes(32, 9)}})
                  .ok());
  ASSERT_TRUE(fx.has_ds("boothost-2.ch."));
  auto outcome = fx.run("boothost-2.ch.");
  EXPECT_EQ(outcome.action, Action::kDeleted) << outcome.reason;
  EXPECT_FALSE(fx.has_ds("boothost-2.ch."));
}

TEST(CdsProcessor, SecuredZoneConvergesToCdsThenStabilizes) {
  Fixture fx;
  // The TLD initially installed only the SHA-256 DS, while the operator's
  // CDS advertises SHA-256 + SHA-384. RFC 7344 §5: the DS RRset is replaced
  // by the CDS content — so the first pass widens it, the second is a no-op.
  auto first = fx.run("boothost-0.ch.");
  EXPECT_EQ(first.action, Action::kRolledOver) << first.reason;
  EXPECT_EQ(first.report.dnssec, dnssec::ZoneDnssecStatus::kSecure);
  auto second = fx.run("boothost-0.ch.");
  EXPECT_EQ(second.action, Action::kNone) << second.reason;
  EXPECT_EQ(second.report.dnssec, dnssec::ZoneDnssecStatus::kSecure);
}

TEST(CdsProcessor, RollsOverWhenDsIsStale) {
  Fixture fx;
  // Replace the installed DS with garbage: the zone becomes bogus, so a
  // compliant registry cannot act on the CDS (it no longer validates as
  // secure). Restore via install (rollover) only works from a valid chain —
  // so instead simulate a pre-rollover state: install a SECOND, stale DS
  // alongside the valid one; CDS processing should converge DS to the CDS.
  const dns::Name zone = name_of("boothost-0.ch.");
  auto& tld_zone = *fx.eco.registries.at("ch.").zone;
  const dns::RRset* current = tld_zone.find_rrset(zone, dns::RRType::kDS);
  ASSERT_NE(current, nullptr);
  std::vector<dns::DsRdata> widened;
  for (const auto& rd : current->rdatas) {
    widened.push_back(std::get<dns::DsRdata>(rd));
  }
  widened.push_back(dns::DsRdata{4242, 15, 2, Bytes(32, 7)});  // stale extra
  ASSERT_TRUE(fx.processor->install_ds(zone, widened).ok());

  auto outcome = fx.run("boothost-0.ch.");
  EXPECT_EQ(outcome.action, Action::kRolledOver) << outcome.reason;
  const dns::RRset* after = tld_zone.find_rrset(zone, dns::RRType::kDS);
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->rdatas.size(), 2u);  // back to the CDS pair (SHA-256+384)
  // And the zone still validates.
  auto recheck = fx.run("boothost-0.ch.");
  EXPECT_EQ(recheck.report.dnssec, dnssec::ZoneDnssecStatus::kSecure);
}

TEST(CdsProcessor, AcceptAfterDelayHonoursHolddown) {
  Fixture fx(/*with_signal=*/false, UnauthenticatedPolicy::kAcceptAfterDelay,
             /*holddown=*/5 * net::kSecond);
  auto first = fx.run("boothost-3.ch.");
  EXPECT_EQ(first.action, Action::kHeldDown);
  EXPECT_FALSE(fx.has_ds("boothost-3.ch."));
  // Still inside the window.
  auto second = fx.run("boothost-3.ch.");
  EXPECT_EQ(second.action, Action::kHeldDown);
  // Let simulated time pass beyond the hold-down, then retry.
  fx.network.schedule(6 * net::kSecond, [] {});
  fx.network.run();
  auto third = fx.run("boothost-3.ch.");
  EXPECT_EQ(third.action, Action::kBootstrappedUnauthenticated)
      << third.reason;
  EXPECT_TRUE(fx.has_ds("boothost-3.ch."));
}

TEST(CdsProcessor, AcceptFromInceptionInstallsImmediately) {
  Fixture fx(/*with_signal=*/false,
             UnauthenticatedPolicy::kAcceptFromInception);
  auto outcome = fx.run("boothost-4.ch.");
  EXPECT_EQ(outcome.action, Action::kBootstrappedUnauthenticated);
  EXPECT_TRUE(fx.has_ds("boothost-4.ch."));
  auto recheck = fx.run("boothost-4.ch.");
  EXPECT_EQ(recheck.report.dnssec, dnssec::ZoneDnssecStatus::kSecure);
}

TEST(CdsProcessor, RefusesForeignTld) {
  Fixture fx;
  EXPECT_FALSE(
      fx.processor->install_ds(name_of("other.com."), {dns::DsRdata{}}).ok());
  EXPECT_FALSE(fx.processor->remove_ds(name_of("other.com.")).ok());
}

}  // namespace
}  // namespace dnsboot::registry
