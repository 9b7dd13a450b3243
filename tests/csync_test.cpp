// CSYNC (RFC 7477) tests: child-to-parent NS synchronization end to end.
#include <gtest/gtest.h>

#include "ecosystem/plan.hpp"
#include "net/simnet.hpp"
#include "registry/csync_processor.hpp"

namespace dnsboot::registry {
namespace {

using ecosystem::EcosystemConfig;
using ecosystem::OperatorProfile;
using Action = CsyncOutcome::Action;

dns::Name name_of(const std::string& text) {
  return std::move(dns::Name::from_text(text)).take();
}

struct Fixture {
  net::SimNetwork network{61};
  ecosystem::Ecosystem eco;
  std::unique_ptr<resolver::QueryEngine> engine;
  std::unique_ptr<resolver::DelegationResolver> resolver;
  std::unique_ptr<CsyncProcessor> processor;

  Fixture() {
    network.set_default_link(net::LinkModel{net::kMillisecond, 0, 0.0});
    OperatorProfile op;
    op.name = "SyncHost";
    op.ns_domains = {"synchost.net"};
    op.tld = "net";
    op.customer_tld = "se";
    op.domains = 6;
    op.secured = 3;
    op.islands = 1;
    op.cds_domains = 3;
    op.csync_migrations = 1;  // one zone mid-migration
    EcosystemConfig config;
    config.scale = 1.0;
    config.operators = {op};
    config.inject_pathologies = false;
    eco = ecosystem::build_shard(
        network, config, ecosystem::make_ecosystem_plan(config), 0, 1);

    resolver::QueryEngineOptions engine_options;
    engine_options.per_server_qps = 5000;
    engine = std::make_unique<resolver::QueryEngine>(
        network, net::IpAddress::v4({192, 0, 2, 248}), engine_options);
    resolver =
        std::make_unique<resolver::DelegationResolver>(*engine, eco.hints);
    processor = std::make_unique<CsyncProcessor>(
        network, *engine, *resolver, eco.registries.at("se."), name_of("se."),
        eco.now);
  }

  CsyncOutcome run(const std::string& zone) {
    CsyncOutcome outcome;
    bool done = false;
    processor->process(name_of(zone), [&](CsyncOutcome result) {
      outcome = std::move(result);
      done = true;
    });
    network.run();
    EXPECT_TRUE(done);
    return outcome;
  }

  std::vector<dns::Name> delegation_ns(const std::string& zone) {
    std::vector<dns::Name> out;
    const dns::RRset* set = eco.registries.at("se.").zone->find_rrset(
        name_of(zone), dns::RRType::kNS);
    if (set == nullptr) return out;
    for (const auto& rd : set->rdatas) {
      out.push_back(std::get<dns::NsRdata>(rd).nsdname);
    }
    return out;
  }
};

// SyncHost layout: zones 0-2 secured (zone 0 carries the migrating CSYNC),
// zone 3 island, 4-5 unsigned.

TEST(CsyncProcessor, SynchronizesDelegationFromChild) {
  Fixture fx;
  // Find the CSYNC zone from ground truth.
  std::string csync_zone;
  for (const auto& [zone, truth] : fx.eco.truth) {
    if (truth.csync) csync_zone = zone;
  }
  ASSERT_FALSE(csync_zone.empty());

  // Pre-state: delegation still lists ns1+ns2.
  auto before = fx.delegation_ns(csync_zone);
  ASSERT_EQ(before.size(), 2u);
  bool had_ns2 = false;
  for (const auto& ns : before) {
    if (ns == name_of("ns2.synchost.net.")) had_ns2 = true;
  }
  EXPECT_TRUE(had_ns2);

  auto outcome = fx.run(csync_zone);
  EXPECT_EQ(outcome.action, Action::kSynchronized) << outcome.reason;
  ASSERT_EQ(outcome.new_ns.size(), 2u);

  // Post-state: delegation now matches the child's apex NS (ns1 + ns3).
  auto after = fx.delegation_ns(csync_zone);
  bool has_ns3 = false, still_ns2 = false;
  for (const auto& ns : after) {
    if (ns == name_of("ns3.synchost.net.")) has_ns3 = true;
    if (ns == name_of("ns2.synchost.net.")) still_ns2 = true;
  }
  EXPECT_TRUE(has_ns3);
  EXPECT_FALSE(still_ns2);

  // Idempotent: a second pass has nothing to do.
  auto second = fx.run(csync_zone);
  EXPECT_EQ(second.action, Action::kNone) << second.reason;
}

TEST(CsyncProcessor, IgnoresZonesWithoutCsync) {
  Fixture fx;
  auto outcome = fx.run("synchost-1.se.");
  EXPECT_EQ(outcome.action, Action::kNone);
  EXPECT_EQ(outcome.reason, "no CSYNC published");
}

TEST(CsyncProcessor, RejectsInsecurelyDelegatedZone) {
  Fixture fx;
  // The island (zone 3) is signed but has no DS: CSYNC must not be honoured
  // without a validatable chain, even if a CSYNC record were present.
  auto outcome = fx.run("synchost-3.se.");
  // No CSYNC published on that zone anyway, but the path must not crash and
  // must not modify the delegation.
  EXPECT_NE(outcome.action, Action::kSynchronized);
}

TEST(CsyncProcessor, RejectsForeignTld) {
  Fixture fx;
  // The operator's own zone is under .net — outside this registry.
  auto outcome = fx.run("synchost.net.");
  EXPECT_NE(outcome.action, Action::kSynchronized);
}

}  // namespace
}  // namespace dnsboot::registry
