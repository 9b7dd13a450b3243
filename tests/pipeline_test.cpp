// Integration tests: ecosystem -> simnet -> scanner, on small custom worlds.
#include <gtest/gtest.h>

#include "ecosystem/plan.hpp"
#include "net/simnet.hpp"
#include "scanner/scanner.hpp"

namespace dnsboot {
namespace {

using ecosystem::EcosystemConfig;
using ecosystem::OperatorProfile;
using ecosystem::ZoneState;
using scanner::RRsetProbe;

dns::Name name_of(const std::string& text) {
  return std::move(dns::Name::from_text(text)).take();
}

OperatorProfile plain_operator() {
  OperatorProfile p;
  p.name = "OpPlain";
  p.ns_domains = {"opplain.net"};
  p.tld = "net";
  p.customer_tld = "com";
  p.domains = 20;
  p.secured = 5;
  p.invalid = 2;
  p.islands = 4;
  p.cds_domains = 9;
  p.island_cds_fraction = 1.0;
  p.island_cds_delete_fraction = 0.5;  // 2 of 4 islands carry delete CDS
  p.publishes_signal = true;
  p.signal_includes_delete = true;
  return p;
}

OperatorProfile legacy_operator() {
  OperatorProfile p;
  p.name = "OpLegacy";
  p.ns_domains = {"oplegacy.org"};
  p.tld = "org";
  p.customer_tld = "org";
  p.domains = 6;
  p.legacy_formerr = true;
  return p;
}

struct World {
  net::SimNetwork network{42};
  ecosystem::Ecosystem eco;
  std::vector<scanner::ZoneObservation> observations;
  scanner::InfrastructureSnapshot infra;
};

std::unique_ptr<World> scan_world(std::vector<OperatorProfile> operators,
                                  bool pathologies = false,
                                  double loss = 0.0) {
  auto world = std::make_unique<World>();
  world->network.set_default_link(net::LinkModel{2 * net::kMillisecond,
                                                 net::kMillisecond, loss});
  EcosystemConfig config;
  config.scale = 1.0;
  config.operators = std::move(operators);
  config.inject_pathologies = pathologies;
  world->eco = ecosystem::build_shard(
      world->network, config, ecosystem::make_ecosystem_plan(config), 0, 1);

  auto engine_address = net::IpAddress::v4({192, 0, 2, 250});
  resolver::QueryEngineOptions engine_options;
  engine_options.per_server_qps = 1000;  // keep tests fast
  auto engine = std::make_unique<resolver::QueryEngine>(
      world->network, engine_address, engine_options);
  auto delegation_resolver = std::make_unique<resolver::DelegationResolver>(
      *engine, world->eco.hints);
  scanner::ScannerOptions scan_options;
  scanner::Scanner scanner(world->network, *engine, *delegation_resolver,
                           scan_options);
  scanner.scan(world->eco.scan_targets, [&](scanner::ZoneObservation obs) {
    world->observations.push_back(std::move(obs));
  });
  scanner.run();
  world->infra = *scanner.take_infrastructure();
  return world;
}

const scanner::ZoneObservation* find_zone(
    const World& world, const std::string& zone) {
  for (const auto& obs : world.observations) {
    if (obs.zone == name_of(zone)) return &obs;
  }
  return nullptr;
}

TEST(Pipeline, ScansEveryTargetZone) {
  auto world = scan_world({plain_operator(), legacy_operator()});
  EXPECT_EQ(world->observations.size(), world->eco.scan_targets.size());
  for (const auto& obs : world->observations) {
    EXPECT_TRUE(obs.resolved) << obs.zone.to_text() << ": " << obs.failure;
    // 2 NS hostnames, each with one IPv4 and one IPv6 address.
    EXPECT_EQ(obs.endpoints.size(), 4u) << obs.zone.to_text();
    // 5 probe types x 4 endpoints.
    EXPECT_EQ(obs.probes.size(), 20u) << obs.zone.to_text();
  }
}

TEST(Pipeline, CapturesInfrastructureChain) {
  auto world = scan_world({plain_operator()});
  EXPECT_FALSE(world->infra.root_dnskey.rrset.rdatas.empty());
  EXPECT_FALSE(world->infra.root_dnskey.signatures.empty());
  ASSERT_TRUE(world->infra.tlds.count("com.") > 0);
  const auto& com = world->infra.tlds.at("com.");
  EXPECT_FALSE(com.ds.rrset.rdatas.empty());
  EXPECT_FALSE(com.dnskey.rrset.rdatas.empty());
}

TEST(Pipeline, SecuredZoneHasDsAndSignedDnskey) {
  auto world = scan_world({plain_operator()});
  const auto* obs = find_zone(*world, "opplain-0.com.");  // index 0: secured
  ASSERT_NE(obs, nullptr);
  EXPECT_FALSE(obs->parent_ds.rrset.rdatas.empty());
  EXPECT_FALSE(obs->parent_ds.signatures.empty());
  for (const auto* probe : obs->probes_of(dns::RRType::kDNSKEY)) {
    EXPECT_EQ(probe->outcome, RRsetProbe::Outcome::kAnswer);
    EXPECT_FALSE(probe->rrset.signatures.empty());
  }
}

TEST(Pipeline, UnsignedZoneHasNeither) {
  auto world = scan_world({plain_operator()});
  // Highest indices are unsigned (5 secured + 2 invalid + 4 islands = 11).
  const auto* obs = find_zone(*world, "opplain-19.com.");
  ASSERT_NE(obs, nullptr);
  EXPECT_TRUE(obs->parent_ds.rrset.rdatas.empty());
  for (const auto* probe : obs->probes_of(dns::RRType::kDNSKEY)) {
    EXPECT_EQ(probe->outcome, RRsetProbe::Outcome::kNoData);
  }
}

TEST(Pipeline, IslandZoneSignedWithoutDs) {
  auto world = scan_world({plain_operator()});
  const auto* obs = find_zone(*world, "opplain-7.com.");  // island range: 7..10
  ASSERT_NE(obs, nullptr);
  EXPECT_TRUE(obs->parent_ds.rrset.rdatas.empty());
  for (const auto* probe : obs->probes_of(dns::RRType::kDNSKEY)) {
    EXPECT_EQ(probe->outcome, RRsetProbe::Outcome::kAnswer);
  }
}

TEST(Pipeline, CdsProbesMatchTruth) {
  auto world = scan_world({plain_operator()});
  for (const auto& obs : world->observations) {
    const auto& truth = world->eco.truth.at(obs.zone.canonical_text());
    if (truth.operator_name != "OpPlain") continue;
    bool any_cds = false;
    for (const auto* probe : obs.probes_of(dns::RRType::kCDS)) {
      if (probe->outcome == RRsetProbe::Outcome::kAnswer) any_cds = true;
    }
    EXPECT_EQ(any_cds, truth.cds) << obs.zone.to_text();
  }
}

TEST(Pipeline, LegacyServersFormerrOnCds) {
  auto world = scan_world({legacy_operator()});
  for (const auto& obs : world->observations) {
    for (const auto* probe : obs.probes_of(dns::RRType::kCDS)) {
      EXPECT_EQ(probe->outcome, RRsetProbe::Outcome::kError);
      EXPECT_EQ(probe->rcode, dns::Rcode::kFormErr);
    }
    // But SOA still answers: these are old, not dead, servers.
    for (const auto* probe : obs.probes_of(dns::RRType::kSOA)) {
      EXPECT_EQ(probe->outcome, RRsetProbe::Outcome::kAnswer);
    }
  }
}

TEST(Pipeline, SignalObservationsForSignalZones) {
  auto world = scan_world({plain_operator()});
  for (const auto& obs : world->observations) {
    const auto& truth = world->eco.truth.at(obs.zone.canonical_text());
    ASSERT_EQ(obs.signals.size(), 2u) << obs.zone.to_text();
    bool any_signal_cds = false;
    for (const auto& signal : obs.signals) {
      EXPECT_TRUE(signal.resolved) << signal.failure;
      for (const auto& probe : signal.cds_probes) {
        if (probe.outcome == RRsetProbe::Outcome::kAnswer) {
          any_signal_cds = true;
        }
      }
    }
    EXPECT_EQ(any_signal_cds, truth.signal) << obs.zone.to_text();
  }
}

TEST(Pipeline, SignalZoneChainMaterialCaptured) {
  auto world = scan_world({plain_operator()});
  const auto* obs = find_zone(*world, "opplain-0.com.");
  ASSERT_NE(obs, nullptr);
  for (const auto& signal : obs->signals) {
    EXPECT_FALSE(signal.parent_ds.rrset.rdatas.empty())
        << "operator zone must be secured for AB";
    ASSERT_FALSE(signal.dnskey_probes.empty());
    EXPECT_EQ(signal.dnskey_probes[0].outcome, RRsetProbe::Outcome::kAnswer);
  }
}

TEST(Pipeline, SurvivesPacketLoss) {
  // 20 % loss: retries must recover everything eventually.
  auto world = scan_world({plain_operator()}, false, 0.2);
  EXPECT_EQ(world->observations.size(), world->eco.scan_targets.size());
  std::size_t resolved = 0;
  for (const auto& obs : world->observations) {
    if (obs.resolved) ++resolved;
  }
  // With 3 attempts per query, the vast majority must resolve.
  EXPECT_GE(resolved, world->observations.size() - 2);
}

TEST(Pipeline, DeterministicAcrossRuns) {
  auto a = scan_world({plain_operator()});
  auto b = scan_world({plain_operator()});
  ASSERT_EQ(a->observations.size(), b->observations.size());
  // Compare a digest of outcomes.
  auto digest = [](const World& world) {
    std::string out;
    for (const auto& obs : world.observations) {
      out += obs.zone.to_text();
      for (const auto& probe : obs.probes) {
        out += scanner::to_string(probe.outcome)[0];
      }
    }
    return out;
  };
  EXPECT_EQ(digest(*a), digest(*b));
}

}  // namespace
}  // namespace dnsboot
