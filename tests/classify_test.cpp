// Unit tests for analyze_zone on hand-built observations: each branch of the
// §4 decision tables, without a simulated network in the loop.
#include <gtest/gtest.h>

#include "analysis/zone_report.hpp"
#include "base/rng.hpp"
#include "dnssec/signer.hpp"

namespace dnsboot::analysis {
namespace {

using scanner::RRsetProbe;

dns::Name name_of(const std::string& text) {
  return std::move(dns::Name::from_text(text)).take();
}

// 10.0.0.<host>: the fake world's nameserver endpoints.
net::IpAddress endpoint_of(std::uint8_t host) {
  return net::IpAddress::v4({10, 0, 0, host});
}

constexpr std::uint32_t kNow = 5'000'000;

// A self-contained fake world: root + TLD + zone keys with a consistent
// chain, from which observations are assembled by hand.
struct FakeWorld {
  Rng rng{321};
  dnssec::ZoneKeys root_keys = dnssec::ZoneKeys::generate(rng);
  dnssec::ZoneKeys tld_keys = dnssec::ZoneKeys::generate(rng);
  dnssec::ZoneKeys zone_keys = dnssec::ZoneKeys::generate(rng);
  dns::Name tld = name_of("test.");
  dns::Name zone = name_of("victim.test.");
  dnssec::SigningPolicy policy;
  scanner::InfrastructureSnapshot infra;
  std::vector<dns::DsRdata> trust_anchor;

  FakeWorld() {
    policy.inception = kNow - 1000;
    policy.expiration = kNow + 1000000;

    // Root DNSKEY (self-signed) + trust anchor.
    infra.root_dnskey = signed_dnskey_rrset(dns::Name::root(), root_keys);
    trust_anchor = {dnssec::make_ds(dns::Name::root(),
                                    dnssec::make_dnskey(root_keys.ksk), 2)
                        .take()};
    // TLD DS signed by root; TLD DNSKEY self-signed.
    scanner::InfrastructureSnapshot::TldInfo info;
    info.ds = signed_ds_rrset(tld, tld_keys, dns::Name::root(), root_keys);
    info.dnskey = signed_dnskey_rrset(tld, tld_keys);
    infra.tlds.emplace(tld.canonical_text(), info);
  }

  dnssec::SignedRRset signed_dnskey_rrset(const dns::Name& owner,
                                          const dnssec::ZoneKeys& keys) {
    dnssec::SignedRRset out;
    out.rrset.name = owner;
    out.rrset.type = dns::RRType::kDNSKEY;
    out.rrset.ttl = 3600;
    out.rrset.rdatas = {dns::Rdata{dnssec::make_dnskey(keys.ksk)},
                        dns::Rdata{dnssec::make_dnskey(keys.zsk)}};
    auto sig = dnssec::sign_rrset(out.rrset, keys.ksk, owner, policy);
    out.signatures = {std::get<dns::RrsigRdata>(sig.rdata)};
    return out;
  }

  dnssec::SignedRRset signed_ds_rrset(const dns::Name& owner,
                                      const dnssec::ZoneKeys& owner_keys,
                                      const dns::Name& signer,
                                      const dnssec::ZoneKeys& signer_keys) {
    dnssec::SignedRRset out;
    out.rrset.name = owner;
    out.rrset.type = dns::RRType::kDS;
    out.rrset.ttl = 3600;
    out.rrset.rdatas = {dns::Rdata{
        dnssec::make_ds(owner, dnssec::make_dnskey(owner_keys.ksk), 2)
            .take()}};
    auto sig = dnssec::sign_rrset(out.rrset, signer_keys.zsk, signer, policy);
    out.signatures = {std::get<dns::RrsigRdata>(sig.rdata)};
    return out;
  }

  dnssec::SignedRRset signed_soa_rrset() {
    dnssec::SignedRRset out;
    out.rrset.name = zone;
    out.rrset.type = dns::RRType::kSOA;
    out.rrset.ttl = 3600;
    out.rrset.rdatas = {dns::Rdata{
        dns::SoaRdata{name_of("ns1.host.test."), zone, 1, 1, 1, 1, 1}}};
    auto sig = dnssec::sign_rrset(out.rrset, zone_keys.zsk, zone, policy);
    out.signatures = {std::get<dns::RrsigRdata>(sig.rdata)};
    return out;
  }

  dnssec::SignedRRset signed_cds_rrset(const dnssec::ZoneKeys& for_keys) {
    dnssec::SignedRRset out;
    out.rrset.name = zone;
    out.rrset.type = dns::RRType::kCDS;
    out.rrset.ttl = 300;
    auto sync = dnssec::make_child_sync_records(zone, for_keys.ksk).take();
    for (const auto& cds : sync.cds) out.rrset.rdatas.push_back(dns::Rdata{cds});
    auto sig = dnssec::sign_rrset(out.rrset, zone_keys.zsk, zone, policy);
    out.signatures = {std::get<dns::RrsigRdata>(sig.rdata)};
    return out;
  }

  RRsetProbe probe_of(const dnssec::SignedRRset& rrset,
                      net::IpAddress endpoint = endpoint_of(1)) {
    RRsetProbe probe;
    probe.ns = name_of("ns1.host.test.");
    probe.endpoint = endpoint;
    probe.qname = rrset.rrset.name;
    probe.qtype = rrset.rrset.type;
    probe.outcome = RRsetProbe::Outcome::kAnswer;
    probe.rrset = rrset;
    return probe;
  }

  RRsetProbe nodata_probe(dns::RRType type,
                          net::IpAddress endpoint = endpoint_of(1)) {
    RRsetProbe probe;
    probe.ns = name_of("ns1.host.test.");
    probe.endpoint = endpoint;
    probe.qname = zone;
    probe.qtype = type;
    probe.outcome = RRsetProbe::Outcome::kNoData;
    return probe;
  }

  // A fully-consistent island observation with valid CDS (the baseline most
  // tests mutate).
  scanner::ZoneObservation island_observation() {
    scanner::ZoneObservation obs;
    obs.zone = zone;
    obs.tld = tld;
    obs.resolved = true;
    obs.parent_ns = {name_of("ns1.host.test.")};
    obs.endpoints = {
        resolver::NsEndpoint{name_of("ns1.host.test."), endpoint_of(1)}};
    obs.probes.push_back(probe_of(signed_soa_rrset()));
    obs.probes.push_back(probe_of(signed_dnskey_rrset(zone, zone_keys)));
    obs.probes.push_back(probe_of(signed_cds_rrset(zone_keys)));
    obs.probes.push_back(nodata_probe(dns::RRType::kCDNSKEY));
    return obs;
  }

  ZoneReport analyze(const scanner::ZoneObservation& obs) {
    TrustContext trust(infra, trust_anchor, kNow);
    OperatorIdentifier operators;
    return analyze_zone(obs, trust, operators);
  }
};

TEST(Classify, TrustContextValidatesChain) {
  FakeWorld world;
  TrustContext trust(world.infra, world.trust_anchor, kNow);
  EXPECT_TRUE(trust.root_secure());
  EXPECT_TRUE(trust.tld_secure(world.tld));
  EXPECT_FALSE(trust.tld_secure(name_of("othertld.")));
}

TEST(Classify, TrustContextRejectsWrongAnchor) {
  FakeWorld world;
  Rng rng(77);
  auto rogue = dnssec::ZoneKeys::generate(rng);
  std::vector<dns::DsRdata> wrong_anchor = {
      dnssec::make_ds(dns::Name::root(), dnssec::make_dnskey(rogue.ksk), 2)
          .take()};
  TrustContext trust(world.infra, wrong_anchor, kNow);
  EXPECT_FALSE(trust.root_secure());
  EXPECT_FALSE(trust.tld_secure(world.tld));
}

TEST(Classify, BaselineIslandIsBootstrappable) {
  FakeWorld world;
  auto report = world.analyze(world.island_observation());
  EXPECT_EQ(report.dnssec, dnssec::ZoneDnssecStatus::kSecureIsland);
  EXPECT_TRUE(report.cds.present);
  EXPECT_TRUE(report.cds.consistent);
  EXPECT_TRUE(report.cds.matches_dnskey);
  EXPECT_TRUE(report.cds.rrsig_valid);
  EXPECT_EQ(report.eligibility, BootstrapEligibility::kBootstrappable);
}

TEST(Classify, SecuredWhenParentDsPresent) {
  FakeWorld world;
  auto obs = world.island_observation();
  obs.parent_ds = world.signed_ds_rrset(world.zone, world.zone_keys,
                                        world.tld, world.tld_keys);
  auto report = world.analyze(obs);
  EXPECT_TRUE(report.parent_ds_authentic);
  EXPECT_EQ(report.dnssec, dnssec::ZoneDnssecStatus::kSecure);
  EXPECT_EQ(report.eligibility, BootstrapEligibility::kAlreadySecured);
}

TEST(Classify, ForgedParentDsSignatureIsNotAuthentic) {
  FakeWorld world;
  auto obs = world.island_observation();
  obs.parent_ds = world.signed_ds_rrset(world.zone, world.zone_keys,
                                        world.tld, world.tld_keys);
  obs.parent_ds.signatures[0].signature[5] ^= 1;
  auto report = world.analyze(obs);
  EXPECT_FALSE(report.parent_ds_authentic);
  // Without an authentic DS the zone cannot be Secure; it stays an island.
  EXPECT_EQ(report.dnssec, dnssec::ZoneDnssecStatus::kSecureIsland);
}

TEST(Classify, CdsForForeignKeyIsMismatch) {
  FakeWorld world;
  auto obs = world.island_observation();
  Rng rng(9);
  auto foreign = dnssec::ZoneKeys::generate(rng);
  obs.probes[2] = world.probe_of(world.signed_cds_rrset(foreign));
  auto report = world.analyze(obs);
  EXPECT_FALSE(report.cds.matches_dnskey);
  EXPECT_EQ(report.eligibility, BootstrapEligibility::kIslandCdsMismatch);
}

TEST(Classify, DivergentCdsAcrossEndpointsIsInconsistent) {
  FakeWorld world;
  auto obs = world.island_observation();
  Rng rng(10);
  auto stale = dnssec::ZoneKeys::generate(rng);
  obs.probes.push_back(
      world.probe_of(world.signed_cds_rrset(stale), endpoint_of(2)));
  auto report = world.analyze(obs);
  EXPECT_FALSE(report.cds.consistent);
}

TEST(Classify, CdsQueryErrorsAreCounted) {
  FakeWorld world;
  auto obs = world.island_observation();
  RRsetProbe error_probe =
      world.nodata_probe(dns::RRType::kCDS, endpoint_of(2));
  error_probe.outcome = RRsetProbe::Outcome::kError;
  error_probe.rcode = dns::Rcode::kFormErr;
  obs.probes.push_back(error_probe);
  auto report = world.analyze(obs);
  EXPECT_TRUE(report.cds.query_failed);
  // Data from the healthy endpoint still classifies the zone.
  EXPECT_EQ(report.eligibility, BootstrapEligibility::kBootstrappable);
}

TEST(Classify, UnsignedZoneWithCdsStaysUnsignedBranch) {
  FakeWorld world;
  scanner::ZoneObservation obs;
  obs.zone = world.zone;
  obs.tld = world.tld;
  obs.resolved = true;
  obs.endpoints = {
      resolver::NsEndpoint{name_of("ns1.host.test."), endpoint_of(1)}};
  // CDS present but no DNSKEY / no signatures anywhere (Canal Dominios).
  dnssec::SignedRRset cds;
  cds.rrset.name = world.zone;
  cds.rrset.type = dns::RRType::kCDS;
  cds.rrset.rdatas = {dns::Rdata{dns::DsRdata{1, 15, 2, Bytes(32, 1)}}};
  obs.probes.push_back(world.probe_of(cds));
  obs.probes.push_back(world.nodata_probe(dns::RRType::kDNSKEY));
  auto report = world.analyze(obs);
  EXPECT_EQ(report.dnssec, dnssec::ZoneDnssecStatus::kUnsigned);
  EXPECT_TRUE(report.cds.present);
  EXPECT_EQ(report.eligibility, BootstrapEligibility::kUnsignedZone);
}

TEST(Classify, UnresolvedZoneShortCircuits) {
  FakeWorld world;
  scanner::ZoneObservation obs;
  obs.zone = world.zone;
  obs.tld = world.tld;
  obs.resolved = false;
  auto report = world.analyze(obs);
  EXPECT_FALSE(report.resolved);
  EXPECT_EQ(report.eligibility, BootstrapEligibility::kUnresolved);
  EXPECT_EQ(report.operator_name, kUnknownOperator);
}

TEST(Classify, SignalCorrectEndToEnd) {
  FakeWorld world;
  auto obs = world.island_observation();
  // Signaling zone = host.test., secured under the TLD; signal CDS matches
  // the in-zone CDS.
  Rng rng(30);
  auto host_keys = dnssec::ZoneKeys::generate(rng);
  scanner::SignalObservation signal;
  signal.ns = name_of("ns1.host.test.");
  signal.signaling_zone = name_of("host.test.");
  signal.signal_name =
      name_of("_dsboot.victim.test._signal.ns1.host.test.");
  signal.resolved = true;
  signal.parent = world.tld;
  signal.parent_ds = world.signed_ds_rrset(name_of("host.test."), host_keys,
                                           world.tld, world.tld_keys);
  auto host_dnskey = world.signed_dnskey_rrset(name_of("host.test."),
                                               host_keys);
  RRsetProbe dnskey_probe;
  dnskey_probe.qname = name_of("host.test.");
  dnskey_probe.qtype = dns::RRType::kDNSKEY;
  dnskey_probe.outcome = RRsetProbe::Outcome::kAnswer;
  dnskey_probe.rrset = host_dnskey;
  signal.dnskey_probes = {dnskey_probe};

  dnssec::SignedRRset signal_cds;
  signal_cds.rrset.name = signal.signal_name;
  signal_cds.rrset.type = dns::RRType::kCDS;
  auto sync =
      dnssec::make_child_sync_records(world.zone, world.zone_keys.ksk).take();
  for (const auto& cds : sync.cds) {
    signal_cds.rrset.rdatas.push_back(dns::Rdata{cds});
  }
  auto sig = dnssec::sign_rrset(signal_cds.rrset, host_keys.zsk,
                                name_of("host.test."), world.policy);
  signal_cds.signatures = {std::get<dns::RrsigRdata>(sig.rdata)};
  RRsetProbe cds_probe;
  cds_probe.qname = signal.signal_name;
  cds_probe.qtype = dns::RRType::kCDS;
  cds_probe.outcome = RRsetProbe::Outcome::kAnswer;
  cds_probe.rrset = signal_cds;
  signal.cds_probes = {cds_probe};

  obs.signals = {signal};
  auto report = world.analyze(obs);
  EXPECT_TRUE(report.signal_present);
  EXPECT_EQ(report.ab, AbStatus::kSignalCorrect) << to_string(report.ab);

  // Mutations flip it to incorrect:
  {
    auto broken = obs;
    broken.signals[0].apparent_cuts = {name_of("x.host.test.")};
    auto r = world.analyze(broken);
    EXPECT_EQ(r.ab, AbStatus::kSignalIncorrect);
    EXPECT_TRUE(r.signal_violations.zone_cut);
  }
  {
    auto broken = obs;
    broken.signals[0].cds_probes[0].rrset.signatures[0].signature[3] ^= 1;
    auto r = world.analyze(broken);
    EXPECT_EQ(r.ab, AbStatus::kSignalIncorrect);
    EXPECT_TRUE(r.signal_violations.chain_invalid);
  }
  {
    // Second NS with an empty signaling tree.
    auto broken = obs;
    scanner::SignalObservation missing;
    missing.ns = name_of("ns2.host.test.");
    missing.signaling_zone = name_of("host.test.");
    missing.resolved = true;
    broken.signals.push_back(missing);
    auto r = world.analyze(broken);
    EXPECT_EQ(r.ab, AbStatus::kSignalIncorrect);
    EXPECT_TRUE(r.signal_violations.not_under_every_ns);
  }
}

}  // namespace
}  // namespace dnsboot::analysis
