// dnsboot_lint tests: per-rule golden fixtures for the single-zone rules,
// manual ecosystem views for the cross-zone rules, and the three-witness
// cross-check — every misconfiguration class the ecosystem generator injects
// must be caught by the linter, and a misconfiguration-free world must lint
// completely clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "base/rng.hpp"
#include "dns/zonefile.hpp"
#include "dnssec/signer.hpp"
#include "ecosystem/plan.hpp"
#include "lint/crosscheck.hpp"
#include "lint/ecosystem_lint.hpp"
#include "lint/report.hpp"
#include "lint/zone_lint.hpp"
#include "net/simnet.hpp"

namespace dnsboot::lint {
namespace {

using dns::Name;
using dns::RRType;

Name name_of(const std::string& text) {
  return std::move(Name::from_text(text)).take();
}

// Matches EcosystemConfig's default validation time so builder-made worlds
// and hand-made zones lint under the same clock.
constexpr std::uint32_t kNow = 1'750'000'000;

dnssec::SigningPolicy test_policy(bool expired = false) {
  dnssec::SigningPolicy policy;
  if (expired) {
    policy.inception = kNow - 60 * 86400;
    policy.expiration = kNow - 30 * 86400;
  } else {
    policy.inception = kNow - 3600;
    policy.expiration = kNow + 30 * 86400;
  }
  return policy;
}

dns::Zone make_unsigned_zone(const std::string& apex) {
  const std::string text =
      "@ IN SOA ns1 hostmaster 1 7200 3600 1209600 300\n"
      "@ IN NS ns1\n"
      "@ IN NS ns2\n"
      "ns1 IN A 192.0.2.1\n"
      "ns2 IN A 192.0.2.2\n"
      "www IN A 192.0.2.80\n";
  auto zone = dns::parse_zone(text, dns::ZoneFileOptions{name_of(apex), 3600});
  EXPECT_TRUE(zone.ok());
  return std::move(zone).take();
}

struct ZoneFixture {
  dns::Zone zone;
  dnssec::ZoneKeys keys;
};

// A correctly signed zone; `mutate` runs before signing so injected CDS and
// similar records receive valid signatures, like a real signer would emit.
template <typename Mutate>
ZoneFixture make_signed_zone(const std::string& apex, std::uint64_t seed,
                             Mutate mutate,
                             dnssec::SigningPolicy policy = test_policy()) {
  Rng rng(seed);
  ZoneFixture out{make_unsigned_zone(apex), dnssec::ZoneKeys::generate(rng)};
  mutate(out.zone, out.keys);
  EXPECT_TRUE(dnssec::sign_zone(out.zone, out.keys, policy).ok());
  return out;
}

ZoneFixture make_signed_zone(const std::string& apex, std::uint64_t seed) {
  return make_signed_zone(apex, seed, [](dns::Zone&, dnssec::ZoneKeys&) {});
}

void add_child_sync(dns::Zone& zone, const crypto::KeyPair& ksk) {
  auto records = dnssec::make_child_sync_records(zone.origin(), ksk).take();
  for (const auto& cds : records.cds) {
    EXPECT_TRUE(zone.add({zone.origin(), RRType::kCDS, dns::RRClass::kIN, 300,
                          dns::Rdata{cds}})
                    .ok());
  }
  for (const auto& key : records.cdnskey) {
    EXPECT_TRUE(zone.add({zone.origin(), RRType::kCDNSKEY, dns::RRClass::kIN,
                          300, dns::Rdata{key}})
                    .ok());
  }
}

ZoneLintOptions options_with_parent_ds(const ZoneFixture& fixture) {
  ZoneLintOptions options;
  options.now = kNow;
  options.have_parent = true;
  options.parent_ds = {
      dnssec::make_ds(fixture.zone.origin(),
                      dnssec::make_dnskey(fixture.keys.ksk), 2)
          .take()};
  return options;
}

// The rule codes of a report's findings, in emission order.
std::vector<std::string> codes_of(const LintReport& report) {
  std::vector<std::string> out;
  for (const Finding& finding : report.findings()) {
    out.emplace_back(rule_info(finding.rule).code);
  }
  return out;
}

// --- rule registry ------------------------------------------------------------

TEST(RuleRegistry, CodesAreUniqueAndOrdered) {
  const auto& rules = all_rules();
  ASSERT_EQ(rules.size(), 21u);
  std::set<std::string_view> codes;
  std::set<std::string_view> names;
  for (const RuleInfo& rule : rules) {
    EXPECT_TRUE(codes.insert(rule.code).second) << rule.code;
    EXPECT_TRUE(names.insert(rule.name).second) << rule.name;
    EXPECT_FALSE(rule.rationale.empty()) << rule.code;
    EXPECT_EQ(&rule_info(rule.id), &rule);
  }
  EXPECT_TRUE(std::is_sorted(rules.begin(), rules.end(),
                             [](const RuleInfo& a, const RuleInfo& b) {
                               return a.code < b.code;
                             }));
}

// --- single-zone rules, clean fixtures ---------------------------------------

TEST(ZoneLint, CleanSignedZoneWithCdsHasNoFindings) {
  auto fixture = make_signed_zone(
      "clean.example.", 1, [](dns::Zone& zone, dnssec::ZoneKeys& keys) {
        add_child_sync(zone, keys.ksk);
      });
  auto report = lint_zone(fixture.zone, options_with_parent_ds(fixture));
  EXPECT_TRUE(report.empty()) << report_to_text(report);
  EXPECT_EQ(report.zones_checked(), 1u);
}

TEST(ZoneLint, DeleteSentinelPairIsClean) {
  // RFC 8078 §4 withdrawal: sentinel-only CDS+CDNSKEY in a signed zone is a
  // coherent (if drastic) request, not a lint error.
  auto fixture = make_signed_zone(
      "bye.example.", 2, [](dns::Zone& zone, dnssec::ZoneKeys&) {
        EXPECT_TRUE(zone.add({zone.origin(), RRType::kCDS, dns::RRClass::kIN,
                              300, dns::Rdata{dnssec::cds_delete_sentinel()}})
                        .ok());
        EXPECT_TRUE(zone.add({zone.origin(), RRType::kCDNSKEY,
                              dns::RRClass::kIN, 300,
                              dns::Rdata{dnssec::cdnskey_delete_sentinel()}})
                        .ok());
      });
  auto report = lint_zone(fixture.zone, options_with_parent_ds(fixture));
  EXPECT_TRUE(report.empty()) << report_to_text(report);
}

TEST(ZoneLint, SignedIslandWithoutParentDsIsClean) {
  auto fixture = make_signed_zone(
      "island.example.", 3, [](dns::Zone& zone, dnssec::ZoneKeys& keys) {
        add_child_sync(zone, keys.ksk);
      });
  ZoneLintOptions options;
  options.now = kNow;
  options.have_parent = true;  // parent exists but delegates without DS
  auto report = lint_zone(fixture.zone, options);
  EXPECT_TRUE(report.empty()) << report_to_text(report);
}

// --- single-zone rules, one golden fixture per rule --------------------------

TEST(ZoneLint, L001CdsInUnsignedZone) {
  dns::Zone zone = make_unsigned_zone("broken.example.");
  Rng rng(4);
  auto stray = dnssec::ZoneKeys::generate(rng);
  add_child_sync(zone, stray.ksk);
  ZoneLintOptions options;
  options.now = kNow;
  auto report = lint_zone(zone, options);
  EXPECT_EQ(codes_of(report), std::vector<std::string>{"L001"});
  EXPECT_EQ(report.findings().front().detail,
            "CDS/CDNSKEY published but the zone has no DNSKEY RRset");
}

TEST(ZoneLint, L002CdsMatchesNoDnskey) {
  auto fixture = make_signed_zone(
      "mismatch.example.", 5, [](dns::Zone& zone, dnssec::ZoneKeys&) {
        Rng rng(50);
        auto stray = dnssec::ZoneKeys::generate(rng);
        add_child_sync(zone, stray.ksk);  // internally coherent, wrong key
      });
  auto report = lint_zone(fixture.zone, options_with_parent_ds(fixture));
  EXPECT_EQ(codes_of(report), std::vector<std::string>{"L002"});
  EXPECT_EQ(report.findings().front().detail,
            "no CDS record matches any apex DNSKEY");
}

TEST(ZoneLint, L003CdsCdnskeyDisagree) {
  auto fixture = make_signed_zone(
      "pair.example.", 6, [](dns::Zone& zone, dnssec::ZoneKeys& keys) {
        // CDS commits to the real KSK but CDNSKEY publishes a different key.
        auto records =
            dnssec::make_child_sync_records(zone.origin(), keys.ksk).take();
        for (const auto& cds : records.cds) {
          EXPECT_TRUE(zone.add({zone.origin(), RRType::kCDS, dns::RRClass::kIN,
                                300, dns::Rdata{cds}})
                          .ok());
        }
        Rng rng(60);
        auto stray = dnssec::ZoneKeys::generate(rng);
        EXPECT_TRUE(zone.add({zone.origin(), RRType::kCDNSKEY,
                              dns::RRClass::kIN, 300,
                              dns::Rdata{dnssec::make_dnskey(stray.ksk)}})
                        .ok());
      });
  auto report = lint_zone(fixture.zone, options_with_parent_ds(fixture));
  EXPECT_EQ(codes_of(report), std::vector<std::string>{"L003"});
}

TEST(ZoneLint, L003SentinelMixedWithRegularCds) {
  auto fixture = make_signed_zone(
      "mixed.example.", 7, [](dns::Zone& zone, dnssec::ZoneKeys& keys) {
        auto records =
            dnssec::make_child_sync_records(zone.origin(), keys.ksk).take();
        EXPECT_TRUE(zone.add({zone.origin(), RRType::kCDS, dns::RRClass::kIN,
                              300, dns::Rdata{records.cds.front()}})
                        .ok());
        EXPECT_TRUE(zone.add({zone.origin(), RRType::kCDS, dns::RRClass::kIN,
                              300, dns::Rdata{dnssec::cds_delete_sentinel()}})
                        .ok());
      });
  auto report = lint_zone(fixture.zone, options_with_parent_ds(fixture));
  EXPECT_EQ(codes_of(report), std::vector<std::string>{"L003"});
  EXPECT_EQ(report.findings().front().detail,
            "CDS delete sentinel mixed with regular CDS records");
}

TEST(ZoneLint, L004ExpiredSignatures) {
  auto fixture = make_signed_zone(
      "expired.example.", 8, [](dns::Zone&, dnssec::ZoneKeys&) {},
      test_policy(/*expired=*/true));
  auto report = lint_zone(fixture.zone, options_with_parent_ds(fixture));
  EXPECT_FALSE(report.empty());
  for (const std::string& code : codes_of(report)) {
    EXPECT_EQ(code, "L004");
  }
  EXPECT_EQ(report.zones_with(RuleId::kRrsigTemporal),
            std::set<std::string>{"expired.example."});
}

TEST(ZoneLint, L005ForeignSignerName) {
  auto fixture = make_signed_zone("signer.example.", 9);
  const dns::RRset soa = *fixture.zone.soa();
  fixture.zone.remove_signatures(fixture.zone.origin(), RRType::kSOA);
  EXPECT_TRUE(fixture.zone
                  .add(dnssec::sign_rrset(soa, fixture.keys.zsk,
                                          name_of("evil.example."),
                                          test_policy()))
                  .ok());
  auto report = lint_zone(fixture.zone, options_with_parent_ds(fixture));
  EXPECT_EQ(codes_of(report), std::vector<std::string>{"L005"});
  EXPECT_EQ(report.findings().front().detail,
            "RRSIG over SOA names signer evil.example.");
}

TEST(ZoneLint, L006CorruptedSignature) {
  auto fixture = make_signed_zone("corrupt.example.", 10);
  const Name www = name_of("www.corrupt.example.");
  auto sigs = fixture.zone.signatures_covering(www, RRType::kA);
  ASSERT_FALSE(sigs.empty());
  fixture.zone.remove_signatures(www, RRType::kA);
  auto& rrsig = std::get<dns::RrsigRdata>(sigs.front().rdata);
  rrsig.signature[7] ^= 0x20;  // the builder's cds_bad_rrsig corruption
  EXPECT_TRUE(fixture.zone.add(sigs.front()).ok());
  auto report = lint_zone(fixture.zone, options_with_parent_ds(fixture));
  EXPECT_EQ(codes_of(report), std::vector<std::string>{"L006"});
}

TEST(ZoneLint, L007ExcessiveNsec3Iterations) {
  dnssec::SigningPolicy policy = test_policy();
  policy.denial = dnssec::DenialMode::kNsec3;
  policy.nsec3_iterations = 150;
  auto fixture = make_signed_zone(
      "slow.example.", 11, [](dns::Zone&, dnssec::ZoneKeys&) {}, policy);
  auto report = lint_zone(fixture.zone, options_with_parent_ds(fixture));
  EXPECT_FALSE(report.empty());
  for (const std::string& code : codes_of(report)) {
    EXPECT_EQ(code, "L007");
  }
  // NSEC3PARAM plus at least one NSEC3 record carry the iteration count.
  EXPECT_GE(report.size(), 2u);

  // The bound is configurable: at 200 the same zone is fine.
  ZoneLintOptions relaxed = options_with_parent_ds(fixture);
  relaxed.nsec3_iteration_limit = 200;
  EXPECT_TRUE(lint_zone(fixture.zone, relaxed).empty());
}

TEST(ZoneLint, L008OrphanDs) {
  auto fixture = make_signed_zone("orphan.example.", 12);
  Rng rng(120);
  auto stray = dnssec::ZoneKeys::generate(rng);
  ZoneLintOptions options;
  options.now = kNow;
  options.have_parent = true;
  options.parent_ds = {dnssec::make_ds(fixture.zone.origin(),
                                       dnssec::make_dnskey(stray.ksk), 2)
                           .take()};
  auto report = lint_zone(fixture.zone, options);
  EXPECT_EQ(codes_of(report), std::vector<std::string>{"L008"});
  EXPECT_EQ(report.findings().front().detail,
            "no parent DS matches any apex DNSKEY (orphan DS)");
}

TEST(ZoneLint, L009DsOverUnsignedChild) {
  dns::Zone zone = make_unsigned_zone("errant.example.");
  Rng rng(13);
  auto stray = dnssec::ZoneKeys::generate(rng);
  ZoneLintOptions options;
  options.now = kNow;
  options.have_parent = true;
  options.parent_ds = {
      dnssec::make_ds(zone.origin(), dnssec::make_dnskey(stray.ksk), 2)
          .take()};
  auto report = lint_zone(zone, options);
  EXPECT_EQ(codes_of(report), std::vector<std::string>{"L009"});
  EXPECT_EQ(report.findings().front().detail,
            "parent publishes 1 DS record(s) but the zone serves no DNSKEY");
}

TEST(ZoneLint, L010CdsAwayFromApex) {
  auto fixture = make_signed_zone("stray.example.", 14);
  Rng rng(140);
  auto stray = dnssec::ZoneKeys::generate(rng);
  auto records =
      dnssec::make_child_sync_records(name_of("sub.stray.example."), stray.ksk)
          .take();
  EXPECT_TRUE(fixture.zone
                  .add({name_of("sub.stray.example."), RRType::kCDS,
                        dns::RRClass::kIN, 300, dns::Rdata{records.cds[0]}})
                  .ok());
  // A signaling tree inside the zone is the RFC 9615 exception — no finding.
  EXPECT_TRUE(
      fixture.zone
          .add({name_of("_dsboot.cust.example._signal.ns1.stray.example."),
                RRType::kCDS, dns::RRClass::kIN, 300,
                dns::Rdata{records.cds[0]}})
          .ok());
  auto report = lint_zone(fixture.zone, options_with_parent_ds(fixture));
  EXPECT_EQ(codes_of(report), std::vector<std::string>{"L010"});
  EXPECT_EQ(report.findings().front().owner, name_of("sub.stray.example."));
}

// --- reporters ----------------------------------------------------------------

TEST(Report, TextAndJsonGolden) {
  LintReport report;
  report.note_zone_checked();
  report.note_zone_checked();
  report.add(RuleId::kCdsUnsignedZone, name_of("a.example."),
             name_of("a.example."), "no DNSKEY RRset");
  report.add(RuleId::kSignalIncomplete, name_of("b.example."),
             name_of("_dsboot.b.example._signal.ns2.op.example."),
             "no signaling records under NS ns2.op.example.", "op-server");

  EXPECT_EQ(report_to_text(report),
            "error L001 cds-unsigned-zone zone a.example.: no DNSKEY RRset\n"
            "error L102 signal-incomplete zone b.example. at "
            "_dsboot.b.example._signal.ns2.op.example. [op-server]: "
            "no signaling records under NS ns2.op.example.\n"
            "checked 2 zone(s), 2 finding(s) "
            "(L001 cds-unsigned-zone: 1, L102 signal-incomplete: 1)\n");

  EXPECT_EQ(
      report_to_json(report),
      "{\"zones_checked\":2,\"findings\":["
      "{\"rule\":\"L001\",\"name\":\"cds-unsigned-zone\","
      "\"severity\":\"error\",\"zone\":\"a.example.\","
      "\"owner\":\"a.example.\",\"detail\":\"no DNSKEY RRset\"},"
      "{\"rule\":\"L102\",\"name\":\"signal-incomplete\","
      "\"severity\":\"error\",\"zone\":\"b.example.\","
      "\"owner\":\"_dsboot.b.example._signal.ns2.op.example.\","
      "\"server\":\"op-server\",\"detail\":"
      "\"no signaling records under NS ns2.op.example.\"}],"
      "\"summary\":{\"L001\":1,\"L102\":1}}");
}

// --- ecosystem view -----------------------------------------------------------

TEST(EcosystemView, DeduplicatesZoneVersionsByIdentity) {
  EcosystemView view;
  auto zone_a = std::make_shared<dns::Zone>(name_of("dup.example."));
  auto zone_b = std::make_shared<dns::Zone>(name_of("dup.example."));
  view.add(zone_a, "ns1");
  view.add(zone_a, "ns2");
  view.add(zone_b, "ns3");
  ASSERT_EQ(view.zones.at("dup.example.").size(), 2u);
  EXPECT_EQ(view.zones.at("dup.example.")[0].servers,
            (std::vector<std::string>{"ns1", "ns2"}));
  EXPECT_EQ(view.zones.at("dup.example.")[1].servers,
            (std::vector<std::string>{"ns3"}));

  EXPECT_EQ(view.find_zone(name_of("deep.below.dup.example.")), zone_a.get());
  EXPECT_EQ(view.find_zone(name_of("other.example.")), nullptr);
}

// --- cross-zone rules on a hand-built view ------------------------------------

TEST(EcosystemLint, L100DelegationDriftAndL101CrossServerCds) {
  EcosystemView view;
  view.now = kNow;

  // Parent: delegates child.se. to ns1 only.
  auto parent = std::make_shared<dns::Zone>(name_of("se."));
  (void)parent->add({name_of("se."), RRType::kSOA, dns::RRClass::kIN, 3600,
                     dns::Rdata{dns::SoaRdata{name_of("ns.se."),
                                              name_of("host.se."), 1, 7200,
                                              3600, 1209600, 300}}});
  (void)parent->add({name_of("child.se."), RRType::kNS, dns::RRClass::kIN,
                     86400, dns::Rdata{dns::NsRdata{name_of("ns1.op.net.")}}});
  view.add(parent, "se-registry");

  // Child: apex NS lists ns1 AND ns2 (drift), and the two servers publish
  // divergent CDS sets (one has CDS, the other none).
  auto with_cds = make_signed_zone(
      "child.se.", 20, [](dns::Zone& zone, dnssec::ZoneKeys& keys) {
        add_child_sync(zone, keys.ksk);
      });
  auto without_cds = make_signed_zone("child.se.", 21);
  auto make_child_ns = [&](dns::Zone& zone) {
    zone.remove_rrset(zone.origin(), RRType::kNS);
    (void)zone.add({zone.origin(), RRType::kNS, dns::RRClass::kIN, 3600,
                    dns::Rdata{dns::NsRdata{name_of("ns1.op.net.")}}});
    (void)zone.add({zone.origin(), RRType::kNS, dns::RRClass::kIN, 3600,
                    dns::Rdata{dns::NsRdata{name_of("ns2.op.net.")}}});
  };
  make_child_ns(with_cds.zone);
  make_child_ns(without_cds.zone);
  view.add(std::make_shared<dns::Zone>(std::move(with_cds.zone)), "ns1");
  view.add(std::make_shared<dns::Zone>(std::move(without_cds.zone)), "ns2");

  auto report = lint_ecosystem(view);
  EXPECT_EQ(report.count(RuleId::kDelegationDrift), 1u);
  EXPECT_EQ(report.count(RuleId::kCdsCrossServer), 1u);
  EXPECT_EQ(report.zones_with(RuleId::kDelegationDrift),
            std::set<std::string>{"child.se."});
  // No other rule should fire: each version is validly signed standalone
  // (with different keys, which no rule forbids), and the replaced apex NS
  // RRset is simply unsigned, which the signature checks skip.
  for (const Finding& finding : report.findings()) {
    EXPECT_TRUE(finding.rule == RuleId::kDelegationDrift ||
                finding.rule == RuleId::kCdsCrossServer)
        << report_to_text(report);
  }
}

// --- builder worlds -----------------------------------------------------------

TEST(EcosystemLint, CsyncMigrationFlagsDelegationDrift) {
  net::SimNetwork network(61);
  ecosystem::OperatorProfile op;
  op.name = "SyncHost";
  op.ns_domains = {"synchost.net"};
  op.tld = "net";
  op.customer_tld = "se";
  op.domains = 6;
  op.secured = 3;
  op.islands = 1;
  op.cds_domains = 3;
  op.csync_migrations = 1;
  ecosystem::EcosystemConfig config;
  config.scale = 1.0;
  config.operators = {op};
  config.inject_pathologies = false;
  auto eco = ecosystem::build_shard(
      network, config, ecosystem::make_ecosystem_plan(config), 0, 1);

  auto view = collect_view(eco.servers, eco.now);
  auto report = lint_ecosystem(view);

  std::set<std::string> csync_zones;
  for (const auto& [zone, truth] : eco.truth) {
    if (truth.csync) csync_zones.insert(zone);
  }
  ASSERT_EQ(csync_zones.size(), 1u);
  EXPECT_EQ(report.zones_with(RuleId::kDelegationDrift), csync_zones);
  ASSERT_EQ(report.count(RuleId::kDelegationDrift), 1u);
  for (const Finding& finding : report.findings()) {
    if (finding.rule != RuleId::kDelegationDrift) continue;
    EXPECT_NE(finding.detail.find("CSYNC"), std::string::npos)
        << finding.detail;
  }
}

TEST(EcosystemLint, CleanWorldLintsCompletelyClean) {
  net::SimNetwork network(7);
  const ecosystem::EcosystemConfig config = clean_world_config();
  auto eco = ecosystem::build_shard(
      network, config, ecosystem::make_ecosystem_plan(config), 0, 1);
  ASSERT_GT(eco.truth.size(), 20u);

  auto view = collect_view(eco.servers, eco.now);
  auto report = lint_ecosystem(view);
  EXPECT_TRUE(report.empty()) << report_to_text(report);
  // Coverage sanity: every customer zone, operator zone, TLD and the root.
  EXPECT_GT(report.zones_checked(), eco.truth.size());
}

// The three-witness contract: everything the generator injects, the linter
// must find (the scanner side is covered by analysis_test against the same
// ground truth).
TEST(CrossCheck, PaperWorldEveryInjectedClassCaught) {
  net::SimNetwork network(99);
  ecosystem::EcosystemConfig config;
  config.seed = 5;
  config.scale = 1.0 / 100000;  // micro-scale: every pathology, floor 1
  auto eco = ecosystem::build_shard(
      network, config, ecosystem::make_ecosystem_plan(config), 0, 1);

  auto view = collect_view(eco.servers, eco.now);
  auto report = lint_ecosystem(view);
  auto check = cross_check(eco, report);

  std::size_t classes_injected = 0;
  for (const CrossCheckClass& cls : check.classes) {
    if (!cls.injected.empty()) ++classes_injected;
    std::string missed;
    for (const std::string& zone : cls.missed) missed += " " + zone;
    EXPECT_TRUE(cls.missed.empty())
        << cls.name << " missed" << missed << "\n"
        << "caught " << cls.caught() << "/" << cls.injected.size();
  }
  EXPECT_TRUE(check.all_caught());
  // The paper population exercises at least these classes even at 1/100000
  // (pathology counts scale with floor 1); csync is profile-driven and
  // covered by the fixture test above.
  EXPECT_GE(classes_injected, 8u);

  // Tight attribution for the classes where linter findings must equal the
  // injected set exactly (no false positives on healthy zones).
  std::set<std::string> unsigned_with_cds;
  std::set<std::string> zone_cut;
  for (const auto& [zone, truth] : eco.truth) {
    if (truth.cds && truth.state == ecosystem::ZoneState::kUnsigned) {
      unsigned_with_cds.insert(zone);
    }
    if (truth.signal_zone_cut) zone_cut.insert(zone);
  }
  EXPECT_EQ(report.zones_with(RuleId::kCdsUnsignedZone), unsigned_with_cds);
  EXPECT_EQ(report.zones_with(RuleId::kSignalZoneCut), zone_cut);
  EXPECT_FALSE(zone_cut.empty());
}

}  // namespace
}  // namespace dnsboot::lint
