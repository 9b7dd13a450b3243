// Adversarial acceptance tests (DESIGN.md §13): a world under active on-
// and off-path attack must (a) never accept a forged response into a zone
// observation, (b) produce an adoption report byte-identical to the clean
// run at the same seed, and (c) leave a full attack/defense ledger in the
// metrics. Plus the CLI contract: every chaos preset name parses, unknown
// names are a usage error.
#include <gtest/gtest.h>

#include "analysis/report_io.hpp"
#include "analysis/survey.hpp"
#include "cli.hpp"
#include "dns/zonefile.hpp"
#include "ecosystem/builder.hpp"
#include "ecosystem/chaos.hpp"
#include "net/simnet.hpp"
#include "resolver/query_engine.hpp"
#include "server/auth_server.hpp"

namespace dnsboot {
namespace {

using ecosystem::ChaosOptions;
using ecosystem::ChaosPlan;
using ecosystem::EcosystemBuilder;
using ecosystem::EcosystemConfig;
using ecosystem::OperatorProfile;

dns::Name name_of(const std::string& text) {
  return std::move(dns::Name::from_text(text)).take();
}

OperatorProfile adversarial_operator() {
  OperatorProfile p;
  p.name = "OpTarget";
  p.ns_domains = {"optarget.net"};
  p.tld = "net";
  p.customer_tld = "com";
  p.domains = 20;
  p.secured = 5;
  p.islands = 3;
  p.cds_domains = 8;
  p.publishes_signal = true;
  return p;
}

struct AdversarialWorld {
  std::unique_ptr<net::SimNetwork> network;
  ecosystem::Ecosystem eco;
  ChaosPlan plan;
  analysis::SurveyRunResult result;
};

// Build the world, optionally apply a chaos schedule, run the full survey.
// Engine options are identical whether or not chaos applies — the report
// identity claim only means anything when both runs draw the same policy.
AdversarialWorld run_survey_world(const ChaosOptions* chaos) {
  AdversarialWorld world;
  world.network = std::make_unique<net::SimNetwork>(42);
  world.network->set_default_link(
      net::LinkModel{2 * net::kMillisecond, net::kMillisecond, 0.0});
  EcosystemConfig config;
  config.scale = 1.0;
  config.operators = {adversarial_operator()};
  config.inject_pathologies = false;
  EcosystemBuilder builder(*world.network, config);
  world.eco = builder.build();
  if (chaos != nullptr) {
    world.plan = ecosystem::apply_chaos(*world.network, world.eco, *chaos);
  }
  analysis::SurveyRunOptions options;
  options.keep_reports = true;
  // Fast (simulated time is cheap) but below the adversarial preset's
  // 500 qps per-client defense bucket, like the paper's 50 qps pacing.
  options.engine.per_server_qps = 200;
  world.result = analysis::run_survey(*world.network, world.eco.hints,
                                      world.eco.scan_targets,
                                      world.eco.ns_domain_to_operator,
                                      world.eco.now, options);
  return world;
}

std::string strip_last_column(const std::string& csv) {
  std::string out;
  std::size_t start = 0;
  while (start < csv.size()) {
    std::size_t end = csv.find('\n', start);
    if (end == std::string::npos) end = csv.size();
    std::string line = csv.substr(start, end - start);
    std::size_t comma = line.rfind(',');
    if (comma != std::string::npos) line.resize(comma);
    out += line;
    out += '\n';
    start = end + 1;
  }
  return out;
}

// Drop the trailing columns down to (and including) `under_attack`: the scan
// provenance is expected to differ between a clean and an attacked run, and
// the `key_state` lifecycle column rides after it.
std::string strip_provenance_columns(const std::string& csv) {
  return strip_last_column(strip_last_column(csv));
}

// --- CLI preset contract ---------------------------------------------------

TEST(Adversarial, EveryPresetNameParsesAndUnknownIsUsageError) {
  const std::vector<std::string>& names = ecosystem::chaos_preset_names();
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names[0], "off");
  EXPECT_EQ(names[1], "mild");
  EXPECT_EQ(names[2], "hostile");
  EXPECT_EQ(names[3], "adversarial");

  // Every registered name round-trips through the tools' --chaos flag.
  for (const std::string& name : names) {
    std::string chaos = "off";
    cli::FlagParser parser("test");
    parser.choice("--chaos", &chaos, names, "preset");
    std::string arg = name;
    char prog[] = "dnsboot-survey";
    char flag[] = "--chaos";
    char* argv[] = {prog, flag, arg.data()};
    EXPECT_TRUE(parser.parse(3, argv)) << name;
    EXPECT_EQ(chaos, name);
  }

  // An unknown preset is a parse failure (the tools exit 2 on that), and
  // must not silently fall back to "off".
  {
    std::string chaos = "off";
    cli::FlagParser parser("test");
    parser.choice("--chaos", &chaos, names, "preset");
    char prog[] = "dnsboot-survey";
    char flag[] = "--chaos";
    char bogus[] = "catastrophic";
    char* argv[] = {prog, flag, bogus};
    EXPECT_FALSE(parser.parse(3, argv));
  }

  // Preset shapes: only the adversarial tier stations attackers, and it
  // keeps the links clean (the identity claim depends on it).
  EXPECT_FALSE(ecosystem::chaos_preset("off").attack.any());
  EXPECT_FALSE(ecosystem::chaos_preset("mild").attack.any());
  EXPECT_GT(ecosystem::chaos_preset("mild").loss_rate, 0.0);
  EXPECT_FALSE(ecosystem::chaos_preset("hostile").attack.any());
  ChaosOptions adv = ecosystem::chaos_preset("adversarial");
  EXPECT_TRUE(adv.attack.any());
  EXPECT_GT(adv.attack_fraction, 0.0);
  EXPECT_GT(adv.defense_per_client_qps, 0.0);
  EXPECT_EQ(adv.loss_rate, 0.0);
  EXPECT_EQ(adv.blackhole_fraction, 0.0);
}

// --- Headline: attacked survey, clean report -------------------------------

TEST(Adversarial, SurveyUnderAttackAcceptsZeroForgeries) {
  ChaosOptions chaos = ecosystem::chaos_preset("adversarial");
  chaos.seed = 0xbadcafe;
  auto world = run_survey_world(&chaos);

  // The attack actually happened: endpoints were attacked, servers were
  // hardened, and crafted traffic raced the scan.
  EXPECT_GT(world.plan.endpoints_attacked, 0u);
  EXPECT_GT(world.plan.servers_hardened, 0u);
  const net::AttackStats& attack = world.network->attack_stats();
  EXPECT_GT(attack.queries_observed, 0u);
  EXPECT_GT(attack.spoofs_injected, 0u);
  EXPECT_GT(attack.floods_injected, 0u);
  EXPECT_GT(attack.wrong_tuple_injected, 0u);
  EXPECT_GT(attack.total_injected(), 0u);

  // The defenses saw it and rejected all of it: not one forged response
  // completed a query.
  obs::DefenseStats defense(*world.result.metrics);
  EXPECT_GT(defense.forged_rejected, 0u);
  EXPECT_GT(defense.forgery_aborts, 0u);
  EXPECT_GT(defense.servers_marked, 0u);
  EXPECT_EQ(defense.accepted_forgeries, 0u);

  // The under-attack provenance reached the aggregate and per-zone reports.
  EXPECT_GT(world.result.survey.zones_under_attack, 0u);
  bool any_flagged = false;
  for (const auto& report : world.result.reports) {
    any_flagged |= report.under_attack;
  }
  EXPECT_TRUE(any_flagged);

  // The scan itself stayed whole: clean links, so every zone completes.
  EXPECT_EQ(world.result.survey.scan_complete, world.result.survey.total);
}

TEST(Adversarial, ReportIsByteIdenticalToCleanRun) {
  auto clean = run_survey_world(nullptr);
  ChaosOptions chaos = ecosystem::chaos_preset("adversarial");
  chaos.seed = 0xbadcafe;
  auto attacked = run_survey_world(&chaos);

  // Same world, same measurement — the attacker only ever loses the race
  // or gets rejected, so after dropping the under_attack provenance
  // column the per-zone CSVs match byte for byte.
  ASSERT_GT(attacked.network->attack_stats().total_injected(), 0u);
  ASSERT_EQ(clean.result.reports.size(), attacked.result.reports.size());
  EXPECT_EQ(
      strip_provenance_columns(analysis::reports_to_csv(clean.result.reports)),
      strip_provenance_columns(
          analysis::reports_to_csv(attacked.result.reports)));

  // In particular every DNSSEC verdict — the paper's measurement — agrees.
  for (std::size_t i = 0; i < clean.result.reports.size(); ++i) {
    EXPECT_EQ(clean.result.reports[i].zone, attacked.result.reports[i].zone);
    EXPECT_EQ(clean.result.reports[i].dnssec,
              attacked.result.reports[i].dnssec)
        << clean.result.reports[i].zone.to_text();
    EXPECT_EQ(clean.result.reports[i].ab, attacked.result.reports[i].ab)
        << clean.result.reports[i].zone.to_text();
  }
}

// --- Targeted engine defenses ----------------------------------------------

struct EngineFixture {
  net::SimNetwork network{3};
  net::IpAddress client = net::IpAddress::synthetic_v4(1);
  net::IpAddress server_addr = net::IpAddress::synthetic_v4(2);
  std::shared_ptr<server::AuthServer> server;

  EngineFixture() {
    network.set_default_link(
        net::LinkModel{2 * net::kMillisecond, 0, 0.0});
    server = std::make_shared<server::AuthServer>(
        server::ServerConfig{.id = "t"}, 1);
    const std::string text =
        "@ IN SOA ns1 hostmaster 1 7200 3600 1209600 300\n"
        "@ IN NS ns1\n"
        "www IN A 192.0.2.80\n";
    server->add_zone(std::make_shared<dns::Zone>(
        std::move(dns::parse_zone(
                      text, dns::ZoneFileOptions{name_of("example.com."), 60}))
            .take()));
    server->attach(network, server_addr);
  }
};

TEST(Adversarial, BirthdayAbortRequeriesOverTcp) {
  EngineFixture fx;
  net::AttackProfile profile;
  profile.spoof_candidates = 12;  // past the abort threshold of 8
  fx.network.set_attack_on(fx.server_addr, profile, Rng(7));

  resolver::QueryEngine engine(fx.network, fx.client,
                               resolver::QueryEngineOptions{});
  bool answered = false;
  engine.query(fx.server_addr, name_of("www.example.com."), dns::RRType::kA,
               [&](Result<dns::Message> result) {
                 ASSERT_TRUE(result.ok());
                 EXPECT_EQ(result->header.rcode, dns::Rcode::kNoError);
                 EXPECT_EQ(result->answers.size(), 1u);
                 answered = true;
               });
  fx.network.run();
  EXPECT_TRUE(answered);
  // The sweep was attributed, tripped the birthday detector, and the query
  // finished over TCP; the endpoint carries the under_attack mark.
  EXPECT_GE(engine.defense().forged_rejected, 8u);
  EXPECT_EQ(engine.defense().forgery_aborts, 1u);
  EXPECT_EQ(engine.defense().accepted_forgeries, 0u);
  EXPECT_TRUE(engine.under_attack(fx.server_addr));
  EXPECT_EQ(engine.servers_under_attack(), 1u);
}

TEST(Adversarial, OnPathForgeryIsAccountedTruthfully) {
  // An on-path attacker knows the ID and source port; its instant forgery
  // wins the race and the engine cannot tell. The ground-truth `injected`
  // marker must then count exactly one accepted forgery — proving the
  // accounting is honest and the acceptance gate never peeks at it.
  EngineFixture fx;
  net::AttackProfile profile;
  profile.spoof_candidates = 1;
  profile.spoof_known_id = true;
  profile.spoof_known_port = true;
  fx.network.set_attack_on(fx.server_addr, profile, Rng(7));

  resolver::QueryEngine engine(fx.network, fx.client,
                               resolver::QueryEngineOptions{});
  bool answered = false;
  engine.query(fx.server_addr, name_of("www.example.com."), dns::RRType::kA,
               [&](Result<dns::Message> result) {
                 ASSERT_TRUE(result.ok());
                 // The forged answer is an authoritative NXDOMAIN.
                 EXPECT_EQ(result->header.rcode, dns::Rcode::kNxDomain);
                 answered = true;
               });
  fx.network.run();
  EXPECT_TRUE(answered);
  EXPECT_EQ(engine.defense().accepted_forgeries, 1u);
}

TEST(Adversarial, SourcePortCheckRejectsWrongPortResponses) {
  // Forged answers carrying the right ID but a guessed port must be
  // rejected by the port check, not accepted by the ID match alone. With
  // spoof_known_id the attacker always has the ID, so every rejection in
  // this run is the port check (or tuple check) working.
  EngineFixture fx;
  net::AttackProfile profile;
  profile.spoof_candidates = 6;  // below the abort threshold
  profile.spoof_known_id = true;
  fx.network.set_attack_on(fx.server_addr, profile, Rng(11));

  resolver::QueryEngine engine(fx.network, fx.client,
                               resolver::QueryEngineOptions{});
  bool answered = false;
  engine.query(fx.server_addr, name_of("www.example.com."), dns::RRType::kA,
               [&](Result<dns::Message> result) {
                 ASSERT_TRUE(result.ok());
                 EXPECT_EQ(result->header.rcode, dns::Rcode::kNoError);
                 answered = true;
               });
  fx.network.run();
  EXPECT_TRUE(answered);
  EXPECT_GT(engine.defense().port_rejected, 0u);
  EXPECT_EQ(engine.defense().accepted_forgeries, 0u);
}

TEST(Adversarial, CaseFoldedSpoofCountsAgainstPendingQuery) {
  // Wrong-ID candidates are attributed to a pending question the way the
  // wire compares names: case-insensitively (a 0x20-randomized sweep must
  // not slip past the birthday counter). The queried server never answers,
  // so the query stays pending while the candidates arrive.
  EngineFixture fx;
  const net::IpAddress silent = net::IpAddress::synthetic_v4(77);
  resolver::QueryEngineOptions options;
  options.randomize_ids = false;  // the pending query holds id 1
  resolver::QueryEngine engine(fx.network, fx.client, options);
  engine.query(silent, name_of("www.example.com."), dns::RRType::kA,
               [](Result<dns::Message>) {});
  auto candidate = [&](const char* qname) {
    dns::Message forged =
        dns::Message::make_query(2, name_of(qname), dns::RRType::kA, false);
    forged.header.qr = true;
    fx.network.send(silent, fx.client, forged.encode());
  };
  candidate("WWW.Example.COM.");
  candidate("www.EXAMPLE.com.");
  candidate("other.example.com.");  // a different question: not counted
  fx.network.run_until(100 * net::kMillisecond);
  EXPECT_EQ(engine.defense().forged_rejected, 2u);
  EXPECT_EQ(engine.in_flight(), 1u);
}

// --- Targeted server defenses ----------------------------------------------

TEST(Adversarial, ServerTokenBucketShedsFloodingClient) {
  EngineFixture fx;
  server::ServerDefenseProfile defense;
  defense.per_client_qps = 10.0;
  defense.per_client_burst = 2.0;
  fx.server->set_defense(defense);

  int responses = 0;
  fx.network.bind(fx.client, [&](const net::Datagram&) { ++responses; });
  for (int i = 0; i < 50; ++i) {
    auto query = dns::Message::make_query(static_cast<std::uint16_t>(i),
                                          name_of("www.example.com."),
                                          dns::RRType::kA, false);
    fx.network.send(fx.client, fx.server_addr, query.encode());
  }
  fx.network.run();
  // Burst of 2 at t=0: two answers, the rest shed silently (no REFUSED —
  // an RRL reply would just be reflection ammunition).
  EXPECT_EQ(responses, 2);
  EXPECT_EQ(fx.server->client_throttled(), 48u);
}

TEST(Adversarial, ServerDropsMalformedQueriesWithoutDying) {
  EngineFixture fx;
  int responses = 0;
  fx.network.bind(fx.client, [&](const net::Datagram&) { ++responses; });
  for (int i = 0; i < 10; ++i) {
    fx.network.send(fx.client, fx.server_addr,
                    std::vector<std::uint8_t>{0xde, 0xad, 0xbe,
                                              static_cast<std::uint8_t>(i)});
  }
  fx.network.run();
  EXPECT_EQ(responses, 0);
  EXPECT_EQ(fx.server->malformed_dropped(), 10u);

  // The worker survives: a well-formed query right after still answers.
  auto query = dns::Message::make_query(99, name_of("www.example.com."),
                                        dns::RRType::kA, false);
  fx.network.send(fx.client, fx.server_addr, query.encode());
  fx.network.run();
  EXPECT_EQ(responses, 1);
}

}  // namespace
}  // namespace dnsboot
