#include <gtest/gtest.h>

#include "base/rng.hpp"
#include "dns/zonefile.hpp"
#include "dnssec/signer.hpp"
#include "net/simnet.hpp"
#include "server/auth_server.hpp"

namespace dnsboot::server {
namespace {

dns::Name name_of(const std::string& text) {
  return std::move(dns::Name::from_text(text)).take();
}

std::shared_ptr<dns::Zone> make_zone(const std::string& apex, bool sign) {
  const std::string text =
      "@ IN SOA ns1 hostmaster 1 7200 3600 1209600 300\n"
      "@ IN NS ns1\n"
      "@ IN NS ns2\n"
      "ns1 IN A 192.0.2.1\n"
      "ns2 IN A 192.0.2.2\n"
      "www IN A 192.0.2.80\n"
      "child IN NS ns1.child\n"
      "ns1.child IN A 192.0.2.99\n";
  auto zone = std::make_shared<dns::Zone>(
      std::move(dns::parse_zone(text,
                                dns::ZoneFileOptions{name_of(apex), 3600}))
          .take());
  if (sign) {
    Rng rng(fnv1a(apex));
    auto keys = dnssec::ZoneKeys::generate(rng);
    dnssec::SigningPolicy policy;
    policy.inception = 1000;
    policy.expiration = 10'000'000;
    EXPECT_TRUE(dnssec::sign_zone(*zone, keys, policy).ok());
  }
  return zone;
}

AuthServer make_server(bool sign = true) {
  AuthServer server(ServerConfig{.id = "test"}, 1);
  server.add_zone(make_zone("example.com.", sign));
  return server;
}

dns::Message ask(AuthServer& server, const std::string& qname,
                 dns::RRType qtype, bool dnssec_ok = true) {
  return server.handle(
      dns::Message::make_query(42, name_of(qname), qtype, dnssec_ok));
}

TEST(AuthServer, AnswersAuthoritatively) {
  auto server = make_server();
  auto response = ask(server, "www.example.com.", dns::RRType::kA);
  EXPECT_TRUE(response.header.qr);
  EXPECT_TRUE(response.header.aa);
  EXPECT_EQ(response.header.rcode, dns::Rcode::kNoError);
  ASSERT_FALSE(response.answers.empty());
  EXPECT_EQ(response.answers[0].type, dns::RRType::kA);
}

TEST(AuthServer, IncludesRrsigsOnlyWhenDnssecOk) {
  auto server = make_server();
  auto with_do = ask(server, "www.example.com.", dns::RRType::kA, true);
  bool saw_rrsig = false;
  for (const auto& rr : with_do.answers) {
    if (rr.type == dns::RRType::kRRSIG) saw_rrsig = true;
  }
  EXPECT_TRUE(saw_rrsig);

  auto without_do = ask(server, "www.example.com.", dns::RRType::kA, false);
  for (const auto& rr : without_do.answers) {
    EXPECT_NE(rr.type, dns::RRType::kRRSIG);
  }
}

TEST(AuthServer, NoDataHasSoaAndNsec) {
  auto server = make_server();
  auto response = ask(server, "www.example.com.", dns::RRType::kTXT);
  EXPECT_EQ(response.header.rcode, dns::Rcode::kNoError);
  EXPECT_TRUE(response.answers.empty());
  bool saw_soa = false, saw_nsec = false;
  for (const auto& rr : response.authorities) {
    if (rr.type == dns::RRType::kSOA) saw_soa = true;
    if (rr.type == dns::RRType::kNSEC) saw_nsec = true;
  }
  EXPECT_TRUE(saw_soa);
  EXPECT_TRUE(saw_nsec);
}

TEST(AuthServer, NxDomainHasCoveringNsec) {
  auto server = make_server();
  auto response = ask(server, "missing.example.com.", dns::RRType::kA);
  EXPECT_EQ(response.header.rcode, dns::Rcode::kNxDomain);
  bool saw_nsec = false;
  for (const auto& rr : response.authorities) {
    if (rr.type == dns::RRType::kNSEC) saw_nsec = true;
  }
  EXPECT_TRUE(saw_nsec);
}

TEST(AuthServer, ReferralForDelegatedChild) {
  auto server = make_server();
  auto response = ask(server, "www.child.example.com.", dns::RRType::kA);
  EXPECT_FALSE(response.header.aa);
  EXPECT_EQ(response.header.rcode, dns::Rcode::kNoError);
  bool saw_ns = false, saw_glue = false;
  for (const auto& rr : response.authorities) {
    if (rr.type == dns::RRType::kNS &&
        rr.name == name_of("child.example.com.")) {
      saw_ns = true;
    }
  }
  for (const auto& rr : response.additionals) {
    if (rr.type == dns::RRType::kA &&
        rr.name == name_of("ns1.child.example.com.")) {
      saw_glue = true;
    }
  }
  EXPECT_TRUE(saw_ns);
  EXPECT_TRUE(saw_glue);
}

TEST(AuthServer, RefusedOutsideServedZones) {
  auto server = make_server();
  auto response = ask(server, "other.org.", dns::RRType::kA);
  EXPECT_EQ(response.header.rcode, dns::Rcode::kRefused);
}

TEST(AuthServer, CdsQueryOnUnsignedZoneIsNoData) {
  auto server = make_server(/*sign=*/false);
  auto response = ask(server, "example.com.", dns::RRType::kCDS);
  EXPECT_EQ(response.header.rcode, dns::Rcode::kNoError);
  EXPECT_TRUE(response.answers.empty());
}

TEST(AuthServer, LegacyBehaviorFormerrsOnModernTypes) {
  AuthServer server(
      ServerConfig{.id = "old", .behavior = ServerBehavior::kLegacyFormerr}, 1);
  server.add_zone(make_zone("example.com.", false));
  EXPECT_EQ(ask(server, "example.com.", dns::RRType::kCDS).header.rcode,
            dns::Rcode::kFormErr);
  EXPECT_EQ(ask(server, "example.com.", dns::RRType::kCDNSKEY).header.rcode,
            dns::Rcode::kFormErr);
  EXPECT_EQ(ask(server, "example.com.", dns::RRType::kDNSKEY).header.rcode,
            dns::Rcode::kFormErr);
  // But ancient types still work.
  EXPECT_EQ(ask(server, "example.com.", dns::RRType::kSOA).header.rcode,
            dns::Rcode::kNoError);
  EXPECT_EQ(ask(server, "www.example.com.", dns::RRType::kA).header.rcode,
            dns::Rcode::kNoError);
}

TEST(AuthServer, ParkingAnswersEveryNameIdentically) {
  ServerConfig config;
  config.id = "parking";
  config.behavior = ServerBehavior::kParkingWildcard;
  config.parking_ns = {name_of("ns1.namefind.com."),
                       name_of("ns2.namefind.com.")};
  AuthServer server(config, 1);
  // No zones served at all; every NS query still returns the parking NS set —
  // the illusion of a zone cut at every level (§4.4).
  for (const char* qname :
       {"anything.example.", "deep.under.anything.example.", "x.tld."}) {
    auto response = ask(server, qname, dns::RRType::kNS);
    EXPECT_EQ(response.header.rcode, dns::Rcode::kNoError);
    ASSERT_EQ(response.answers.size(), 2u) << qname;
    EXPECT_EQ(std::get<dns::NsRdata>(response.answers[0].rdata).nsdname,
              name_of("ns1.namefind.com."));
  }
  auto a = ask(server, "anything.example.", dns::RRType::kA);
  ASSERT_EQ(a.answers.size(), 1u);
  auto cds = ask(server, "anything.example.", dns::RRType::kCDS);
  EXPECT_TRUE(cds.answers.empty());  // NODATA, no SOA: sloppy but harmless
}

TEST(AuthServer, TransientServfailRateApplies) {
  ServerConfig config;
  config.id = "flaky";
  config.transient_servfail_rate = 0.5;
  AuthServer server(config, 99);
  server.add_zone(make_zone("example.com.", false));
  int servfails = 0;
  for (int i = 0; i < 400; ++i) {
    auto response = ask(server, "www.example.com.", dns::RRType::kA);
    if (response.header.rcode == dns::Rcode::kServFail) ++servfails;
  }
  EXPECT_GT(servfails, 120);
  EXPECT_LT(servfails, 280);
}

TEST(AuthServer, TransientBadSignatureCorruptsRrsigsOnly) {
  ServerConfig config;
  config.id = "badsig";
  config.transient_badsig_rate = 1.0;  // always corrupt
  AuthServer server(config, 7);
  auto zone = make_zone("example.com.", true);
  server.add_zone(zone);
  auto response = ask(server, "www.example.com.", dns::RRType::kA);
  ASSERT_FALSE(response.answers.empty());
  const dns::RRset* a_set = zone->find_rrset(name_of("www.example.com."),
                                             dns::RRType::kA);
  auto original =
      zone->signatures_covering(name_of("www.example.com."), dns::RRType::kA);
  ASSERT_FALSE(original.empty());
  for (const auto& rr : response.answers) {
    if (rr.type == dns::RRType::kRRSIG) {
      // Signature differs from the stored one (corrupted in flight).
      EXPECT_FALSE(rr.same_data(original[0]));
    } else {
      // Data records untouched.
      EXPECT_EQ(rr.type, dns::RRType::kA);
      EXPECT_TRUE(a_set != nullptr);
    }
  }
}

TEST(AuthServer, MultipleQuestionsRejected) {
  auto server = make_server();
  dns::Message query =
      dns::Message::make_query(1, name_of("example.com."), dns::RRType::kA);
  query.questions.push_back(query.questions[0]);
  auto response = server.handle(query);
  EXPECT_EQ(response.header.rcode, dns::Rcode::kFormErr);
}

TEST(AuthServer, LongestOriginWins) {
  AuthServer server(ServerConfig{.id = "multi"}, 1);
  server.add_zone(make_zone("example.com.", false));
  server.add_zone(make_zone("deep.example.com.", false));
  auto zone = server.zone_for(name_of("www.deep.example.com."));
  ASSERT_NE(zone, nullptr);
  EXPECT_EQ(zone->origin(), name_of("deep.example.com."));
  auto outer = server.zone_for(name_of("www.example.com."));
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->origin(), name_of("example.com."));
}

TEST(AuthServer, AttachRespondsOverNetwork) {
  net::SimNetwork network(5);
  network.set_default_link(net::LinkModel{net::kMillisecond, 0, 0.0});
  auto server = std::make_shared<AuthServer>(
      ServerConfig{.id = "net"}, 1);
  server->add_zone(make_zone("example.com.", false));
  auto server_addr = net::IpAddress::synthetic_v4(1);
  auto client_addr = net::IpAddress::synthetic_v4(2);
  server->attach(network, server_addr);

  dns::Message received;
  network.bind(client_addr, [&](const net::Datagram& dgram) {
    received = std::move(dns::Message::decode(dgram.payload)).take();
  });
  dns::Message query =
      dns::Message::make_query(7, name_of("www.example.com."), dns::RRType::kA);
  network.send(client_addr, server_addr, query.encode());
  network.run();
  EXPECT_TRUE(received.header.qr);
  EXPECT_EQ(received.header.id, 7);
  EXPECT_EQ(received.answers.size(), 1u);
  EXPECT_EQ(server->queries_handled(), 1u);
}

}  // namespace
}  // namespace dnsboot::server
