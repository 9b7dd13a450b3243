#include <gtest/gtest.h>

#include <set>

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

TEST(AuthServer, NxDomainTakesFirstCoveringNsecInCanonicalOrder) {
  // A broken chain (as the ecosystem injects): two NSECs cover c, one from
  // the apex and one from b. The answer carries the first in canonical
  // order, the apex's; a predecessor lookup would pick b's instead.
  auto zone = make_zone("example.com.", false);
  auto nsec = [&](const std::string& owner, const std::string& next) {
    dns::TypeBitmap types;
    types.add(dns::RRType::kNSEC);
    ASSERT_TRUE(zone
                    ->add(dns::ResourceRecord{
                        name_of(owner), dns::RRType::kNSEC, dns::RRClass::kIN,
                        300, dns::NsecRdata{name_of(next), types}})
                    .ok());
  };
  nsec("example.com.", "d.example.com.");
  nsec("b.example.com.", "z.example.com.");
  AuthServer server(ServerConfig{.id = "nsec"}, 1);
  server.add_zone(zone);
  auto covering_owner = [&](const std::string& qname) {
    auto response = ask(server, qname, dns::RRType::kA);
    EXPECT_EQ(response.header.rcode, dns::Rcode::kNxDomain);
    for (const auto& rr : response.authorities) {
      if (rr.type == dns::RRType::kNSEC) return rr.name;
    }
    return dns::Name::root();
  };
  EXPECT_EQ(covering_owner("c.example.com."), name_of("example.com."));
  EXPECT_EQ(covering_owner("e.example.com."), name_of("b.example.com."));
}

// --- Answer cache -------------------------------------------------------------

// One server on a simulated network, asked through attach() the way a
// client asks it.
struct Wire {
  net::SimNetwork network{5};
  net::IpAddress server_addr = net::IpAddress::synthetic_v4(1);
  net::IpAddress client_addr = net::IpAddress::synthetic_v4(2);
  std::shared_ptr<AuthServer> server;
  std::vector<Bytes> replies;

  explicit Wire(std::shared_ptr<AuthServer> s) : server(std::move(s)) {
    network.set_default_link(net::LinkModel{net::kMillisecond, 0, 0.0});
    server->attach(network, server_addr);
    network.bind(client_addr, [this](const net::Datagram& dgram) {
      replies.push_back(dgram.payload);
    });
  }
  // Every reply to one query (none when it is dropped).
  std::vector<Bytes> send(const Bytes& query, bool tcp = false) {
    replies.clear();
    network.send(client_addr, server_addr, query, tcp);
    network.run();
    return replies;
  }
  Bytes ask(const dns::Message& query, bool tcp = false) {
    auto got = send(query.encode(), tcp);
    EXPECT_EQ(got.size(), 1u);
    return got.empty() ? Bytes{} : got.front();
  }
};

// What a fresh server with these zones answers in process: handle() plus
// encode(), no cache involved.
Bytes fresh_answer(const std::vector<std::shared_ptr<dns::Zone>>& zones,
                   const dns::Message& query) {
  AuthServer fresh(ServerConfig{.id = "fresh"}, 1);
  for (const auto& zone : zones) fresh.add_zone(zone);
  return fresh.handle(query).encode();
}

dns::Message query_of(std::uint16_t id, const std::string& qname,
                      dns::RRType qtype, bool dnssec_ok = true) {
  return dns::Message::make_query(id, name_of(qname), qtype, dnssec_ok);
}

TEST(AnswerCache, ZoneVersionChangesOnEveryMutationAndNeverRepeats) {
  // Cached answers are valid against (zone, version): every change must
  // move the version, and no object may show a version it showed before.
  auto zone = make_zone("example.com.", true);
  std::set<std::uint64_t> seen{zone->version()};
  auto fresh = [&](const char* step) {
    EXPECT_TRUE(seen.insert(zone->version()).second) << step;
  };
  const dns::ResourceRecord rr{name_of("new.example.com."), dns::RRType::kA,
                               dns::RRClass::kIN, 300,
                               dns::ARdata{{192, 0, 2, 9}}};
  ASSERT_TRUE(zone->add(rr).ok());
  fresh("add");
  dns::RRset txt;
  txt.name = name_of("www.example.com.");
  txt.type = dns::RRType::kTXT;
  txt.rdatas.push_back(dns::TxtRdata{{"t"}});
  ASSERT_TRUE(zone->add_rrset(txt).ok());
  fresh("add_rrset");
  zone->remove_rrset(name_of("www.example.com."), dns::RRType::kA);
  fresh("remove_rrset");
  zone->remove_signatures(name_of("example.com."), dns::RRType::kSOA);
  fresh("remove_signatures");
  zone->strip_dnssec();
  fresh("strip_dnssec");

  // Assignment from zones at lower, equal and higher versions: the target
  // moves past both, so it cannot land on a version it held before.
  *zone = dns::Zone(name_of("example.com."));
  fresh("move from a new zone");
  auto busy = make_zone("example.com.", true);
  for (int i = 0; i < 40; ++i) ASSERT_TRUE(busy->add(rr).ok());
  *zone = *busy;
  fresh("copy from a busier zone");
  dns::Zone twin = *zone;  // a copy starts at its source's version
  EXPECT_EQ(twin.version(), zone->version());
  *zone = std::move(twin);
  fresh("move from a copy of itself");
  // A moved-from zone lost its contents, so its version moved too.
  const std::uint64_t before = busy->version();
  dns::Zone taken(std::move(*busy));
  EXPECT_EQ(taken.version(), before);
  EXPECT_NE(busy->version(), before);
  const std::uint64_t taken_before = taken.version();
  *zone = std::move(taken);
  fresh("move assignment");
  EXPECT_NE(taken.version(), taken_before);  // NOLINT(bugprone-use-after-move)
}

TEST(AnswerCache, RepliesFollowEveryZoneMutator) {
  auto zone = make_zone("example.com.", true);
  auto server = std::make_shared<AuthServer>(ServerConfig{.id = "cache"}, 1);
  server->add_zone(zone);
  Wire wire(server);
  const std::vector<dns::Message> queries = {
      query_of(1, "www.example.com.", dns::RRType::kA),
      query_of(2, "www.example.com.", dns::RRType::kTXT),
      query_of(3, "new.example.com.", dns::RRType::kA),
      query_of(4, "example.com.", dns::RRType::kSOA),
  };
  std::vector<Bytes> before;
  // Every query answers as a fresh server would, cold and then warm, and
  // at least one answer differs from the previous step's.
  auto check = [&](const std::string& step) {
    std::vector<Bytes> now;
    for (const auto& query : queries) {
      const Bytes expected = fresh_answer({zone}, query);
      EXPECT_EQ(wire.ask(query), expected) << step;
      EXPECT_EQ(wire.ask(query), expected) << step << ", warm";
      now.push_back(expected);
    }
    EXPECT_NE(now, before) << step << " changed no answer";
    before = std::move(now);
  };
  check("initial");
  ASSERT_TRUE(zone->add(dns::ResourceRecord{name_of("new.example.com."),
                                            dns::RRType::kA, dns::RRClass::kIN,
                                            300, dns::ARdata{{192, 0, 2, 7}}})
                  .ok());
  check("add");
  dns::RRset txt;
  txt.name = name_of("www.example.com.");
  txt.type = dns::RRType::kTXT;
  txt.ttl = 300;
  txt.rdatas.push_back(dns::TxtRdata{{"hello"}});
  ASSERT_TRUE(zone->add_rrset(txt).ok());
  check("add_rrset");
  zone->remove_rrset(name_of("www.example.com."), dns::RRType::kA);
  check("remove_rrset");
  zone->remove_signatures(name_of("example.com."), dns::RRType::kSOA);
  check("remove_signatures");
  zone->strip_dnssec();
  check("strip_dnssec");
  EXPECT_EQ(server->answer_cache_hits(), 6u * queries.size());
}

TEST(AnswerCache, MoreSpecificZoneRetiresCachedAnswers) {
  auto outer = make_zone("example.com.", true);
  auto server = std::make_shared<AuthServer>(ServerConfig{.id = "cache"}, 1);
  server->add_zone(outer);
  Wire wire(server);
  const dns::Message query =
      query_of(5, "www.deep.example.com.", dns::RRType::kA);
  EXPECT_EQ(wire.ask(query), fresh_answer({outer}, query));
  EXPECT_EQ(wire.ask(query), fresh_answer({outer}, query));

  auto inner = make_zone("deep.example.com.", true);
  server->add_zone(inner);
  const Bytes expected = fresh_answer({outer, inner}, query);
  ASSERT_NE(expected, fresh_answer({outer}, query));
  EXPECT_EQ(wire.ask(query), expected);
  EXPECT_EQ(wire.ask(query), expected);
}

TEST(AnswerCache, CaseSpellingsAreSeparateEntries) {
  auto zone = make_zone("example.com.", true);
  auto server = std::make_shared<AuthServer>(ServerConfig{.id = "cache"}, 1);
  server->add_zone(zone);
  Wire wire(server);
  const dns::Message lower = query_of(6, "www.example.com.", dns::RRType::kA);
  const dns::Message mixed = query_of(6, "WwW.eXaMpLe.CoM.", dns::RRType::kA);
  for (int round = 0; round < 2; ++round) {
    const Bytes a = wire.ask(lower);
    const Bytes b = wire.ask(mixed);
    EXPECT_EQ(a, fresh_answer({zone}, lower));
    EXPECT_EQ(b, fresh_answer({zone}, mixed));
    EXPECT_NE(a, b);  // each echoes its own spelling
  }
  EXPECT_EQ(server->answer_cache_hits(), 2u);
}

TEST(AnswerCache, EdnsSizeAndDoBitAreKeyed) {
  auto zone = make_zone("example.com.", true);
  auto server = std::make_shared<AuthServer>(ServerConfig{.id = "cache"}, 1);
  server->add_zone(zone);
  Wire wire(server);
  std::vector<dns::Message> queries;
  for (bool dnssec_ok : {false, true}) {
    dns::Message no_edns =
        query_of(7, "www.example.com.", dns::RRType::kA, dnssec_ok);
    no_edns.additionals.clear();
    if (!dnssec_ok) queries.push_back(no_edns);  // DO needs EDNS
    for (std::uint16_t size : {512, 4096}) {
      dns::Message query = no_edns;
      query.add_edns(size, dnssec_ok);
      queries.push_back(query);
    }
  }
  std::vector<Bytes> distinct;
  for (int round = 0; round < 2; ++round) {
    for (const auto& query : queries) {
      const Bytes reply = wire.ask(query);
      EXPECT_EQ(reply, fresh_answer({zone}, query));
      if (round == 0) distinct.push_back(reply);
    }
  }
  EXPECT_EQ(server->answer_cache_hits(), queries.size());
  EXPECT_EQ(server->answer_cache().size(), queries.size());
  // DO on and off differ (signatures), and EDNS presence shows in the OPT.
  EXPECT_NE(distinct[0], distinct[1]);
  EXPECT_NE(distinct[1], distinct[3]);
}

TEST(AnswerCache, UdpTruncationAndTcpAreSeparateEntries) {
  auto zone = make_zone("example.com.", false);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(zone->add(dns::ResourceRecord{
                              name_of("big.example.com."), dns::RRType::kTXT,
                              dns::RRClass::kIN, 300,
                              dns::TxtRdata{{std::string(100, 'a' + i)}}})
                    .ok());
  }
  auto server = std::make_shared<AuthServer>(ServerConfig{.id = "cache"}, 1);
  server->add_zone(zone);
  Wire wire(server);
  // The TXT answer does not fit the 512 bytes the query advertises.
  dns::Message query = query_of(8, "big.example.com.", dns::RRType::kTXT);
  query.additionals.clear();
  query.add_edns(512, false);
  const Bytes full = fresh_answer({zone}, query);
  ASSERT_GT(full.size(), 512u);

  // The cold server's UDP reply, for reference: header and question, TC set.
  auto cold_server =
      std::make_shared<AuthServer>(ServerConfig{.id = "cold"}, 1);
  cold_server->add_zone(zone);
  Wire cold(cold_server);
  const Bytes truncated = cold.ask(query);
  ASSERT_GE(truncated.size(), 12u);
  EXPECT_NE(truncated[2] & 0x02, 0);

  for (int round = 0; round < 2; ++round) {
    EXPECT_EQ(wire.ask(query), truncated);
    EXPECT_EQ(wire.ask(query, /*tcp=*/true), full);
  }
  EXPECT_EQ(server->answer_cache_hits(), 2u);
}

TEST(AnswerCache, AxfrAndMalformedQueriesAreNeverCached) {
  auto zone = make_zone("example.com.", true);
  auto server = std::make_shared<AuthServer>(
      ServerConfig{.id = "xfr", .allow_axfr = true, .axfr_chunk_records = 4},
      1);
  server->add_zone(zone);
  Wire wire(server);
  const Bytes axfr = query_of(9, "example.com.", dns::RRType::kAXFR).encode();
  const auto stream = wire.send(axfr, /*tcp=*/true);
  ASSERT_GT(stream.size(), 1u);
  EXPECT_EQ(wire.send(axfr, /*tcp=*/true), stream);
  EXPECT_EQ(wire.send(axfr).size(), 1u);  // REFUSED over UDP, every time
  EXPECT_EQ(wire.send(axfr).size(), 1u);
  const Bytes garbage = {0x12, 0x34, 0x01, 0x00, 0x00, 0x01, 0x00};
  EXPECT_TRUE(wire.send(garbage).empty());
  EXPECT_TRUE(wire.send(garbage).empty());
  EXPECT_EQ(server->malformed_dropped(), 2u);
  EXPECT_EQ(server->answer_cache_hits(), 0u);
  EXPECT_EQ(server->answer_cache_misses(), 0u);
  EXPECT_EQ(server->answer_cache().size(), 0u);
}

TEST(AnswerCache, TransientServfailServerKeepsItsRcodeSequence) {
  ServerConfig config{.id = "flaky", .transient_servfail_rate = 0.5};
  auto zone = make_zone("example.com.", false);
  auto server = std::make_shared<AuthServer>(config, 99);
  server->add_zone(zone);
  Wire wire(server);
  AuthServer reference(config, 99);  // the same RNG, asked in process
  reference.add_zone(zone);
  const dns::Message query = query_of(10, "www.example.com.", dns::RRType::kA);
  int servfails = 0;
  for (int i = 0; i < 200; ++i) {
    const Bytes reply = wire.ask(query);
    EXPECT_EQ(reply, reference.handle(query).encode()) << "query " << i;
    if (reply.size() > 3 && (reply[3] & 0x0f) == 2) ++servfails;
  }
  EXPECT_GT(servfails, 0);
  EXPECT_LT(servfails, 200);
  EXPECT_EQ(server->answer_cache().size(), 0u);
  EXPECT_EQ(server->answer_cache_hits(), 0u);
}

TEST(AnswerCache, DefenseProfileStillThrottlesHits) {
  auto server = std::make_shared<AuthServer>(ServerConfig{.id = "hard"}, 1);
  server->add_zone(make_zone("example.com.", false));
  ServerDefenseProfile defense;
  defense.per_client_qps = 1.0;
  defense.per_client_burst = 3.0;
  server->set_defense(defense);
  Wire wire(server);
  const Bytes query =
      query_of(11, "www.example.com.", dns::RRType::kA).encode();
  for (int i = 0; i < 10; ++i) {
    wire.network.send(wire.client_addr, wire.server_addr, query);
  }
  wire.network.run();
  // A burst of three at t=0: one miss, two hits, seven throttled.
  EXPECT_EQ(wire.replies.size(), 3u);
  EXPECT_EQ(server->answer_cache_hits(), 2u);
  EXPECT_EQ(server->client_throttled(), 7u);
}

TEST(AnswerCache, WarmCacheCountsLikeColdOne) {
  // A mix of rcodes: NOERROR, NXDOMAIN, REFUSED and a referral.
  const std::vector<dns::Message> queries = {
      query_of(12, "www.example.com.", dns::RRType::kA),
      query_of(13, "missing.example.com.", dns::RRType::kA),
      query_of(14, "other.org.", dns::RRType::kA),
      query_of(15, "www.child.example.com.", dns::RRType::kA),
  };
  auto zone = make_zone("example.com.", true);
  // queries_handled() and the rcode family, scaled by `times`.
  auto counters = [](const AuthServer& server, std::uint64_t times) {
    std::vector<std::uint64_t> out = {times * server.queries_handled()};
    for (const char* rcode : {"0", "3", "5", "other"}) {
      out.push_back(times * server.metrics().counter_value(
                                std::string("dnsboot_server_responses{rcode=\"") +
                                rcode + "\"}"));
    }
    return out;
  };
  // Cold: one pass on a fresh server. Warm: two passes on one server.
  auto cold_server = std::make_shared<AuthServer>(ServerConfig{.id = "c"}, 1);
  cold_server->add_zone(zone);
  Wire cold(cold_server);
  std::vector<Bytes> cold_replies;
  for (const auto& query : queries) cold_replies.push_back(cold.ask(query));
  EXPECT_EQ(cold_server->answer_cache_hits(), 0u);

  auto server = std::make_shared<AuthServer>(ServerConfig{.id = "w"}, 1);
  server->add_zone(zone);
  Wire wire(server);
  for (int pass = 0; pass < 2; ++pass) {
    std::vector<Bytes> replies;
    for (const auto& query : queries) replies.push_back(wire.ask(query));
    EXPECT_EQ(replies, cold_replies) << "pass " << pass;
  }
  EXPECT_EQ(server->answer_cache_hits(), queries.size());
  EXPECT_EQ(server->answer_cache_misses(), queries.size());
  EXPECT_EQ(counters(*server, 1), counters(*cold_server, 2));
  for (const char* rcode : {"0", "3", "5"}) {
    const std::string name =
        std::string("dnsboot_server_responses{rcode=\"") + rcode + "\"}";
    EXPECT_GT(server->metrics().counter_value(name), 0u) << rcode;
  }
}

TEST(AnswerCache, TracerSamplesOncePerQueryOnEitherPath) {
  // Every third query is sampled. Sampled ones take the full path and
  // record a span; the rest are hits after the first.
  obs::Tracer tracer(obs::TracerOptions{.capacity = 64, .sample_every = 3});
  auto zone = make_zone("example.com.", true);
  auto server = std::make_shared<AuthServer>(ServerConfig{.id = "traced"}, 1);
  server->add_zone(zone);
  server->set_tracer(&tracer);
  Wire wire(server);
  const dns::Message query = query_of(17, "www.example.com.", dns::RRType::kA);
  for (int i = 0; i < 9; ++i) {
    EXPECT_EQ(wire.ask(query), fresh_answer({zone}, query)) << "query " << i;
  }
  EXPECT_EQ(tracer.candidates(), 9u);
  EXPECT_EQ(tracer.recorded(), 3u);
  // Query 0 is sampled (no fill), query 1 fills, 2/4/5/7/8 hit.
  EXPECT_EQ(server->answer_cache_misses(), 1u);
  EXPECT_EQ(server->answer_cache_hits(), 5u);
  EXPECT_EQ(server->queries_handled(), 9u);
}

TEST(AnswerCache, FloodOfDistinctNamesStaysWithinBound) {
  auto server = std::make_shared<AuthServer>(ServerConfig{.id = "flood"}, 1);
  server->add_zone(make_zone("example.com.", true));
  Wire wire(server);
  std::size_t peak = 0;
  for (int i = 0; i < 4000; ++i) {
    std::string qname = "r";
    qname += std::to_string(i);
    qname += ".example.com.";
    const dns::Message query = query_of(16, qname, dns::RRType::kA);
    EXPECT_EQ(wire.send(query.encode()).size(), 1u);
    const std::size_t bytes = server->answer_cache().bytes();
    ASSERT_LE(bytes, AnswerCache::kMaxBytes) << "after query " << i;
    peak = std::max(peak, bytes);
  }
  // The flood filled the cache up to its bound (and it started over).
  EXPECT_GT(peak, AnswerCache::kMaxBytes * 9 / 10);
  EXPECT_LT(server->answer_cache().size(), 4000u);
  EXPECT_EQ(server->answer_cache_misses(), 4000u);
  obs::MetricsRegistry metrics = server->metrics();
  EXPECT_EQ(metrics.gauge("dnsboot_server_answer_cache_bytes").get(),
            static_cast<double>(server->answer_cache().bytes()));
}

}  // namespace
}  // namespace dnsboot::server
