// Transport behaviour: UDP truncation, EDNS buffer sizes, TCP fallback, and
// TCP-only zone transfers.
#include <gtest/gtest.h>

#include "dns/zonefile.hpp"
#include "net/simnet.hpp"
#include "resolver/query_engine.hpp"
#include "server/auth_server.hpp"

namespace dnsboot {
namespace {

dns::Name name_of(const std::string& text) {
  return std::move(dns::Name::from_text(text)).take();
}

// A zone whose TXT RRset is far larger than any UDP buffer.
std::shared_ptr<dns::Zone> make_fat_zone() {
  auto zone = std::make_shared<dns::Zone>(name_of("fat.example."));
  (void)zone->add(dns::ResourceRecord{
      zone->origin(), dns::RRType::kSOA, dns::RRClass::kIN, 300,
      dns::SoaRdata{name_of("ns1.fat.example."), name_of("h.fat.example."), 1,
                    1, 1, 1, 1}});
  for (int i = 0; i < 80; ++i) {
    dns::TxtRdata txt;
    // Unique rdata per record (RRset members must be distinct) and bulky
    // enough that 80 of them exceed any EDNS buffer.
    txt.strings.push_back("record-" + std::to_string(i) + "-" +
                          std::string(100, static_cast<char>('a' + i % 26)));
    (void)zone->add(dns::ResourceRecord{name_of("big.fat.example."),
                                        dns::RRType::kTXT, dns::RRClass::kIN,
                                        300, std::move(txt)});
  }
  return zone;
}

struct Fixture {
  net::SimNetwork network{81};
  std::shared_ptr<server::AuthServer> server;
  net::IpAddress server_addr = net::IpAddress::synthetic_v4(1);
  net::IpAddress client_addr = net::IpAddress::synthetic_v4(2);

  explicit Fixture(bool allow_axfr = false) {
    network.set_default_link(net::LinkModel{net::kMillisecond, 0, 0.0});
    server::ServerConfig config;
    config.id = "transport";
    config.allow_axfr = allow_axfr;
    config.axfr_chunk_records = 10;
    server = std::make_shared<server::AuthServer>(config, 1);
    server->add_zone(make_fat_zone());
    server->attach(network, server_addr);
  }

  // Send a raw message (optionally via TCP) and capture responses.
  std::vector<dns::Message> exchange(const dns::Message& query, bool tcp) {
    std::vector<dns::Message> responses;
    network.bind(client_addr, [&](const net::Datagram& dgram) {
      auto message = dns::Message::decode(dgram.payload);
      if (message.ok()) responses.push_back(std::move(message).take());
    });
    network.send(client_addr, server_addr, query.encode(), tcp);
    network.run();
    return responses;
  }
};

TEST(Transport, OversizeUdpResponseIsTruncated) {
  Fixture fx;
  // EDNS 4096 is still far below the ~8 KiB TXT RRset.
  dns::Message query = dns::Message::make_query(
      1, name_of("big.fat.example."), dns::RRType::kTXT);
  auto responses = fx.exchange(query, /*tcp=*/false);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_TRUE(responses[0].header.tc);
  EXPECT_TRUE(responses[0].answers.empty());
}

TEST(Transport, Classic512LimitWithoutEdns) {
  Fixture fx;
  dns::Message query;
  query.header.id = 2;
  query.questions.push_back(dns::Question{name_of("big.fat.example."),
                                          dns::RRType::kTXT,
                                          dns::RRClass::kIN});
  auto responses = fx.exchange(query, /*tcp=*/false);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_TRUE(responses[0].header.tc);
}

TEST(Transport, TcpCarriesFullResponse) {
  Fixture fx;
  dns::Message query = dns::Message::make_query(
      3, name_of("big.fat.example."), dns::RRType::kTXT);
  auto responses = fx.exchange(query, /*tcp=*/true);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_FALSE(responses[0].header.tc);
  EXPECT_EQ(responses[0].answers.size(), 80u);
}

TEST(Transport, SmallResponseFitsUdp) {
  Fixture fx;
  dns::Message query = dns::Message::make_query(
      4, name_of("fat.example."), dns::RRType::kSOA);
  auto responses = fx.exchange(query, /*tcp=*/false);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_FALSE(responses[0].header.tc);
  EXPECT_EQ(responses[0].answers.size(), 1u);
}

TEST(Transport, QueryEngineFallsBackToTcp) {
  Fixture fx;
  resolver::QueryEngine engine(fx.network, fx.client_addr,
                               resolver::QueryEngineOptions{});
  bool answered = false;
  engine.query(fx.server_addr, name_of("big.fat.example."), dns::RRType::kTXT,
               [&](Result<dns::Message> result) {
                 ASSERT_TRUE(result.ok());
                 EXPECT_FALSE(result->header.tc);
                 EXPECT_EQ(result->answers.size(), 80u);
                 answered = true;
               });
  fx.network.run();
  EXPECT_TRUE(answered);
  EXPECT_EQ(engine.stats().tcp_fallbacks, 1u);
  EXPECT_EQ(engine.stats().timeouts, 0u);
}

TEST(Transport, TcpFallbackLostYieldsSingleTimeout) {
  // The truncated UDP answer arrives, then the link to the server goes dark
  // before the TCP retry: the engine must deliver exactly one callback (the
  // timeout), never a second completion for the same query.
  Fixture fx;
  net::FaultProfile dead;
  dead.blackholes.push_back(net::TimeWindow{5 * net::kMillisecond,
                                            net::kSimTimeForever});
  fx.network.set_faults_to(fx.server_addr, dead);
  resolver::QueryEngine engine(fx.network, fx.client_addr,
                               resolver::QueryEngineOptions{});
  int callbacks = 0;
  engine.query(fx.server_addr, name_of("big.fat.example."), dns::RRType::kTXT,
               [&](Result<dns::Message> result) {
                 ++callbacks;
                 ASSERT_FALSE(result.ok());
                 EXPECT_EQ(result.error().code, "query.timeout");
               });
  fx.network.run();
  EXPECT_EQ(callbacks, 1);
  EXPECT_EQ(engine.stats().tcp_fallbacks, 1u);
  EXPECT_EQ(engine.stats().timeouts, 1u);
  EXPECT_EQ(engine.stats().responses, 0u);
}

TEST(Transport, StaleTruncatedDuplicateIgnoredAfterFallback) {
  // The network duplicates the truncated UDP answer. The first copy triggers
  // the TCP fallback; the late copy must not complete the query with an
  // empty message — the TCP answer does, exactly once.
  Fixture fx;
  net::FaultProfile duplicating;
  duplicating.duplicate_rate = 1.0;
  fx.network.set_faults_to(fx.client_addr, duplicating);
  resolver::QueryEngine engine(fx.network, fx.client_addr,
                               resolver::QueryEngineOptions{});
  int callbacks = 0;
  engine.query(fx.server_addr, name_of("big.fat.example."), dns::RRType::kTXT,
               [&](Result<dns::Message> result) {
                 ++callbacks;
                 ASSERT_TRUE(result.ok());
                 EXPECT_FALSE(result->header.tc);
                 EXPECT_EQ(result->answers.size(), 80u);
               });
  fx.network.run();
  EXPECT_EQ(callbacks, 1);
  EXPECT_EQ(engine.stats().tcp_fallbacks, 1u);
  EXPECT_EQ(engine.stats().timeouts, 0u);
  // The stale truncated duplicate (and the duplicated TCP answer) were
  // rejected rather than delivered.
  EXPECT_GE(engine.stats().mismatched, 1u);
}

TEST(Transport, TcpStillTruncatedFailsInsteadOfLooping) {
  // A broken server that truncates even over TCP: the engine must fail the
  // query with a distinct error instead of bouncing between transports.
  net::SimNetwork network(82);
  network.set_default_link(net::LinkModel{net::kMillisecond, 0, 0.0});
  auto server_addr = net::IpAddress::synthetic_v4(1);
  auto client_addr = net::IpAddress::synthetic_v4(2);
  network.bind(server_addr, [&](const net::Datagram& dgram) {
    auto query = dns::Message::decode(dgram.payload);
    if (!query.ok()) return;
    dns::Message response;
    response.header.id = query->header.id;
    response.header.qr = true;
    response.header.tc = true;  // truncated regardless of transport
    response.questions = query->questions;
    network.send(dgram.destination, dgram.source, response.encode(),
                 dgram.tcp);
  });
  resolver::QueryEngine engine(network, client_addr,
                               resolver::QueryEngineOptions{});
  int callbacks = 0;
  engine.query(server_addr, name_of("big.fat.example."), dns::RRType::kTXT,
               [&](Result<dns::Message> result) {
                 ++callbacks;
                 ASSERT_FALSE(result.ok());
                 EXPECT_EQ(result.error().code, "query.truncation_loop");
               });
  network.run();
  EXPECT_EQ(callbacks, 1);
  EXPECT_EQ(engine.stats().tcp_fallbacks, 1u);
  EXPECT_EQ(engine.stats().truncation_loops, 1u);
  EXPECT_EQ(engine.stats().timeouts, 0u);
}

TEST(Transport, TcpFallbackUnderLossStillCompletes) {
  // 30% loss toward the server: UDP attempts may be lost, but with retries
  // the truncation -> TCP path still completes and the counters stay
  // coherent (every query accounted for as response or timeout).
  Fixture fx;
  net::FaultProfile lossy;
  lossy.loss_rate = 0.30;
  fx.network.set_faults_to(fx.server_addr, lossy);
  resolver::QueryEngineOptions options;
  options.attempts = 6;
  resolver::QueryEngine engine(fx.network, fx.client_addr, options);
  int ok = 0, failed = 0;
  for (int i = 0; i < 20; ++i) {
    engine.query(fx.server_addr, name_of("big.fat.example."),
                 dns::RRType::kTXT, [&](Result<dns::Message> result) {
                   if (result.ok()) {
                     EXPECT_EQ(result->answers.size(), 80u);
                     ++ok;
                   } else {
                     ++failed;
                   }
                 });
  }
  fx.network.run();
  EXPECT_EQ(ok + failed, 20);
  EXPECT_GT(ok, 10);  // most queries survive 30% loss with 6 attempts
  EXPECT_EQ(engine.stats().responses, static_cast<std::uint64_t>(ok));
  EXPECT_EQ(engine.stats().timeouts, static_cast<std::uint64_t>(failed));
  EXPECT_GE(engine.stats().tcp_fallbacks, static_cast<std::uint64_t>(ok));
}

TEST(Transport, AxfrOverUdpIsRefused) {
  Fixture fx(/*allow_axfr=*/true);
  dns::Message query = dns::Message::make_query(
      5, name_of("fat.example."), dns::RRType::kAXFR, false);
  auto responses = fx.exchange(query, /*tcp=*/false);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].header.rcode, dns::Rcode::kRefused);
}

TEST(Transport, AxfrOverTcpStreamsChunks) {
  Fixture fx(/*allow_axfr=*/true);
  dns::Message query = dns::Message::make_query(
      6, name_of("fat.example."), dns::RRType::kAXFR, false);
  auto responses = fx.exchange(query, /*tcp=*/true);
  // 80 TXT + 2 SOA boundary records at 10 records per message.
  EXPECT_GE(responses.size(), 8u);
  std::size_t soa_count = 0;
  std::size_t records = 0;
  for (const auto& response : responses) {
    EXPECT_EQ(response.header.rcode, dns::Rcode::kNoError);
    for (const auto& rr : response.answers) {
      ++records;
      if (rr.type == dns::RRType::kSOA) ++soa_count;
    }
  }
  EXPECT_EQ(soa_count, 2u);  // stream starts and ends with the SOA
  EXPECT_EQ(records, 82u);
}

TEST(Transport, AxfrRefusedWhenDisabled) {
  Fixture fx(/*allow_axfr=*/false);
  dns::Message query = dns::Message::make_query(
      7, name_of("fat.example."), dns::RRType::kAXFR, false);
  auto responses = fx.exchange(query, /*tcp=*/true);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].header.rcode, dns::Rcode::kRefused);
}

}  // namespace
}  // namespace dnsboot
