// Heap traffic of one warm simulated query round trip, as a gate.
//
// A QueryEngine asks an attached AuthServer the probe's kinds of question
// (apex SOA/NS/DNSKEY/CDS, host A/AAAA/TXT, NXDOMAIN) over SimNetwork. After
// two warm-up rounds — the server's answer cache full, every name interned,
// every table at its working size — the test counts global operator new
// calls over further rounds and fails when the mean per query exceeds a
// committed ceiling. What is left per query is what a round trip keeps:
// the engine's pending-table entries, the query and reply payloads, the
// server's decoded query and the client's decoded response (section
// vectors, RDATA bytes, type bitmaps).
//
// This binary replaces the global operator new/delete to count. The asan
// and tsan presets run it too: their runtimes let a program define its own
// operator new, and the counts are the program's own calls either way.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "dns/zonefile.hpp"
#include "dnssec/signer.hpp"
#include "net/simnet.hpp"
#include "resolver/query_engine.hpp"
#include "server/auth_server.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void* counted_new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_new(size); }
void* operator new[](std::size_t size) { return counted_new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dnsboot {
namespace {

// Measured 11.67 allocations per query when this ceiling was set; the same
// round trip took 39.44 before the query path stopped allocating what it
// does not keep (borrowed-label decode, flat name compression, the direct
// query encoder, slot-and-generation timer ids). The ceiling leaves 24%
// headroom: an intended new per-query allocation fits under it only by
// raising it here, in review.
constexpr double kMaxAllocationsPerQuery = 14.5;

dns::Name name_of(const std::string& text) {
  return std::move(dns::Name::from_text(text)).take();
}

struct RoundTrip {
  net::SimNetwork network{5};
  net::IpAddress client = net::IpAddress::synthetic_v4(1);
  net::IpAddress server_addr = net::IpAddress::synthetic_v4(2);
  std::shared_ptr<server::AuthServer> server;
  resolver::QueryEngine engine{network, client, resolver::QueryEngineOptions{}};
  std::vector<std::pair<dns::Name, dns::RRType>> questions;

  RoundTrip() {
    network.set_default_link(net::LinkModel{net::kMillisecond, 0, 0.0});
    const std::string text =
        "@ IN SOA ns1 hostmaster 1 7200 3600 1209600 300\n"
        "@ IN NS ns1\n"
        "@ IN NS ns2\n"
        "ns1 IN A 192.0.2.1\n"
        "ns2 IN A 192.0.2.2\n"
        "www IN A 192.0.2.80\n"
        "www IN AAAA 2001:db8::80\n"
        "txt IN TXT \"v=probe\"\n";
    auto zone = std::make_shared<dns::Zone>(
        std::move(dns::parse_zone(
                      text, dns::ZoneFileOptions{name_of("example.com."), 60}))
            .take());
    Rng rng(7);
    dnssec::SigningPolicy policy;
    policy.expiration = 100000000;
    policy.denial = dnssec::DenialMode::kNsec3;
    EXPECT_TRUE(
        dnssec::sign_zone(*zone, dnssec::ZoneKeys::generate(rng), policy).ok());
    server = std::make_shared<server::AuthServer>(
        server::ServerConfig{.id = "alloc"}, 1);
    server->add_zone(zone);
    server->attach(network, server_addr);

    const dns::Name apex = name_of("example.com.");
    for (dns::RRType type : {dns::RRType::kSOA, dns::RRType::kNS,
                             dns::RRType::kDNSKEY, dns::RRType::kCDS}) {
      questions.emplace_back(apex, type);
    }
    questions.emplace_back(name_of("www.example.com."), dns::RRType::kA);
    questions.emplace_back(name_of("www.example.com."), dns::RRType::kAAAA);
    questions.emplace_back(name_of("txt.example.com."), dns::RRType::kTXT);
    questions.emplace_back(name_of("absent.example.com."), dns::RRType::kA);
    questions.emplace_back(
        name_of("_dsboot.example.com._signal.ns1.example.com."),
        dns::RRType::kCDS);
  }

  // One query per question; returns how many came back as answers.
  std::size_t round() {
    std::size_t answered = 0;
    for (const auto& [qname, qtype] : questions) {
      engine.query(server_addr, qname, qtype,
                   [&answered](Result<dns::Message> response) {
                     if (response.ok()) ++answered;
                   });
    }
    network.run();
    return answered;
  }
};

TEST(AllocationGate, WarmQueryRoundTripStaysUnderCeiling) {
  RoundTrip trip;
  ASSERT_EQ(trip.round(), trip.questions.size());
  ASSERT_EQ(trip.round(), trip.questions.size());

  constexpr int kRounds = 20;
  g_allocations.store(0);
  g_counting.store(true);
  std::size_t answered = 0;
  for (int i = 0; i < kRounds; ++i) answered += trip.round();
  g_counting.store(false);

  const std::size_t queries = kRounds * trip.questions.size();
  ASSERT_EQ(answered, queries);
  const double per_query =
      static_cast<double>(g_allocations.load()) / static_cast<double>(queries);
  std::printf("allocations per warm query round trip: %.2f (ceiling %.2f)\n",
              per_query, kMaxAllocationsPerQuery);
  EXPECT_LE(per_query, kMaxAllocationsPerQuery);
}

}  // namespace
}  // namespace dnsboot
