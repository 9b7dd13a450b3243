#include <gtest/gtest.h>

#include "dns/zonefile.hpp"
#include "net/simnet.hpp"
#include "resolver/query_engine.hpp"
#include "resolver/resolver.hpp"
#include "server/auth_server.hpp"

namespace dnsboot::resolver {
namespace {

dns::Name name_of(const std::string& text) {
  return std::move(dns::Name::from_text(text)).take();
}

// --- QueryEngine ----------------------------------------------------------------

struct EngineFixture {
  net::SimNetwork network{3};
  net::IpAddress client = net::IpAddress::synthetic_v4(1);
  net::IpAddress server_addr = net::IpAddress::synthetic_v4(2);
  std::shared_ptr<server::AuthServer> server;

  explicit EngineFixture(double loss = 0.0) {
    network.set_default_link(net::LinkModel{net::kMillisecond, 0, loss});
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

TEST(QueryEngine, ResolvesSimpleQuery) {
  EngineFixture fx;
  QueryEngine engine(fx.network, fx.client, QueryEngineOptions{});
  bool answered = false;
  engine.query(fx.server_addr, name_of("www.example.com."), dns::RRType::kA,
               [&](Result<dns::Message> result) {
                 ASSERT_TRUE(result.ok());
                 EXPECT_EQ(result->answers.size(), 1u);
                 answered = true;
               });
  fx.network.run();
  EXPECT_TRUE(answered);
  EXPECT_EQ(engine.stats().responses, 1u);
  EXPECT_EQ(engine.stats().timeouts, 0u);
  EXPECT_EQ(engine.in_flight(), 0u);
}

TEST(QueryEngine, TimesOutAgainstDeadAddress) {
  EngineFixture fx;
  QueryEngineOptions options;
  options.timeout = 100 * net::kMillisecond;
  options.attempts = 3;
  QueryEngine engine(fx.network, fx.client, options);
  bool failed = false;
  engine.query(net::IpAddress::synthetic_v4(99), name_of("x.example.com."),
               dns::RRType::kA, [&](Result<dns::Message> result) {
                 EXPECT_FALSE(result.ok());
                 EXPECT_EQ(result.error().code, "query.timeout");
                 failed = true;
               });
  fx.network.run();
  EXPECT_TRUE(failed);
  EXPECT_EQ(engine.stats().sends, 3u);  // all attempts used
  EXPECT_EQ(engine.stats().retries, 2u);
  EXPECT_EQ(engine.stats().timeouts, 1u);
}

TEST(QueryEngine, RetriesRecoverFromLoss) {
  // 30 % per-datagram loss: per attempt P(success) = 0.7^2 = 0.49, so ten
  // attempts fail with probability 0.51^10 < 0.2 %.
  EngineFixture fx(/*loss=*/0.3);
  QueryEngineOptions options;
  options.timeout = 100 * net::kMillisecond;
  options.attempts = 10;
  QueryEngine engine(fx.network, fx.client, options);
  int answered = 0;
  for (int i = 0; i < 50; ++i) {
    engine.query(fx.server_addr, name_of("www.example.com."), dns::RRType::kA,
                 [&](Result<dns::Message> result) {
                   if (result.ok()) ++answered;
                 });
  }
  fx.network.run();
  EXPECT_EQ(answered, 50);
  EXPECT_GT(engine.stats().retries, 0u);
}

TEST(QueryEngine, PacesPerServer) {
  EngineFixture fx;
  QueryEngineOptions options;
  options.per_server_qps = 50;
  QueryEngine engine(fx.network, fx.client, options);
  int answered = 0;
  net::SimTime last_response_at = 0;
  for (int i = 0; i < 100; ++i) {
    engine.query(fx.server_addr, name_of("www.example.com."), dns::RRType::kA,
                 [&](Result<dns::Message> result) {
                   if (result.ok()) ++answered;
                   last_response_at = fx.network.now();
                 });
  }
  fx.network.run();
  EXPECT_EQ(answered, 100);
  // 100 queries at 50 qps must take ~2 simulated seconds. (network.now()
  // itself runs further: cancelled timeout timers still advance the clock.)
  EXPECT_GE(last_response_at, 1900 * net::kMillisecond);
  EXPECT_LE(last_response_at, 2300 * net::kMillisecond);
}

TEST(QueryEngine, PacingIsPerDestination) {
  EngineFixture fx;
  // Second server at a different address: same zone, same handler.
  auto second = net::IpAddress::synthetic_v4(7);
  fx.server->attach(fx.network, second);
  QueryEngineOptions options;
  options.per_server_qps = 50;
  QueryEngine engine(fx.network, fx.client, options);
  int answered = 0;
  net::SimTime last_response_at = 0;
  for (int i = 0; i < 50; ++i) {
    for (auto target : {fx.server_addr, second}) {
      engine.query(target, name_of("www.example.com."), dns::RRType::kA,
                   [&](Result<dns::Message> result) {
                     if (result.ok()) ++answered;
                     last_response_at = fx.network.now();
                   });
    }
  }
  fx.network.run();
  EXPECT_EQ(answered, 100);
  // Two independent 50-query streams at 50 qps each: ~1 s, not ~2 s.
  EXPECT_LE(last_response_at, 1300 * net::kMillisecond);
}

TEST(QueryEngine, IgnoresSpoofedSource) {
  EngineFixture fx;
  QueryEngine engine(fx.network, fx.client, QueryEngineOptions{});
  // A "spoofer" watching for the query and racing a reply from the wrong
  // source address.
  auto spoofer = net::IpAddress::synthetic_v4(66);
  bool got_spoofed_data = false;
  engine.query(fx.server_addr, name_of("www.example.com."), dns::RRType::kA,
               [&](Result<dns::Message> result) {
                 ASSERT_TRUE(result.ok());
                 for (const auto& rr : result->answers) {
                   auto a = std::get<dns::ARdata>(rr.rdata);
                   if (a.address[0] == 6) got_spoofed_data = true;
                 }
               });
  // Forge a response with id 1 (the engine's first id) from the wrong source.
  dns::Message forged =
      dns::Message::make_query(1, name_of("www.example.com."), dns::RRType::kA);
  forged.header.qr = true;
  dns::ResourceRecord evil;
  evil.name = name_of("www.example.com.");
  evil.type = dns::RRType::kA;
  evil.rdata = dns::ARdata{{6, 6, 6, 6}};
  forged.answers.push_back(evil);
  fx.network.send(spoofer, fx.client, forged.encode());
  fx.network.run();
  EXPECT_FALSE(got_spoofed_data);
  EXPECT_GE(engine.stats().mismatched, 1u);
}

// --- Adaptive retry policy --------------------------------------------------------

TEST(QueryEngine, InterAttemptGapsGrowWithEscalatingTimeouts) {
  EngineFixture fx;
  // A sinkhole that records arrival times and never answers.
  auto sink = net::IpAddress::synthetic_v4(50);
  std::vector<net::SimTime> arrivals;
  fx.network.bind(sink,
                  [&](const net::Datagram&) { arrivals.push_back(fx.network.now()); });
  QueryEngineOptions options;
  options.timeout = 100 * net::kMillisecond;
  options.timeout_multiplier = 2.0;
  options.timeout_cap = net::kSecond;
  options.backoff_base = 10 * net::kMillisecond;
  options.backoff_cap = 50 * net::kMillisecond;
  options.attempts = 4;
  QueryEngine engine(fx.network, fx.client, options);
  engine.query(sink, name_of("www.example.com."), dns::RRType::kA,
               [](Result<dns::Message>) {});
  fx.network.run();
  ASSERT_EQ(arrivals.size(), 4u);
  // Gap i = escalating timeout + jittered backoff; with the timeout doubling
  // each attempt the gaps are strictly increasing.
  std::vector<net::SimTime> gaps;
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    gaps.push_back(arrivals[i] - arrivals[i - 1]);
  }
  EXPECT_GT(gaps[1], gaps[0]);
  EXPECT_GT(gaps[2], gaps[1]);
  // First gap >= first timeout + minimum backoff.
  EXPECT_GE(gaps[0], 110 * net::kMillisecond);
}

TEST(QueryEngine, BackoffIsDeterministicUnderSeed) {
  auto run_once = [](std::uint64_t seed) {
    EngineFixture fx;
    auto sink = net::IpAddress::synthetic_v4(50);
    std::vector<net::SimTime> arrivals;
    fx.network.bind(sink, [&](const net::Datagram&) {
      arrivals.push_back(fx.network.now());
    });
    QueryEngineOptions options;
    options.timeout = 100 * net::kMillisecond;
    options.backoff_base = 10 * net::kMillisecond;
    options.backoff_cap = 500 * net::kMillisecond;
    options.attempts = 4;
    options.seed = seed;
    QueryEngine engine(fx.network, fx.client, options);
    engine.query(sink, name_of("www.example.com."), dns::RRType::kA,
                 [](Result<dns::Message>) {});
    fx.network.run();
    return arrivals;
  };
  EXPECT_EQ(run_once(7), run_once(7));
  EXPECT_NE(run_once(7), run_once(8));  // the jitter really is seeded
}

TEST(HealthTracker, CircuitOpensHalfOpensAndCloses) {
  HealthOptions options;
  options.enable_circuit_breaker = true;
  options.failure_threshold = 3;
  options.open_cooldown = net::kSecond;
  options.half_open_successes = 2;
  ServerHealthTracker tracker(options);
  auto server = net::IpAddress::synthetic_v4(1);

  EXPECT_EQ(tracker.state(server), CircuitState::kClosed);
  tracker.record_failure(server, 0);
  tracker.record_failure(server, 10);
  EXPECT_EQ(tracker.state(server), CircuitState::kClosed);
  tracker.record_failure(server, 20);
  EXPECT_EQ(tracker.state(server), CircuitState::kOpen);
  EXPECT_EQ(tracker.stats().circuit_opens, 1u);

  // While open: reject; fail-fast is counted.
  EXPECT_FALSE(tracker.allow(server, 100));
  EXPECT_EQ(tracker.stats().fail_fast, 1u);

  // After the cooldown the circuit half-opens and admits a probe.
  EXPECT_TRUE(tracker.allow(server, 20 + net::kSecond));
  EXPECT_EQ(tracker.state(server), CircuitState::kHalfOpen);
  EXPECT_EQ(tracker.stats().half_open_probes, 1u);

  // Two successful probes close it.
  tracker.record_success(server, 20 + net::kSecond, 5 * net::kMillisecond);
  EXPECT_EQ(tracker.state(server), CircuitState::kHalfOpen);
  tracker.record_success(server, 21 + net::kSecond, 5 * net::kMillisecond);
  EXPECT_EQ(tracker.state(server), CircuitState::kClosed);
  EXPECT_EQ(tracker.stats().circuit_closes, 1u);
  EXPECT_TRUE(tracker.allow(server, 22 + net::kSecond));
}

TEST(HealthTracker, FailedProbeReopensCircuit) {
  HealthOptions options;
  options.enable_circuit_breaker = true;
  options.failure_threshold = 2;
  options.open_cooldown = net::kSecond;
  ServerHealthTracker tracker(options);
  auto server = net::IpAddress::synthetic_v4(1);
  tracker.record_failure(server, 0);
  tracker.record_failure(server, 0);
  EXPECT_EQ(tracker.state(server), CircuitState::kOpen);
  EXPECT_TRUE(tracker.allow(server, net::kSecond));  // half-open probe
  tracker.record_failure(server, net::kSecond);
  EXPECT_EQ(tracker.state(server), CircuitState::kOpen);
  EXPECT_EQ(tracker.stats().circuit_reopens, 1u);
  // The re-opened circuit rejects again until the next cooldown.
  EXPECT_FALSE(tracker.allow(server, net::kSecond + 10));
}

TEST(HealthTracker, EwmaTracksRttAndLoss) {
  ServerHealthTracker tracker(HealthOptions{});
  auto server = net::IpAddress::synthetic_v4(1);
  EXPECT_EQ(tracker.ewma_rtt(server), 0.0);
  tracker.record_success(server, 0, 10 * net::kMillisecond);
  EXPECT_NEAR(tracker.ewma_rtt(server), 10.0 * net::kMillisecond, 1.0);
  tracker.record_success(server, 0, 20 * net::kMillisecond);
  EXPECT_GT(tracker.ewma_rtt(server), 10.0 * net::kMillisecond);
  EXPECT_LT(tracker.ewma_rtt(server), 20.0 * net::kMillisecond);
  // Loss estimate rises on failures, falls back on successes.
  tracker.record_failure(server, 0);
  double lossy = tracker.ewma_loss(server);
  EXPECT_GT(lossy, 0.0);
  tracker.record_success(server, 0, 10 * net::kMillisecond);
  EXPECT_LT(tracker.ewma_loss(server), lossy);
}

TEST(HealthTracker, ServfailCacheHonoursTtl) {
  HealthOptions options;
  options.enable_servfail_cache = true;
  options.servfail_ttl = net::kSecond;
  ServerHealthTracker tracker(options);
  auto server = net::IpAddress::synthetic_v4(1);
  auto qname = name_of("www.example.com.");
  EXPECT_FALSE(tracker.servfail_cached(server, qname, dns::RRType::kA, 0));
  tracker.record_servfail(server, qname, dns::RRType::kA, 0);
  EXPECT_TRUE(tracker.servfail_cached(server, qname, dns::RRType::kA, 500));
  // A different question or server misses.
  EXPECT_FALSE(tracker.servfail_cached(server, qname, dns::RRType::kAAAA, 500));
  EXPECT_FALSE(tracker.servfail_cached(net::IpAddress::synthetic_v4(2), qname,
                                       dns::RRType::kA, 500));
  // Expired after the TTL.
  EXPECT_FALSE(
      tracker.servfail_cached(server, qname, dns::RRType::kA, net::kSecond));
}

TEST(QueryEngine, CircuitOpenFailsFastWithDistinctError) {
  EngineFixture fx;
  auto dead = net::IpAddress::synthetic_v4(99);
  QueryEngineOptions options;
  options.timeout = 50 * net::kMillisecond;
  options.attempts = 1;
  options.health.enable_circuit_breaker = true;
  options.health.failure_threshold = 2;
  QueryEngine engine(fx.network, fx.client, options);
  std::vector<std::string> errors;
  auto issue = [&] {
    engine.query(dead, name_of("www.example.com."), dns::RRType::kA,
                 [&](Result<dns::Message> result) {
                   ASSERT_FALSE(result.ok());
                   errors.push_back(result.error().code);
                 });
    fx.network.run();
  };
  issue();
  issue();  // second timeout trips the breaker
  issue();  // rejected without touching the wire
  ASSERT_EQ(errors.size(), 3u);
  EXPECT_EQ(errors[0], "query.timeout");
  EXPECT_EQ(errors[1], "query.timeout");
  EXPECT_EQ(errors[2], "query.circuit_open");
  EXPECT_EQ(engine.stats().fail_fast, 1u);
  EXPECT_EQ(engine.stats().sends, 2u);  // the third query never hit the wire
  EXPECT_EQ(engine.health().state(dead), CircuitState::kOpen);
}

TEST(QueryEngine, ServfailAnswersFeedNegativeCache) {
  EngineFixture fx;
  // A server that always SERVFAILs.
  server::ServerConfig config;
  config.id = "wedged";
  config.transient_servfail_rate = 1.0;
  auto wedged = std::make_shared<server::AuthServer>(config, 1);
  auto wedged_addr = net::IpAddress::synthetic_v4(60);
  wedged->attach(fx.network, wedged_addr);

  QueryEngineOptions options;
  options.health.enable_servfail_cache = true;
  options.health.servfail_ttl = 10 * net::kSecond;
  QueryEngine engine(fx.network, fx.client, options);
  bool got_servfail = false;
  engine.query(wedged_addr, name_of("www.example.com."), dns::RRType::kA,
               [&](Result<dns::Message> result) {
                 ASSERT_TRUE(result.ok());  // SERVFAIL is still an answer
                 got_servfail = result->header.rcode == dns::Rcode::kServFail;
               });
  fx.network.run();
  EXPECT_TRUE(got_servfail);

  // The identical question inside the TTL is answered from the cache.
  bool cached = false;
  engine.query(wedged_addr, name_of("www.example.com."), dns::RRType::kA,
               [&](Result<dns::Message> result) {
                 ASSERT_FALSE(result.ok());
                 EXPECT_EQ(result.error().code, "query.servfail_cached");
                 cached = true;
               });
  fx.network.run();
  EXPECT_TRUE(cached);
  EXPECT_EQ(engine.stats().servfail_cache_hits, 1u);
  EXPECT_EQ(engine.stats().sends, 1u);

  // A different qtype is not covered by the cache entry.
  bool fresh = false;
  engine.query(wedged_addr, name_of("www.example.com."), dns::RRType::kAAAA,
               [&](Result<dns::Message> result) {
                 ASSERT_TRUE(result.ok());
                 fresh = true;
               });
  fx.network.run();
  EXPECT_TRUE(fresh);
}

TEST(QueryEngine, RetryBudgetCapsGlobalRetries) {
  EngineFixture fx;
  auto dead = net::IpAddress::synthetic_v4(99);
  QueryEngineOptions options;
  options.timeout = 50 * net::kMillisecond;
  options.attempts = 5;
  options.per_server_qps = 10000;
  options.retry_budget_ratio = 0.2;
  options.retry_budget_floor = 3;
  QueryEngine engine(fx.network, fx.client, options);
  int failed = 0;
  for (int i = 0; i < 20; ++i) {
    engine.query(dead, name_of("www.example.com."), dns::RRType::kA,
                 [&](Result<dns::Message> result) {
                   EXPECT_FALSE(result.ok());
                   ++failed;
                 });
  }
  fx.network.run();
  EXPECT_EQ(failed, 20);
  // Unbudgeted, 20 queries x 5 attempts would be 80 retries; the budget is
  // max(3, 0.2 * 20) = 4.
  EXPECT_LE(engine.stats().retries, 4u);
  EXPECT_GT(engine.stats().budget_denied, 0u);
  EXPECT_LE(engine.stats().sends, 24u);
}

TEST(QueryEngine, AdaptivePolicyWastesFewerSendsThanFixedRetries) {
  // Same seed, same dead endpoint mixed with a live one: the adaptive policy
  // (breaker + budget) must spend strictly fewer sends on the dead server
  // than the seed's fixed-retry policy.
  auto run_policy = [](bool adaptive) {
    EngineFixture fx;
    auto dead = net::IpAddress::synthetic_v4(99);
    QueryEngineOptions options;
    options.timeout = 50 * net::kMillisecond;
    options.attempts = 3;
    options.per_server_qps = 10000;
    if (adaptive) {
      options.health.enable_circuit_breaker = true;
      options.health.failure_threshold = 3;
      options.retry_budget_ratio = 0.5;
      options.retry_budget_floor = 5;
    }
    QueryEngine engine(fx.network, fx.client, options);
    int done = 0;
    // Stagger the queries past each other's timeouts, as a scan does: the
    // breaker can only act on failures that have already happened.
    for (int i = 0; i < 30; ++i) {
      fx.network.schedule(
          static_cast<net::SimTime>(i) * 300 * net::kMillisecond, [&] {
            engine.query(dead, name_of("www.example.com."), dns::RRType::kA,
                         [&](Result<dns::Message>) { ++done; });
            engine.query(fx.server_addr, name_of("www.example.com."),
                         dns::RRType::kA, [&](Result<dns::Message>) { ++done; });
          });
    }
    fx.network.run();
    EXPECT_EQ(done, 60);
    // The engine dies with this scope; snapshot its registry so the stats
    // survive (a bare stats() copy would be a dangling view).
    return obs::StatsSnapshot<QueryEngineStats>(engine.metrics());
  };
  auto fixed = run_policy(false);
  auto adaptive = run_policy(true);
  EXPECT_LT(adaptive->wasted_sends(), fixed->wasted_sends());
  EXPECT_GT(adaptive->fail_fast, 0u);
  // Both policies answered every live-server query.
  EXPECT_EQ(adaptive->responses, fixed->responses);
}

TEST(QueryEngine, IdExhaustionReportsOverload) {
  EngineFixture fx;
  auto dead = net::IpAddress::synthetic_v4(99);
  QueryEngineOptions options;
  options.timeout = 60 * net::kSecond;  // keep every query pending
  options.attempts = 1;
  options.per_server_qps = 1e9;
  QueryEngine engine(fx.network, fx.client, options);
  int overloaded = 0;
  for (int i = 0; i < 0x10000 + 10; ++i) {
    engine.query(dead, name_of("www.example.com."), dns::RRType::kA,
                 [&](Result<dns::Message> result) {
                   if (!result.ok() &&
                       result.error().code == "query.overload") {
                     ++overloaded;
                   }
                 });
  }
  // Drain only the zero-delay overload deliveries, not the 60 s timeouts.
  fx.network.run_until(fx.network.now() + 1);
  EXPECT_EQ(engine.in_flight(), 0xffffu);  // ids 1..65535 all pending
  EXPECT_EQ(overloaded, 11);               // the rest were refused
}

// --- DelegationResolver -----------------------------------------------------------

// A miniature hand-built tree: root -> com -> example.com, with the zone's
// NSes out-of-bailiwick under ns-host.net (also delegated from root->net).
struct TreeFixture {
  net::SimNetwork network{4};
  std::shared_ptr<server::AuthServer> root_server;
  std::shared_ptr<server::AuthServer> com_server;
  std::shared_ptr<server::AuthServer> net_server;
  std::shared_ptr<server::AuthServer> host_server;
  std::shared_ptr<server::AuthServer> zone_server;
  RootHints hints;

  net::IpAddress root_addr = net::IpAddress::synthetic_v4(10);
  net::IpAddress com_addr = net::IpAddress::synthetic_v4(11);
  net::IpAddress net_addr = net::IpAddress::synthetic_v4(12);
  net::IpAddress host_addr = net::IpAddress::synthetic_v4(13);
  net::IpAddress zone_addr_v4 = net::IpAddress::synthetic_v4(14);
  net::IpAddress zone_addr_v6 = net::IpAddress::synthetic_v6(15);

  TreeFixture() {
    network.set_default_link(net::LinkModel{net::kMillisecond, 0, 0.0});
    auto make = [&](const char* id) {
      return std::make_shared<server::AuthServer>(
          server::ServerConfig{.id = id}, 1);
    };
    root_server = make("root");
    com_server = make("com");
    net_server = make("net");
    host_server = make("ns-host");
    zone_server = make("zone");

    auto add_zone = [&](std::shared_ptr<server::AuthServer>& server,
                        const std::string& apex, const std::string& text) {
      server->add_zone(std::make_shared<dns::Zone>(
          std::move(dns::parse_zone(
                        text, dns::ZoneFileOptions{name_of(apex), 3600}))
              .take()));
    };

    add_zone(root_server, ".",
             "@ IN SOA a.root. nstld 1 1 1 1 1\n"
             "@ IN NS a.root-servers.net.\n"
             "com. IN NS a.nic.com.\n"
             "a.nic.com. IN A 10.0.0.11\n"
             "net. IN NS a.nic.net.\n"
             "a.nic.net. IN A 10.0.0.12\n");
    add_zone(com_server, "com.",
             "@ IN SOA a.nic.com. host 1 1 1 1 1\n"
             "@ IN NS a.nic.com.\n"
             "example.com. IN NS ns1.ns-host.net.\n"
             "example.com. IN NS ns2.ns-host.net.\n");
    add_zone(net_server, "net.",
             "@ IN SOA a.nic.net. host 1 1 1 1 1\n"
             "@ IN NS a.nic.net.\n"
             "ns-host.net. IN NS ns1.ns-host.net.\n"
             "ns1.ns-host.net. IN A 10.0.0.13\n");  // glue
    add_zone(host_server, "ns-host.net.",
             "@ IN SOA ns1 host 1 1 1 1 1\n"
             "@ IN NS ns1\n"
             "ns1 IN A 10.0.0.13\n"
             "ns2 IN A 10.0.0.14\n"
             "ns2 IN AAAA fd00::f\n");
    add_zone(zone_server, "example.com.",
             "@ IN SOA ns1.ns-host.net. host 1 1 1 1 1\n"
             "@ IN NS ns1.ns-host.net.\n"
             "@ IN NS ns2.ns-host.net.\n"
             "www IN A 192.0.2.80\n");

    root_server->attach(network, root_addr);
    com_server->attach(network, com_addr);
    net_server->attach(network, net_addr);
    host_server->attach(network, host_addr);
    // ns2 addresses from the host zone:
    zone_server->attach(network, net::IpAddress::v4({10, 0, 0, 13}));
    zone_server->attach(network, net::IpAddress::v4({10, 0, 0, 14}));
    auto v6 = std::move(net::IpAddress::from_text("fd00::f")).take();
    zone_server->attach(network, v6);
    // Careful: 10.0.0.13 serves BOTH ns-host.net and example.com here; give
    // the combined server both zones (operators co-host).
    zone_server->add_zone(host_server->zone_for(name_of("ns-host.net.")));

    hints.servers = {root_addr};
  }
};

TEST(DelegationResolver, ResolvesOutOfBailiwickDelegation) {
  TreeFixture fx;
  QueryEngine engine(fx.network, net::IpAddress::synthetic_v4(1),
                     QueryEngineOptions{});
  DelegationResolver resolver(engine, fx.hints);
  bool done = false;
  resolver.resolve_zone(name_of("example.com."),
                        [&](Result<Delegation> result) {
                          ASSERT_TRUE(result.ok())
                              << result.error().to_string();
                          EXPECT_EQ(result->parent, name_of("com."));
                          EXPECT_EQ(result->ns_names.size(), 2u);
                          // ns1: A; ns2: A + AAAA -> 3 endpoints.
                          EXPECT_EQ(result->endpoints.size(), 3u);
                          EXPECT_TRUE(result->unresolved_ns.empty());
                          done = true;
                        });
  fx.network.run();
  EXPECT_TRUE(done);
}

TEST(DelegationResolver, NxDomainForUnregisteredZone) {
  TreeFixture fx;
  QueryEngine engine(fx.network, net::IpAddress::synthetic_v4(1),
                     QueryEngineOptions{});
  DelegationResolver resolver(engine, fx.hints);
  bool failed = false;
  resolver.resolve_zone(name_of("unregistered.com."),
                        [&](Result<Delegation> result) {
                          EXPECT_FALSE(result.ok());
                          EXPECT_EQ(result.error().code, "resolve.nxdomain");
                          failed = true;
                        });
  fx.network.run();
  EXPECT_TRUE(failed);
}

TEST(DelegationResolver, HostCacheDeduplicatesWork) {
  TreeFixture fx;
  QueryEngine engine(fx.network, net::IpAddress::synthetic_v4(1),
                     QueryEngineOptions{});
  DelegationResolver resolver(engine, fx.hints);
  int callbacks = 0;
  for (int i = 0; i < 5; ++i) {
    resolver.resolve_host(name_of("ns2.ns-host.net."),
                          [&](Result<std::vector<net::IpAddress>> result) {
                            ASSERT_TRUE(result.ok());
                            EXPECT_EQ(result->size(), 2u);  // A + AAAA
                            ++callbacks;
                          });
  }
  fx.network.run();
  EXPECT_EQ(callbacks, 5);
  EXPECT_GE(resolver.cache_hits() + resolver.cache_misses(), 5u);
  // Only the first request walked the tree.
  EXPECT_EQ(resolver.cache_misses(), 5u);  // all miss pre-completion...
  // ...but after completion, further lookups hit.
  bool hit = false;
  resolver.resolve_host(name_of("ns2.ns-host.net."),
                        [&](Result<std::vector<net::IpAddress>> result) {
                          hit = result.ok();
                        });
  fx.network.run();
  EXPECT_TRUE(hit);
  EXPECT_EQ(resolver.cache_hits(), 1u);
}

TEST(DelegationResolver, UnresolvableHostReported) {
  TreeFixture fx;
  QueryEngine engine(fx.network, net::IpAddress::synthetic_v4(1),
                     QueryEngineOptions{});
  DelegationResolver resolver(engine, fx.hints);
  bool done = false;
  resolver.resolve_host(name_of("ghost.nowhere.com."),
                        [&](Result<std::vector<net::IpAddress>> result) {
                          // NXDOMAIN -> negative result (empty list).
                          ASSERT_TRUE(result.ok());
                          EXPECT_TRUE(result->empty());
                          done = true;
                        });
  fx.network.run();
  EXPECT_TRUE(done);
}

TEST(DelegationResolver, ExtractReferralParsesDsAndGlue) {
  dns::Message response;
  response.header.qr = true;
  dns::ResourceRecord ns;
  ns.name = name_of("example.com.");
  ns.type = dns::RRType::kNS;
  ns.rdata = dns::NsRdata{name_of("ns1.example.com.")};
  response.authorities.push_back(ns);
  dns::ResourceRecord ds;
  ds.name = name_of("example.com.");
  ds.type = dns::RRType::kDS;
  ds.rdata = dns::DsRdata{1, 15, 2, Bytes(32, 1)};
  response.authorities.push_back(ds);
  dns::ResourceRecord sig;
  sig.name = name_of("example.com.");
  sig.type = dns::RRType::kRRSIG;
  dns::RrsigRdata rrsig;
  rrsig.type_covered = dns::RRType::kDS;
  rrsig.signer_name = name_of("com.");
  sig.rdata = rrsig;
  response.authorities.push_back(sig);
  dns::ResourceRecord glue;
  glue.name = name_of("ns1.example.com.");
  glue.type = dns::RRType::kA;
  glue.rdata = dns::ARdata{{10, 1, 1, 1}};
  response.additionals.push_back(glue);

  auto referral =
      DelegationResolver::extract_referral(response, name_of("com."));
  ASSERT_TRUE(referral.has_value());
  EXPECT_EQ(referral->cut, name_of("example.com."));
  EXPECT_EQ(referral->ns_names.size(), 1u);
  EXPECT_EQ(referral->ds.rrset.rdatas.size(), 1u);
  EXPECT_EQ(referral->ds.signatures.size(), 1u);
  EXPECT_EQ(referral->glue.size(), 1u);

  // An authoritative answer is not a referral.
  response.header.aa = true;
  EXPECT_FALSE(DelegationResolver::extract_referral(response, name_of("com."))
                   .has_value());
}

}  // namespace
}  // namespace dnsboot::resolver
