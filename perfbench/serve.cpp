// serve — what dnsboot-serve does: the world's authoritative servers answer
// on real loopback UDP/TCP sockets, while a client on the program's own wire
// transport keeps a fixed number of scanner-style queries in flight (closed
// loop). Servers and client share one transport and one thread, so a query's
// round trip is the program's handlers plus the kernel's loopback path, with
// no cross-CPU wakeup in it. The request is one query, timed from send to
// answer.
#include <algorithm>
#include <memory>

#include "base/rng.hpp"
#include "bench.hpp"
#include "ecosystem/plan.hpp"
#include "net/simnet.hpp"
#include "net/wire/wire_transport.hpp"

namespace perfbench {

namespace {

using namespace dnsboot;

// ~300 zones served from a few hundred loopback ports. Each round builds
// and binds a fresh world, then serves it for kRoundSeconds.
constexpr double kScaleDenom = 1000000;
constexpr double kRoundSeconds = 1.0;
constexpr int kMinRounds = 3;
constexpr std::size_t kInFlight = 8;
// Latencies kept per round: the first answers only, so the sample's memory
// is the same whatever the throughput and peak_rss_mb does not follow speed.
constexpr std::size_t kLatencySamples = 1 << 16;
// Consecutive rounds bind different port ranges below the usual ephemeral
// range, so a socket still closing never collides with the next round.
constexpr int kFirstPort = 20000;
constexpr int kPortStride = 1000;
constexpr int kPortRanges = 8;

// The apex questions a bootstrapping scanner asks every nameserver.
constexpr dns::RRType kQuestionTypes[] = {dns::RRType::kSOA, dns::RRType::kNS,
                                          dns::RRType::kDNSKEY, dns::RRType::kCDS,
                                          dns::RRType::kCDNSKEY};

struct Probe {
  net::IpAddress server;
  dns::Name qname;
  dns::RRType qtype;
  Bytes expected;  // the server's answer, encoded with id 0
};

// Every (server, zone, type) question whose answer is deterministic: servers
// that inject random SERVFAILs or corrupt signatures are left out, so each
// answer can be checked byte for byte. The (server, zone) pairs come in a
// seeded random order, each with its questions back to back, as a scanner
// asks them. Called before serving starts.
std::vector<Probe> make_probes(const ecosystem::Ecosystem& eco, std::uint64_t seed) {
  std::vector<std::pair<server::AuthServer*, dns::Name>> apexes;
  for (const auto& server : eco.servers) {
    const server::ServerConfig& config = server->config();
    if (config.transient_servfail_rate > 0 || config.transient_badsig_rate > 0 ||
        server->addresses().empty()) {
      continue;
    }
    for (const auto& [origin, zone] : server->zones()) {
      apexes.emplace_back(server.get(), zone->origin());
    }
  }
  Rng rng(seed);
  for (std::size_t i = apexes.size(); i > 1; --i) {
    std::swap(apexes[i - 1], apexes[rng.next_below(i)]);
  }
  std::vector<Probe> probes;
  for (const auto& [server, origin] : apexes) {
    for (dns::RRType qtype : kQuestionTypes) {
      const dns::Message query = dns::Message::make_query(0, origin, qtype);
      probes.push_back({server->addresses().front(), origin, qtype,
                        server->handle(query).encode()});
    }
  }
  return probes;
}

// Bind every nameserver address to sequential loopback ports, starting at
// port range `range` and moving to the next range while a port is taken.
// Handlers are traced on `clock` when it is set. Null when no range binds.
std::unique_ptr<net::WireTransport> bind_servers(const ecosystem::Ecosystem& eco,
                                                 int range, LayerClock* clock) {
  for (int attempt = 0; attempt < kPortRanges; ++attempt) {
    const int port = kFirstPort + ((range + attempt) % kPortRanges) * kPortStride;
    net::WireAddressMap map(net::RealEndpoint{0x7f000001, static_cast<std::uint16_t>(port)});
    for (const auto& server : eco.servers) {
      for (const auto& address : server->addresses()) {
        if (!map.add(address)) return nullptr;
      }
    }
    std::unique_ptr<net::WireTransport> transport;
    if (clock != nullptr) {
      transport = std::make_unique<Traced<net::WireTransport>>(*clock, map);
    } else {
      transport = std::make_unique<net::WireTransport>(map);
    }
    for (const auto& server : eco.servers) {
      for (const auto& address : server->addresses()) {
        server->attach(*transport, address);
      }
    }
    if (transport->error().empty()) return transport;
  }
  return nullptr;
}

}  // namespace

RunResult run_serve(const RunOptions& options) {
  RunResult result;
  EndToEnd e2e;
  LayerTotals layers;
  std::vector<double> latency_ms;
  latency_ms.reserve(kLatencySamples);
  const Clock::time_point started = Clock::now();

  for (int round = 0; round < kMinRounds || seconds_since(started) < options.seconds;
       ++round) {
    const std::uint64_t seed = round_seed(options.seed, round);
    pin_to_round_cpu(round);
    const double pool_before = namepool_bytes();
    LayerClock clock;

    // Set-up: plan, world, and every nameserver bound to its loopback port.
    const Clock::time_point setup_start = Clock::now();
    ecosystem::EcosystemConfig config;
    config.seed = seed;
    config.scale = 1.0 / kScaleDenom;
    const ecosystem::EcosystemPlan plan = ecosystem::make_ecosystem_plan(config);
    const double plan_s = seconds_since(setup_start);
    net::SimNetwork buildnet(seed ^ 0xd15b007);
    const ecosystem::Ecosystem eco = ecosystem::build_shard(buildnet, config, plan, 0, 1);
    const double build_s = seconds_since(setup_start) - plan_s;
    const std::unique_ptr<net::WireTransport> transport =
        bind_servers(eco, round, options.trace ? &clock : nullptr);
    const double setup_s = seconds_since(setup_start);
    result.check(transport != nullptr, "no free loopback port range");
    if (transport == nullptr) break;
    e2e.setup_s.push_back(setup_s);

    const std::vector<Probe> probes = make_probes(eco, seed);
    result.check(!probes.empty(), "no deterministic server to query");
    if (probes.empty()) break;

    // Client: a closed loop of raw queries from an unmapped address, which
    // the transport gives its own ephemeral socket, as an external scanner
    // would send them. Ids index the outstanding table; a truncated answer
    // is re-asked over TCP.
    if (options.trace) {
      static_cast<Traced<net::WireTransport>&>(*transport).set_bind_layer(Layer::kClient);
    }
    const net::IpAddress source = net::IpAddress::v4({192, 0, 2, 251});
    struct Outstanding {
      const Probe* probe = nullptr;
      Clock::time_point sent;
    };
    std::vector<Outstanding> outstanding(1 << 16);
    std::uint16_t next_id = 0;
    std::uint64_t issued = 0;
    std::uint64_t answered = 0;
    std::uint64_t wrong = 0;
    std::size_t in_flight = 0;
    latency_ms.clear();

    const Clock::time_point serve_start = Clock::now();
    const Clock::time_point deadline =
        serve_start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(kRoundSeconds));
    auto send = [&](std::uint16_t id, bool tcp) {
      const Probe& probe = *outstanding[id].probe;
      transport->send(source, probe.server,
                      dns::Message::make_query(id, probe.qname, probe.qtype).encode(),
                      tcp);
    };
    auto issue = [&] {
      do {
        ++next_id;
      } while (next_id == 0 || outstanding[next_id].probe != nullptr);
      outstanding[next_id] = {&probes[issued++ % probes.size()], Clock::now()};
      ++in_flight;
      send(next_id, false);
    };
    transport->bind(source, [&](const net::Datagram& dgram) {
      if (dgram.payload.size() < 12) return;
      const std::uint16_t id =
          static_cast<std::uint16_t>((dgram.payload[0] << 8) | dgram.payload[1]);
      Outstanding& slot = outstanding[id];
      if (slot.probe == nullptr) return;
      if ((dgram.payload[2] & 0x02) != 0 && !dgram.tcp) {  // TC: ask over TCP
        send(id, true);
        return;
      }
      const Clock::time_point now = Clock::now();
      if (latency_ms.size() < kLatencySamples) {
        latency_ms.push_back(
            std::chrono::duration<double, std::milli>(now - slot.sent).count());
      }
      const Bytes& expected = slot.probe->expected;
      if (!std::equal(dgram.payload.begin() + 2, dgram.payload.end(),
                      expected.begin() + 2, expected.end())) {
        ++wrong;
      }
      slot.probe = nullptr;
      --in_flight;
      ++answered;
      if (now < deadline) issue();
    });
    for (std::size_t i = 0; i < kInFlight; ++i) issue();
    // Run the loop in slices; a pending guard timer keeps run() from
    // returning early while answers are on their way.
    const Clock::time_point give_up = deadline + std::chrono::seconds(2);
    while (in_flight > 0 && Clock::now() < give_up) {
      const std::uint64_t guard = transport->schedule(5 * net::kMillisecond, [] {});
      transport->run(4096);
      transport->cancel(guard);
    }
    const double serve_s = seconds_since(serve_start);

    // What dnsboot-serve reports at exit: every registry merged and dumped.
    const Clock::time_point report_start = Clock::now();
    obs::MetricsRegistry merged;
    merged.merge(*transport->metrics_registry());
    for (const auto& server : eco.servers) merged.merge(server->metrics());
    const std::string metrics = merged.to_json();
    const double report_s = seconds_since(report_start);

    result.attempted += issued;
    result.failed += wrong + in_flight;
    e2e.rate.push_back(static_cast<double>(answered) / serve_s);
    e2e.latency_ms.push_back(median(latency_ms));
    result.check(in_flight == 0, "queries left unanswered");
    result.check(wrong == 0, std::to_string(wrong) + " wrong answers");
    result.check(!metrics.empty(), "empty metrics dump");

    if (options.trace) {
      layers.plan_ms.push_back(plan_s * 1e3);
      layers.build_ms.push_back(build_s * 1e3);
      layers.report_ms.push_back(report_s * 1e3);
      layers.add(clock);
      layers.queries += clock.spans(Layer::kServer);
      layers.bytes += transport->bytes_sent();
      layers.ops += static_cast<double>(answered);
      if (round == 0) {
        layers.namepool_bytes_per_zone =
            (namepool_bytes() - pool_before) /
            static_cast<double>(eco.scan_targets.size());
      }
    }
  }

  if (options.trace) {
    report_layers(layers, &result);
  } else {
    report_end_to_end(e2e, &result);
  }
  return result;
}

}  // namespace perfbench
