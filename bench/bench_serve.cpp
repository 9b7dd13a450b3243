// bench_serve — loopback throughput and latency of the real-socket serving
// path (DESIGN.md §10): a dnsboot-serve-style worker set answers on real
// UDP sockets while an in-process client blasts SOA queries at the root
// servers over the kernel loopback, measuring answered qps and p50/p99
// round-trip latency per worker count.
//
// Usage:
//   bench_serve [--scale-denom N] [--seed S] [--listen HOST:PORT]
//               [--workers 1,2] [--queries N] [--inflight N]
//               [--json PATH] [--fail-if-slower]
//
// The client spreads queries over several source sockets so SO_REUSEPORT's
// flow hashing actually distributes load across workers. --fail-if-slower
// exits non-zero when the last worker count's qps drops below half of the
// first's (the CI smoke gate; loopback scaling is noisy, hence the slack).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "dns/message.hpp"
#include "ecosystem/world.hpp"
#include "net/wire/wire_transport.hpp"
#include "tools/cli.hpp"

namespace {

using namespace dnsboot;

struct ServeWorker {
  ecosystem::World world;
  std::unique_ptr<net::WireTransport> transport;
  std::thread thread;
};

struct RunMeasurement {
  std::size_t workers = 0;
  std::uint64_t queries = 0;
  std::uint64_t answered = 0;
  double wall_ms = 0;
  double p50_us = 0;
  double p99_us = 0;

  double qps() const {
    return wall_ms > 0 ? answered / (wall_ms / 1000.0) : 0.0;
  }
};

// Build one serving worker, mirroring tools/dnsboot_serve.cpp (same spec,
// so the two would serve identical worlds for a seed).
bool make_worker(double scale_denom, std::uint64_t seed,
                 const net::RealEndpoint& base, bool reuse_port,
                 ServeWorker* worker, std::string* error) {
  worker->world =
      ecosystem::build_world(ecosystem::seeded_spec(seed, 1.0 / scale_denom));

  net::WireAddressMap map(base);
  for (const auto& server : worker->world.eco.servers) {
    for (const auto& address : server->addresses()) {
      if (!map.add(address)) {
        *error = "the world's nameserver addresses run past "
                 "127.255.255.254; pick a lower --listen host or a smaller "
                 "scale";
        return false;
      }
    }
  }
  net::WireTransportOptions options;
  options.reuse_port = reuse_port;
  worker->transport = std::make_unique<net::WireTransport>(map, options);
  for (const auto& server : worker->world.eco.servers) {
    for (const auto& address : server->addresses()) {
      server->attach(*worker->transport, address);
    }
  }
  if (!worker->transport->error().empty()) {
    *error = "bind failed: " + worker->transport->error();
    return false;
  }
  return true;
}

RunMeasurement run_once(double scale_denom, std::uint64_t seed,
                        const net::RealEndpoint& base, std::size_t workers,
                        std::uint64_t total_queries, std::size_t inflight,
                        std::string* error) {
  RunMeasurement m;
  m.workers = workers;
  m.queries = total_queries;

  std::vector<ServeWorker> serve(workers);
  for (ServeWorker& worker : serve) {
    if (!make_worker(scale_denom, seed, base, workers > 1, &worker, error)) {
      return m;
    }
  }
  for (ServeWorker& worker : serve) {
    worker.thread =
        std::thread([&worker] { worker.transport->run_forever(); });
  }

  const ecosystem::Ecosystem& eco = serve[0].world.eco;
  const std::vector<net::IpAddress>& roots = eco.hints.servers;
  const std::vector<dns::Name>& targets = eco.scan_targets;

  // Client side: several source sockets so the kernel's SO_REUSEPORT flow
  // hash spreads queries across workers (one socket = one flow = one
  // worker, which would serialize the whole bench). The client copies the
  // serving map but binds no mapped address, so it opens no serving pair.
  constexpr std::size_t kClientSockets = 16;
  net::WireAddressMap client_map(serve[0].transport->address_map());
  net::WireTransport client(client_map);
  std::vector<net::IpAddress> sources;
  for (std::size_t i = 0; i < kClientSockets; ++i) {
    sources.push_back(
        net::IpAddress::v4({192, 0, 2, static_cast<std::uint8_t>(1 + i)}));
  }

  std::vector<net::SimTime> sent_at(total_queries, 0);
  std::vector<double> latencies_us;
  latencies_us.reserve(total_queries);
  std::uint64_t next_query = 0;
  std::uint64_t answered = 0;

  auto send_next = [&](const net::IpAddress& source) {
    if (next_query >= total_queries) return;
    const std::uint16_t id = static_cast<std::uint16_t>(next_query);
    auto query = dns::Message::make_query(
        id, targets[next_query % targets.size()], dns::RRType::kSOA);
    sent_at[next_query] = client.now();
    ++next_query;
    client.send(source, roots[next_query % roots.size()], query.encode());
  };

  for (std::size_t i = 0; i < sources.size(); ++i) {
    const net::IpAddress source = sources[i];
    client.bind(source, [&, source](const net::Datagram& datagram) {
      if (datagram.payload.size() < 2) return;
      const std::uint16_t id = static_cast<std::uint16_t>(
          (datagram.payload[0] << 8) | datagram.payload[1]);
      if (id < sent_at.size() && sent_at[id] != 0) {
        latencies_us.push_back(
            static_cast<double>(client.now() - sent_at[id]));
        sent_at[id] = 0;
        ++answered;
      }
      send_next(source);
    });
  }

  const auto started = std::chrono::steady_clock::now();
  // Prime the windows round-robin across sockets, then let responses clock
  // the rest of the stream.
  for (std::size_t i = 0; i < inflight && next_query < total_queries; ++i) {
    send_next(sources[i % sources.size()]);
  }
  const net::SimTime deadline = client.now() + 30 * net::kSecond;
  while (answered < total_queries && client.now() < deadline) {
    std::uint64_t guard = client.schedule(5 * net::kMillisecond, [] {});
    client.run(4096);
    client.cancel(guard);
  }
  m.wall_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - started)
                  .count();
  m.answered = answered;

  for (ServeWorker& worker : serve) worker.transport->stop();
  for (ServeWorker& worker : serve) worker.thread.join();

  if (!latencies_us.empty()) {
    std::sort(latencies_us.begin(), latencies_us.end());
    m.p50_us = latencies_us[latencies_us.size() / 2];
    m.p99_us = latencies_us[std::min(latencies_us.size() - 1,
                                     latencies_us.size() * 99 / 100)];
  }
  if (answered < total_queries) {
    *error = "only " + std::to_string(answered) + "/" +
             std::to_string(total_queries) + " queries answered (UDP loss?)";
  }
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  double scale_denom = 1000000;
  std::uint64_t seed = 1;
  std::string listen = "127.0.0.1:5400";
  std::vector<std::size_t> worker_counts{1, 2};
  std::uint64_t queries = 4000;
  std::uint64_t inflight = 64;
  std::string json_path;
  bool fail_if_slower = false;

  cli::FlagParser parser(
      "bench_serve — loopback qps and latency of the wire serving path");
  parser.value("--scale-denom", &scale_denom, "world scale divisor", 1e-9);
  parser.value("--seed", &seed, "ecosystem seed");
  parser.value("--listen", &listen, "HOST:PORT",
               "base serving endpoint; nameserver N serves at HOST+N:PORT");
  parser.value("--workers", &worker_counts,
               "comma-separated worker counts to measure", 1);
  parser.value("--queries", &queries, "queries per run", 1);
  parser.value("--inflight", &inflight, "client send window", 1);
  parser.value("--json", &json_path, "PATH", "bench JSON output path");
  parser.flag("--fail-if-slower", &fail_if_slower,
              "exit non-zero when the last run's qps < half of the first's");
  if (!parser.parse(argc, argv)) return 2;
  if (parser.help_requested()) return 0;

  auto base = net::parse_endpoint(listen);
  if (!base || !net::is_loopback(base->host)) {
    std::fprintf(stderr,
                 "--listen requires HOST:PORT with HOST in 127.0.0.0/8 "
                 "(nameserver N serves at HOST+N:PORT)\n");
    return 2;
  }
  if (queries > 0xffff) queries = 0xffff;  // DNS ids index the latency table

  std::printf("bench_serve — %llu SOA queries over loopback, seed %llu\n",
              static_cast<unsigned long long>(queries),
              static_cast<unsigned long long>(seed));

  std::vector<RunMeasurement> runs;
  for (std::size_t workers : worker_counts) {
    std::string error;
    RunMeasurement m = run_once(scale_denom, seed, *base, workers, queries,
                                inflight, &error);
    if (!error.empty()) {
      std::fprintf(stderr, "bench_serve (workers %zu): %s\n", workers,
                   error.c_str());
      return 1;
    }
    std::printf(
        "workers %2zu: %8.0f qps  p50 %7.0f us  p99 %7.0f us  "
        "(%llu answered in %.1f ms)\n",
        workers, m.qps(), m.p50_us, m.p99_us,
        static_cast<unsigned long long>(m.answered), m.wall_ms);
    runs.push_back(m);
  }

  bench::BenchJson json("serve");
  json.add("scale_denom", scale_denom)
      .add("seed", seed)
      .add("queries", queries)
      .add("inflight", inflight)
      .begin_array("runs");
  for (const RunMeasurement& m : runs) {
    json.begin_object()
        .add("workers", static_cast<std::uint64_t>(m.workers))
        .add("answered", m.answered)
        .add("wall_ms", m.wall_ms)
        .add("qps", m.qps())
        .add("p50_us", m.p50_us)
        .add("p99_us", m.p99_us)
        .end_object();
  }
  json.end_array();
  if (runs.size() > 1 && runs.front().qps() > 0) {
    json.add("qps_last_vs_first", runs.back().qps() / runs.front().qps());
  }
  if (!json.write(json_path)) {
    std::fprintf(stderr, "cannot write bench json\n");
    return 1;
  }

  if (fail_if_slower && runs.size() > 1 &&
      runs.back().qps() < 0.5 * runs.front().qps()) {
    std::fprintf(stderr, "FAIL: %zu workers at %.0f qps < half of %.0f\n",
                 runs.back().workers, runs.back().qps(), runs.front().qps());
    return 1;
  }
  return 0;
}
