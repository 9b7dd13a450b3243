// dnsboot-serve — serve a generated ecosystem authoritatively over real
// UDP/TCP sockets (DESIGN.md §10).
//
// The ecosystem is built from --seed / --scale-denom exactly as
// dnsboot-survey builds it, nameserver address N is mapped to the loopback
// address HOST+N at the --listen port, and every AuthServer — with its
// behaviour profile and fault gates intact — is re-attached to a
// WireTransport, which serves every address from one UDP socket and one
// TCP listener. A dnsboot-survey --wire run started with the same seed
// derives the identical map and scans this process over the kernel's
// loopback stack:
//
//   dnsboot-serve  --scale-denom 20000 --seed 7 --listen 127.0.0.1:5300 &
//   dnsboot-survey --scale-denom 20000 --seed 7 --wire 127.0.0.1:5300
//
// With --workers N, N threads each build their own world copy and open their
// own socket pair on the same port with SO_REUSEPORT (share-nothing: the
// kernel spreads flows by client address and port, no locks anywhere).
// HOST must be in 127.0.0.0/8 and the map must end below 127.255.255.255;
// otherwise the tool exits 2. --chaos injects the deterministic server-side
// fault schedule (slow/flapping/rate-limited servers); link-level faults
// live in the simulator and do not apply to real sockets.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cli.hpp"
#include "ecosystem/world.hpp"
#include "net/wire/wire_transport.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_http.hpp"
#include "server/auth_server.hpp"

using namespace dnsboot;

namespace {

struct CliOptions {
  double scale_denom = 20000;
  std::uint64_t seed = 1;
  std::string listen = "127.0.0.1:5300";
  std::size_t workers = 1;
  bool pathologies = true;
  cli::OutputOptions output;
  std::string chaos = "off";
  std::uint64_t chaos_seed = 0xc4a05;
  std::uint64_t max_runtime_usec = 0;  // 0 = serve until SIGINT/SIGTERM
  std::uint32_t metrics_port = 0;  // 0 = no /metrics listener
};

cli::FlagParser make_parser(CliOptions* options) {
  cli::FlagParser parser(
      "dnsboot-serve — serve a generated ecosystem authoritatively on real\n"
      "sockets; scan it with dnsboot-survey --wire and the same --seed");
  parser.value("--scale-denom", &options->scale_denom,
               "world scale divisor (zones ~ 1/N of the paper's)", 1e-9);
  parser.value("--seed", &options->seed, "ecosystem seed");
  parser.value("--listen", &options->listen, "HOST:PORT",
               "base endpoint; nameserver N serves at HOST+N:PORT, HOST in "
               "127.0.0.0/8");
  parser.value("--workers", &options->workers,
               "SO_REUSEPORT worker threads, one world copy each", 1);
  parser.flag("--no-pathologies", &options->pathologies,
              "serve a misconfiguration-free world", false);
  cli::OutputFlagSet output_flags;
  output_flags.with_json = false;  // the serve "report" IS the metrics dump
  cli::add_output_flags(parser, &options->output, output_flags);
  // Same preset registry as dnsboot-survey; over real sockets only the
  // server-side pieces apply (fault gates + defense token buckets), but the
  // accepted names must match so the two tools pair up 1:1.
  parser.choice("--chaos", &options->chaos, ecosystem::chaos_preset_names(),
                "inject the server-side fault schedule");
  parser.value("--chaos-seed", &options->chaos_seed, "fault schedule seed");
  parser.duration("--max-seconds", &options->max_runtime_usec,
                  cli::kUsecPerSecond,
                  "exit after this long — bare number = seconds, or 90s/15m/2h "
                  "(0 = until SIGINT)");
  parser.value("--metrics-port", &options->metrics_port,
               "serve Prometheus GET /metrics on 127.0.0.1:N (0 = off)");
  return parser;
}

struct Worker {
  // The world's servers are built onto its simulator, which then goes
  // unused; the world stays alive for the zones and fault state the wire
  // handlers reference.
  ecosystem::World world;
  std::unique_ptr<net::WireTransport> transport;
  std::thread thread;
};

// Signal handling: stop() is an atomic store plus an eventfd write, both
// async-signal-safe. The pointer list is finalized before the handler is
// installed.
std::vector<net::WireTransport*> g_transports;
std::atomic<bool> g_stop{false};

void handle_signal(int) {
  g_stop.store(true);
  for (net::WireTransport* transport : g_transports) transport->stop();
}

// Build one worker's world and bind its sockets. Returns 0, or the exit
// code with `error` set: 2 when the world does not fit the loopback range
// above `base`, 1 when binding fails. Safe to call concurrently. Workers
// stay share-nothing on purpose — AuthServer fault gates, token buckets,
// and metrics are mutable per-worker state — but the immutable
// EcosystemPlan is computed once and read by every concurrent build.
int setup_worker(const CliOptions& options, const net::RealEndpoint& base,
                 const ecosystem::WorldSpec& spec,
                 const ecosystem::EcosystemPlan& plan, Worker* worker,
                 std::string* error) {
  // The same spec as dnsboot-survey's build (seeded_spec), so both
  // processes construct bit-identical worlds.
  worker->world = ecosystem::build_world(spec, plan, 0, 1);

  net::WireAddressMap map(base);
  for (const auto& server : worker->world.eco.servers) {
    for (const auto& address : server->addresses()) {
      if (!map.add(address)) {
        *error = "the world's nameserver addresses run past 127.255.255.254 "
                 "from --listen " + options.listen +
                 "; pick a lower host or a smaller scale";
        return 2;
      }
    }
  }

  net::WireTransportOptions transport_options;
  transport_options.reuse_port = options.workers > 1;
  worker->transport =
      std::make_unique<net::WireTransport>(map, transport_options);
  for (const auto& server : worker->world.eco.servers) {
    for (const auto& address : server->addresses()) {
      server->attach(*worker->transport, address);
    }
  }
  if (!worker->transport->error().empty()) {
    *error = "bind failed: " + worker->transport->error();
    return 1;
  }
  return 0;
}

// One merged snapshot of every worker's observable state: the wire
// transport's traffic counters plus each AuthServer's request/rcode
// counters. Safe to call from the scrape thread while workers serve —
// registry reads are relaxed-atomic and all metric creation happened at
// construction time (DESIGN.md §11).
obs::MetricsRegistry collect_metrics(const std::vector<Worker>& workers) {
  obs::MetricsRegistry merged;
  for (const Worker& worker : workers) {
    if (const obs::MetricsRegistry* m = worker.transport->metrics_registry()) {
      merged.merge(*m);
    }
    for (const auto& server : worker.world.eco.servers) {
      merged.merge(server->metrics());
    }
  }
  return merged;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  cli::FlagParser parser = make_parser(&options);
  if (!parser.parse(argc, argv)) return 2;
  if (parser.help_requested()) return 0;

  const std::optional<net::RealEndpoint> base =
      net::parse_endpoint(options.listen);
  if (!base || !net::is_loopback(base->host)) {
    std::fprintf(stderr,
                 "dnsboot-serve: --listen requires HOST:PORT with HOST in "
                 "127.0.0.0/8 (nameserver N serves at HOST+N:PORT), got "
                 "'%s'\n",
                 options.listen.c_str());
    return 2;
  }

  std::vector<Worker> workers(options.workers);
  std::mutex error_mutex;
  std::string first_error;
  int first_code = 0;

  // Every worker builds its own identical world copy (the builds are
  // deterministic in --seed) and opens its own socket pair on the same port
  // via SO_REUSEPORT, so the serving threads share no mutable state at all.
  // Only the plan — the immutable half of world construction — is shared
  // across the builds.
  ecosystem::WorldSpec spec =
      ecosystem::seeded_spec(options.seed, 1.0 / options.scale_denom);
  spec.config.inject_pathologies = options.pathologies;
  spec.chaos = options.chaos;
  spec.chaos_seed = options.chaos_seed;
  const ecosystem::EcosystemPlan plan =
      ecosystem::make_ecosystem_plan(spec.config);
  {
    std::vector<std::thread> builders;
    builders.reserve(workers.size());
    for (Worker& worker : workers) {
      builders.emplace_back([&options, &base, &spec, &plan, &worker,
                             &error_mutex, &first_error, &first_code] {
        std::string error;
        const int code =
            setup_worker(options, *base, spec, plan, &worker, &error);
        if (code != 0) {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (first_code == 0) {
            first_code = code;
            first_error = std::move(error);
          }
        }
      });
    }
    for (std::thread& thread : builders) thread.join();
  }
  if (first_code != 0) {
    std::fprintf(stderr, "dnsboot-serve: %s\n", first_error.c_str());
    return first_code;
  }

  const net::WireAddressMap& map = workers[0].transport->address_map();
  if (!options.output.quiet) {
    std::printf(
        "dnsboot-serve: %zu zones on %zu servers, %zu endpoints at "
        "%s..%s, %zu worker(s)%s\n",
        workers[0].world.eco.truth.size(),
        workers[0].world.eco.servers.size(),
        map.size(), map.base().to_text().c_str(),
        map.size() > 0 ? map.entries().back().second.to_text().c_str() : "-",
        workers.size(),
        options.chaos != "off" ? (", chaos " + options.chaos).c_str() : "");
  }

  for (Worker& worker : workers) {
    g_transports.push_back(worker.transport.get());
  }
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  for (Worker& worker : workers) {
    worker.thread =
        std::thread([&worker] { worker.transport->run_forever(); });
  }

  obs::MetricsHttpServer metrics_server;
  if (options.metrics_port != 0) {
    if (!metrics_server.start(
            static_cast<std::uint16_t>(options.metrics_port),
            [&workers] { return collect_metrics(workers).to_prometheus(); })) {
      std::fprintf(stderr, "dnsboot-serve: metrics listener: %s\n",
                   metrics_server.error().c_str());
      handle_signal(0);
      for (Worker& worker : workers) worker.thread.join();
      return 1;
    }
    std::printf("dnsboot-serve: metrics at http://127.0.0.1:%u/metrics\n",
                static_cast<unsigned>(metrics_server.port()));
  }

  // Scripts wait for this line before starting the survey.
  std::printf("dnsboot-serve: ready\n");
  std::fflush(stdout);

  const auto started = std::chrono::steady_clock::now();
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (options.max_runtime_usec > 0 &&
        std::chrono::steady_clock::now() - started >=
            std::chrono::microseconds(options.max_runtime_usec)) {
      handle_signal(0);
    }
  }
  for (Worker& worker : workers) worker.thread.join();
  metrics_server.stop();

  // Final registry dump — every exit path (SIGINT, SIGTERM, --max-seconds)
  // funnels through the stop flag to here, so the last scrape's worth of
  // counters is never lost with the process.
  const obs::MetricsRegistry final_metrics = collect_metrics(workers);
  if (!options.output.metrics_json_path.empty()) {
    if (!cli::write_file(options.output.metrics_json_path,
                         final_metrics.to_json())) {
      std::fprintf(stderr, "dnsboot-serve: cannot write %s\n",
                   options.output.metrics_json_path.c_str());
      return 1;
    }
    if (!options.output.quiet) {
      std::printf("wrote %s\n", options.output.metrics_json_path.c_str());
    }
  }
  if (!options.output.quiet) {
    std::printf(
        "dnsboot-serve: done, %llu datagrams in, %llu out, %llu queries "
        "handled, %llu scrapes\n",
        static_cast<unsigned long long>(
            final_metrics.counter_value("dnsboot_wire_datagrams_delivered")),
        static_cast<unsigned long long>(
            final_metrics.counter_value("dnsboot_wire_datagrams_sent")),
        static_cast<unsigned long long>(
            final_metrics.counter_value("dnsboot_server_queries")),
        static_cast<unsigned long long>(metrics_server.scrapes()));
  }
  return 0;
}
