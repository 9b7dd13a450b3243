// ServerHealthTracker — per-nameserver health state for the resilient query
// engine: a consecutive-failure circuit breaker with a probing half-open
// state, and RFC 9520-style negative caching of SERVFAIL responses.
//
// The tracker exists so a chaos scan stops hammering dead or wedged servers:
// ZDNS-style retry discipline says the fastest way to finish a hostile scan
// is to give up quickly on endpoints that demonstrably cannot answer.
#pragma once

#include <cstdint>
#include <map>
#include <tuple>
#include <unordered_map>

#include "dns/message.hpp"
#include "net/transport.hpp"

namespace dnsboot::resolver {

enum class CircuitState { kClosed, kOpen, kHalfOpen };

struct HealthOptions {
  // Circuit breaker: after `failure_threshold` consecutive failures the
  // circuit opens and queries fail fast; after `open_cooldown` it half-opens
  // and lets probe queries through; `half_open_successes` successful probes
  // close it again, one failed probe re-opens it. Off by default — the seed
  // retry policy is preserved unless a caller opts in.
  bool enable_circuit_breaker = false;
  int failure_threshold = 5;
  net::SimTime open_cooldown = 5 * net::kSecond;
  int half_open_successes = 2;

  // RFC 9520 §3: resolvers MUST cache resolution failures; repeated
  // identical (server, qname, qtype) SERVFAILs within the TTL are answered
  // from cache without touching the wire.
  bool enable_servfail_cache = false;
  net::SimTime servfail_ttl = 5 * net::kSecond;
};

struct HealthStats {
  std::uint64_t circuit_opens = 0;
  std::uint64_t circuit_reopens = 0;     // half-open probe failed
  std::uint64_t circuit_closes = 0;
  std::uint64_t half_open_probes = 0;
  std::uint64_t fail_fast = 0;           // queries rejected while open
  std::uint64_t servfail_cached = 0;     // cache entries created
  std::uint64_t servfail_cache_hits = 0;
};

class ServerHealthTracker {
 public:
  explicit ServerHealthTracker(HealthOptions options) : options_(options) {}

  // May a query to `server` go out at `now`? Open circuits reject (counted
  // as fail_fast); a cooled-down circuit transitions to half-open and admits
  // the query as a probe.
  bool allow(const net::IpAddress& server, net::SimTime now);

  // An answered attempt, and a failed one (timeout or SERVFAIL), against the
  // server. Both keep per-server state only while the breaker is enabled.
  void record_success(const net::IpAddress& server);
  void record_failure(const net::IpAddress& server, net::SimTime now);

  // SERVFAIL negative cache (keyed by server + question).
  void record_servfail(const net::IpAddress& server, const dns::Name& qname,
                       dns::RRType qtype, net::SimTime now);
  bool servfail_cached(const net::IpAddress& server, const dns::Name& qname,
                       dns::RRType qtype, net::SimTime now);

  CircuitState state(const net::IpAddress& server) const;

  const HealthStats& stats() const { return stats_; }
  const HealthOptions& options() const { return options_; }

 private:
  struct Entry {
    CircuitState state = CircuitState::kClosed;
    int consecutive_failures = 0;
    int half_open_successes = 0;
    net::SimTime opened_at = 0;
  };

  Entry& entry(const net::IpAddress& server) { return servers_[server]; }
  void open_circuit(Entry& e, net::SimTime now, bool reopen);

  HealthOptions options_;
  std::unordered_map<net::IpAddress, Entry, net::IpAddressHash> servers_;
  // (server, qname, qtype) -> cache expiry; tuple-keyed and cold, so an
  // ordered map is fine here.
  std::map<std::tuple<net::IpAddress, std::string, dns::RRType>, net::SimTime>
      servfail_cache_;
  HealthStats stats_;
};

}  // namespace dnsboot::resolver
