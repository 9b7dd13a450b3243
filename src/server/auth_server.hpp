// Authoritative DNS server engine over the simulated network.
//
// One AuthServer instance models one operational server identity (which may
// answer on many addresses — the anycast-pool model). Behaviour profiles
// reproduce the server populations the paper observed:
//   kCompliant       — answers per RFC 1035/4035, NODATA for unknown types
//   kLegacyFormerr   — pre-RFC 3597 software: FORMERR on unknown RR types
//                      (the 7.6 M zones of §4.2 "lack of support for CDS")
//   kParkingWildcard — Afternic-style parking: identical answers for every
//                      name, creating the illusion of a zone cut at every
//                      level (the copacabana zone-cut violation of §4.4)
// Transient failures (deSEC's SERVFAILs and invalid signatures during the
// scan, §4.4) are injected via failure rates.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "base/rng.hpp"
#include "dns/message.hpp"
#include "dns/zone.hpp"
#include "net/transport.hpp"
#include "obs/stats.hpp"
#include "obs/trace.hpp"
#include "server/answer_cache.hpp"

namespace dnsboot::server {

enum class ServerBehavior {
  kCompliant,
  kLegacyFormerr,
  kParkingWildcard,
};

// Per-server fault profile for chaos worlds. All knobs default to off; the
// gates are evaluated in order slow-start -> flap -> rate-limit before the
// normal query path, deterministically under the server's seed.
struct ServerFaultProfile {
  // Slow start: the first `slow_start_queries` queries are answered with an
  // extra `slow_start_penalty` of service latency (cold caches / thundering
  // herd after a restart).
  net::SimTime slow_start_penalty = 0;
  std::uint64_t slow_start_queries = 0;

  // Rate limiting: a token bucket of `rate_limit_burst` tokens refilled at
  // `rate_limit_qps`; queries arriving with the bucket empty draw REFUSED.
  // 0 qps disables the limiter.
  double rate_limit_qps = 0.0;
  double rate_limit_burst = 10.0;

  // Flapping: SERVFAIL to every query during the first `flap_fail` of every
  // `flap_period` (a periodically-wedged backend). Disabled when period is 0.
  net::SimTime flap_period = 0;
  net::SimTime flap_fail = 0;
};

// Per-client defenses for hostile traffic (the adversarial chaos tier; see
// DESIGN.md §13). Unlike ServerFaultProfile — which *simulates* a degraded
// server — this hardens the server: response-rate limiting per client
// address in the RRL style (silent drop, not REFUSED, so a spoofed victim
// is not used as a reflector), bounded tracking state, and malformed-query
// shedding that is observable in /metrics.
struct ServerDefenseProfile {
  // Token bucket per client source address; 0 qps disables the limiter.
  double per_client_qps = 0.0;
  double per_client_burst = 32.0;
  // Bounded bucket table: at capacity, queries from *new* clients pass
  // unthrottled rather than evicting state (fail-open — the limiter is a
  // flood dampener, not an ACL).
  std::size_t max_clients_tracked = 1024;
};

struct ServerConfig {
  std::string id;  // diagnostic label, e.g. "ns1.desec.io"
  ServerBehavior behavior = ServerBehavior::kCompliant;
  // Probability of answering any query with SERVFAIL (transient outage).
  double transient_servfail_rate = 0.0;
  // Probability of corrupting every RRSIG in a response (transient bad
  // signatures, as observed from deSEC during the paper's scan).
  double transient_badsig_rate = 0.0;
  // Parking profile: the NS names returned for every NS query.
  std::vector<dns::Name> parking_ns{};

  // Permit zone transfers (RFC 5936). The paper obtained full zone files via
  // AXFR only from a handful of ccTLDs (.ch/.li/.se/.nu/.ee) and by private
  // arrangement (.uk/.sk); everyone else refuses.
  bool allow_axfr = false;
  // Records per AXFR response message (the simulated stream framing).
  std::size_t axfr_chunk_records = 2000;

  // Chaos fault profile (off by default; see apply_chaos()).
  ServerFaultProfile faults{};
  // Hardening profile (off by default; the adversarial preset enables it).
  ServerDefenseProfile defense{};
};

class AuthServer {
 public:
  AuthServer(ServerConfig config, std::uint64_t seed);

  const ServerConfig& config() const { return config_; }
  // Install a fault profile after construction (the chaos planner does this
  // on servers the ecosystem builder already created).
  void set_faults(const ServerFaultProfile& faults) { config_.faults = faults; }
  void set_defense(const ServerDefenseProfile& defense) {
    config_.defense = defense;
  }

  // Serve a zone. Zones are shared (an operator's servers all serve the same
  // zone objects). Every call starts a new zone-set generation, which
  // retires every cached answer.
  void add_zone(std::shared_ptr<const dns::Zone> zone);
  // The zone whose origin is the longest suffix of `name`, if any.
  std::shared_ptr<const dns::Zone> zone_for(const dns::Name& name) const;

  // Every zone this server publishes, keyed by canonical origin text. The
  // static linter enumerates these to build its ecosystem view.
  const std::map<std::string, std::shared_ptr<const dns::Zone>>& zones() const {
    return zones_;
  }

  // Produce the response for one query (the core of the engine; pure except
  // for the failure-injection RNG).
  dns::Message handle(const dns::Message& query);

  // Zone transfer: the full record stream for an AXFR query, chunked into
  // multiple messages (first and last carry the SOA, RFC 5936 §2.2). Empty
  // with REFUSED semantics when transfers are not allowed or the zone is not
  // served here.
  std::vector<dns::Message> handle_axfr(const dns::Message& query);

  // Bind this server to an address on the simulated network. May be called
  // many times (anycast pool: every pool address answers identically). The
  // bound handler answers repeated questions from the server's answer cache
  // (AnswerCache, DESIGN.md §10.6) with the bytes the full path would send.
  void attach(net::Transport& network, const net::IpAddress& address);

  // Every address this server has been attached to, in attach order. The
  // chaos planner and the L106 lint walk these to reason about reachability.
  const std::vector<net::IpAddress>& addresses() const { return addresses_; }

  std::uint64_t queries_handled() const { return queries_handled_; }
  // Fault-profile outcome counters.
  std::uint64_t rate_limited() const { return rate_limited_; }
  std::uint64_t flap_servfails() const { return flap_servfails_; }
  std::uint64_t slow_start_penalized() const { return slow_start_penalized_; }
  // Defense outcome counters.
  std::uint64_t client_throttled() const { return client_throttled_; }
  std::uint64_t malformed_dropped() const { return malformed_dropped_; }
  // Answer-cache outcome counters and the cache itself. A miss is a query
  // the cache could have served that took the full path.
  std::uint64_t answer_cache_hits() const { return answer_cache_hits_; }
  std::uint64_t answer_cache_misses() const { return answer_cache_misses_; }
  const AnswerCache& answer_cache() const { return answers_; }

  // The server's dnsboot_server_* counters, including the per-rcode
  // response family (all family members are pre-created at construction, so
  // a scrape thread never races a map insertion). dnsboot-serve merges each
  // worker's server registries into its /metrics exposition.
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  // Optional request tracing: sampled incoming queries record a "request"
  // span (receipt → response send, status = rcode). Not owned.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  // handle(), also reporting the zone the answer was built from (null when
  // none was).
  dns::Message respond(const dns::Message& query, const dns::Zone** source);
  // The handler attach() binds, and its uncached path for a decoded query.
  void serve_datagram(net::Transport& network, const net::Datagram& dgram);
  void serve_query(net::Transport& network, const net::Datagram& dgram,
                   const dns::Message& query, bool traced, bool fill_cache);
  // True when no answer draws on the RNG or a fault gate, so equal query
  // bytes always get equal reply bytes.
  bool answers_cacheable() const;
  net::SimTime fault_gate(const dns::Message& query, net::SimTime now,
                          std::optional<dns::Message>* short_circuit);
  // Per-client token bucket (RRL-style): false means drop the query
  // silently. Tracking state is bounded by max_clients_tracked.
  bool defense_gate(const net::IpAddress& client, net::SimTime now);
  dns::Message respond_from_zone(const dns::Message& query,
                                 const dns::Zone& zone);
  dns::Message respond_parking(const dns::Message& query);
  void append_rrset_with_sigs(const dns::Zone& zone, const dns::RRset& rrset,
                              bool dnssec_ok,
                              std::vector<dns::ResourceRecord>* section);
  void maybe_corrupt_signatures(dns::Message& response);
  // Bump the dnsboot_server_responses{rcode=...} family member.
  void count_response(dns::Rcode rcode);

  ServerConfig config_;
  Rng rng_;
  // Keyed by canonical origin text for longest-suffix lookup.
  std::map<std::string, std::shared_ptr<const dns::Zone>> zones_;
  // Bumped by add_zone(); a cached answer is valid only in its generation.
  std::uint64_t generation_ = 0;
  AnswerCache answers_;
  std::vector<net::IpAddress> addresses_;

  // Registry before its views (members initialize in declaration order).
  // Single-writer contract (enforced under DNSBOOT_VERIFY): an AuthServer
  // handles queries on exactly one serving thread, and only the query path
  // writes these counters — construction binds the refs but writes nothing,
  // so the first write claims them for the serving thread. Scrapers read
  // through registry copies, never through these references.
  obs::MetricsRegistry metrics_;
  obs::CounterRef queries_handled_{metrics_.counter("dnsboot_server_queries")};
  obs::CounterRef rate_limited_{
      metrics_.counter("dnsboot_server_rate_limited")};
  obs::CounterRef flap_servfails_{
      metrics_.counter("dnsboot_server_flap_servfails")};
  obs::CounterRef slow_start_penalized_{
      metrics_.counter("dnsboot_server_slow_start_penalized")};
  obs::CounterRef client_throttled_{
      metrics_.counter("dnsboot_server_client_throttled")};
  obs::CounterRef malformed_dropped_{
      metrics_.counter("dnsboot_server_malformed_dropped")};
  obs::CounterRef answer_cache_hits_{
      metrics_.counter("dnsboot_server_answer_cache_hits")};
  obs::CounterRef answer_cache_misses_{
      metrics_.counter("dnsboot_server_answer_cache_misses")};
  obs::Gauge& answer_cache_bytes_{
      metrics_.gauge("dnsboot_server_answer_cache_bytes")};
  // Per-rcode response family, pre-bound for rcodes 0..5 plus "other".
  std::vector<obs::Counter*> rcode_counters_;
  obs::Tracer* tracer_ = nullptr;

  // Fault-profile state (shared across all attached addresses — the pool is
  // one server identity).
  double rl_tokens_ = 0.0;
  net::SimTime rl_last_refill_ = 0;
  bool rl_initialized_ = false;
  std::uint64_t slow_queries_seen_ = 0;

  // Per-client limiter state (defense profile), bounded by
  // max_clients_tracked.
  struct ClientBucket {
    double tokens = 0.0;
    net::SimTime last_refill = 0;
  };
  std::unordered_map<net::IpAddress, ClientBucket, net::IpAddressHash>
      client_buckets_;
};

}  // namespace dnsboot::server

