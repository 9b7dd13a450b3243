// QueryEngine — asynchronous DNS query transport over the simulated network,
// with per-nameserver rate limiting, timeouts and retries.
//
// This is the piece the calibration note says real DNS libraries make clunky:
// a large scan needs tens of thousands of outstanding queries with per-target
// pacing (the paper limits itself to 50 qps per NS, §3). The engine paces
// sends per destination address, matches responses by message ID, and
// retries on timeout.
//
// The retry policy is adaptive (ZDNS-style): per-attempt timeout schedules,
// exponential backoff with decorrelated jitter, a global retry budget, and a
// per-server health tracker (circuit breaker + RFC 9520 SERVFAIL cache).
// Every knob defaults to the seed's fixed 2s × 3 policy; chaos scans opt in
// (resilient_query_options).
#pragma once

#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "base/rng.hpp"
#include "dns/message.hpp"
#include "net/transport.hpp"
#include "obs/stats.hpp"
#include "obs/trace.hpp"
#include "resolver/health.hpp"

namespace dnsboot::resolver {

struct QueryEngineOptions {
  net::SimTime timeout = 2 * net::kSecond;  // first-attempt timeout
  int attempts = 3;                         // total tries per query
  double per_server_qps = 50.0;             // paper's scan limit (§3)

  // Per-attempt timeout schedule: timeout_i = min(cap, timeout * mult^i).
  // 1.0 reproduces the seed's fixed schedule.
  double timeout_multiplier = 1.0;
  net::SimTime timeout_cap = 8 * net::kSecond;

  // Decorrelated-jitter backoff before each retry:
  //   delay_i = min(backoff_cap, uniform(backoff_base, 3 * delay_{i-1})).
  // 0 disables backoff (the seed retries immediately on timeout).
  net::SimTime backoff_base = 0;
  net::SimTime backoff_cap = 2 * net::kSecond;

  // Retry budget: across the engine's lifetime at most
  // max(floor, ratio * logical_queries) retries are spent; queries beyond
  // the budget fail after their first attempt. ratio 0 disables budgeting.
  double retry_budget_ratio = 0.0;
  std::uint64_t retry_budget_floor = 100;

  // Jitter RNG seed (deterministic runs).
  std::uint64_t seed = 0x9e3779b97f4a7c15ull;

  // Anti-spoofing defense (the attacker model the adversarial chaos tier
  // drives; see DESIGN.md §13): randomized IDs make every query a fresh
  // 16-bit lottery. The engine also randomizes source ports and aborts
  // birthday attacks; see query_engine.cpp.
  bool randomize_ids = true;

  // Per-server health tracking (breaker + SERVFAIL cache); off by default.
  HealthOptions health;

  // Optional query-lifecycle tracing (obs/trace.hpp): every finished query
  // is a sampling candidate; sampled ones record a "query" span covering
  // issue → final callback with the attempt count and outcome. Not owned.
  obs::Tracer* tracer = nullptr;
};

// The resilient retry policy scans use on lossy (chaos) worlds: escalating
// per-attempt timeouts, decorrelated jitter between retries, a retry budget,
// and per-server breakers with the RFC 9520 SERVFAIL cache. Every other
// field keeps its default.
QueryEngineOptions resilient_query_options();

// Registry-backed counter view (obs/stats.hpp): fields read like the old
// plain-uint64 struct but live in the engine's MetricsRegistry as
// dnsboot_engine_* counters; shard merging is MetricsRegistry::merge.
using QueryEngineStats = obs::QueryEngineStats;
using DefenseStats = obs::DefenseStats;

class QueryEngine {
 public:
  using Callback = std::function<void(Result<dns::Message>)>;

  QueryEngine(net::Transport& network, net::IpAddress local_address,
              QueryEngineOptions options);

  // Issue one query. The callback fires exactly once: with the decoded
  // response, or with an error after all attempts time out.
  void query(const net::IpAddress& server, const dns::Name& qname,
             dns::RRType qtype, Callback callback);

  const QueryEngineStats& stats() const { return stats_; }
  const DefenseStats& defense() const { return defense_; }
  const ServerHealthTracker& health() const { return health_; }
  std::size_t in_flight() const { return pending_.size(); }
  // True once the anti-spoofing defenses concluded this endpoint is being
  // attacked (a forgery abort fired, or repeated wrong-port rejections).
  // Scan provenance threads this into ScanQuality as `under_attack`.
  bool under_attack(const net::IpAddress& server) const {
    return under_attack_.count(server) > 0;
  }
  std::size_t servers_under_attack() const { return under_attack_.size(); }
  // The engine's dnsboot_engine_* counters and RTT histogram; run_survey
  // merges this into the survey-wide registry.
  const obs::MetricsRegistry& metrics() const { return metrics_; }

 private:
  struct Pending {
    net::IpAddress server;
    dns::Name qname;
    dns::RRType qtype;
    Callback callback;
    int attempts_left = 0;
    int attempt = 0;  // attempts started (0 before the first send)
    std::uint64_t timeout_timer = 0;
    bool use_tcp = false;  // set after a truncated (TC=1) UDP response
    net::SimTime sent_at = 0;        // when the last datagram left (for RTT)
    // A send of this query has fired. Until then no answer can be
    // authentic; sent_at cannot tell, since a send at time 0 is legitimate.
    bool sent = false;
    net::SimTime prev_backoff = 0;   // decorrelated-jitter state
    net::SimTime issued_at = 0;      // when the logical query was issued
    bool traced = false;             // sampled for a trace span
    std::uint16_t sport = 0;         // randomized source port (0: unmodelled)
    int forged_candidates = 0;       // rejected candidates attributed here
    bool forgery_aborted = false;    // birthday abort already fired
  };

  void send_attempt(std::uint16_t id);
  void handle_datagram(const net::Datagram& dgram);
  void handle_timeout(std::uint16_t id);
  void finish(std::uint16_t id, Result<dns::Message> result);
  std::uint16_t allocate_id();
  net::SimTime attempt_timeout(int attempt) const;
  net::SimTime next_backoff(Pending& p);
  bool retry_budget_available() const;
  // Anti-spoofing bookkeeping: a pending question, compared as the wire
  // compares it (Name == ignores case). The hash reads the pooled canonical
  // text in place, so indexing a query allocates nothing.
  struct QuestionKey {
    net::IpAddress server;
    dns::Name qname;
    dns::RRType qtype;
    bool operator==(const QuestionKey&) const = default;
  };
  struct QuestionKeyHash {
    std::size_t operator()(const QuestionKey& key) const noexcept;
  };
  void index_question(std::uint16_t id, const Pending& p);
  void unindex_question(std::uint16_t id, const Pending& p);
  // A rejected response carrying a pending question: count it against that
  // query and fire the birthday abort at the threshold.
  void note_forged_candidate(const net::Datagram& dgram,
                             const dns::Message& message);
  void count_forged_candidate(std::uint16_t id, Pending& p);
  void mark_under_attack(const net::IpAddress& server);

  net::Transport& network_;
  net::IpAddress local_address_;
  QueryEngineOptions options_;
  std::unordered_map<std::uint16_t, Pending> pending_;
  std::uint16_t next_id_ = 1;
  // Rate pacing: earliest time the next datagram may leave for a server.
  std::unordered_map<net::IpAddress, net::SimTime, net::IpAddressHash>
      next_free_;
  // Forgery attribution: (server, qname, qtype) -> pending id. A rejected
  // response that names a pending question is a spoof candidate against that
  // query (the needle the birthday-abort defense counts). Duplicate
  // questions keep the first index entry; attribution is a heuristic, not a
  // correctness path.
  std::unordered_map<QuestionKey, std::uint16_t, QuestionKeyHash>
      pending_by_question_;
  // Per-server wrong-destination-port rejections (threshold marks the
  // server) and the marked set itself.
  std::unordered_map<net::IpAddress, int, net::IpAddressHash> port_mismatches_;
  std::unordered_set<net::IpAddress, net::IpAddressHash> under_attack_;
  // Registry before its views (members initialize in declaration order).
  obs::MetricsRegistry metrics_;
  QueryEngineStats stats_{metrics_};
  DefenseStats defense_{metrics_};
  obs::Histogram& rtt_histogram_{metrics_.histogram("dnsboot_engine_rtt_usec")};
  ServerHealthTracker health_;
  Rng rng_;
};

}  // namespace dnsboot::resolver
