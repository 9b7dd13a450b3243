#include "resolver/health.hpp"

namespace dnsboot::resolver {

void ServerHealthTracker::open_circuit(Entry& e, net::SimTime now,
                                       bool reopen) {
  e.state = CircuitState::kOpen;
  e.opened_at = now;
  e.half_open_successes = 0;
  if (reopen) {
    ++stats_.circuit_reopens;
  } else {
    ++stats_.circuit_opens;
  }
}

bool ServerHealthTracker::allow(const net::IpAddress& server,
                                net::SimTime now) {
  if (!options_.enable_circuit_breaker) return true;
  Entry& e = entry(server);
  switch (e.state) {
    case CircuitState::kClosed:
      return true;
    case CircuitState::kOpen:
      if (now < e.opened_at + options_.open_cooldown) {
        ++stats_.fail_fast;
        return false;
      }
      e.state = CircuitState::kHalfOpen;
      e.half_open_successes = 0;
      [[fallthrough]];
    case CircuitState::kHalfOpen:
      ++stats_.half_open_probes;
      return true;
  }
  return true;
}

void ServerHealthTracker::record_success(const net::IpAddress& server) {
  if (!options_.enable_circuit_breaker) return;
  Entry& e = entry(server);
  e.consecutive_failures = 0;
  if (e.state == CircuitState::kHalfOpen &&
      ++e.half_open_successes >= options_.half_open_successes) {
    e.state = CircuitState::kClosed;
    ++stats_.circuit_closes;
  }
  // A success while kOpen is a late answer to a pre-open query; the breaker
  // still waits out its cooldown.
}

void ServerHealthTracker::record_failure(const net::IpAddress& server,
                                         net::SimTime now) {
  if (!options_.enable_circuit_breaker) return;
  Entry& e = entry(server);
  if (e.state == CircuitState::kHalfOpen) {
    open_circuit(e, now, /*reopen=*/true);
    return;
  }
  if (e.state == CircuitState::kOpen) return;
  if (++e.consecutive_failures >= options_.failure_threshold) {
    open_circuit(e, now, /*reopen=*/false);
  }
}

void ServerHealthTracker::record_servfail(const net::IpAddress& server,
                                          const dns::Name& qname,
                                          dns::RRType qtype,
                                          net::SimTime now) {
  if (!options_.enable_servfail_cache) return;
  servfail_cache_[{server, qname.canonical_text(), qtype}] =
      now + options_.servfail_ttl;
  ++stats_.servfail_cached;
}

bool ServerHealthTracker::servfail_cached(const net::IpAddress& server,
                                          const dns::Name& qname,
                                          dns::RRType qtype,
                                          net::SimTime now) {
  if (!options_.enable_servfail_cache) return false;
  auto it = servfail_cache_.find({server, qname.canonical_text(), qtype});
  if (it == servfail_cache_.end()) return false;
  if (now >= it->second) {
    servfail_cache_.erase(it);
    return false;
  }
  ++stats_.servfail_cache_hits;
  return true;
}

CircuitState ServerHealthTracker::state(const net::IpAddress& server) const {
  auto it = servers_.find(server);
  return it == servers_.end() ? CircuitState::kClosed : it->second.state;
}

}  // namespace dnsboot::resolver
