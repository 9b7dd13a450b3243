// Registry-backed stats views (DESIGN.md §11). PRs 2–4 grew three parallel
// counter structs — QueryEngineStats, ScannerStats, FaultStats — each with
// its own hand-written operator+= shard merge. They are now thin *views*
// over obs::MetricsRegistry: every field is a CounterRef bound to a named
// registry counter, so existing call sites (`++stats.queries`,
// `stats.sends`, report_io field writes, test assertions) compile
// unchanged, while merging collapsed into the one generic
// MetricsRegistry::merge() and the same counters feed /metrics,
// --metrics-json and the bench histogram hook for free.
//
// Lifetime rule: a view is a bundle of pointers into one registry. Never
// assign a view across registries (the old `result.stats = engine.stats()`
// pattern) — merge the registries instead, then bind a fresh view over the
// merged one. Default-constructed views are unbound: reads yield 0, writes
// are dropped.
#pragma once

#include <cstdint>

#include "obs/metrics.hpp"

namespace dnsboot::obs {

// A borrowed counter handle that imitates the old `std::uint64_t` fields.
// Implicit conversion keeps every read site compiling; ++/+= keep every
// write site compiling.
class CounterRef {
 public:
  CounterRef() = default;
  explicit CounterRef(Counter& counter) : counter_(&counter) {}

  std::uint64_t value() const { return counter_ ? counter_->get() : 0; }
  operator std::uint64_t() const { return value(); }  // NOLINT(google-explicit-constructor)

  CounterRef& operator++() {
    if (counter_) counter_->add(1);
    return *this;
  }
  CounterRef& operator+=(std::uint64_t n) {
    if (counter_) counter_->add(n);
    return *this;
  }

 private:
  Counter* counter_ = nullptr;
};

// resolver::QueryEngine counters (metric family dnsboot_engine_*).
struct QueryEngineStats {
  CounterRef queries;        // logical queries issued by callers
  CounterRef sends;          // datagrams sent (includes retries)
  CounterRef responses;      // matched responses
  CounterRef timeouts;       // logical queries that exhausted retries
  CounterRef retries;
  CounterRef mismatched;     // responses that matched no pending query
  CounterRef tcp_fallbacks;  // truncated UDP answers retried over TCP
  CounterRef truncation_loops;     // TCP answers still truncated
  CounterRef fail_fast;            // rejected by an open circuit
  CounterRef servfail_cache_hits;  // answered from the RFC 9520 cache
  CounterRef budget_denied;        // retries denied by the budget

  QueryEngineStats() = default;
  explicit QueryEngineStats(MetricsRegistry& reg)
      : queries(reg.counter("dnsboot_engine_queries")),
        sends(reg.counter("dnsboot_engine_sends")),
        responses(reg.counter("dnsboot_engine_responses")),
        timeouts(reg.counter("dnsboot_engine_timeouts")),
        retries(reg.counter("dnsboot_engine_retries")),
        mismatched(reg.counter("dnsboot_engine_mismatched")),
        tcp_fallbacks(reg.counter("dnsboot_engine_tcp_fallbacks")),
        truncation_loops(reg.counter("dnsboot_engine_truncation_loops")),
        fail_fast(reg.counter("dnsboot_engine_fail_fast")),
        servfail_cache_hits(
            reg.counter("dnsboot_engine_servfail_cache_hits")),
        budget_denied(reg.counter("dnsboot_engine_budget_denied")) {}

  // Sends that never produced a matched response — the waste metric the
  // chaos bench compares across retry policies.
  std::uint64_t wasted_sends() const {
    const std::uint64_t s = sends, r = responses;
    return s >= r ? s - r : 0;
  }
};

// scanner::Scanner counters (metric family dnsboot_scanner_*).
struct ScannerStats {
  CounterRef zones_scanned;  // zone scans finished (requeues count)
  CounterRef zones_failed;   // delivered with unresolved delegation
  CounterRef signal_probes;
  CounterRef pool_zones_sampled;
  CounterRef pool_zones_full;
  CounterRef zones_complete;   // delivered fully observed
  CounterRef zones_degraded;   // delivered with failed probes
  CounterRef zones_requeued;   // rescans queued by the requeue pass
  CounterRef zones_recovered;  // requeue strictly improved the result

  ScannerStats() = default;
  explicit ScannerStats(MetricsRegistry& reg)
      : zones_scanned(reg.counter("dnsboot_scanner_zones_scanned")),
        zones_failed(reg.counter("dnsboot_scanner_zones_failed")),
        signal_probes(reg.counter("dnsboot_scanner_signal_probes")),
        pool_zones_sampled(reg.counter("dnsboot_scanner_pool_zones_sampled")),
        pool_zones_full(reg.counter("dnsboot_scanner_pool_zones_full")),
        zones_complete(reg.counter("dnsboot_scanner_zones_complete")),
        zones_degraded(reg.counter("dnsboot_scanner_zones_degraded")),
        zones_requeued(reg.counter("dnsboot_scanner_zones_requeued")),
        zones_recovered(reg.counter("dnsboot_scanner_zones_recovered")) {}
};

// net::SimNetwork fault-injection counters (family dnsboot_net_fault_*).
struct FaultStats {
  CounterRef blackholed;
  CounterRef flap_dropped;
  CounterRef burst_dropped;
  CounterRef fault_lost;  // FaultProfile::loss_rate drops
  CounterRef corrupted;
  CounterRef reordered;
  CounterRef duplicated;

  FaultStats() = default;
  explicit FaultStats(MetricsRegistry& reg)
      : blackholed(reg.counter("dnsboot_net_fault_blackholed")),
        flap_dropped(reg.counter("dnsboot_net_fault_flap_dropped")),
        burst_dropped(reg.counter("dnsboot_net_fault_burst_dropped")),
        fault_lost(reg.counter("dnsboot_net_fault_lost")),
        corrupted(reg.counter("dnsboot_net_fault_corrupted")),
        reordered(reg.counter("dnsboot_net_fault_reordered")),
        duplicated(reg.counter("dnsboot_net_fault_duplicated")) {}
};

// net::SimNetwork attacker-layer counters (family dnsboot_attack_*): what
// the adversary injected, by taxonomy class. Written by the simulator, read
// by the survey robustness summary and the adversarial acceptance tests.
struct AttackStats {
  CounterRef queries_observed;      // UDP queries seen toward attacked targets
  CounterRef spoofs_injected;       // off-path spoof-sweep candidates
  CounterRef floods_injected;       // wrong-ID junk responses
  CounterRef wrong_tuple_injected;  // right ID/port, wrong source address
  CounterRef tc_injected;           // forged TC=1 truncation-game replies
  CounterRef malformed_injected;    // undecodable junk replies
  CounterRef oversized_injected;    // replies past any sane UDP budget

  AttackStats() = default;
  explicit AttackStats(MetricsRegistry& reg)
      : queries_observed(reg.counter("dnsboot_attack_queries_observed")),
        spoofs_injected(reg.counter("dnsboot_attack_spoofs_injected")),
        floods_injected(reg.counter("dnsboot_attack_floods_injected")),
        wrong_tuple_injected(
            reg.counter("dnsboot_attack_wrong_tuple_injected")),
        tc_injected(reg.counter("dnsboot_attack_tc_injected")),
        malformed_injected(reg.counter("dnsboot_attack_malformed_injected")),
        oversized_injected(reg.counter("dnsboot_attack_oversized_injected")) {}

  std::uint64_t total_injected() const {
    return spoofs_injected + floods_injected + wrong_tuple_injected +
           tc_injected + malformed_injected + oversized_injected;
  }
};

// resolver::QueryEngine anti-spoofing counters (family dnsboot_defense_*).
// accepted_forgeries is the headline number: it counts matched responses
// whose ground-truth `injected` marker was set, and the adversarial
// acceptance criterion is that it stays exactly 0 off-path.
struct DefenseStats {
  CounterRef forged_rejected;    // rejected responses attributed to a pending
                                 // question (spoof-sweep candidates)
  CounterRef port_rejected;      // right ID, wrong destination port
  CounterRef malformed_rejected; // undecodable payloads shed
  CounterRef forgery_aborts;     // birthday detection: UDP abandoned for TCP
  CounterRef accepted_forgeries; // injected datagrams that completed a query
  CounterRef servers_marked;     // endpoints marked under_attack

  DefenseStats() = default;
  explicit DefenseStats(MetricsRegistry& reg)
      : forged_rejected(reg.counter("dnsboot_defense_forged_rejected")),
        port_rejected(reg.counter("dnsboot_defense_port_rejected")),
        malformed_rejected(reg.counter("dnsboot_defense_malformed_rejected")),
        forgery_aborts(reg.counter("dnsboot_defense_forgery_aborts")),
        accepted_forgeries(
            reg.counter("dnsboot_defense_accepted_forgeries")),
        servers_marked(reg.counter("dnsboot_defense_servers_marked")) {}
};

}  // namespace dnsboot::obs
