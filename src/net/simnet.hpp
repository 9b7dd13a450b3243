// SimNetwork — a discrete-event network simulator carrying UDP-style
// datagrams between simulated endpoints.
//
// This is the substitution for the live Internet (see DESIGN.md §1): the
// scanner and the authoritative servers exchange real DNS wire-format
// messages over it, while latency, jitter, loss and anycast behaviour are
// modelled here. Everything is deterministic given the seed.
//
// Beyond the LinkModel, the simulator is a scriptable fault-injection
// harness: per-destination FaultProfiles add time-windowed blackholes,
// periodic link flaps, bursty loss, duplication, reordering and payload
// corruption — the fault classes a real scan meets (paper §3, §4.4).
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "base/bytes.hpp"
#include "base/rng.hpp"
#include "net/address.hpp"
#include "net/event_queue.hpp"
#include "net/transport.hpp"
#include "obs/stats.hpp"

namespace dnsboot::net {

// Link characteristics, shared by every path.
struct LinkModel {
  SimTime base_latency = 10 * kMillisecond;  // one-way
  SimTime jitter = 2 * kMillisecond;         // uniform [0, jitter)
  double loss_rate = 0.0;                    // per-datagram drop probability
};

// Half-open interval of simulated time.
struct TimeWindow {
  SimTime start = 0;
  SimTime end = kSimTimeForever;

  bool contains(SimTime t) const { return t >= start && t < end; }
  bool is_forever() const { return start == 0 && end == kSimTimeForever; }
};

// A scriptable fault schedule for the datagrams addressed to one endpoint.
// All probability draws come from the network's seeded RNG, so a chaos run
// is reproducible.
// Drop classes are evaluated in order: blackhole, flap, burst, uniform loss;
// surviving datagrams may then be corrupted, reordered, or duplicated.
struct FaultProfile {
  // Independent per-datagram loss, on top of the LinkModel's rate.
  double loss_rate = 0.0;

  // Total loss inside any of these windows (route withdrawal / dead host).
  std::vector<TimeWindow> blackholes;

  // Periodic link flap: the link is down for the first `flap_down` of every
  // `flap_period` (shifted by `flap_phase`). Disabled when period is 0.
  SimTime flap_period = 0;
  SimTime flap_down = 0;
  SimTime flap_phase = 0;

  // Bursty loss (congestion episodes): each surviving datagram enters a
  // burst with probability `burst_enter`; for the next `burst_duration` of
  // simulated time datagrams drop with probability `burst_loss`.
  double burst_enter = 0.0;
  SimTime burst_duration = 0;
  double burst_loss = 1.0;

  // Non-drop faults on delivered datagrams.
  double duplicate_rate = 0.0;  // deliver a second, later copy
  double reorder_rate = 0.0;    // hold the datagram back by reorder_delay
  SimTime reorder_delay = 50 * kMillisecond;
  double corrupt_rate = 0.0;    // flip one payload bit

  // True when a blackhole window covers all of simulated time: no datagram
  // in this direction can ever arrive (the lint L106 predicate).
  bool permanently_dead() const {
    for (const auto& window : blackholes) {
      if (window.is_forever()) return true;
    }
    return false;
  }
};

// Per-fault-class drop/mutation counters (chaos benches assert on these).
// Since PR 5 this is a registry-backed view (obs/stats.hpp): the fields
// read like the old plain-uint64 struct, but the values live in the
// network's MetricsRegistry as dnsboot_net_fault_* counters and merge via
// MetricsRegistry::merge instead of a hand-written operator+=.
using FaultStats = obs::FaultStats;
using AttackStats = obs::AttackStats;

// One endpoint's attacker script (the ss2DNS threat model): whenever a UDP
// query toward the attacked address is observed on the wire, the attacker
// races the authentic answer with crafted traffic addressed back to the
// querier. Every knob defaults to off; a default AttackProfile is a no-op.
//
// The attacker's position decides what it knows:
//   * off-path (default): it sees that a query happened (a victim it is
//     targeting emitted traffic) but not the ID or source port — spoofed
//     candidates sweep guesses, which is the birthday attack the engine's
//     forgery-abort defense exists for.
//   * on-path (spoof_known_id / spoof_known_port): it read the packet, so
//     forged answers carry the true ID (and true port) — the case only the
//     DNSSEC validation chain can catch, which is why accepted-forgery
//     accounting exists at all.
struct AttackProfile {
  // Off-path spoof sweep: this many forged NXDOMAIN answers per observed
  // query, each with an independently guessed ID (and guessed source port
  // in the engine's ephemeral range), timed to beat the authentic answer.
  int spoof_candidates = 0;
  // On-path knowledge escalation for the spoofed answers.
  bool spoof_known_id = false;
  bool spoof_known_port = false;
  // Wrong-ID flood: junk answers carrying the right question but random IDs
  // across the whole 16-bit space (cache-poisoning chaff).
  int flood_responses = 0;
  // Wrong-tuple injection: the true ID and port, but a wrong source address
  // — what the engine's tuple check exists to reject.
  int wrong_source_responses = 0;
  // Truncation game: probability of injecting a forged TC=1 empty answer,
  // hoping to shove the victim onto a TCP path the attacker can stall.
  double tc_rate = 0.0;
  // Garbage: undecodable junk and oversized replies per observed query.
  int malformed_responses = 0;
  int oversized_responses = 0;

  bool any() const {
    return spoof_candidates > 0 || flood_responses > 0 ||
           wrong_source_responses > 0 || tc_rate > 0 ||
           malformed_responses > 0 || oversized_responses > 0;
  }
};

class SimNetwork : public Transport {
 public:
  explicit SimNetwork(std::uint64_t seed);

  SimTime now() const override { return now_; }

  // Timers follow the Transport timer-id contract (net/transport.hpp).
  // A run() that drains the queue still ends at the latest due time of any
  // timer cancelled while queued, if that is later than the last event it
  // fired: the clock reads as if cancelled timers had stayed queued and
  // expired unfired.
  std::uint64_t schedule(SimTime delay, TimerHandler fn) override;
  void cancel(std::uint64_t timer_id) override;

  // Outstanding (scheduled, neither fired nor cancelled) timers. The
  // bookkeeping must stay bounded by the number of live timers — long chaos
  // runs schedule millions of timers over their lifetime.
  std::size_t timer_bookkeeping_size() const { return queue_.live_timers(); }

  // Attach a handler to an address. Binding an already-bound address
  // replaces the handler (used for fail-over in tests).
  void bind(const IpAddress& address, DatagramHandler handler) override;
  void unbind(const IpAddress& address) override;
  bool is_bound(const IpAddress& address) const override;

  // Queue a datagram for delivery after the path's modelled latency. Lost
  // datagrams are silently dropped (the caller sees a timeout, as on a real
  // network).
  void send(const IpAddress& source, const IpAddress& destination,
            Bytes payload, bool tcp = false) override;
  void send(Datagram dgram) override;
  // The simulator carries Datagram port fields end-to-end, so endpoints can
  // randomize and check source ports on it.
  bool models_ports() const override { return true; }

  void set_default_link(const LinkModel& model) { default_link_ = model; }

  // Fault schedules are keyed by destination: the rule for an endpoint
  // affects every datagram addressed to it (for a server, its queries).
  // Setting a rule again replaces it.
  void set_faults_to(const IpAddress& destination, const FaultProfile& profile);

  // Station an attacker watching traffic toward `target`. The attacker has
  // its own RNG (callers fork it per endpoint so plans are order-stable) and
  // its crafted datagrams bypass the fault rules and the network RNG
  // entirely: the legitimate event stream — timing, drops, corruption — is
  // bit-for-bit what it would be without the attacker. That isolation is
  // what makes the clean-vs-adversarial report-identity guarantee testable.
  void set_attack_on(const IpAddress& target, const AttackProfile& profile,
                     Rng rng);
  const AttackStats& attack_stats() const { return attack_stats_; }

  // Process events until the queue is empty or `max_events` fire.
  // Returns the number of events processed. When the queue empties first,
  // now() ends no earlier than the latest cancelled timer's due time (see
  // cancel()); a run stopped by `max_events` ends at its last event.
  std::size_t run(std::size_t max_events = SIZE_MAX) override;
  // Process events with time <= deadline.
  std::size_t run_until(SimTime deadline);

  // Statistics (for the scanner feasibility bench, paper App. D).
  std::uint64_t datagrams_sent() const override { return datagrams_sent_; }
  std::uint64_t datagrams_delivered() const override {
    return datagrams_delivered_;
  }
  std::uint64_t datagrams_dropped() const { return datagrams_dropped_; }
  std::uint64_t datagrams_unroutable() const { return datagrams_unroutable_; }
  std::uint64_t bytes_sent() const override { return bytes_sent_; }
  // Lifetime total of events fired (throughput benches report events/sec).
  std::uint64_t events_processed() const { return events_processed_; }
  const FaultStats& fault_stats() const { return fault_stats_; }

  // Every SimNetwork counter above, by metric name (dnsboot_net_*).
  const obs::MetricsRegistry* metrics_registry() const override {
    return &metrics_;
  }

 private:
  // Move-only: events carry either a timer closure or a Datagram payload.
  // Datagram deliveries skip the std::function entirely — the run loop does
  // the handler lookup itself, so queueing a delivery allocates nothing
  // beyond the payload it already owns.
  struct Event {
    bool is_delivery = false;
    Datagram dgram;      // valid when is_delivery
    TimerHandler action; // valid otherwise

    Event() = default;
    Event(Event&&) = default;
    Event& operator=(Event&&) = default;
    Event(const Event&) = delete;
    Event& operator=(const Event&) = delete;
  };
  // A fault rule plus its mutable burst state.
  struct FaultRule {
    FaultProfile profile;
    SimTime burst_until = 0;  // end of the current burst episode, if any
  };
  // An attacker stationed at one endpoint, with its private RNG.
  struct AttackRule {
    AttackProfile profile;
    Rng rng;
  };

  void fire_event(Event& event);
  // Evaluate one fault rule against a datagram about to be queued. Returns
  // false when the datagram is dropped; otherwise accumulates extra latency
  // and the mutation flags.
  bool apply_fault_rule(FaultRule& rule, SimTime* extra_latency,
                        bool* duplicate, bool* corrupt);
  void deliver(Datagram dgram, SimTime latency);
  // Attack hook: if `query` is a UDP DNS query toward an attacked endpoint,
  // craft and queue the attacker's racing traffic. Uses only the rule's own
  // RNG and deliver() — never rng_ or the fault rules.
  void maybe_inject_attack(const Datagram& query);

  SimTime now_ = 0;
  // Latest due time of a timer cancelled while queued (see cancel()).
  SimTime cancelled_horizon_ = 0;
  // Deliveries and timers in one queue, so both draw from one sequence and
  // pop in one total (due, sequence) order: the simulation never depends on
  // slot numbering or on which cancelled timers left early.
  EventQueue<Event> queue_;
  std::unordered_map<IpAddress, DatagramHandler, IpAddressHash> handlers_;
  std::unordered_map<IpAddress, FaultRule, IpAddressHash> faults_to_;
  std::unordered_map<IpAddress, AttackRule, IpAddressHash> attacks_;
  LinkModel default_link_;
  Rng rng_;

  // Declared before the counter views below: the views hold pointers into
  // this registry, and members initialize in declaration order.
  obs::MetricsRegistry metrics_;
  obs::CounterRef datagrams_sent_{metrics_.counter("dnsboot_net_datagrams_sent")};
  obs::CounterRef datagrams_delivered_{
      metrics_.counter("dnsboot_net_datagrams_delivered")};
  obs::CounterRef datagrams_dropped_{
      metrics_.counter("dnsboot_net_datagrams_dropped")};
  obs::CounterRef datagrams_unroutable_{
      metrics_.counter("dnsboot_net_datagrams_unroutable")};
  obs::CounterRef bytes_sent_{metrics_.counter("dnsboot_net_bytes_sent")};
  obs::CounterRef events_processed_{metrics_.counter("dnsboot_net_events")};
  FaultStats fault_stats_{metrics_};
  AttackStats attack_stats_{metrics_};
};

}  // namespace dnsboot::net
