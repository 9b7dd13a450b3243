#include "net/simnet.hpp"

#include <algorithm>
#include <utility>

#include "dns/message.hpp"

namespace dnsboot::net {

SimNetwork::SimNetwork(std::uint64_t seed) : rng_(seed) {
  queue_.reserve(1024);
}

void SimNetwork::fire_event(Event& event) {
  if (event.is_delivery) {
    auto it = handlers_.find(event.dgram.destination);
    if (it == handlers_.end()) {
      ++datagrams_unroutable_;
    } else {
      ++datagrams_delivered_;
      it->second(event.dgram);
    }
  } else {
    event.action();
  }
}

std::uint64_t SimNetwork::schedule(SimTime delay, TimerHandler fn) {
  Event event;
  event.action = std::move(fn);
  return queue_.push_timer(now_ + delay, std::move(event));
}

void SimNetwork::cancel(std::uint64_t timer_id) {
  if (const auto due = queue_.cancel(timer_id)) {
    cancelled_horizon_ = std::max(cancelled_horizon_, *due);
  }
}

void SimNetwork::bind(const IpAddress& address, DatagramHandler handler) {
  handlers_[address] = std::move(handler);
}

void SimNetwork::unbind(const IpAddress& address) { handlers_.erase(address); }

bool SimNetwork::is_bound(const IpAddress& address) const {
  return handlers_.count(address) > 0;
}

void SimNetwork::set_faults_to(const IpAddress& destination,
                               const FaultProfile& profile) {
  faults_to_[destination] = FaultRule{profile, 0};
}

void SimNetwork::set_attack_on(const IpAddress& target,
                               const AttackProfile& profile, Rng rng) {
  if (!profile.any()) {
    attacks_.erase(target);
    return;
  }
  attacks_.insert_or_assign(target, AttackRule{profile, std::move(rng)});
}

void SimNetwork::maybe_inject_attack(const Datagram& query) {
  if (attacks_.empty() || query.tcp || query.injected) return;
  auto it = attacks_.find(query.destination);
  if (it == attacks_.end()) return;
  AttackRule& rule = it->second;
  const AttackProfile& prof = rule.profile;

  // The attacker only reacts to DNS queries; responses (and junk) on the
  // same path are of no use to it.
  auto message = dns::Message::decode(query.payload);
  if (!message.ok() || message->header.qr || message->questions.size() != 1) {
    return;
  }
  ++attack_stats_.queries_observed;

  // All crafted traffic is timed to race — and usually beat — the authentic
  // answer: the attacker sits nearer the victim than the server, so its
  // packets take about half of one one-way link latency, while the real
  // answer needs a full round trip plus service time.
  const LinkModel& link = default_link_;
  auto racing_latency = [&]() -> SimTime {
    SimTime base = link.base_latency / 2;
    SimTime jitter = link.jitter > 0 ? rule.rng.next_below(link.jitter) : 0;
    return std::max<SimTime>(1, base + jitter);
  };
  // Fire one crafted datagram at the victim, spoofing `from` as its source.
  auto inject = [&](dns::Message forged, const IpAddress& from,
                    std::uint16_t to_port) {
    Datagram dgram;
    dgram.source = from;
    dgram.destination = query.source;
    dgram.payload = forged.encode();
    dgram.source_port = query.destination_port;  // looks like the server
    dgram.destination_port = to_port;
    dgram.injected = true;
    deliver(std::move(dgram), racing_latency());
  };
  // A forged answer must echo the question to get past the engine's
  // question check — copying it is free for on- and off-path alike (the
  // question is what the off-path attacker is targeting in the first place).
  auto forged_answer = [&](std::uint16_t id) {
    dns::Message forged = dns::Message::make_response(*message);
    forged.header.id = id;
    forged.header.aa = true;
    forged.header.rcode = dns::Rcode::kNxDomain;
    return forged;
  };
  auto guess_id = [&]() -> std::uint16_t {
    if (prof.spoof_known_id) return message->header.id;
    return static_cast<std::uint16_t>(rule.rng.next_below(0x10000));
  };
  // The engine draws ephemeral ports from 49152..65535; a realistic
  // attacker knows the range, so the sweep guesses inside it.
  auto guess_port = [&]() -> std::uint16_t {
    if (prof.spoof_known_port || query.source_port == 0) {
      return query.source_port;
    }
    return static_cast<std::uint16_t>(49152 + rule.rng.next_below(16384));
  };

  for (int i = 0; i < prof.spoof_candidates; ++i) {
    inject(forged_answer(guess_id()), query.destination, guess_port());
    ++attack_stats_.spoofs_injected;
  }
  for (int i = 0; i < prof.flood_responses; ++i) {
    // Chaff across the whole ID space. The port is guessed like any other
    // off-path packet: an attacker who can read the victim's ephemeral port
    // is on-path, and models that via spoof_known_port instead. (Granting
    // the true port here would turn every flood into a 1/65536 ID lottery
    // that no resolver-side defense can win at volume.)
    inject(forged_answer(
               static_cast<std::uint16_t>(rule.rng.next_below(0x10000))),
           query.destination, guess_port());
    ++attack_stats_.floods_injected;
  }
  for (int i = 0; i < prof.wrong_source_responses; ++i) {
    // The true ID and port from a wrong address: only the tuple check
    // stands between this and acceptance.
    IpAddress wrong_source = IpAddress::v4(
        {198, 18, static_cast<std::uint8_t>(rule.rng.next_below(256)),
         static_cast<std::uint8_t>(rule.rng.next_below(256))});
    inject(forged_answer(message->header.id), wrong_source,
           query.source_port);
    ++attack_stats_.wrong_tuple_injected;
  }
  if (prof.tc_rate > 0 && rule.rng.chance(prof.tc_rate)) {
    dns::Message forged = forged_answer(guess_id());
    forged.header.rcode = dns::Rcode::kNoError;
    forged.header.tc = true;
    inject(std::move(forged), query.destination, guess_port());
    ++attack_stats_.tc_injected;
  }
  for (int i = 0; i < prof.malformed_responses; ++i) {
    // Undecodable junk: a truncated header's worth of random bytes.
    Datagram dgram;
    dgram.source = query.destination;
    dgram.destination = query.source;
    dgram.payload = rule.rng.bytes(1 + rule.rng.next_below(11));
    dgram.source_port = query.destination_port;
    dgram.destination_port = query.source_port;
    dgram.injected = true;
    deliver(std::move(dgram), racing_latency());
    ++attack_stats_.malformed_injected;
  }
  for (int i = 0; i < prof.oversized_responses; ++i) {
    // A response far past any advertised UDP budget; the first bytes look
    // like a plausible header so lazy parsers bite.
    Datagram dgram;
    dgram.source = query.destination;
    dgram.destination = query.source;
    dgram.payload = forged_answer(guess_id()).encode();
    dgram.payload.resize(9000, 0xa5);
    dgram.source_port = query.destination_port;
    dgram.destination_port = guess_port();
    dgram.injected = true;
    deliver(std::move(dgram), racing_latency());
    ++attack_stats_.oversized_injected;
  }
}

bool SimNetwork::apply_fault_rule(FaultRule& rule, SimTime* extra_latency,
                                  bool* duplicate, bool* corrupt) {
  const FaultProfile& p = rule.profile;
  // Drop classes, most to least absolute.
  for (const auto& window : p.blackholes) {
    if (window.contains(now_)) {
      ++fault_stats_.blackholed;
      return false;
    }
  }
  if (p.flap_period > 0 &&
      (now_ + p.flap_phase) % p.flap_period < p.flap_down) {
    ++fault_stats_.flap_dropped;
    return false;
  }
  bool in_burst = now_ < rule.burst_until;
  if (!in_burst && p.burst_enter > 0 && rng_.chance(p.burst_enter)) {
    rule.burst_until = now_ + p.burst_duration;
    in_burst = true;
  }
  if (in_burst && rng_.chance(p.burst_loss)) {
    ++fault_stats_.burst_dropped;
    return false;
  }
  if (p.loss_rate > 0 && rng_.chance(p.loss_rate)) {
    ++fault_stats_.fault_lost;
    return false;
  }
  // Mutations on the surviving datagram.
  if (p.reorder_rate > 0 && rng_.chance(p.reorder_rate)) {
    *extra_latency += p.reorder_delay;
    ++fault_stats_.reordered;
  }
  if (p.duplicate_rate > 0 && rng_.chance(p.duplicate_rate)) *duplicate = true;
  if (p.corrupt_rate > 0 && rng_.chance(p.corrupt_rate)) *corrupt = true;
  return true;
}

void SimNetwork::deliver(Datagram dgram, SimTime latency) {
  Event event;
  event.is_delivery = true;
  event.dgram = std::move(dgram);
  queue_.push(now_ + latency, std::move(event));
}

void SimNetwork::send(const IpAddress& source, const IpAddress& destination,
                      Bytes payload, bool tcp) {
  Datagram dgram;
  dgram.source = source;
  dgram.destination = destination;
  dgram.payload = std::move(payload);
  dgram.tcp = tcp;
  send(std::move(dgram));
}

void SimNetwork::send(Datagram dgram) {
  ++datagrams_sent_;
  bytes_sent_ += dgram.payload.size();
  // A stationed attacker observes the query as it leaves — even if a fault
  // rule later eats it (the tap is at the victim's edge, before the lossy
  // middle). The hook draws only the attacker's own RNG, so the legitimate
  // draw sequence below is unchanged whether or not an attack is scripted.
  maybe_inject_attack(dgram);
  const LinkModel& link = default_link_;
  if (rng_.chance(link.loss_rate)) {
    ++datagrams_dropped_;
    return;
  }

  SimTime extra_latency = 0;
  bool duplicate = false;
  bool corrupt = false;
  auto rule = faults_to_.find(dgram.destination);
  if (rule != faults_to_.end() &&
      !apply_fault_rule(rule->second, &extra_latency, &duplicate, &corrupt)) {
    ++datagrams_dropped_;
    return;
  }
  if (corrupt && !dgram.payload.empty()) {
    // One random bit-flip: enough to break the DNS header checksum-free
    // parse or a signature, as real corruption does.
    std::size_t byte = rng_.next_below(dgram.payload.size());
    dgram.payload[byte] ^= static_cast<std::uint8_t>(1u << rng_.next_below(8));
    ++fault_stats_.corrupted;
  }

  SimTime latency = link.base_latency;
  if (link.jitter > 0) latency += rng_.next_below(link.jitter);
  // TCP pays an extra round trip for the handshake.
  if (dgram.tcp) latency += link.base_latency;
  latency += extra_latency;

  if (duplicate) {
    // The copy takes its own (longer) path; it arrives strictly after the
    // original so handlers see a classic stale duplicate.
    SimTime dup_latency = latency + 1 * kMillisecond;
    if (link.jitter > 0) dup_latency += rng_.next_below(link.jitter);
    deliver(dgram, dup_latency);
    ++fault_stats_.duplicated;
  }
  deliver(std::move(dgram), latency);
}

std::size_t SimNetwork::run(std::size_t max_events) {
  std::size_t processed = 0;
  while (!queue_.empty() && processed < max_events) {
    now_ = queue_.next_due();
    Event event = queue_.pop();
    fire_event(event);
    ++processed;
  }
  // Drained: end where the cancelled timers would have expired.
  if (processed < max_events) now_ = std::max(now_, cancelled_horizon_);
  events_processed_ += processed;
  return processed;
}

std::size_t SimNetwork::run_until(SimTime deadline) {
  std::size_t processed = 0;
  while (!queue_.empty() && queue_.next_due() <= deadline) {
    now_ = queue_.next_due();
    Event event = queue_.pop();
    fire_event(event);
    ++processed;
  }
  if (now_ < deadline) now_ = deadline;
  events_processed_ += processed;
  return processed;
}

}  // namespace dnsboot::net
