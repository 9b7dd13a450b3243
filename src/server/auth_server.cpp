#include "server/auth_server.hpp"

#include <algorithm>
#include <optional>

#include "dnssec/nsec3.hpp"

namespace dnsboot::server {
namespace {

// NSEC3 parameters of a zone, when it uses hashed denial.
std::optional<dnssec::Nsec3Params> nsec3_params_of(const dns::Zone& zone) {
  const dns::RRset* param =
      zone.find_rrset(zone.origin(), dns::RRType::kNSEC3PARAM);
  if (param == nullptr || param->rdatas.empty()) return std::nullopt;
  const auto& rdata = std::get<dns::Nsec3ParamRdata>(param->rdatas[0]);
  return dnssec::Nsec3Params{rdata.iterations, rdata.salt};
}

// The RR types a pre-2003 (pre-RFC 3597) implementation knows about; anything
// else draws FORMERR from the kLegacyFormerr profile.
bool legacy_known_type(dns::RRType type) {
  switch (type) {
    case dns::RRType::kA:
    case dns::RRType::kNS:
    case dns::RRType::kCNAME:
    case dns::RRType::kSOA:
    case dns::RRType::kPTR:
    case dns::RRType::kMX:
    case dns::RRType::kTXT:
    case dns::RRType::kAAAA:
      return true;
    default:
      return false;
  }
}

}  // namespace

AuthServer::AuthServer(ServerConfig config, std::uint64_t seed)
    : config_(std::move(config)), rng_(seed) {
  // Pre-create the whole rcode family now so the serve-mode scrape thread
  // only ever reads the registry maps, never racing an insertion.
  rcode_counters_.reserve(7);
  for (int rcode = 0; rcode <= 5; ++rcode) {
    rcode_counters_.push_back(&metrics_.counter(
        "dnsboot_server_responses", "rcode", std::to_string(rcode)));
  }
  rcode_counters_.push_back(
      &metrics_.counter("dnsboot_server_responses", "rcode", "other"));
}

void AuthServer::count_response(dns::Rcode rcode) {
  const std::size_t index = static_cast<std::size_t>(rcode);
  rcode_counters_[index < 6 ? index : 6]->add(1);
}

void AuthServer::add_zone(std::shared_ptr<const dns::Zone> zone) {
  zones_[zone->origin().canonical_text()] = std::move(zone);
  ++generation_;
}

std::shared_ptr<const dns::Zone> AuthServer::zone_for(
    const dns::Name& name) const {
  // Longest-origin match: walk the name's ancestors from most to least
  // specific. O(labels * log zones) — operators here serve 10^5 zones.
  dns::Name walk = name;
  while (true) {
    auto it = zones_.find(walk.canonical_text());
    if (it != zones_.end()) return it->second;
    if (walk.is_root()) return nullptr;
    walk = walk.parent();
  }
}

void AuthServer::append_rrset_with_sigs(
    const dns::Zone& zone, const dns::RRset& rrset, bool dnssec_ok,
    std::vector<dns::ResourceRecord>* section) {
  for (const auto& rr : rrset.to_records()) section->push_back(rr);
  if (dnssec_ok) {
    for (const auto& sig : zone.signatures_covering(rrset.name, rrset.type)) {
      section->push_back(sig);
    }
  }
}

dns::Message AuthServer::respond_parking(const dns::Message& query) {
  // The Afternic model: every query for every name gets the same
  // authoritative-looking answer. NS queries return the parking NS set;
  // address queries return a parking address; everything else is NODATA
  // without an SOA (these servers are not careful about standards).
  dns::Message response = dns::Message::make_response(query);
  response.header.aa = true;
  const dns::Question& q = query.questions[0];
  if (q.type == dns::RRType::kNS) {
    for (const auto& ns : config_.parking_ns) {
      dns::ResourceRecord rr;
      rr.name = q.name;
      rr.type = dns::RRType::kNS;
      rr.ttl = 300;
      rr.rdata = dns::NsRdata{ns};
      response.answers.push_back(std::move(rr));
    }
  } else if (q.type == dns::RRType::kA) {
    dns::ResourceRecord rr;
    rr.name = q.name;
    rr.type = dns::RRType::kA;
    rr.ttl = 300;
    rr.rdata = dns::ARdata{{203, 0, 113, 1}};
    response.answers.push_back(std::move(rr));
  } else if (q.type == dns::RRType::kSOA) {
    dns::ResourceRecord rr;
    rr.name = q.name;
    rr.type = dns::RRType::kSOA;
    rr.ttl = 300;
    rr.rdata = dns::SoaRdata{config_.parking_ns.empty()
                                 ? q.name
                                 : config_.parking_ns.front(),
                             q.name, 1, 3600, 600, 86400, 300};
    response.answers.push_back(std::move(rr));
  }
  return response;
}

dns::Message AuthServer::respond_from_zone(const dns::Message& query,
                                           const dns::Zone& zone) {
  dns::Message response = dns::Message::make_response(query);
  const dns::Question& q = query.questions[0];
  const bool dnssec_ok = query.dnssec_ok();

  auto lookup = zone.lookup(q.name, q.type);
  using Kind = dns::Zone::LookupResult::Kind;
  switch (lookup.kind) {
    case Kind::kAnswer:
    case Kind::kCname:
      response.header.aa = true;
      append_rrset_with_sigs(zone, *lookup.rrset, dnssec_ok,
                             &response.answers);
      break;
    case Kind::kNoData: {
      response.header.aa = true;
      if (const dns::RRset* soa = zone.soa()) {
        append_rrset_with_sigs(zone, *soa, dnssec_ok,
                               &response.authorities);
      }
      if (dnssec_ok) {
        if (const dns::RRset* nsec =
                zone.find_rrset(q.name, dns::RRType::kNSEC)) {
          append_rrset_with_sigs(zone, *nsec, dnssec_ok,
                                 &response.authorities);
        } else if (auto params = nsec3_params_of(zone)) {
          dns::Name owner =
              dnssec::nsec3_owner(q.name, zone.origin(), *params);
          if (const dns::RRset* nsec3 =
                  zone.find_rrset(owner, dns::RRType::kNSEC3)) {
            append_rrset_with_sigs(zone, *nsec3, dnssec_ok,
                                   &response.authorities);
          }
        }
      }
      break;
    }
    case Kind::kNxDomain: {
      response.header.aa = true;
      response.header.rcode = dns::Rcode::kNxDomain;
      if (const dns::RRset* soa = zone.soa()) {
        append_rrset_with_sigs(zone, *soa, dnssec_ok,
                               &response.authorities);
      }
      if (dnssec_ok) {
        if (auto params = nsec3_params_of(zone)) {
          // RFC 5155 §7.2.2: matching NSEC3 for the closest encloser and a
          // covering NSEC3 for the next-closer name.
          dns::Name closest = q.name.parent();
          dns::Name next_closer = q.name;
          while (closest.label_count() >= zone.origin().label_count()) {
            dns::Name owner =
                dnssec::nsec3_owner(closest, zone.origin(), *params);
            if (const dns::RRset* match =
                    zone.find_rrset(owner, dns::RRType::kNSEC3)) {
              append_rrset_with_sigs(zone, *match, dnssec_ok,
                                     &response.authorities);
              break;
            }
            if (closest.is_root()) break;
            next_closer = closest;
            closest = closest.parent();
          }
          // The first covering NSEC3 in canonical order, read in place.
          // (Injected broken chains can hold several covering records, so
          // no ordered-predecessor shortcut.)
          if (const dns::RRset* cover = zone.first_rrset_of(
                  dns::RRType::kNSEC3, [&](const dns::RRset& set) {
                    return dnssec::nsec3_covers(set, zone.origin(),
                                                next_closer);
                  })) {
            append_rrset_with_sigs(zone, *cover, dnssec_ok,
                                   &response.authorities);
          }
        } else {
          // Covering NSEC for the denied name: the first in canonical
          // order, as above.
          if (const dns::RRset* cover = zone.first_rrset_of(
                  dns::RRType::kNSEC, [&](const dns::RRset& set) {
                    const auto& nsec =
                        std::get<dns::NsecRdata>(set.rdatas[0]);
                    if (set.name < nsec.next_domain) {
                      return set.name < q.name && q.name < nsec.next_domain;
                    }
                    return set.name < q.name || q.name < nsec.next_domain;
                  })) {
            append_rrset_with_sigs(zone, *cover, dnssec_ok,
                                   &response.authorities);
          }
        }
      }
      break;
    }
    case Kind::kDelegation: {
      // Referral: NS in authority, DS (+sigs) if present, glue in additional.
      response.header.aa = false;
      for (const auto& rr : lookup.rrset->to_records()) {
        response.authorities.push_back(rr);
      }
      if (const dns::RRset* ds =
              zone.find_rrset(lookup.cut_owner, dns::RRType::kDS)) {
        append_rrset_with_sigs(zone, *ds, dnssec_ok,
                               &response.authorities);
      } else if (dnssec_ok) {
        // Prove the absence of DS (insecure delegation).
        if (const dns::RRset* nsec =
                zone.find_rrset(lookup.cut_owner, dns::RRType::kNSEC)) {
          append_rrset_with_sigs(zone, *nsec, dnssec_ok,
                                 &response.authorities);
        }
      }
      for (const auto& rd : lookup.rrset->rdatas) {
        const dns::Name& ns_name = std::get<dns::NsRdata>(rd).nsdname;
        for (dns::RRType glue_type : {dns::RRType::kA, dns::RRType::kAAAA}) {
          if (const dns::RRset* glue = zone.find_rrset(ns_name, glue_type)) {
            for (const auto& rr : glue->to_records()) {
              response.additionals.push_back(rr);
            }
          }
        }
      }
      break;
    }
    case Kind::kNotInZone:
      response.header.rcode = dns::Rcode::kRefused;
      break;
  }
  return response;
}

dns::Message AuthServer::handle(const dns::Message& query) {
  const dns::Zone* source = nullptr;
  return respond(query, &source);
}

dns::Message AuthServer::respond(const dns::Message& query,
                                 const dns::Zone** source) {
  ++queries_handled_;
  dns::Message response = dns::Message::make_response(query);
  if (query.questions.size() != 1) {
    response.header.rcode = dns::Rcode::kFormErr;
    return response;
  }
  const dns::Question& q = query.questions[0];

  if (rng_.chance(config_.transient_servfail_rate)) {
    response.header.rcode = dns::Rcode::kServFail;
    return response;
  }

  if (config_.behavior == ServerBehavior::kLegacyFormerr &&
      !legacy_known_type(q.type)) {
    response.header.rcode = dns::Rcode::kFormErr;
    return response;
  }

  if (config_.behavior == ServerBehavior::kParkingWildcard) {
    return respond_parking(query);
  }

  auto zone = zone_for(q.name);
  if (zone == nullptr) {
    response.header.rcode = dns::Rcode::kRefused;
    return response;
  }
  *source = zone.get();
  response = respond_from_zone(query, *zone);
  maybe_corrupt_signatures(response);
  return response;
}

void AuthServer::maybe_corrupt_signatures(dns::Message& response) {
  if (!rng_.chance(config_.transient_badsig_rate)) return;
  auto corrupt_section = [&](std::vector<dns::ResourceRecord>& section) {
    for (auto& rr : section) {
      if (rr.type != dns::RRType::kRRSIG) continue;
      auto& rrsig = std::get<dns::RrsigRdata>(rr.rdata);
      if (!rrsig.signature.empty()) {
        rrsig.signature[rrsig.signature.size() / 2] ^= 0x01;
      }
    }
  };
  corrupt_section(response.answers);
  corrupt_section(response.authorities);
}

std::vector<dns::Message> AuthServer::handle_axfr(const dns::Message& query) {
  ++queries_handled_;
  std::vector<dns::Message> out;
  auto refuse = [&] {
    dns::Message response = dns::Message::make_response(query);
    response.header.rcode = dns::Rcode::kRefused;
    out = {response};
  };
  if (query.questions.size() != 1 || !config_.allow_axfr) {
    refuse();
    return out;
  }
  const dns::Question& q = query.questions[0];
  auto zone = zone_for(q.name);
  if (zone == nullptr || !(zone->origin() == q.name)) {
    refuse();
    return out;
  }
  const dns::RRset* soa = zone->soa();
  if (soa == nullptr) {
    refuse();
    return out;
  }

  // Serialize: SOA first, every RRset (including signatures), SOA last.
  std::vector<dns::ResourceRecord> stream;
  stream.push_back(soa->to_records()[0]);
  for (const auto& set : zone->all_rrsets()) {
    if (set.type == dns::RRType::kSOA && set.name == zone->origin()) {
      // only at the stream boundaries
    } else {
      for (const auto& rr : set.to_records()) stream.push_back(rr);
    }
    for (const auto& sig : zone->signatures_covering(set.name, set.type)) {
      stream.push_back(sig);
    }
  }
  stream.push_back(soa->to_records()[0]);

  const std::size_t chunk = std::max<std::size_t>(1, config_.axfr_chunk_records);
  for (std::size_t offset = 0; offset < stream.size(); offset += chunk) {
    dns::Message response = dns::Message::make_response(query);
    response.header.aa = true;
    std::size_t end = std::min(stream.size(), offset + chunk);
    response.answers.assign(stream.begin() + static_cast<std::ptrdiff_t>(offset),
                            stream.begin() + static_cast<std::ptrdiff_t>(end));
    out.push_back(std::move(response));
  }
  return out;
}

// Evaluate the chaos fault gates for one incoming query. Returns the extra
// service delay to apply, and fills `short_circuit` with a SERVFAIL/REFUSED
// response when a gate fires.
net::SimTime AuthServer::fault_gate(const dns::Message& query,
                                    net::SimTime now,
                                    std::optional<dns::Message>* short_circuit) {
  const ServerFaultProfile& faults = config_.faults;

  net::SimTime delay = 0;
  if (slow_queries_seen_ < faults.slow_start_queries) {
    ++slow_queries_seen_;
    if (faults.slow_start_penalty > 0) {
      delay = faults.slow_start_penalty;
      ++slow_start_penalized_;
    }
  }

  if (faults.flap_period > 0 && now % faults.flap_period < faults.flap_fail) {
    dns::Message response = dns::Message::make_response(query);
    response.header.rcode = dns::Rcode::kServFail;
    *short_circuit = std::move(response);
    ++flap_servfails_;
    return delay;
  }

  if (faults.rate_limit_qps > 0) {
    if (!rl_initialized_) {
      rl_tokens_ = faults.rate_limit_burst;
      rl_initialized_ = true;
    } else {
      double refill = static_cast<double>(now - rl_last_refill_) *
                      faults.rate_limit_qps / 1e6;
      rl_tokens_ = std::min(faults.rate_limit_burst, rl_tokens_ + refill);
    }
    rl_last_refill_ = now;
    if (rl_tokens_ < 1.0) {
      dns::Message response = dns::Message::make_response(query);
      response.header.rcode = dns::Rcode::kRefused;
      *short_circuit = std::move(response);
      ++rate_limited_;
      return delay;
    }
    rl_tokens_ -= 1.0;
  }
  return delay;
}

// The per-client token bucket. Silent drop on empty (RRL-style): answering
// REFUSED would hand an attacker spoofing a victim's address an amplifier.
bool AuthServer::defense_gate(const net::IpAddress& client,
                              net::SimTime now) {
  const ServerDefenseProfile& defense = config_.defense;
  if (defense.per_client_qps <= 0) return true;
  auto it = client_buckets_.find(client);
  if (it == client_buckets_.end()) {
    if (client_buckets_.size() >= defense.max_clients_tracked) {
      return true;  // table full: fail open (see ServerDefenseProfile)
    }
    it = client_buckets_
             .emplace(client,
                      ClientBucket{defense.per_client_burst, now})
             .first;
  }
  ClientBucket& bucket = it->second;
  double refill = static_cast<double>(now - bucket.last_refill) *
                  defense.per_client_qps / 1e6;
  bucket.tokens = std::min(defense.per_client_burst, bucket.tokens + refill);
  bucket.last_refill = now;
  if (bucket.tokens < 1.0) {
    ++client_throttled_;
    return false;
  }
  bucket.tokens -= 1.0;
  return true;
}

bool AuthServer::answers_cacheable() const {
  const ServerFaultProfile& faults = config_.faults;
  return config_.transient_servfail_rate <= 0 &&
         config_.transient_badsig_rate <= 0 &&
         faults.slow_start_queries == 0 && faults.flap_period == 0 &&
         faults.rate_limit_qps <= 0;
}

void AuthServer::attach(net::Transport& network,
                        const net::IpAddress& address) {
  // Re-attaching an address (e.g. moving a built ecosystem from the
  // simulator onto a wire transport) replaces the binding, not the record.
  if (std::find(addresses_.begin(), addresses_.end(), address) ==
      addresses_.end()) {
    addresses_.push_back(address);
  }
  network.bind(address, [this, &network](const net::Datagram& dgram) {
    serve_datagram(network, dgram);
  });
}

namespace {

// A reply to `query`: addresses and ports swapped, so the client's
// source-port check can match on transports that model ports.
net::Datagram reply_to(const net::Datagram& query, Bytes payload, bool tcp) {
  net::Datagram reply;
  reply.source = query.destination;
  reply.destination = query.source;
  reply.payload = std::move(payload);
  reply.tcp = tcp;
  reply.source_port = query.destination_port;
  reply.destination_port = query.source_port;
  return reply;
}

}  // namespace

void AuthServer::serve_datagram(net::Transport& network,
                                const net::Datagram& dgram) {
  const bool cacheable = answers_cacheable();
  if (cacheable) {
    if (auto hit = answers_.find(dgram.payload, dgram.tcp, generation_)) {
      // These bytes decoded before, so only the gates a decoded query meets
      // remain: the defense gate, then one sampling decision. (A cacheable
      // server's fault gate is inert.)
      if (!defense_gate(dgram.source, network.now())) return;
      if (tracer_ == nullptr || !tracer_->sample()) {
        ++queries_handled_;
        count_response(hit->rcode);
        ++answer_cache_hits_;
        network.send(reply_to(dgram, std::move(hit->reply), dgram.tcp));
        return;
      }
      // A sampled request is traced on the full path.
      serve_query(network, dgram,
                  std::move(dns::Message::decode(dgram.payload)).take(),
                  /*traced=*/true, /*fill_cache=*/false);
      return;
    }
  }
  auto query = dns::Message::decode(dgram.payload);
  if (!query.ok()) {
    // Garbage in, silence out (as UDP would) — but observably: malformed
    // floods are an attack signal the metrics must show.
    ++malformed_dropped_;
    return;
  }
  // Hardening gate before any work is spent on the query.
  if (!defense_gate(dgram.source, network.now())) return;
  const bool traced = tracer_ != nullptr && tracer_->sample();
  serve_query(network, dgram, query.value(), traced, cacheable && !traced);
}

void AuthServer::serve_query(net::Transport& network,
                             const net::Datagram& dgram,
                             const dns::Message& query, bool traced,
                             bool fill_cache) {
  // Chaos gates next: a slow, flapping, or rate-limited server fails the
  // same way for AXFR streams as for plain queries.
  std::optional<dns::Message> short_circuit;
  net::SimTime delay = fault_gate(query, network.now(), &short_circuit);
  auto send_wire = [&network, &dgram, delay](Bytes wire, bool tcp) {
    net::Datagram reply = reply_to(dgram, std::move(wire), tcp);
    if (delay == 0) {
      network.send(std::move(reply));
      return;
    }
    network.schedule(delay, [&network, reply = std::move(reply)] {
      network.send(reply);
    });
  };
  // Request span for sampled queries: receipt → response handed to the
  // transport (including any fault-gate service delay).
  auto trace_request = [this, &network, &query, delay,
                        received = network.now(),
                        traced](dns::Rcode rcode) {
    count_response(rcode);
    if (!traced) return;
    obs::TraceSpan span;
    span.kind = "request";
    span.name = query.questions.empty()
                    ? std::string("<no question>")
                    : query.questions[0].name.to_text() + " " +
                          dns::to_string(query.questions[0].type);
    span.detail = config_.id;
    span.start_usec = received;
    span.end_usec = network.now() + delay;
    span.status = dns::to_string(rcode);
    tracer_->record(std::move(span));
  };
  if (short_circuit.has_value()) {
    trace_request(short_circuit->header.rcode);
    send_wire(short_circuit->encode(), dgram.tcp);
    return;
  }

  if (!query.questions.empty() &&
      query.questions[0].type == dns::RRType::kAXFR) {
    // Zone transfers run over TCP (RFC 5936 §4.2); refuse UDP attempts.
    if (!dgram.tcp) {
      dns::Message refusal = dns::Message::make_response(query);
      refusal.header.rcode = dns::Rcode::kRefused;
      trace_request(refusal.header.rcode);
      send_wire(refusal.encode(), /*tcp=*/false);
      return;
    }
    std::vector<dns::Message> stream = handle_axfr(query);
    if (!stream.empty()) trace_request(stream.front().header.rcode);
    for (auto& response : stream) {
      send_wire(response.encode(), /*tcp=*/true);
    }
    return;
  }
  const dns::Zone* zone = nullptr;
  dns::Message response = respond(query, &zone);
  trace_request(response.header.rcode);
  Bytes wire = response.encode();
  if (!dgram.tcp) {
    // UDP size limit: the client's EDNS-advertised buffer, or the
    // classic 512 bytes without EDNS (RFC 1035 §4.2.1). Oversized
    // responses are truncated to header+question with TC set.
    std::size_t limit = 512;
    for (const auto& rr : query.additionals) {
      if (rr.type == dns::RRType::kOPT) {
        limit = std::max<std::size_t>(
            512, static_cast<std::uint16_t>(rr.klass));
      }
    }
    if (wire.size() > limit) {
      dns::Message truncated = dns::Message::make_response(query);
      truncated.header.rcode = response.header.rcode;
      truncated.header.aa = response.header.aa;
      truncated.header.tc = true;
      wire = truncated.encode();
    }
  }
  if (fill_cache) {
    ++answer_cache_misses_;
    answers_.insert(dgram.payload, dgram.tcp, wire,
                    {zone, zone != nullptr ? zone->version() : 0,
                     generation_});
    answer_cache_bytes_.set(static_cast<double>(answers_.bytes()));
  }
  send_wire(std::move(wire), dgram.tcp);
}

}  // namespace dnsboot::server
