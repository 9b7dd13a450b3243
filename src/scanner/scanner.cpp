#include "scanner/scanner.hpp"

#include <algorithm>
#include <array>
#include <set>

namespace dnsboot::scanner {

namespace {

// Zones probed concurrently; bounds outstanding queries.
constexpr std::size_t kMaxConcurrentZones = 256;

// Cloudflare pool sampling (§3): when a zone's endpoint set is at least
// kPoolThreshold addresses, scan only 1 IPv4 + 1 IPv6 endpoint for
// (1 - kPoolFullScanFraction) of such zones.
constexpr std::size_t kPoolThreshold = 6;
constexpr double kPoolFullScanFraction = 0.05;

// The RRsets asked of every endpoint of every zone.
constexpr std::array kEndpointProbeTypes = {
    dns::RRType::kSOA, dns::RRType::kNS, dns::RRType::kDNSKEY,
    dns::RRType::kCDS, dns::RRType::kCDNSKEY};

}  // namespace

std::string to_string(RRsetProbe::Outcome outcome) {
  switch (outcome) {
    case RRsetProbe::Outcome::kAnswer: return "answer";
    case RRsetProbe::Outcome::kNoData: return "nodata";
    case RRsetProbe::Outcome::kNxDomain: return "nxdomain";
    case RRsetProbe::Outcome::kError: return "error";
    case RRsetProbe::Outcome::kTimeout: return "timeout";
  }
  return "?";
}

bool is_transient(ProbeFailure failure) {
  switch (failure) {
    case ProbeFailure::kTimeout:
    case ProbeFailure::kServFail:
    case ProbeFailure::kRefused:
    case ProbeFailure::kTruncationLoop:
    case ProbeFailure::kCircuitOpen:
    case ProbeFailure::kServfailCached:
    case ProbeFailure::kOverload:
      return true;
    case ProbeFailure::kNone:
    case ProbeFailure::kFormErr:
    case ProbeFailure::kNotImp:
    case ProbeFailure::kOther:
      return false;
  }
  return false;
}

// Resolution-failure strings that a rescan may plausibly recover from:
// engine-level errors and delegation dead-ends that chaos faults produce.
// Permanent findings (NXDOMAIN, undelegated, names exceeding the 255-octet
// limit) are not retried.
bool is_transient_failure(const std::string& failure) {
  return failure.rfind("query.", 0) == 0 ||
         failure.rfind("resolve.unreachable", 0) == 0 ||
         failure.rfind("resolve.glueless_dead_end", 0) == 0 ||
         failure == "no nameserver address resolvable" ||
         failure == "no signaling-zone nameserver resolvable";
}

namespace {

int completeness_rank(ZoneObservation::Completeness completeness) {
  switch (completeness) {
    case ZoneObservation::Completeness::kComplete: return 2;
    case ZoneObservation::Completeness::kDegraded: return 1;
    case ZoneObservation::Completeness::kFailed: return 0;
  }
  return 0;
}

// Strict ordering: is `a` a better observation of the same zone than `b`?
bool better_observation(const ZoneObservation& a, const ZoneObservation& b) {
  int rank_a = completeness_rank(a.completeness);
  int rank_b = completeness_rank(b.completeness);
  if (rank_a != rank_b) return rank_a > rank_b;
  return a.failed_probes < b.failed_probes;
}

}  // namespace

std::vector<const RRsetProbe*> ZoneObservation::probes_of(
    dns::RRType qtype) const {
  std::vector<const RRsetProbe*> out;
  for (const auto& probe : probes) {
    if (probe.qtype == qtype) out.push_back(&probe);
  }
  return out;
}

Result<dns::Name> signaling_name(const dns::Name& child, const dns::Name& ns) {
  std::vector<std::string> labels;
  labels.reserve(child.label_count() + ns.label_count() + 2);
  labels.push_back("_dsboot");
  for (std::string_view l : child.labels()) labels.emplace_back(l);
  labels.push_back("_signal");
  for (std::string_view l : ns.labels()) labels.emplace_back(l);
  return dns::Name::from_labels(std::move(labels));
}

dns::Name registrable_domain_of(const dns::Name& host) {
  if (host.label_count() <= 2) return host;
  return host.suffix(2);
}

// --- task types -----------------------------------------------------------------

struct Scanner::SignalTask {
  SignalObservation obs;
  std::size_t outstanding = 0;
};

struct Scanner::ZoneTask : std::enable_shared_from_this<Scanner::ZoneTask> {
  ZoneObservation obs;
  std::size_t outstanding = 0;
  std::size_t signals_outstanding = 0;
  net::SimTime started_at = 0;
  bool traced = false;  // sampled for a "zone" trace span
};

// --- scanner --------------------------------------------------------------------

Scanner::Scanner(net::Transport& network, resolver::QueryEngine& engine,
                 resolver::DelegationResolver& resolver,
                 ScannerOptions options)
    : network_(network),
      engine_(engine),
      resolver_(resolver),
      options_(std::move(options)),
      rng_(options_.seed),
      root_capture_started_(options_.infrastructure != nullptr) {}

void Scanner::scan(std::vector<dns::Name> zones, ZoneCallback on_zone) {
  on_zone_ = std::move(on_zone);
  for (auto& zone : zones) queue_.emplace_back(std::move(zone), 1);
  capture_root_dnskey();
  start_next_zones();
}

void Scanner::run() { network_.run(); }

void Scanner::start_next_zones() {
  while (active_zones_ < kMaxConcurrentZones && !queue_.empty()) {
    auto [zone, attempt] = std::move(queue_.front());
    queue_.pop_front();
    ++active_zones_;
    start_zone(zone, attempt);
  }
}

void Scanner::capture_root_dnskey() {
  if (root_capture_started_) return;
  root_capture_started_ = true;
  if (resolver_.hints().servers.empty()) return;
  dns::Name root = dns::Name::root();
  std::weak_ptr<int> alive = alive_;
  engine_.query(resolver_.hints().servers[0], root, dns::RRType::kDNSKEY,
                [this, alive, root](Result<dns::Message> response) {
                  if (alive.expired() || !response.ok()) return;
                  RRsetProbe probe = make_probe_result(
                      root, resolver_.hints().servers[0], root,
                      dns::RRType::kDNSKEY, response);
                  captured_.root_dnskey = probe.rrset;
                });
}

void Scanner::capture_tld(const dns::Name& tld) {
  const std::string& key = tld.canonical_text();
  if (options_.infrastructure != nullptr &&
      options_.infrastructure->tlds.contains(key)) {
    return;
  }
  if (!tld_capture_started_.emplace(key, true).second) return;
  std::weak_ptr<int> alive = alive_;
  resolver_.resolve_zone(
      tld, [this, alive, tld, key](Result<resolver::Delegation> result) {
        if (alive.expired()) return;
        if (!result.ok() || result->endpoints.empty()) return;
        captured_.tlds[key].ds = result->ds;
        net::IpAddress server = result->endpoints[0].address;
        engine_.query(server, tld, dns::RRType::kDNSKEY,
                      [this, alive, tld, key,
                       server](Result<dns::Message> response) {
                        if (alive.expired() || !response.ok()) return;
                        RRsetProbe probe =
                            make_probe_result(tld, server, tld,
                                              dns::RRType::kDNSKEY, response);
                        captured_.tlds[key].dnskey = probe.rrset;
                      });
      });
}

std::shared_ptr<const InfrastructureSnapshot> Scanner::take_infrastructure() {
  const std::shared_ptr<const InfrastructureSnapshot>& adopted =
      options_.infrastructure;
  if (adopted == nullptr) {
    return std::make_shared<const InfrastructureSnapshot>(
        std::move(captured_));
  }
  if (captured_.tlds.empty()) return adopted;
  auto merged = std::make_shared<InfrastructureSnapshot>(*adopted);
  merged->tlds.merge(captured_.tlds);  // disjoint: covered TLDs never capture
  return merged;
}

RRsetProbe Scanner::make_probe_result(const dns::Name& ns,
                                      const net::IpAddress& endpoint,
                                      const dns::Name& qname,
                                      dns::RRType qtype,
                                      const Result<dns::Message>& response) {
  RRsetProbe probe;
  probe.ns = ns;
  probe.endpoint = endpoint;
  probe.qname = qname;
  probe.qtype = qtype;
  // Thread the engine's under-attack verdict for this endpoint into the
  // probe's provenance (it ends up in ScanQuality as `under_attack`).
  probe.under_attack = engine_.under_attack(endpoint);
  if (!response.ok()) {
    // Engine-level failure: record the structured provenance so the
    // analysis can tell "scan could not observe" from operator behavior.
    const std::string& code = response.error().code;
    if (code == "query.circuit_open") {
      probe.outcome = RRsetProbe::Outcome::kError;
      probe.failure = ProbeFailure::kCircuitOpen;
    } else if (code == "query.servfail_cached") {
      probe.outcome = RRsetProbe::Outcome::kError;
      probe.rcode = dns::Rcode::kServFail;
      probe.failure = ProbeFailure::kServfailCached;
    } else if (code == "query.truncation_loop") {
      probe.outcome = RRsetProbe::Outcome::kError;
      probe.failure = ProbeFailure::kTruncationLoop;
    } else if (code == "query.overload") {
      probe.outcome = RRsetProbe::Outcome::kError;
      probe.failure = ProbeFailure::kOverload;
    } else {
      probe.outcome = RRsetProbe::Outcome::kTimeout;
      probe.failure = ProbeFailure::kTimeout;
    }
    return probe;
  }
  const dns::Message& message = response.value();
  probe.rcode = message.header.rcode;
  switch (message.header.rcode) {
    case dns::Rcode::kNoError: {
      auto answers = message.answers_of(qname, qtype);
      if (answers.empty()) {
        probe.outcome = RRsetProbe::Outcome::kNoData;
        break;
      }
      probe.outcome = RRsetProbe::Outcome::kAnswer;
      probe.rrset.rrset.name = qname;
      probe.rrset.rrset.type = qtype;
      probe.rrset.rrset.klass = answers[0].klass;
      probe.rrset.rrset.ttl = answers[0].ttl;
      for (const auto& rr : answers) {
        probe.rrset.rrset.rdatas.push_back(rr.rdata);
      }
      for (const auto& rr : message.answers) {
        if (rr.type == dns::RRType::kRRSIG && rr.name == qname) {
          const auto& sig = std::get<dns::RrsigRdata>(rr.rdata);
          if (sig.type_covered == qtype) probe.rrset.signatures.push_back(sig);
        }
      }
      break;
    }
    case dns::Rcode::kNxDomain:
      probe.outcome = RRsetProbe::Outcome::kNxDomain;
      break;
    default:
      probe.outcome = RRsetProbe::Outcome::kError;
      switch (message.header.rcode) {
        case dns::Rcode::kFormErr:
          probe.failure = ProbeFailure::kFormErr;
          break;
        case dns::Rcode::kServFail:
          probe.failure = ProbeFailure::kServFail;
          break;
        case dns::Rcode::kRefused:
          probe.failure = ProbeFailure::kRefused;
          break;
        case dns::Rcode::kNotImp:
          probe.failure = ProbeFailure::kNotImp;
          break;
        default:
          probe.failure = ProbeFailure::kOther;
          break;
      }
      break;
  }
  return probe;
}

void Scanner::apply_pool_sampling(ZoneObservation& obs) {
  obs.endpoints_before_sampling = obs.endpoints.size();
  if (!options_.enable_pool_sampling) return;
  if (obs.endpoints.size() < kPoolThreshold) return;
  Rng zone_rng = rng_.fork(obs.zone.canonical_text());
  if (zone_rng.chance(kPoolFullScanFraction)) {
    ++stats_.pool_zones_full;
    return;
  }
  ++stats_.pool_zones_sampled;
  obs.pool_sampled = true;
  // Keep one IPv4 and one IPv6 endpoint (paper §3).
  std::vector<resolver::NsEndpoint> sampled;
  for (const auto& endpoint : obs.endpoints) {
    if (!endpoint.address.is_v6()) {
      sampled.push_back(endpoint);
      break;
    }
  }
  for (const auto& endpoint : obs.endpoints) {
    if (endpoint.address.is_v6()) {
      sampled.push_back(endpoint);
      break;
    }
  }
  if (!sampled.empty()) obs.endpoints = std::move(sampled);
}

void Scanner::start_zone(const dns::Name& zone, int attempt) {
  auto task = std::make_shared<ZoneTask>();
  task->obs.zone = zone;
  task->obs.scan_attempt = attempt;
  task->obs.tld = zone.parent();
  task->started_at = network_.now();
  task->traced = options_.tracer != nullptr && options_.tracer->sample();
  capture_tld(task->obs.tld);

  std::weak_ptr<int> alive = alive_;
  resolver_.resolve_zone(
      zone, [this, alive, task](Result<resolver::Delegation> result) {
        if (alive.expired()) return;
        if (!result.ok()) {
          task->obs.resolved = false;
          task->obs.failure = result.error().to_string();
          zone_finished(task);
          return;
        }
        resolver::Delegation delegation = std::move(result).take();
        task->obs.resolved = !delegation.endpoints.empty();
        if (!task->obs.resolved) {
          task->obs.failure = "no nameserver address resolvable";
        }
        task->obs.parent_ns = std::move(delegation.ns_names);
        task->obs.parent_ds = std::move(delegation.ds);
        task->obs.endpoints = std::move(delegation.endpoints);
        apply_pool_sampling(task->obs);
        if (!task->obs.resolved) {
          zone_finished(task);
          return;
        }
        probe_endpoints(task);
      });
}

void Scanner::probe_endpoints(std::shared_ptr<ZoneTask> task) {
  task->outstanding = task->obs.endpoints.size() * kEndpointProbeTypes.size();
  const dns::Name zone = task->obs.zone;
  std::weak_ptr<int> alive = alive_;
  for (const auto& endpoint : task->obs.endpoints) {
    for (dns::RRType qtype : kEndpointProbeTypes) {
      engine_.query(endpoint.address, zone, qtype,
                    [this, alive, task, endpoint, zone,
                     qtype](Result<dns::Message> response) {
                      if (alive.expired()) return;
                      task->obs.probes.push_back(make_probe_result(
                          endpoint.ns, endpoint.address, zone, qtype,
                          response));
                      if (--task->outstanding == 0) {
                        start_signal_probes(task);
                      }
                    });
    }
  }
}

void Scanner::start_signal_probes(std::shared_ptr<ZoneTask> task) {
  if (!options_.scan_signal_zones) {
    zone_finished(task);
    return;
  }
  // Distinct NS names: union of the parent NS set and every child-apex NS
  // answer (the Cloudflare NS-mismatch cases of §4.4 make these differ).
  std::set<std::string> seen;
  std::vector<dns::Name> ns_names;
  auto add = [&](const dns::Name& ns) {
    if (seen.insert(ns.canonical_text()).second) ns_names.push_back(ns);
  };
  for (const auto& ns : task->obs.parent_ns) add(ns);
  for (const auto* probe : task->obs.probes_of(dns::RRType::kNS)) {
    if (probe->outcome != RRsetProbe::Outcome::kAnswer) continue;
    for (const auto& rd : probe->rrset.rrset.rdatas) {
      add(std::get<dns::NsRdata>(rd).nsdname);
    }
  }
  if (ns_names.empty()) {
    zone_finished(task);
    return;
  }
  task->signals_outstanding = ns_names.size();
  for (const auto& ns : ns_names) {
    auto signal = std::make_shared<SignalTask>();
    signal->obs.ns = ns;
    auto name = signaling_name(task->obs.zone, ns);
    if (!name.ok()) {
      signal->obs.failure = name.error().to_string();
      task->obs.signals.push_back(std::move(signal->obs));
      if (--task->signals_outstanding == 0) zone_finished(task);
      continue;
    }
    signal->obs.signal_name = std::move(name).take();
    ++stats_.signal_probes;
    run_signal_task(task, signal);
  }
}

void Scanner::run_signal_task(std::shared_ptr<ZoneTask> task,
                              std::shared_ptr<SignalTask> signal) {
  const dns::Name operator_zone = registrable_domain_of(signal->obs.ns);
  signal->obs.signaling_zone = operator_zone;
  capture_tld(operator_zone.parent());

  // Cached operator-zone delegation (shared across all zones on the operator).
  // The key is the Name's interned canonical text — no re-stringify.
  const std::string& key = operator_zone.canonical_text();
  auto finish_with_delegation =
      [this, task, signal](const Result<resolver::Delegation>& result) {
        if (!result.ok() || result->endpoints.empty()) {
          signal->obs.resolved = false;
          signal->obs.failure =
              result.ok() ? "no signaling-zone nameserver resolvable"
                          : result.error().to_string();
          task->obs.signals.push_back(std::move(signal->obs));
          if (--task->signals_outstanding == 0) zone_finished(task);
          return;
        }
        const resolver::Delegation& delegation = result.value();
        signal->obs.resolved = true;
        signal->obs.parent = delegation.parent;
        signal->obs.parent_ds = delegation.ds;

        // Sample endpoints like the main scan (pools answer identically).
        std::vector<resolver::NsEndpoint> endpoints = delegation.endpoints;
        if (options_.enable_pool_sampling &&
            endpoints.size() >= kPoolThreshold) {
          std::vector<resolver::NsEndpoint> sampled;
          std::set<std::string> names_seen;
          for (const auto& endpoint : endpoints) {
            if (names_seen.insert(endpoint.ns.canonical_text()).second) {
              sampled.push_back(endpoint);
            }
          }
          endpoints = std::move(sampled);
        }

        const dns::Name signal_name = signal->obs.signal_name;
        const dns::Name apex = signal->obs.signaling_zone;
        std::weak_ptr<int> alive = alive_;
        // DNSKEY once + (CDS, CDNSKEY) per endpoint.
        signal->outstanding = 1 + endpoints.size() * 2;

        // The zone-cut probe runs for AB candidates: zones that published
        // in-zone CDS (the registry short-circuit of App. D) or whose
        // signaling tree carries data.
        bool zone_has_cds = false;
        for (const auto* probe : task->obs.probes_of(dns::RRType::kCDS)) {
          if (probe->outcome == RRsetProbe::Outcome::kAnswer) {
            zone_has_cds = true;
            break;
          }
        }
        auto on_probe_done = [this, task, signal, endpoints, apex, signal_name,
                              zone_has_cds] {
          if (--signal->outstanding > 0) return;
          bool has_signal_data = false;
          for (const auto& probe : signal->obs.cds_probes) {
            if (probe.outcome == RRsetProbe::Outcome::kAnswer) {
              has_signal_data = true;
              break;
            }
          }
          if ((!has_signal_data && !zone_has_cds) || endpoints.empty()) {
            task->obs.signals.push_back(std::move(signal->obs));
            if (--task->signals_outstanding == 0) zone_finished(task);
            return;
          }
          signal->obs.cut_check_performed = true;
          // Intermediate names, strictly between apex and signal name.
          std::vector<dns::Name> intermediates;
          dns::Name walk = signal_name.parent();
          while (walk.label_count() > apex.label_count()) {
            intermediates.push_back(walk);
            walk = walk.parent();
          }
          if (intermediates.empty()) {
            task->obs.signals.push_back(std::move(signal->obs));
            if (--task->signals_outstanding == 0) zone_finished(task);
            return;
          }
          signal->outstanding = intermediates.size();
          const net::IpAddress probe_endpoint = endpoints[0].address;
          std::weak_ptr<int> cut_alive = alive_;
          for (const auto& name : intermediates) {
            engine_.query(
                probe_endpoint, name, dns::RRType::kNS,
                [this, cut_alive, task, signal,
                 name](Result<dns::Message> response) {
                  if (cut_alive.expired()) return;
                  if (response.ok() &&
                      response->header.rcode == dns::Rcode::kNoError &&
                      !response->answers_of(name, dns::RRType::kNS).empty()) {
                    signal->obs.apparent_cuts.push_back(name);
                  }
                  if (--signal->outstanding == 0) {
                    task->obs.signals.push_back(std::move(signal->obs));
                    if (--task->signals_outstanding == 0) zone_finished(task);
                  }
                });
          }
        };

        engine_.query(endpoints[0].address, apex, dns::RRType::kDNSKEY,
                      [this, alive, signal, endpoints, apex,
                       on_probe_done](Result<dns::Message> response) {
                        if (alive.expired()) return;
                        signal->obs.dnskey_probes.push_back(make_probe_result(
                            endpoints[0].ns, endpoints[0].address, apex,
                            dns::RRType::kDNSKEY, response));
                        on_probe_done();
                      });
        for (const auto& endpoint : endpoints) {
          engine_.query(endpoint.address, signal_name, dns::RRType::kCDS,
                        [this, alive, signal, endpoint, signal_name,
                         on_probe_done](Result<dns::Message> response) {
                          if (alive.expired()) return;
                          signal->obs.cds_probes.push_back(make_probe_result(
                              endpoint.ns, endpoint.address, signal_name,
                              dns::RRType::kCDS, response));
                          on_probe_done();
                        });
          engine_.query(endpoint.address, signal_name, dns::RRType::kCDNSKEY,
                        [this, alive, signal, endpoint, signal_name,
                         on_probe_done](Result<dns::Message> response) {
                          if (alive.expired()) return;
                          signal->obs.cdnskey_probes.push_back(
                              make_probe_result(endpoint.ns, endpoint.address,
                                                signal_name,
                                                dns::RRType::kCDNSKEY,
                                                response));
                          on_probe_done();
                        });
        }
      };

  auto cached = operator_delegations_.find(key);
  if (cached != operator_delegations_.end()) {
    finish_with_delegation(*cached->second);
    return;
  }
  auto waiting = operator_waiters_.find(key);
  if (waiting != operator_waiters_.end()) {
    waiting->second.push_back(finish_with_delegation);
    return;
  }
  operator_waiters_[key].push_back(finish_with_delegation);
  std::weak_ptr<int> alive = alive_;
  resolver_.resolve_zone(
      operator_zone,
      [this, alive, key](Result<resolver::Delegation> result) {
        if (alive.expired()) return;
        auto stored =
            std::make_shared<Result<resolver::Delegation>>(std::move(result));
        operator_delegations_[key] = stored;
        auto waiters = std::move(operator_waiters_[key]);
        operator_waiters_.erase(key);
        for (auto& waiter : waiters) waiter(*stored);
      });
}

void Scanner::finalize_completeness(ZoneObservation& obs) const {
  obs.failed_probes = 0;
  obs.transient_failures = 0;
  obs.probes_under_attack = 0;
  auto count = [&obs](const RRsetProbe& probe) {
    if (probe.under_attack) ++obs.probes_under_attack;
    if (probe.failure == ProbeFailure::kNone) return;
    ++obs.failed_probes;
    if (is_transient(probe.failure)) ++obs.transient_failures;
  };
  for (const auto& probe : obs.probes) count(probe);
  for (const auto& signal : obs.signals) {
    if (signal.resolved) {
      for (const auto& probe : signal.dnskey_probes) count(probe);
      for (const auto& probe : signal.cds_probes) count(probe);
      for (const auto& probe : signal.cdnskey_probes) count(probe);
    } else if (is_transient_failure(signal.failure)) {
      // Scan-side signaling-zone resolution failure; a rescan retries the
      // delegation. Permanent reasons (e.g. the signaling name exceeding
      // the 255-octet limit) are findings, not scan failures.
      ++obs.failed_probes;
      ++obs.transient_failures;
    }
  }
  if (!obs.resolved) {
    obs.completeness = ZoneObservation::Completeness::kFailed;
  } else if (obs.failed_probes == 0) {
    obs.completeness = ZoneObservation::Completeness::kComplete;
  } else {
    obs.completeness = ZoneObservation::Completeness::kDegraded;
  }
}

void Scanner::deliver_zone(ZoneObservation obs) {
  auto best = pending_best_.find(obs.zone.canonical_text());
  if (best != pending_best_.end()) {
    if (better_observation(obs, best->second)) {
      // The rescan strictly improved on the stashed observation.
      ++stats_.zones_recovered;
    } else {
      obs = std::move(best->second);
    }
    pending_best_.erase(best);
  }
  switch (obs.completeness) {
    case ZoneObservation::Completeness::kComplete:
      ++stats_.zones_complete;
      break;
    case ZoneObservation::Completeness::kDegraded:
      ++stats_.zones_degraded;
      break;
    case ZoneObservation::Completeness::kFailed:
      ++stats_.zones_failed;
      break;
  }
  if (on_zone_) on_zone_(std::move(obs));
}

namespace {

// Probes complete in transport order: deterministic under the simulator, but
// raced by the kernel over real sockets (DESIGN.md §10). Analysis picks
// representatives positionally (first answering probe wins), so an
// observation must present its probes in a canonical order for a wire scan
// to classify identically to a simulated one. Sort by (qtype, endpoint, ns);
// the stable sort keeps retransmit duplicates, if any, in arrival order.
void canonicalize_probe_order(ZoneObservation& obs) {
  auto probe_less = [](const RRsetProbe& a, const RRsetProbe& b) {
    if (a.qtype != b.qtype) return a.qtype < b.qtype;
    if (a.endpoint != b.endpoint) return a.endpoint < b.endpoint;
    return a.ns.canonical_text() < b.ns.canonical_text();
  };
  std::stable_sort(obs.probes.begin(), obs.probes.end(), probe_less);
  for (auto& signal : obs.signals) {
    std::stable_sort(signal.dnskey_probes.begin(), signal.dnskey_probes.end(),
                     probe_less);
    std::stable_sort(signal.cds_probes.begin(), signal.cds_probes.end(),
                     probe_less);
    std::stable_sort(signal.cdnskey_probes.begin(),
                     signal.cdnskey_probes.end(), probe_less);
    // Cut probes were issued longest-name-first; restore that order.
    std::stable_sort(signal.apparent_cuts.begin(), signal.apparent_cuts.end(),
                     [](const dns::Name& a, const dns::Name& b) {
                       if (a.label_count() != b.label_count()) {
                         return a.label_count() > b.label_count();
                       }
                       return a.canonical_text() < b.canonical_text();
                     });
  }
  // Signal tasks also finish in transport order.
  std::stable_sort(obs.signals.begin(), obs.signals.end(),
                   [](const SignalObservation& a, const SignalObservation& b) {
                     return a.ns.canonical_text() < b.ns.canonical_text();
                   });
}

}  // namespace

void Scanner::zone_finished(std::shared_ptr<ZoneTask> task) {
  ++stats_.zones_scanned;
  canonicalize_probe_order(task->obs);
  finalize_completeness(task->obs);
  zone_histogram_.observe(network_.now() >= task->started_at
                              ? network_.now() - task->started_at
                              : 0);
  if (task->traced) {
    obs::TraceSpan span;
    span.kind = "zone";
    span.name = task->obs.zone.to_text();
    span.start_usec = task->started_at;
    span.end_usec = network_.now();
    span.attempts = static_cast<std::uint64_t>(task->obs.scan_attempt);
    switch (task->obs.completeness) {
      case ZoneObservation::Completeness::kComplete:
        span.status = "complete";
        break;
      case ZoneObservation::Completeness::kDegraded:
        span.status = "degraded";
        break;
      case ZoneObservation::Completeness::kFailed:
        span.status = "failed";
        break;
    }
    if (!task->obs.failure.empty()) span.detail = task->obs.failure;
    options_.tracer->record(std::move(span));
  }
  ZoneObservation obs = std::move(task->obs);
  const bool transient = obs.resolved
                             ? obs.transient_failures > 0
                             : is_transient_failure(obs.failure);
  if (obs.completeness != ZoneObservation::Completeness::kComplete &&
      transient && obs.scan_attempt < options_.max_scan_attempts) {
    // Hold the observation back and rescan the zone after the main queue
    // drains; the better of the two observations is delivered then. The
    // observation moves (never copies) into the keep-better stash.
    dns::Name zone = obs.zone;
    const int next_attempt = obs.scan_attempt + 1;
    std::string key = obs.zone.canonical_text();
    auto best = pending_best_.find(key);
    if (best == pending_best_.end()) {
      pending_best_.emplace(std::move(key), std::move(obs));
    } else if (better_observation(obs, best->second)) {
      best->second = std::move(obs);
    }
    requeue_.emplace_back(std::move(zone), next_attempt);
    ++stats_.zones_requeued;
  } else {
    deliver_zone(std::move(obs));
  }
  --active_zones_;
  if (active_zones_ == 0 && queue_.empty() && !requeue_.empty()) {
    std::swap(queue_, requeue_);
  }
  start_next_zones();
}

}  // namespace dnsboot::scanner
