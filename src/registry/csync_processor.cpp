#include "registry/csync_processor.hpp"

#include "analysis/zone_report.hpp"

namespace dnsboot::registry {
namespace {

using scanner::RRsetProbe;

const RRsetProbe* first_signed_answer(
    const std::vector<const RRsetProbe*>& probes) {
  const RRsetProbe* any = nullptr;
  for (const auto* probe : probes) {
    if (probe->outcome != RRsetProbe::Outcome::kAnswer) continue;
    if (!probe->rrset.signatures.empty()) return probe;
    if (any == nullptr) any = probe;
  }
  return any;
}

}  // namespace

CsyncProcessor::CsyncProcessor(net::Transport& network,
                               resolver::QueryEngine& engine,
                               resolver::DelegationResolver& resolver,
                               ecosystem::TldHandle handle, dns::Name tld,
                               std::uint32_t now)
    : network_(network),
      engine_(engine),
      resolver_(resolver),
      handle_(std::move(handle)),
      tld_(std::move(tld)),
      now_(now) {}

CsyncOutcome CsyncProcessor::decide(const dns::Name& zone,
                                    const scanner::ZoneObservation& obs,
                                    const analysis::TrustContext& trust) {
  CsyncOutcome outcome;
  if (!obs.resolved) {
    outcome.reason = "zone did not resolve";
    return outcome;
  }
  if (!zone.is_under(tld_)) {
    outcome.action = CsyncOutcome::Action::kRejected;
    outcome.reason = "zone outside this registry's TLD";
    return outcome;
  }

  const RRsetProbe* csync = first_signed_answer(
      obs.probes_of(dns::RRType::kCSYNC));
  if (csync == nullptr) {
    outcome.reason = "no CSYNC published";
    return outcome;
  }

  // RFC 7477 §3: the CSYNC RRset MUST be validated with DNSSEC — an
  // unsigned or unvalidatable CSYNC is ignored.
  const RRsetProbe* dnskey = first_signed_answer(
      obs.probes_of(dns::RRType::kDNSKEY));
  if (dnskey == nullptr ||
      !trust.validate_parent_ds(obs.tld, obs.parent_ds)) {
    outcome.action = CsyncOutcome::Action::kRejected;
    outcome.reason = "zone is not securely delegated; CSYNC unusable";
    return outcome;
  }
  std::vector<dns::DsRdata> parent_ds;
  for (const auto& rd : obs.parent_ds.rrset.rdatas) {
    if (const auto* ds = std::get_if<dns::DsRdata>(&rd)) {
      parent_ds.push_back(*ds);
    }
  }
  auto chain = dnssec::validate_dnskey_rrset(zone, dnskey->rrset, parent_ds,
                                             now_);
  if (!chain.valid) {
    outcome.action = CsyncOutcome::Action::kRejected;
    outcome.reason = "DNSKEY chain invalid: " + chain.reason;
    return outcome;
  }
  auto keys = analysis::dnskeys_of(dnskey->rrset.rrset);
  auto csync_valid = dnssec::verify_rrset(
      csync->rrset.rrset, csync->rrset.signatures, keys, zone, now_);
  if (!csync_valid.valid) {
    outcome.action = CsyncOutcome::Action::kRejected;
    outcome.reason = "CSYNC signature invalid: " + csync_valid.reason;
    return outcome;
  }

  const auto& rdata = std::get<dns::CsyncRdata>(csync->rrset.rrset.rdatas[0]);
  constexpr std::uint16_t kFlagImmediate = 0x0001;
  constexpr std::uint16_t kFlagSoaMinimum = 0x0002;
  if ((rdata.flags & kFlagImmediate) == 0) {
    // Without "immediate", the serial gate applies (RFC 7477 §2.1.1). The
    // registry would compare against the SOA serial it has processed before;
    // dnsboot has no persistent serial store, so defer.
    outcome.action = CsyncOutcome::Action::kDeferred;
    outcome.reason = "immediate flag clear; serial-gated";
    return outcome;
  }
  if ((rdata.flags & kFlagSoaMinimum) != 0) {
    const RRsetProbe* soa = first_signed_answer(obs.probes_of(dns::RRType::kSOA));
    if (soa != nullptr) {
      const auto& soa_rdata = std::get<dns::SoaRdata>(soa->rrset.rrset.rdatas[0]);
      if (soa_rdata.serial < rdata.soa_serial) {
        outcome.action = CsyncOutcome::Action::kDeferred;
        outcome.reason = "zone serial below CSYNC soa_serial";
        return outcome;
      }
    }
  }
  if (!rdata.types.contains(dns::RRType::kNS)) {
    outcome.reason = "CSYNC does not cover NS";
    return outcome;
  }

  // Child's validated apex NS set.
  const RRsetProbe* ns = first_signed_answer(obs.probes_of(dns::RRType::kNS));
  if (ns == nullptr) {
    outcome.action = CsyncOutcome::Action::kRejected;
    outcome.reason = "no NS answer from the child";
    return outcome;
  }
  auto ns_valid = dnssec::verify_rrset(ns->rrset.rrset, ns->rrset.signatures,
                                       keys, zone, now_);
  if (!ns_valid.valid) {
    outcome.action = CsyncOutcome::Action::kRejected;
    outcome.reason = "child NS RRset not validly signed";
    return outcome;
  }
  std::vector<dns::Name> child_ns;
  for (const auto& rd : ns->rrset.rrset.rdatas) {
    child_ns.push_back(std::get<dns::NsRdata>(rd).nsdname);
  }

  // Compare with the delegation currently installed.
  bool differs = child_ns.size() != obs.parent_ns.size();
  if (!differs) {
    for (const auto& name : child_ns) {
      bool found = false;
      for (const auto& existing : obs.parent_ns) {
        if (existing == name) {
          found = true;
          break;
        }
      }
      if (!found) {
        differs = true;
        break;
      }
    }
  }
  if (!differs) {
    outcome.reason = "delegation NS already matches the child";
    return outcome;
  }

  dns::Zone& tld_zone = *handle_.zone;
  tld_zone.remove_rrset(zone, dns::RRType::kNS);
  for (const auto& name : child_ns) {
    dns::ResourceRecord rr;
    rr.name = zone;
    rr.type = dns::RRType::kNS;
    rr.ttl = 86400;
    rr.rdata = dns::NsRdata{name};
    if (auto status = tld_zone.add(rr); !status.ok()) {
      outcome.action = CsyncOutcome::Action::kRejected;
      outcome.reason = status.error().to_string();
      return outcome;
    }
  }
  outcome.action = CsyncOutcome::Action::kSynchronized;
  outcome.reason = "delegation NS set synchronized from the child";
  outcome.new_ns = std::move(child_ns);
  return outcome;
}

void CsyncProcessor::process(const dns::Name& zone, Callback callback) {
  scanner::ScannerOptions options;
  options.scan_csync = true;
  options.scan_signal_zones = false;  // CSYNC needs no signaling trees
  // Ownership: see CdsProcessor::process — the processor holds the scanner
  // until the deferred decision consumes it.
  const std::uint64_t scan_id = next_scan_id_++;
  auto scanner = std::make_shared<scanner::Scanner>(network_, engine_,
                                                    resolver_, options);
  active_scans_.emplace(scan_id, scanner);
  auto cb = std::make_shared<Callback>(std::move(callback));
  scanner->scan({zone}, [this, scan_id, cb,
                         zone](scanner::ZoneObservation obs) {
    network_.schedule(net::kSecond, [this, scan_id, cb, zone,
                                     obs = std::move(obs)] {
      auto it = active_scans_.find(scan_id);
      if (it == active_scans_.end()) return;
      std::shared_ptr<scanner::Scanner> owned = std::move(it->second);
      active_scans_.erase(it);
      analysis::TrustContext trust(owned->infrastructure(),
                                   resolver_.hints().trust_anchor, now_);
      (*cb)(decide(zone, obs, trust));
    });
  });
}

}  // namespace dnsboot::registry
