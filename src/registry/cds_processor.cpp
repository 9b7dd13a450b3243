#include "registry/cds_processor.hpp"

#include "analysis/trust.hpp"
#include "crypto/sha2.hpp"
#include "dnssec/signer.hpp"

namespace dnsboot::registry {

std::string to_string(ProcessingOutcome::Action action) {
  switch (action) {
    case ProcessingOutcome::Action::kNone: return "none";
    case ProcessingOutcome::Action::kBootstrapped: return "bootstrapped";
    case ProcessingOutcome::Action::kBootstrappedUnauthenticated:
      return "bootstrapped-unauthenticated";
    case ProcessingOutcome::Action::kRolledOver: return "rolled-over";
    case ProcessingOutcome::Action::kDeleted: return "deleted";
    case ProcessingOutcome::Action::kHeldDown: return "held-down";
    case ProcessingOutcome::Action::kRejected: return "rejected";
  }
  return "?";
}

CdsProcessor::CdsProcessor(net::Transport& network,
                           resolver::QueryEngine& engine,
                           resolver::DelegationResolver& resolver,
                           ecosystem::TldHandle handle, RegistryConfig config)
    : network_(network),
      engine_(engine),
      resolver_(resolver),
      handle_(std::move(handle)),
      config_(std::move(config)) {}

Bytes CdsProcessor::cds_digest(const std::vector<dns::DsRdata>& cds) {
  ByteWriter w;
  for (const auto& ds : cds) {
    w.u16(ds.key_tag);
    w.u8(ds.algorithm);
    w.u8(ds.digest_type);
    w.raw(ds.digest);
  }
  auto digest = crypto::Sha256::digest(w.data());
  return Bytes(digest.begin(), digest.end());
}

Status CdsProcessor::install_ds(const dns::Name& zone,
                                const std::vector<dns::DsRdata>& ds_set) {
  if (!zone.is_under(config_.tld)) {
    return Error{"registry.foreign_zone", zone.to_text()};
  }
  if (ds_set.empty()) return Error{"registry.empty_ds", zone.to_text()};
  dns::Zone& tld_zone = *handle_.zone;
  tld_zone.remove_rrset(zone, dns::RRType::kDS);
  dns::RRset set;
  set.name = zone;
  set.type = dns::RRType::kDS;
  set.ttl = 86400;
  for (const auto& ds : ds_set) set.rdatas.push_back(dns::Rdata{ds});
  DNSBOOT_CHECK(tld_zone.add_rrset(set));
  // Sign the new DS RRset with the TLD's ZSK so the child's chain closes.
  tld_zone.remove_signatures(zone, dns::RRType::kDS);
  DNSBOOT_CHECK(tld_zone.add(
      dnssec::sign_rrset(set, handle_.keys.zsk, config_.tld, handle_.policy)));
  return Status::ok_status();
}

Status CdsProcessor::remove_ds(const dns::Name& zone) {
  if (!zone.is_under(config_.tld)) {
    return Error{"registry.foreign_zone", zone.to_text()};
  }
  handle_.zone->remove_rrset(zone, dns::RRType::kDS);
  return Status::ok_status();
}

ProcessingOutcome CdsProcessor::decide(const dns::Name& zone,
                                       const analysis::ZoneReport& report) {
  using Action = ProcessingOutcome::Action;
  ProcessingOutcome outcome;
  outcome.report = report;

  if (!report.resolved) {
    outcome.action = Action::kNone;
    outcome.reason = "zone did not resolve";
    return outcome;
  }

  // --- delete requests (RFC 8078 §4) --------------------------------------
  if (report.cds.present && report.cds.delete_request) {
    const bool had_ds =
        handle_.zone->find_rrset(zone, dns::RRType::kDS) != nullptr;
    if (!had_ds) {
      outcome.action = Action::kNone;
      outcome.reason = "delete request with no DS installed";
      return outcome;
    }
    if (auto status = remove_ds(zone); !status.ok()) {
      outcome.action = Action::kRejected;
      outcome.reason = status.error().to_string();
      return outcome;
    }
    outcome.action = Action::kDeleted;
    outcome.reason = "CDS delete sentinel honoured";
    return outcome;
  }

  // --- rollover on secured zones (RFC 7344) --------------------------------
  if (report.dnssec == dnssec::ZoneDnssecStatus::kSecure) {
    if (!report.cds.present) {
      outcome.action = Action::kNone;
      outcome.reason = "secured zone, no actionable CDS";
      return outcome;
    }
    if (!report.cds.consistent || !report.cds.matches_dnskey ||
        !report.cds.rrsig_valid) {
      outcome.action = Action::kRejected;
      outcome.reason = "CDS failed rollover validation";
      return outcome;
    }
    // Compare with the installed DS set; replace only on change.
    const dns::RRset* current = handle_.zone->find_rrset(zone, dns::RRType::kDS);
    std::vector<dns::DsRdata> installed;
    if (current != nullptr) {
      for (const auto& rd : current->rdatas) {
        installed.push_back(std::get<dns::DsRdata>(rd));
      }
    }
    if (cds_digest(installed) == cds_digest(report.cds.cds)) {
      outcome.action = Action::kNone;
      outcome.reason = "CDS already matches installed DS";
      return outcome;
    }
    if (auto status = install_ds(zone, report.cds.cds); !status.ok()) {
      outcome.action = Action::kRejected;
      outcome.reason = status.error().to_string();
      return outcome;
    }
    outcome.action = Action::kRolledOver;
    outcome.reason = "DS replaced to match CDS";
    return outcome;
  }

  // --- bootstrapping (zone not currently secured) ---------------------------
  if (report.eligibility !=
      analysis::BootstrapEligibility::kBootstrappable) {
    outcome.action = report.cds.present ? Action::kRejected : Action::kNone;
    outcome.reason =
        "not bootstrappable: " + analysis::to_string(report.eligibility);
    return outcome;
  }

  // RFC 8078 §3 precondition for any install path: the zone must validate
  // with the prospective DS (the analysis has already checked CDS↔DNSKEY
  // correspondence, signatures, and consistency).
  if (!report.cds.rrsig_valid) {
    outcome.action = Action::kRejected;
    outcome.reason = "in-zone CDS not validly signed";
    return outcome;
  }

  // Authenticated path (RFC 9615).
  if (report.ab == analysis::AbStatus::kSignalCorrect) {
    if (auto status = install_ds(zone, report.cds.cds); !status.ok()) {
      outcome.action = Action::kRejected;
      outcome.reason = status.error().to_string();
      return outcome;
    }
    outcome.action = Action::kBootstrapped;
    outcome.reason = "authenticated signals verified on every nameserver";
    return outcome;
  }
  if (report.signal_present) {
    // Signals exist but fail the RFC 9615 checks: never fall back silently.
    outcome.action = Action::kRejected;
    outcome.reason = "signal records present but invalid";
    return outcome;
  }

  // Unauthenticated fallback policies (RFC 8078 §3, paper Appendix C).
  switch (config_.unauthenticated) {
    case UnauthenticatedPolicy::kNever:
      outcome.action = Action::kRejected;
      outcome.reason = "no authenticated signal; policy forbids fallback";
      return outcome;
    case UnauthenticatedPolicy::kAcceptFromInception: {
      if (auto status = install_ds(zone, report.cds.cds); !status.ok()) {
        outcome.action = Action::kRejected;
        outcome.reason = status.error().to_string();
        return outcome;
      }
      outcome.action = Action::kBootstrappedUnauthenticated;
      outcome.reason = "accepted from inception";
      return outcome;
    }
    case UnauthenticatedPolicy::kAcceptAfterDelay: {
      const std::string key = zone.canonical_text();
      Bytes digest = cds_digest(report.cds.cds);
      auto it = holddown_.find(key);
      if (it == holddown_.end() || it->second.cds_digest != digest) {
        holddown_[key] = HolddownEntry{network_.now(), std::move(digest)};
        outcome.action = Action::kHeldDown;
        outcome.reason = "hold-down window started";
        return outcome;
      }
      if (network_.now() - it->second.first_seen < config_.holddown) {
        outcome.action = Action::kHeldDown;
        outcome.reason = "hold-down window running";
        return outcome;
      }
      if (auto status = install_ds(zone, report.cds.cds); !status.ok()) {
        outcome.action = Action::kRejected;
        outcome.reason = status.error().to_string();
        return outcome;
      }
      holddown_.erase(key);
      outcome.action = Action::kBootstrappedUnauthenticated;
      outcome.reason = "CDS stable through the hold-down window";
      return outcome;
    }
  }
  outcome.action = Action::kRejected;
  outcome.reason = "unreachable policy state";
  return outcome;
}

void CdsProcessor::process(const dns::Name& zone, Callback callback) {
  // The registry performs its own scan of the candidate: every NS, the
  // signaling trees, and the infrastructure snapshot for offline validation.
  // The processor owns the scanner for the lifetime of this process() call;
  // the scan callback must not hold an owning reference (it lives inside the
  // scanner — a cycle would leak).
  const std::uint64_t scan_id = next_scan_id_++;
  auto scanner = std::make_shared<scanner::Scanner>(
      network_, engine_, resolver_, scanner::ScannerOptions{});
  active_scans_.emplace(scan_id, scanner);
  auto cb = std::make_shared<Callback>(std::move(callback));
  scanner->scan(
      {zone}, [this, scan_id, cb, zone](scanner::ZoneObservation obs) {
        // Defer the decision one event so the infrastructure captures
        // (root/TLD DNSKEY queries) finish before validation.
        network_.schedule(net::kSecond, [this, scan_id, cb, zone,
                                         obs = std::move(obs)] {
          auto it = active_scans_.find(scan_id);
          if (it == active_scans_.end()) return;
          std::shared_ptr<scanner::Scanner> owned = std::move(it->second);
          active_scans_.erase(it);
          analysis::TrustContext trust(*owned->take_infrastructure(),
                                       resolver_.hints().trust_anchor,
                                       config_.now);
          analysis::ZoneReport report =
              analysis::analyze_zone(obs, trust, operators_);
          (*cb)(decide(zone, report));
        });
      });
}

}  // namespace dnsboot::registry
