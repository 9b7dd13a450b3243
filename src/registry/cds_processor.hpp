// Registry-side CDS/CDNSKEY processing — the consumer of the signals this
// whole system measures. Implements what SWITCH (.ch/.li) and the .swiss
// registry run (paper §2 and [2]):
//
//   * RFC 7344  — DS rollover driven by in-zone CDS on secured zones
//   * RFC 8078  — DS deletion (delete sentinel) and *unauthenticated*
//                 bootstrapping policies (paper Appendix C)
//   * RFC 9615  — authenticated bootstrapping via the _dsboot/_signal trees
//
// The processor drives its own scans over the simulated network, applies the
// full acceptance rules, and — when satisfied — edits the TLD zone through
// the registry's TldHandle (install/replace/remove DS + re-sign).
#pragma once

#include <functional>
#include <map>

#include "analysis/zone_report.hpp"
#include "ecosystem/builder.hpp"
#include "scanner/scanner.hpp"

namespace dnsboot::registry {

// Unauthenticated acceptance policies from RFC 8078 §3 (paper Appendix C).
enum class UnauthenticatedPolicy {
  kNever,               // authenticated bootstrapping only
  kAcceptAfterDelay,    // install after the CDS is stable for `holddown`
  kAcceptFromInception, // accept on first sight (new registrations)
};

struct RegistryConfig {
  dns::Name tld;
  UnauthenticatedPolicy unauthenticated = UnauthenticatedPolicy::kNever;
  net::SimTime holddown = net::SimTime{72} * 3600 * net::kSecond;
  // DNSSEC validation time (simulated epoch seconds).
  std::uint32_t now = 0;
};

struct ProcessingOutcome {
  enum class Action {
    kNone,             // nothing applicable (unsigned, no CDS, foreign TLD)
    kBootstrapped,     // DS installed via authenticated signals (RFC 9615)
    kBootstrappedUnauthenticated,  // DS installed via an RFC 8078 policy
    kRolledOver,       // existing DS replaced to match the CDS
    kDeleted,          // DS removed on a delete sentinel
    kHeldDown,         // accept-after-delay window still running
    kRejected,         // checks failed; nothing installed
  };
  Action action = Action::kNone;
  std::string reason;
  // The report the decision was based on (diagnostics / audit trail).
  analysis::ZoneReport report;
};

std::string to_string(ProcessingOutcome::Action action);

class CdsProcessor {
 public:
  using Callback = std::function<void(ProcessingOutcome)>;

  CdsProcessor(net::Transport& network, resolver::QueryEngine& engine,
               resolver::DelegationResolver& resolver,
               ecosystem::TldHandle handle, RegistryConfig config);

  // Evaluate one candidate zone: scan, validate, decide, and apply any DS
  // change to the TLD zone. Drive the network (network.run()) to completion
  // before reading results.
  void process(const dns::Name& zone, Callback callback);

  // Direct zone edits (also used internally).
  Status install_ds(const dns::Name& zone,
                    const std::vector<dns::DsRdata>& ds_set);
  Status remove_ds(const dns::Name& zone);

  const RegistryConfig& config() const { return config_; }

 private:
  struct HolddownEntry {
    net::SimTime first_seen = 0;
    Bytes cds_digest;  // canonical digest of the CDS set under observation
  };

  ProcessingOutcome decide(const dns::Name& zone,
                           const analysis::ZoneReport& report);
  static Bytes cds_digest(const std::vector<dns::DsRdata>& cds);

  net::Transport& network_;
  resolver::QueryEngine& engine_;
  resolver::DelegationResolver& resolver_;
  ecosystem::TldHandle handle_;
  RegistryConfig config_;
  analysis::OperatorIdentifier operators_;  // empty: registry needs no attribution
  std::map<std::string, HolddownEntry> holddown_;
  // Scanners for in-flight process() calls; erased when the decision fires.
  std::map<std::uint64_t, std::shared_ptr<scanner::Scanner>> active_scans_;
  std::uint64_t next_scan_id_ = 1;
};

}  // namespace dnsboot::registry
