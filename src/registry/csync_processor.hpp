// CSYNC processing (RFC 7477) — child-to-parent synchronization of NS and
// glue records, the companion mechanism to CDS that the paper's conclusion
// names as future work. A registry runs this to keep its delegation NS set
// in lock-step with the child's (DNSSEC-validated) apex NS RRset.
#pragma once

#include <functional>

#include "analysis/trust.hpp"
#include "ecosystem/builder.hpp"
#include "scanner/scanner.hpp"

namespace dnsboot::registry {

struct CsyncOutcome {
  enum class Action {
    kNone,          // no CSYNC published / nothing to change
    kSynchronized,  // delegation NS set updated from the child
    kDeferred,      // serial gate: soaminimum set and serial too old
    kRejected,      // validation failed (unsigned zone, bad sigs, ...)
  };
  Action action = Action::kNone;
  std::string reason;
  std::vector<dns::Name> new_ns;  // installed NS set when kSynchronized
};

class CsyncProcessor {
 public:
  using Callback = std::function<void(CsyncOutcome)>;

  CsyncProcessor(net::Transport& network, resolver::QueryEngine& engine,
                 resolver::DelegationResolver& resolver,
                 ecosystem::TldHandle handle, dns::Name tld,
                 std::uint32_t now);

  // Scan `zone`, validate its CSYNC RRset, and apply any NS change to the
  // TLD delegation. Drive the network to completion before reading results.
  void process(const dns::Name& zone, Callback callback);

 private:
  CsyncOutcome decide(const dns::Name& zone,
                      const scanner::ZoneObservation& obs,
                      const analysis::TrustContext& trust);

  net::Transport& network_;
  resolver::QueryEngine& engine_;
  resolver::DelegationResolver& resolver_;
  ecosystem::TldHandle handle_;
  dns::Name tld_;
  std::uint32_t now_;
  std::map<std::uint64_t, std::shared_ptr<scanner::Scanner>> active_scans_;
  std::uint64_t next_scan_id_ = 1;
};

}  // namespace dnsboot::registry
