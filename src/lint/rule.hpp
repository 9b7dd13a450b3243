// Rule registry and severity model for dnsboot_lint, the static zone-state
// analyzer. Every check the linter performs is a registered rule with a
// stable code (L0xx = single-zone, L1xx = cross-zone/ecosystem), a
// kebab-case name, a default severity, and a one-line rationale.
//
// The registry is the contract between three independent witnesses of the
// same ground truth: the ecosystem generator (which *injects*
// misconfigurations), the linter (which must *statically* find them), and
// the scanner/analysis pipeline (which must *measure* them). Tests assert
// the three agree.
#pragma once

#include <string_view>
#include <vector>

namespace dnsboot::lint {

enum class Severity {
  kInfo,     // noteworthy but not a misconfiguration
  kWarning,  // deviates from best practice; bootstrap may still work
  kError,    // provably broken state (chain cannot validate / RFC violation)
};

std::string_view to_string(Severity severity);

enum class RuleId {
  // --- single-zone rules (zone_lint.cpp) ---
  kCdsUnsignedZone,       // L001: CDS/CDNSKEY published but no apex DNSKEY
  kCdsDnskeyMismatch,     // L002: no CDS commits to any apex DNSKEY
  kCdsCdnskeyPair,        // L003: CDS and CDNSKEY sets are not coherent
  kRrsigTemporal,         // L004: every covering RRSIG expired / premature
  kRrsigSignerName,       // L005: RRSIG signer name is not the zone apex
  kRrsigInvalid,          // L006: signature fails cryptographic verification
  kNsec3Iterations,       // L007: NSEC3 iteration count above the bound
  kDsOrphan,              // L008: parent DS matches no apex DNSKEY
  kDsUnsignedChild,       // L009: parent publishes DS but the child is unsigned
  kCdsNonApex,            // L010: CDS/CDNSKEY outside apex or a _signal tree
  kDsPrematureKey,        // L107: DS references a CDS-announced, unpublished key
  kRrsigRetiredKey,       // L108: RRSIG by a key absent from the DNSKEY RRset
  kCdsUnpublishedKey,     // L109: CDS partially commits to unpublished keys
  kAlgorithmRollOrder,    // L110: algorithm rollover ordering violation
  // --- ecosystem rules (ecosystem_lint.cpp) ---
  kDelegationDrift,       // L100: parent NS set != child apex NS set
  kCdsCrossServer,        // L101: nameservers serve differing CDS/CDNSKEY
  kSignalIncomplete,      // L102: _dsboot tree missing for one or more NSes
  kSignalZoneCut,         // L103: signaling name crosses a foreign zone cut
  kSignalUnbootstrappable,// L104: signal RRs for an unsigned/invalid zone
  kSignalInconsistent,    // L105: _dsboot trees disagree across NSes
  kChaosUnobservable,     // L106: fault profile blackholes a zone forever
};

struct RuleInfo {
  RuleId id;
  std::string_view code;      // "L001"
  std::string_view name;      // "cds-unsigned-zone"
  Severity severity;
  std::string_view rationale; // one line, cites the defining RFC/paper section
};

// Every registered rule, in code order.
const std::vector<RuleInfo>& all_rules();

// Metadata for one rule (the registry is total over RuleId).
const RuleInfo& rule_info(RuleId id);

}  // namespace dnsboot::lint
