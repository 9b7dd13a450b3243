#include "lint/rule.hpp"

#include <cassert>

namespace dnsboot::lint {

std::string_view to_string(Severity severity) {
  switch (severity) {
    case Severity::kInfo: return "info";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "unknown";
}

const std::vector<RuleInfo>& all_rules() {
  static const std::vector<RuleInfo> rules = {
      {RuleId::kCdsUnsignedZone, "L001", "cds-unsigned-zone", Severity::kError,
       "CDS/CDNSKEY must be signed with the zone's own keys; an unsigned zone "
       "cannot publish an acceptable set (RFC 7344 §4.1, paper §4.2)"},
      {RuleId::kCdsDnskeyMismatch, "L002", "cds-dnskey-mismatch",
       Severity::kError,
       "no CDS digest commits to any apex DNSKEY, so accepting it would "
       "break the chain of trust (RFC 7344 §5, paper §4.2)"},
      {RuleId::kCdsCdnskeyPair, "L003", "cds-cdnskey-pair", Severity::kError,
       "CDS and CDNSKEY sets must describe the same keys, and the delete "
       "sentinel must stand alone (RFC 7344 §3, RFC 8078 §4)"},
      {RuleId::kRrsigTemporal, "L004", "rrsig-temporal", Severity::kError,
       "every covering RRSIG is expired or not yet incepted at validation "
       "time (RFC 4035 §5.3; the paper's Invalid class)"},
      {RuleId::kRrsigSignerName, "L005", "rrsig-signer-name", Severity::kError,
       "the RRSIG signer name must be the apex of the zone containing the "
       "RRset (RFC 4035 §5.3.1)"},
      {RuleId::kRrsigInvalid, "L006", "rrsig-invalid", Severity::kError,
       "a temporally valid RRSIG fails cryptographic verification against "
       "the apex DNSKEY set (paper §4.2: invalid RRSIGs over CDS)"},
      {RuleId::kNsec3Iterations, "L007", "nsec3-iterations",
       Severity::kWarning,
       "NSEC3 iteration counts above the bound cause resolvers to treat the "
       "zone as insecure or unreachable (RFC 9276 §3.1)"},
      {RuleId::kDsOrphan, "L008", "ds-orphan", Severity::kError,
       "the parent's DS matches no apex DNSKEY, so validation is bogus "
       "(RFC 4035 §5; orphan DS after a botched rollover)"},
      {RuleId::kDsUnsignedChild, "L009", "ds-unsigned-child", Severity::kError,
       "the parent publishes a DS but the child serves no DNSKEY: the zone "
       "is bogus for every validating resolver (paper §4.1 Invalid)"},
      {RuleId::kCdsNonApex, "L010", "cds-non-apex", Severity::kWarning,
       "CDS/CDNSKEY are apex-only records; outside a _signal tree a non-apex "
       "set is ignored by parents (RFC 7344 §4.1, RFC 9615 §2)"},
      {RuleId::kDelegationDrift, "L100", "delegation-drift",
       Severity::kWarning,
       "the delegation NS set at the parent differs from the child apex NS "
       "set (RFC 7477 motivation; breaks every-NS signal coverage)"},
      {RuleId::kCdsCrossServer, "L101", "cds-cross-server", Severity::kError,
       "authoritative servers disagree on the CDS/CDNSKEY set, so the parent "
       "cannot act on it (RFC 7344 §6.1 consistency; paper §4.2)"},
      {RuleId::kSignalIncomplete, "L102", "signal-incomplete",
       Severity::kError,
       "RFC 9615 requires the _dsboot signaling tree under every delegated "
       "NS; a missing tree makes the zone non-bootstrappable (paper §4.4)"},
      {RuleId::kSignalZoneCut, "L103", "signal-zone-cut", Severity::kError,
       "the signaling name crosses a zone cut out of the signaling zone, so "
       "the signal cannot validate (RFC 9615 §4.1; the paper's desc.io typo)"},
      {RuleId::kSignalUnbootstrappable, "L104", "signal-unbootstrappable",
       Severity::kError,
       "signal RRs advertise bootstrapping for a zone that is unsigned or "
       "fails validation in-zone (paper §4.4, Table 3 invalid rows)"},
      {RuleId::kSignalInconsistent, "L105", "signal-inconsistent",
       Severity::kError,
       "_dsboot trees disagree across nameservers (or with the in-zone CDS), "
       "so registries see conflicting signals (RFC 9615 §4.2, paper §4.4)"},
      {RuleId::kChaosUnobservable, "L106", "chaos-unobservable",
       Severity::kError,
       "the fault profile permanently blackholes every endpoint serving the "
       "zone, so no scan can ever observe it (chaos worlds must stay "
       "measurable: every failure should be attributable, not structural)"},
      {RuleId::kDsPrematureKey, "L107", "ds-premature-key", Severity::kError,
       "the parent DS commits to a key the child announces via CDS but has "
       "not yet published: the DS was swapped before Ipub elapsed "
       "(RFC 7583 §3.3.2; a botched double-DS rollover)"},
      {RuleId::kRrsigRetiredKey, "L108", "rrsig-retired-key",
       Severity::kError,
       "a temporally valid RRSIG names a key tag/algorithm absent from the "
       "DNSKEY RRset: the signing key was retired before its signatures were "
       "replaced (RFC 7583 §3.2.2 Iret; the stale-RRSIG failure)"},
      {RuleId::kCdsUnpublishedKey, "L109", "cds-unpublished-key",
       Severity::kWarning,
       "part of the CDS set commits to keys missing from the DNSKEY RRset; "
       "a parent acting on the full set would install a DS that cannot "
       "validate (RFC 7344 §4.1 continuity, RFC 7583 §3.3)"},
      {RuleId::kAlgorithmRollOrder, "L110", "algorithm-roll-order",
       Severity::kWarning,
       "a DNSKEY algorithm signs nothing in the zone (or a DS algorithm has "
       "no DNSKEY): algorithm rollovers must publish signatures before keys "
       "and keys before DS (RFC 6781 §4.1.4, RFC 4035 §2.2)"},
  };
  return rules;
}

const RuleInfo& rule_info(RuleId id) {
  for (const RuleInfo& rule : all_rules()) {
    if (rule.id == id) return rule;
  }
  assert(false && "unregistered RuleId");
  return all_rules().front();
}

}  // namespace dnsboot::lint
