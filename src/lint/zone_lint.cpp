#include "lint/zone_lint.hpp"

#include <algorithm>
#include <set>
#include <string>

#include "dnssec/validator.hpp"

namespace dnsboot::lint {
namespace {

template <typename T>
std::vector<T> rdatas_of(const dns::Zone& zone, const dns::Name& owner,
                         dns::RRType type) {
  std::vector<T> out;
  const dns::RRset* set = zone.find_rrset(owner, type);
  if (set == nullptr) return out;
  for (const dns::Rdata& rdata : set->rdatas) {
    if (const T* typed = std::get_if<T>(&rdata)) out.push_back(*typed);
  }
  return out;
}

std::vector<dns::RrsigRdata> signatures_of(const dns::Zone& zone,
                                           const dns::Name& owner,
                                           dns::RRType type) {
  std::vector<dns::RrsigRdata> out;
  for (const dns::ResourceRecord& rr : zone.signatures_covering(owner, type)) {
    if (const auto* sig = std::get_if<dns::RrsigRdata>(&rr.rdata)) {
      out.push_back(*sig);
    }
  }
  return out;
}

// RFC 9615 signaling names (_dsboot.<zone>._signal.<ns>) legitimately carry
// CDS/CDNSKEY away from the apex.
bool in_signal_tree(const dns::Name& name) {
  for (std::string_view label : name.labels()) {
    if (label == "_signal") return true;
  }
  return false;
}

void check_child_sync_sets(const dns::Zone& zone,
                           const std::vector<dns::DnskeyRdata>& keys,
                           LintReport& report) {
  const dns::Name& apex = zone.origin();
  auto cds = rdatas_of<dns::DsRdata>(zone, apex, dns::RRType::kCDS);
  auto cdnskey = rdatas_of<dns::DnskeyRdata>(zone, apex, dns::RRType::kCDNSKEY);
  if (cds.empty() && cdnskey.empty()) return;

  // L001: CDS/CDNSKEY in a zone without a DNSKEY RRset. The records cannot
  // carry a valid RRSIG, so no parent may ever accept them.
  if (keys.empty()) {
    report.add(RuleId::kCdsUnsignedZone, apex, apex,
               "CDS/CDNSKEY published but the zone has no DNSKEY RRset");
    return;  // the pair/mismatch rules presuppose a signed zone
  }

  const auto cds_sentinels = static_cast<std::size_t>(std::count_if(
      cds.begin(), cds.end(),
      [](const dns::DsRdata& d) { return d.is_delete_sentinel(); }));
  const auto cdnskey_sentinels = static_cast<std::size_t>(std::count_if(
      cdnskey.begin(), cdnskey.end(),
      [](const dns::DnskeyRdata& k) { return k.is_delete_sentinel(); }));

  // RFC 8078 §4: the delete sentinel must be the only record in its set.
  if (cds_sentinels > 0 && cds_sentinels < cds.size()) {
    report.add(RuleId::kCdsCdnskeyPair, apex, apex,
               "CDS delete sentinel mixed with regular CDS records");
  }
  if (cdnskey_sentinels > 0 && cdnskey_sentinels < cdnskey.size()) {
    report.add(RuleId::kCdsCdnskeyPair, apex, apex,
               "CDNSKEY delete sentinel mixed with regular CDNSKEY records");
  }

  // L002: some non-sentinel CDS must commit to an apex DNSKEY, otherwise the
  // parent would install a DS that can never validate. L109: a *partial*
  // match — the current key plus a successor that is not yet in the DNSKEY
  // RRset — is the CDS-ahead-of-publication rollover ordering violation.
  const bool all_sentinel = cds_sentinels == cds.size();
  if (!cds.empty() && !all_sentinel) {
    bool any_match = false;
    std::vector<const dns::DsRdata*> unmatched;
    for (const dns::DsRdata& d : cds) {
      if (d.is_delete_sentinel()) continue;
      const bool matched = std::any_of(
          keys.begin(), keys.end(), [&](const dns::DnskeyRdata& key) {
            return dnssec::ds_matches_dnskey(apex, d, key);
          });
      if (matched) {
        any_match = true;
      } else {
        unmatched.push_back(&d);
      }
    }
    if (!any_match) {
      report.add(RuleId::kCdsDnskeyMismatch, apex, apex,
                 "no CDS record matches any apex DNSKEY");
    } else {
      for (const dns::DsRdata* d : unmatched) {
        report.add(RuleId::kCdsUnpublishedKey, apex, apex,
                   "CDS key tag " + std::to_string(d->key_tag) +
                       " commits to a key absent from the DNSKEY RRset");
      }
    }
  }

  // L003: when both sets are present they must describe the same keys
  // (RFC 7344 §4: "MUST be consistent").
  if (!cds.empty() && !cdnskey.empty()) {
    if ((cds_sentinels > 0) != (cdnskey_sentinels > 0)) {
      report.add(RuleId::kCdsCdnskeyPair, apex, apex,
                 "delete sentinel present in one of CDS/CDNSKEY but not both");
      return;
    }
    for (const dns::DsRdata& d : cds) {
      if (d.is_delete_sentinel()) continue;
      bool matched = std::any_of(
          cdnskey.begin(), cdnskey.end(), [&](const dns::DnskeyRdata& k) {
            return dnssec::ds_matches_dnskey(apex, d, k);
          });
      if (!matched) {
        report.add(RuleId::kCdsCdnskeyPair, apex, apex,
                   "CDS key tag " + std::to_string(d.key_tag) +
                       " matches no published CDNSKEY");
        return;
      }
    }
    for (const dns::DnskeyRdata& k : cdnskey) {
      if (k.is_delete_sentinel()) continue;
      bool matched =
          std::any_of(cds.begin(), cds.end(), [&](const dns::DsRdata& d) {
            return !d.is_delete_sentinel() &&
                   dnssec::ds_matches_dnskey(apex, d, k);
          });
      if (!matched) {
        report.add(RuleId::kCdsCdnskeyPair, apex, apex,
                   "CDNSKEY key tag " + std::to_string(k.key_tag()) +
                       " is committed by no CDS record");
        return;
      }
    }
  }
}

void check_signatures(const dns::Zone& zone,
                      const std::vector<dns::DnskeyRdata>& keys,
                      const ZoneLintOptions& options, LintReport& report) {
  const dns::Name& apex = zone.origin();
  for (const dns::RRset& rrset : zone.all_rrsets()) {
    auto sigs = signatures_of(zone, rrset.name, rrset.type);
    if (sigs.empty()) continue;  // unsigned data / glue / delegation NS

    // L005: every covering RRSIG must name this zone's apex as signer.
    std::vector<dns::RrsigRdata> apex_signed;
    for (const dns::RrsigRdata& sig : sigs) {
      if (sig.signer_name == apex) {
        apex_signed.push_back(sig);
      } else {
        report.add(RuleId::kRrsigSignerName, apex, rrset.name,
                   "RRSIG over " + dns::to_string(rrset.type) +
                       " names signer " + sig.signer_name.to_text());
      }
    }
    if (apex_signed.empty()) continue;

    // L004: the RRset is only validatable if some signature's window covers
    // `now` (RFC 4035 §5.3.1 clauses 9–10).
    std::vector<dns::RrsigRdata> current;
    for (const dns::RrsigRdata& sig : apex_signed) {
      if (sig.inception <= options.now && options.now <= sig.expiration) {
        current.push_back(sig);
      }
    }
    if (current.empty()) {
      const dns::RrsigRdata& sig = apex_signed.front();
      report.add(RuleId::kRrsigTemporal, apex, rrset.name,
                 "all RRSIGs over " + dns::to_string(rrset.type) +
                     " outside validity (expiration " +
                     std::to_string(sig.expiration) + ", now " +
                     std::to_string(options.now) + ")");
      continue;
    }

    // L108: some current signature must name a published key. When every
    // tag/algorithm points outside the DNSKEY RRset, the signer was retired
    // (or never published) while its signatures linger — report the rollover
    // ordering violation, not the generic verification failure below.
    if (!keys.empty()) {
      bool signer_published = false;
      for (const dns::RrsigRdata& sig : current) {
        for (const dns::DnskeyRdata& key : keys) {
          if (key.algorithm == sig.algorithm && key.key_tag() == sig.key_tag) {
            signer_published = true;
            break;
          }
        }
        if (signer_published) break;
      }
      if (!signer_published) {
        report.add(RuleId::kRrsigRetiredKey, apex, rrset.name,
                   "RRSIG over " + dns::to_string(rrset.type) +
                       " by key tag " +
                       std::to_string(current.front().key_tag) +
                       " matches no published DNSKEY (retired key)");
        continue;
      }
    }

    // L006: temporally valid signatures must verify against the key set.
    // Costs one Ed25519 verification per signed RRset.
    if (!keys.empty()) {
      dnssec::RrsetValidation validation =
          dnssec::verify_rrset(rrset, current, keys, apex, options.now);
      if (!validation.valid) {
        report.add(RuleId::kRrsigInvalid, apex, rrset.name,
                   "RRSIG over " + dns::to_string(rrset.type) +
                       " fails verification: " + validation.reason);
      }
    }
  }
}

void check_nsec3(const dns::Zone& zone, const ZoneLintOptions& options,
                 LintReport& report) {
  const dns::Name& apex = zone.origin();
  auto flag = [&](const dns::Name& owner, std::uint16_t iterations) {
    if (iterations <= options.nsec3_iteration_limit) return;
    report.add(RuleId::kNsec3Iterations, apex, owner,
               std::to_string(iterations) + " NSEC3 iterations exceed bound " +
                   std::to_string(options.nsec3_iteration_limit));
  };
  for (const auto& param :
       rdatas_of<dns::Nsec3ParamRdata>(zone, apex, dns::RRType::kNSEC3PARAM)) {
    flag(apex, param.iterations);
  }
  for (const dns::RRset& rrset : zone.all_rrsets()) {
    if (rrset.type != dns::RRType::kNSEC3) continue;
    for (const dns::Rdata& rdata : rrset.rdatas) {
      if (const auto* nsec3 = std::get_if<dns::Nsec3Rdata>(&rdata)) {
        flag(rrset.name, nsec3->iterations);
      }
    }
  }
}

void check_parent_ds(const dns::Zone& zone,
                     const std::vector<dns::DnskeyRdata>& keys,
                     const ZoneLintOptions& options, LintReport& report) {
  if (!options.have_parent || options.parent_ds.empty()) return;
  const dns::Name& apex = zone.origin();
  // L009: a DS without any child DNSKEY makes the zone bogus outright.
  if (keys.empty()) {
    report.add(RuleId::kDsUnsignedChild, apex, apex,
               "parent publishes " + std::to_string(options.parent_ds.size()) +
                   " DS record(s) but the zone serves no DNSKEY");
    return;
  }
  // L008: some DS must commit to an apex key for the chain to close. L107
  // refines the orphan case: a non-matching DS the child itself announces
  // via CDS/CDNSKEY means the registry swapped the DS before the successor
  // DNSKEY was published (Ipub not honored) — a diagnosable botched
  // rollover, not an arbitrary stale DS.
  const auto cds = rdatas_of<dns::DsRdata>(zone, apex, dns::RRType::kCDS);
  const auto cdnskey =
      rdatas_of<dns::DnskeyRdata>(zone, apex, dns::RRType::kCDNSKEY);
  bool any_match = false;
  for (const dns::DsRdata& ds : options.parent_ds) {
    const bool matched = std::any_of(
        keys.begin(), keys.end(), [&](const dns::DnskeyRdata& key) {
          return dnssec::ds_matches_dnskey(apex, ds, key);
        });
    if (matched) {
      any_match = true;
      continue;
    }
    const bool announced =
        std::any_of(cds.begin(), cds.end(),
                    [&](const dns::DsRdata& c) {
                      return !c.is_delete_sentinel() &&
                             c.key_tag == ds.key_tag &&
                             c.algorithm == ds.algorithm &&
                             c.digest_type == ds.digest_type &&
                             c.digest == ds.digest;
                    }) ||
        std::any_of(cdnskey.begin(), cdnskey.end(),
                    [&](const dns::DnskeyRdata& k) {
                      return !k.is_delete_sentinel() &&
                             dnssec::ds_matches_dnskey(apex, ds, k);
                    });
    if (announced) {
      report.add(RuleId::kDsPrematureKey, apex, apex,
                 "parent DS key tag " + std::to_string(ds.key_tag) +
                     " is announced via CDS but absent from the DNSKEY RRset");
    }
  }
  if (!any_match) {
    report.add(RuleId::kDsOrphan, apex, apex,
               "no parent DS matches any apex DNSKEY (orphan DS)");
  }
}

// L110: RFC 4035 §2.2 expects every DNSKEY algorithm to sign the zone, and
// RFC 6781 §4.1.4 orders an algorithm rollover "signatures, then keys, then
// DS". A published algorithm with no valid signature anywhere — or a DS
// algorithm with no DNSKEY behind it — is a rollover executed out of order.
void check_algorithm_roll_order(const dns::Zone& zone,
                                const std::vector<dns::DnskeyRdata>& keys,
                                const ZoneLintOptions& options,
                                LintReport& report) {
  if (keys.empty()) return;
  const dns::Name& apex = zone.origin();
  std::set<std::uint8_t> key_algorithms;
  for (const dns::DnskeyRdata& key : keys) {
    if (!key.is_delete_sentinel()) key_algorithms.insert(key.algorithm);
  }
  std::set<std::uint8_t> signing_algorithms;
  for (const dns::RRset& rrset : zone.all_rrsets()) {
    for (const dns::RrsigRdata& sig :
         signatures_of(zone, rrset.name, rrset.type)) {
      if (sig.signer_name != apex) continue;
      if (sig.inception <= options.now && options.now <= sig.expiration) {
        signing_algorithms.insert(sig.algorithm);
      }
    }
  }
  // No current signature at all: the zone is unsigned-with-keys or fully
  // expired — L004's domain, not an ordering question.
  if (signing_algorithms.empty()) return;
  for (std::uint8_t algorithm : key_algorithms) {
    if (signing_algorithms.count(algorithm) == 0) {
      report.add(RuleId::kAlgorithmRollOrder, apex, apex,
                 "DNSKEY algorithm " + std::to_string(algorithm) +
                     " signs no RRset in the zone");
    }
  }
  if (options.have_parent) {
    for (const dns::DsRdata& ds : options.parent_ds) {
      if (key_algorithms.count(ds.algorithm) == 0) {
        report.add(RuleId::kAlgorithmRollOrder, apex, apex,
                   "parent DS algorithm " + std::to_string(ds.algorithm) +
                       " has no matching DNSKEY algorithm");
      }
    }
  }
}

void check_non_apex_child_sync(const dns::Zone& zone, LintReport& report) {
  const dns::Name& apex = zone.origin();
  for (const dns::RRset& rrset : zone.all_rrsets()) {
    if (rrset.type != dns::RRType::kCDS && rrset.type != dns::RRType::kCDNSKEY) {
      continue;
    }
    if (rrset.name == apex || in_signal_tree(rrset.name)) continue;
    report.add(RuleId::kCdsNonApex, apex, rrset.name,
               dns::to_string(rrset.type) +
                   " outside the apex and outside any _signal tree");
  }
}

}  // namespace

void lint_zone(const dns::Zone& zone, const ZoneLintOptions& options,
               LintReport& report) {
  report.note_zone_checked();
  auto keys = rdatas_of<dns::DnskeyRdata>(zone, zone.origin(),
                                          dns::RRType::kDNSKEY);
  check_child_sync_sets(zone, keys, report);
  check_signatures(zone, keys, options, report);
  check_nsec3(zone, options, report);
  check_parent_ds(zone, keys, options, report);
  check_algorithm_roll_order(zone, keys, options, report);
  check_non_apex_child_sync(zone, report);
}

LintReport lint_zone(const dns::Zone& zone, const ZoneLintOptions& options) {
  LintReport report;
  lint_zone(zone, options, report);
  return report;
}

}  // namespace dnsboot::lint
