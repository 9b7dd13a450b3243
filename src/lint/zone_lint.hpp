// Single-zone static analysis: checks a Zone's DNSSEC/CDS state without any
// network traffic (rules L001–L010 plus the key-lifecycle rules L107–L110).
// The caller supplies the validation time and, when known, the DS set the
// parent publishes for this zone.
#pragma once

#include <cstdint>
#include <vector>

#include "dns/rdata.hpp"
#include "dns/zone.hpp"
#include "lint/findings.hpp"

namespace dnsboot::lint {

struct ZoneLintOptions {
  // Validation time (absolute simulated seconds) for RRSIG temporal checks.
  std::uint32_t now = 0;
  // DS RDATAs the parent zone delegates with. Only meaningful when
  // `have_parent` is set; an empty set then means "no DS" (island/unsigned).
  std::vector<dns::DsRdata> parent_ds;
  bool have_parent = false;
  // RFC 9276 §3.1: validating resolvers may treat zones above this NSEC3
  // iteration count as insecure.
  std::uint16_t nsec3_iteration_limit = 100;
};

// Append findings for `zone` to `report`.
void lint_zone(const dns::Zone& zone, const ZoneLintOptions& options,
               LintReport& report);

// Convenience: lint one standalone zone.
LintReport lint_zone(const dns::Zone& zone, const ZoneLintOptions& options);

}  // namespace dnsboot::lint
