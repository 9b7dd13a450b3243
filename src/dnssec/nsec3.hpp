// NSEC3 (RFC 5155): hashed authenticated denial of existence. dnsboot signs
// zones with either NSEC or NSEC3 (SigningPolicy.denial); validators verify
// both.
#pragma once

#include "dns/zone.hpp"

namespace dnsboot::dnssec {

struct Nsec3Params {
  std::uint16_t iterations = 0;  // RFC 9276 best practice: 0 extra iterations
  Bytes salt;                    // RFC 9276: empty salt recommended
};

// The RFC 5155 §5 hash: IH(0) = H(owner | salt); IH(k) = H(IH(k-1) | salt),
// with H = SHA-1 and the owner in canonical (lowercase) wire form.
Bytes nsec3_hash(const dns::Name& owner, const Nsec3Params& params);

// The NSEC3 owner name for `name` in `zone`: base32hex(hash).<zone apex>.
dns::Name nsec3_owner(const dns::Name& name, const dns::Name& apex,
                      const Nsec3Params& params);

// Build the NSEC3 chain (plus NSEC3PARAM at the apex) over the zone's
// authoritative names. Called by sign_zone; exposed for tests.
Status build_nsec3_chain(dns::Zone& zone, const Nsec3Params& params,
                         std::uint32_t ttl);

// --- denial proofs -------------------------------------------------------------

// Does this NSEC3 record (owner = hashed label + apex) match `name`'s hash?
bool nsec3_matches(const dns::ResourceRecord& nsec3, const dns::Name& apex,
                   const dns::Name& name);

// Does it cover `name`'s hash (strictly between owner hash and next hash)?
bool nsec3_covers(const dns::ResourceRecord& nsec3, const dns::Name& apex,
                  const dns::Name& name);
// The same test on the first record of a stored NSEC3 RRset, read in place.
bool nsec3_covers(const dns::RRset& nsec3, const dns::Name& apex,
                  const dns::Name& name);

// NODATA: an NSEC3 matching `name` without `type` in its bitmap.
bool nsec3_proves_nodata(const std::vector<dns::ResourceRecord>& nsec3s,
                         const dns::Name& apex, const dns::Name& name,
                         dns::RRType type);

// NXDOMAIN: a matching NSEC3 for the closest encloser plus a covering NSEC3
// for the next-closer name (no wildcards in the simulated ecosystem).
bool nsec3_proves_nxdomain(const std::vector<dns::ResourceRecord>& nsec3s,
                           const dns::Name& apex, const dns::Name& name);

}  // namespace dnsboot::dnssec
