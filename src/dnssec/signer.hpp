// Zone signing: DNSKEY/CDS/CDNSKEY construction, RRset signatures, NSEC
// chains, and whole-zone signing (the "DNS operator" side of the paper).
#pragma once

#include <optional>
#include <vector>

#include "crypto/keys.hpp"
#include "dns/zone.hpp"

namespace dnsboot::dnssec {

// Key material for one zone: a key-signing key (signs the DNSKEY RRset, is
// referenced by the DS in the parent) and a zone-signing key (signs the data).
struct ZoneKeys {
  crypto::KeyPair ksk;
  crypto::KeyPair zsk;
  // Additional KSKs kept in the DNSKEY RRset during a rollover (RFC 6781
  // double-signature scheme): the old key stays published and keeps signing
  // the DNSKEY RRset until the parent's DS has moved to the new key.
  std::vector<crypto::KeyPair> extra_ksks{};
  // ZSKs published but not signing: the pre-publish phase of an RFC 6781
  // §4.1.1.1 ZSK rollover (the successor waits out Ipub before it may sign),
  // and the retire phase (the predecessor stays published until old RRSIGs
  // have left caches).
  std::vector<crypto::KeyPair> extra_zsks{};
  // ZSKs that co-sign every ZSK-signed RRset (double-signature rollover, and
  // the algorithm-roll requirement of RFC 4035 §2.2 that each algorithm in
  // the DNSKEY RRset signs the zone).
  std::vector<crypto::KeyPair> co_zsks{};
  // Raw DNSKEY rdatas published without any signing capability. Models key
  // material this build cannot sign with (e.g. a foreign-algorithm DNSKEY
  // during a botched algorithm rollover).
  std::vector<dns::DnskeyRdata> extra_dnskeys{};

  static ZoneKeys generate(Rng& rng);
};

enum class DenialMode {
  kNsec,   // RFC 4034 NSEC chain
  kNsec3,  // RFC 5155 hashed chain + NSEC3PARAM
};

struct SigningPolicy {
  std::uint32_t inception = 0;          // absolute simulated seconds
  std::uint32_t expiration = 30 * 86400;
  std::uint32_t dnskey_ttl = 3600;
  std::uint32_t nsec_ttl = 300;
  // Generate the denial chain. Registry-scale zones (a TLD with 10^5
  // delegations) can skip it: the scan pipeline never requests denial proofs
  // from parents, and the chain would dominate signing cost.
  bool generate_nsec = true;
  DenialMode denial = DenialMode::kNsec;
  // NSEC3 parameters (RFC 9276 recommends 0 iterations, empty salt).
  std::uint16_t nsec3_iterations = 0;
  Bytes nsec3_salt;
};

// Build the DNSKEY RDATA for a key.
dns::DnskeyRdata make_dnskey(const crypto::KeyPair& key);

// Build a DS RDATA referencing `dnskey` at `owner`. Supported digest types:
// 2 (SHA-256) and 4 (SHA-384).
Result<dns::DsRdata> make_ds(const dns::Name& owner,
                             const dns::DnskeyRdata& dnskey,
                             std::uint8_t digest_type);

// CDS/CDNSKEY sets a compliant operator publishes for its KSK: CDS SHA-256 +
// CDS SHA-384 + CDNSKEY (the deSEC publication pattern described in §4.4).
struct ChildSyncRecords {
  std::vector<dns::DsRdata> cds;         // one per digest type
  std::vector<dns::DnskeyRdata> cdnskey; // the KSK itself
};
Result<ChildSyncRecords> make_child_sync_records(const dns::Name& owner,
                                                 const crypto::KeyPair& ksk);

// The RFC 8078 §4 delete sentinels.
dns::DsRdata cds_delete_sentinel();
dns::DnskeyRdata cdnskey_delete_sentinel();

// Sign one RRset with `key`, returning the RRSIG record.
dns::ResourceRecord sign_rrset(const dns::RRset& rrset,
                               const crypto::KeyPair& key,
                               const dns::Name& signer,
                               const SigningPolicy& policy);

// Sign a whole zone in place: installs the DNSKEY RRset, builds the NSEC
// chain, and signs every authoritative RRset (delegation NS sets and glue are
// left unsigned, per RFC 4035 §2.2). Idempotent: strips existing DNSSEC
// records first.
Status sign_zone(dns::Zone& zone, const ZoneKeys& keys,
                 const SigningPolicy& policy);

// Names that are authoritative in `zone` (not glue/occluded below a cut).
bool is_authoritative_name(const dns::Zone& zone, const dns::Name& name);

}  // namespace dnsboot::dnssec
