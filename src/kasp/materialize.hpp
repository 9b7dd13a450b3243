// Rollover materialization — the key material for a zone frozen mid-scenario.
//
// Two consumers share this module so that generator, linter, and scanner all
// witness the same rollover states: `ecosystem::build_shard` materializes
// static worlds whose quota-selected zones are caught mid-rollover at scan
// time, and `kasp::PolicyClock` (plus its tests) materializes the same states
// dynamically as the policy clock advances. Every draw comes from the Rng the
// caller passes in — per-(seed, zone) forks — so a scenario is a pure
// function of its fork.
#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "base/rng.hpp"
#include "dnssec/signer.hpp"

namespace dnsboot::kasp {

// The rollover state a zone can be observed in. The two kMid* states are
// policy-compliant snapshots of RFC 6781 rollovers (the scanner must NOT
// classify them broken); the rest are the botched states lint rules
// L107–L110 exist for.
enum class RolloverScenario : std::uint8_t {
  kNone = 0,
  kMidZskPrepublish,   // successor ZSK published, waiting out Ipub (clean)
  kMidKskDoubleDs,     // double-DS KSK roll mid-flight: two DS, two KSK (clean)
  kPrematureDs,        // DS swapped to a DNSKEY not yet published -> bogus
  kStaleRrsig,         // retired ZSK's RRSIGs still served -> bogus
  kCdsUnpublishedKey,  // CDS advertises an unpublished key (secure, L109)
  kAlgorithmBroken,    // foreign-algorithm DNSKEY signs nothing (secure, L110)
  kCount,
};

struct RolloverMaterial {
  dnssec::ZoneKeys keys;  // sign the zone with this set
  // DS rdatas the parent installs. Empty = the default single SHA-256 DS of
  // keys.ksk (the non-rollover path).
  std::vector<dns::DsRdata> parent_ds;
  // CDS/CDNSKEY override. Empty = publish the default child-sync set for
  // keys.ksk.
  std::vector<dns::DsRdata> cds;
  std::vector<dns::DnskeyRdata> cdnskey;
  // Stale-RRSIG surgery: when set, call apply_stale_rrsigs() with this
  // retired key after sign_zone (its RRSIGs replace the live ones while the
  // key itself is absent from the DNSKEY RRset).
  std::optional<crypto::KeyPair> stale_zsk;
};

Result<RolloverMaterial> materialize_rollover(RolloverScenario scenario,
                                              const dns::Name& zone,
                                              Rng& rng);

// Replace every data RRSIG (everything but the DNSKEY RRset's) with a
// signature by `retired`, which is not in the DNSKEY RRset: the stale-RRSIG
// pathology. The DNSKEY RRset and its KSK signature stay intact, so the
// breakage is observable below the key level, exactly where a botched
// retire-before-resign leaves a real zone.
Status apply_stale_rrsigs(dns::Zone& zone, const crypto::KeyPair& retired,
                          const dnssec::SigningPolicy& policy);

// A DNSKEY rdata for an algorithm this build cannot sign with (ECDSA P-256,
// algorithm 13, with an rng-drawn public key). Published-but-never-signing
// models the ordering violation of an algorithm rollover (RFC 6840 §5.11).
dns::DnskeyRdata foreign_algorithm_dnskey(Rng& rng);

}  // namespace dnsboot::kasp
