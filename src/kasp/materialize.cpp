#include "kasp/materialize.hpp"

namespace dnsboot::kasp {

namespace {

// The deSEC-style CDS/CDNSKEY publication for one KSK, appended to `out`.
Status append_child_sync(const dns::Name& zone, const crypto::KeyPair& ksk,
                         RolloverMaterial& out) {
  DNSBOOT_TRY(sync, dnssec::make_child_sync_records(zone, ksk));
  for (auto& cds : sync.cds) out.cds.push_back(std::move(cds));
  for (auto& key : sync.cdnskey) out.cdnskey.push_back(std::move(key));
  return Status::ok_status();
}

Result<dns::DsRdata> ds_of(const dns::Name& zone, const crypto::KeyPair& ksk) {
  return dnssec::make_ds(zone, dnssec::make_dnskey(ksk), 2);
}

}  // namespace

dns::DnskeyRdata foreign_algorithm_dnskey(Rng& rng) {
  dns::DnskeyRdata rd;
  rd.flags = crypto::kZskFlags;
  rd.protocol = 3;
  rd.algorithm =
      static_cast<std::uint8_t>(crypto::DnssecAlgorithm::kEcdsaP256Sha256);
  rd.public_key = rng.bytes(64);
  return rd;
}

Result<RolloverMaterial> materialize_rollover(RolloverScenario scenario,
                                              const dns::Name& zone,
                                              Rng& rng) {
  RolloverMaterial out{dnssec::ZoneKeys::generate(rng), {}, {}, {}, {}};
  switch (scenario) {
    case RolloverScenario::kNone:
    case RolloverScenario::kCount:
      break;

    case RolloverScenario::kMidZskPrepublish: {
      // Successor ZSK published (waiting out Ipub) but not yet signing.
      out.keys.extra_zsks.push_back(
          crypto::KeyPair::generate(rng, crypto::kZskFlags));
      break;
    }

    case RolloverScenario::kMidKskDoubleDs: {
      // Both KSKs published and signing the DNSKEY RRset; both DS installed;
      // CDS announces the pair (the moment between DS submit and activate).
      crypto::KeyPair successor =
          crypto::KeyPair::generate(rng, crypto::kKskFlags);
      DNSBOOT_TRY(old_ds, ds_of(zone, out.keys.ksk));
      DNSBOOT_TRY(new_ds, ds_of(zone, successor));
      out.parent_ds.push_back(std::move(old_ds));
      out.parent_ds.push_back(std::move(new_ds));
      DNSBOOT_CHECK(append_child_sync(zone, out.keys.ksk, out));
      DNSBOOT_CHECK(append_child_sync(zone, successor, out));
      out.keys.extra_ksks.push_back(std::move(successor));
      break;
    }

    case RolloverScenario::kPrematureDs: {
      // The registry swapped the DS to the successor before the successor
      // DNSKEY was published: the chain is bogus (L107 territory).
      crypto::KeyPair successor =
          crypto::KeyPair::generate(rng, crypto::kKskFlags);
      DNSBOOT_TRY(new_ds, ds_of(zone, successor));
      out.parent_ds.push_back(std::move(new_ds));
      DNSBOOT_CHECK(append_child_sync(zone, out.keys.ksk, out));
      DNSBOOT_CHECK(append_child_sync(zone, successor, out));
      break;
    }

    case RolloverScenario::kStaleRrsig: {
      // The predecessor ZSK was pulled from the RRset before its RRSIGs were
      // replaced: data signatures by a retired key (L108 territory).
      out.stale_zsk = crypto::KeyPair::generate(rng, crypto::kZskFlags);
      break;
    }

    case RolloverScenario::kCdsUnpublishedKey: {
      // CDS announces the successor ahead of its DNSKEY publication. The
      // chain stays secure via the current key (L109 territory).
      crypto::KeyPair successor =
          crypto::KeyPair::generate(rng, crypto::kKskFlags);
      DNSBOOT_CHECK(append_child_sync(zone, out.keys.ksk, out));
      DNSBOOT_CHECK(append_child_sync(zone, successor, out));
      break;
    }

    case RolloverScenario::kAlgorithmBroken: {
      // A new-algorithm DNSKEY is published but nothing is signed with it:
      // the algorithm-rollover ordering violation (L110 territory). The
      // zone still validates via the Ed25519 chain (RFC 6840 §5.11 lenient
      // rule), so only lint sees it.
      out.keys.extra_dnskeys.push_back(foreign_algorithm_dnskey(rng));
      break;
    }
  }
  return out;
}

Status apply_stale_rrsigs(dns::Zone& zone, const crypto::KeyPair& retired,
                          const dnssec::SigningPolicy& policy) {
  for (const dns::RRset& set : zone.all_rrsets()) {
    if (set.type == dns::RRType::kDNSKEY) continue;
    if (zone.signatures_covering(set.name, set.type).empty()) continue;
    zone.remove_signatures(set.name, set.type);
    DNSBOOT_CHECK(
        zone.add(dnssec::sign_rrset(set, retired, zone.origin(), policy)));
  }
  return Status::ok_status();
}

}  // namespace dnsboot::kasp
