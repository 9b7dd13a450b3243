#include <gtest/gtest.h>

#include "base/rng.hpp"
#include "dns/zonefile.hpp"
#include "dnssec/canonical.hpp"
#include "dnssec/signer.hpp"
#include "dnssec/validator.hpp"

namespace dnsboot::dnssec {
namespace {

using dns::Name;
using dns::RRType;

Name name_of(const std::string& text) {
  return std::move(Name::from_text(text)).take();
}

constexpr std::uint32_t kNow = 1000000;

SigningPolicy test_policy() {
  SigningPolicy p;
  p.inception = kNow - 3600;
  p.expiration = kNow + 30 * 86400;
  return p;
}

dns::Zone make_unsigned_zone(const std::string& apex) {
  const std::string text =
      "@ IN SOA ns1 hostmaster 1 7200 3600 1209600 300\n"
      "@ IN NS ns1\n"
      "@ IN NS ns2\n"
      "ns1 IN A 192.0.2.1\n"
      "ns2 IN A 192.0.2.2\n"
      "www IN A 192.0.2.80\n"
      "www IN AAAA 2001:db8::80\n";
  auto zone =
      dns::parse_zone(text, dns::ZoneFileOptions{name_of(apex), 3600});
  EXPECT_TRUE(zone.ok());
  return std::move(zone).take();
}

struct SignedZone {
  dns::Zone zone;
  ZoneKeys keys;
};

SignedZone make_signed_zone(const std::string& apex, std::uint64_t seed) {
  Rng rng(seed);
  SignedZone out{make_unsigned_zone(apex), ZoneKeys::generate(rng)};
  EXPECT_TRUE(sign_zone(out.zone, out.keys, test_policy()).ok());
  return out;
}

std::vector<dns::DnskeyRdata> keys_of(const dns::Zone& zone) {
  std::vector<dns::DnskeyRdata> out;
  const dns::RRset* set = zone.find_rrset(zone.origin(), RRType::kDNSKEY);
  if (set == nullptr) return out;
  for (const auto& rd : set->rdatas) {
    out.push_back(std::get<dns::DnskeyRdata>(rd));
  }
  return out;
}

std::vector<dns::RrsigRdata> sigs_over(const dns::Zone& zone, const Name& name,
                                       RRType type) {
  std::vector<dns::RrsigRdata> out;
  for (const auto& rr : zone.signatures_covering(name, type)) {
    out.push_back(std::get<dns::RrsigRdata>(rr.rdata));
  }
  return out;
}

// --- signer basics ------------------------------------------------------------

TEST(Signer, DnskeyConstruction) {
  Rng rng(1);
  auto keys = ZoneKeys::generate(rng);
  auto ksk = make_dnskey(keys.ksk);
  auto zsk = make_dnskey(keys.zsk);
  EXPECT_EQ(ksk.flags, 257);
  EXPECT_EQ(zsk.flags, 256);
  EXPECT_EQ(ksk.protocol, 3);
  EXPECT_EQ(ksk.algorithm, 15);
  EXPECT_EQ(ksk.public_key.size(), 32u);
  EXPECT_TRUE(ksk.is_sep());
  EXPECT_FALSE(zsk.is_sep());
}

TEST(Signer, DsDigestTypes) {
  Rng rng(2);
  auto keys = ZoneKeys::generate(rng);
  auto dnskey = make_dnskey(keys.ksk);
  auto apex = name_of("example.ch.");
  auto sha256 = make_ds(apex, dnskey, 2);
  ASSERT_TRUE(sha256.ok());
  EXPECT_EQ(sha256->digest.size(), 32u);
  auto sha384 = make_ds(apex, dnskey, 4);
  ASSERT_TRUE(sha384.ok());
  EXPECT_EQ(sha384->digest.size(), 48u);
  EXPECT_EQ(sha256->key_tag, dnskey.key_tag());
  EXPECT_FALSE(make_ds(apex, dnskey, 99).ok());
}

TEST(Signer, DsDependsOnOwnerName) {
  // The DS digest covers the owner name, so the same key at two different
  // apexes produces different digests.
  Rng rng(3);
  auto keys = ZoneKeys::generate(rng);
  auto dnskey = make_dnskey(keys.ksk);
  auto a = make_ds(name_of("a.example."), dnskey, 2).take();
  auto b = make_ds(name_of("b.example."), dnskey, 2).take();
  EXPECT_NE(a.digest, b.digest);
}

TEST(Signer, ChildSyncRecordsFollowDesecPattern) {
  Rng rng(4);
  auto keys = ZoneKeys::generate(rng);
  auto records = make_child_sync_records(name_of("example.ch."), keys.ksk);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->cds.size(), 2u);
  EXPECT_EQ(records->cds[0].digest_type, 2);
  EXPECT_EQ(records->cds[1].digest_type, 4);
  ASSERT_EQ(records->cdnskey.size(), 1u);
  EXPECT_EQ(records->cdnskey[0].flags, 257);
}

TEST(Signer, DeleteSentinelsAreCanonical) {
  EXPECT_TRUE(cds_delete_sentinel().is_delete_sentinel());
  EXPECT_TRUE(cdnskey_delete_sentinel().is_delete_sentinel());
}

TEST(Signer, SignZoneProducesCompleteDnssec) {
  auto signed_zone = make_signed_zone("example.com.", 5);
  const auto& zone = signed_zone.zone;
  // DNSKEY RRset with 2 keys.
  const dns::RRset* dnskey = zone.find_rrset(zone.origin(), RRType::kDNSKEY);
  ASSERT_NE(dnskey, nullptr);
  EXPECT_EQ(dnskey->size(), 2u);
  // Every authoritative RRset has a covering RRSIG.
  for (const auto& set : zone.all_rrsets()) {
    SCOPED_TRACE(set.name.to_text() + " " + dns::to_string(set.type));
    EXPECT_FALSE(zone.signatures_covering(set.name, set.type).empty());
  }
  // NSEC chain present and circular.
  const dns::RRset* apex_nsec = zone.find_rrset(zone.origin(), RRType::kNSEC);
  ASSERT_NE(apex_nsec, nullptr);
}

TEST(Signer, NsecChainIsCircularAndOrdered) {
  auto signed_zone = make_signed_zone("example.com.", 6);
  const auto& zone = signed_zone.zone;
  // Follow the chain from the apex; it must visit every authoritative name
  // exactly once and return to the apex.
  std::size_t hops = 0;
  Name cursor = zone.origin();
  do {
    const dns::RRset* nsec = zone.find_rrset(cursor, RRType::kNSEC);
    ASSERT_NE(nsec, nullptr) << cursor.to_text();
    cursor = std::get<dns::NsecRdata>(nsec->rdatas[0]).next_domain;
    ++hops;
    ASSERT_LE(hops, 100u) << "NSEC chain does not close";
  } while (cursor != zone.origin());
  EXPECT_EQ(hops, zone.names().size());
}

TEST(Signer, ResigningIsIdempotent) {
  auto signed_zone = make_signed_zone("example.com.", 7);
  auto count_before = signed_zone.zone.record_count();
  ASSERT_TRUE(
      sign_zone(signed_zone.zone, signed_zone.keys, test_policy()).ok());
  EXPECT_EQ(signed_zone.zone.record_count(), count_before);
}

TEST(Signer, DelegationNsIsNotSigned) {
  dns::Zone zone = make_unsigned_zone("example.com.");
  dns::ResourceRecord cut;
  cut.name = name_of("child.example.com.");
  cut.type = RRType::kNS;
  cut.ttl = 3600;
  cut.rdata = dns::NsRdata{name_of("ns1.elsewhere.net.")};
  ASSERT_TRUE(zone.add(cut).ok());
  Rng rng(8);
  auto keys = ZoneKeys::generate(rng);
  ASSERT_TRUE(sign_zone(zone, keys, test_policy()).ok());
  EXPECT_TRUE(
      zone.signatures_covering(name_of("child.example.com."), RRType::kNS)
          .empty());
  // But the cut still appears in the NSEC chain.
  EXPECT_NE(zone.find_rrset(name_of("child.example.com."), RRType::kNSEC),
            nullptr);
}

TEST(Signer, GlueIsNeitherSignedNorInNsecChain) {
  dns::Zone zone = make_unsigned_zone("example.com.");
  dns::ResourceRecord cut;
  cut.name = name_of("child.example.com.");
  cut.type = RRType::kNS;
  cut.ttl = 3600;
  cut.rdata = dns::NsRdata{name_of("ns1.child.example.com.")};
  ASSERT_TRUE(zone.add(cut).ok());
  dns::ResourceRecord glue;
  glue.name = name_of("ns1.child.example.com.");
  glue.type = RRType::kA;
  glue.ttl = 3600;
  glue.rdata = dns::ARdata{{192, 0, 2, 53}};
  ASSERT_TRUE(zone.add(glue).ok());
  Rng rng(9);
  auto keys = ZoneKeys::generate(rng);
  ASSERT_TRUE(sign_zone(zone, keys, test_policy()).ok());
  EXPECT_FALSE(
      is_authoritative_name(zone, name_of("ns1.child.example.com.")));
  EXPECT_TRUE(
      zone.signatures_covering(name_of("ns1.child.example.com."), RRType::kA)
          .empty());
  EXPECT_EQ(zone.find_rrset(name_of("ns1.child.example.com."), RRType::kNSEC),
            nullptr);
}

TEST(Signer, DoubleSignatureRolloverKeepsBothChainsValid) {
  // RFC 6781 KSK rollover: old + new KSK both published and both signing the
  // DNSKEY RRset, so a DS referencing either key validates.
  dns::Zone zone = make_unsigned_zone("example.com.");
  Rng rng(77);
  auto old_keys = ZoneKeys::generate(rng);
  auto new_ksk = crypto::KeyPair::generate(rng, crypto::kKskFlags);
  ZoneKeys rolling{
      .ksk = new_ksk, .zsk = old_keys.zsk, .extra_ksks = {old_keys.ksk}};
  ASSERT_TRUE(sign_zone(zone, rolling, test_policy()).ok());

  const dns::RRset* dnskey_set =
      zone.find_rrset(zone.origin(), RRType::kDNSKEY);
  ASSERT_NE(dnskey_set, nullptr);
  EXPECT_EQ(dnskey_set->size(), 3u);  // new KSK + ZSK + old KSK
  // Two RRSIGs over DNSKEY (one per KSK).
  EXPECT_EQ(
      zone.signatures_covering(zone.origin(), RRType::kDNSKEY).size(), 2u);

  SignedRRset observed{*dnskey_set,
                       sigs_over(zone, zone.origin(), RRType::kDNSKEY)};
  auto old_ds =
      make_ds(zone.origin(), make_dnskey(old_keys.ksk), 2).take();
  auto new_ds = make_ds(zone.origin(), make_dnskey(new_ksk), 2).take();
  EXPECT_TRUE(
      validate_dnskey_rrset(zone.origin(), observed, {old_ds}, kNow).valid);
  EXPECT_TRUE(
      validate_dnskey_rrset(zone.origin(), observed, {new_ds}, kNow).valid);
}

// --- signature verification -----------------------------------------------------

TEST(Validator, SignedZoneValidates) {
  auto signed_zone = make_signed_zone("example.com.", 10);
  const auto& zone = signed_zone.zone;
  auto keys = keys_of(zone);
  for (const auto& set : zone.all_rrsets()) {
    auto sigs = sigs_over(zone, set.name, set.type);
    if (sigs.empty()) continue;
    auto v = verify_rrset(set, sigs, keys, zone.origin(), kNow);
    EXPECT_TRUE(v.valid) << set.name.to_text() << " "
                         << dns::to_string(set.type) << ": " << v.reason;
  }
}

// Tamper modes for the validation truth table.
enum class Tamper {
  kNone,
  kFlipSignatureByte,
  kFlipRdata,
  kExpired,
  kNotYetValid,
  kWrongSigner,
  kWrongKeyTag,
  kWrongAlgorithm,
  kForeignKey,
};

class ValidatorTamper : public ::testing::TestWithParam<Tamper> {};

TEST_P(ValidatorTamper, TruthTable) {
  auto signed_zone = make_signed_zone("example.com.", 11);
  const auto& zone = signed_zone.zone;
  auto keys = keys_of(zone);
  Name www = name_of("www.example.com.");
  dns::RRset rrset = *zone.find_rrset(www, RRType::kA);
  auto sigs = sigs_over(zone, www, RRType::kA);
  ASSERT_EQ(sigs.size(), 1u);
  std::uint32_t now = kNow;

  switch (GetParam()) {
    case Tamper::kNone:
      break;
    case Tamper::kFlipSignatureByte:
      sigs[0].signature[10] ^= 0x01;
      break;
    case Tamper::kFlipRdata:
      std::get<dns::ARdata>(rrset.rdatas[0]).address[3] ^= 0x01;
      break;
    case Tamper::kExpired:
      now = sigs[0].expiration + 1;
      break;
    case Tamper::kNotYetValid:
      now = sigs[0].inception - 1;
      break;
    case Tamper::kWrongSigner:
      sigs[0].signer_name = name_of("evil.example.net.");
      break;
    case Tamper::kWrongKeyTag:
      sigs[0].key_tag ^= 0xffff;
      break;
    case Tamper::kWrongAlgorithm:
      sigs[0].algorithm = 13;
      break;
    case Tamper::kForeignKey: {
      Rng rng(999);
      auto foreign = ZoneKeys::generate(rng);
      keys = {make_dnskey(foreign.zsk), make_dnskey(foreign.ksk)};
      break;
    }
  }

  auto v = verify_rrset(rrset, sigs, keys, zone.origin(), now);
  if (GetParam() == Tamper::kNone) {
    EXPECT_TRUE(v.valid) << v.reason;
  } else {
    EXPECT_FALSE(v.valid);
    EXPECT_FALSE(v.reason.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTampers, ValidatorTamper,
    ::testing::Values(Tamper::kNone, Tamper::kFlipSignatureByte,
                      Tamper::kFlipRdata, Tamper::kExpired,
                      Tamper::kNotYetValid, Tamper::kWrongSigner,
                      Tamper::kWrongKeyTag, Tamper::kWrongAlgorithm,
                      Tamper::kForeignKey));

TEST(Validator, DsMatchesOnlyTheRightKeyAndOwner) {
  Rng rng(12);
  auto keys = ZoneKeys::generate(rng);
  auto other = ZoneKeys::generate(rng);
  auto apex = name_of("example.ch.");
  auto dnskey = make_dnskey(keys.ksk);
  auto ds = make_ds(apex, dnskey, 2).take();
  EXPECT_TRUE(ds_matches_dnskey(apex, ds, dnskey));
  EXPECT_FALSE(ds_matches_dnskey(apex, ds, make_dnskey(other.ksk)));
  EXPECT_FALSE(ds_matches_dnskey(name_of("other.ch."), ds, dnskey));
  // Corrupt digest.
  auto bad = ds;
  bad.digest[0] ^= 1;
  EXPECT_FALSE(ds_matches_dnskey(apex, bad, dnskey));
}

TEST(Validator, DnskeyRrsetChainsThroughDs) {
  auto signed_zone = make_signed_zone("example.com.", 13);
  const auto& zone = signed_zone.zone;
  SignedRRset dnskey{*zone.find_rrset(zone.origin(), RRType::kDNSKEY),
                     sigs_over(zone, zone.origin(), RRType::kDNSKEY)};
  auto ds = make_ds(zone.origin(), make_dnskey(signed_zone.keys.ksk), 2).take();
  EXPECT_TRUE(validate_dnskey_rrset(zone.origin(), dnskey, {ds}, kNow).valid);

  // DS referencing the ZSK does not validate the chain: the ZSK did not sign
  // the DNSKEY RRset.
  auto zsk_ds =
      make_ds(zone.origin(), make_dnskey(signed_zone.keys.zsk), 2).take();
  EXPECT_FALSE(
      validate_dnskey_rrset(zone.origin(), dnskey, {zsk_ds}, kNow).valid);

  // A rolled-over DS (foreign key) fails.
  Rng rng(14);
  auto foreign = ZoneKeys::generate(rng);
  auto foreign_ds =
      make_ds(zone.origin(), make_dnskey(foreign.ksk), 2).take();
  EXPECT_FALSE(
      validate_dnskey_rrset(zone.origin(), dnskey, {foreign_ds}, kNow).valid);
}

// --- NSEC denial ---------------------------------------------------------------

TEST(Validator, NsecCovers) {
  dns::NsecRdata nsec{name_of("c.example."), {}};
  EXPECT_TRUE(nsec_covers(name_of("a.example."), nsec, name_of("b.example.")));
  EXPECT_FALSE(nsec_covers(name_of("a.example."), nsec, name_of("a.example.")));
  EXPECT_FALSE(nsec_covers(name_of("a.example."), nsec, name_of("d.example.")));
  // wrap-around: last NSEC points back to the apex.
  dns::NsecRdata wrap{name_of("example."), {}};
  EXPECT_TRUE(
      nsec_covers(name_of("z.example."), wrap, name_of("zz.example.")));
}

TEST(Validator, NsecDenialProofsFromSignedZone) {
  auto signed_zone = make_signed_zone("example.com.", 15);
  const auto& zone = signed_zone.zone;
  std::vector<dns::ResourceRecord> nsecs;
  for (const auto& set : zone.all_rrsets()) {
    if (set.type == RRType::kNSEC) {
      for (const auto& rr : set.to_records()) nsecs.push_back(rr);
    }
  }
  // NODATA: www exists with A/AAAA but no TXT.
  EXPECT_TRUE(
      nsec_proves_nodata(nsecs, name_of("www.example.com."), RRType::kTXT));
  EXPECT_FALSE(
      nsec_proves_nodata(nsecs, name_of("www.example.com."), RRType::kA));
  // NXDOMAIN: nonexistent name covered by the chain.
  EXPECT_TRUE(nsec_proves_nxdomain(nsecs, name_of("missing.example.com.")));
  EXPECT_FALSE(nsec_proves_nxdomain(nsecs, name_of("www.example.com.")));
}

// --- zone classification ---------------------------------------------------------

ZoneObservationForValidation observe(const dns::Zone& zone,
                                     std::vector<dns::DsRdata> parent_ds) {
  ZoneObservationForValidation obs;
  obs.apex = zone.origin();
  obs.parent_ds = std::move(parent_ds);
  obs.now = kNow;
  if (const dns::RRset* dnskey =
          zone.find_rrset(zone.origin(), RRType::kDNSKEY)) {
    obs.dnskey = SignedRRset{*dnskey,
                             sigs_over(zone, zone.origin(), RRType::kDNSKEY)};
  }
  if (const dns::RRset* soa = zone.soa()) {
    obs.data.push_back(SignedRRset{
        *soa, sigs_over(zone, zone.origin(), RRType::kSOA)});
  }
  return obs;
}

TEST(Classify, UnsignedZone) {
  dns::Zone zone = make_unsigned_zone("example.com.");
  auto c = classify_zone(observe(zone, {}));
  EXPECT_EQ(c.status, ZoneDnssecStatus::kUnsigned);
}

TEST(Classify, OrphanDsIsBogus) {
  dns::Zone zone = make_unsigned_zone("example.com.");
  dns::DsRdata orphan{1234, 15, 2, Bytes(32, 0xee)};
  auto c = classify_zone(observe(zone, {orphan}));
  EXPECT_EQ(c.status, ZoneDnssecStatus::kBogus);
  EXPECT_EQ(c.reason, "ds.orphaned_no_dnskey");
}

TEST(Classify, SecureChain) {
  auto sz = make_signed_zone("example.com.", 16);
  auto ds = make_ds(sz.zone.origin(), make_dnskey(sz.keys.ksk), 2).take();
  auto c = classify_zone(observe(sz.zone, {ds}));
  EXPECT_EQ(c.status, ZoneDnssecStatus::kSecure) << c.reason;
}

TEST(Classify, SecureIslandWithoutDs) {
  auto sz = make_signed_zone("example.com.", 17);
  auto c = classify_zone(observe(sz.zone, {}));
  EXPECT_EQ(c.status, ZoneDnssecStatus::kSecureIsland);
}

TEST(Classify, MismatchedDsIsBogus) {
  auto sz = make_signed_zone("example.com.", 18);
  Rng rng(19);
  auto foreign = ZoneKeys::generate(rng);
  auto ds = make_ds(sz.zone.origin(), make_dnskey(foreign.ksk), 2).take();
  auto c = classify_zone(observe(sz.zone, {ds}));
  EXPECT_EQ(c.status, ZoneDnssecStatus::kBogus);
}

TEST(Classify, ExpiredSignaturesAreBogus) {
  auto sz = make_signed_zone("example.com.", 20);
  auto ds = make_ds(sz.zone.origin(), make_dnskey(sz.keys.ksk), 2).take();
  auto obs = observe(sz.zone, {ds});
  obs.now = test_policy().expiration + 10;
  auto c = classify_zone(obs);
  EXPECT_EQ(c.status, ZoneDnssecStatus::kBogus);
}

TEST(Classify, TamperedDataIsBogusEvenWithValidChain) {
  auto sz = make_signed_zone("example.com.", 21);
  auto ds = make_ds(sz.zone.origin(), make_dnskey(sz.keys.ksk), 2).take();
  auto obs = observe(sz.zone, {ds});
  ASSERT_FALSE(obs.data.empty());
  std::get<dns::SoaRdata>(obs.data[0].rrset.rdatas[0]).serial ^= 1;
  auto c = classify_zone(obs);
  EXPECT_EQ(c.status, ZoneDnssecStatus::kBogus);
}

TEST(Classify, InsecureParentYieldsIsland) {
  auto sz = make_signed_zone("example.com.", 22);
  auto ds = make_ds(sz.zone.origin(), make_dnskey(sz.keys.ksk), 2).take();
  auto obs = observe(sz.zone, {ds});
  obs.parent_secure = false;
  auto c = classify_zone(obs);
  EXPECT_EQ(c.status, ZoneDnssecStatus::kSecureIsland);
}

TEST(Canonical, SignatureInputSortsRdata) {
  // The signature over a 2-record RRset must not depend on rdata order.
  dns::RRset a;
  a.name = name_of("x.example.");
  a.type = RRType::kA;
  a.ttl = 60;
  a.rdatas = {dns::Rdata{dns::ARdata{{9, 9, 9, 9}}},
              dns::Rdata{dns::ARdata{{1, 1, 1, 1}}}};
  dns::RRset b = a;
  std::swap(b.rdatas[0], b.rdatas[1]);
  dns::RrsigRdata meta;
  meta.type_covered = RRType::kA;
  meta.algorithm = 15;
  meta.labels = 2;
  meta.original_ttl = 60;
  meta.signer_name = name_of("example.");
  EXPECT_EQ(signature_input(a, meta), signature_input(b, meta));
}

TEST(Canonical, SignatureInputLowercasesOwner) {
  dns::RRset upper;
  upper.name = name_of("WWW.EXAMPLE.");
  upper.type = RRType::kA;
  upper.ttl = 60;
  upper.rdatas = {dns::Rdata{dns::ARdata{{1, 2, 3, 4}}}};
  dns::RRset lower = upper;
  lower.name = name_of("www.example.");
  dns::RrsigRdata meta;
  meta.type_covered = RRType::kA;
  meta.labels = 2;
  meta.original_ttl = 60;
  meta.signer_name = name_of("example.");
  EXPECT_EQ(signature_input(upper, meta), signature_input(lower, meta));
}

}  // namespace
}  // namespace dnsboot::dnssec
