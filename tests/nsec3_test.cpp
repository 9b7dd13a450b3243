#include <gtest/gtest.h>

#include "base/encoding.hpp"
#include "base/rng.hpp"
#include "crypto/sha1.hpp"
#include "dns/zonefile.hpp"
#include "dnssec/nsec3.hpp"
#include "dnssec/signer.hpp"
#include "dnssec/validator.hpp"
#include "net/simnet.hpp"
#include "server/auth_server.hpp"

namespace dnsboot::dnssec {
namespace {

dns::Name name_of(const std::string& text) {
  return std::move(dns::Name::from_text(text)).take();
}

// --- SHA-1 ----------------------------------------------------------------------

TEST(Sha1, KnownVectors) {
  EXPECT_EQ(hex_encode(crypto::Sha1::digest(to_bytes("abc"))),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(hex_encode(crypto::Sha1::digest({})),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(hex_encode(crypto::Sha1::digest(to_bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, StreamingMatchesOneShot) {
  Rng rng(42);
  Bytes data = rng.bytes(5000);
  crypto::Sha1 h;
  for (std::size_t i = 0; i < data.size(); i += 7) {
    h.update(BytesView(data.data() + i, std::min<std::size_t>(7, data.size() - i)));
  }
  EXPECT_EQ(hex_encode(h.finish()), hex_encode(crypto::Sha1::digest(data)));
}

// --- NSEC3 hashing ----------------------------------------------------------------

TEST(Nsec3, Rfc5155AppendixAHash) {
  // RFC 5155 Appendix A: H(example) with salt aabbccdd, 12 extra iterations
  // is 0p9mhaveqvm6t7vbl5lop2u3t2rp3tom (base32hex).
  Nsec3Params params;
  params.iterations = 12;
  params.salt = hex_decode("aabbccdd").take();
  EXPECT_EQ(base32hex_encode(nsec3_hash(name_of("example."), params)),
            "0p9mhaveqvm6t7vbl5lop2u3t2rp3tom");
}

TEST(Nsec3, Rfc5155AppendixAHashOfChild) {
  // Same appendix: H(a.example) = 35mthgpgcu1qg68fab165klnsnk3dpvl.
  Nsec3Params params;
  params.iterations = 12;
  params.salt = hex_decode("aabbccdd").take();
  EXPECT_EQ(base32hex_encode(nsec3_hash(name_of("a.example."), params)),
            "35mthgpgcu1qg68fab165klnsnk3dpvl");
}

TEST(Nsec3, HashIsCaseInsensitive) {
  Nsec3Params params;
  EXPECT_EQ(nsec3_hash(name_of("WWW.Example.COM."), params),
            nsec3_hash(name_of("www.example.com."), params));
}

TEST(Nsec3, IterationsChangeHash) {
  Nsec3Params zero;
  Nsec3Params ten;
  ten.iterations = 10;
  EXPECT_NE(nsec3_hash(name_of("example.com."), zero),
            nsec3_hash(name_of("example.com."), ten));
}

TEST(Nsec3, OwnerNameIsUnderApex) {
  Nsec3Params params;
  dns::Name owner =
      nsec3_owner(name_of("www.example.com."), name_of("example.com."), params);
  EXPECT_TRUE(owner.is_strictly_under(name_of("example.com.")));
  EXPECT_EQ(owner.labels()[0].size(), 32u);  // base32hex of 20 bytes
}

// --- NSEC3 zone signing -------------------------------------------------------------

struct SignedNsec3Zone {
  dns::Zone zone;
  ZoneKeys keys;
  SigningPolicy policy;
};

SignedNsec3Zone make_nsec3_zone() {
  const std::string text =
      "@ IN SOA ns1 hostmaster 1 7200 3600 1209600 300\n"
      "@ IN NS ns1\n"
      "ns1 IN A 192.0.2.1\n"
      "www IN A 192.0.2.80\n"
      "mail IN A 192.0.2.25\n";
  SignedNsec3Zone out{
      std::move(dns::parse_zone(
                    text, dns::ZoneFileOptions{name_of("example.com."), 3600}))
          .take(),
      ZoneKeys::generate(*[] {
        static Rng rng(55);
        return &rng;
      }()),
      SigningPolicy{}};
  out.policy.inception = 1000;
  out.policy.expiration = 100'000'000;
  out.policy.denial = DenialMode::kNsec3;
  EXPECT_TRUE(sign_zone(out.zone, out.keys, out.policy).ok());
  return out;
}

TEST(Nsec3, SignZoneBuildsChainAndParam) {
  auto signed_zone = make_nsec3_zone();
  const auto& zone = signed_zone.zone;
  EXPECT_NE(zone.find_rrset(zone.origin(), dns::RRType::kNSEC3PARAM), nullptr);
  // No NSEC records in an NSEC3 zone.
  int nsec3_count = 0;
  for (const auto& set : zone.all_rrsets()) {
    EXPECT_NE(set.type, dns::RRType::kNSEC);
    if (set.type == dns::RRType::kNSEC3) {
      ++nsec3_count;
      // Every NSEC3 RRset is signed.
      EXPECT_FALSE(zone.signatures_covering(set.name, set.type).empty());
    }
  }
  // apex, ns1, www, mail -> 4 hashed names.
  EXPECT_EQ(nsec3_count, 4);
}

TEST(Nsec3, ChainClosesOverAllHashes) {
  auto signed_zone = make_nsec3_zone();
  std::vector<dns::ResourceRecord> nsec3s;
  for (const auto& set : signed_zone.zone.all_rrsets()) {
    if (set.type == dns::RRType::kNSEC3) {
      nsec3s.push_back(set.to_records()[0]);
    }
  }
  // Follow next_hashed_owner around the ring.
  std::size_t hops = 0;
  Bytes start = base32hex_decode(nsec3s[0].name.labels()[0]).take();
  Bytes cursor = start;
  do {
    bool found = false;
    for (const auto& rr : nsec3s) {
      if (base32hex_decode(rr.name.labels()[0]).take() == cursor) {
        cursor = std::get<dns::Nsec3Rdata>(rr.rdata).next_hashed_owner;
        found = true;
        break;
      }
    }
    ASSERT_TRUE(found);
    ++hops;
    ASSERT_LE(hops, nsec3s.size());
  } while (cursor != start);
  EXPECT_EQ(hops, nsec3s.size());
}

TEST(Nsec3, DenialProofs) {
  auto signed_zone = make_nsec3_zone();
  const dns::Name apex = name_of("example.com.");
  std::vector<dns::ResourceRecord> nsec3s;
  for (const auto& set : signed_zone.zone.all_rrsets()) {
    if (set.type == dns::RRType::kNSEC3) {
      nsec3s.push_back(set.to_records()[0]);
    }
  }
  // NODATA: www exists without TXT.
  EXPECT_TRUE(
      nsec3_proves_nodata(nsec3s, apex, name_of("www.example.com."), dns::RRType::kTXT));
  EXPECT_FALSE(
      nsec3_proves_nodata(nsec3s, apex, name_of("www.example.com."), dns::RRType::kA));
  // NXDOMAIN: closest encloser is the apex; next closer is the missing name.
  EXPECT_TRUE(nsec3_proves_nxdomain(nsec3s, apex, name_of("missing.example.com.")));
  EXPECT_FALSE(nsec3_proves_nxdomain(nsec3s, apex, name_of("www.example.com.")));
}

TEST(Nsec3, MatchAndCover) {
  Nsec3Params params;
  const dns::Name apex = name_of("example.com.");
  dns::Name www_owner = nsec3_owner(name_of("www.example.com."), apex, params);
  dns::ResourceRecord rr;
  rr.name = www_owner;
  rr.type = dns::RRType::kNSEC3;
  dns::Nsec3Rdata rdata;
  rdata.next_hashed_owner = Bytes(20, 0xff);
  rr.rdata = rdata;
  EXPECT_TRUE(nsec3_matches(rr, apex, name_of("www.example.com.")));
  EXPECT_TRUE(nsec3_matches(rr, apex, name_of("WWW.EXAMPLE.COM.")));
  EXPECT_FALSE(nsec3_matches(rr, apex, name_of("mail.example.com.")));
}

TEST(Nsec3, ServerServesNsec3Denials) {
  auto signed_zone = make_nsec3_zone();
  server::AuthServer auth(server::ServerConfig{.id = "n3"}, 1);
  auth.add_zone(std::make_shared<dns::Zone>(signed_zone.zone));
  const dns::Name apex = name_of("example.com.");

  // NODATA response carries a matching NSEC3.
  auto nodata = auth.handle(dns::Message::make_query(
      1, name_of("www.example.com."), dns::RRType::kTXT));
  std::vector<dns::ResourceRecord> proof;
  for (const auto& rr : nodata.authorities) {
    if (rr.type == dns::RRType::kNSEC3) proof.push_back(rr);
  }
  ASSERT_FALSE(proof.empty());
  EXPECT_TRUE(nsec3_proves_nodata(proof, apex, name_of("www.example.com."),
                                  dns::RRType::kTXT));

  // NXDOMAIN response carries closest-encloser match + next-closer cover.
  auto nxdomain = auth.handle(dns::Message::make_query(
      2, name_of("nothere.example.com."), dns::RRType::kA));
  EXPECT_EQ(nxdomain.header.rcode, dns::Rcode::kNxDomain);
  proof.clear();
  for (const auto& rr : nxdomain.authorities) {
    if (rr.type == dns::RRType::kNSEC3) proof.push_back(rr);
  }
  EXPECT_TRUE(
      nsec3_proves_nxdomain(proof, apex, name_of("nothere.example.com.")));
}

TEST(Nsec3, SignedNsec3ZoneValidates) {
  auto signed_zone = make_nsec3_zone();
  const auto& zone = signed_zone.zone;
  std::vector<dns::DnskeyRdata> keys = {make_dnskey(signed_zone.keys.ksk),
                                        make_dnskey(signed_zone.keys.zsk)};
  for (const auto& set : zone.all_rrsets()) {
    auto sig_records = zone.signatures_covering(set.name, set.type);
    if (sig_records.empty()) continue;
    std::vector<dns::RrsigRdata> sigs;
    for (const auto& rr : sig_records) {
      sigs.push_back(std::get<dns::RrsigRdata>(rr.rdata));
    }
    auto v = verify_rrset(set, sigs, keys, zone.origin(), 5000);
    EXPECT_TRUE(v.valid) << set.name.to_text() << " "
                         << dns::to_string(set.type) << ": " << v.reason;
  }
}

class Nsec3Iterations : public ::testing::TestWithParam<int> {};

TEST_P(Nsec3Iterations, HashStableAndDenialWorksAcrossIterations) {
  Nsec3Params params;
  params.iterations = static_cast<std::uint16_t>(GetParam());
  params.salt = Bytes{0xab, 0xcd};
  auto h1 = nsec3_hash(name_of("stable.example."), params);
  auto h2 = nsec3_hash(name_of("stable.example."), params);
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(h1.size(), 20u);
}

INSTANTIATE_TEST_SUITE_P(Iterations, Nsec3Iterations,
                         ::testing::Values(0, 1, 5, 12, 50, 150));

}  // namespace
}  // namespace dnsboot::dnssec
