// Property sweeps across randomized inputs:
//   * sign-then-validate holds for every zone shape × denial mode,
//   * denial proofs answer correctly for random absent names,
//   * the wire codec is a fixpoint (encode(decode(encode(m))) == encode(m)),
//   * zone-file round trips preserve DNSSEC validity.
#include <gtest/gtest.h>

#include <cctype>
#include <string_view>
#include <unordered_map>

#include "base/rng.hpp"
#include "dns/message.hpp"
#include "dns/zonefile.hpp"
#include "dnssec/nsec3.hpp"
#include "dnssec/signer.hpp"
#include "dnssec/validator.hpp"

namespace dnsboot {
namespace {

using dnssec::DenialMode;

dns::Name name_of(const std::string& text) {
  return std::move(dns::Name::from_text(text)).take();
}

// "<prefix><n><suffix>", appended piece by piece.
std::string numbered(const char* prefix, std::uint64_t n, const char* suffix) {
  std::string out = prefix;
  out += std::to_string(n);
  out += suffix;
  return out;
}

constexpr std::uint32_t kNow = 9'000'000;

struct ZoneShape {
  int hosts;
  DenialMode denial;
};

class SignValidateSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

dns::Zone build_random_zone(Rng& rng, int hosts) {
  dns::Zone zone(name_of("sweep.example."));
  (void)zone.add(dns::ResourceRecord{
      zone.origin(), dns::RRType::kSOA, dns::RRClass::kIN, 3600,
      dns::SoaRdata{name_of("ns1.sweep.example."), zone.origin(), 1, 1, 1, 1,
                    1}});
  (void)zone.add(dns::ResourceRecord{zone.origin(), dns::RRType::kNS,
                                     dns::RRClass::kIN, 3600,
                                     dns::NsRdata{name_of("ns1.sweep.example.")}});
  for (int i = 0; i < hosts; ++i) {
    dns::Name owner =
        std::move(zone.origin().prepend(numbered("h", i, ""))).take();
    // Random mix of record types per host.
    if (rng.chance(0.8)) {
      dns::ARdata a;
      rng.fill(a.address.data(), a.address.size());
      (void)zone.add(dns::ResourceRecord{owner, dns::RRType::kA,
                                         dns::RRClass::kIN, 300, a});
    }
    if (rng.chance(0.4)) {
      dns::AaaaRdata aaaa;
      rng.fill(aaaa.address.data(), aaaa.address.size());
      (void)zone.add(dns::ResourceRecord{owner, dns::RRType::kAAAA,
                                         dns::RRClass::kIN, 300, aaaa});
    }
    if (rng.chance(0.3)) {
      dns::TxtRdata txt;
      txt.strings.emplace_back("t");
      txt.strings.back() += std::to_string(rng.next_u64() % 100000);
      (void)zone.add(dns::ResourceRecord{owner, dns::RRType::kTXT,
                                         dns::RRClass::kIN, 300, txt});
    }
    if (rng.chance(0.2)) {
      (void)zone.add(dns::ResourceRecord{
          owner, dns::RRType::kMX, dns::RRClass::kIN, 300,
          dns::MxRdata{static_cast<std::uint16_t>(rng.next_below(100)),
                       name_of("mail.sweep.example.")}});
    }
  }
  return zone;
}

TEST_P(SignValidateSweep, EveryRRsetValidatesUnderBothDenialModes) {
  auto [hosts, denial_index] = GetParam();
  Rng rng(static_cast<std::uint64_t>(hosts) * 131 + denial_index);
  dns::Zone zone = build_random_zone(rng, hosts);
  auto keys = dnssec::ZoneKeys::generate(rng);
  dnssec::SigningPolicy policy;
  policy.inception = kNow - 100;
  policy.expiration = kNow + 100000;
  policy.denial = denial_index == 0 ? DenialMode::kNsec : DenialMode::kNsec3;
  ASSERT_TRUE(dnssec::sign_zone(zone, keys, policy).ok());

  std::vector<dns::DnskeyRdata> dnskeys = {dnssec::make_dnskey(keys.ksk),
                                           dnssec::make_dnskey(keys.zsk)};
  for (const auto& set : zone.all_rrsets()) {
    auto sig_records = zone.signatures_covering(set.name, set.type);
    ASSERT_FALSE(sig_records.empty())
        << set.name.to_text() << " " << dns::to_string(set.type);
    std::vector<dns::RrsigRdata> sigs;
    for (const auto& rr : sig_records) {
      sigs.push_back(std::get<dns::RrsigRdata>(rr.rdata));
    }
    auto v = dnssec::verify_rrset(set, sigs, dnskeys, zone.origin(), kNow);
    EXPECT_TRUE(v.valid) << set.name.to_text() << " "
                         << dns::to_string(set.type) << ": " << v.reason;
  }

  // Denial proofs for random absent names.
  std::vector<dns::ResourceRecord> denial_records;
  for (const auto& set : zone.all_rrsets()) {
    if (set.type == dns::RRType::kNSEC || set.type == dns::RRType::kNSEC3) {
      for (const auto& rr : set.to_records()) denial_records.push_back(rr);
    }
  }
  for (int i = 0; i < 10; ++i) {
    dns::Name missing =
        std::move(zone.origin().prepend(
                      "missing" + std::to_string(rng.next_u64() % 1000000)))
            .take();
    if (zone.has_name(missing)) continue;
    if (policy.denial == DenialMode::kNsec) {
      EXPECT_TRUE(dnssec::nsec_proves_nxdomain(denial_records, missing))
          << missing.to_text();
    } else {
      EXPECT_TRUE(dnssec::nsec3_proves_nxdomain(denial_records, zone.origin(),
                                                missing))
          << missing.to_text();
    }
  }
  // And never a "proof" for names that do exist.
  for (const auto& existing : zone.names()) {
    if (policy.denial == DenialMode::kNsec) {
      EXPECT_FALSE(dnssec::nsec_proves_nxdomain(denial_records, existing))
          << existing.to_text();
    } else if (zone.find_rrset(existing, dns::RRType::kNSEC3) == nullptr) {
      EXPECT_FALSE(dnssec::nsec3_proves_nxdomain(denial_records,
                                                 zone.origin(), existing))
          << existing.to_text();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, SignValidateSweep,
                         ::testing::Combine(::testing::Values(1, 3, 8, 20,
                                                              50),
                                            ::testing::Values(0, 1)));

TEST_P(SignValidateSweep, ZoneFileRoundTripPreservesValidity) {
  auto [hosts, denial_index] = GetParam();
  Rng rng(static_cast<std::uint64_t>(hosts) * 733 + denial_index);
  dns::Zone zone = build_random_zone(rng, hosts);
  auto keys = dnssec::ZoneKeys::generate(rng);
  dnssec::SigningPolicy policy;
  policy.inception = kNow - 100;
  policy.expiration = kNow + 100000;
  policy.denial = denial_index == 0 ? DenialMode::kNsec : DenialMode::kNsec3;
  ASSERT_TRUE(dnssec::sign_zone(zone, keys, policy).ok());

  // Serialize to master-file text and parse back.
  std::string text = dns::zone_to_text(zone);
  auto reparsed =
      dns::parse_zone(text, dns::ZoneFileOptions{zone.origin(), 3600});
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().to_string();
  EXPECT_EQ(reparsed->record_count(), zone.record_count());

  // Signatures survive the round trip bit-for-bit: validation still passes.
  std::vector<dns::DnskeyRdata> dnskeys = {dnssec::make_dnskey(keys.ksk),
                                           dnssec::make_dnskey(keys.zsk)};
  for (const auto& set : reparsed->all_rrsets()) {
    auto sig_records = reparsed->signatures_covering(set.name, set.type);
    if (sig_records.empty()) continue;
    std::vector<dns::RrsigRdata> sigs;
    for (const auto& rr : sig_records) {
      sigs.push_back(std::get<dns::RrsigRdata>(rr.rdata));
    }
    auto v = dnssec::verify_rrset(set, sigs, dnskeys, zone.origin(), kNow);
    EXPECT_TRUE(v.valid) << set.name.to_text() << " "
                         << dns::to_string(set.type) << ": " << v.reason;
  }
}

// --- wire codec fixpoint over random messages -----------------------------------

class CodecFixpoint : public ::testing::TestWithParam<std::uint64_t> {};

dns::Rdata random_rdata(Rng& rng, dns::RRType type) {
  switch (type) {
    case dns::RRType::kA: {
      dns::ARdata a;
      rng.fill(a.address.data(), a.address.size());
      return a;
    }
    case dns::RRType::kAAAA: {
      dns::AaaaRdata a;
      rng.fill(a.address.data(), a.address.size());
      return a;
    }
    case dns::RRType::kNS:
      return dns::NsRdata{name_of("ns" + std::to_string(rng.next_below(9)) +
                                  ".example.net.")};
    case dns::RRType::kTXT: {
      dns::TxtRdata txt;
      txt.strings.push_back(std::string(rng.next_below(40), 'x'));
      return txt;
    }
    case dns::RRType::kDS:
      return dns::DsRdata{static_cast<std::uint16_t>(rng.next_u64()), 15, 2,
                          rng.bytes(32)};
    case dns::RRType::kDNSKEY:
      return dns::DnskeyRdata{257, 3, 15, rng.bytes(32)};
    case dns::RRType::kCSYNC:
      return dns::CsyncRdata{static_cast<std::uint32_t>(rng.next_u64()), 1,
                             dns::TypeBitmap({dns::RRType::kNS,
                                              dns::RRType::kAAAA})};
    default:
      return dns::RawRdata{rng.bytes(rng.next_below(50))};
  }
}

TEST_P(CodecFixpoint, EncodeDecodeEncodeIsStable) {
  Rng rng(GetParam());
  static const dns::RRType kTypes[] = {
      dns::RRType::kA,     dns::RRType::kAAAA,   dns::RRType::kNS,
      dns::RRType::kTXT,   dns::RRType::kDS,     dns::RRType::kDNSKEY,
      dns::RRType::kCSYNC, static_cast<dns::RRType>(4711)};
  for (int round = 0; round < 50; ++round) {
    dns::Message message;
    message.header.id = static_cast<std::uint16_t>(rng.next_u64());
    message.header.qr = rng.chance(0.5);
    message.header.aa = rng.chance(0.5);
    message.header.rcode = static_cast<dns::Rcode>(rng.next_below(6));
    message.questions.push_back(dns::Question{
        name_of(numbered("q", rng.next_below(100), ".example.")),
        dns::RRType::kSOA, dns::RRClass::kIN});
    int answers = 1 + static_cast<int>(rng.next_below(6));
    for (int i = 0; i < answers; ++i) {
      dns::RRType type = kTypes[rng.next_below(std::size(kTypes))];
      dns::ResourceRecord rr;
      rr.name = name_of(numbered("a", rng.next_below(50), ".example."));
      rr.type = type;
      rr.ttl = static_cast<std::uint32_t>(rng.next_u64());
      rr.rdata = random_rdata(rng, type);
      message.answers.push_back(std::move(rr));
    }

    Bytes wire1 = message.encode();
    auto decoded = dns::Message::decode(wire1);
    ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
    Bytes wire2 = decoded->encode();
    EXPECT_EQ(wire1, wire2) << "round " << round;
  }
}

// The message encoder as it was with an std::unordered_map compression
// table, kept here as the reference for the flat table that replaced it:
// same keys (canonical suffix text), first offset wins, nothing recorded
// at offsets of 0x3fff or more.
class ReferenceCompressor {
 public:
  void encode(const dns::Name& name, ByteWriter& writer) {
    const std::string& canon = name.canonical_text();
    std::size_t canon_pos = 0;
    for (std::string_view label : name.labels()) {
      std::string_view key(canon.data() + canon_pos, canon.size() - canon_pos);
      auto it = offsets_.find(key);
      if (it != offsets_.end()) {
        writer.u16(static_cast<std::uint16_t>(0xc000 | it->second));
        return;
      }
      if (writer.size() < 0x3fff) {
        offsets_.emplace(key, static_cast<std::uint16_t>(writer.size()));
      }
      writer.u8(static_cast<std::uint8_t>(label.size()));
      writer.raw(label);
      canon_pos += dns::canonical_label_width(label) + 1;
    }
    writer.u8(0);
  }

 private:
  std::unordered_map<std::string_view, std::uint16_t> offsets_;
};

Bytes reference_encode(const dns::Message& m) {
  ByteWriter w;
  w.u16(m.header.id);
  std::uint16_t flags = 0;
  if (m.header.qr) flags |= 0x8000;
  flags |= static_cast<std::uint16_t>(m.header.opcode) << 11;
  if (m.header.aa) flags |= 0x0400;
  if (m.header.tc) flags |= 0x0200;
  if (m.header.rd) flags |= 0x0100;
  if (m.header.ra) flags |= 0x0080;
  if (m.header.ad) flags |= 0x0020;
  if (m.header.cd) flags |= 0x0010;
  flags |= static_cast<std::uint16_t>(m.header.rcode) & 0x000f;
  w.u16(flags);
  w.u16(static_cast<std::uint16_t>(m.questions.size()));
  w.u16(static_cast<std::uint16_t>(m.answers.size()));
  w.u16(static_cast<std::uint16_t>(m.authorities.size()));
  w.u16(static_cast<std::uint16_t>(m.additionals.size()));
  ReferenceCompressor compressor;
  for (const auto& q : m.questions) {
    compressor.encode(q.name, w);
    w.u16(static_cast<std::uint16_t>(q.type));
    w.u16(static_cast<std::uint16_t>(q.klass));
  }
  for (const auto* section : {&m.answers, &m.authorities, &m.additionals}) {
    for (const auto& rr : *section) {
      compressor.encode(rr.name, w);
      w.u16(static_cast<std::uint16_t>(rr.type));
      w.u16(static_cast<std::uint16_t>(rr.klass));
      w.u32(rr.ttl);
      std::size_t rdlength_at = w.size();
      w.u16(0);
      std::size_t rdata_start = w.size();
      dns::encode_rdata(rr.rdata, w);
      w.patch_u16(rdlength_at,
                  static_cast<std::uint16_t>(w.size() - rdata_start));
    }
  }
  return w.take();
}

// `text` with each letter's case flipped at random: a different spelling of
// the same name, which the compressor must match on its canonical text.
std::string random_case(Rng& rng, std::string text) {
  for (char& c : text) {
    if (std::isalpha(static_cast<unsigned char>(c)) && rng.chance(0.5)) {
      c = static_cast<char>(std::isupper(static_cast<unsigned char>(c))
                                ? std::tolower(static_cast<unsigned char>(c))
                                : std::toupper(static_cast<unsigned char>(c)));
    }
  }
  return text;
}

// Messages far past what the compressor holds inline (hundreds of distinct
// suffixes) and past offset 0x3fff, every name in random case: the flat
// table must emit the reference's bytes, and the result must still be a
// codec fixpoint.
TEST_P(CodecFixpoint, CompressorMatchesHashMapReference) {
  Rng rng(GetParam());
  static const char* kZones[] = {"example.", "example.net.", "sub.example.net.",
                                 "co.uk.", "signal.example."};
  for (int round = 0; round < 6; ++round) {
    dns::Message message;
    message.header.id = static_cast<std::uint16_t>(rng.next_u64());
    message.header.qr = true;
    message.questions.push_back(dns::Question{
        name_of(random_case(rng, "q.example.")), dns::RRType::kANY,
        dns::RRClass::kIN});
    const int records = 500 + static_cast<int>(rng.next_below(200));
    for (int i = 0; i < records; ++i) {
      const std::string zone = kZones[rng.next_below(std::size(kZones))];
      std::string owner;
      if (rng.chance(0.3)) owner = numbered("w", rng.next_below(4), ".");
      owner += numbered("h", rng.next_below(150), ".");
      owner += zone;
      dns::ResourceRecord rr;
      rr.name = name_of(random_case(rng, owner));
      rr.ttl = 300;
      if (rng.chance(0.5)) {
        rr.type = dns::RRType::kNS;
        rr.rdata = dns::NsRdata{name_of(random_case(rng, "ns1." + zone))};
      } else {
        rr.type = static_cast<dns::RRType>(4711);
        rr.rdata = dns::RawRdata{rng.bytes(16 + rng.next_below(48))};
      }
      auto& section = rng.chance(0.7)   ? message.answers
                      : rng.chance(0.5) ? message.authorities
                                        : message.additionals;
      section.push_back(std::move(rr));
    }

    Bytes wire = message.encode();
    ASSERT_GT(wire.size(), 0x3fffu) << "round " << round;
    EXPECT_EQ(wire, reference_encode(message)) << "round " << round;
    auto decoded = dns::Message::decode(wire);
    ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
    EXPECT_EQ(decoded->encode(), wire) << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFixpoint,
                         ::testing::Values(101, 202, 303, 404));

}  // namespace
}  // namespace dnsboot
