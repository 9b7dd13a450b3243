#include <gtest/gtest.h>

#include <algorithm>

#include "base/strings.hpp"
#include "dns/message.hpp"
#include "dns/name.hpp"
#include "dns/rdata.hpp"
#include "dns/record.hpp"
#include "dns/zone.hpp"
#include "dns/zonefile.hpp"

namespace dnsboot::dns {
namespace {

Name name_of(const std::string& text) {
  auto r = Name::from_text(text);
  EXPECT_TRUE(r.ok()) << text << ": " << (r.ok() ? "" : r.error().to_string());
  return std::move(r).take();
}

// --- Name -------------------------------------------------------------------

TEST(Name, ParseAndPrint) {
  EXPECT_EQ(name_of("example.com.").to_text(), "example.com.");
  EXPECT_EQ(name_of("example.com").to_text(), "example.com.");
  EXPECT_EQ(name_of(".").to_text(), ".");
  EXPECT_EQ(Name::root().to_text(), ".");
  EXPECT_EQ(name_of("_dsboot.example.co.uk._signal.ns1.example.net.").label_count(), 8u);
}

TEST(Name, RejectsMalformed) {
  EXPECT_FALSE(Name::from_text("").ok());
  EXPECT_FALSE(Name::from_text("a..b").ok());
  EXPECT_FALSE(Name::from_text(std::string(64, 'a') + ".com").ok());
  // 255-octet limit: four 63-byte labels plus separators exceeds it.
  std::string l63(63, 'x');
  EXPECT_FALSE(
      Name::from_text(l63 + "." + l63 + "." + l63 + "." + l63).ok());
}

TEST(Name, EscapeHandling) {
  auto n = name_of("a\\.b.example.");
  EXPECT_EQ(n.label_count(), 2u);
  EXPECT_EQ(n.labels()[0], "a.b");
  EXPECT_EQ(n.to_text(), "a\\.b.example.");
  auto ddd = name_of("a\\032b.example.");
  EXPECT_EQ(ddd.labels()[0], "a b");
  EXPECT_FALSE(Name::from_text("a\\999.example").ok());
  EXPECT_FALSE(Name::from_text("broken\\").ok());
}

TEST(Name, CaseInsensitiveEquality) {
  EXPECT_EQ(name_of("Example.COM."), name_of("example.com."));
  EXPECT_NE(name_of("example.com."), name_of("example.org."));
}

TEST(Name, ParentAndPrepend) {
  auto n = name_of("www.example.com.");
  EXPECT_EQ(n.parent(), name_of("example.com."));
  EXPECT_EQ(n.parent().parent().parent(), Name::root());
  EXPECT_EQ(Name::root().parent(), Name::root());
  EXPECT_EQ(name_of("example.com.").prepend("www").value(), n);
}

TEST(Name, Concat) {
  auto prefix = name_of("_dsboot.example.com.");
  auto suffix = name_of("_signal.ns1.host.net.");
  EXPECT_EQ(prefix.concat(suffix).value(),
            name_of("_dsboot.example.com._signal.ns1.host.net."));
}

TEST(Name, ConcatRejectsOverlongResult) {
  std::string l63(63, 'a');
  auto big = name_of(l63 + "." + l63 + "." + l63);
  EXPECT_FALSE(big.concat(big).ok());
}

TEST(Name, IsUnder) {
  EXPECT_TRUE(name_of("a.b.c.").is_under(name_of("b.c.")));
  EXPECT_TRUE(name_of("b.c.").is_under(name_of("b.c.")));
  EXPECT_FALSE(name_of("b.c.").is_strictly_under(name_of("b.c.")));
  EXPECT_TRUE(name_of("a.b.c.").is_strictly_under(name_of("c.")));
  EXPECT_FALSE(name_of("ab.c.").is_under(name_of("b.c.")));
  EXPECT_TRUE(name_of("anything.").is_under(Name::root()));
}

TEST(Name, CanonicalOrderingRfc4034) {
  // The example ordering from RFC 4034 §6.1.
  std::vector<Name> expected = {
      name_of("example."),       name_of("a.example."),
      name_of("yljkjljk.a.example."), name_of("Z.a.example."),
      name_of("zABC.a.EXAMPLE."), name_of("z.example."),
      name_of("\\001.z.example."), name_of("*.z.example."),
      name_of("\\200.z.example."),
  };
  std::vector<Name> shuffled = {expected[3], expected[8], expected[0],
                                expected[5], expected[2], expected[7],
                                expected[1], expected[6], expected[4]};
  std::sort(shuffled.begin(), shuffled.end());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(shuffled[i].canonical_text(), expected[i].canonical_text())
        << "position " << i;
  }
}

TEST(Name, WireRoundTrip) {
  auto n = name_of("www.example.com.");
  ByteWriter w;
  n.encode(w);
  EXPECT_EQ(w.size(), n.wire_length());
  ByteReader r{w.data()};
  auto decoded = Name::decode(r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), n);
  EXPECT_TRUE(r.at_end());
}

TEST(Name, DecodeCompressionPointer) {
  // Message-like buffer: "example.com." at offset 0, then "www" + pointer->0.
  ByteWriter w;
  name_of("example.com.").encode(w);
  std::size_t www_at = w.size();
  w.u8(3);
  w.raw(std::string("www"));
  w.u16(0xc000);  // pointer to offset 0
  ByteReader r{w.data()};
  ASSERT_TRUE(r.seek(www_at).ok());
  auto decoded = Name::decode(r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), name_of("www.example.com."));
  EXPECT_TRUE(r.at_end());  // cursor resumes after the pointer
}

TEST(Name, DecodeRejectsPointerLoop) {
  // A pointer that points at itself.
  Bytes loop = {0xc0, 0x00};
  ByteReader r{loop};
  EXPECT_FALSE(Name::decode(r).ok());
}

TEST(Name, DecodeRejectsReservedLabelTypes) {
  Bytes bad = {0x80, 0x01, 'x', 0x00};
  ByteReader r{bad};
  EXPECT_FALSE(Name::decode(r).ok());
}

TEST(Name, DecodeRejectsTruncated) {
  Bytes bad = {0x05, 'a', 'b'};
  ByteReader r{bad};
  EXPECT_FALSE(Name::decode(r).ok());
}

// --- TypeBitmap --------------------------------------------------------------

TEST(TypeBitmap, RoundTripMultipleWindows) {
  TypeBitmap bitmap;
  bitmap.add(RRType::kA);
  bitmap.add(RRType::kNS);
  bitmap.add(RRType::kRRSIG);
  bitmap.add(RRType::kNSEC);
  bitmap.add(RRType::kCDS);
  bitmap.add(static_cast<RRType>(1234));  // second window
  ByteWriter w;
  bitmap.encode(w);
  ByteReader r{w.data()};
  auto decoded = TypeBitmap::decode(r, w.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), bitmap);
}

TEST(TypeBitmap, TextForm) {
  TypeBitmap bitmap({RRType::kA, RRType::kNS, RRType::kCDS});
  EXPECT_EQ(bitmap.to_text(), "A NS CDS");
}

TEST(TypeBitmap, DecodeRejectsOutOfOrderWindows) {
  // window 5, then window 0: invalid.
  Bytes bad = {5, 1, 0x80, 0, 1, 0x40};
  ByteReader r{bad};
  EXPECT_FALSE(TypeBitmap::decode(r, bad.size()).ok());
}

// --- RDATA -------------------------------------------------------------------

TEST(Rdata, KeyTagMatchesRfc4034AppendixB) {
  // RFC 4034 Appendix B.1 example: DSA key with key tag 42495 — instead of
  // transcribing the whole RFC key, we verify the algorithm structurally: a
  // known small RDATA computed by hand.
  // flags=257 (0x0101), protocol=3, algorithm=15, key=0x01 0x02.
  // RDATA bytes: 01 01 03 0f 01 02
  // sum = 0x0101 + 0x030f + 0x0102 = 0x0512; +carry(0) = 0x0512.
  DnskeyRdata key{257, 3, 15, Bytes{0x01, 0x02}};
  EXPECT_EQ(key.key_tag(), 0x0512);
}

TEST(Rdata, DeleteSentinels) {
  DsRdata cds_delete{0, 0, 0, Bytes{0}};
  EXPECT_TRUE(cds_delete.is_delete_sentinel());
  DsRdata normal{12345, 15, 2, Bytes(32, 0xab)};
  EXPECT_FALSE(normal.is_delete_sentinel());
  DnskeyRdata cdnskey_delete{0, 3, 0, Bytes{0}};
  EXPECT_TRUE(cdnskey_delete.is_delete_sentinel());
  DnskeyRdata normal_key{256, 3, 15, Bytes(32, 1)};
  EXPECT_FALSE(normal_key.is_delete_sentinel());
}

TEST(Rdata, Ipv4Text) {
  EXPECT_EQ(ipv4_to_text({192, 0, 2, 1}), "192.0.2.1");
  EXPECT_EQ(ipv4_from_text("192.0.2.1").value(),
            (std::array<std::uint8_t, 4>{192, 0, 2, 1}));
  EXPECT_FALSE(ipv4_from_text("300.1.1.1").ok());
  EXPECT_FALSE(ipv4_from_text("1.2.3").ok());
}

TEST(Rdata, Ipv6Text) {
  auto addr = ipv6_from_text("2001:db8::1").value();
  EXPECT_EQ(addr[0], 0x20);
  EXPECT_EQ(addr[1], 0x01);
  EXPECT_EQ(addr[15], 0x01);
  EXPECT_EQ(ipv6_to_text(addr), "2001:db8:0:0:0:0:0:1");
  EXPECT_TRUE(ipv6_from_text("::").ok());
  EXPECT_TRUE(ipv6_from_text("fd00::42").ok());
  EXPECT_FALSE(ipv6_from_text("1:2:3:4:5:6:7:8:9").ok());
  EXPECT_FALSE(ipv6_from_text("1::2::3").ok());
  EXPECT_FALSE(ipv6_from_text("xyz::1").ok());
}

// gtest names each case by printing its bytes. A 2-byte type next to a
// pointer would leave six padding bytes holding whatever was on the stack,
// so the type code is widened to fill them and the names are the same on
// every run of one build.
struct RdataCase {
  RdataCase(RRType t, const char* s)
      : type_code(static_cast<std::uint16_t>(t)), text(s) {}
  RRType type() const { return static_cast<RRType>(type_code); }

  std::uint64_t type_code;
  const char* text;
};

class RdataTextWireRoundTrip : public ::testing::TestWithParam<RdataCase> {};

TEST_P(RdataTextWireRoundTrip, TextToWireToTextIsStable) {
  const auto& param = GetParam();
  auto rdata = rdata_from_text(param.type(), split_whitespace(param.text));
  ASSERT_TRUE(rdata.ok()) << rdata.error().to_string();

  // wire round trip
  ByteWriter w;
  encode_rdata(rdata.value(), w);
  ByteReader r{w.data()};
  auto decoded = decode_rdata(param.type(), r, w.size());
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  EXPECT_EQ(rdata_to_text(decoded.value()), rdata_to_text(rdata.value()));

  // text round trip
  auto reparsed = rdata_from_text(
      param.type(), split_whitespace(rdata_to_text(rdata.value())));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_TRUE(decoded.value() == reparsed.value());
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, RdataTextWireRoundTrip,
    ::testing::Values(
        RdataCase{RRType::kA, "192.0.2.53"},
        RdataCase{RRType::kAAAA, "2001:db8:0:0:0:0:0:35"},
        RdataCase{RRType::kNS, "ns1.example.net."},
        RdataCase{RRType::kCNAME, "target.example.org."},
        RdataCase{RRType::kPTR, "host.example.com."},
        RdataCase{RRType::kMX, "10 mail.example.com."},
        RdataCase{RRType::kSOA,
                  "ns1.example.com. hostmaster.example.com. 2025040101 7200 "
                  "3600 1209600 300"},
        RdataCase{RRType::kTXT, "\"hello\""},
        RdataCase{RRType::kDNSKEY,
                  "257 3 15 l02Woi0iS8Aa25FQkUd9RMzZHJpBoRQwAQEX1SxZJA4="},
        RdataCase{RRType::kCDNSKEY, "0 3 0 AA=="},
        RdataCase{RRType::kDS,
                  "60485 15 2 "
                  "d4b7d520e7bb5f0f67674a0ccEB1E3E0614B93C4F9E99B8383F6A1E4469DA50A"},
        RdataCase{RRType::kCDS, "0 0 0 00"},
        RdataCase{RRType::kNSEC, "host.example.com. A RRSIG NSEC"},
        RdataCase{RRType::kNSEC3,
                  "1 0 0 - cpnmuoj1e8vtap0d9lstvnfhb0bu2vm8 A RRSIG"},
        RdataCase{RRType::kNSEC3,
                  "1 1 12 aabbccdd cpnmuoj1e8vtap0d9lstvnfhb0bu2vm8"},
        RdataCase{RRType::kNSEC3PARAM, "1 0 0 -"},
        RdataCase{RRType::kNSEC3PARAM, "1 0 5 aabb"},
        RdataCase{RRType::kCSYNC, "66 3 A NS AAAA"}));

// --- Message -----------------------------------------------------------------

TEST(Message, QueryRoundTrip) {
  Message q = Message::make_query(0x1234, name_of("example.com."),
                                  RRType::kCDS);
  Bytes wire = q.encode();
  auto decoded = Message::decode(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  EXPECT_EQ(decoded->header.id, 0x1234);
  EXPECT_FALSE(decoded->header.qr);
  ASSERT_EQ(decoded->questions.size(), 1u);
  EXPECT_EQ(decoded->questions[0].name, name_of("example.com."));
  EXPECT_EQ(decoded->questions[0].type, RRType::kCDS);
  EXPECT_TRUE(decoded->has_edns());
  EXPECT_TRUE(decoded->dnssec_ok());
}

TEST(Message, ResponseRoundTripWithRecords) {
  Message q = Message::make_query(7, name_of("example.com."), RRType::kNS);
  Message resp = Message::make_response(q);
  resp.header.aa = true;
  ResourceRecord ns;
  ns.name = name_of("example.com.");
  ns.type = RRType::kNS;
  ns.ttl = 3600;
  ns.rdata = NsRdata{name_of("ns1.example.com.")};
  resp.answers.push_back(ns);
  ResourceRecord glue;
  glue.name = name_of("ns1.example.com.");
  glue.type = RRType::kA;
  glue.ttl = 3600;
  glue.rdata = ARdata{{192, 0, 2, 1}};
  resp.additionals.push_back(glue);

  Bytes wire = resp.encode();
  auto decoded = Message::decode(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->header.qr);
  EXPECT_TRUE(decoded->header.aa);
  ASSERT_EQ(decoded->answers.size(), 1u);
  EXPECT_TRUE(decoded->answers[0].same_data(ns));
  ASSERT_EQ(decoded->additionals.size(), 2u);  // glue + OPT
}

TEST(Message, CompressionShrinksRepeatedNames) {
  Message resp;
  resp.header.qr = true;
  for (int i = 0; i < 10; ++i) {
    ResourceRecord rr;
    rr.name = name_of("host" + std::to_string(i) + ".deep.label.chain.example.com.");
    rr.type = RRType::kA;
    rr.ttl = 60;
    rr.rdata = ARdata{{10, 0, 0, static_cast<std::uint8_t>(i)}};
    resp.answers.push_back(rr);
  }
  Bytes wire = resp.encode();
  // Uncompressed, 10 copies of the 34-byte suffix would dominate; compressed
  // output must be far below that.
  std::size_t uncompressed_estimate = 12 + 10 * (40 + 14);
  EXPECT_LT(wire.size(), uncompressed_estimate - 200);
  auto decoded = Message::decode(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->answers.size(), 10u);
  EXPECT_EQ(decoded->answers[9].name,
            name_of("host9.deep.label.chain.example.com."));
}

TEST(Message, DecodeRejectsTrailingGarbage) {
  Message q = Message::make_query(1, name_of("example.com."), RRType::kA);
  Bytes wire = q.encode();
  wire.push_back(0x00);
  EXPECT_FALSE(Message::decode(wire).ok());
}

TEST(Message, DecodeRejectsTruncatedHeader) {
  Bytes tiny = {0x00, 0x01, 0x02};
  EXPECT_FALSE(Message::decode(tiny).ok());
}

TEST(Message, AnswersOfFiltersByNameAndType) {
  Message m;
  ResourceRecord a;
  a.name = name_of("a.example.");
  a.type = RRType::kCDS;
  a.rdata = DsRdata{1, 15, 2, Bytes(32, 1)};
  ResourceRecord b = a;
  b.name = name_of("b.example.");
  m.answers = {a, b};
  EXPECT_EQ(m.answers_of(name_of("a.example."), RRType::kCDS).size(), 1u);
  EXPECT_EQ(m.answers_of(name_of("a.example."), RRType::kDS).size(), 0u);
}

// --- RRset -------------------------------------------------------------------

TEST(RRset, SameRdatasIgnoresOrder) {
  RRset x{name_of("e."), RRType::kCDS, RRClass::kIN, 60,
          {Rdata{DsRdata{1, 15, 2, Bytes(32, 1)}},
           Rdata{DsRdata{2, 15, 2, Bytes(32, 2)}}}};
  RRset y = x;
  std::swap(y.rdatas[0], y.rdatas[1]);
  EXPECT_TRUE(x.same_rdatas(y));
  y.rdatas[0] = Rdata{DsRdata{3, 15, 2, Bytes(32, 3)}};
  EXPECT_FALSE(x.same_rdatas(y));
}

TEST(RRset, GroupIntoRRsetsMergesAndDeduplicates) {
  ResourceRecord r1;
  r1.name = name_of("e.");
  r1.type = RRType::kA;
  r1.ttl = 100;
  r1.rdata = ARdata{{1, 2, 3, 4}};
  ResourceRecord r2 = r1;
  r2.ttl = 50;  // lower TTL wins
  ResourceRecord r3 = r1;
  r3.rdata = ARdata{{5, 6, 7, 8}};
  ResourceRecord other;
  other.name = name_of("e.");
  other.type = RRType::kTXT;
  other.ttl = 10;
  other.rdata = TxtRdata{{"x"}};

  auto sets = group_into_rrsets({r1, r2, r3, other});
  ASSERT_EQ(sets.size(), 2u);
  EXPECT_EQ(sets[0].rdatas.size(), 2u);  // r1/r2 dedup + r3
  EXPECT_EQ(sets[0].ttl, 50u);
  EXPECT_EQ(sets[1].type, RRType::kTXT);
}

// --- Zone --------------------------------------------------------------------

Zone make_test_zone() {
  Zone zone(name_of("example.com."));
  auto add = [&](const std::string& owner, RRType type, const Rdata& rd) {
    ResourceRecord rr;
    rr.name = name_of(owner);
    rr.type = type;
    rr.ttl = 3600;
    rr.rdata = rd;
    EXPECT_TRUE(zone.add(rr).ok());
  };
  add("example.com.", RRType::kSOA,
      SoaRdata{name_of("ns1.example.com."), name_of("hostmaster.example.com."),
               1, 7200, 3600, 1209600, 300});
  add("example.com.", RRType::kNS, NsRdata{name_of("ns1.example.com.")});
  add("example.com.", RRType::kNS, NsRdata{name_of("ns2.example.com.")});
  add("ns1.example.com.", RRType::kA, ARdata{{192, 0, 2, 1}});
  add("www.example.com.", RRType::kA, ARdata{{192, 0, 2, 80}});
  add("alias.example.com.", RRType::kCNAME, CnameRdata{name_of("www.example.com.")});
  // delegation to child.example.com
  add("child.example.com.", RRType::kNS, NsRdata{name_of("ns1.child.example.com.")});
  add("child.example.com.", RRType::kDS, DsRdata{1, 15, 2, Bytes(32, 9)});
  // empty non-terminal: data at a.b.example.com but none at b.example.com
  add("a.b.example.com.", RRType::kTXT, TxtRdata{{"leaf"}});
  return zone;
}

TEST(Zone, RejectsOutOfZoneRecords) {
  Zone zone(name_of("example.com."));
  ResourceRecord rr;
  rr.name = name_of("other.org.");
  rr.type = RRType::kA;
  rr.rdata = ARdata{{1, 1, 1, 1}};
  EXPECT_FALSE(zone.add(rr).ok());
}

TEST(Zone, LookupAnswer) {
  Zone zone = make_test_zone();
  auto result = zone.lookup(name_of("www.example.com."), RRType::kA);
  EXPECT_EQ(result.kind, Zone::LookupResult::Kind::kAnswer);
  ASSERT_NE(result.rrset, nullptr);
  EXPECT_EQ(result.rrset->type, RRType::kA);
}

TEST(Zone, LookupNoData) {
  Zone zone = make_test_zone();
  auto result = zone.lookup(name_of("www.example.com."), RRType::kAAAA);
  EXPECT_EQ(result.kind, Zone::LookupResult::Kind::kNoData);
}

TEST(Zone, LookupNxDomain) {
  Zone zone = make_test_zone();
  auto result = zone.lookup(name_of("missing.example.com."), RRType::kA);
  EXPECT_EQ(result.kind, Zone::LookupResult::Kind::kNxDomain);
}

TEST(Zone, LookupEmptyNonTerminalIsNoData) {
  Zone zone = make_test_zone();
  auto result = zone.lookup(name_of("b.example.com."), RRType::kA);
  EXPECT_EQ(result.kind, Zone::LookupResult::Kind::kNoData);
}

TEST(Zone, LookupCname) {
  Zone zone = make_test_zone();
  auto result = zone.lookup(name_of("alias.example.com."), RRType::kA);
  EXPECT_EQ(result.kind, Zone::LookupResult::Kind::kCname);
  auto direct = zone.lookup(name_of("alias.example.com."), RRType::kCNAME);
  EXPECT_EQ(direct.kind, Zone::LookupResult::Kind::kAnswer);
}

TEST(Zone, LookupDelegation) {
  Zone zone = make_test_zone();
  auto below = zone.lookup(name_of("www.child.example.com."), RRType::kA);
  EXPECT_EQ(below.kind, Zone::LookupResult::Kind::kDelegation);
  EXPECT_EQ(below.cut_owner, name_of("child.example.com."));
  auto at_cut = zone.lookup(name_of("child.example.com."), RRType::kA);
  EXPECT_EQ(at_cut.kind, Zone::LookupResult::Kind::kDelegation);
}

TEST(Zone, DsAtDelegationAnsweredByParent) {
  Zone zone = make_test_zone();
  auto result = zone.lookup(name_of("child.example.com."), RRType::kDS);
  EXPECT_EQ(result.kind, Zone::LookupResult::Kind::kAnswer);
  ASSERT_NE(result.rrset, nullptr);
  EXPECT_EQ(result.rrset->type, RRType::kDS);
}

TEST(Zone, LookupNotInZone) {
  Zone zone = make_test_zone();
  auto result = zone.lookup(name_of("elsewhere.net."), RRType::kA);
  EXPECT_EQ(result.kind, Zone::LookupResult::Kind::kNotInZone);
}

TEST(Zone, ApexNsIsNotADelegation) {
  Zone zone = make_test_zone();
  auto result = zone.lookup(name_of("example.com."), RRType::kNS);
  EXPECT_EQ(result.kind, Zone::LookupResult::Kind::kAnswer);
  EXPECT_FALSE(zone.is_delegation_point(name_of("example.com.")));
  EXPECT_TRUE(zone.is_delegation_point(name_of("child.example.com.")));
}

TEST(Zone, NamesInCanonicalOrder) {
  Zone zone = make_test_zone();
  auto names = zone.names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_EQ(names.front(), name_of("example.com."));
}

TEST(Zone, SignatureStorage) {
  Zone zone = make_test_zone();
  ResourceRecord sig;
  sig.name = name_of("www.example.com.");
  sig.type = RRType::kRRSIG;
  sig.ttl = 3600;
  RrsigRdata rd;
  rd.type_covered = RRType::kA;
  rd.algorithm = 15;
  rd.signer_name = name_of("example.com.");
  rd.signature = Bytes(64, 7);
  sig.rdata = rd;
  ASSERT_TRUE(zone.add(sig).ok());
  EXPECT_EQ(zone.signatures_covering(name_of("www.example.com."), RRType::kA).size(), 1u);
  EXPECT_TRUE(zone.signatures_covering(name_of("www.example.com."), RRType::kAAAA).empty());
  zone.strip_dnssec();
  EXPECT_TRUE(zone.signatures_covering(name_of("www.example.com."), RRType::kA).empty());
}

// --- Zone files ----------------------------------------------------------------

TEST(ZoneFile, ParseBasicZone) {
  const std::string text = R"($ORIGIN example.com.
$TTL 3600
@ IN SOA ns1 hostmaster 1 7200 3600 1209600 300
@ IN NS ns1
@ IN NS ns2.other.net.
ns1 IN A 192.0.2.1
www 600 IN A 192.0.2.80 ; a comment
)";
  auto zone = parse_zone(text, ZoneFileOptions{name_of("example.com."), 3600});
  ASSERT_TRUE(zone.ok()) << zone.error().to_string();
  EXPECT_NE(zone->soa(), nullptr);
  ASSERT_NE(zone->apex_ns(), nullptr);
  EXPECT_EQ(zone->apex_ns()->size(), 2u);
  const RRset* www = zone->find_rrset(name_of("www.example.com."), RRType::kA);
  ASSERT_NE(www, nullptr);
  EXPECT_EQ(www->ttl, 600u);
  const RRset* ns = zone->apex_ns();
  // relative "ns1" resolved against origin; absolute name kept as-is.
  bool saw_relative = false, saw_absolute = false;
  for (const auto& rd : ns->rdatas) {
    auto target = std::get<NsRdata>(rd).nsdname;
    if (target == name_of("ns1.example.com.")) saw_relative = true;
    if (target == name_of("ns2.other.net.")) saw_absolute = true;
  }
  EXPECT_TRUE(saw_relative);
  EXPECT_TRUE(saw_absolute);
}

TEST(ZoneFile, OwnerInheritance) {
  const std::string text =
      "www IN A 192.0.2.1\n"
      "    IN A 192.0.2.2\n";
  auto records = parse_zone_text(
      text, ZoneFileOptions{name_of("example.com."), 300});
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[1].name, name_of("www.example.com."));
}

TEST(ZoneFile, RejectsSyntaxErrors) {
  ZoneFileOptions opt{name_of("example.com."), 300};
  EXPECT_FALSE(parse_zone_text("www IN BOGUS foo\n", opt).ok());
  EXPECT_FALSE(parse_zone_text("www IN\n", opt).ok());
  EXPECT_FALSE(parse_zone_text("$INCLUDE other.zone\n", opt).ok());
  EXPECT_FALSE(parse_zone_text("www IN A not.an.ip\n", opt).ok());
}

TEST(ZoneFile, RoundTripThroughText) {
  Zone zone = make_test_zone();
  std::string text = zone_to_text(zone);
  auto reparsed = parse_zone(text, ZoneFileOptions{zone.origin(), 3600});
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().to_string();
  EXPECT_EQ(reparsed->record_count(), zone.record_count());
  for (const auto& set : zone.all_rrsets()) {
    const RRset* other = reparsed->find_rrset(set.name, set.type);
    ASSERT_NE(other, nullptr) << set.name.to_text();
    EXPECT_TRUE(set.same_rdatas(*other)) << set.name.to_text();
  }
}

}  // namespace
}  // namespace dnsboot::dns
