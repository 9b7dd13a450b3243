// Golden wire captures for the DNS message codec. Every other codec test in
// the tree round-trips through our own encoder; these pin the decoder to
// externally specified byte sequences — the RFC 1035 §4.1.4 compression
// example, a standard EDNS0 query, and an RFC 9615 signaling-name CDS
// response — so a codec regression cannot hide behind a symmetric
// encode/decode bug.
#include <gtest/gtest.h>

#include <string>

#include "dns/message.hpp"

namespace dnsboot::dns {
namespace {

Bytes from_hex(const std::string& hex) {
  Bytes out;
  std::string digits;
  for (char c : hex) {
    if (std::isxdigit(static_cast<unsigned char>(c))) digits.push_back(c);
  }
  EXPECT_EQ(digits.size() % 2, 0u);
  for (std::size_t i = 0; i + 1 < digits.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(
        std::stoi(digits.substr(i, 2), nullptr, 16)));
  }
  return out;
}

Name name_of(const std::string& text) {
  auto r = Name::from_text(text);
  EXPECT_TRUE(r.ok()) << text;
  return std::move(r).take();
}

// Decode → encode → decode: the re-encoding (whose compression choices are
// our own) must describe the same message as the capture.
Message reencode_and_redecode(const Message& message) {
  auto wire = message.encode();
  auto redecoded = Message::decode(wire);
  EXPECT_TRUE(redecoded.ok());
  return std::move(redecoded).take();
}

// RFC 1035 §4.1.4's compression scheme: F.ISI.ARPA spelled out in the
// question, an answer owner that is a bare pointer to it, and a second
// answer owner (FOO.F.ISI.ARPA) that prepends a label to the same pointer.
//
//   offset 12: 01 'F' 03 'ISI' 04 'ARPA' 00   (question name)
//   answers:   C0 0C            → F.ISI.ARPA
//              03 'FOO' C0 0C   → FOO.F.ISI.ARPA
TEST(CodecGolden, Rfc1035CompressionPointers) {
  const Bytes wire = from_hex(
      "1234 8400 0001 0002 0000 0000"      // header: QR AA, 1 question, 2 answers
      "0146 0349 5349 0441 5250 41 00"     // F.ISI.ARPA
      "0001 0001"                          // QTYPE=A QCLASS=IN
      "C00C"                               // owner: pointer to offset 12
      "0001 0001 0000 0E10 0004 0A000034"  // A 3600 10.0.0.52
      "0346 4F4F C00C"                     // owner: FOO + pointer
      "0001 0001 0000 0E10 0004 0A000063"  // A 3600 10.0.0.99
  );
  auto decoded = Message::decode(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  const Message& message = decoded.value();

  EXPECT_EQ(message.header.id, 0x1234);
  EXPECT_TRUE(message.header.qr);
  EXPECT_TRUE(message.header.aa);
  ASSERT_EQ(message.questions.size(), 1u);
  EXPECT_EQ(message.questions[0].name, name_of("f.isi.arpa."));
  EXPECT_EQ(message.questions[0].type, RRType::kA);

  ASSERT_EQ(message.answers.size(), 2u);
  EXPECT_EQ(message.answers[0].name, name_of("f.isi.arpa."));
  EXPECT_EQ(message.answers[1].name, name_of("foo.f.isi.arpa."));
  EXPECT_EQ(message.answers[0].ttl, 3600u);
  const auto* a0 = std::get_if<ARdata>(&message.answers[0].rdata);
  const auto* a1 = std::get_if<ARdata>(&message.answers[1].rdata);
  ASSERT_NE(a0, nullptr);
  ASSERT_NE(a1, nullptr);
  EXPECT_EQ(ipv4_to_text(a0->address), "10.0.0.52");
  EXPECT_EQ(ipv4_to_text(a1->address), "10.0.0.99");

  Message again = reencode_and_redecode(message);
  EXPECT_EQ(again.answers.size(), 2u);
  EXPECT_EQ(again.answers[1].name, name_of("foo.f.isi.arpa."));
  // Our encoder compresses at least as well as the hand-built capture.
  EXPECT_LE(message.encode().size(), wire.size());
}

// A DNSKEY query with an EDNS0 OPT additional advertising a 4096-byte UDP
// payload and the DO bit — the exact shape the scanner's query engine puts
// on the wire (OPT: root owner, TYPE=41, CLASS=udp size, TTL bit 15 = DO).
TEST(CodecGolden, Edns0QueryWithDoBit) {
  const Bytes wire = from_hex(
      "BEEF 0000 0001 0000 0000 0001"          // header: query, 1 additional
      "076578616D706C6503636F6D00 0030 0001"   // example.com DNSKEY IN
      "00 0029 1000 0000 8000 0000"            // OPT, size 4096, DO
  );
  auto decoded = Message::decode(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  const Message& message = decoded.value();

  EXPECT_EQ(message.header.id, 0xBEEF);
  EXPECT_FALSE(message.header.qr);
  ASSERT_EQ(message.questions.size(), 1u);
  EXPECT_EQ(message.questions[0].name, name_of("example.com."));
  EXPECT_EQ(message.questions[0].type, RRType::kDNSKEY);

  ASSERT_TRUE(message.has_edns());
  EXPECT_TRUE(message.dnssec_ok());
  ASSERT_EQ(message.additionals.size(), 1u);
  EXPECT_EQ(message.additionals[0].name, Name::root());
  // The OPT CLASS field carries the advertised UDP payload size.
  EXPECT_EQ(static_cast<std::uint16_t>(message.additionals[0].klass), 4096);

  Message again = reencode_and_redecode(message);
  EXPECT_TRUE(again.has_edns());
  EXPECT_TRUE(again.dnssec_ok());
  EXPECT_EQ(static_cast<std::uint16_t>(again.additionals[0].klass), 4096);
}

// An authoritative CDS response at an RFC 9615 signaling name
// (_dsboot.example.com._signal.ns1.provider.net.), as a bootstrapping
// parent would receive it: key tag 12345, ECDSA-P256 (13), SHA-256 digest.
TEST(CodecGolden, SignalingNameCdsResponse) {
  const Bytes wire = from_hex(
      "ABCD 8400 0001 0001 0000 0000"  // header: QR AA
      "075F6473626F6F74"               // _dsboot
      "076578616D706C65"               // example
      "03636F6D"                       // com
      "075F7369676E616C"               // _signal
      "036E7331"                       // ns1
      "0870726F7669646572"             // provider
      "036E657400"                     // net, root
      "003B 0001"                      // QTYPE=CDS QCLASS=IN
      "C00C 003B 0001 0000012C 0024"   // owner ptr, CDS, TTL 300, RDLEN 36
      "3039 0D 02"                     // tag 12345, alg 13, digest type 2
      "000102030405060708090A0B0C0D0E0F"
      "101112131415161718191A1B1C1D1E1F"  // 32-byte digest
  );
  auto decoded = Message::decode(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  const Message& message = decoded.value();

  const Name signal_name =
      name_of("_dsboot.example.com._signal.ns1.provider.net.");
  ASSERT_EQ(message.questions.size(), 1u);
  EXPECT_EQ(message.questions[0].name, signal_name);
  EXPECT_EQ(message.questions[0].type, RRType::kCDS);

  auto cds_answers = message.answers_of(signal_name, RRType::kCDS);
  ASSERT_EQ(cds_answers.size(), 1u);
  EXPECT_EQ(cds_answers[0].ttl, 300u);
  const auto* cds = std::get_if<DsRdata>(&cds_answers[0].rdata);
  ASSERT_NE(cds, nullptr);
  EXPECT_EQ(cds->key_tag, 12345);
  EXPECT_EQ(cds->algorithm, 13);
  EXPECT_EQ(cds->digest_type, 2);
  ASSERT_EQ(cds->digest.size(), 32u);
  EXPECT_EQ(cds->digest[0], 0x00);
  EXPECT_EQ(cds->digest[31], 0x1F);
  EXPECT_FALSE(cds->is_delete_sentinel());

  Message again = reencode_and_redecode(message);
  auto cds_again = again.answers_of(signal_name, RRType::kCDS);
  ASSERT_EQ(cds_again.size(), 1u);
  EXPECT_EQ(std::get<DsRdata>(cds_again[0].rdata), *cds);
}

// The RFC 8078 §4 CDS delete sentinel ("0 0 0 00") on the wire: a single
// rdata byte. The decoder must classify it, and it must not read as a key
// correspondence.
TEST(CodecGolden, CdsDeleteSentinel) {
  const Bytes wire = from_hex(
      "0001 8400 0001 0001 0000 0000"
      "076578616D706C65036F726700 003B 0001"  // example.org CDS IN
      "C00C 003B 0001 00000E10 0005"          // RDLEN 5
      "0000 00 00 00"                         // tag 0, alg 0, type 0, digest 00
  );
  auto decoded = Message::decode(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  const auto* cds = std::get_if<DsRdata>(&decoded->answers[0].rdata);
  ASSERT_NE(cds, nullptr);
  EXPECT_TRUE(cds->is_delete_sentinel());
}

// --- compression pointers that must not decode -------------------------------
//
// RFC 1035 §4.1.4 pointers name a prior occurrence, so a target at or after
// the pointer itself is malformed ("name.bad_pointer"). That rule alone
// makes every chain move backwards; the 32-hop cap still bounds long
// backward chains.

std::string decode_error(const Bytes& wire) {
  auto decoded = Message::decode(wire);
  return decoded.ok() ? "ok" : decoded.error().code;
}

// The question name is a pointer to offset 18, the answer's owner "foo.":
// the target exists and is well formed, but lies after the pointer.
TEST(CodecGolden, ForwardPointerIsRejected) {
  const Bytes wire = from_hex(
      "0001 8400 0001 0001 0000 0000"
      "C012 0001 0001"                     // question: pointer to offset 18
      "03666F6F00 0001 0001 00000E10 0004 0A000001");  // foo. A 10.0.0.1
  EXPECT_EQ(decode_error(wire), "name.bad_pointer");
  // The same bytes with the name spelled out decode: only the pointer's
  // direction is at fault.
  const Bytes spelled = from_hex(
      "0001 8400 0001 0001 0000 0000"
      "03666F6F00 0001 0001"
      "C00C 0001 0001 00000E10 0004 0A000001");
  EXPECT_EQ(decode_error(spelled), "ok");
}

TEST(CodecGolden, SelfPointerIsRejected) {
  const Bytes wire = from_hex(
      "0001 0000 0001 0000 0000 0000"
      "C00C 0001 0001");  // the question name points at itself
  EXPECT_EQ(decode_error(wire), "name.bad_pointer");
}

// Offset 12 points to 14 and 14 points back to 12. Whichever is read first,
// one of the pair points forward.
TEST(CodecGolden, TwoPointerCycleIsRejected) {
  const Bytes wire = from_hex(
      "0001 0000 0001 0000 0000 0000"
      "C00E C00C 0001 0001");
  EXPECT_EQ(decode_error(wire), "name.bad_pointer");
  ByteReader reader{wire};
  ASSERT_TRUE(reader.seek(14).ok());
  auto name = Name::decode(reader);  // 14 -> 12 is backwards, 12 -> 14 is not
  ASSERT_FALSE(name.ok());
  EXPECT_EQ(name.error().code, "name.bad_pointer");
}

TEST(CodecGolden, PointerPastTheEndIsRejected) {
  const Bytes wire = from_hex(
      "0001 0000 0001 0000 0000 0000"
      "C0FF 0001 0001");  // target 255 in an 18-byte message
  EXPECT_EQ(decode_error(wire), "name.bad_pointer");
  // A pointer cut off after its first octet.
  const Bytes cut = from_hex("0001 0000 0001 0000 0000 0000 C0");
  EXPECT_EQ(decode_error(cut), "wire.truncated");
}

// 40 pointers in an opaque RDATA, each pointing at the one before it, the
// first at the question's root name; the next owner name points at the
// last. Every hop is backwards, and the chain still stops at the hop cap.
TEST(CodecGolden, LongBackwardPointerChainHitsTheHopCap) {
  constexpr int kChain = 40;
  Bytes wire = from_hex(
      "0001 8400 0001 0002 0000 0000"
      "00 0001 0001"                        // question: root, at offset 12
      "00 1267 0001 00000000");             // owner root, TYPE4711 IN TTL 0
  wire.push_back(0);
  wire.push_back(static_cast<std::uint8_t>(2 * kChain));  // RDLENGTH
  const std::size_t rdata_at = wire.size();  // 28
  for (int i = 0; i < kChain; ++i) {
    const std::size_t target = i == 0 ? 12 : rdata_at + 2 * (i - 1);
    wire.push_back(static_cast<std::uint8_t>(0xc0 | target >> 8));
    wire.push_back(static_cast<std::uint8_t>(target & 0xff));
  }
  const std::size_t last = rdata_at + 2 * (kChain - 1);
  wire.push_back(static_cast<std::uint8_t>(0xc0 | last >> 8));
  wire.push_back(static_cast<std::uint8_t>(last & 0xff));
  for (std::uint8_t b : from_hex("0001 0001 00000000 0004 0A000001")) {
    wire.push_back(b);
  }
  EXPECT_EQ(decode_error(wire), "name.pointer_loop");
}

// --- the query engine's direct encoder ------------------------------------------

// encode_query writes what make_query(...).encode() writes, byte for byte.
TEST(CodecGolden, DirectQueryEncoderMatchesEdns0Golden) {
  const Bytes golden = from_hex(
      "BEEF 0000 0001 0000 0000 0001"
      "076578616D706C6503636F6D00 0030 0001"
      "00 0029 1000 0000 8000 0000");
  EXPECT_EQ(encode_query(0xBEEF, name_of("example.com."), RRType::kDNSKEY),
            golden);
}

TEST(CodecGolden, DirectQueryEncoderMatchesMessageEncoder) {
  const char* names[] = {
      ".",
      "example.com.",
      "ExAmPlE.CoM.",
      "_dsboot.Example.co.uk._signal.NS1.example.net.",
      "a.a.a.a.",
      "x\\.y.example.",
      "abcdefghijklmnopqrstuvwxyzabcdefghijklmnopqrstuvwxyzabcdefghijk."
      "abcdefghijklmnopqrstuvwxyzabcdefghijklmnopqrstuvwxyzabcdefghijk."
      "abcdefghijklmnopqrstuvwxyzabcdefghijklmnopqrstuvwxyzabcdefghijk."
      "abcdefghijklmnopqrstuvwxyzabcdefghijklmnopqrstuvwxyzabcdefghi.",
  };
  const RRType types[] = {RRType::kA, RRType::kNS, RRType::kSOA,
                          RRType::kDNSKEY, RRType::kCDS, RRType::kTXT,
                          static_cast<RRType>(65280)};
  for (const char* text : names) {
    const Name name = name_of(text);
    for (RRType type : types) {
      for (std::uint16_t id : {std::uint16_t{0}, std::uint16_t{1},
                               std::uint16_t{0xffff}}) {
        for (bool dnssec_ok : {true, false}) {
          EXPECT_EQ(encode_query(id, name, type, dnssec_ok),
                    Message::make_query(id, name, type, dnssec_ok).encode())
              << text << " " << to_string(type) << " id " << id << " do "
              << dnssec_ok;
        }
      }
    }
  }
}

}  // namespace
}  // namespace dnsboot::dns
