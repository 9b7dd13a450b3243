#include "dns/message.hpp"

#include <algorithm>
#include <cstring>
#include <string_view>

#include "base/strings.hpp"

namespace dnsboot::dns {
namespace {

// Compression context: canonical suffix text -> message offset, in a flat
// open-addressed table. Keys are views into the names' cached canonical
// strings (every suffix of a name's canonical text starting at a label
// boundary is the suffix name's canonical text), so building the table
// allocates nothing per label. The table starts inline; a message with more
// distinct suffixes than half its slots moves it to the heap, doubling as
// needed. The first offset recorded for a suffix wins, and nothing is
// recorded at offsets of 0x3fff or more (out of a pointer's reach). The
// names must outlive the compressor — they are members of the Message being
// encoded.
class NameCompressor {
 public:
  NameCompressor() = default;
  NameCompressor(const NameCompressor&) = delete;
  NameCompressor& operator=(const NameCompressor&) = delete;

  void encode(const Name& name, ByteWriter& writer) {
    const std::string& canon = name.canonical_text();
    std::size_t canon_pos = 0;
    for (std::string_view label : name.labels()) {
      std::string_view key(canon.data() + canon_pos, canon.size() - canon_pos);
      const auto hash = static_cast<std::uint32_t>(hash_short(key));
      Slot* slot = probe(key, hash);
      if (slot->key != nullptr) {
        writer.u16(static_cast<std::uint16_t>(0xc000 | slot->offset));
        return;
      }
      if (writer.size() < 0x3fff) {
        record(slot, key, hash, static_cast<std::uint16_t>(writer.size()));
      }
      writer.u8(static_cast<std::uint8_t>(label.size()));
      writer.raw(label);
      canon_pos += canonical_label_width(label) + 1;
    }
    writer.u8(0);  // root
  }

 private:
  static constexpr std::size_t kInlineSlots = 32;

  struct Slot {
    const char* key = nullptr;  // null: empty slot
    std::uint32_t hash = 0;
    std::uint16_t length = 0;
    std::uint16_t offset = 0;
  };

  // The slot holding `key`, or the empty slot where it would go.
  Slot* probe(std::string_view key, std::uint32_t hash) {
    for (std::size_t i = hash & mask_;; i = (i + 1) & mask_) {
      Slot& slot = slots_[i];
      if (slot.key == nullptr ||
          (slot.hash == hash && slot.length == key.size() &&
           std::memcmp(slot.key, key.data(), key.size()) == 0)) {
        return &slot;
      }
    }
  }

  // Fill `empty` (probe's answer for an absent key), keeping the table at
  // most half full.
  void record(Slot* empty, std::string_view key, std::uint32_t hash,
              std::uint16_t offset) {
    if (2 * (used_ + 1) > mask_ + 1) {
      grow();
      empty = probe(key, hash);
    }
    *empty = Slot{key.data(), hash, static_cast<std::uint16_t>(key.size()),
                  offset};
    ++used_;
  }

  void grow() {
    std::vector<Slot> bigger(2 * (mask_ + 1));
    const std::size_t mask = bigger.size() - 1;
    for (std::size_t i = 0; i <= mask_; ++i) {
      const Slot& slot = slots_[i];
      if (slot.key == nullptr) continue;
      std::size_t j = slot.hash & mask;
      while (bigger[j].key != nullptr) j = (j + 1) & mask;
      bigger[j] = slot;
    }
    heap_ = std::move(bigger);
    slots_ = heap_.data();
    mask_ = mask;
  }

  Slot inline_[kInlineSlots];
  std::vector<Slot> heap_;
  Slot* slots_ = inline_;
  std::size_t mask_ = kInlineSlots - 1;
  std::size_t used_ = 0;
};

void encode_record(const ResourceRecord& rr, ByteWriter& writer,
                   NameCompressor& compressor) {
  compressor.encode(rr.name, writer);
  writer.u16(static_cast<std::uint16_t>(rr.type));
  writer.u16(static_cast<std::uint16_t>(rr.klass));
  writer.u32(rr.ttl);
  // RDATA is written uncompressed: always legal, and keeps RDLENGTH
  // back-patching trivial (compression inside RDATA is optional per RFC 1035
  // and forbidden for post-RFC-3597 types anyway).
  std::size_t rdlength_at = writer.size();
  writer.u16(0);
  std::size_t rdata_start = writer.size();
  encode_rdata(rr.rdata, writer);
  writer.patch_u16(rdlength_at,
                   static_cast<std::uint16_t>(writer.size() - rdata_start));
}

Result<ResourceRecord> decode_record(ByteReader& reader) {
  DNSBOOT_TRY(name, Name::decode(reader));
  DNSBOOT_TRY(type_raw, reader.u16());
  DNSBOOT_TRY(klass_raw, reader.u16());
  DNSBOOT_TRY(ttl, reader.u32());
  DNSBOOT_TRY(rdlength, reader.u16());
  RRType type = static_cast<RRType>(type_raw);
  DNSBOOT_TRY(rdata, decode_rdata(type, reader, rdlength));
  ResourceRecord rr;
  rr.name = std::move(name);
  rr.type = type;
  rr.klass = static_cast<RRClass>(klass_raw);
  rr.ttl = ttl;
  rr.rdata = std::move(rdata);
  return rr;
}

}  // namespace

Message Message::make_query(std::uint16_t id, const Name& name, RRType type,
                            bool dnssec_ok) {
  Message m;
  m.header.id = id;
  m.header.rd = false;  // iterative scanner: never ask for recursion
  m.questions.push_back(Question{name, type, RRClass::kIN});
  m.add_edns(4096, dnssec_ok);
  return m;
}

Bytes encode_query(std::uint16_t id, const Name& qname, RRType qtype,
                   bool dnssec_ok) {
  // Header, question and an empty OPT: 12 + name + 4 + 11 octets. The bytes
  // are make_query(...).encode()'s: a lone question name has no earlier
  // suffix to point at, so the compressor writes it whole, and the OPT
  // owner is the root.
  ByteWriter w;
  w.reserve(12 + qname.wire_length() + 4 + 11);
  w.u16(id);
  w.u16(0);  // flags: a query, no recursion desired
  w.u16(1);  // QDCOUNT
  w.u16(0);  // ANCOUNT
  w.u16(0);  // NSCOUNT
  w.u16(1);  // ARCOUNT: the OPT
  qname.encode(w);
  w.u16(static_cast<std::uint16_t>(qtype));
  w.u16(static_cast<std::uint16_t>(RRClass::kIN));
  w.u8(0);  // OPT owner: root
  w.u16(static_cast<std::uint16_t>(RRType::kOPT));
  w.u16(4096);  // CLASS: advertised UDP payload size
  w.u32(dnssec_ok ? 0x00008000u : 0);  // TTL: extended rcode, flags (DO)
  w.u16(0);  // RDLENGTH: no options
  return w.take();
}

Message Message::make_response(const Message& query) {
  Message m;
  m.header = query.header;
  m.header.qr = true;
  m.header.ra = false;
  m.questions = query.questions;
  if (query.has_edns()) m.add_edns(4096, query.dnssec_ok());
  return m;
}

bool Message::has_edns() const {
  for (const auto& rr : additionals) {
    if (rr.type == RRType::kOPT) return true;
  }
  return false;
}

bool Message::dnssec_ok() const {
  for (const auto& rr : additionals) {
    if (rr.type == RRType::kOPT) return (rr.ttl & 0x00008000u) != 0;
  }
  return false;
}

void Message::add_edns(std::uint16_t udp_size, bool dnssec_ok) {
  ResourceRecord opt;
  opt.name = Name::root();
  opt.type = RRType::kOPT;
  opt.klass = static_cast<RRClass>(udp_size);  // CLASS field carries UDP size
  opt.ttl = dnssec_ok ? 0x00008000u : 0;       // TTL carries ext-rcode/flags
  opt.rdata = OptRdata{};
  additionals.push_back(std::move(opt));
}

std::vector<ResourceRecord> Message::answers_of(const Name& name,
                                                RRType type) const {
  std::vector<ResourceRecord> out;
  for (const auto& rr : answers) {
    if (rr.type == type && rr.name == name) out.push_back(rr);
  }
  return out;
}

Bytes Message::encode() const {
  ByteWriter w;
  w.reserve(512);
  encode_into(w);
  return w.take();
}

void Message::encode_into(ByteWriter& w) const {
  w.u16(header.id);
  std::uint16_t flags = 0;
  if (header.qr) flags |= 0x8000;
  flags |= static_cast<std::uint16_t>(header.opcode) << 11;
  if (header.aa) flags |= 0x0400;
  if (header.tc) flags |= 0x0200;
  if (header.rd) flags |= 0x0100;
  if (header.ra) flags |= 0x0080;
  if (header.ad) flags |= 0x0020;
  if (header.cd) flags |= 0x0010;
  flags |= static_cast<std::uint16_t>(header.rcode) & 0x000f;
  w.u16(flags);
  w.u16(static_cast<std::uint16_t>(questions.size()));
  w.u16(static_cast<std::uint16_t>(answers.size()));
  w.u16(static_cast<std::uint16_t>(authorities.size()));
  w.u16(static_cast<std::uint16_t>(additionals.size()));

  NameCompressor compressor;
  for (const auto& q : questions) {
    compressor.encode(q.name, w);
    w.u16(static_cast<std::uint16_t>(q.type));
    w.u16(static_cast<std::uint16_t>(q.klass));
  }
  for (const auto& rr : answers) encode_record(rr, w, compressor);
  for (const auto& rr : authorities) encode_record(rr, w, compressor);
  for (const auto& rr : additionals) encode_record(rr, w, compressor);
}

Result<Message> Message::decode(BytesView wire) {
  ByteReader r{wire};
  Message m;
  DNSBOOT_TRY(id, r.u16());
  DNSBOOT_TRY(flags, r.u16());
  m.header.id = id;
  m.header.qr = (flags & 0x8000) != 0;
  m.header.opcode = static_cast<Opcode>((flags >> 11) & 0xf);
  m.header.aa = (flags & 0x0400) != 0;
  m.header.tc = (flags & 0x0200) != 0;
  m.header.rd = (flags & 0x0100) != 0;
  m.header.ra = (flags & 0x0080) != 0;
  m.header.ad = (flags & 0x0020) != 0;
  m.header.cd = (flags & 0x0010) != 0;
  m.header.rcode = static_cast<Rcode>(flags & 0xf);

  DNSBOOT_TRY(qdcount, r.u16());
  DNSBOOT_TRY(ancount, r.u16());
  DNSBOOT_TRY(nscount, r.u16());
  DNSBOOT_TRY(arcount, r.u16());

  // Pre-size the sections. Counts come off the wire, so cap the speculative
  // reserve — a hostile header can claim 65535 records it never carries.
  constexpr std::size_t kReserveCap = 512;
  m.questions.reserve(std::min<std::size_t>(qdcount, kReserveCap));
  m.answers.reserve(std::min<std::size_t>(ancount, kReserveCap));
  m.authorities.reserve(std::min<std::size_t>(nscount, kReserveCap));
  m.additionals.reserve(std::min<std::size_t>(arcount, kReserveCap));

  for (int i = 0; i < qdcount; ++i) {
    DNSBOOT_TRY(name, Name::decode(r));
    DNSBOOT_TRY(type_raw, r.u16());
    DNSBOOT_TRY(klass_raw, r.u16());
    m.questions.push_back(Question{std::move(name),
                                   static_cast<RRType>(type_raw),
                                   static_cast<RRClass>(klass_raw)});
  }
  for (int i = 0; i < ancount; ++i) {
    DNSBOOT_TRY(rr, decode_record(r));
    m.answers.push_back(std::move(rr));
  }
  for (int i = 0; i < nscount; ++i) {
    DNSBOOT_TRY(rr, decode_record(r));
    m.authorities.push_back(std::move(rr));
  }
  for (int i = 0; i < arcount; ++i) {
    DNSBOOT_TRY(rr, decode_record(r));
    m.additionals.push_back(std::move(rr));
  }
  if (!r.at_end()) {
    return Error{"wire.trailing_bytes",
                 std::to_string(r.remaining()) + " bytes after message"};
  }
  return m;
}

}  // namespace dnsboot::dns
