#include "dns/rdata.hpp"

#include <cstdio>

#include "base/encoding.hpp"
#include "base/strings.hpp"

namespace dnsboot::dns {
namespace {

// Parse a u16/u32 decimal field.
Result<std::uint32_t> parse_u32_field(const std::string& s) {
  if (s.empty()) return Error{"rdata.bad_field", "empty numeric field"};
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') {
      return Error{"rdata.bad_field", "non-numeric field: " + s};
    }
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
    if (v > 0xffffffffULL) return Error{"rdata.bad_field", "field too large"};
  }
  return static_cast<std::uint32_t>(v);
}

Result<std::uint16_t> parse_u16_field(const std::string& s) {
  DNSBOOT_TRY(v, parse_u32_field(s));
  if (v > 0xffff) return Error{"rdata.bad_field", "field exceeds 16 bits"};
  return static_cast<std::uint16_t>(v);
}

Result<std::uint8_t> parse_u8_field(const std::string& s) {
  DNSBOOT_TRY(v, parse_u32_field(s));
  if (v > 0xff) return Error{"rdata.bad_field", "field exceeds 8 bits"};
  return static_cast<std::uint8_t>(v);
}

Status need_fields(const std::vector<std::string>& fields, std::size_t n,
                   const char* what) {
  if (fields.size() < n) {
    return Error{"rdata.missing_fields", std::string(what) + " needs " +
                                             std::to_string(n) + " fields"};
  }
  return Status::ok_status();
}

// Concatenate base64 fields from index `from` to the end (keys/signatures are
// often split across whitespace in presentation form).
Result<Bytes> parse_base64_fields(const std::vector<std::string>& fields,
                                  std::size_t from) {
  std::string joined;
  for (std::size_t i = from; i < fields.size(); ++i) joined += fields[i];
  return base64_decode(joined);
}

Result<Bytes> parse_hex_fields(const std::vector<std::string>& fields,
                               std::size_t from) {
  std::string joined;
  for (std::size_t i = from; i < fields.size(); ++i) joined += fields[i];
  return hex_decode(joined);
}

}  // namespace

// --- TypeBitmap -------------------------------------------------------------

void TypeBitmap::encode(ByteWriter& writer) const {
  // Group types by window (high byte), emit minimal-length bitmaps.
  int current_window = -1;
  std::uint8_t bitmap[32];
  int bitmap_len = 0;
  auto flush = [&] {
    if (current_window >= 0 && bitmap_len > 0) {
      writer.u8(static_cast<std::uint8_t>(current_window));
      writer.u8(static_cast<std::uint8_t>(bitmap_len));
      writer.raw(BytesView(bitmap, static_cast<std::size_t>(bitmap_len)));
    }
  };
  for (RRType type : types_) {
    std::uint16_t value = static_cast<std::uint16_t>(type);
    int window = value >> 8;
    if (window != current_window) {
      flush();
      current_window = window;
      bitmap_len = 0;
      std::fill(std::begin(bitmap), std::end(bitmap), 0);
    }
    int low = value & 0xff;
    bitmap[low >> 3] |= static_cast<std::uint8_t>(0x80 >> (low & 7));
    if (low / 8 + 1 > bitmap_len) bitmap_len = low / 8 + 1;
  }
  flush();
}

Result<TypeBitmap> TypeBitmap::decode(ByteReader& reader, std::size_t length) {
  std::set<RRType> types;
  std::size_t end = reader.offset() + length;
  int previous_window = -1;
  while (reader.offset() < end) {
    DNSBOOT_TRY(window, reader.u8());
    DNSBOOT_TRY(len, reader.u8());
    if (len == 0 || len > 32) {
      return Error{"rdata.bad_bitmap", "bitmap block length out of range"};
    }
    if (window <= previous_window) {
      return Error{"rdata.bad_bitmap", "bitmap windows out of order"};
    }
    previous_window = window;
    DNSBOOT_TRY(block, reader.view(len));
    for (std::size_t i = 0; i < block.size(); ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        if (block[i] & (0x80 >> bit)) {
          types.insert(static_cast<RRType>(window << 8 | (i * 8 + bit)));
        }
      }
    }
  }
  if (reader.offset() != end) {
    return Error{"rdata.bad_bitmap", "bitmap overruns rdata"};
  }
  return TypeBitmap(std::move(types));
}

std::string TypeBitmap::to_text() const {
  std::vector<std::string> names;
  names.reserve(types_.size());
  for (RRType t : types_) names.push_back(dns::to_string(t));
  return join(names, " ");
}

// --- key tags & sentinels ----------------------------------------------------

std::uint16_t DnskeyRdata::key_tag() const {
  // RFC 4034 Appendix B over the wire RDATA (flags, protocol, algorithm,
  // key), summed in place: even octets count as high bytes, odd as low.
  // The key starts at octet 4, so its octets keep their parity.
  std::uint32_t acc = flags + (std::uint32_t{protocol} << 8) + algorithm;
  for (std::size_t i = 0; i < public_key.size(); ++i) {
    acc += (i & 1) ? public_key[i]
                   : static_cast<std::uint32_t>(public_key[i]) << 8;
  }
  acc += (acc >> 16) & 0xffff;
  return static_cast<std::uint16_t>(acc & 0xffff);
}

bool DnskeyRdata::is_delete_sentinel() const {
  return flags == 0 && protocol == 3 && algorithm == 0 &&
         public_key == Bytes{0};
}

bool DsRdata::is_delete_sentinel() const {
  return key_tag == 0 && algorithm == 0 && digest_type == 0 &&
         digest == Bytes{0};
}

// --- wire decode --------------------------------------------------------------

Result<Rdata> decode_rdata(RRType type, ByteReader& reader,
                           std::size_t rdlength) {
  const std::size_t start = reader.offset();
  const std::size_t end = start + rdlength;
  if (reader.remaining() < rdlength) {
    return Error{"wire.truncated", "rdata extends past message"};
  }

  auto check_consumed = [&](Rdata value) -> Result<Rdata> {
    if (reader.offset() != end) {
      return Error{"rdata.length_mismatch",
                   "rdata for " + dns::to_string(type) + " consumed " +
                       std::to_string(reader.offset() - start) + " of " +
                       std::to_string(rdlength)};
    }
    return value;
  };

  switch (type) {
    case RRType::kA: {
      DNSBOOT_TRY(raw, reader.view(4));
      if (rdlength != 4) return Error{"rdata.length_mismatch", "A rdlength"};
      ARdata a;
      std::copy(raw.begin(), raw.end(), a.address.begin());
      return Rdata{a};
    }
    case RRType::kAAAA: {
      if (rdlength != 16) {
        return Error{"rdata.length_mismatch", "AAAA rdlength"};
      }
      DNSBOOT_TRY(raw, reader.view(16));
      AaaaRdata a;
      std::copy(raw.begin(), raw.end(), a.address.begin());
      return Rdata{a};
    }
    case RRType::kNS: {
      DNSBOOT_TRY(name, Name::decode(reader));
      return check_consumed(Rdata{NsRdata{std::move(name)}});
    }
    case RRType::kCNAME: {
      DNSBOOT_TRY(name, Name::decode(reader));
      return check_consumed(Rdata{CnameRdata{std::move(name)}});
    }
    case RRType::kPTR: {
      DNSBOOT_TRY(name, Name::decode(reader));
      return check_consumed(Rdata{PtrRdata{std::move(name)}});
    }
    case RRType::kMX: {
      DNSBOOT_TRY(pref, reader.u16());
      DNSBOOT_TRY(name, Name::decode(reader));
      return check_consumed(Rdata{MxRdata{pref, std::move(name)}});
    }
    case RRType::kSOA: {
      DNSBOOT_TRY(mname, Name::decode(reader));
      DNSBOOT_TRY(rname, Name::decode(reader));
      DNSBOOT_TRY(serial, reader.u32());
      DNSBOOT_TRY(refresh, reader.u32());
      DNSBOOT_TRY(retry, reader.u32());
      DNSBOOT_TRY(expire, reader.u32());
      DNSBOOT_TRY(minimum, reader.u32());
      return check_consumed(Rdata{SoaRdata{std::move(mname), std::move(rname),
                                           serial, refresh, retry, expire,
                                           minimum}});
    }
    case RRType::kTXT: {
      TxtRdata txt;
      while (reader.offset() < end) {
        DNSBOOT_TRY(len, reader.u8());
        DNSBOOT_TRY(raw, reader.view(len));
        txt.strings.emplace_back(raw.begin(), raw.end());
      }
      return check_consumed(Rdata{std::move(txt)});
    }
    case RRType::kDNSKEY:
    case RRType::kCDNSKEY: {
      DNSBOOT_TRY(flags, reader.u16());
      DNSBOOT_TRY(protocol, reader.u8());
      DNSBOOT_TRY(algorithm, reader.u8());
      DNSBOOT_TRY(key, reader.bytes(end - reader.offset()));
      return check_consumed(
          Rdata{DnskeyRdata{flags, protocol, algorithm, std::move(key)}});
    }
    case RRType::kDS:
    case RRType::kCDS: {
      DNSBOOT_TRY(key_tag, reader.u16());
      DNSBOOT_TRY(algorithm, reader.u8());
      DNSBOOT_TRY(digest_type, reader.u8());
      DNSBOOT_TRY(digest, reader.bytes(end - reader.offset()));
      return check_consumed(
          Rdata{DsRdata{key_tag, algorithm, digest_type, std::move(digest)}});
    }
    case RRType::kRRSIG: {
      DNSBOOT_TRY(covered, reader.u16());
      DNSBOOT_TRY(algorithm, reader.u8());
      DNSBOOT_TRY(labels, reader.u8());
      DNSBOOT_TRY(original_ttl, reader.u32());
      DNSBOOT_TRY(expiration, reader.u32());
      DNSBOOT_TRY(inception, reader.u32());
      DNSBOOT_TRY(key_tag, reader.u16());
      DNSBOOT_TRY(signer, Name::decode(reader));
      DNSBOOT_TRY(sig, reader.bytes(end - reader.offset()));
      RrsigRdata r;
      r.type_covered = static_cast<RRType>(covered);
      r.algorithm = algorithm;
      r.labels = labels;
      r.original_ttl = original_ttl;
      r.expiration = expiration;
      r.inception = inception;
      r.key_tag = key_tag;
      r.signer_name = std::move(signer);
      r.signature = std::move(sig);
      return check_consumed(Rdata{std::move(r)});
    }
    case RRType::kNSEC: {
      DNSBOOT_TRY(next, Name::decode(reader));
      DNSBOOT_TRY(types, TypeBitmap::decode(reader, end - reader.offset()));
      return check_consumed(Rdata{NsecRdata{std::move(next), std::move(types)}});
    }
    case RRType::kNSEC3: {
      DNSBOOT_TRY(hash_alg, reader.u8());
      DNSBOOT_TRY(flags, reader.u8());
      DNSBOOT_TRY(iterations, reader.u16());
      DNSBOOT_TRY(salt_len, reader.u8());
      DNSBOOT_TRY(salt, reader.bytes(salt_len));
      DNSBOOT_TRY(hash_len, reader.u8());
      DNSBOOT_TRY(next_hashed, reader.bytes(hash_len));
      DNSBOOT_TRY(types, TypeBitmap::decode(reader, end - reader.offset()));
      Nsec3Rdata r;
      r.hash_algorithm = hash_alg;
      r.flags = flags;
      r.iterations = iterations;
      r.salt = std::move(salt);
      r.next_hashed_owner = std::move(next_hashed);
      r.types = std::move(types);
      return check_consumed(Rdata{std::move(r)});
    }
    case RRType::kNSEC3PARAM: {
      DNSBOOT_TRY(hash_alg, reader.u8());
      DNSBOOT_TRY(flags, reader.u8());
      DNSBOOT_TRY(iterations, reader.u16());
      DNSBOOT_TRY(salt_len, reader.u8());
      DNSBOOT_TRY(salt, reader.bytes(salt_len));
      return check_consumed(
          Rdata{Nsec3ParamRdata{hash_alg, flags, iterations, std::move(salt)}});
    }
    case RRType::kCSYNC: {
      DNSBOOT_TRY(serial, reader.u32());
      DNSBOOT_TRY(flags, reader.u16());
      DNSBOOT_TRY(types, TypeBitmap::decode(reader, end - reader.offset()));
      return check_consumed(Rdata{CsyncRdata{serial, flags, std::move(types)}});
    }
    case RRType::kOPT: {
      DNSBOOT_TRY(options, reader.bytes(rdlength));
      return Rdata{OptRdata{std::move(options)}};
    }
    default: {
      DNSBOOT_TRY(raw, reader.bytes(rdlength));
      return Rdata{RawRdata{std::move(raw)}};
    }
  }
}

// --- wire encode --------------------------------------------------------------

namespace {

void encode_name_field(const Name& name, ByteWriter& writer, bool canonical) {
  if (canonical) {
    name.encode_canonical(writer);
  } else {
    name.encode(writer);
  }
}

struct RdataEncoder {
  ByteWriter& writer;
  bool canonical;

  void operator()(const ARdata& r) const {
    writer.raw(BytesView(r.address.data(), r.address.size()));
  }
  void operator()(const AaaaRdata& r) const {
    writer.raw(BytesView(r.address.data(), r.address.size()));
  }
  void operator()(const NsRdata& r) const {
    encode_name_field(r.nsdname, writer, canonical);
  }
  void operator()(const CnameRdata& r) const {
    encode_name_field(r.target, writer, canonical);
  }
  void operator()(const PtrRdata& r) const {
    encode_name_field(r.target, writer, canonical);
  }
  void operator()(const MxRdata& r) const {
    writer.u16(r.preference);
    encode_name_field(r.exchange, writer, canonical);
  }
  void operator()(const SoaRdata& r) const {
    encode_name_field(r.mname, writer, canonical);
    encode_name_field(r.rname, writer, canonical);
    writer.u32(r.serial);
    writer.u32(r.refresh);
    writer.u32(r.retry);
    writer.u32(r.expire);
    writer.u32(r.minimum);
  }
  void operator()(const TxtRdata& r) const {
    for (const auto& s : r.strings) {
      writer.u8(static_cast<std::uint8_t>(s.size()));
      writer.raw(s);
    }
  }
  void operator()(const DnskeyRdata& r) const {
    writer.u16(r.flags);
    writer.u8(r.protocol);
    writer.u8(r.algorithm);
    writer.raw(r.public_key);
  }
  void operator()(const DsRdata& r) const {
    writer.u16(r.key_tag);
    writer.u8(r.algorithm);
    writer.u8(r.digest_type);
    writer.raw(r.digest);
  }
  void operator()(const RrsigRdata& r) const {
    writer.u16(static_cast<std::uint16_t>(r.type_covered));
    writer.u8(r.algorithm);
    writer.u8(r.labels);
    writer.u32(r.original_ttl);
    writer.u32(r.expiration);
    writer.u32(r.inception);
    writer.u16(r.key_tag);
    // Signer name is always canonical-encoded in signatures (RFC 4034 §3.1.7
    // requires lowercase in the signed data; we emit lowercase on the wire
    // too, which is valid and simplifies comparison).
    encode_name_field(r.signer_name, writer, canonical);
    writer.raw(r.signature);
  }
  void operator()(const NsecRdata& r) const {
    encode_name_field(r.next_domain, writer, canonical);
    r.types.encode(writer);
  }
  void operator()(const Nsec3Rdata& r) const {
    writer.u8(r.hash_algorithm);
    writer.u8(r.flags);
    writer.u16(r.iterations);
    writer.u8(static_cast<std::uint8_t>(r.salt.size()));
    writer.raw(r.salt);
    writer.u8(static_cast<std::uint8_t>(r.next_hashed_owner.size()));
    writer.raw(r.next_hashed_owner);
    r.types.encode(writer);
  }
  void operator()(const Nsec3ParamRdata& r) const {
    writer.u8(r.hash_algorithm);
    writer.u8(r.flags);
    writer.u16(r.iterations);
    writer.u8(static_cast<std::uint8_t>(r.salt.size()));
    writer.raw(r.salt);
  }
  void operator()(const CsyncRdata& r) const {
    writer.u32(r.soa_serial);
    writer.u16(r.flags);
    r.types.encode(writer);
  }
  void operator()(const OptRdata& r) const { writer.raw(r.options); }
  void operator()(const RawRdata& r) const { writer.raw(r.data); }
};

}  // namespace

void encode_rdata(const Rdata& rdata, ByteWriter& writer, bool canonical) {
  std::visit(RdataEncoder{writer, canonical}, rdata);
}

// --- presentation form ---------------------------------------------------------

std::string ipv4_to_text(const std::array<std::uint8_t, 4>& addr) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", addr[0], addr[1], addr[2],
                addr[3]);
  return buf;
}

std::string ipv6_to_text(const std::array<std::uint8_t, 16>& addr) {
  // Uncompressed 8-group form; simple and unambiguous.
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%x:%x:%x:%x:%x:%x:%x:%x",
                addr[0] << 8 | addr[1], addr[2] << 8 | addr[3],
                addr[4] << 8 | addr[5], addr[6] << 8 | addr[7],
                addr[8] << 8 | addr[9], addr[10] << 8 | addr[11],
                addr[12] << 8 | addr[13], addr[14] << 8 | addr[15]);
  return buf;
}

Result<std::array<std::uint8_t, 4>> ipv4_from_text(const std::string& text) {
  auto parts = split(text, '.');
  if (parts.size() != 4) return Error{"rdata.bad_ipv4", text};
  std::array<std::uint8_t, 4> out{};
  for (int i = 0; i < 4; ++i) {
    DNSBOOT_TRY(v, parse_u32_field(parts[static_cast<std::size_t>(i)]));
    if (v > 255) return Error{"rdata.bad_ipv4", text};
    out[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v);
  }
  return out;
}

Result<std::array<std::uint8_t, 16>> ipv6_from_text(const std::string& text) {
  // Supports the "::" shorthand with hex groups; no embedded IPv4 form.
  std::array<std::uint8_t, 16> out{};
  auto halves = split(text, ':');
  // split() keeps empty fields, which represent the "::" compression.
  std::vector<std::uint16_t> head;
  std::vector<std::uint16_t> tail;
  bool seen_gap = false;
  bool expect_empty_run = false;
  for (std::size_t i = 0; i < halves.size(); ++i) {
    const std::string& part = halves[i];
    if (part.empty()) {
      // Leading/trailing "::" produce two empties; interior produces one.
      if (seen_gap && !expect_empty_run) {
        return Error{"rdata.bad_ipv6", "multiple '::' in " + text};
      }
      seen_gap = true;
      expect_empty_run = (i == 0 || i + 2 == halves.size());
      continue;
    }
    expect_empty_run = false;
    std::uint32_t v = 0;
    for (char c : part) {
      int d;
      if (c >= '0' && c <= '9') d = c - '0';
      else if (c >= 'a' && c <= 'f') d = c - 'a' + 10;
      else if (c >= 'A' && c <= 'F') d = c - 'A' + 10;
      else return Error{"rdata.bad_ipv6", text};
      v = v << 4 | static_cast<std::uint32_t>(d);
      if (v > 0xffff) return Error{"rdata.bad_ipv6", text};
    }
    (seen_gap ? tail : head).push_back(static_cast<std::uint16_t>(v));
  }
  std::size_t groups = head.size() + tail.size();
  if (groups > 8 || (!seen_gap && groups != 8)) {
    return Error{"rdata.bad_ipv6", text};
  }
  for (std::size_t i = 0; i < head.size(); ++i) {
    out[2 * i] = static_cast<std::uint8_t>(head[i] >> 8);
    out[2 * i + 1] = static_cast<std::uint8_t>(head[i] & 0xff);
  }
  for (std::size_t i = 0; i < tail.size(); ++i) {
    std::size_t g = 8 - tail.size() + i;
    out[2 * g] = static_cast<std::uint8_t>(tail[i] >> 8);
    out[2 * g + 1] = static_cast<std::uint8_t>(tail[i] & 0xff);
  }
  return out;
}

namespace {

// " <types>" after an NSEC, NSEC3 or CSYNC printer's fixed fields; nothing
// for an empty bitmap.
void append_types(const TypeBitmap& types, std::string* out) {
  if (types.empty()) return;
  *out += ' ';
  *out += types.to_text();
}

struct RdataPrinter {
  std::string operator()(const ARdata& r) const { return ipv4_to_text(r.address); }
  std::string operator()(const AaaaRdata& r) const {
    return ipv6_to_text(r.address);
  }
  std::string operator()(const NsRdata& r) const { return r.nsdname.to_text(); }
  std::string operator()(const CnameRdata& r) const { return r.target.to_text(); }
  std::string operator()(const PtrRdata& r) const { return r.target.to_text(); }
  std::string operator()(const MxRdata& r) const {
    return std::to_string(r.preference) + " " + r.exchange.to_text();
  }
  std::string operator()(const SoaRdata& r) const {
    return r.mname.to_text() + " " + r.rname.to_text() + " " +
           std::to_string(r.serial) + " " + std::to_string(r.refresh) + " " +
           std::to_string(r.retry) + " " + std::to_string(r.expire) + " " +
           std::to_string(r.minimum);
  }
  std::string operator()(const TxtRdata& r) const {
    std::vector<std::string> quoted;
    quoted.reserve(r.strings.size());
    for (const auto& s : r.strings) quoted.push_back("\"" + s + "\"");
    return join(quoted, " ");
  }
  std::string operator()(const DnskeyRdata& r) const {
    return std::to_string(r.flags) + " " + std::to_string(r.protocol) + " " +
           std::to_string(r.algorithm) + " " + base64_encode(r.public_key);
  }
  std::string operator()(const DsRdata& r) const {
    return std::to_string(r.key_tag) + " " + std::to_string(r.algorithm) +
           " " + std::to_string(r.digest_type) + " " + hex_encode(r.digest);
  }
  std::string operator()(const RrsigRdata& r) const {
    return dns::to_string(r.type_covered) + " " + std::to_string(r.algorithm) +
           " " + std::to_string(r.labels) + " " +
           std::to_string(r.original_ttl) + " " + std::to_string(r.expiration) +
           " " + std::to_string(r.inception) + " " + std::to_string(r.key_tag) +
           " " + r.signer_name.to_text() + " " + base64_encode(r.signature);
  }
  std::string operator()(const NsecRdata& r) const {
    std::string out = r.next_domain.to_text();
    append_types(r.types, &out);
    return out;
  }
  std::string operator()(const Nsec3Rdata& r) const {
    std::string out = std::to_string(r.hash_algorithm) + " " +
                      std::to_string(r.flags) + " " +
                      std::to_string(r.iterations) + " " +
                      (r.salt.empty() ? "-" : hex_encode(r.salt)) + " " +
                      base32hex_encode(r.next_hashed_owner);
    append_types(r.types, &out);
    return out;
  }
  std::string operator()(const Nsec3ParamRdata& r) const {
    return std::to_string(r.hash_algorithm) + " " + std::to_string(r.flags) +
           " " + std::to_string(r.iterations) + " " +
           (r.salt.empty() ? "-" : hex_encode(r.salt));
  }
  std::string operator()(const CsyncRdata& r) const {
    std::string out =
        std::to_string(r.soa_serial) + " " + std::to_string(r.flags);
    append_types(r.types, &out);
    return out;
  }
  std::string operator()(const OptRdata& r) const {
    return r.options.empty() ? "" : hex_encode(r.options);
  }
  std::string operator()(const RawRdata& r) const {
    std::string out = "\\# ";
    out += std::to_string(r.data.size());
    if (!r.data.empty()) {
      out += ' ';
      out += hex_encode(r.data);
    }
    return out;
  }
};

}  // namespace

std::string rdata_to_text(const Rdata& rdata) {
  return std::visit(RdataPrinter{}, rdata);
}

Result<Rdata> rdata_from_text(RRType type,
                              const std::vector<std::string>& fields) {
  switch (type) {
    case RRType::kA: {
      DNSBOOT_CHECK(need_fields(fields, 1, "A"));
      DNSBOOT_TRY(addr, ipv4_from_text(fields[0]));
      return Rdata{ARdata{addr}};
    }
    case RRType::kAAAA: {
      DNSBOOT_CHECK(need_fields(fields, 1, "AAAA"));
      DNSBOOT_TRY(addr, ipv6_from_text(fields[0]));
      return Rdata{AaaaRdata{addr}};
    }
    case RRType::kNS: {
      DNSBOOT_CHECK(need_fields(fields, 1, "NS"));
      DNSBOOT_TRY(name, Name::from_text(fields[0]));
      return Rdata{NsRdata{std::move(name)}};
    }
    case RRType::kCNAME: {
      DNSBOOT_CHECK(need_fields(fields, 1, "CNAME"));
      DNSBOOT_TRY(name, Name::from_text(fields[0]));
      return Rdata{CnameRdata{std::move(name)}};
    }
    case RRType::kPTR: {
      DNSBOOT_CHECK(need_fields(fields, 1, "PTR"));
      DNSBOOT_TRY(name, Name::from_text(fields[0]));
      return Rdata{PtrRdata{std::move(name)}};
    }
    case RRType::kMX: {
      DNSBOOT_CHECK(need_fields(fields, 2, "MX"));
      DNSBOOT_TRY(pref, parse_u16_field(fields[0]));
      DNSBOOT_TRY(name, Name::from_text(fields[1]));
      return Rdata{MxRdata{pref, std::move(name)}};
    }
    case RRType::kSOA: {
      DNSBOOT_CHECK(need_fields(fields, 7, "SOA"));
      DNSBOOT_TRY(mname, Name::from_text(fields[0]));
      DNSBOOT_TRY(rname, Name::from_text(fields[1]));
      DNSBOOT_TRY(serial, parse_u32_field(fields[2]));
      DNSBOOT_TRY(refresh, parse_u32_field(fields[3]));
      DNSBOOT_TRY(retry, parse_u32_field(fields[4]));
      DNSBOOT_TRY(expire, parse_u32_field(fields[5]));
      DNSBOOT_TRY(minimum, parse_u32_field(fields[6]));
      return Rdata{SoaRdata{std::move(mname), std::move(rname), serial,
                            refresh, retry, expire, minimum}};
    }
    case RRType::kTXT: {
      DNSBOOT_CHECK(need_fields(fields, 1, "TXT"));
      TxtRdata txt;
      for (const auto& f : fields) {
        std::string s = f;
        if (s.size() >= 2 && s.front() == '"' && s.back() == '"') {
          s = s.substr(1, s.size() - 2);
        }
        txt.strings.push_back(std::move(s));
      }
      return Rdata{std::move(txt)};
    }
    case RRType::kDNSKEY:
    case RRType::kCDNSKEY: {
      DNSBOOT_CHECK(need_fields(fields, 4, "DNSKEY"));
      DNSBOOT_TRY(flags, parse_u16_field(fields[0]));
      DNSBOOT_TRY(protocol, parse_u8_field(fields[1]));
      DNSBOOT_TRY(algorithm, parse_u8_field(fields[2]));
      DNSBOOT_TRY(key, parse_base64_fields(fields, 3));
      return Rdata{DnskeyRdata{flags, protocol, algorithm, std::move(key)}};
    }
    case RRType::kDS:
    case RRType::kCDS: {
      DNSBOOT_CHECK(need_fields(fields, 4, "DS"));
      DNSBOOT_TRY(key_tag, parse_u16_field(fields[0]));
      DNSBOOT_TRY(algorithm, parse_u8_field(fields[1]));
      DNSBOOT_TRY(digest_type, parse_u8_field(fields[2]));
      DNSBOOT_TRY(digest, parse_hex_fields(fields, 3));
      return Rdata{
          DsRdata{key_tag, algorithm, digest_type, std::move(digest)}};
    }
    case RRType::kRRSIG: {
      DNSBOOT_CHECK(need_fields(fields, 9, "RRSIG"));
      RrsigRdata r;
      r.type_covered = rrtype_from_string(fields[0]);
      if (r.type_covered == RRType{0}) {
        return Error{"rdata.bad_field", "unknown covered type " + fields[0]};
      }
      DNSBOOT_TRY(algorithm, parse_u8_field(fields[1]));
      DNSBOOT_TRY(labels, parse_u8_field(fields[2]));
      DNSBOOT_TRY(original_ttl, parse_u32_field(fields[3]));
      DNSBOOT_TRY(expiration, parse_u32_field(fields[4]));
      DNSBOOT_TRY(inception, parse_u32_field(fields[5]));
      DNSBOOT_TRY(key_tag, parse_u16_field(fields[6]));
      DNSBOOT_TRY(signer, Name::from_text(fields[7]));
      DNSBOOT_TRY(sig, parse_base64_fields(fields, 8));
      r.algorithm = algorithm;
      r.labels = labels;
      r.original_ttl = original_ttl;
      r.expiration = expiration;
      r.inception = inception;
      r.key_tag = key_tag;
      r.signer_name = std::move(signer);
      r.signature = std::move(sig);
      return Rdata{std::move(r)};
    }
    case RRType::kNSEC: {
      DNSBOOT_CHECK(need_fields(fields, 1, "NSEC"));
      DNSBOOT_TRY(next, Name::from_text(fields[0]));
      TypeBitmap types;
      for (std::size_t i = 1; i < fields.size(); ++i) {
        RRType t = rrtype_from_string(fields[i]);
        if (t == RRType{0}) {
          return Error{"rdata.bad_field", "unknown type " + fields[i]};
        }
        types.add(t);
      }
      return Rdata{NsecRdata{std::move(next), std::move(types)}};
    }
    case RRType::kNSEC3: {
      DNSBOOT_CHECK(need_fields(fields, 5, "NSEC3"));
      Nsec3Rdata r;
      DNSBOOT_TRY(hash_alg, parse_u8_field(fields[0]));
      DNSBOOT_TRY(flags, parse_u8_field(fields[1]));
      DNSBOOT_TRY(iterations, parse_u16_field(fields[2]));
      r.hash_algorithm = hash_alg;
      r.flags = flags;
      r.iterations = iterations;
      if (fields[3] != "-") {
        DNSBOOT_TRY(salt, hex_decode(fields[3]));
        r.salt = std::move(salt);
      }
      DNSBOOT_TRY(next_hashed, base32hex_decode(fields[4]));
      r.next_hashed_owner = std::move(next_hashed);
      for (std::size_t i = 5; i < fields.size(); ++i) {
        RRType t = rrtype_from_string(fields[i]);
        if (t == RRType{0}) {
          return Error{"rdata.bad_field", "unknown type " + fields[i]};
        }
        r.types.add(t);
      }
      return Rdata{std::move(r)};
    }
    case RRType::kNSEC3PARAM: {
      DNSBOOT_CHECK(need_fields(fields, 4, "NSEC3PARAM"));
      Nsec3ParamRdata r;
      DNSBOOT_TRY(hash_alg, parse_u8_field(fields[0]));
      DNSBOOT_TRY(flags, parse_u8_field(fields[1]));
      DNSBOOT_TRY(iterations, parse_u16_field(fields[2]));
      r.hash_algorithm = hash_alg;
      r.flags = flags;
      r.iterations = iterations;
      if (fields[3] != "-") {
        DNSBOOT_TRY(salt, hex_decode(fields[3]));
        r.salt = std::move(salt);
      }
      return Rdata{std::move(r)};
    }
    case RRType::kCSYNC: {
      DNSBOOT_CHECK(need_fields(fields, 2, "CSYNC"));
      DNSBOOT_TRY(serial, parse_u32_field(fields[0]));
      DNSBOOT_TRY(flags, parse_u16_field(fields[1]));
      TypeBitmap types;
      for (std::size_t i = 2; i < fields.size(); ++i) {
        RRType t = rrtype_from_string(fields[i]);
        if (t == RRType{0}) {
          return Error{"rdata.bad_field", "unknown type " + fields[i]};
        }
        types.add(t);
      }
      return Rdata{CsyncRdata{serial, flags, std::move(types)}};
    }
    default:
      return Error{"rdata.unsupported_text",
                   "no presentation parser for " + dns::to_string(type)};
  }
}

}  // namespace dnsboot::dns
