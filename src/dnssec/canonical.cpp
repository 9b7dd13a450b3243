#include "dnssec/canonical.hpp"

#include <algorithm>

namespace dnsboot::dnssec {

Bytes signature_input(const dns::RRset& rrset, const dns::RrsigRdata& rrsig) {
  // The RRs sort by canonical RDATA (RFC 4034 §6.3).
  std::vector<Bytes> rdatas;
  rdatas.reserve(rrset.rdatas.size());
  for (const auto& rd : rrset.rdatas) {
    rdatas.push_back(dns::canonical_rdata_bytes(rd));
  }
  std::sort(rdatas.begin(), rdatas.end(), dns::canonical_rdata_less);

  // Sized up front, so the input is built in one buffer.
  const std::size_t owner_length = rrset.name.wire_length();
  std::size_t size = 18 + rrsig.signer_name.wire_length();
  for (const auto& rdata : rdatas) size += owner_length + 10 + rdata.size();
  ByteWriter w;
  w.reserve(size);
  // RRSIG RDATA sans signature (RFC 4034 §3.1.8.1 item 2).
  w.u16(static_cast<std::uint16_t>(rrsig.type_covered));
  w.u8(rrsig.algorithm);
  w.u8(rrsig.labels);
  w.u32(rrsig.original_ttl);
  w.u32(rrsig.expiration);
  w.u32(rrsig.inception);
  w.u16(rrsig.key_tag);
  rrsig.signer_name.encode_canonical(w);

  // Each RR: owner | type | class | original TTL | RDLENGTH | canonical RDATA.
  for (const auto& rdata : rdatas) {
    rrset.name.encode_canonical(w);
    w.u16(static_cast<std::uint16_t>(rrset.type));
    w.u16(static_cast<std::uint16_t>(rrset.klass));
    w.u32(rrsig.original_ttl);
    w.u16(static_cast<std::uint16_t>(rdata.size()));
    w.raw(rdata);
  }
  return w.take();
}

Bytes ds_digest_input(const dns::Name& owner, const dns::DnskeyRdata& dnskey) {
  ByteWriter w;
  w.reserve(owner.wire_length() + 4 + dnskey.public_key.size());
  owner.encode_canonical(w);
  dns::encode_rdata(dns::Rdata{dnskey}, w, /*canonical=*/true);
  return w.take();
}

}  // namespace dnsboot::dnssec
