#include "dns/record.hpp"

#include <algorithm>
#include <cstring>

namespace dnsboot::dns {

bool ResourceRecord::same_data(const ResourceRecord& other) const {
  return name == other.name && type == other.type && klass == other.klass &&
         rdata == other.rdata;
}

std::string ResourceRecord::to_text() const {
  return name.to_text() + " " + std::to_string(ttl) + " " +
         dns::to_string(klass) + " " + dns::to_string(type) + " " +
         rdata_to_text(rdata);
}

std::vector<ResourceRecord> RRset::to_records() const {
  std::vector<ResourceRecord> out;
  out.reserve(rdatas.size());
  for (const auto& rd : rdatas) {
    out.push_back(ResourceRecord{name, type, klass, ttl, rd});
  }
  return out;
}

bool RRset::same_rdatas(const RRset& other) const {
  if (rdatas.size() != other.rdatas.size()) return false;
  // Compare as canonical byte multisets: order must not matter.
  std::vector<Bytes> a;
  std::vector<Bytes> b;
  a.reserve(rdatas.size());
  b.reserve(other.rdatas.size());
  for (const auto& rd : rdatas) a.push_back(canonical_rdata_bytes(rd));
  for (const auto& rd : other.rdatas) b.push_back(canonical_rdata_bytes(rd));
  std::sort(a.begin(), a.end(), canonical_rdata_less);
  std::sort(b.begin(), b.end(), canonical_rdata_less);
  return a == b;
}

bool canonical_rdata_less(const Bytes& a, const Bytes& b) {
  const std::size_t common = std::min(a.size(), b.size());
  // Empty RDATA may have no buffer, and memcmp wants one even for 0 bytes.
  if (common > 0) {
    const int order = std::memcmp(a.data(), b.data(), common);
    if (order != 0) return order < 0;
  }
  return a.size() < b.size();
}

Bytes canonical_rdata_bytes(const Rdata& rdata) {
  ByteWriter w;
  w.reserve(64);  // most RDATA fits; longer grows from here, not from 1 byte
  encode_rdata(rdata, w, /*canonical=*/true);
  return w.take();
}

}  // namespace dnsboot::dns
