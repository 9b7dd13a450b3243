// ResourceRecord and RRset — the units the scanner, signer and validator
// operate on.
#pragma once

#include <string>
#include <vector>

#include "dns/name.hpp"
#include "dns/rdata.hpp"
#include "dns/rr.hpp"

namespace dnsboot::dns {

struct ResourceRecord {
  Name name;
  RRType type = RRType::kA;
  RRClass klass = RRClass::kIN;
  std::uint32_t ttl = 0;
  Rdata rdata;

  // Equality ignores TTL (RRset semantics, RFC 2181 §5.2): two records with
  // the same owner/type/class/rdata are the same record.
  bool same_data(const ResourceRecord& other) const;

  // "<owner> <ttl> IN <TYPE> <rdata>" presentation line.
  std::string to_text() const;
};

// An RRset: all records sharing owner name, type, and class. Invariant: all
// members agree on (name, type, klass); TTLs are normalized to the minimum
// when signing.
struct RRset {
  Name name;
  RRType type = RRType::kA;
  RRClass klass = RRClass::kIN;
  std::uint32_t ttl = 0;
  std::vector<Rdata> rdatas;

  bool empty() const { return rdatas.empty(); }
  std::size_t size() const { return rdatas.size(); }

  std::vector<ResourceRecord> to_records() const;

  // True if both sets contain the same rdatas regardless of order — the
  // consistency test the paper applies across nameservers (§4.2).
  bool same_rdatas(const RRset& other) const;
};

// Canonical wire form of one rdata, used for sorting inside signatures.
Bytes canonical_rdata_bytes(const Rdata& rdata);
// RFC 4034 §6.3 order over canonical RDATA: left-justified unsigned octet
// sequences, where the absence of an octet sorts before a zero octet.
bool canonical_rdata_less(const Bytes& a, const Bytes& b);

}  // namespace dnsboot::dns
