#include "dnssec/nsec3.hpp"

#include <algorithm>
#include <map>

#include "base/encoding.hpp"
#include "crypto/sha1.hpp"
#include "dnssec/signer.hpp"

namespace dnsboot::dnssec {
namespace {

// Extract the Nsec3Params an NSEC3 record was generated with.
Nsec3Params params_of(const dns::Nsec3Rdata& rdata) {
  return Nsec3Params{rdata.iterations, rdata.salt};
}

// Hash of the first label of an NSEC3 owner name (base32hex-decoded).
Result<Bytes> owner_hash_of(const dns::Name& owner, const dns::Name& apex) {
  if (!owner.is_strictly_under(apex) || owner.labels().empty()) {
    return Error{"nsec3.bad_owner", owner.to_text()};
  }
  return base32hex_decode(owner.labels()[0]);
}

// Does the NSEC3 record (owner, rdata) cover `name`'s hash?
bool covers(const dns::Name& owner, const dns::Rdata& rdata_variant,
            const dns::Name& apex, const dns::Name& name) {
  const auto* rdata = std::get_if<dns::Nsec3Rdata>(&rdata_variant);
  if (rdata == nullptr) return false;
  auto owner_hash_result = owner_hash_of(owner, apex);
  if (!owner_hash_result.ok()) return false;
  const Bytes& owner_hash = owner_hash_result.value();
  const Bytes& next_hash = rdata->next_hashed_owner;
  Bytes target = nsec3_hash(name, params_of(*rdata));
  if (owner_hash < next_hash) {
    return owner_hash < target && target < next_hash;
  }
  // Wrap-around at the end of the hash ring.
  return target > owner_hash || target < next_hash;
}

}  // namespace

Bytes nsec3_hash(const dns::Name& owner, const Nsec3Params& params) {
  ByteWriter w;
  owner.encode_canonical(w);
  Bytes input = w.take();
  input.insert(input.end(), params.salt.begin(), params.salt.end());
  auto digest = crypto::Sha1::digest(input);
  Bytes hash(digest.begin(), digest.end());
  for (std::uint16_t i = 0; i < params.iterations; ++i) {
    Bytes round = hash;
    round.insert(round.end(), params.salt.begin(), params.salt.end());
    auto d = crypto::Sha1::digest(round);
    hash.assign(d.begin(), d.end());
  }
  return hash;
}

dns::Name nsec3_owner(const dns::Name& name, const dns::Name& apex,
                      const Nsec3Params& params) {
  std::string label = base32hex_encode(nsec3_hash(name, params));
  auto owner = apex.prepend(label);
  // base32hex of a SHA-1 hash is 32 chars; cannot exceed label limits under
  // any apex that itself fits in a name.
  return std::move(owner).take();
}

Status build_nsec3_chain(dns::Zone& zone, const Nsec3Params& params,
                         std::uint32_t ttl) {
  // NSEC3PARAM at the apex (RFC 5155 §4).
  dns::ResourceRecord param_rr;
  param_rr.name = zone.origin();
  param_rr.type = dns::RRType::kNSEC3PARAM;
  param_rr.ttl = ttl;
  param_rr.rdata = dns::Nsec3ParamRdata{1, 0, params.iterations, params.salt};
  DNSBOOT_CHECK(zone.add(param_rr));

  // Hash every authoritative name; sort by hash to link the chain.
  struct Entry {
    Bytes hash;
    dns::Name owner;
    dns::TypeBitmap types;
  };
  std::vector<Entry> entries;
  for (const auto& name : zone.names()) {
    if (!is_authoritative_name(zone, name)) continue;
    if (name.labels().size() > zone.origin().labels().size() &&
        zone.find_rrset(name, dns::RRType::kNSEC3) != nullptr) {
      continue;  // never hash NSEC3 owners themselves
    }
    Entry entry;
    entry.hash = nsec3_hash(name, params);
    entry.owner = name;
    for (const auto* set : zone.rrsets_at(name)) {
      if (set->type == dns::RRType::kNSEC3) continue;
      entry.types.add(set->type);
    }
    if (!zone.is_delegation_point(name)) {
      entry.types.add(dns::RRType::kRRSIG);
    }
    entries.push_back(std::move(entry));
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.hash < b.hash; });

  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& entry = entries[i];
    const Entry& next = entries[(i + 1) % entries.size()];
    dns::ResourceRecord rr;
    rr.name = zone.origin()
                  .prepend(base32hex_encode(entry.hash))
                  .take();
    rr.type = dns::RRType::kNSEC3;
    rr.ttl = ttl;
    dns::Nsec3Rdata rdata;
    rdata.hash_algorithm = 1;
    rdata.flags = 0;
    rdata.iterations = params.iterations;
    rdata.salt = params.salt;
    rdata.next_hashed_owner = next.hash;
    rdata.types = entry.types;
    rr.rdata = std::move(rdata);
    DNSBOOT_CHECK(zone.add(rr));
  }
  return Status::ok_status();
}

bool nsec3_matches(const dns::ResourceRecord& nsec3, const dns::Name& apex,
                   const dns::Name& name) {
  const auto* rdata = std::get_if<dns::Nsec3Rdata>(&nsec3.rdata);
  if (rdata == nullptr) return false;
  auto owner_hash = owner_hash_of(nsec3.name, apex);
  if (!owner_hash.ok()) return false;
  return owner_hash.value() == nsec3_hash(name, params_of(*rdata));
}

bool nsec3_covers(const dns::ResourceRecord& nsec3, const dns::Name& apex,
                  const dns::Name& name) {
  return covers(nsec3.name, nsec3.rdata, apex, name);
}

bool nsec3_covers(const dns::RRset& nsec3, const dns::Name& apex,
                  const dns::Name& name) {
  return !nsec3.rdatas.empty() &&
         covers(nsec3.name, nsec3.rdatas[0], apex, name);
}

bool nsec3_proves_nodata(const std::vector<dns::ResourceRecord>& nsec3s,
                         const dns::Name& apex, const dns::Name& name,
                         dns::RRType type) {
  for (const auto& rr : nsec3s) {
    if (rr.type != dns::RRType::kNSEC3) continue;
    if (!nsec3_matches(rr, apex, name)) continue;
    const auto& rdata = std::get<dns::Nsec3Rdata>(rr.rdata);
    if (!rdata.types.contains(type) &&
        !rdata.types.contains(dns::RRType::kCNAME)) {
      return true;
    }
  }
  return false;
}

bool nsec3_proves_nxdomain(const std::vector<dns::ResourceRecord>& nsec3s,
                           const dns::Name& apex, const dns::Name& name) {
  // Find the closest encloser with a *matching* NSEC3, then require a
  // covering NSEC3 for the next-closer name (RFC 5155 §8.4).
  dns::Name closest = name.parent();
  dns::Name next_closer = name;
  while (closest.label_count() >= apex.label_count()) {
    bool matched = false;
    for (const auto& rr : nsec3s) {
      if (rr.type == dns::RRType::kNSEC3 && nsec3_matches(rr, apex, closest)) {
        matched = true;
        break;
      }
    }
    if (matched) {
      for (const auto& rr : nsec3s) {
        if (rr.type == dns::RRType::kNSEC3 &&
            nsec3_covers(rr, apex, next_closer)) {
          return true;
        }
      }
      return false;
    }
    if (closest.is_root()) break;
    next_closer = closest;
    closest = closest.parent();
  }
  return false;
}

}  // namespace dnsboot::dnssec
