#include "dns/zone.hpp"

#include <algorithm>
#include <set>

namespace dnsboot::dns {

Zone::Zone(Zone&& other) noexcept
    : origin_(other.origin_),
      version_(other.version_),
      sets_(std::move(other.sets_)),
      signatures_(std::move(other.signatures_)) {
  ++other.version_;
}

Zone& Zone::operator=(const Zone& other) {
  if (this == &other) return *this;
  origin_ = other.origin_;
  version_ = std::max(version_, other.version_) + 1;
  sets_ = other.sets_;
  signatures_ = other.signatures_;
  return *this;
}

Zone& Zone::operator=(Zone&& other) noexcept {
  if (this == &other) return *this;
  origin_ = other.origin_;
  version_ = std::max(version_, other.version_) + 1;
  sets_ = std::move(other.sets_);
  signatures_ = std::move(other.signatures_);
  ++other.version_;
  return *this;
}

Status Zone::add(const ResourceRecord& record) {
  ++version_;
  if (!record.name.is_under(origin_)) {
    return Error{"zone.out_of_zone", record.name.to_text() + " not under " +
                                         origin_.to_text()};
  }
  if (record.type == RRType::kRRSIG) {
    const auto& rrsig = std::get<RrsigRdata>(record.rdata);
    auto& bucket = signatures_[NameTypeKey{record.name, rrsig.type_covered}];
    for (const auto& existing : bucket) {
      if (existing.same_data(record)) return Status::ok_status();
    }
    bucket.push_back(record);
    return Status::ok_status();
  }
  auto key = NameTypeKey{record.name, record.type};
  auto it = sets_.find(key);
  if (it == sets_.end()) {
    RRset set;
    set.name = record.name;
    set.type = record.type;
    set.klass = record.klass;
    set.ttl = record.ttl;
    set.rdatas.push_back(record.rdata);
    sets_.emplace(std::move(key), std::move(set));
    return Status::ok_status();
  }
  RRset& set = it->second;
  set.ttl = std::min(set.ttl, record.ttl);
  Bytes incoming = canonical_rdata_bytes(record.rdata);
  for (const auto& existing : set.rdatas) {
    if (canonical_rdata_bytes(existing) == incoming) return Status::ok_status();
  }
  set.rdatas.push_back(record.rdata);
  return Status::ok_status();
}

Status Zone::add_rrset(const RRset& rrset) {
  ++version_;
  for (const auto& rr : rrset.to_records()) DNSBOOT_CHECK(add(rr));
  return Status::ok_status();
}

void Zone::remove_rrset(const Name& name, RRType type) {
  ++version_;
  if (auto it = sets_.find(NameTypeRef{name, type}); it != sets_.end()) {
    sets_.erase(it);
  }
  if (type == RRType::kRRSIG) return;
  if (auto it = signatures_.find(NameTypeRef{name, type});
      it != signatures_.end()) {
    signatures_.erase(it);
  }
}

void Zone::strip_dnssec() {
  ++version_;
  signatures_.clear();
  for (auto it = sets_.begin(); it != sets_.end();) {
    RRType t = it->first.type;
    if (t == RRType::kNSEC || t == RRType::kNSEC3 ||
        t == RRType::kNSEC3PARAM) {
      it = sets_.erase(it);
    } else {
      ++it;
    }
  }
}

void Zone::remove_signatures(const Name& name, RRType covered_type) {
  ++version_;
  if (auto it = signatures_.find(NameTypeRef{name, covered_type});
      it != signatures_.end()) {
    signatures_.erase(it);
  }
}

const RRset* Zone::find_rrset(const Name& name, RRType type) const {
  auto it = sets_.find(NameTypeRef{name, type});
  return it == sets_.end() ? nullptr : &it->second;
}

std::vector<const RRset*> Zone::rrsets_at(const Name& name) const {
  std::vector<const RRset*> out;
  auto it = sets_.lower_bound(NameTypeRef{name, RRType{0}});
  while (it != sets_.end() && it->first.name == name) {
    out.push_back(&it->second);
    ++it;
  }
  return out;
}

bool Zone::has_name(const Name& name) const {
  // A name exists if it owns data or is an empty non-terminal (some name at
  // or below it owns data).
  auto it = sets_.lower_bound(NameTypeRef{name, RRType{0}});
  if (it != sets_.end() &&
      (it->first.name == name || it->first.name.is_under(name))) {
    return true;
  }
  // Signature-only nodes count too.
  auto sit = signatures_.lower_bound(NameTypeRef{name, RRType{0}});
  return sit != signatures_.end() &&
         (sit->first.name == name || sit->first.name.is_under(name));
}

std::vector<ResourceRecord> Zone::signatures_covering(const Name& name,
                                                      RRType type) const {
  auto it = signatures_.find(NameTypeRef{name, type});
  return it == signatures_.end() ? std::vector<ResourceRecord>{} : it->second;
}

std::vector<Name> Zone::names() const {
  std::set<Name> seen;
  std::vector<Name> out;
  for (const auto& [key, set] : sets_) {
    if (seen.insert(key.name).second) out.push_back(key.name);
  }
  // sets_ iterates in canonical order already (NameTypeKey sorts by name
  // first), so `out` is canonical-ordered.
  return out;
}

std::vector<RRset> Zone::all_rrsets() const {
  std::vector<RRset> out;
  out.reserve(sets_.size());
  for (const auto& [key, set] : sets_) out.push_back(set);
  return out;
}

std::size_t Zone::record_count() const {
  std::size_t n = 0;
  for (const auto& [key, set] : sets_) n += set.rdatas.size();
  for (const auto& [key, sigs] : signatures_) n += sigs.size();
  return n;
}

bool Zone::is_delegation_point(const Name& name) const {
  return name != origin_ && find_rrset(name, RRType::kNS) != nullptr;
}

Zone::LookupResult Zone::lookup(const Name& qname, RRType qtype) const {
  LookupResult result;
  if (!qname.is_under(origin_)) {
    result.kind = LookupResult::Kind::kNotInZone;
    return result;
  }

  // Walk down from the apex looking for a zone cut above (or at) qname.
  // A cut at qname itself is still a referral — except for DS, which is
  // authoritative parent-side data (RFC 4035 §3.1.4.1).
  std::size_t extra = qname.label_count() - origin_.label_count();
  Name walk = qname;
  std::vector<Name> chain;  // qname, its parent, ... down to just below apex
  for (std::size_t i = 0; i < extra; ++i) {
    chain.push_back(walk);
    walk = walk.parent();
  }
  // Check cuts from the top of the tree downwards.
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    const bool at_qname = (*it == qname);
    if (const RRset* ns = find_rrset(*it, RRType::kNS)) {
      if (at_qname && qtype == RRType::kDS) break;  // parent answers DS
      if (at_qname && qtype == RRType::kNS && !is_delegation_point(*it)) break;
      result.kind = LookupResult::Kind::kDelegation;
      result.rrset = ns;
      result.cut_owner = *it;
      return result;
    }
  }

  if (!has_name(qname)) {
    result.kind = LookupResult::Kind::kNxDomain;
    return result;
  }

  if (qtype != RRType::kCNAME) {
    if (const RRset* cname = find_rrset(qname, RRType::kCNAME)) {
      result.kind = LookupResult::Kind::kCname;
      result.rrset = cname;
      return result;
    }
  }

  if (const RRset* set = find_rrset(qname, qtype)) {
    result.kind = LookupResult::Kind::kAnswer;
    result.rrset = set;
    return result;
  }

  result.kind = LookupResult::Kind::kNoData;
  return result;
}

}  // namespace dnsboot::dns
