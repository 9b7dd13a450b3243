// Zone — an authoritative data store for one zone apex, with the lookup
// semantics an authoritative server needs (answers, NODATA, NXDOMAIN,
// delegations, CNAMEs, empty non-terminals, occlusion below zone cuts).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "dns/record.hpp"

namespace dnsboot::dns {

class Zone {
 public:
  explicit Zone(Name origin) : origin_(std::move(origin)) {}

  // A copy starts at its source's version; assignment moves the target past
  // both versions, and a moved-from zone counts as changed.
  Zone(const Zone& other) = default;
  Zone(Zone&& other) noexcept;
  Zone& operator=(const Zone& other);
  Zone& operator=(Zone&& other) noexcept;

  const Name& origin() const { return origin_; }

  // Content stamp: every mutator below (and every assignment) changes it,
  // and one object's stamp never repeats, so a server's cached answer can
  // tell whether the zone it was built from has changed since.
  std::uint64_t version() const { return version_; }

  // Insert a record, merging into the owner/type RRset. Records outside the
  // zone are rejected; duplicates are suppressed.
  Status add(const ResourceRecord& record);
  Status add_rrset(const RRset& rrset);

  // Remove all records of `type` at `name` (and their covering RRSIGs if
  // `type` is not RRSIG itself).
  void remove_rrset(const Name& name, RRType type);
  // Remove every DNSSEC-generated record (RRSIG/NSEC/NSEC3/NSEC3PARAM);
  // used when re-signing.
  void strip_dnssec();
  // Remove only the RRSIGs covering (name, type); the data stays. Used by
  // failure injection to replace a signature with a corrupted one.
  void remove_signatures(const Name& name, RRType covered_type);

  const RRset* find_rrset(const Name& name, RRType type) const;
  // All RRsets at a node, empty if the node does not exist.
  std::vector<const RRset*> rrsets_at(const Name& name) const;
  bool has_name(const Name& name) const;

  // RRSIG RRset covering `type` at `name` (RRSIGs are stored per covered
  // type alongside the data they cover).
  std::vector<ResourceRecord> signatures_covering(const Name& name,
                                                  RRType type) const;

  const RRset* soa() const { return find_rrset(origin_, RRType::kSOA); }
  const RRset* apex_ns() const { return find_rrset(origin_, RRType::kNS); }

  // Names with data, in canonical (RFC 4034 §6.1) order.
  std::vector<Name> names() const;
  // Every RRset in the zone, canonical owner order.
  std::vector<RRset> all_rrsets() const;
  // The first RRset of `type`, in canonical owner order, that satisfies
  // `pred` — an in-place walk that copies nothing.
  template <typename Pred>
  const RRset* first_rrset_of(RRType type, Pred&& pred) const {
    for (const auto& [key, set] : sets_) {
      if (key.type == type && pred(set)) return &set;
    }
    return nullptr;
  }
  std::size_t record_count() const;

  // True if `name` is the owner of an NS RRset below the apex (a zone cut).
  bool is_delegation_point(const Name& name) const;

  struct LookupResult {
    enum class Kind {
      kAnswer,      // rrset is the answer
      kNoData,      // name exists, no data of qtype
      kNxDomain,    // name does not exist
      kDelegation,  // referral; rrset is the delegation NS set
      kCname,       // rrset is the CNAME at qname
      kNotInZone,   // qname not under this zone's origin
    };
    Kind kind = Kind::kNotInZone;
    const RRset* rrset = nullptr;
    // For delegations: the cut owner (child zone apex).
    Name cut_owner;
  };

  // Authoritative lookup. DS queries at a delegation point are answered from
  // this (parent) zone rather than referred (RFC 4035 §3.1.4.1).
  LookupResult lookup(const Name& qname, RRType qtype) const;

 private:
  struct NameTypeKey {
    Name name;
    RRType type;
  };
  // Heterogeneous probe type: lookups compare against the caller's Name by
  // reference instead of copying it into a temporary key (the copy showed up
  // in survey profiles — every authoritative answer does several probes).
  struct NameTypeRef {
    const Name& name;
    RRType type;
  };
  struct NameTypeLess {
    using is_transparent = void;
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const {
      if (auto c = a.name <=> b.name; c != 0) return c < 0;
      return a.type < b.type;
    }
  };

  Name origin_;
  std::uint64_t version_ = 0;
  std::map<NameTypeKey, RRset, NameTypeLess> sets_;
  // RRSIGs bucketed by (owner, covered type).
  std::map<NameTypeKey, std::vector<ResourceRecord>, NameTypeLess> signatures_;
};

}  // namespace dnsboot::dns
