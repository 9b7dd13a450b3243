// The synthetic Internet's data model: EcosystemConfig describes a world (a
// signed root, signed TLDs, operator infrastructure with RFC 9615 signaling
// records, and the scaled zone population with every pathology class the
// paper describes), and Ecosystem is one built world, or one shard of it,
// wired onto a SimNetwork. ecosystem/plan.hpp builds it; ecosystem/world.hpp
// is the entry point the tools use.
//
// An Ecosystem records ground truth per zone so integration tests can
// assert that the scan+analysis pipeline recovers exactly what was
// injected.
#pragma once

#include <map>
#include <memory>

#include "dnssec/signer.hpp"
#include "ecosystem/profiles.hpp"
#include "kasp/materialize.hpp"
#include "net/simnet.hpp"
#include "resolver/resolver.hpp"
#include "server/auth_server.hpp"

namespace dnsboot::ecosystem {

struct EcosystemConfig {
  std::uint64_t seed = 1;
  // Population scale: 1/1000 means GoDaddy's 56.4 M becomes 56.4 k.
  double scale = 1.0 / 2000;
  bool inject_pathologies = true;
  std::uint32_t now = 1'750'000'000;  // DNSSEC validation time (simulated)
  // Enough distinct identities that no single long-tail operator outranks
  // the paper's smallest Table 2 row (~8 k CDS zones at full scale).
  int long_tail_operators = 400;
  // Override the operator set entirely (tests use tiny custom worlds).
  std::vector<OperatorProfile> operators;
  GlobalTargets targets;
  PathologySpec pathologies;
};

enum class ZoneState { kUnsigned, kSecured, kInvalid, kIsland };

struct ZoneTruth {
  std::string operator_name;
  std::string secondary_operator;  // multi-operator setups
  ZoneState state = ZoneState::kUnsigned;

  bool cds = false;
  bool cds_delete = false;
  bool cds_no_match = false;       // CDS matches no DNSKEY
  bool cds_bad_rrsig = false;      // RRSIG over CDS corrupted
  bool cds_inconsistent = false;   // NSes serve differing CDS
  bool multi_operator = false;
  bool legacy_servers = false;     // NSes FORMERR on CDS queries

  // Key-lifecycle snapshot this zone is frozen in (kNone for the vast
  // majority). Scenarios that publish CDS force `cds` true below.
  kasp::RolloverScenario rollover = kasp::RolloverScenario::kNone;

  bool csync = false;                   // publishes a migrating CSYNC record
  bool signal = false;                  // signal RRs published
  bool signal_missing_one_ns = false;   // only one NS's signaling tree filled
  bool signal_stale_one_ns = false;     // one signaling tree carries stale CDS
  bool signal_zone_cut = false;         // signaling name crosses a fake cut
};

// A registry's live handle on its TLD: the mutable zone, its keys, and the
// server publishing it. The registry module uses this to install/remove DS
// records and re-sign (the write side of CDS/CDNSKEY processing).
struct TldHandle {
  std::shared_ptr<dns::Zone> zone;
  dnssec::ZoneKeys keys;
  std::shared_ptr<server::AuthServer> server;
  dnssec::SigningPolicy policy;
};

struct Ecosystem {
  resolver::RootHints hints;
  std::vector<dns::Name> scan_targets;
  std::map<std::string, ZoneTruth> truth;  // canonical zone text -> truth
  // Registry-side handles, keyed by canonical TLD text ("ch.").
  std::map<std::string, TldHandle> registries;
  // Operator-identification data for the analysis: NS-domain suffix ->
  // operator name (including white-label aliases, §3).
  std::map<std::string, std::string> ns_domain_to_operator;
  std::uint32_t now = 0;

  // Keep servers (and through them zones) alive; the network holds only
  // handlers.
  std::vector<std::shared_ptr<server::AuthServer>> servers;

  // Generation statistics.
  std::uint64_t zones_total = 0;
  std::uint64_t zones_signed = 0;
  std::uint64_t signatures_created = 0;
};

}  // namespace dnsboot::ecosystem
