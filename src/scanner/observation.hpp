// Scan observation model — everything the scanner records about a zone, kept
// deliberately raw (the paper stored whole DNS messages; we store decoded
// RRsets with their signatures) so that all interpretation happens offline in
// the analysis library.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "dnssec/validator.hpp"
#include "resolver/resolver.hpp"

namespace dnsboot::scanner {

// Why a probe failed — structured provenance, so the analysis can separate
// "operator misconfigured" (permanent rcodes like FORMERR) from "scan could
// not observe" (transient faults a later pass may recover from).
enum class ProbeFailure {
  kNone,            // usable answer (includes NOERROR-empty and NXDOMAIN)
  kTimeout,         // every attempt timed out
  kFormErr,
  kServFail,
  kRefused,
  kNotImp,
  kTruncationLoop,  // TCP fallback answer was still truncated
  kCircuitOpen,     // engine failed fast: server circuit breaker open
  kServfailCached,  // answered from the RFC 9520 negative cache
  kOverload,        // engine out of query ids
  kOther,
};

// Failures a later scan pass may plausibly recover from. SERVFAIL/REFUSED
// count as transient because the fault model produces them from flapping and
// rate-limited servers; persistent ones simply fail again on the retry.
bool is_transient(ProbeFailure failure);

// Same question for a zone/signal resolution-failure string: true for
// scan-side failures (engine errors, unreachable delegations), false for
// permanent findings (NXDOMAIN, undelegated, over-long signaling names).
bool is_transient_failure(const std::string& failure);

// Result of one (endpoint, qname, qtype) probe.
struct RRsetProbe {
  dns::Name ns;               // NS hostname the endpoint belongs to
  net::IpAddress endpoint;    // address queried
  dns::Name qname;
  dns::RRType qtype = dns::RRType::kA;

  enum class Outcome {
    kAnswer,    // NOERROR with records of qtype at qname
    kNoData,    // NOERROR, empty answer
    kNxDomain,
    kError,     // FORMERR/SERVFAIL/REFUSED/NOTIMP (see rcode)
    kTimeout,
  };
  Outcome outcome = Outcome::kTimeout;
  dns::Rcode rcode = dns::Rcode::kNoError;
  ProbeFailure failure = ProbeFailure::kNone;
  // The engine's anti-spoofing defenses flagged this endpoint as under
  // active attack when the probe completed (forgery abort or repeated
  // wrong-port rejections). The answer itself was still authenticated by
  // the usual ID/port/tuple checks — this is provenance, not a verdict.
  bool under_attack = false;
  dnssec::SignedRRset rrset;  // filled for kAnswer
};

std::string to_string(RRsetProbe::Outcome outcome);

// Observation of one RFC 9615 signaling name for one (zone, NS) pair:
// _dsboot.<child>._signal.<ns>.
struct SignalObservation {
  dns::Name ns;           // the child-zone NS this signal belongs to
  dns::Name signal_name;  // full signaling name
  dns::Name signaling_zone;  // apex of the zone serving the signaling name

  bool resolved = false;  // signaling zone delegation found + NS resolved
  std::string failure;

  // The signaling zone's chain material.
  dnssec::SignedRRset parent_ds;      // DS for signaling zone at its parent
  dns::Name parent;                   // parent of the signaling zone (a TLD)
  std::vector<RRsetProbe> dnskey_probes;  // apex DNSKEY (one endpoint)

  // CDS/CDNSKEY at the signaling name, one probe per signaling-zone endpoint.
  std::vector<RRsetProbe> cds_probes;
  std::vector<RRsetProbe> cdnskey_probes;

  // Zone-cut detection (RFC 9615 §4.1: the signaling name must not cross an
  // additional cut). Names between the apex and the signaling name that
  // answered an NS query authoritatively.
  std::vector<dns::Name> apparent_cuts;
  bool cut_check_performed = false;
};

// Everything observed about one scanned zone.
struct ZoneObservation {
  dns::Name zone;
  dns::Name tld;

  bool resolved = false;
  std::string failure;  // when !resolved

  // Scan-side quality of this observation. Degraded zones are emitted and
  // analyzed anyway; the failure provenance on each probe says what is
  // missing and why.
  enum class Completeness {
    kComplete,  // every probe produced a usable answer
    kDegraded,  // resolved, but some probes failed
    kFailed,    // delegation could not be resolved at all
  };
  Completeness completeness = Completeness::kFailed;
  int scan_attempt = 1;                // which pass produced this (1-based)
  std::size_t failed_probes = 0;       // probes with failure != kNone
  std::size_t transient_failures = 0;  // subset a requeue may recover
  std::size_t probes_under_attack = 0; // probes flagged under_attack

  // Parent-side view (TLD referral).
  std::vector<dns::Name> parent_ns;
  dnssec::SignedRRset parent_ds;

  // Endpoints actually queried (after pool sampling), plus the full set size
  // before sampling — input for the pool-sampling ablation (App. D).
  std::vector<resolver::NsEndpoint> endpoints;
  std::size_t endpoints_before_sampling = 0;
  bool pool_sampled = false;

  // Per-endpoint probes for SOA / NS / DNSKEY / CDS / CDNSKEY.
  std::vector<RRsetProbe> probes;

  // Signal-zone observations, one per distinct NS name.
  std::vector<SignalObservation> signals;

  // Convenience accessors used by the analysis.
  std::vector<const RRsetProbe*> probes_of(dns::RRType qtype) const;
};

// Snapshot of the shared infrastructure the chains hang from; captured once
// per scan so validation is reproducible offline.
struct InfrastructureSnapshot {
  dnssec::SignedRRset root_dnskey;
  struct TldInfo {
    dnssec::SignedRRset ds;      // (tld, DS) served by the root
    dnssec::SignedRRset dnskey;  // (tld, DNSKEY) served by the TLD
  };
  std::map<std::string, TldInfo> tlds;  // key: canonical TLD text
};

}  // namespace dnsboot::scanner
