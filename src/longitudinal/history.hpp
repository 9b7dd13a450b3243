// HistoryStore — the per-zone longitudinal state: current phase, EWMA
// reliability/volatility ladder, and the delta-compressed record of what
// changed when.
//
// Full observations are never retained. Each probe is reduced to a
// ProbeFinding (phase.hpp); the store keeps only the current per-zone state
// plus, when something actually changed (phase transition or RRset digest
// change), emits a compact Transition record for the journal. Digest and
// operator strings are interned into an arena (base/arena.hpp, the PR 8
// NamePool idiom) — a digest that never changes costs its bytes once, no
// matter how many probes re-observe it.
//
// Iteration order is the zone Name's canonical (RFC 4034) order via
// std::map, so serialization is deterministic; hashed containers here are
// lookup-only and never iterated.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "base/arena.hpp"
#include "base/result.hpp"
#include "longitudinal/ewma.hpp"
#include "longitudinal/phase.hpp"
#include "net/transport.hpp"

namespace dnsboot::longitudinal {

// A change worth journaling: a phase transition and/or an RRset digest
// change (from == to for digest-only changes, e.g. a clean DS rollover).
struct Transition {
  std::uint64_t seq = 0;  // journal sequence number, 1-based, dense
  net::SimTime at = 0;
  dns::Name zone;
  ZonePhase from = ZonePhase::kUnknown;
  ZonePhase to = ZonePhase::kUnknown;
  bool cds_changed = false;
  bool ds_changed = false;
  bool dnskey_changed = false;
  std::string cds_digest;  // post-transition values ("" = no such RRset)
  std::string ds_digest;
  std::string dnskey_digest;
  // Key-lifecycle state at the transition (RFC 7583 provenance): a clean
  // ZSK roll journals as maintained->maintained with dnskey_changed and
  // key_state mid-rollover; a botched one pivots the phase itself.
  analysis::KeyLifecycleState key_state = analysis::KeyLifecycleState::kStable;
  std::string operator_name;

  // "insecure->cds_published" — the label used for metrics and the
  // distinct-transition-kinds acceptance gate.
  std::string kind() const { return to_string(from) + "->" + to_string(to); }

  bool operator==(const Transition&) const = default;
};

struct ZoneHistory {
  ZonePhase phase = ZonePhase::kUnknown;
  net::SimTime phase_since = 0;
  net::SimTime first_seen = 0;       // first successful probe
  net::SimTime last_probe = 0;       // any probe, success or failure
  net::SimTime last_transition = 0;  // last journaled change
  std::uint32_t probes = 0;
  std::uint32_t failures = 0;
  std::uint32_t transitions = 0;
  std::uint32_t stable_run = 0;  // consecutive unchanged bootstrapped probes
  std::uint32_t quiet_run = 0;   // consecutive probes with no change at all
  // Adoption-latency anchors (0 = not reached yet).
  net::SimTime cds_first_seen = 0;
  net::SimTime bootstrapped_at = 0;
  // Arena-interned current digests/operator ("" = absent).
  std::string_view cds_digest;
  std::string_view ds_digest;
  std::string_view dnskey_digest;
  std::string_view operator_name;
  analysis::KeyLifecycleState key_state = analysis::KeyLifecycleState::kStable;
  ZoneEwma ewma;
};

class HistoryStore {
 public:
  struct ProbeOutcome {
    std::optional<Transition> transition;
    bool changed = false;  // transition.has_value()
  };

  // Fold one probe into the store. Unreachable probes (finding.reachable ==
  // false) only update reliability statistics; they never change phase.
  ProbeOutcome record_probe(const dns::Name& zone, net::SimTime at,
                            const ProbeFinding& finding,
                            std::uint32_t stable_probes);

  const ZoneHistory* find(const dns::Name& zone) const;
  const std::map<dns::Name, ZoneHistory>& zones() const { return zones_; }

  // Next journal sequence number to assign (1-based, dense).
  std::uint64_t next_seq() const { return next_seq_; }
  void set_next_seq(std::uint64_t seq) { next_seq_ = seq; }

  // Zones per current phase, kept up to date as probes fold in.
  const std::array<std::uint64_t, kZonePhaseCount>& phase_counts() const {
    return phase_counts_;
  }

  // Snapshot body: one tab-separated line per zone in canonical zone order;
  // doubles as C hex-floats so serialize(restore(serialize())) is
  // byte-identical. restore() replaces the store's contents (not next_seq_).
  std::string serialize() const;
  Status restore(const std::string& body);

  std::size_t arena_bytes() const { return arena_.bytes_used(); }

 private:
  std::string_view intern(std::string_view text);

  std::map<dns::Name, ZoneHistory> zones_;
  std::array<std::uint64_t, kZonePhaseCount> phase_counts_{};
  base::Arena arena_{4 * 1024};
  // Dedup table for interned strings; lookup-only, never iterated.
  std::unordered_map<std::string_view, std::string_view> interned_;
  std::uint64_t next_seq_ = 1;
};

}  // namespace dnsboot::longitudinal
