// PolicyClock — the world motion dnsboot-monitor observes: a seeded subset of
// clean unsigned zones bootstraps (RFC 9615), then every participating zone's
// keys evolve through the RFC 7583 states (generated → published → ready →
// active → retired → removed) on the schedule its (seed, zone)-jittered
// KeyPolicy dictates.
//
// Scenario space per participating zone (drawn once from the per-zone fork):
//   - bootstrap only (RFC 9615 → RFC 7344 DS install), then steady state
//   - clean ZSK pre-publication rollover (RFC 6781 §4.1.1.1)
//   - clean KSK double-DS rollover (RFC 6781 §4.1.2)
//   - clean algorithm rollover, modeled as a double-signature roll of both
//     keys (this build signs Ed25519 only, so "new algorithm" is a fresh key
//     pair that co-signs until the old pair retires)
//   - botched: premature DS swap (bogus until repaired), stale RRSIGs by a
//     retired ZSK (bogus until re-signed), CDS advertising an unpublished
//     key (secure; lint L109), foreign-algorithm DNSKEY that signs nothing
//     (secure; lint L110)
//   - unsigning via the RFC 8078 delete sentinel
//
// The whole schedule is a pure function of (seed, population): a restarted monitor rebuilds the identical step list
// and advance() replays it, which the crash-recovery determinism gate
// (DESIGN.md §15) requires.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "ecosystem/builder.hpp"
#include "kasp/materialize.hpp"
#include "kasp/policy.hpp"
#include "longitudinal/world_motion.hpp"
#include "registry/cds_processor.hpp"

namespace dnsboot::kasp {

struct KaspOptions {
  std::uint64_t seed = 1;
  net::SimTime start = net::SimTime{3600} * net::kSecond;
  net::SimTime horizon = net::SimTime{30} * 86400 * net::kSecond;
  // Fraction of eligible (clean, unsigned, registry-covered) zones that
  // bootstrap and come under KASP management during the window.
  double participate_fraction = 0.7;
  // Post-bootstrap scenario weights (cumulative ladder; remainder stays in
  // steady state).
  double zsk_roll_fraction = 0.30;
  double ksk_roll_fraction = 0.18;
  double algorithm_roll_fraction = 0.06;
  double premature_ds_fraction = 0.07;
  double stale_rrsig_fraction = 0.07;
  double cds_stray_fraction = 0.05;
  double algorithm_broken_fraction = 0.05;
  double unsign_fraction = 0.10;
  // CDS publication -> registry DS install latency (bootstrap phase).
  net::SimTime ds_latency = net::SimTime{6} * 3600 * net::kSecond;
  // How long a botched state persists before the operator repairs it.
  net::SimTime repair_delay = net::SimTime{18} * 3600 * net::kSecond;
  // Base policy; each zone gets a deterministic jittered copy.
  KeyPolicy base_policy;
};

struct KaspStep {
  enum class Kind : std::uint8_t {
    kBootstrapSign,  // sign + publish CDS (RFC 9615 day one)
    kBootstrapDs,    // registry installs the DS
    // Clean ZSK pre-publication roll.
    kZskPublish,   // successor ZSK into the DNSKEY RRset (not signing)
    kZskActivate,  // successor signs; predecessor lingers published
    kZskRemove,    // predecessor leaves the RRset
    // Clean KSK double-DS roll.
    kKskPublish,   // successor KSK published + co-signing DNSKEY
    kKskSubmitDs,  // CDS {old,new} -> registry DS {old,new}
    kKskActivate,  // successor signs DNSKEY; CDS -> {new}
    kKskRemove,    // predecessor retired; DS -> {new}
    // Clean algorithm roll (double-signature of both keys).
    kAlgPublish,   // new pair published, co-signing everything
    kAlgSubmitDs,  // DS {old,new}
    kAlgActivate,  // new pair takes over; old pair co-signs out its Iret
    kAlgRemove,    // old pair + old DS gone
    // Botched states and their repairs.
    kBreakPrematureDs,   // DS swapped to an unpublished successor (bogus)
    kRepairPrematureDs,  // successor finally published; chain heals
    kBreakStaleRrsig,    // retired ZSK's RRSIGs kept in service (bogus)
    kRepairStaleRrsig,   // re-sign with the live set; chain heals
    kPublishStrayCds,    // CDS announces an unpublished key (L109)
    kClearStrayCds,      // CDS back to the live KSK
    kPublishForeignKey,  // foreign-algorithm DNSKEY, signs nothing (L110)
    kDropForeignKey,     // foreign key withdrawn
    // Delete-sentinel unsigning.
    kPublishDelete,  // CDS/CDNSKEY replaced by the RFC 8078 sentinel
    kRemoveDs,       // registry withdraws the DS
  };
  net::SimTime at = 0;
  Kind kind = Kind::kBootstrapSign;
  dns::Name zone;
};

class PolicyClock : public longitudinal::WorldMotion {
 public:
  PolicyClock(net::SimNetwork& network, resolver::QueryEngine& engine,
              resolver::DelegationResolver& resolver,
              ecosystem::Ecosystem& eco, KaspOptions options);

  // The full scripted schedule, in deterministic construction order.
  const std::vector<KaspStep>& steps() const { return steps_; }

  std::string_view motion_name() const override { return "kasp"; }
  std::size_t planned_steps() const override { return steps_.size(); }
  std::vector<net::SimTime> step_times() const override;
  void advance(net::SimTime now) override;

  std::uint64_t applied() const override { return applied_; }
  std::uint64_t failed() const override { return failed_; }

 private:
  // Live key material for one managed zone.
  struct ZoneRollState {
    dnssec::ZoneKeys keys;
    std::optional<crypto::KeyPair> successor_ksk;
    std::optional<crypto::KeyPair> successor_zsk;
    std::optional<crypto::KeyPair> retired_zsk;
    std::uint32_t generation = 0;
  };

  void apply(const KaspStep& step);
  ZoneRollState& state_for(const std::string& canonical);
  crypto::KeyPair next_key(const std::string& canonical, ZoneRollState& state,
                           std::uint16_t flags);
  std::shared_ptr<dns::Zone> mutable_zone(const dns::Name& zone);
  Result<registry::CdsProcessor*> processor_for(const dns::Name& tld);
  // Replace the CDS/CDNSKEY sets with the child-sync records of `ksks`.
  void publish_child_sync(dns::Zone& zone, const dns::Name& zone_name,
                          const std::vector<const crypto::KeyPair*>& ksks);
  bool install_ds(const dns::Name& zone_name,
                  const std::vector<const crypto::KeyPair*>& ksks);
  bool resign(dns::Zone& zone, const ZoneRollState& state);

  net::SimNetwork& network_;
  resolver::QueryEngine& engine_;
  resolver::DelegationResolver& resolver_;
  ecosystem::Ecosystem& eco_;
  KaspOptions options_;
  Rng rng_;
  dnssec::SigningPolicy policy_;

  std::vector<KaspStep> steps_;
  std::vector<std::size_t> fire_order_;
  std::size_t next_fire_ = 0;

  std::map<std::string, std::shared_ptr<server::AuthServer>> zone_server_;
  std::map<std::string, ZoneRollState> states_;
  std::map<std::string, std::unique_ptr<registry::CdsProcessor>> processors_;
  std::uint64_t applied_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace dnsboot::kasp
