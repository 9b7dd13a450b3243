// Chaos profiles — scriptable fault schedules for survey worlds. apply_chaos
// walks a built Ecosystem and installs deterministic (seeded) link faults on
// the SimNetwork plus server-side fault gates on the AuthServers, so
// `dnsboot-survey --chaos hostile` scans the same world the robustness tests
// assert against.
//
// Root and TLD infrastructure is always exempt from faults: the paper's
// scan presumes a reachable parent side, and a lossy or dead root
// would make every zone unobservable for uninteresting reasons. Chaos is a
// property of operator infrastructure, which is what the survey measures.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "ecosystem/builder.hpp"

namespace dnsboot::ecosystem {

struct ChaosOptions {
  std::uint64_t seed = 0xc4a05;

  // Link faults toward operator endpoints (queries; the response path stays
  // clean so effective loss equals the configured rate).
  double loss_rate = 0.0;
  double duplicate_rate = 0.0;
  double reorder_rate = 0.0;
  double corrupt_rate = 0.0;
  double burst_enter = 0.0;           // per-datagram chance to start a burst
  net::SimTime burst_duration = 0;

  // Fraction of operator endpoints given a blackhole window / a periodic
  // link flap.
  double blackhole_fraction = 0.0;
  net::SimTime blackhole_start = 0;
  net::SimTime blackhole_duration = 0;  // kSimTimeForever-start = permanent
  double flap_fraction = 0.0;
  net::SimTime flap_period = 0;
  net::SimTime flap_down = 0;

  // Fraction of operator servers given each server-side fault gate.
  double slow_start_fraction = 0.0;
  net::SimTime slow_start_penalty = 0;
  int slow_start_queries = 0;
  double rate_limit_fraction = 0.0;
  double rate_limit_qps = 0.0;
  double servfail_flap_fraction = 0.0;  // transient-SERVFAIL servers
  net::SimTime servfail_flap_period = 0;
  net::SimTime servfail_flap_fail = 0;

  // Adversarial tier (DESIGN.md §13): station an off-path attacker at this
  // fraction of operator endpoints. The attacker races every observed UDP
  // query with the scripted AttackProfile below; infrastructure exemption
  // applies as for faults.
  double attack_fraction = 0.0;
  net::AttackProfile attack;

  // Server-side hardening rolled out with the attack (per-client token
  // buckets on every non-exempt server). 0 leaves servers unhardened.
  double defense_per_client_qps = 0.0;
  double defense_per_client_burst = 32.0;
};

// Named presets: "off", "mild" (low loss, some duplication/reordering),
// "hostile" (the acceptance world: 30% loss, flapping links and endpoints,
// transient-SERVFAIL and rate-limited servers), and "adversarial" (clean
// links, hostile *peers*: off-path spoof sweeps, wrong-ID floods,
// wrong-tuple injections, truncation games and garbage at half the
// operator endpoints — the ss2DNS threat model).
ChaosOptions chaos_preset(const std::string& name);

// Every name chaos_preset understands, in CLI display order. Tools build
// their --chaos choice lists from this so an unknown preset is a usage
// error, never a silent fallback to "off".
const std::vector<std::string>& chaos_preset_names();

// What apply_chaos installed — the link map feeds the L106 lint and the
// counters feed the survey's robustness summary.
struct ChaosPlan {
  std::map<net::IpAddress, net::FaultProfile> links;
  std::uint64_t servers_faulted = 0;
  std::uint64_t endpoints_faulted = 0;
  std::uint64_t endpoints_blackholed = 0;
  std::uint64_t endpoints_flapping = 0;
  std::uint64_t endpoints_attacked = 0;
  std::uint64_t servers_hardened = 0;
};

ChaosPlan apply_chaos(net::SimNetwork& network, Ecosystem& eco,
                      const ChaosOptions& options);

}  // namespace dnsboot::ecosystem
