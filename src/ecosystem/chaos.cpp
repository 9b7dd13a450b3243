#include "ecosystem/chaos.hpp"

namespace dnsboot::ecosystem {

ChaosOptions chaos_preset(const std::string& name) {
  ChaosOptions options;
  if (name == "mild") {
    options.loss_rate = 0.05;
    options.duplicate_rate = 0.02;
    options.reorder_rate = 0.05;
    options.flap_fraction = 0.05;
    options.flap_period = 20 * net::kSecond;
    options.flap_down = 2 * net::kSecond;
    options.servfail_flap_fraction = 0.05;
    options.servfail_flap_period = 15 * net::kSecond;
    options.servfail_flap_fail = 3 * net::kSecond;
  } else if (name == "hostile") {
    options.loss_rate = 0.30;
    options.duplicate_rate = 0.05;
    options.reorder_rate = 0.10;
    options.corrupt_rate = 0.01;
    options.burst_enter = 0.01;
    options.burst_duration = 500 * net::kMillisecond;
    options.blackhole_fraction = 0.10;
    options.blackhole_start = 5 * net::kSecond;
    options.blackhole_duration = 20 * net::kSecond;
    options.flap_fraction = 0.15;
    options.flap_period = 10 * net::kSecond;
    options.flap_down = 3 * net::kSecond;
    options.slow_start_fraction = 0.10;
    options.slow_start_penalty = 500 * net::kMillisecond;
    options.slow_start_queries = 5;
    options.rate_limit_fraction = 0.10;
    options.rate_limit_qps = 200.0;
    options.servfail_flap_fraction = 0.10;
    options.servfail_flap_period = 10 * net::kSecond;
    options.servfail_flap_fail = 2 * net::kSecond;
  } else if (name == "adversarial") {
    // Clean links, hostile peers. Link faults stay off on purpose: the
    // acceptance claim is that a world under active attack produces a
    // byte-identical adoption report to the clean run, which requires every
    // *authentic* answer to arrive exactly as it would without the
    // attacker. Everything else is crafted traffic racing it.
    options.attack_fraction = 0.5;
    options.attack.spoof_candidates = 12;
    options.attack.flood_responses = 4;
    options.attack.wrong_source_responses = 4;
    options.attack.tc_rate = 0.25;
    options.attack.malformed_responses = 2;
    options.attack.oversized_responses = 1;
    // Roll out the serving-tier hardening with the attack; generous enough
    // that the paced scanner (50 qps/NS) never trips it.
    options.defense_per_client_qps = 500.0;
    options.defense_per_client_burst = 64.0;
  }
  // Anything else (notably "off") keeps the all-zero defaults.
  return options;
}

const std::vector<std::string>& chaos_preset_names() {
  static const std::vector<std::string> names = {"off", "mild", "hostile",
                                                 "adversarial"};
  return names;
}

namespace {

bool is_infrastructure(const std::string& server_id) {
  return server_id == "root" || server_id.rfind("nic.", 0) == 0;
}

}  // namespace

ChaosPlan apply_chaos(net::SimNetwork& network, Ecosystem& eco,
                      const ChaosOptions& options) {
  ChaosPlan plan;
  Rng rng(options.seed);
  for (auto& server : eco.servers) {
    const std::string& id = server->config().id;
    // Keep the root and TLD servers clean (see the header comment).
    const bool infra = is_infrastructure(id);

    if (!infra) {
      // Server-side fault gates: each gate rolled independently per server,
      // forked off the server id so the plan is stable under reordering.
      Rng server_rng = rng.fork("server:" + id);
      server::ServerFaultProfile faults;
      bool any = false;
      if (options.slow_start_fraction > 0 &&
          server_rng.chance(options.slow_start_fraction)) {
        faults.slow_start_penalty = options.slow_start_penalty;
        faults.slow_start_queries = options.slow_start_queries;
        any = true;
      }
      if (options.rate_limit_fraction > 0 &&
          server_rng.chance(options.rate_limit_fraction)) {
        faults.rate_limit_qps = options.rate_limit_qps;
        any = true;
      }
      if (options.servfail_flap_fraction > 0 &&
          server_rng.chance(options.servfail_flap_fraction)) {
        faults.flap_period = options.servfail_flap_period;
        faults.flap_fail = options.servfail_flap_fail;
        any = true;
      }
      if (any) {
        server->set_faults(faults);
        ++plan.servers_faulted;
      }
      if (options.defense_per_client_qps > 0) {
        server::ServerDefenseProfile defense;
        defense.per_client_qps = options.defense_per_client_qps;
        defense.per_client_burst = options.defense_per_client_burst;
        server->set_defense(defense);
        ++plan.servers_hardened;
      }
    }

    // Infrastructure links stay fully clean: the paper's scan presumes a
    // reachable parent side, and a lossy root degrades *every* delegation
    // for reasons no per-zone provenance can express.
    if (infra) continue;
    for (const auto& address : server->addresses()) {
      // Attacker placement, forked per endpoint so the plan is stable
      // under server reordering. The attacker's runtime RNG is a second
      // independent fork: placement draws must not perturb its traffic.
      if (options.attack_fraction > 0 && options.attack.any()) {
        Rng placement_rng = rng.fork("attack-at:" + address.to_text());
        if (placement_rng.chance(options.attack_fraction)) {
          network.set_attack_on(address, options.attack,
                                rng.fork("attack:" + address.to_text()));
          ++plan.endpoints_attacked;
        }
      }
      Rng addr_rng = rng.fork("link:" + address.to_text());
      net::FaultProfile profile;
      bool any = false;
      if (options.loss_rate > 0) {
        profile.loss_rate = options.loss_rate;
        any = true;
      }
      if (options.duplicate_rate > 0) {
        profile.duplicate_rate = options.duplicate_rate;
        any = true;
      }
      if (options.reorder_rate > 0) {
        profile.reorder_rate = options.reorder_rate;
        any = true;
      }
      if (options.corrupt_rate > 0) {
        profile.corrupt_rate = options.corrupt_rate;
        any = true;
      }
      if (options.burst_enter > 0) {
        profile.burst_enter = options.burst_enter;
        profile.burst_duration = options.burst_duration;
        any = true;
      }
      if (options.blackhole_fraction > 0 &&
          addr_rng.chance(options.blackhole_fraction)) {
        net::TimeWindow window;
        window.start = options.blackhole_start;
        window.end = options.blackhole_duration >= net::kSimTimeForever -
                                                       options.blackhole_start
                         ? net::kSimTimeForever
                         : options.blackhole_start + options.blackhole_duration;
        profile.blackholes.push_back(window);
        ++plan.endpoints_blackholed;
        any = true;
      }
      if (options.flap_fraction > 0 && options.flap_period > 0 &&
          addr_rng.chance(options.flap_fraction)) {
        profile.flap_period = options.flap_period;
        profile.flap_down = options.flap_down;
        // Random phase so flapping endpoints do not all go dark together.
        profile.flap_phase = addr_rng.next_below(options.flap_period);
        ++plan.endpoints_flapping;
        any = true;
      }
      if (any) {
        network.set_faults_to(address, profile);
        plan.links[address] = profile;
        ++plan.endpoints_faulted;
      }
    }
  }
  return plan;
}

}  // namespace dnsboot::ecosystem
