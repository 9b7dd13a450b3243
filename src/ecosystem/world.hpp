// World — the one builder of simulated Internets (DESIGN.md §9, §14).
//
// A WorldSpec names everything a world depends on: the ecosystem config,
// the base network seed, the default link, and the chaos preset with its
// seed. build_world(spec, plan, shard, shards) is the only code that turns
// a spec into a running world: it derives the shard's network seed, sets
// the link, materializes the shard's slice with build_shard and applies the
// chaos preset. The tools, benches and examples all build through it, so
// equal specs give equal worlds:
//
//   * dnsboot-survey, -serve, -monitor and -lint take their spec from
//     seeded_spec(--seed, scale), so a survey scanning dnsboot-serve over
//     real sockets sees the world it would simulate (DESIGN.md §10.4);
//   * every shard of a sharded survey gets the same chaos plan, because
//     apply_chaos draws only from the chaos seed and server identities,
//     and build_shard puts the same servers in every shard world.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "ecosystem/chaos.hpp"
#include "ecosystem/plan.hpp"
#include "net/simnet.hpp"

namespace dnsboot::ecosystem {

struct WorldSpec {
  EcosystemConfig config{};
  // Base network seed: a one-shard world uses it as is, shard worlds derive
  // theirs from it (shard_network_seed).
  std::uint64_t network_seed = 1;
  // Default link of the world's network: the survey's lossless 5 ms link.
  net::LinkModel link{5 * net::kMillisecond, 2 * net::kMillisecond, 0.0};
  // A chaos_preset name; "off" installs nothing.
  std::string chaos = "off";
  std::uint64_t chaos_seed = 0xc4a05;
};

// The spec the tools build from --seed and a population scale: ecosystem
// seed `seed` and a base network seed derived from it, with every other
// field at its default.
WorldSpec seeded_spec(std::uint64_t seed, double scale);

// A built world. The network is heap-held so the servers wired onto it stay
// attached when the World moves; the ecosystem keeps those servers alive.
struct World {
  std::unique_ptr<net::SimNetwork> network;
  Ecosystem eco;
  ChaosPlan chaos;  // what the chaos preset installed (empty when "off")
};

// Shard `shard` of `shards` of the world `spec` describes; `plan` must be
// make_ecosystem_plan(spec.config). The ecosystem holds only the shard's
// zone slice (build_shard), while its servers, and so its chaos plan, are
// the same in every shard world.
World build_world(const WorldSpec& spec, const EcosystemPlan& plan,
                  std::size_t shard, std::size_t shards);

// The whole world: shard 0 of 1, planned from spec.config.
World build_world(const WorldSpec& spec);

}  // namespace dnsboot::ecosystem
