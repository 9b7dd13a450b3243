#include "ecosystem/world.hpp"

#include "base/rng.hpp"

namespace dnsboot::ecosystem {

WorldSpec seeded_spec(std::uint64_t seed, double scale) {
  WorldSpec spec;
  spec.config.seed = seed;
  spec.config.scale = scale;
  spec.network_seed = seed ^ 0xd15b007;
  return spec;
}

World build_world(const WorldSpec& spec, const EcosystemPlan& plan,
                  std::size_t shard, std::size_t shards) {
  World world;
  world.network = std::make_unique<net::SimNetwork>(
      shard_network_seed(spec.network_seed, shard, shards));
  world.network->set_default_link(spec.link);
  world.eco = build_shard(*world.network, spec.config, plan, shard, shards);
  if (spec.chaos != "off") {
    ChaosOptions chaos = chaos_preset(spec.chaos);
    chaos.seed = spec.chaos_seed;
    world.chaos = apply_chaos(*world.network, world.eco, chaos);
  }
  return world;
}

World build_world(const WorldSpec& spec) {
  return build_world(spec, make_ecosystem_plan(spec.config), 0, 1);
}

}  // namespace dnsboot::ecosystem
