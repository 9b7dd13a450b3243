// EcosystemPlan — the cheap, immutable, shared half of world construction
// (DESIGN.md §14).
//
// World construction has two phases:
//
//   make_ecosystem_plan(config)   — pure scalar arithmetic: the operator set,
//       per-operator population counts, pathology-chain boundaries, duplicate
//       suppression, and apex-address prefix sums. O(operators), no RNG
//       state, no zones. Shareable across threads by const reference.
//
//   build_shard(network, config, plan, shard, shards) — materializes ONLY the
//       zones whose shard_of_canonical(name) == shard, plus the (small)
//       shared infrastructure every shard world needs to serve its slice:
//       root, TLD zones carrying this shard's delegations, operator zones
//       carrying this shard's signal records. Worker memory is
//       O(zones/shard + operators), not O(world). build_shard(0, 1) is the
//       whole world. Tools build through ecosystem/world.hpp, which wraps
//       this with the network, link and chaos set-up.
//
// Determinism contract: a zone's bytes depend only on (config.seed, zone
// name). Every random draw inside zone materialization comes from
// op_rng.fork("zone:" + canonical_name) — Rng::fork is position-independent,
// so the same zone built by any shard world (or by the whole world) is
// byte-identical. Infrastructure draws are sequential but happen
// identically in every shard world, and every decision that shapes the
// infrastructure (alt-server and CSYNC-host creation) is made in the plan,
// so server identities and address assignments never depend on which zones
// a shard holds.
//
// Pathology truth is closed-form: each pathology quota is a contiguous
// range of a state's zone indices (see planned_truth in plan.cpp), so
// truth for zone i is O(1) without generating zones 0..i-1.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ecosystem/builder.hpp"

namespace dnsboot::ecosystem {

// Per-operator population arithmetic, fully determined by the config.
struct OperatorPlan {
  OperatorProfile profile;
  std::string slug;  // lowercase alnum of profile.name; zone names are
                     // "<slug>-<i>.<tld>."
  std::string tld;   // resolved customer TLD label ("com" fallback)

  // Population counts (largest-remainder scaled, quota floors applied).
  std::uint64_t n = 0;
  std::uint64_t n_secured = 0;
  std::uint64_t n_invalid = 0;
  std::uint64_t n_island = 0;
  // CDS boundaries.
  std::uint64_t cds_secured = 0;       // secured zones i < cds_secured get CDS
  std::uint64_t island_cds = 0;        // first island_cds islands get CDS
  std::uint64_t island_cds_delete = 0; // ...of which the first get the
                                       // delete sentinel
  // Zones with index < skip_below collide with an earlier operator sharing
  // (slug, tld) and are never generated (the duplicate guard).
  std::uint64_t skip_below = 0;
  // Apex A-record counter value of this operator's first generated zone
  // (198.18.x.x addresses are numbered globally in generation order).
  std::uint64_t apex_base = 1;

  // Pathology-chain boundaries (scaled quotas; fully consumed by
  // construction, see the need_* floors in make_ecosystem_plan).
  std::uint64_t q_unsigned_cds = 0;
  std::uint64_t q_unsigned_cds_delete = 0;
  std::uint64_t q_signed_cds_delete = 0;
  std::uint64_t q_signed_cds_no_match = 0;
  std::uint64_t q_island_inconsistent_multi = 0;
  std::uint64_t q_island_inconsistent_same = 0;
  std::uint64_t q_island_cds_no_match = 0;
  std::uint64_t q_cds_bad_rrsig = 0;
  std::uint64_t q_signal_missing_ns = 0;
  std::uint64_t q_signal_missing_ns_multi = 0;
  std::uint64_t q_signal_cds_inconsistent = 0;
  std::uint64_t q_signal_cds_bad_rrsig = 0;
  std::uint64_t q_signal_on_invalid = 0;
  std::uint64_t q_signal_on_unsigned = 0;
  std::uint64_t q_signal_zone_cut = 0;
  std::uint64_t q_csync = 0;
  // Key-lifecycle snapshot quotas, consumed from the TAIL of the secured
  // range (ordinal sec_hi - 1 - i) so they never collide with the prefix
  // chains above; need_secured in make_ecosystem_plan grows by their sum.
  std::uint64_t q_roll_mid_zsk = 0;
  std::uint64_t q_roll_mid_ksk = 0;
  std::uint64_t q_roll_premature_ds = 0;
  std::uint64_t q_roll_stale_rrsig = 0;
  std::uint64_t q_roll_cds_unpublished = 0;
  std::uint64_t q_roll_algorithm_broken = 0;

  // Infrastructure decisions, made here rather than at the first zone that
  // needs them so server identity never depends on which zones a shard
  // materializes.
  bool has_alt_server = false;
  bool has_csync_host = false;
  int partner = -1;  // index into EcosystemPlan::operators, -1 = none
};

struct EcosystemPlan {
  std::vector<OperatorPlan> operators;
  // Total generated zones across all operators (duplicates excluded); the
  // sum of every shard's slice.
  std::uint64_t zones_total = 0;
};

EcosystemPlan make_ecosystem_plan(const EcosystemConfig& config);

// Closed-form ground truth for zone index `i` of `op` (requires
// op.skip_below <= i < op.n): the quotas above, consumed in index order.
ZoneTruth planned_truth(const OperatorPlan& op, std::uint64_t i);

// Materialize shard `shard_index` of `shard_count` onto `network`.
// build_shard(n, c, plan, 0, 1) is the full world. The returned Ecosystem's
// scan_targets / truth / zone counters cover only this shard's slice;
// infrastructure (hints, registries, ns_domain_to_operator, servers) is
// present in every shard.
Ecosystem build_shard(net::SimNetwork& network, const EcosystemConfig& config,
                      const EcosystemPlan& plan, std::size_t shard_index,
                      std::size_t shard_count);

}  // namespace dnsboot::ecosystem
