// Sharded survey executor (DESIGN.md §9, §14) — partition the zone
// population into S shards by a stable hash of the zone name, run each
// shard's scan in its own fully independent simulated world (network +
// servers + scanner + engine), and merge the per-shard results in shard
// order.
//
// Determinism contract:
//   * The merged report depends only on (source, shards, run options) —
//     never on the thread count. Workers pull shard indices from an atomic
//     counter, but results land in a slot vector indexed by shard and the
//     merge walks shards 0..S-1 after all workers have joined.
//   * shards == 1 is run_survey() on the whole world, on the spec's own
//     network seed (ecosystem::build_world), byte-for-byte.
//
// Streaming-shard contract (§14): the world source returns a world holding
// ONLY its shard's targets (ecosystem::build_world materializes exactly that
// slice), so worker memory is O(zones/shard) instead of O(world). The
// executor scans the slice as-is.
//
// Each worker's world is thread-confined; the only cross-thread traffic is
// the shard counter and the slot vector, whose entries are written by
// exactly one worker and read only after join (a happens-before edge), so
// the executor is clean under TSan without any locking.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "analysis/survey.hpp"
#include "ecosystem/world.hpp"

namespace dnsboot::analysis {

// Produces the world for one shard:
// ecosystem::build_world(spec, plan, shard_index, shards) with the same
// spec, plan and shard count for every shard, so the shard slices partition
// one population and every shard world carries the same chaos plan. Called
// concurrently from worker threads: implementations must not touch shared
// mutable state.
using ShardWorldSource =
    std::function<ecosystem::World(std::size_t shard_index)>;

struct ShardedSurveyOptions {
  SurveyRunOptions run;
  std::size_t shards = 1;
  std::size_t threads = 1;  // clamped to [1, shards]
};

// The merged result is what run_survey returns for one world: survey
// counters and maps sum key-wise, reports concatenate in shard order, the
// registries merge name-keyed (so the stats views read the totals), and
// simulated_duration is the slowest shard's (shards run concurrently in
// simulated time).
SurveyRunResult run_sharded_survey(const ShardWorldSource& source,
                                   const ShardedSurveyOptions& options);

}  // namespace dnsboot::analysis
