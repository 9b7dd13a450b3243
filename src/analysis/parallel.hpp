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
//   * shards == 1 reproduces the single-world run_survey() pipeline
//     byte-for-byte: the one world is the whole world, on the spec's own
//     network seed (ecosystem::build_world).
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
  std::size_t threads = 1;
};

struct ShardedSurveyResult {
  // Merged exactly as a single-world SurveyRunResult: survey counters and
  // maps sum key-wise, reports concatenate in shard order, stats sum,
  // simulated_duration is the slowest shard (shards run concurrently in
  // simulated time), and the table rows are recomputed from the merged
  // operator map.
  SurveyRunResult merged;
  // View over merged.metrics (the per-shard network registries were merged
  // into it), bound by run_sharded_survey after the merge loop. Anyone who
  // replaces `merged` wholesale must rebind this view — it points into the
  // registry `merged` owned at bind time.
  net::FaultStats fault_stats;
  std::uint64_t events_processed = 0;
  std::vector<net::SimTime> shard_durations;
  std::size_t shards = 0;
  std::size_t threads = 0;
};

ShardedSurveyResult run_sharded_survey(const ShardWorldSource& source,
                                       const ShardedSurveyOptions& options);

}  // namespace dnsboot::analysis
