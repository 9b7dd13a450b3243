#include "analysis/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <thread>

namespace dnsboot::analysis {

namespace {

// One shard's output, written by exactly one worker and read only after all
// workers have joined.
struct ShardSlot {
  SurveyRunResult result;
};

}  // namespace

ShardedSurveyResult run_sharded_survey(const ShardWorldSource& source,
                                       const ShardedSurveyOptions& options) {
  const std::size_t shards = std::max<std::size_t>(1, options.shards);
  const std::size_t threads =
      std::clamp<std::size_t>(options.threads, 1, shards);

  std::vector<ShardSlot> slots(shards);
  std::atomic<std::size_t> next_shard{0};

  auto worker = [&] {
    for (;;) {
      const std::size_t shard =  // audit-allow: A004 RMW work-stealing index
          next_shard.fetch_add(1, std::memory_order_relaxed);
      if (shard >= shards) return;

      const ecosystem::World world = source(shard);
      const ecosystem::Ecosystem& eco = world.eco;
      // eco.scan_targets is already this shard's slice (streaming-shard
      // contract); run_survey folds the shard network's registry (fault
      // counters, events, traffic) into slot.result.metrics, so the slot
      // needs nothing beyond the result itself.
      slots[shard].result =
          run_survey(*world.network, eco.hints, eco.scan_targets,
                     eco.ns_domain_to_operator, eco.now, options.run);
    }
  };

  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  ShardedSurveyResult out;
  out.shards = shards;
  out.threads = threads;
  out.shard_durations.reserve(shards);
  for (std::size_t shard = 0; shard < shards; ++shard) {
    ShardSlot& slot = slots[shard];
    out.merged.survey += slot.result.survey;
    out.merged.reports.insert(
        out.merged.reports.end(),
        std::make_move_iterator(slot.result.reports.begin()),
        std::make_move_iterator(slot.result.reports.end()));
    // One generic merge replaces the old per-struct operator+= chains:
    // every engine/scanner/network counter and histogram sums name-keyed,
    // and the merged stats views (bound to out.merged.metrics) see the
    // totals with no per-field code at all.
    out.merged.metrics->merge(*slot.result.metrics);
    out.merged.simulated_duration =
        std::max(out.merged.simulated_duration, slot.result.simulated_duration);
    out.merged.datagrams += slot.result.datagrams;
    out.merged.bytes_on_wire += slot.result.bytes_on_wire;
    out.shard_durations.push_back(slot.result.simulated_duration);
  }
  out.fault_stats = net::FaultStats(*out.merged.metrics);
  out.events_processed =
      out.merged.metrics->counter_value("dnsboot_net_events");
  out.merged.top_by_domains = top_rows_by_domains(out.merged.survey, 20);
  out.merged.top_by_cds = top_rows_by_cds(out.merged.survey, 20);
  return out;
}

}  // namespace dnsboot::analysis
