#include "analysis/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <thread>

namespace dnsboot::analysis {

SurveyRunResult run_sharded_survey(const ShardWorldSource& source,
                                   const ShardedSurveyOptions& options) {
  const std::size_t shards = std::max<std::size_t>(1, options.shards);
  const std::size_t threads =
      std::clamp<std::size_t>(options.threads, 1, shards);

  // Slot i is written only by the worker that ran shard i and read only
  // after every worker has joined.
  std::vector<SurveyRunResult> slots(shards);
  std::atomic<std::size_t> next_shard{0};

  auto worker = [&] {
    for (;;) {
      const std::size_t shard =  // audit-allow: A004 RMW work-stealing index
          next_shard.fetch_add(1, std::memory_order_relaxed);
      if (shard >= shards) return;

      const ecosystem::World world = source(shard);
      // world.eco.scan_targets is already this shard's slice
      // (streaming-shard contract); run_survey folds the shard network's
      // registry (fault counters, events, traffic) into the result's
      // metrics.
      slots[shard] = run_survey(*world.network, world.eco, options.run);
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

  SurveyRunResult out;
  for (SurveyRunResult& slot : slots) {
    out.survey += slot.survey;
    out.reports.insert(out.reports.end(),
                       std::make_move_iterator(slot.reports.begin()),
                       std::make_move_iterator(slot.reports.end()));
    // One generic merge: every engine/scanner/network counter and histogram
    // sums name-keyed, and the stats views bound to out.metrics see the
    // totals with no per-field code at all.
    out.metrics->merge(*slot.metrics);
    out.simulated_duration =
        std::max(out.simulated_duration, slot.simulated_duration);
    out.datagrams += slot.datagrams;
    out.bytes_on_wire += slot.bytes_on_wire;
  }
  return out;
}

}  // namespace dnsboot::analysis
