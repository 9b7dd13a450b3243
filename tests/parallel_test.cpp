// Determinism tests for the sharded survey executor (DESIGN.md §9): the
// merged report must be byte-identical for every thread count, one shard
// must reproduce run_survey on the whole world exactly, and shard
// assignment must partition the population.
#include <gtest/gtest.h>

#include "analysis/parallel.hpp"
#include "analysis/report_io.hpp"
#include "base/rng.hpp"
#include "ecosystem/world.hpp"

namespace {

using namespace dnsboot;

constexpr double kScale = 1.0 / 2000000;
constexpr std::uint64_t kSeed = 11;

// The world dnsboot-survey builds for --seed kSeed, through the same
// factory.
ecosystem::WorldSpec world_spec(const std::string& chaos = "off") {
  ecosystem::WorldSpec spec = ecosystem::seeded_spec(kSeed, kScale);
  spec.chaos = chaos;
  return spec;
}

analysis::ShardWorldSource make_source(std::size_t shards,
                                       const std::string& chaos = "off") {
  const ecosystem::WorldSpec spec = world_spec(chaos);
  return [shards, spec, plan = ecosystem::make_ecosystem_plan(spec.config)](
             std::size_t shard) {
    return ecosystem::build_world(spec, plan, shard, shards);
  };
}

analysis::SurveyRunOptions run_options(bool chaos) {
  analysis::SurveyRunOptions options;
  options.keep_reports = true;
  if (chaos) {
    // The resilient policy dnsboot-survey uses under --chaos.
    options.engine = resolver::resilient_query_options();
    options.scanner.max_scan_attempts = 2;
  }
  return options;
}

analysis::SurveyRunResult run_sharded(std::size_t shards, std::size_t threads,
                                      const std::string& chaos = "off") {
  analysis::ShardedSurveyOptions options;
  options.run = run_options(chaos != "off");
  options.shards = shards;
  options.threads = threads;
  return analysis::run_sharded_survey(make_source(shards, chaos), options);
}

TEST(ParallelSurveyTest, SingleShardReproducesLegacyPipelineByteForByte) {
  // The single-world pipeline, exactly as run_survey callers drive it.
  const ecosystem::World world = ecosystem::build_world(world_spec());
  auto single =
      analysis::run_survey(*world.network, world.eco, run_options(false));

  auto sharded = run_sharded(/*shards=*/1, /*threads=*/1);
  EXPECT_GT(single.survey.total, 0u);
  EXPECT_EQ(analysis::survey_to_json(single),
            analysis::survey_to_json(sharded));
  EXPECT_EQ(analysis::reports_to_csv(single.reports),
            analysis::reports_to_csv(sharded.reports));
}

TEST(ParallelSurveyTest, MergedReportIsThreadCountInvariant) {
  auto one = run_sharded(/*shards=*/8, /*threads=*/1);
  auto two = run_sharded(/*shards=*/8, /*threads=*/2);
  auto eight = run_sharded(/*shards=*/8, /*threads=*/8);

  const std::string baseline = analysis::survey_to_json(one);
  EXPECT_GT(one.survey.total, 0u);
  EXPECT_EQ(baseline, analysis::survey_to_json(two));
  EXPECT_EQ(baseline, analysis::survey_to_json(eight));

  // Per-zone reports concatenate in shard order: byte-identical CSVs.
  const std::string csv = analysis::reports_to_csv(one.reports);
  EXPECT_FALSE(csv.empty());
  EXPECT_EQ(csv, analysis::reports_to_csv(two.reports));
  EXPECT_EQ(csv, analysis::reports_to_csv(eight.reports));

  // Per-class aggregate counts, spelled out (the JSON identity already
  // implies them; these keep the failure message readable).
  for (const auto* r : {&two, &eight}) {
    EXPECT_EQ(one.survey.scan_complete, r->survey.scan_complete);
    EXPECT_EQ(one.survey.scan_degraded, r->survey.scan_degraded);
    EXPECT_EQ(one.survey.secured, r->survey.secured);
    EXPECT_EQ(one.survey.unsigned_zones, r->survey.unsigned_zones);
    EXPECT_EQ(one.engine_stats.queries, r->engine_stats.queries);
    EXPECT_EQ(one.scanner_stats.zones_scanned, r->scanner_stats.zones_scanned);
    EXPECT_EQ(one.metrics->counter_value("dnsboot_net_events"),
              r->metrics->counter_value("dnsboot_net_events"));
    EXPECT_EQ(one.simulated_duration, r->simulated_duration);
  }
}

TEST(ParallelSurveyTest, HostileChaosMergesDeterministically) {
  auto one = run_sharded(/*shards=*/8, /*threads=*/1, "hostile");
  auto eight = run_sharded(/*shards=*/8, /*threads=*/8, "hostile");

  EXPECT_EQ(analysis::survey_to_json(one), analysis::survey_to_json(eight));

  // Fault-class counters live outside the JSON report; they must merge
  // deterministically too, and a hostile world must actually exercise them.
  const net::FaultStats a(*one.metrics);
  const net::FaultStats b(*eight.metrics);
  EXPECT_EQ(a.blackholed, b.blackholed);
  EXPECT_EQ(a.flap_dropped, b.flap_dropped);
  EXPECT_EQ(a.burst_dropped, b.burst_dropped);
  EXPECT_EQ(a.fault_lost, b.fault_lost);
  EXPECT_EQ(a.corrupted, b.corrupted);
  EXPECT_EQ(a.reordered, b.reordered);
  EXPECT_EQ(a.duplicated, b.duplicated);
  EXPECT_GT(a.blackholed + a.flap_dropped + a.burst_dropped + a.fault_lost,
            0u);
}

TEST(ParallelSurveyTest, ShardAssignmentPartitionsThePopulation) {
  const ecosystem::World world = ecosystem::build_world(world_spec());
  const std::vector<dns::Name>& targets = world.eco.scan_targets;
  ASSERT_GT(targets.size(), 0u);

  const std::size_t shards = 8;
  std::size_t assigned = 0;
  std::vector<std::size_t> per_shard(shards, 0);
  for (const dns::Name& zone : targets) {
    std::size_t shard = shard_of_canonical(zone.canonical_text(), shards);
    ASSERT_LT(shard, shards);
    ++per_shard[shard];
    ++assigned;
    // Stable: the same name always lands on the same shard.
    EXPECT_EQ(shard, shard_of_canonical(zone.canonical_text(), shards));
  }
  EXPECT_EQ(assigned, targets.size());
  // The FNV hash should spread the population over all shards at this size.
  for (std::size_t count : per_shard) EXPECT_GT(count, 0u);

  // One shard routes everything to shard 0.
  for (const dns::Name& zone : targets) {
    EXPECT_EQ(shard_of_canonical(zone.canonical_text(), 1), 0u);
  }
}

TEST(ParallelSurveyTest, StreamingShardSlicesPartitionThePopulation) {
  // The streaming contract (DESIGN.md §14): the union of build_shard slices
  // is exactly the full world's population — every zone materialized once,
  // on the shard shard_of_canonical says, with the same closed-form ground
  // truth.
  const ecosystem::EcosystemConfig config = world_spec().config;
  const ecosystem::EcosystemPlan plan = ecosystem::make_ecosystem_plan(config);
  net::SimNetwork full_network(1);
  ecosystem::Ecosystem full =
      ecosystem::build_shard(full_network, config, plan, 0, 1);
  ASSERT_GT(full.scan_targets.size(), 0u);
  EXPECT_EQ(full.zones_total, plan.zones_total);

  const std::size_t shards = 4;
  std::size_t total = 0;
  std::map<std::string, ecosystem::ZoneTruth> merged;
  for (std::size_t shard = 0; shard < shards; ++shard) {
    net::SimNetwork network(100 + shard);
    ecosystem::Ecosystem slice =
        ecosystem::build_shard(network, config, plan, shard, shards);
    total += slice.scan_targets.size();
    for (const dns::Name& zone : slice.scan_targets) {
      EXPECT_EQ(shard_of_canonical(zone.canonical_text(), shards), shard)
          << zone.canonical_text();
    }
    for (auto& [name, truth] : slice.truth) {
      EXPECT_TRUE(merged.emplace(name, truth).second)
          << name << " materialized by two shards";
    }
  }
  EXPECT_EQ(total, full.scan_targets.size());
  ASSERT_EQ(merged.size(), full.truth.size());
  for (const auto& [name, truth] : full.truth) {
    auto it = merged.find(name);
    ASSERT_NE(it, merged.end()) << name;
    const ecosystem::ZoneTruth& sliced = it->second;
    EXPECT_EQ(sliced.operator_name, truth.operator_name) << name;
    EXPECT_EQ(sliced.state, truth.state) << name;
    EXPECT_EQ(sliced.cds, truth.cds) << name;
    EXPECT_EQ(sliced.cds_delete, truth.cds_delete) << name;
    EXPECT_EQ(sliced.cds_no_match, truth.cds_no_match) << name;
    EXPECT_EQ(sliced.cds_inconsistent, truth.cds_inconsistent) << name;
    EXPECT_EQ(sliced.multi_operator, truth.multi_operator) << name;
    EXPECT_EQ(sliced.csync, truth.csync) << name;
    EXPECT_EQ(sliced.signal, truth.signal) << name;
    EXPECT_EQ(sliced.signal_missing_one_ns, truth.signal_missing_one_ns)
        << name;
    EXPECT_EQ(sliced.signal_stale_one_ns, truth.signal_stale_one_ns) << name;
    EXPECT_EQ(sliced.signal_zone_cut, truth.signal_zone_cut) << name;
  }
}

TEST(ParallelSurveyTest, ShardSeedDerivation) {
  // One shard passes the base seed through: the single-world hinge.
  EXPECT_EQ(shard_network_seed(1234, 0, 1), 1234u);
  // Multi-shard seeds differ per shard and never collide with the base.
  std::uint64_t s0 = shard_network_seed(1234, 0, 8);
  std::uint64_t s1 = shard_network_seed(1234, 1, 8);
  EXPECT_NE(s0, s1);
  EXPECT_NE(s0, 1234u);
}

std::vector<net::IpAddress> faulted_addresses(
    const ecosystem::ChaosPlan& plan) {
  std::vector<net::IpAddress> out;
  for (const auto& [address, profile] : plan.links) out.push_back(address);
  return out;
}

TEST(ParallelSurveyTest, EveryShardWorldGetsTheWholeWorldsChaosPlan) {
  // dnsboot-survey prints shard 0's chaos plan as the whole world's, and its
  // --lint pass with shards > 1 checks the whole world's plan: both rely on
  // build_world giving every shard world the same plan.
  const std::size_t shards = 8;
  for (const std::string preset : {"mild", "hostile", "adversarial"}) {
    const ecosystem::WorldSpec spec = world_spec(preset);
    const ecosystem::EcosystemPlan plan =
        ecosystem::make_ecosystem_plan(spec.config);
    const ecosystem::ChaosPlan whole =
        ecosystem::build_world(spec, plan, 0, 1).chaos;
    EXPECT_GT(whole.endpoints_faulted + whole.endpoints_attacked, 0u)
        << preset;
    for (std::size_t shard = 0; shard < shards; ++shard) {
      const ecosystem::ChaosPlan sliced =
          ecosystem::build_world(spec, plan, shard, shards).chaos;
      SCOPED_TRACE(preset + " shard " + std::to_string(shard));
      EXPECT_EQ(sliced.servers_faulted, whole.servers_faulted);
      EXPECT_EQ(sliced.endpoints_faulted, whole.endpoints_faulted);
      EXPECT_EQ(sliced.endpoints_blackholed, whole.endpoints_blackholed);
      EXPECT_EQ(sliced.endpoints_flapping, whole.endpoints_flapping);
      EXPECT_EQ(sliced.endpoints_attacked, whole.endpoints_attacked);
      EXPECT_EQ(sliced.servers_hardened, whole.servers_hardened);
      EXPECT_EQ(faulted_addresses(sliced), faulted_addresses(whole));
    }
  }
}

}  // namespace
