// Observability core tests (DESIGN.md §11): histogram bucket semantics,
// labeled-family lookup, registry merge, the Prometheus exposition golden,
// the trace ring's overflow behaviour, and the end-to-end guarantee the
// whole layer inherits from the sharded executor — metrics JSON is
// byte-identical for every thread count.
#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_http.hpp"
#include "obs/stats.hpp"
#include "obs/trace.hpp"

namespace {

using namespace dnsboot;

TEST(HistogramTest, BucketBoundariesAreInclusiveUpperBounds) {
  obs::Histogram h({10, 100, 1000});
  h.observe(0);
  h.observe(10);    // == bound: first bucket
  h.observe(11);    // just over: second bucket
  h.observe(100);   // == bound: second bucket
  h.observe(1000);  // == bound: third bucket
  h.observe(1001);  // over the ladder: +Inf

  EXPECT_EQ(h.bucket_count(0), 2u);  // <= 10
  EXPECT_EQ(h.bucket_count(1), 2u);  // (10, 100]
  EXPECT_EQ(h.bucket_count(2), 1u);  // (100, 1000]
  EXPECT_EQ(h.bucket_count(3), 1u);  // +Inf
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.sum(), 0u + 10 + 11 + 100 + 1000 + 1001);
}

TEST(HistogramTest, QuantilesInterpolateAndInfReportsLowerEdge) {
  obs::Histogram h({10, 100});
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty

  for (int i = 0; i < 10; ++i) h.observe(5);
  // All mass in the first bucket: the median interpolates inside [0, 10].
  EXPECT_GT(h.quantile(0.5), 0.0);
  EXPECT_LE(h.quantile(0.5), 10.0);

  obs::Histogram tail({10, 100});
  tail.observe(5000);
  // The +Inf bucket has no upper edge; its lower edge is the honest answer.
  EXPECT_DOUBLE_EQ(tail.quantile(0.99), 100.0);
}

TEST(HistogramTest, MergeIsBucketWiseForIdenticalBounds) {
  obs::Histogram a({10, 100});
  obs::Histogram b({10, 100});
  a.observe(5);
  b.observe(50);
  b.observe(500);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.sum(), 555u);
  EXPECT_EQ(a.bucket_count(0), 1u);
  EXPECT_EQ(a.bucket_count(1), 1u);
  EXPECT_EQ(a.bucket_count(2), 1u);
}

TEST(HistogramTest, MergeMismatchedBoundsFoldsIntoInf) {
  obs::Histogram a({10, 100});
  obs::Histogram b({7});
  b.observe(3);
  b.observe(900);
  a.merge(b);
  // Count and sum stay honest even though the ladders can't line up.
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.sum(), 903u);
  EXPECT_EQ(a.bucket_count(2), 2u);  // both dumped into +Inf
}

TEST(MetricsRegistryTest, LabeledFamilyLookup) {
  obs::MetricsRegistry reg;
  reg.counter("acme_responses", "rcode", "0").add(7);
  reg.counter("acme_responses", "rcode", "3").add(2);

  EXPECT_EQ(reg.counter_value("acme_responses{rcode=\"0\"}"), 7u);
  EXPECT_EQ(reg.counter_value("acme_responses{rcode=\"3\"}"), 2u);
  // Absent members read 0 — assertions on merged registries stay total.
  EXPECT_EQ(reg.counter_value("acme_responses{rcode=\"5\"}"), 0u);
}

TEST(MetricsRegistryTest, MergeSumsByName) {
  obs::MetricsRegistry a;
  obs::MetricsRegistry b;
  a.counter("x").add(1);
  b.counter("x").add(2);
  b.counter("only_b").add(5);
  a.histogram("h", {10}).observe(3);
  b.histogram("h", {10}).observe(30);
  a.gauge("g").set(1.5);
  b.gauge("g").set(2.0);
  a.merge(b);

  EXPECT_EQ(a.counter_value("x"), 3u);
  EXPECT_EQ(a.gauge("g").get(), 3.5);
  EXPECT_EQ(a.counter_value("only_b"), 5u);
  const obs::Histogram* h = a.find_histogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 2u);
  EXPECT_EQ(h->sum(), 33u);
}

TEST(MetricsRegistryTest, StatsViewsReadAndWriteTheRegistry) {
  obs::MetricsRegistry reg;
  resolver::QueryEngineStats stats(reg);
  ++stats.sends;
  stats.sends += 2;
  ++stats.responses;
  EXPECT_EQ(reg.counter_value("dnsboot_engine_sends"), 3u);
  EXPECT_EQ(static_cast<std::uint64_t>(stats.sends), 3u);
  EXPECT_EQ(stats.wasted_sends(), 2u);

  // Unbound (default-constructed) views: reads yield 0, writes are dropped.
  resolver::QueryEngineStats unbound;
  ++unbound.sends;
  EXPECT_EQ(static_cast<std::uint64_t>(unbound.sends), 0u);
}

TEST(MetricsRegistryTest, PrometheusExpositionGolden) {
  obs::MetricsRegistry reg;
  reg.set_help("acme_requests", "requests by rcode");
  reg.counter("acme_requests", "rcode", "0").add(3);
  reg.counter("acme_requests", "rcode", "3").add(1);
  reg.counter("acme_up").add(2);
  reg.gauge("acme_workers").set(2.5);
  obs::Histogram& h = reg.histogram("acme_latency", {10, 100});
  h.observe(5);
  h.observe(50);
  h.observe(500);

  const std::string expected =
      "# HELP acme_requests requests by rcode\n"
      "# TYPE acme_requests counter\n"
      "acme_requests{rcode=\"0\"} 3\n"
      "acme_requests{rcode=\"3\"} 1\n"
      "# TYPE acme_up counter\n"
      "acme_up 2\n"
      "# TYPE acme_workers gauge\n"
      "acme_workers 2.5\n"
      "# TYPE acme_latency histogram\n"
      "acme_latency_bucket{le=\"10\"} 1\n"
      "acme_latency_bucket{le=\"100\"} 2\n"
      "acme_latency_bucket{le=\"+Inf\"} 3\n"
      "acme_latency_sum 555\n"
      "acme_latency_count 3\n";
  EXPECT_EQ(reg.to_prometheus(), expected);
}

TEST(MetricsHttpTest, ServesMetricsAndRejectsOtherPaths) {
  obs::MetricsHttpServer server;
  ASSERT_TRUE(server.start(0, [] { return std::string("up 1\n"); }))
      << server.error();
  ASSERT_NE(server.port(), 0);
  // The server is exercised end-to-end by scripts/metrics_smoke.sh; here we
  // just pin the lifecycle: an ephemeral port is reported, stop() joins.
  server.stop();
  EXPECT_FALSE(server.running());
}

TEST(TracerTest, RingOverflowDropsOldest) {
  obs::TracerOptions options;
  options.capacity = 4;
  options.sample_every = 1;
  obs::Tracer tracer(options);
  for (int i = 0; i < 6; ++i) {
    obs::TraceSpan span;
    span.kind = "query";
    span.name = "q" + std::to_string(i);
    tracer.record(std::move(span));
  }

  EXPECT_EQ(tracer.recorded(), 6u);
  EXPECT_EQ(tracer.dropped(), 2u);
  const std::vector<obs::TraceSpan> spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest-first, and the two oldest (q0, q1) were overwritten.
  EXPECT_EQ(spans.front().name, "q2");
  EXPECT_EQ(spans.front().seq, 2u);
  EXPECT_EQ(spans.back().name, "q5");
  EXPECT_EQ(spans.back().seq, 5u);
}

TEST(TracerTest, SamplingIsCounterBasedAndDeterministic) {
  obs::TracerOptions options;
  options.sample_every = 3;
  obs::Tracer tracer(options);
  int sampled = 0;
  for (int i = 0; i < 9; ++i) {
    if (tracer.sample()) ++sampled;
  }
  EXPECT_EQ(sampled, 3);  // candidates 0, 3, 6
  EXPECT_EQ(tracer.candidates(), 9u);

  obs::TracerOptions off;
  off.sample_every = 0;
  obs::Tracer disabled(off);
  EXPECT_FALSE(disabled.sample());
}

TEST(TracerTest, JsonlEscapesAndOneLinePerSpan) {
  obs::Tracer tracer;
  obs::TraceSpan span;
  span.kind = "query";
  span.name = "weird\"name\n";
  span.status = "ok";
  tracer.record(std::move(span));
  const std::string jsonl = tracer.to_jsonl();
  EXPECT_NE(jsonl.find("weird\\\"name\\n"), std::string::npos);
  EXPECT_EQ(jsonl.back(), '\n');
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 1);
}

// --- end-to-end: per-shard registries merge deterministically -------------

constexpr double kScale = 1.0 / 2000000;
constexpr std::uint64_t kSeed = 11;

analysis::SurveyRunResult run_sharded(std::size_t threads) {
  const ecosystem::WorldSpec spec = ecosystem::seeded_spec(kSeed, kScale);
  const ecosystem::EcosystemPlan plan =
      ecosystem::make_ecosystem_plan(spec.config);
  analysis::ShardedSurveyOptions options;
  options.shards = 8;
  options.threads = threads;
  return analysis::run_sharded_survey(
      [&spec, &plan](std::size_t shard) {
        return ecosystem::build_world(spec, plan, shard, 8);
      },
      options);
}

TEST(ObsDeterminismTest, MetricsJsonIsThreadCountInvariant) {
  auto one = run_sharded(1);
  auto eight = run_sharded(8);
  ASSERT_GT(one.survey.total, 0u);

  const std::string json_one = one.metrics->to_json();
  EXPECT_EQ(json_one, eight.metrics->to_json());
  EXPECT_EQ(one.metrics->to_prometheus(), eight.metrics->to_prometheus());

  // The merged registry is the single source the stats views read.
  EXPECT_EQ(one.engine_stats.sends,
            one.metrics->counter_value("dnsboot_engine_sends"));
  EXPECT_GE(one.metrics->counter_value("dnsboot_engine_sends"),
            one.metrics->counter_value("dnsboot_engine_responses"));
  const obs::Histogram* rtt =
      one.metrics->find_histogram("dnsboot_engine_rtt_usec");
  ASSERT_NE(rtt, nullptr);
  EXPECT_EQ(rtt->count(),
            one.metrics->counter_value("dnsboot_engine_responses"));
}

}  // namespace
