// run_survey — the end-to-end measurement pipeline in one call: set up the
// query engine and resolver, scan every target zone, validate and classify
// offline, and aggregate into the paper's tables.
#pragma once

#include <memory>

#include "analysis/aggregate.hpp"
#include "ecosystem/builder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "resolver/query_engine.hpp"
#include "scanner/scanner.hpp"

namespace dnsboot::analysis {

struct SurveyRunOptions {
  resolver::QueryEngineOptions engine;
  scanner::ScannerOptions scanner;
  bool keep_reports = false;  // retain per-zone reports (memory-heavy)

  // Optional tracing: threaded into the engine (query spans) and scanner
  // (zone spans) unless they already carry their own tracer, and used by
  // run_survey itself for scan/analysis phase spans. Not owned.
  obs::Tracer* tracer = nullptr;
};

struct SurveyRunResult {
  Survey survey;
  std::vector<ZoneReport> reports;  // only when keep_reports

  // The run's consolidated metrics: run_survey merges the engine's,
  // scanner's and transport's registries in here, and sharded runs merge
  // shard results registry-to-registry (one generic merge instead of the
  // old per-struct operator+= chains). shared_ptr so results stay cheap to
  // move while the stats views below keep pointing at live counters.
  std::shared_ptr<obs::MetricsRegistry> metrics =
      std::make_shared<obs::MetricsRegistry>();
  // Views over `metrics` — same field names the old value-structs had, so
  // report writers and tests read them unchanged.
  scanner::ScannerStats scanner_stats{*metrics};
  resolver::QueryEngineStats engine_stats{*metrics};

  net::SimTime simulated_duration = 0;
  std::uint64_t datagrams = 0;
  std::uint64_t bytes_on_wire = 0;
};

// Scans eco.scan_targets over `network`, starting from eco.hints, and
// classifies them at eco.now against eco.ns_domain_to_operator. `network`
// is the transport that reaches eco's servers: the world's own SimNetwork,
// or a wire transport to a dnsboot-serve of the same world.
SurveyRunResult run_survey(net::Transport& network,
                           const ecosystem::Ecosystem& eco,
                           const SurveyRunOptions& options = {});

}  // namespace dnsboot::analysis
