// dnsboot-lint — static zone-state analyzer. Checks DNSSEC/CDS/RFC 9615
// hygiene without sending a single query: either over the synthetic
// ecosystem's full server view (default), over one zone file (--zone), or
// against its own ground truth (--self-check: every misconfiguration class
// the generator injects must be caught, and a misconfiguration-free world
// must lint clean).
//
// Usage:
//   dnsboot-lint [--scale-denom N] [--seed S] [--no-pathologies]
//                [--json FILE] [--metrics-json FILE] [--quiet]
//   dnsboot-lint --zone FILE --origin NAME [--now T]
//   dnsboot-lint --self-check [--scale-denom N] [--seed S]
//   dnsboot-lint --rules
//
// Exit codes: 0 = no error-severity findings (self-check passed);
//             1 = error findings / self-check failure; 2 = usage; 3 = I/O.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "cli.hpp"
#include "dns/zonefile.hpp"
#include "ecosystem/world.hpp"
#include "lint/crosscheck.hpp"
#include "lint/ecosystem_lint.hpp"
#include "lint/report.hpp"
#include "obs/metrics.hpp"

using namespace dnsboot;

namespace {

struct CliOptions {
  double scale_denom = 100000;  // micro world: every pathology, quick lint
  std::uint64_t seed = 1;
  bool pathologies = true;
  cli::OutputOptions output;
  std::string zone_path;    // --zone: lint one zone file instead
  std::string origin_text;  // required with --zone
  std::uint32_t now = 1'750'000'000;
  bool self_check = false;
  bool list_rules = false;
};

cli::FlagParser make_parser(CliOptions* options) {
  cli::FlagParser parser(
      "dnsboot-lint — static DNSSEC/CDS/RFC 9615 hygiene checks over the\n"
      "synthetic ecosystem (default), one zone file (--zone), or the\n"
      "generator's own ground truth (--self-check)");
  parser.value("--scale-denom", &options->scale_denom,
               "world scale divisor (zones ~ 1/N of the paper's)", 1e-9);
  parser.value("--seed", &options->seed, "ecosystem seed");
  parser.flag("--no-pathologies", &options->pathologies,
              "build a misconfiguration-free world", false);
  cli::OutputFlagSet output_flags;
  output_flags.json_help = "write the lint report as JSON";
  output_flags.quiet_help = "summary line only";
  cli::add_output_flags(parser, &options->output, output_flags);
  parser.value("--zone", &options->zone_path, "FILE",
               "lint one zone file (requires --origin)");
  parser.value("--origin", &options->origin_text, "NAME",
               "origin for --zone");
  parser.value("--now", &options->now, "validation epoch for --zone");
  parser.flag("--self-check", &options->self_check,
              "verify the linter against injected ground truth");
  parser.flag("--rules", &options->list_rules, "list lint rules and exit");
  return parser;
}

int list_rules() {
  for (const lint::RuleInfo& rule : lint::all_rules()) {
    std::printf("%s  %-24s  %-7s  %s\n", std::string(rule.code).c_str(),
                std::string(rule.name).c_str(),
                std::string(to_string(rule.severity)).c_str(),
                std::string(rule.rationale).c_str());
  }
  return 0;
}

int emit(const lint::LintReport& report, const CliOptions& options) {
  if (!options.output.json_path.empty()) {
    if (!cli::write_file(options.output.json_path,
                         lint::report_to_json(report))) {
      std::fprintf(stderr, "cannot write %s\n",
                   options.output.json_path.c_str());
      return 3;
    }
  }
  if (!options.output.metrics_json_path.empty()) {
    // The lint "registry": zones checked, total findings, and a per-rule
    // labeled family — the same shape the survey metrics dump has, so one
    // consumer script reads both.
    obs::MetricsRegistry metrics;
    metrics.counter("dnsboot_lint_zones_checked")
        .add(report.zones_checked());
    metrics.counter("dnsboot_lint_findings_total").add(report.size());
    for (const auto& [rule, count] : report.counts_by_rule()) {
      metrics.counter("dnsboot_lint_findings", "rule",
                      lint::rule_info(rule).code)
          .add(count);
    }
    if (!cli::write_file(options.output.metrics_json_path,
                         metrics.to_json())) {
      std::fprintf(stderr, "cannot write %s\n",
                   options.output.metrics_json_path.c_str());
      return 3;
    }
  }
  if (options.output.quiet) {
    // Summary line only (the last line of the text report).
    std::string text = lint::report_to_text(report);
    std::size_t cut = text.rfind('\n', text.size() - 2);
    std::fputs(cut == std::string::npos ? text.c_str()
                                        : text.c_str() + cut + 1,
               stdout);
  } else {
    std::fputs(lint::report_to_text(report).c_str(), stdout);
  }
  return report.clean(lint::Severity::kError) ? 0 : 1;
}

int lint_zone_file(const CliOptions& options) {
  std::ifstream in(options.zone_path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", options.zone_path.c_str());
    return 3;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();

  auto origin = dns::Name::from_text(options.origin_text);
  if (!origin.ok()) {
    std::fprintf(stderr, "bad origin: %s\n",
                 origin.error().to_string().c_str());
    return 2;
  }
  auto zone =
      dns::parse_zone(buffer.str(), dns::ZoneFileOptions{*origin, 3600});
  if (!zone.ok()) {
    std::fprintf(stderr, "cannot parse %s: %s\n", options.zone_path.c_str(),
                 zone.error().to_string().c_str());
    return 3;
  }

  lint::ZoneLintOptions zone_options;
  zone_options.now = options.now;
  return emit(lint::lint_zone(*zone, zone_options), options);
}

int lint_world(const CliOptions& options) {
  ecosystem::WorldSpec spec =
      ecosystem::seeded_spec(options.seed, 1.0 / options.scale_denom);
  spec.config.inject_pathologies = options.pathologies;
  const ecosystem::World world = ecosystem::build_world(spec);
  const ecosystem::Ecosystem& eco = world.eco;
  if (!options.output.quiet) {
    std::printf("dnsboot-lint: %zu zones on %zu servers (scale 1/%.0f, "
                "seed %llu)\n",
                eco.truth.size(), eco.servers.size(), options.scale_denom,
                static_cast<unsigned long long>(options.seed));
  }
  auto view = lint::collect_view(eco.servers, eco.now);
  return emit(lint::lint_ecosystem(view), options);
}

int self_check(const CliOptions& options) {
  bool pass = true;

  // Positive half: the paper world with every pathology class injected —
  // the linter must flag 100% of the zones in every class.
  {
    const ecosystem::World world = ecosystem::build_world(
        ecosystem::seeded_spec(options.seed, 1.0 / options.scale_denom));
    const ecosystem::Ecosystem& eco = world.eco;
    auto view = lint::collect_view(eco.servers, eco.now);
    auto report = lint::lint_ecosystem(view);
    auto check = lint::cross_check(eco, report);
    std::printf("self-check: paper world, %zu zones, %zu findings\n",
                eco.truth.size(), report.size());
    for (const lint::CrossCheckClass& cls : check.classes) {
      std::printf("  %-28s injected %3zu  caught %3zu  %s\n", cls.name.c_str(),
                  cls.injected.size(), cls.caught(),
                  cls.missed.empty() ? "ok" : "MISSED");
      for (const std::string& zone : cls.missed) {
        std::printf("    missed: %s\n", zone.c_str());
      }
    }
    pass = pass && check.all_caught();
  }

  // Rollover half: a world of key-lifecycle snapshots. Every botched
  // scenario class must be caught by its L107–L110 rule, while the
  // mid-rollover zones (correct RFC 7583 operator behavior in flight) must
  // produce no findings at all.
  {
    const ecosystem::World world = ecosystem::build_world(
        {.config = lint::rollover_world_config(options.seed),
         .network_seed = options.seed ^ 0x5011});
    const ecosystem::Ecosystem& eco = world.eco;
    auto view = lint::collect_view(eco.servers, eco.now);
    auto report = lint::lint_ecosystem(view);
    auto check = lint::cross_check(eco, report);
    std::printf("self-check: rollover world, %zu zones, %zu findings\n",
                eco.truth.size(), report.size());
    for (const lint::CrossCheckClass& cls : check.classes) {
      if (cls.name.rfind("roll-", 0) != 0) continue;
      std::printf("  %-28s injected %3zu  caught %3zu  %s\n", cls.name.c_str(),
                  cls.injected.size(), cls.caught(),
                  cls.missed.empty() ? "ok" : "MISSED");
      for (const std::string& zone : cls.missed) {
        std::printf("    missed: %s\n", zone.c_str());
      }
    }
    pass = pass && check.all_caught();
    std::set<std::string> mid_zones;
    for (const auto& [zone, truth] : eco.truth) {
      if (truth.rollover == kasp::RolloverScenario::kMidZskPrepublish ||
          truth.rollover == kasp::RolloverScenario::kMidKskDoubleDs) {
        mid_zones.insert(zone);
      }
    }
    for (const lint::Finding& finding : report.findings()) {
      if (mid_zones.count(finding.zone.canonical_text()) == 0) continue;
      std::printf("  mid-rollover zone flagged: %s %s (%s)\n",
                  std::string(lint::rule_info(finding.rule).code).c_str(),
                  finding.zone.canonical_text().c_str(),
                  finding.detail.c_str());
      pass = false;
    }
  }

  // Negative half: a misconfiguration-free world must lint clean.
  {
    const ecosystem::World world = ecosystem::build_world(
        {.config = lint::clean_world_config(options.seed),
         .network_seed = options.seed ^ 0xc1ea9});
    const ecosystem::Ecosystem& eco = world.eco;
    auto view = lint::collect_view(eco.servers, eco.now);
    auto report = lint::lint_ecosystem(view);
    std::printf("self-check: clean world, %zu zones, %zu findings\n",
                eco.truth.size(), report.size());
    if (!report.empty()) {
      std::fputs(lint::report_to_text(report).c_str(), stdout);
      pass = false;
    }
  }

  std::printf("self-check: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  cli::FlagParser parser = make_parser(&options);
  if (!parser.parse(argc, argv)) return 2;
  if (parser.help_requested()) return 0;
  if (!options.zone_path.empty() && options.origin_text.empty()) {
    std::fprintf(stderr, "--zone requires --origin\n");
    return 2;
  }
  if (options.list_rules) return list_rules();
  if (options.self_check) return self_check(options);
  if (!options.zone_path.empty()) return lint_zone_file(options);
  return lint_world(options);
}
