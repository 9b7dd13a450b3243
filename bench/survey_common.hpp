// Shared harness for the table/figure reproduction benches: build the
// paper-calibrated ecosystem at the configured scale, run the full survey,
// and provide side-by-side "paper vs measured" table printing.
//
// Scale: measured counts are rescaled back to full-population equivalents
// (measured / scale) before comparison, so the printed numbers are directly
// comparable with the paper's. Control with DNSBOOT_SCALE_DENOM (default
// 4000, i.e. a 71.9 k-zone population).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "analysis/survey.hpp"
#include "base/strings.hpp"
#include "ecosystem/world.hpp"

namespace dnsboot::bench {

struct SurveyFixture {
  double scale = 1.0 / 4000;
  analysis::SurveyRunResult result;

  // Rescale a measured count to the full population for paper comparison.
  double rescale(std::uint64_t measured) const {
    return static_cast<double>(measured) / scale;
  }
};

inline double scale_from_env() {
  const char* env = std::getenv("DNSBOOT_SCALE_DENOM");
  if (env == nullptr) return 1.0 / 4000;
  double denom = std::atof(env);
  return denom > 0 ? 1.0 / denom : 1.0 / 4000;
}

inline SurveyFixture run_paper_survey(bool keep_reports = false) {
  SurveyFixture fixture;
  fixture.scale = scale_from_env();

  ecosystem::WorldSpec spec;
  spec.config.scale = fixture.scale;
  spec.network_seed = 20250705;
  const ecosystem::World world = ecosystem::build_world(spec);
  const ecosystem::Ecosystem& eco = world.eco;
  std::printf("# population: %zu zones (scale 1/%.0f), %llu signed\n",
              eco.scan_targets.size(), 1.0 / fixture.scale,
              static_cast<unsigned long long>(eco.zones_signed));

  analysis::SurveyRunOptions options;
  options.keep_reports = keep_reports;
  fixture.result =
      analysis::run_survey(*world.network, eco.hints, eco.scan_targets,
                           eco.ns_domain_to_operator, eco.now, options);
  return fixture;
}

// "label | paper | measured (rescaled) | raw" row printing. Small error
// classes are injected with a floor of 1 zone, so their rescaled value
// overstates at coarse scales — the raw count is printed alongside.
inline void print_header(const std::string& title) {
  std::printf("\n== %s ==\n", title.c_str());
  std::printf("%-44s %15s %18s %10s\n", "row", "paper", "measured(x scale)",
              "raw");
}

inline void print_row(const std::string& label, double paper,
                      double measured_rescaled) {
  std::printf("%-44s %15s %18s\n", label.c_str(),
              format_count(static_cast<std::uint64_t>(paper + 0.5)).c_str(),
              format_count(static_cast<std::uint64_t>(measured_rescaled + 0.5))
                  .c_str());
}

inline void print_row_raw(const SurveyFixture& fixture,
                          const std::string& label, double paper,
                          std::uint64_t measured_raw) {
  std::printf("%-44s %15s %18s %10llu\n", label.c_str(),
              format_count(static_cast<std::uint64_t>(paper + 0.5)).c_str(),
              format_count(static_cast<std::uint64_t>(
                               fixture.rescale(measured_raw) + 0.5))
                  .c_str(),
              static_cast<unsigned long long>(measured_raw));
}

inline void print_pct_row(const std::string& label, double paper_pct,
                          double measured_pct) {
  std::printf("%-44s %14.2f%% %17.2f%%\n", label.c_str(), paper_pct,
              measured_pct);
}

}  // namespace dnsboot::bench
