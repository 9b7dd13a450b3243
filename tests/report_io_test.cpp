#include <gtest/gtest.h>

#include "analysis/report_io.hpp"
#include "ecosystem/plan.hpp"
#include "net/simnet.hpp"

namespace dnsboot::analysis {
namespace {

dns::Name name_of(const std::string& text) {
  return std::move(dns::Name::from_text(text)).take();
}

SurveyRunResult run_small_survey() {
  net::SimNetwork network(55);
  network.set_default_link(
      net::LinkModel{net::kMillisecond, 0, 0.0});
  ecosystem::OperatorProfile op;
  op.name = "IoOp";
  op.ns_domains = {"ioop.net"};
  op.tld = "net";
  op.customer_tld = "com";
  op.domains = 12;
  op.secured = 3;
  op.islands = 2;
  op.cds_domains = 5;
  op.island_cds_fraction = 1.0;
  op.publishes_signal = true;
  ecosystem::EcosystemConfig config;
  config.scale = 1.0;
  config.operators = {op};
  config.inject_pathologies = false;
  auto eco = ecosystem::build_shard(
      network, config, ecosystem::make_ecosystem_plan(config), 0, 1);
  SurveyRunOptions options;
  options.keep_reports = true;
  return run_survey(network, eco, options);
}

// Minimal well-formedness check: balanced braces/quotes outside strings.
bool json_braces_balanced(const std::string& json) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    char c = json[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{') ++depth;
    if (c == '}') --depth;
    if (depth < 0) return false;
  }
  return depth == 0 && !in_string;
}

TEST(ReportIo, JsonIsWellFormedAndCarriesHeadline) {
  auto result = run_small_survey();
  std::string json = survey_to_json(result);
  EXPECT_TRUE(json_braces_balanced(json)) << json;
  EXPECT_NE(json.find("\"headline\""), std::string::npos);
  EXPECT_NE(json.find("\"total\":12"), std::string::npos);
  EXPECT_NE(json.find("\"secured\":3"), std::string::npos);
  EXPECT_NE(json.find("\"islands\":2"), std::string::npos);
  EXPECT_NE(json.find("\"ab_by_operator\""), std::string::npos);
  EXPECT_NE(json.find("\"IoOp\""), std::string::npos);
  // No trailing commas before closing braces.
  EXPECT_EQ(json.find(",}"), std::string::npos);
}

TEST(ReportIo, CsvHasOneRowPerZonePlusHeader) {
  auto result = run_small_survey();
  std::string csv = reports_to_csv(result.reports);
  std::size_t lines = 0;
  for (char c : csv) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, result.reports.size() + 1);
  EXPECT_EQ(csv.rfind("zone,tld,resolved,", 0), 0u);
  EXPECT_NE(csv.find("ioop-0.com."), std::string::npos);
  EXPECT_NE(csv.find("secure-island"), std::string::npos);
  EXPECT_NE(csv.find("already-secured"), std::string::npos);
}

TEST(ReportIo, CsvEscapesCommasAndQuotes) {
  ZoneReport report;
  report.zone = name_of("weird.example.");
  report.tld = name_of("example.");
  report.resolved = true;
  report.operator_name = "Evil, \"Inc\"";
  std::string csv = reports_to_csv({report});
  EXPECT_NE(csv.find("\"Evil, \"\"Inc\"\"\""), std::string::npos);
}

}  // namespace
}  // namespace dnsboot::analysis
