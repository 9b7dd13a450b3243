// dnsboot-audit unit tests: the lexer's literal/comment stripping and
// waiver extraction, the scope-aware rule matchers against the built-in
// self-check fixtures, and — the gate that matters — a zero-findings audit
// of this repository's own src/ and tools/ trees.
#include "audit/auditor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "audit/report.hpp"
#include "audit/rules.hpp"
#include "audit/selfcheck.hpp"
#include "audit/source.hpp"

namespace dnsboot::audit {
namespace {

TEST(AuditRules, RegistryIsTotalAndLookupsWork) {
  EXPECT_EQ(all_rules().size(), 7u);
  for (const RuleInfo& rule : all_rules()) {
    EXPECT_EQ(&rule_info(rule.id), &rule);
  }
}

TEST(AuditLexer, BlanksCommentsAndLiterals) {
  SourceFile file = lex_source("t.cpp",
                               "int a = 1; // time(nullptr)\n"
                               "const char* s = \"rand()\";\n"
                               "/* volatile */ int b = 2;\n");
  ASSERT_EQ(file.lines.size(), 3u);
  EXPECT_EQ(file.code(1).find("time"), std::string::npos);
  EXPECT_EQ(file.code(2).find("rand"), std::string::npos);
  EXPECT_EQ(file.code(3).find("volatile"), std::string::npos);
  EXPECT_NE(file.code(3).find("int b"), std::string::npos);
}

TEST(AuditLexer, RawStringsAndDigitSeparators) {
  SourceFile file = lex_source("t.cpp",
                               "auto s = R\"(srand(7);)\";\n"
                               "long n = 1'000'000;\n");
  EXPECT_EQ(file.code(1).find("srand"), std::string::npos);
  // The digit separator must not open a char literal that swallows code.
  EXPECT_NE(file.code(2).find("000"), std::string::npos);
}

TEST(AuditLexer, PreprocessorLinesAreSkippedByTokenizer) {
  SourceFile file = lex_source("t.cpp",
                               "#define NOW() time(nullptr)\n"
                               "int x = 0;\n");
  EXPECT_TRUE(file.lines[0].preprocessor);
  EXPECT_FALSE(file.lines[1].preprocessor);
  for (const Token& token : tokenize(file)) {
    EXPECT_NE(token.text, "time");
  }
}

TEST(AuditLexer, WaiverCoversItsLineAndTheNext) {
  SourceFile file = lex_source("t.cpp",
                               "// audit-allow: A004 handoff documented\n"
                               "a.store(1, std::memory_order_relaxed);\n"
                               "b.store(1, std::memory_order_relaxed);\n");
  EXPECT_TRUE(file.waived("A004", 1));
  EXPECT_TRUE(file.waived("A004", 2));
  EXPECT_FALSE(file.waived("A004", 3));
  EXPECT_FALSE(file.waived("A002", 2));
}

TEST(AuditLexer, WaiverListsMultipleRules) {
  SourceFile file =
      lex_source("t.cpp", "int x;  // audit-allow: A002, A004 seeded seam\n");
  EXPECT_TRUE(file.waived("A002", 1));
  EXPECT_TRUE(file.waived("A004", 1));
  EXPECT_FALSE(file.waived("A001", 1));
}

TEST(AuditorRules, SelfCheckFixturesBehave) {
  for (const SelfCheckCase& check : self_check_cases()) {
    AuditReport report = audit_source(
        std::string("selfcheck/") + check.name + ".cpp", check.source);
    EXPECT_EQ(report.count(check.rule) > 0, check.should_fire)
        << check.name << ":\n"
        << report_to_text(report);
    EXPECT_EQ(report.size(), report.count(check.rule))
        << check.name << " tripped a rule it was not aimed at:\n"
        << report_to_text(report);
  }
  EXPECT_TRUE(run_self_check(/*quiet=*/true));
}

TEST(AuditorRules, RelaxedWriteAnchorsOnWrappedCall) {
  // clang-format wraps long argument lists: the memory_order token can sit
  // two lines below the member call it belongs to.
  AuditReport report = audit_source("t.cpp",
                                    "#include <atomic>\n"
                                    "void f(std::atomic<long>& v, long x) {\n"
                                    "  v.compare_exchange_strong(\n"
                                    "      x, x + 1,\n"
                                    "      std::memory_order_relaxed);\n"
                                    "}\n");
  ASSERT_EQ(report.count(RuleId::kRelaxedAtomicWrite), 1u);
  EXPECT_EQ(report.findings()[0].line, 3u);  // the call, not the argument
}

TEST(AuditorRules, BlessedFilesMayWriteRelaxed) {
  const char* source =
      "#include <atomic>\n"
      "void f(std::atomic<long>& v) {\n"
      "  v.store(1, std::memory_order_relaxed);\n"
      "}\n";
  EXPECT_EQ(audit_source("repo/src/obs/metrics.hpp", source).size(), 0u);
  EXPECT_EQ(audit_source("repo/src/obs/other.hpp", source).size(), 1u);
}

TEST(AuditorRules, FullWorldCopyPatterns) {
  // Range-for by value copies every element — the pattern A007 exists for.
  AuditReport by_value = audit_source(
      "t.cpp",
      "struct Zone { int records = 0; };\n"
      "int total(const Zone* zones, int n) {\n"
      "  int sum = 0;\n"
      "  for (Zone z : {zones[0], zones[1]}) sum += z.records;\n"
      "  (void)n;\n"
      "  return sum;\n"
      "}\n");
  EXPECT_EQ(by_value.count(RuleId::kFullWorldCopy), 1u)
      << report_to_text(by_value);

  // Constructor calls, prvalue returns, references, pointers and
  // shared_ptr storage are all legal.
  AuditReport legal = audit_source(
      "t.cpp",
      "#include <memory>\n"
      "#include <string>\n"
      "struct Zone { explicit Zone(std::string o); int records = 0; };\n"
      "Zone parse_zone(const std::string& text);\n"
      "int count(const Zone& zone, Zone* scratch) {\n"
      "  Zone fresh(std::string(\"example.\"));\n"
      "  Zone parsed = parse_zone(std::string(\"x\"));\n"
      "  auto shared = std::make_shared<Zone>(std::string(\"y\"));\n"
      "  (void)scratch;\n"
      "  return zone.records + fresh.records + parsed.records;\n"
      "}\n");
  EXPECT_EQ(legal.count(RuleId::kFullWorldCopy), 0u) << report_to_text(legal);

  // The builder/plan layer is blessed: it owns the values it builds.
  const char* copy =
      "struct Ecosystem { int zones = 0; };\n"
      "int dup(const Ecosystem& in) {\n"
      "  Ecosystem copy = in;\n"
      "  return copy.zones;\n"
      "}\n";
  EXPECT_EQ(audit_source("repo/src/ecosystem/plan.cpp", copy).size(), 0u);
  EXPECT_EQ(audit_source("repo/src/analysis/parallel.cpp", copy)
                .count(RuleId::kFullWorldCopy),
            1u);
}

TEST(AuditReportTest, JsonShapeAndSeverityGate) {
  AuditReport report;
  report.note_file_checked();
  EXPECT_TRUE(report.clean());
  report.add(RuleId::kThreadDetach, "x.cpp", 7, "detached");
  EXPECT_FALSE(report.clean(Severity::kError));
  std::string json = report_to_json(report);
  EXPECT_NE(json.find("\"rule\":\"A006\""), std::string::npos);
  EXPECT_NE(json.find("\"line\":7"), std::string::npos);
  EXPECT_NE(json.find("\"files_checked\":1"), std::string::npos);
}

#if defined(DNSBOOT_SOURCE_DIR)
// The acceptance gate: the repository's own src/ and tools/ trees audit
// clean. Every deliberate exception carries a line-anchored waiver, so a
// regression anywhere in the concurrency/determinism contract fails here.
TEST(AuditorRules, RepositorySourcesAuditClean) {
  namespace fs = std::filesystem;
  AuditReport report;
  std::vector<std::string> files;
  for (const char* root : {"/src", "/tools"}) {
    for (const auto& entry : fs::recursive_directory_iterator(
             std::string(DNSBOOT_SOURCE_DIR) + root)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".cpp" && ext != ".hpp" && ext != ".cc" && ext != ".h") {
        continue;
      }
      files.push_back(entry.path().generic_string());
    }
  }
  std::sort(files.begin(), files.end());
  ASSERT_GT(files.size(), 50u);  // the walk found the real tree
  for (const std::string& path : files) {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    report.merge(audit_source(path, buffer.str()));
  }
  EXPECT_TRUE(report.empty()) << report_to_text(report);
}
#endif

}  // namespace
}  // namespace dnsboot::audit
