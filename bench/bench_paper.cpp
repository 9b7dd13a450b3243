// Reproduces the paper's evaluation (§4.1–§4.4) from one survey: build the
// paper-calibrated world once, scan and classify it once, and print each
// table and figure next to the paper's values, in paper order — §4.1 +
// Table 1, Table 2, the §4.2 CDS findings, Figure 1, and Table 3 + §4.4.
//
// Scale: measured counts are rescaled back to full-population equivalents
// (measured / scale) before comparison, so the printed numbers are directly
// comparable with the paper's. --scale-denom N (default 4000, a 71.9 k-zone
// population) sets the scale to 1/N.
#include <cstdio>
#include <string>

#include "analysis/survey.hpp"
#include "base/strings.hpp"
#include "ecosystem/world.hpp"
#include "tools/cli.hpp"

namespace {

using namespace dnsboot;

struct PaperSurvey {
  double scale = 0;  // population / the paper's population
  analysis::SurveyRunResult result;

  // Rescale a measured count to the full population for paper comparison.
  double rescale(std::uint64_t measured) const {
    return static_cast<double>(measured) / scale;
  }
};

// "label | paper | measured (rescaled) | raw" row printing. Small error
// classes are injected with a floor of 1 zone, so their rescaled value
// overstates at coarse scales — the raw count is printed alongside.
void print_header(const std::string& title) {
  std::printf("\n== %s ==\n", title.c_str());
  std::printf("%-44s %15s %18s %10s\n", "row", "paper", "measured(x scale)",
              "raw");
}

void print_row(const std::string& label, double paper,
               double measured_rescaled) {
  std::printf("%-44s %15s %18s\n", label.c_str(),
              format_count(static_cast<std::uint64_t>(paper + 0.5)).c_str(),
              format_count(static_cast<std::uint64_t>(measured_rescaled + 0.5))
                  .c_str());
}

void print_row_raw(const PaperSurvey& run, const std::string& label,
                   double paper, std::uint64_t measured_raw) {
  std::printf("%-44s %15s %18s %10llu\n", label.c_str(),
              format_count(static_cast<std::uint64_t>(paper + 0.5)).c_str(),
              format_count(
                  static_cast<std::uint64_t>(run.rescale(measured_raw) + 0.5))
                  .c_str(),
              static_cast<unsigned long long>(measured_raw));
}

void print_pct_row(const std::string& label, double paper_pct,
                   double measured_pct) {
  std::printf("%-44s %14.2f%% %17.2f%%\n", label.c_str(), paper_pct,
              measured_pct);
}

// Zones the survey could resolve: the denominator of every share.
double resolved(const analysis::Survey& s) {
  return static_cast<double>(s.total - s.unresolved);
}

// §4.1 + Table 1: DNSSEC status overall and per top-20 operator.

// Paper Table 1 reference values: domains, unsigned, secured, invalid, islands.
struct Table1Row {
  const char* name;
  double domains, unsig, secured, invalid, islands;
};
const Table1Row kPaperTable1[] = {
    {"GoDaddy", 56446359, 56326752, 107550, 8550, 3507},
    {"Cloudflare", 27790208, 26541985, 799377, 16694, 432152},
    {"Namecheap", 10252586, 10119070, 126601, 5300, 1615},
    {"GoogleDomains", 9931131, 5197647, 4496848, 109499, 127137},
    {"WIX", 7318524, 5989947, 74423, 2954, 1151200},
    {"Hostinger", 6561661, 6556301, 5360, 0, 0},
    {"AfterNIC", 5360163, 5349129, 11034, 0, 0},
    {"HiChina", 4637997, 4628516, 9481, 0, 0},
    {"AWS", 3698499, 3653373, 30005, 4345, 10776},
    {"GName", 3558801, 3556082, 1145, 1002, 572},
    {"NameBright", 3516303, 3515548, 73, 680, 2},
    {"SquareSpace", 2735515, 2710040, 24278, 1023, 174},
    {"OVH", 2662864, 1469425, 1169714, 2839, 20886},
    {"Sedo", 2340028, 2336383, 3645, 0, 0},
    {"BlueHost", 1976091, 1960552, 13188, 136, 1215},
    {"NameSilo", 1847474, 1846251, 1223, 0, 0},
    {"Alibaba", 1570903, 1564980, 2675, 1216, 2032},
    {"DynaDot", 1552892, 1552431, 461, 0, 0},
    {"Wordpress", 1549730, 1541499, 7824, 347, 60},
    {"SiteGround", 1535176, 1533874, 1302, 0, 0},
};

void print_table1(const PaperSurvey& run) {
  const analysis::Survey& s = run.result.survey;

  print_header("§4.1 headline (of 287.6 M scanned)");
  print_row("zones scanned", 287600000, run.rescale(s.total));
  print_row("without DNSSEC", 268100000, run.rescale(s.unsigned_zones));
  print_row("correctly signed (secured)", 15786327, run.rescale(s.secured));
  print_row("failing validation (invalid)", 640048, run.rescale(s.invalid));
  print_row("secure islands", 3122912, run.rescale(s.islands));

  const double total = resolved(s);
  print_header("§4.1 rates");
  print_pct_row("unsigned", 93.2, 100.0 * s.unsigned_zones / total);
  print_pct_row("secured", 5.5, 100.0 * s.secured / total);
  print_pct_row("invalid", 0.2, 100.0 * s.invalid / total);
  print_pct_row("islands", 1.1, 100.0 * s.islands / total);

  std::printf("\n== Table 1: top 20 operators (measured, rescaled) ==\n");
  std::printf("%-16s %12s %12s %11s %10s %10s\n", "operator", "domains",
              "unsigned", "secured", "invalid", "islands");
  for (const auto& row : analysis::top_rows_by_domains(s, 20)) {
    std::printf("%-16s %12.0f %12.0f %11.0f %10.0f %10.0f\n", row.name.c_str(),
                run.rescale(row.domains), run.rescale(row.unsigned_zones),
                run.rescale(row.secured), run.rescale(row.invalid),
                run.rescale(row.islands));
  }
  std::printf("\n== Table 1: paper reference ==\n");
  for (const auto& row : kPaperTable1) {
    std::printf("%-16s %12.0f %12.0f %11.0f %10.0f %10.0f\n", row.name,
                row.domains, row.unsig, row.secured, row.invalid, row.islands);
  }

  std::printf("\n# scan cost: %llu queries, %llu datagrams, %.2f simulated "
              "days, %.1f MiB on the wire\n",
              static_cast<unsigned long long>(run.result.engine_stats.queries),
              static_cast<unsigned long long>(run.result.datagrams),
              run.result.simulated_duration / (86400.0 * net::kSecond),
              run.result.bytes_on_wire / (1024.0 * 1024.0));
}

// Table 2: the top-20 operators publishing CDS.

struct Table2Row {
  const char* name;
  double cds;
  double pct;
  bool swiss;
};
// Paper Table 2. Note: the paper's WIX (1 326 336) and Google Domains
// (4 624 357) CDS counts are irreconcilable with the Figure 1 funnel (see
// DESIGN.md); the generator follows the funnel, so those two rows measure
// lower by construction.
const Table2Row kPaperTable2[] = {
    {"GoogleDomains", 4624357, 46.6, false},
    {"WIX", 1326336, 18.1, false},
    {"Cloudflare", 1232531, 4.4, false},
    {"SimplyCom", 218590, 96.8, false},
    {"GoDaddy", 111078, 0.2, false},
    {"cyon", 60981, 48.1, true},
    {"Gransy", 54690, 98.9, false},
    {"METANET", 54522, 70.5, true},
    {"Porkbun", 34989, 3.2, false},
    {"netim", 34586, 40.9, false},
    {"Gandi", 34486, 3.6, false},
    {"Webland", 26416, 76.3, true},
    {"greench", 24674, 16.8, true},
    {"WebHouse", 18766, 60.0, false},
    {"Va3Hosting", 13066, 98.3, false},
    {"HostFactory", 12897, 68.4, true},
    {"INWX", 11303, 7.8, false},
    {"OpenProvider", 10312, 79.5, false},
    {"AWARDIC", 8898, 99.9, false},
    {"ThreeDNS", 8112, 75.6, false},
};

bool is_swiss(const std::string& name) {
  for (const auto& row : kPaperTable2) {
    if (name == row.name) return row.swiss;
  }
  return false;
}

void print_table2(const PaperSurvey& run) {
  const analysis::Survey& s = run.result.survey;

  print_header("§4.2 headline");
  print_row("zones with CDS RRs", 10500000, run.rescale(s.with_cds));
  print_pct_row("share of all zones", 3.7, 100.0 * s.with_cds / resolved(s));

  std::printf("\n== Table 2: top 20 by CDS (measured, rescaled) ==\n");
  std::printf("%-16s %12s %8s %6s\n", "operator", "dom.w.CDS", "pct", "CH");
  int swiss_count = 0;
  for (const auto& row : analysis::top_rows_by_cds(s, 20)) {
    double pct = row.domains > 0
                     ? 100.0 * static_cast<double>(row.with_cds) /
                           static_cast<double>(row.domains)
                     : 0.0;
    bool swiss = is_swiss(row.name);
    if (swiss) ++swiss_count;
    std::printf("%-16s %12.0f %7.1f%% %6s\n", row.name.c_str(),
                run.rescale(row.with_cds), pct, swiss ? "CH" : "");
  }
  std::printf("# Swiss operators in measured top 20: %d (paper: 6)\n",
              swiss_count);

  std::printf("\n== Table 2: paper reference ==\n");
  std::printf("%-16s %12s %8s %6s\n", "operator", "dom.w.CDS", "pct", "CH");
  for (const auto& row : kPaperTable2) {
    std::printf("%-16s %12.0f %7.1f%% %6s\n", row.name, row.cds, row.pct,
                row.swiss ? "CH" : "");
  }
}

// §4.2: the CDS error taxonomy.

void print_cds_findings(const PaperSurvey& run) {
  const analysis::Survey& s = run.result.survey;

  print_header("CDS in unsigned zones");
  print_row_raw(run, "unsigned zones with CDS RRs", 2854, s.unsigned_with_cds);
  print_row_raw(run, "...of which delete requests", 16,
                s.unsigned_with_cds_delete);

  print_header("CDS delete requests (RFC 8078 §4)");
  print_row("signed zones with delete CDS (ignored)", 3289,
            run.rescale(s.secured_with_cds_delete));
  print_row("secure islands with delete CDS", 165500,
            run.rescale(s.island_with_cds_delete));

  print_header("Lack of support for CDS (pre-RFC 3597 servers)");
  print_row("zones whose NSes fail CDS queries", 7600000,
            run.rescale(s.cds_query_failed));
  print_pct_row("share of all zones", 2.6,
                100.0 * s.cds_query_failed / resolved(s));

  print_header("CDS correctness among secure islands with CDS");
  print_row("islands with CDS RRs", 468000, run.rescale(s.island_with_cds));
  print_row("consistent across NSes (paper: of 179.9k)", 179400,
            run.rescale(s.island_cds_consistent));
  print_row_raw(run, "inconsistent across NSes", 5333,
                s.island_cds_inconsistent);
  print_row_raw(run, "...of which multi-operator setups", 4637,
                s.island_cds_inconsistent_multi_op);
  print_row_raw(run, "CDS matching no DNSKEY", 5, s.cds_no_matching_dnskey);
  print_row_raw(run, "invalid RRSIG over CDS", 3, s.cds_invalid_rrsig);
  std::printf(
      "# note: the paper reports 179.9k islands-with-CDS in §4.2 but 468k\n"
      "# across the §4.3 funnel branches; the generator follows the funnel\n"
      "# (Figure 1), so 'consistent' here is the funnel-sized complement.\n");

  if (s.island_with_cds > 0) {
    print_pct_row("consistency rate", 99.7,
                  100.0 * s.island_cds_consistent /
                      static_cast<double>(s.island_with_cds));
  }
  std::printf("\n# multi-operator zones in population: %llu\n",
              static_cast<unsigned long long>(s.multi_operator_zones));
}

// Figure 1: the bootstrapping-possibility funnel (§4.3).

void print_figure1(const PaperSurvey& run) {
  const analysis::Survey& s = run.result.survey;
  auto funnel = [&](analysis::BootstrapEligibility e) -> std::uint64_t {
    auto it = s.funnel.find(e);
    return it == s.funnel.end() ? 0 : it->second;
  };
  using E = analysis::BootstrapEligibility;

  print_header("Figure 1 funnel");
  print_row("scanned", 287600000, run.rescale(s.total));
  print_row("with DNSSEC", 19500993,
            run.rescale(s.secured + s.invalid + s.islands));
  print_row("already secured", 15786327,
            run.rescale(funnel(E::kAlreadySecured)));
  print_row("invalid DNSSEC", 640048, run.rescale(funnel(E::kInvalidDnssec)));
  print_row("islands without CDS", 2654912,
            run.rescale(funnel(E::kIslandWithoutCds)));
  print_row("islands, CDS delete", 165010,
            run.rescale(funnel(E::kIslandCdsDelete)));
  print_row_raw(run, "islands, invalid CDS", 5,
                funnel(E::kIslandCdsMismatch));
  print_row("possible to bootstrap", 302985,
            run.rescale(funnel(E::kBootstrappable)));

  const double total = resolved(s);
  print_header("key shares");
  print_pct_row("cannot benefit from AB", 100.0 * 271600000 / 287600000,
                100.0 *
                    (total - funnel(E::kAlreadySecured) -
                     funnel(E::kBootstrappable)) /
                    total);
  print_pct_row("possible to bootstrap", 100.0 * 302985 / 287600000,
                100.0 * funnel(E::kBootstrappable) / total);

  std::printf(
      "\n# Key takeaway check (§4.3): the AB deployment space is ~0.1%%\n"
      "# of the population; the barrier is DNSSEC adoption itself.\n");
}

// Table 3 + §4.4: RFC 9615 signaling and its correctness.

struct Table3Column {
  const char* name;
  double with_signal, already_secured, cannot, deletion, invalid, potential,
      incorrect, correct;
};
const Table3Column kPaperTable3[] = {
    {"Cloudflare", 1229568, 799169, 160268, 159503, 765, 270131, 34, 270097},
    {"deSEC", 7314, 5439, 20, 0, 20, 1855, 155, 1700},
    {"Glauca", 290, 233, 8, 7, 1, 49, 1, 48},
    {"Others", 279, 113, 143, 20, 123, 23, 18, 5},
    {"Total", 1237451, 804954, 160439, 159530, 909, 272058, 207, 271828},
};

const char* const kTable3Format =
    "%-14s %10.0f %10.0f %9.0f %9.0f %8.0f %10.0f %8.0f %10.0f\n";
const char* const kTable3Header =
    "%-14s %10s %10s %9s %9s %8s %10s %8s %10s\n";

void print_table3_header() {
  std::printf(kTable3Header, "operator", "w.signal", "secured", "cannot",
              "delete", "invalid", "potential", "incorr.", "correct");
}

void print_column(const PaperSurvey& run, const char* name,
                  const analysis::AbColumn& c) {
  std::printf(kTable3Format, name, run.rescale(c.with_signal),
              run.rescale(c.already_secured), run.rescale(c.cannot_bootstrap),
              run.rescale(c.deletion_request), run.rescale(c.invalid_dnssec),
              run.rescale(c.potential), run.rescale(c.signal_incorrect),
              run.rescale(c.signal_correct));
}

void print_table3(const PaperSurvey& run) {
  const analysis::Survey& s = run.result.survey;

  std::printf("\n== Table 3 (measured, rescaled) ==\n");
  print_table3_header();
  // The named AB operators first, everything else folded into Others.
  analysis::AbColumn others;
  for (const auto& [name, column] : s.ab_by_operator) {
    if (name == "Cloudflare" || name == "deSEC" || name == "Glauca") {
      print_column(run, name.c_str(), column);
    } else {
      others += column;
    }
  }
  print_column(run, "Others", others);
  print_column(run, "Total", s.ab_total);

  std::printf("\n== Table 3 (paper reference) ==\n");
  print_table3_header();
  for (const auto& row : kPaperTable3) {
    std::printf(kTable3Format, row.name, row.with_signal, row.already_secured,
                row.cannot, row.deletion, row.invalid, row.potential,
                row.incorrect, row.correct);
  }

  print_header("§4.4 signal violations among potential zones");
  print_row_raw(run, "signaling RRs not under every NS", 206,
                s.violation_not_under_every_ns);
  print_row_raw(run, "zone cut in the signaling path", 1,
                s.violation_zone_cut);
  print_row_raw(run, "signaling zone DNSSEC invalid", 1,
                s.violation_chain_invalid);
  print_row_raw(run, "signaling NSes disagree / stale trees", 32,
                s.violation_mismatch + s.violation_inconsistent);

  if (s.ab_total.potential > 0) {
    print_header("headline");
    print_pct_row("signal correct among potential", 99.9,
                  100.0 * s.ab_total.signal_correct /
                      static_cast<double>(s.ab_total.potential));
  }
  std::printf("\n# Key takeaway check (§4.4): only 3 DNS operators implement\n"
              "# AB at scale, but those that do implement it correctly for\n"
              "# ~99.9%% of eligible zones.\n");
}

}  // namespace

int main(int argc, char** argv) {
  double scale_denom = 4000;
  cli::FlagParser parser(
      "bench_paper — the paper's §4.1–§4.4 tables and Figure 1 from one\n"
      "survey, each next to the paper's values");
  parser.value("--scale-denom", &scale_denom,
               "world scale divisor (zones ~ 1/N of the paper's)", 1e-9);
  if (!parser.parse(argc, argv)) return 2;
  if (parser.help_requested()) return 0;

  std::printf("bench_paper — §4.1–§4.4: Tables 1–3, §4.2 CDS findings, "
              "Figure 1\n");
  PaperSurvey run;
  run.scale = 1.0 / scale_denom;
  ecosystem::WorldSpec spec;
  spec.config.scale = run.scale;
  spec.network_seed = 20250705;
  const ecosystem::World world = ecosystem::build_world(spec);
  std::printf("# population: %zu zones (scale 1/%.0f), %llu signed\n",
              world.eco.scan_targets.size(), 1.0 / run.scale,
              static_cast<unsigned long long>(world.eco.zones_signed));
  run.result = analysis::run_survey(*world.network, world.eco);

  print_table1(run);
  print_table2(run);
  print_cds_findings(run);
  print_figure1(run);
  print_table3(run);
  return 0;
}
