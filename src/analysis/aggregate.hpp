// SurveyAggregator — folds ZoneReports into the aggregate statistics of the
// paper's evaluation: the §4.1 headline, Table 1, Table 2, the §4.2 CDS error
// taxonomy, the Figure 1 funnel, and Table 3.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "analysis/zone_report.hpp"

namespace dnsboot::analysis {

struct OperatorRow {
  std::string name;
  std::uint64_t domains = 0;
  std::uint64_t unsigned_zones = 0;
  std::uint64_t secured = 0;
  std::uint64_t invalid = 0;
  std::uint64_t islands = 0;
  std::uint64_t with_cds = 0;

  // Merge a shard's row into this one (`name` must match or be empty).
  void operator+=(const OperatorRow& other);
};

// One Table 3 column.
struct AbColumn {
  std::uint64_t with_signal = 0;
  std::uint64_t already_secured = 0;
  std::uint64_t cannot_bootstrap = 0;   // delete + invalid
  std::uint64_t deletion_request = 0;
  std::uint64_t invalid_dnssec = 0;
  std::uint64_t potential = 0;          // incorrect + correct
  std::uint64_t signal_incorrect = 0;
  std::uint64_t signal_correct = 0;

  void operator+=(const AbColumn& other);
};

struct Survey {
  // §4.1 headline.
  std::uint64_t total = 0;
  std::uint64_t unresolved = 0;
  std::uint64_t unsigned_zones = 0;
  std::uint64_t secured = 0;
  std::uint64_t invalid = 0;
  std::uint64_t islands = 0;

  // §4.2 CDS.
  std::uint64_t with_cds = 0;
  std::uint64_t cds_query_failed = 0;
  std::uint64_t unsigned_with_cds = 0;
  std::uint64_t unsigned_with_cds_delete = 0;
  std::uint64_t secured_with_cds_delete = 0;
  std::uint64_t island_with_cds = 0;
  std::uint64_t island_with_cds_delete = 0;
  std::uint64_t island_cds_consistent = 0;
  std::uint64_t island_cds_inconsistent = 0;
  std::uint64_t island_cds_inconsistent_multi_op = 0;
  std::uint64_t cds_no_matching_dnskey = 0;
  std::uint64_t cds_invalid_rrsig = 0;

  // Figure 1 funnel.
  std::map<BootstrapEligibility, std::uint64_t> funnel;

  // Table 3 (per operator + total).
  std::map<std::string, AbColumn> ab_by_operator;
  AbColumn ab_total;
  // §4.4 violation taxonomy among potential zones.
  std::uint64_t violation_zone_cut = 0;
  std::uint64_t violation_not_under_every_ns = 0;
  std::uint64_t violation_chain_invalid = 0;
  std::uint64_t violation_inconsistent = 0;
  std::uint64_t violation_mismatch = 0;

  // Per-operator rows (Tables 1 and 2).
  std::map<std::string, OperatorRow> operators;

  // Scan-cost accounting (App. D ablation).
  std::uint64_t endpoints_queried = 0;
  std::uint64_t endpoints_available = 0;
  std::uint64_t pool_sampled_zones = 0;
  std::uint64_t multi_operator_zones = 0;

  // Scan-robustness accounting: how much of the survey was actually
  // observed, and how much of the shortfall is scan-side (transient) versus
  // operator-side (permanent).
  std::uint64_t scan_complete = 0;
  std::uint64_t scan_degraded = 0;
  std::uint64_t scan_not_observed = 0;  // transient: scan could not observe
  std::uint64_t scan_unreachable = 0;   // permanent: delegation broken
  std::uint64_t probes_failed = 0;
  std::uint64_t probes_failed_transient = 0;
  std::uint64_t zones_under_attack = 0;  // engine flagged an endpoint mid-scan

  // Key-lifecycle rollup (RFC 7583 provenance on each report).
  std::uint64_t zones_mid_rollover = 0;
  std::uint64_t zones_broken_rollover = 0;

  // Merge another survey into this one: every counter sums, the maps merge
  // key-wise. Used by the sharded executor to fold per-shard surveys into
  // one aggregate; merging in a fixed shard order keeps the result
  // deterministic regardless of how many threads ran the shards.
  void operator+=(const Survey& other);
};

// The top-n operator rows of Table 1 (by domains) and Table 2 (by zones
// with CDS), derived from a survey's operator map, merged or not.
std::vector<OperatorRow> top_rows_by_domains(const Survey& survey,
                                             std::size_t n);
std::vector<OperatorRow> top_rows_by_cds(const Survey& survey, std::size_t n);

class SurveyAggregator {
 public:
  void add(const ZoneReport& report);
  const Survey& survey() const { return survey_; }

 private:
  Survey survey_;
};

}  // namespace dnsboot::analysis
