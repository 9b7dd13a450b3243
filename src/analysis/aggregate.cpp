#include "analysis/aggregate.hpp"

#include <algorithm>

namespace dnsboot::analysis {

void AbColumn::operator+=(const AbColumn& other) {
  with_signal += other.with_signal;
  already_secured += other.already_secured;
  cannot_bootstrap += other.cannot_bootstrap;
  deletion_request += other.deletion_request;
  invalid_dnssec += other.invalid_dnssec;
  potential += other.potential;
  signal_incorrect += other.signal_incorrect;
  signal_correct += other.signal_correct;
}

void OperatorRow::operator+=(const OperatorRow& other) {
  if (name.empty()) name = other.name;
  domains += other.domains;
  unsigned_zones += other.unsigned_zones;
  secured += other.secured;
  invalid += other.invalid;
  islands += other.islands;
  with_cds += other.with_cds;
}

void Survey::operator+=(const Survey& other) {
  total += other.total;
  unresolved += other.unresolved;
  unsigned_zones += other.unsigned_zones;
  secured += other.secured;
  invalid += other.invalid;
  islands += other.islands;

  with_cds += other.with_cds;
  cds_query_failed += other.cds_query_failed;
  unsigned_with_cds += other.unsigned_with_cds;
  unsigned_with_cds_delete += other.unsigned_with_cds_delete;
  secured_with_cds_delete += other.secured_with_cds_delete;
  island_with_cds += other.island_with_cds;
  island_with_cds_delete += other.island_with_cds_delete;
  island_cds_consistent += other.island_cds_consistent;
  island_cds_inconsistent += other.island_cds_inconsistent;
  island_cds_inconsistent_multi_op += other.island_cds_inconsistent_multi_op;
  cds_no_matching_dnskey += other.cds_no_matching_dnskey;
  cds_invalid_rrsig += other.cds_invalid_rrsig;

  for (const auto& [eligibility, count] : other.funnel) {
    funnel[eligibility] += count;
  }

  for (const auto& [op, column] : other.ab_by_operator) {
    ab_by_operator[op] += column;
  }
  ab_total += other.ab_total;
  violation_zone_cut += other.violation_zone_cut;
  violation_not_under_every_ns += other.violation_not_under_every_ns;
  violation_chain_invalid += other.violation_chain_invalid;
  violation_inconsistent += other.violation_inconsistent;
  violation_mismatch += other.violation_mismatch;

  for (const auto& [op, row] : other.operators) {
    operators[op] += row;
  }

  endpoints_queried += other.endpoints_queried;
  endpoints_available += other.endpoints_available;
  pool_sampled_zones += other.pool_sampled_zones;
  multi_operator_zones += other.multi_operator_zones;

  scan_complete += other.scan_complete;
  scan_degraded += other.scan_degraded;
  scan_not_observed += other.scan_not_observed;
  scan_unreachable += other.scan_unreachable;
  probes_failed += other.probes_failed;
  probes_failed_transient += other.probes_failed_transient;
  zones_under_attack += other.zones_under_attack;
  zones_mid_rollover += other.zones_mid_rollover;
  zones_broken_rollover += other.zones_broken_rollover;
}

void SurveyAggregator::add(const ZoneReport& report) {
  Survey& s = survey_;
  ++s.total;
  switch (report.scan_quality) {
    case ScanQuality::kComplete: ++s.scan_complete; break;
    case ScanQuality::kDegraded: ++s.scan_degraded; break;
    case ScanQuality::kNotObserved: ++s.scan_not_observed; break;
    case ScanQuality::kUnreachable: ++s.scan_unreachable; break;
  }
  s.probes_failed += report.failed_probes;
  s.probes_failed_transient += report.transient_failures;
  if (report.under_attack) ++s.zones_under_attack;
  switch (report.key_state) {
    case KeyLifecycleState::kStable: break;
    case KeyLifecycleState::kMidRollover: ++s.zones_mid_rollover; break;
    case KeyLifecycleState::kBrokenRollover: ++s.zones_broken_rollover; break;
  }
  if (!report.resolved) {
    ++s.unresolved;
    return;
  }

  OperatorRow& row = s.operators[report.operator_name];
  row.name = report.operator_name;
  ++row.domains;

  switch (report.dnssec) {
    case dnssec::ZoneDnssecStatus::kUnsigned:
      ++s.unsigned_zones;
      ++row.unsigned_zones;
      break;
    case dnssec::ZoneDnssecStatus::kSecure:
      ++s.secured;
      ++row.secured;
      break;
    case dnssec::ZoneDnssecStatus::kBogus:
      ++s.invalid;
      ++row.invalid;
      break;
    case dnssec::ZoneDnssecStatus::kSecureIsland:
      ++s.islands;
      ++row.islands;
      break;
  }

  if (report.multi_operator) ++s.multi_operator_zones;

  // §4.2 CDS taxonomy.
  if (report.cds.query_failed) ++s.cds_query_failed;
  if (report.cds.present) {
    ++s.with_cds;
    ++row.with_cds;
    const bool is_unsigned =
        report.dnssec == dnssec::ZoneDnssecStatus::kUnsigned;
    const bool is_secured = report.dnssec == dnssec::ZoneDnssecStatus::kSecure;
    const bool is_island =
        report.dnssec == dnssec::ZoneDnssecStatus::kSecureIsland;
    if (is_unsigned) {
      ++s.unsigned_with_cds;
      if (report.cds.delete_request) ++s.unsigned_with_cds_delete;
    }
    if (is_secured && report.cds.delete_request) ++s.secured_with_cds_delete;
    if (is_island) {
      ++s.island_with_cds;
      if (report.cds.delete_request) ++s.island_with_cds_delete;
      if (report.cds.consistent) {
        ++s.island_cds_consistent;
      } else {
        ++s.island_cds_inconsistent;
        if (report.multi_operator) ++s.island_cds_inconsistent_multi_op;
      }
      if (!report.cds.matches_dnskey) ++s.cds_no_matching_dnskey;
      if (report.cds.matches_dnskey && report.cds.consistent &&
          !report.cds.delete_request && !report.cds.rrsig_valid) {
        ++s.cds_invalid_rrsig;
      }
    }
  }

  ++s.funnel[report.eligibility];

  // Table 3.
  if (report.signal_present) {
    AbColumn& column = s.ab_by_operator[report.operator_name];
    ++column.with_signal;
    ++s.ab_total.with_signal;
    auto bump = [&](std::uint64_t AbColumn::* member) {
      ++(column.*member);
      ++(s.ab_total.*member);
    };
    switch (report.ab) {
      case AbStatus::kAlreadySecured:
        bump(&AbColumn::already_secured);
        break;
      case AbStatus::kCannotDeleteRequest:
        bump(&AbColumn::cannot_bootstrap);
        bump(&AbColumn::deletion_request);
        break;
      case AbStatus::kCannotInvalidDnssec:
        bump(&AbColumn::cannot_bootstrap);
        bump(&AbColumn::invalid_dnssec);
        break;
      case AbStatus::kSignalIncorrect:
        bump(&AbColumn::potential);
        bump(&AbColumn::signal_incorrect);
        break;
      case AbStatus::kSignalCorrect:
        bump(&AbColumn::potential);
        bump(&AbColumn::signal_correct);
        break;
      case AbStatus::kNoSignal:
        break;
    }
    if (report.ab == AbStatus::kSignalIncorrect) {
      if (report.signal_violations.zone_cut) ++s.violation_zone_cut;
      if (report.signal_violations.not_under_every_ns) {
        ++s.violation_not_under_every_ns;
      }
      if (report.signal_violations.chain_invalid) ++s.violation_chain_invalid;
      if (report.signal_violations.inconsistent) ++s.violation_inconsistent;
      if (report.signal_violations.mismatch_with_zone) ++s.violation_mismatch;
    }
  }

  s.endpoints_queried += report.endpoints_queried;
  s.endpoints_available += report.endpoints_available;
  if (report.pool_sampled) ++s.pool_sampled_zones;
}

std::vector<OperatorRow> top_rows_by_domains(const Survey& survey,
                                             std::size_t n) {
  std::vector<OperatorRow> rows;
  for (const auto& [name, row] : survey.operators) {
    if (name != kUnknownOperator) rows.push_back(row);
  }
  std::sort(rows.begin(), rows.end(),
            [](const OperatorRow& a, const OperatorRow& b) {
              return a.domains > b.domains;
            });
  if (rows.size() > n) rows.resize(n);
  return rows;
}

std::vector<OperatorRow> top_rows_by_cds(const Survey& survey, std::size_t n) {
  std::vector<OperatorRow> rows;
  for (const auto& [name, row] : survey.operators) {
    if (name != kUnknownOperator && row.with_cds > 0) rows.push_back(row);
  }
  std::sort(rows.begin(), rows.end(),
            [](const OperatorRow& a, const OperatorRow& b) {
              return a.with_cds > b.with_cds;
            });
  if (rows.size() > n) rows.resize(n);
  return rows;
}

}  // namespace dnsboot::analysis
