#include "longitudinal/history.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "longitudinal/fields.hpp"

namespace dnsboot::longitudinal {

namespace {

bool parse_u32(std::string_view text, std::uint32_t* out) {
  std::uint64_t v = 0;
  if (!parse_u64(text, &v) || v > UINT32_MAX) return false;
  *out = static_cast<std::uint32_t>(v);
  return true;
}

bool parse_double(std::string_view text, double* out) {
  if (text.empty()) return false;
  std::string buf(text);
  char* end = nullptr;
  *out = std::strtod(buf.c_str(), &end);
  return end == buf.c_str() + buf.size();
}

void append_hexfloat(std::string* out, double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  *out += buf;
}

std::string_view dash_if_empty(std::string_view text) {
  return text.empty() ? std::string_view("-") : text;
}

std::string_view empty_if_dash(std::string_view text) {
  return text == "-" ? std::string_view() : text;
}

}  // namespace

std::string_view HistoryStore::intern(std::string_view text) {
  if (text.empty()) return {};
  auto it = interned_.find(text);
  if (it != interned_.end()) return it->second;
  std::string_view stable = arena_.copy(text);
  interned_.emplace(stable, stable);
  return stable;
}

const ZoneHistory* HistoryStore::find(const dns::Name& zone) const {
  auto it = zones_.find(zone);
  return it == zones_.end() ? nullptr : &it->second;
}

HistoryStore::ProbeOutcome HistoryStore::record_probe(
    const dns::Name& zone, net::SimTime at, const ProbeFinding& finding,
    std::uint32_t stable_probes) {
  auto [entry, inserted] = zones_.try_emplace(zone);
  ZoneHistory& h = entry->second;
  if (inserted) ++phase_counts_[static_cast<int>(h.phase)];
  const double age_seconds =
      h.last_probe > 0 && at > h.last_probe
          ? static_cast<double>(at - h.last_probe) / 1e6
          : 0.0;

  if (!finding.reachable) {
    ++h.probes;
    ++h.failures;
    h.ewma.update(age_seconds, /*good=*/false, /*changed=*/false);
    h.last_probe = at;
    return {};
  }

  const bool cds_changed = finding.cds_digest != h.cds_digest;
  const bool ds_changed = finding.ds_digest != h.ds_digest;
  const bool dnskey_changed = finding.dnskey_digest != h.dnskey_digest;
  const ZonePhase to =
      next_phase(h.phase, finding, h.stable_run, stable_probes);
  const bool phase_changed = to != h.phase;
  const bool changed =
      phase_changed || cds_changed || ds_changed || dnskey_changed;

  ++h.probes;
  h.ewma.update(age_seconds, /*good=*/true, changed);
  if (h.first_seen == 0) h.first_seen = at;
  h.last_probe = at;

  h.quiet_run = changed ? 0 : h.quiet_run + 1;
  const bool settled = to == ZonePhase::kDsBootstrapped ||
                       to == ZonePhase::kMaintained;
  const bool was_settled = h.phase == ZonePhase::kDsBootstrapped ||
                           h.phase == ZonePhase::kMaintained;
  if (settled && was_settled && !cds_changed && !ds_changed &&
      !dnskey_changed) {
    ++h.stable_run;
  } else if (settled) {
    h.stable_run = 0;
  } else {
    h.stable_run = 0;
  }

  ProbeOutcome outcome;
  if (changed) {
    Transition t;
    t.seq = next_seq_++;
    t.at = at;
    t.zone = zone;
    t.from = h.phase;
    t.to = to;
    t.cds_changed = cds_changed;
    t.ds_changed = ds_changed;
    t.dnskey_changed = dnskey_changed;
    t.cds_digest = finding.cds_digest;
    t.ds_digest = finding.ds_digest;
    t.dnskey_digest = finding.dnskey_digest;
    t.key_state = finding.key_state;
    t.operator_name = finding.operator_name;

    if (phase_changed) {
      --phase_counts_[static_cast<int>(h.phase)];
      ++phase_counts_[static_cast<int>(to)];
      h.phase = to;
      h.phase_since = at;
      if (to == ZonePhase::kCdsPublished && h.cds_first_seen == 0) {
        h.cds_first_seen = at;
      }
      if (to == ZonePhase::kDsBootstrapped && h.bootstrapped_at == 0) {
        h.bootstrapped_at = at;
      }
    }
    h.last_transition = at;
    ++h.transitions;
    h.cds_digest = intern(finding.cds_digest);
    h.ds_digest = intern(finding.ds_digest);
    h.dnskey_digest = intern(finding.dnskey_digest);
    outcome.transition = std::move(t);
    outcome.changed = true;
  }
  h.key_state = finding.key_state;
  if (!finding.operator_name.empty() &&
      h.operator_name != finding.operator_name) {
    h.operator_name = intern(finding.operator_name);
  }
  return outcome;
}

std::string HistoryStore::serialize() const {
  std::string out;
  char buf[224];
  for (const auto& [zone, h] : zones_) {
    out += zone.to_text();
    out += '\t';
    out += to_string(h.phase);
    std::snprintf(buf, sizeof buf,
                  "\t%" PRIu64 "\t%" PRIu64 "\t%" PRIu64 "\t%" PRIu64
                  "\t%u\t%u\t%u\t%u\t%u\t%" PRIu64 "\t%" PRIu64 "\t",
                  h.phase_since, h.first_seen, h.last_probe,
                  h.last_transition, h.probes, h.failures, h.transitions,
                  h.stable_run, h.quiet_run, h.cds_first_seen,
                  h.bootstrapped_at);
    out += buf;
    out += dash_if_empty(h.cds_digest);
    out += '\t';
    out += dash_if_empty(h.ds_digest);
    out += '\t';
    out += dash_if_empty(h.dnskey_digest);
    out += '\t';
    out += analysis::to_string(h.key_state);
    out += '\t';
    out += dash_if_empty(h.operator_name);
    for (int i = 0; i < kEwmaWindows; ++i) {
      const EwmaWindow& w = h.ewma.windows[i];
      out += '\t';
      append_hexfloat(&out, w.reliability);
      out += '\t';
      append_hexfloat(&out, w.volatility);
      out += '\t';
      append_hexfloat(&out, w.weight);
    }
    out += '\n';
  }
  return out;
}

Status HistoryStore::restore(const std::string& body) {
  std::map<dns::Name, ZoneHistory> zones;
  std::size_t line_start = 0;
  int line_no = 0;
  while (line_start < body.size()) {
    std::size_t line_end = body.find('\n', line_start);
    if (line_end == std::string::npos) {
      return Error{"history.truncated", "missing trailing newline"};
    }
    std::string_view line(body.data() + line_start, line_end - line_start);
    line_start = line_end + 1;
    ++line_no;
    std::vector<std::string_view> f = split_tabs(line);
    if (f.size() != 18 + 3 * kEwmaWindows) {
      return Error{"history.fields",
                   "line " + std::to_string(line_no) + ": expected " +
                       std::to_string(18 + 3 * kEwmaWindows) + " fields, got " +
                       std::to_string(f.size())};
    }
    auto name = dns::Name::from_text(std::string(f[0]));
    if (!name.ok()) {
      return Error{"history.zone", std::string(f[0])};
    }
    ZoneHistory h;
    std::optional<ZonePhase> phase = phase_from_string(std::string(f[1]));
    if (!phase.has_value()) return Error{"history.phase", std::string(f[1])};
    h.phase = *phase;
    bool ok = parse_u64(f[2], &h.phase_since) &&
              parse_u64(f[3], &h.first_seen) &&
              parse_u64(f[4], &h.last_probe) &&
              parse_u64(f[5], &h.last_transition) &&
              parse_u32(f[6], &h.probes) && parse_u32(f[7], &h.failures) &&
              parse_u32(f[8], &h.transitions) &&
              parse_u32(f[9], &h.stable_run) &&
              parse_u32(f[10], &h.quiet_run) &&
              parse_u64(f[11], &h.cds_first_seen) &&
              parse_u64(f[12], &h.bootstrapped_at);
    h.cds_digest = intern(empty_if_dash(f[13]));
    h.ds_digest = intern(empty_if_dash(f[14]));
    h.dnskey_digest = intern(empty_if_dash(f[15]));
    std::optional<analysis::KeyLifecycleState> key_state =
        key_state_from_string(std::string(f[16]));
    if (!key_state.has_value()) {
      return Error{"history.key_state", std::string(f[16])};
    }
    h.key_state = *key_state;
    h.operator_name = intern(empty_if_dash(f[17]));
    for (int i = 0; ok && i < kEwmaWindows; ++i) {
      EwmaWindow& w = h.ewma.windows[i];
      ok = parse_double(f[18 + 3 * i], &w.reliability) &&
           parse_double(f[19 + 3 * i], &w.volatility) &&
           parse_double(f[20 + 3 * i], &w.weight);
    }
    if (!ok) {
      return Error{"history.parse", "line " + std::to_string(line_no)};
    }
    zones.emplace(std::move(name).take(), h);
  }
  zones_ = std::move(zones);
  phase_counts_ = {};
  for (const auto& [zone, h] : zones_) {
    ++phase_counts_[static_cast<int>(h.phase)];
  }
  return Status::ok_status();
}

}  // namespace dnsboot::longitudinal
