#include "longitudinal/report.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace dnsboot::longitudinal {

namespace {

std::string format_double(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

void append_json_escaped(std::string* out, std::string_view text) {
  for (char c : text) {
    if (c == '"' || c == '\\') {
      *out += '\\';
      *out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      *out += buf;
    } else {
      *out += c;
    }
  }
}

}  // namespace

void LatencyHistogram::observe(double hours) {
  int bucket = kBuckets - 1;
  for (int i = 0; i < kBuckets - 1; ++i) {
    if (hours <= kBucketHours[i]) {
      bucket = i;
      break;
    }
  }
  buckets[bucket] += 1;
  count += 1;
  sum_hours += hours;
}

AdoptionReporter::AdoptionReporter(obs::MetricsRegistry* registry)
    : registry_(registry) {
  if (registry_ != nullptr) {
    registry_->set_help("dnsboot_monitor_transitions_total",
                        "journaled zone state transitions by kind");
    registry_->set_help("dnsboot_monitor_bootstrap_hours",
                        "cds_published->ds_bootstrapped latency (hours)");
    // Metric creation is single-threaded constructor work (the registry's
    // concurrency contract: a scrape thread may snapshot while the owner
    // updates, but never while the name maps mutate) — so every label
    // combination on_transition can touch is created here.
    for (int from = 0; from < kZonePhaseCount; ++from) {
      for (int to = 0; to < kZonePhaseCount; ++to) {
        const std::string kind = to_string(static_cast<ZonePhase>(from)) +
                                 "->" + to_string(static_cast<ZonePhase>(to));
        (void)registry_->counter("dnsboot_monitor_transitions_total", "kind",
                                 kind);
      }
    }
    for (int i = 0; i < kZonePhaseCount; ++i) {
      (void)registry_->gauge("dnsboot_monitor_zones_" +
                             to_string(static_cast<ZonePhase>(i)));
    }
    (void)registry_->histogram("dnsboot_monitor_bootstrap_hours");
  }
}

void AdoptionReporter::on_transition(const Transition& t) {
  ++transitions_;
  kinds_[t.kind()] += 1;

  if (t.from != t.to) {
    if (t.from != ZonePhase::kUnknown) {
      counts_[static_cast<int>(t.from)] -= 1;
    }
    counts_[static_cast<int>(t.to)] += 1;
    if (!curve_.empty() && curve_.back().at == t.at) {
      curve_.back().counts = counts_;
    } else {
      curve_.push_back(AdoptionPoint{t.at, counts_});
    }

    if (t.to == ZonePhase::kCdsPublished) {
      pending_cds_.emplace(t.zone, t.at);  // keeps the earliest anchor
    } else if (t.to == ZonePhase::kDsBootstrapped) {
      auto it = pending_cds_.find(t.zone);
      if (it != pending_cds_.end()) {
        const double hours =
            static_cast<double>(t.at - it->second) / (3600.0 * 1e6);
        pending_cds_.erase(it);
        operator_latency_[t.operator_name].observe(hours);
        bootstrap_hours_.push_back(hours);
        if (registry_ != nullptr) {
          registry_->histogram("dnsboot_monitor_bootstrap_hours")
              .observe(static_cast<std::uint64_t>(hours * 3600.0));
        }
      }
    }
  }

  if (registry_ != nullptr) {
    registry_->counter("dnsboot_monitor_transitions_total", "kind", t.kind())
        .add(1);
    for (int i = 0; i < kZonePhaseCount; ++i) {
      registry_
          ->gauge("dnsboot_monitor_zones_" +
                  to_string(static_cast<ZonePhase>(i)))
          .set(static_cast<double>(counts_[i]));
    }
  }
}

std::string AdoptionReporter::to_json() const {
  std::string out = "{\n  \"adoption_curve\": [\n";
  char buf[64];
  for (std::size_t i = 0; i < curve_.size(); ++i) {
    const AdoptionPoint& p = curve_[i];
    std::snprintf(buf, sizeof buf, "    {\"at_usec\": %" PRIu64, p.at);
    out += buf;
    for (int j = 0; j < kZonePhaseCount; ++j) {
      out += ", \"" + to_string(static_cast<ZonePhase>(j)) + "\": " +
             std::to_string(p.counts[j]);
    }
    out += i + 1 < curve_.size() ? "},\n" : "}\n";
  }
  out += "  ],\n  \"transitions\": {\n";
  std::size_t k = 0;
  for (const auto& [kind, count] : kinds_) {
    out += "    \"";
    append_json_escaped(&out, kind);
    out += "\": " + std::to_string(count);
    out += ++k < kinds_.size() ? ",\n" : "\n";
  }
  out += "  },\n  \"operator_latency_hours\": {\n";
  k = 0;
  for (const auto& [op, hist] : operator_latency_) {
    out += "    \"";
    append_json_escaped(&out, op.empty() ? "(unknown)" : op);
    out += "\": {\"count\": " + std::to_string(hist.count) +
           ", \"mean\": " +
           format_double(hist.count > 0
                             ? hist.sum_hours / static_cast<double>(hist.count)
                             : 0) +
           ", \"buckets\": [";
    for (int b = 0; b < LatencyHistogram::kBuckets; ++b) {
      if (b > 0) out += ", ";
      out += std::to_string(hist.buckets[b]);
    }
    out += "]}";
    out += ++k < operator_latency_.size() ? ",\n" : "\n";
  }
  std::vector<double> sorted = bootstrap_hours_;
  std::sort(sorted.begin(), sorted.end());
  out += "  },\n  \"time_to_bootstrapped_hours\": {\"count\": " +
         std::to_string(sorted.size()) +
         ", \"p50\": " + format_double(percentile(sorted, 0.50)) +
         ", \"p90\": " + format_double(percentile(sorted, 0.90)) +
         ", \"p99\": " + format_double(percentile(sorted, 0.99)) +
         ", \"max\": " + format_double(sorted.empty() ? 0 : sorted.back()) +
         "}\n}\n";
  return out;
}

std::string AdoptionReporter::to_csv() const {
  std::string out = "at_usec";
  for (int j = 0; j < kZonePhaseCount; ++j) {
    out += ',';
    out += to_string(static_cast<ZonePhase>(j));
  }
  out += "\n";
  char buf[32];
  for (const AdoptionPoint& p : curve_) {
    std::snprintf(buf, sizeof buf, "%" PRIu64, p.at);
    out += buf;
    for (int j = 0; j < kZonePhaseCount; ++j) {
      out += ',';
      out += std::to_string(p.counts[j]);
    }
    out += "\n";
  }
  return out;
}

}  // namespace dnsboot::longitudinal
